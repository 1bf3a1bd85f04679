// ECO latency curves: what incremental re-planning actually buys over
// re-running the full four-stage flow, measured on the scale circuit
// family (docs/INCREMENTAL.md).
//
// One run = one seeded circuit, batch-planned once, then hit with a
// pin-move ECO over --perturb of its nets (eco::random_move_perturbation
// — the same workload rabid_cli --eco applies).  Three rows per size:
//
//   BM_EcoBatch/<size>        the initial batch plan (context row)
//   BM_EcoIncremental/<size>  IncrementalPlanner::replan of the ECO
//   BM_EcoFullReplan/<size>   from-scratch flow on the perturbed design
//
// plus the streaming ingest rate on a fresh graph of the same size:
//
//   BM_StreamIngest/<size>    StreamPlanner fed every net in order
//                             ("nets_per_s" carries the rate)
//
// Output is google-benchmark-shaped JSON on stdout so the existing
// report/compare tooling applies unchanged:
//
//   tools/bench_report.py --suite eco --out BENCH_eco.json
//   tools/bench_compare.py BENCH_eco.json current.json
//       --min-speedup 'BM_EcoFullReplan/scale30k>BM_EcoIncremental/scale30k=5.0'
//
// Usage: eco_latency [--sizes scale30k] [--perturb F] [--seed S]
//                    [--quick] [--benchmark_format=json]
//                    [--benchmark_min_time=X] [--benchmark_filter=SUB]
//   --sizes    comma-separated scale-family circuit names (specs.hpp)
//   --perturb  fraction of nets the ECO moves (default 0.05)
//   --seed     perturbation seed (default 1)
//   --quick    scale10k only (CI smoke)
//   the --benchmark_* flags exist so bench_report.py can drive this
//   binary exactly like the google-benchmark ones; min_time is ignored
//   (every row is a single timed run) and filter is a substring match.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "eco/incremental.hpp"
#include "eco/stream.hpp"
#include "obs/memory.hpp"

namespace {

struct Row {
  std::string name;
  double seconds = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  double nets_per_s = 0.0;      // stream rows only
  std::int64_t dirty_nets = 0;  // incremental rows only
  bool stream = false;
  bool incremental = false;
};

bool contains(const std::string& haystack, const std::string& needle) {
  return needle.empty() || haystack.find(needle) != std::string::npos;
}

std::vector<std::string> split_csv(const char* arg) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = arg; *p; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*p);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rabid;
  std::vector<std::string> sizes = {"scale30k"};
  double perturb = 0.05;
  std::uint64_t seed = 1;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--sizes") == 0 && i + 1 < argc) {
      sizes = split_csv(argv[++i]);
    } else if (std::strcmp(arg, "--perturb") == 0 && i + 1 < argc) {
      perturb = std::atof(argv[++i]);
      if (perturb <= 0.0 || perturb > 1.0) {
        std::fprintf(stderr, "eco_latency: --perturb expects (0, 1]\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--quick") == 0) {
      sizes = {"scale10k"};
    } else if (std::strncmp(arg, "--benchmark_filter=", 19) == 0) {
      filter = arg + 19;
    } else if (std::strncmp(arg, "--benchmark_min_time=", 21) == 0) {
      // Single timed run per row; accepted for bench_report.py parity.
    } else if (std::strcmp(arg, "--benchmark_format=json") == 0) {
      // JSON is the only format.
    } else {
      std::fprintf(stderr,
                   "usage: eco_latency [--sizes a,b,c] [--perturb F] "
                   "[--seed S] [--quick]\n");
      return 2;
    }
  }

  std::vector<Row> rows;
  for (const std::string& size : sizes) {
    const circuits::CircuitSpec* spec = circuits::find_spec(size);
    if (spec == nullptr || !spec->scale) {
      std::fprintf(stderr, "eco_latency: unknown scale circuit '%s'\n",
                   size.c_str());
      return 2;
    }
    const netlist::Design design = circuits::generate_design(*spec);
    core::RabidOptions options;  // serial: one clean timing baseline

    // Batch plan (also the solution the incremental replan adopts).
    tile::TileGraph graph = circuits::build_tile_graph(design, *spec);
    core::Rabid rabid(design, graph, options);
    auto t0 = std::chrono::steady_clock::now();
    rabid.run_all();
    const double batch_s = seconds_since(t0);
    const std::string batch_name = "BM_EcoBatch/" + size;
    if (contains(batch_name, filter)) {
      rows.push_back({batch_name, batch_s, obs::peak_rss_bytes()});
    }

    eco::EcoOptions eopt;
    eopt.tech = options.tech;
    eopt.buffer_library = options.buffer_library;
    eco::IncrementalPlanner planner(design, graph, rabid.nets(), eopt);
    const eco::Perturbation perturbation =
        eco::random_move_perturbation(planner, perturb, seed);

    const std::string inc_name = "BM_EcoIncremental/" + size;
    eco::ReplanStats stats;
    t0 = std::chrono::steady_clock::now();
    if (core::Status s = planner.replan(perturbation, &stats); !s) {
      std::fprintf(stderr, "eco_latency: replan failed: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    const double inc_s = seconds_since(t0);
    if (contains(inc_name, filter)) {
      Row row{inc_name, inc_s, obs::peak_rss_bytes()};
      row.dirty_nets = stats.dirty_nets;
      row.incremental = true;
      rows.push_back(row);
    }
    std::fprintf(stderr, "%s: %.3fs (%lld of %zu nets dirty)\n",
                 inc_name.c_str(), inc_s,
                 static_cast<long long>(stats.dirty_nets),
                 planner.design().nets().size());

    // From-scratch reference: the full flow on the perturbed design.
    const std::string full_name = "BM_EcoFullReplan/" + size;
    if (contains(full_name, filter)) {
      tile::TileGraph fresh =
          circuits::build_tile_graph(planner.design(), *spec);
      core::Rabid scratch(planner.design(), fresh, options);
      t0 = std::chrono::steady_clock::now();
      scratch.run_all();
      const double full_s = seconds_since(t0);
      rows.push_back({full_name, full_s, obs::peak_rss_bytes()});
      std::fprintf(stderr, "%s: %.3fs (%.1fx the incremental replan)\n",
                   full_name.c_str(), full_s,
                   inc_s > 0 ? full_s / inc_s : 0.0);
    }

    // Streaming ingest rate: every net of the (unperturbed) design fed
    // in order into a fresh session under hard admission.
    const std::string stream_name = "BM_StreamIngest/" + size;
    if (contains(stream_name, filter)) {
      tile::TileGraph fresh = circuits::build_tile_graph(design, *spec);
      eco::StreamOptions sopt;
      sopt.tech = options.tech;
      sopt.buffer_library = options.buffer_library;
      netlist::Design header = design;
      header.mutable_nets().clear();
      eco::StreamPlanner stream(std::move(header), fresh, sopt);
      t0 = std::chrono::steady_clock::now();
      for (const netlist::Net& net : design.nets()) {
        (void)stream.add_net(net);
      }
      stream.finish();
      const double stream_s = seconds_since(t0);
      Row row{stream_name, stream_s, obs::peak_rss_bytes()};
      row.nets_per_s =
          stream_s > 0
              ? static_cast<double>(design.nets().size()) / stream_s
              : 0.0;
      row.stream = true;
      rows.push_back(row);
      std::fprintf(stderr, "%s: %.3fs (%.0f nets/s, %zu parked)\n",
                   stream_name.c_str(), stream_s, row.nets_per_s,
                   stream.parked_count());
    }
  }

  std::printf("{\n  \"context\": {\n");
#ifdef NDEBUG
  std::printf("    \"library_build_type\": \"release\",\n");
#else
  std::printf("    \"library_build_type\": \"debug\",\n");
#endif
  std::printf("    \"perturb\": %.4f,\n    \"seed\": %" PRIu64 "\n  },\n",
              perturb, seed);
  std::printf("  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", r.name.c_str());
    std::printf("      \"run_name\": \"%s\",\n", r.name.c_str());
    std::printf("      \"run_type\": \"iteration\",\n");
    std::printf("      \"iterations\": 1,\n");
    std::printf("      \"real_time\": %.6f,\n", r.seconds);
    std::printf("      \"cpu_time\": %.6f,\n", r.seconds);
    std::printf("      \"time_unit\": \"s\",\n");
    if (r.stream) {
      std::printf("      \"nets_per_s\": %.1f,\n", r.nets_per_s);
    }
    if (r.incremental) {
      std::printf("      \"dirty_nets\": %" PRId64 ",\n", r.dirty_nets);
    }
    std::printf("      \"peak_rss_bytes\": %" PRIu64 "\n", r.peak_rss_bytes);
    std::printf("    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
