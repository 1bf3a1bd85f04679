// rabid_cli — run the full planning flow on any Table-I benchmark from
// the command line.
//
//   rabid_cli --circuit xerox
//   rabid_cli --circuit ami49 --grid 40x40 --sites 2000 --heatmaps
//   rabid_cli --circuit hp --two-pin --backend bbp   # baseline instead
//   rabid_cli --circuit hp --backend mcf --audit     # MCF backend
//   rabid_cli --circuit apte --vg 20                 # timing rebuffering
//
// Flags:
//   --circuit NAME     one of apte xerox hp ami33 ami49 playout ac3 xc5
//                      hc7 a9c3 (required)
//   --backend NAME     allocator backend: rabid (default), bbp (the
//                      BBP/FR baseline; needs --two-pin), or mcf (the
//                      multicommodity-flow backend).  --audit, --report,
//                      --trace, --dump-solution and --svg work for every
//                      backend; stage/checkpoint/deadline flags are
//                      RABID-only and rejected elsewhere
//   --threads N        worker threads for the per-net stages (default:
//                      one per hardware thread; 1 = serial; any value
//                      yields a bit-identical solution)
//   --grid NxM         override the tiling (default: Table I)
//   --sites N          override the buffer-site count (default: Table I)
//   --no-blocked       disable the 9x9 blocked cache region
//   --post             enable the congestion post-pass after stage 2
//   --stage2-shards K  region-sharded stage 2: KxK regions, region-local
//                      nets rerouted in parallel under confinement,
//                      boundary nets serially (0 = legacy serial loop;
//                      bit-identical across thread counts for fixed K)
//   --stages N         run only stages 1..N (default 4); pairs with
//                      --audit for fast large-circuit smoke runs
//   --vg K             after stage 4, timing-driven rebuffer the K worst
//                      nets (van Ginneken + power levels)
//   --inverters        let --vg use the library's inverters too (every
//                      sink keeps an even inversion count)
//   --audit            run the independent SolutionAuditor after every
//                      stage; print its report and exit 1 on violations
//   --audit-json F     write the accumulated audit report as JSON to F
//   --obs LEVEL        observability level: off, counters, trace
//                      (implied counters by --report, trace by --trace)
//   --report F         write the structured RunReport JSON to F
//   --trace F          write a chrome-trace (Perfetto) JSON to F
//   --dump-design F    write the generated design (text format) to F
//   --dump-solution F  write the final routes+buffers to F
//   --svg F            render floorplan+routes+buffers as SVG to F
//   --two-pin          decompose multi-pin nets first (Table V setup)
//   --bbp              alias for --backend bbp
//   --heatmaps         print congestion/density maps after the run
//   --deadline-ms MS   wall-clock budget for the flow; on expiry the
//                      best legal partial solution is kept and the
//                      process exits 4
//   --checkpoint-dir D write a checkpoint into D after every stage
//                      (atomic; resumable with --resume)
//   --resume           restore the checkpoint in --checkpoint-dir and
//                      run only the remaining stages
//   --eco              after the flow, apply a seeded random ECO (a
//                      fraction of the nets get their pins moved to
//                      random tiles) and re-plan only its dirty closure
//                      through the incremental planner (docs/
//                      INCREMENTAL.md); prints what the replan touched
//   --eco-perturb F    fraction of nets the ECO moves (default 0.05)
//   --eco-seed S       ECO perturbation seed (default 1)
//   --eco-verify       after the replan, plan the perturbed design from
//                      scratch and hold the incremental solution to the
//                      declared equivalence bound (audit-clean + within
//                      epsilon); exit 1 past the bound.  Implies --eco
//
// Numeric flag values must parse whole, be finite and lie in the flag's
// range; anything else is a usage error.
//
// Exit codes (docs/ROBUSTNESS.md): 0 success, 1 audit violations,
// 2 usage error, 3 input/I-O error, 4 deadline exceeded.

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <fstream>

#include "alloc/factory.hpp"
#include "bbp/bbp.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/checkpoint.hpp"
#include "core/rabid.hpp"
#include "core/run_report.hpp"
#include "core/solution_io.hpp"
#include "core/status.hpp"
#include "core/validate.hpp"
#include "eco/incremental.hpp"
#include "obs/trace.hpp"
#include "netlist/io.hpp"
#include "report/heatmap.hpp"
#include "report/svg.hpp"
#include "report/table.hpp"

namespace {

struct Args {
  std::string circuit;
  std::int32_t threads = 0;
  std::int32_t nx = 0, ny = 0;
  std::int64_t sites = -1;
  bool no_blocked = false;
  bool post = false;
  std::int32_t stage2_shards = 0;
  int stages = 4;
  std::size_t vg = 0;
  bool inverters = false;
  bool audit = false;
  std::string audit_json;
  rabid::obs::Level obs_level = rabid::obs::Level::kOff;
  std::string report_json;
  std::string trace_json;
  std::string dump_design;
  std::string dump_solution;
  std::string svg;
  bool two_pin = false;
  rabid::core::Backend backend = rabid::core::Backend::kRabid;
  bool heatmaps = false;
  double deadline_ms = 0.0;
  std::string checkpoint_dir;
  bool resume = false;
  std::string buffer_library;  // planning preset: unit|paper2|paper4
  bool eco = false;
  double eco_perturb = 0.05;
  std::uint64_t eco_seed = 1;
  bool eco_verify = false;
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: rabid_cli --circuit NAME [--threads N] [--grid NxM]\n"
               "       [--sites N] [--no-blocked] [--post] [--vg K]\n"
               "       [--stage2-shards K] [--stages N]\n"
               "       [--inverters] [--audit] [--audit-json F]\n"
               "       [--obs off|counters|trace] [--report F] [--trace F]\n"
               "       [--two-pin] [--backend rabid|bbp|mcf] [--dump-design F]\n"
               "       [--dump-solution F] [--heatmaps] [--deadline-ms MS]\n"
               "       [--checkpoint-dir D] [--resume]\n"
               "       [--buffer-library unit|paper2|paper4]\n"
               "       [--eco] [--eco-perturb F] [--eco-seed S]\n"
               "       [--eco-verify]\n");
  std::exit(2);
}

/// Reports a structured error on stderr and returns its documented
/// exit code (3 for input/I-O errors, 4 for deadline expiry).
int fail(const rabid::core::Status& status) {
  std::fprintf(stderr, "%s\n", status.to_string().c_str());
  return status.exit_code();
}

/// Parses a numeric flag value strictly: the whole string must parse as
/// a T, and the value must be finite and lie in [lo, hi].  Otherwise
/// exits through usage(msg).
template <typename T>
T parse_number(const char* text, T lo, T hi, const char* msg) {
  T v{};
  const char* const end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  // NaN fails both comparisons; an infinity fails the finite bound.
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) usage(msg);
  return v;
}

template <typename T>
constexpr T kMax = std::numeric_limits<T>::max();

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--circuit") {
      a.circuit = value();
    } else if (flag == "--threads") {
      a.threads = parse_number<std::int32_t>(
          value(), 0, kMax<std::int32_t>,
          "--threads expects a non-negative count");
    } else if (flag == "--grid") {
      const std::string v = value();
      const std::size_t x = v.find('x');
      if (x == std::string::npos) usage("--grid expects NxM");
      a.nx = parse_number<std::int32_t>(v.substr(0, x).c_str(), 1,
                                        kMax<std::int32_t>,
                                        "--grid expects NxM");
      a.ny = parse_number<std::int32_t>(v.c_str() + x + 1, 1,
                                        kMax<std::int32_t>,
                                        "--grid expects NxM");
    } else if (flag == "--sites") {
      a.sites = parse_number<std::int64_t>(
          value(), 0, kMax<std::int64_t>,
          "--sites expects a non-negative count");
    } else if (flag == "--no-blocked") {
      a.no_blocked = true;
    } else if (flag == "--post") {
      a.post = true;
    } else if (flag == "--stage2-shards") {
      a.stage2_shards = parse_number<std::int32_t>(
          value(), 0, kMax<std::int32_t>, "--stage2-shards expects >= 0");
    } else if (flag == "--stages") {
      a.stages = parse_number<int>(value(), 1, 4, "--stages expects 1..4");
    } else if (flag == "--vg") {
      a.vg = parse_number<std::size_t>(value(), 0, kMax<std::size_t>,
                                       "--vg expects a non-negative count");
    } else if (flag == "--inverters") {
      a.inverters = true;
    } else if (flag == "--audit") {
      a.audit = true;
    } else if (flag == "--audit-json") {
      a.audit_json = value();
    } else if (flag == "--obs") {
      if (!rabid::obs::level_from_name(value(), &a.obs_level))
        usage("--obs expects off, counters, or trace");
    } else if (flag == "--report") {
      a.report_json = value();
    } else if (flag == "--trace") {
      a.trace_json = value();
    } else if (flag == "--dump-design") {
      a.dump_design = value();
    } else if (flag == "--dump-solution") {
      a.dump_solution = value();
    } else if (flag == "--svg") {
      a.svg = value();
    } else if (flag == "--two-pin") {
      a.two_pin = true;
    } else if (flag == "--backend") {
      if (!rabid::core::backend_from_name(value(), &a.backend))
        usage("--backend expects rabid, bbp, or mcf");
    } else if (flag == "--bbp") {
      a.backend = rabid::core::Backend::kBbp;
    } else if (flag == "--heatmaps") {
      a.heatmaps = true;
    } else if (flag == "--deadline-ms") {
      a.deadline_ms = parse_number<double>(
          value(), 0.0, kMax<double>,
          "--deadline-ms expects a finite value >= 0");
    } else if (flag == "--checkpoint-dir") {
      a.checkpoint_dir = value();
    } else if (flag == "--resume") {
      a.resume = true;
    } else if (flag == "--buffer-library") {
      a.buffer_library = value();
      rabid::buffer::BufferLibrary probe;
      if (!rabid::buffer::BufferLibrary::preset(a.buffer_library, &probe))
        usage("--buffer-library expects unit, paper2, or paper4");
    } else if (flag == "--eco") {
      a.eco = true;
    } else if (flag == "--eco-perturb") {
      a.eco_perturb = parse_number<double>(
          value(), 0.0, 1.0, "--eco-perturb expects a fraction in (0, 1]");
      if (a.eco_perturb == 0.0)
        usage("--eco-perturb expects a fraction in (0, 1]");
    } else if (flag == "--eco-seed") {
      a.eco_seed = parse_number<std::uint64_t>(
          value(), 0, kMax<std::uint64_t>,
          "--eco-seed expects an unsigned seed");
    } else if (flag == "--eco-verify") {
      a.eco_verify = true;
      a.eco = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(nullptr);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.circuit.empty()) usage("--circuit is required");
  if (a.backend == rabid::core::Backend::kBbp && !a.two_pin)
    usage("--backend bbp requires --two-pin");
  if (!a.audit_json.empty()) a.audit = true;
  // Writing a report implies counting; writing a trace implies tracing.
  if (!a.report_json.empty() && a.obs_level < rabid::obs::Level::kCounters)
    a.obs_level = rabid::obs::Level::kCounters;
  if (!a.trace_json.empty()) a.obs_level = rabid::obs::Level::kTrace;
  if (a.resume && a.checkpoint_dir.empty())
    usage("--resume needs --checkpoint-dir");
  if (a.vg > 0 && a.stages < 3)
    usage("--vg needs at least --stages 3");
  // Stage plumbing, deadlines, checkpoints and the post-pass belong to
  // the four-stage flow; other backends reject them as a usage error
  // here (and the factory rejects a deadline config again at the
  // library layer, as an exit-code-3 input error).
  if (a.backend != rabid::core::Backend::kRabid &&
      (a.resume || !a.checkpoint_dir.empty() || a.deadline_ms > 0 ||
       a.post || a.stage2_shards > 0 || a.stages != 4 || a.vg > 0 ||
       a.eco))
    usage("stage/checkpoint/deadline flags apply to --backend rabid only");
  // The ECO adopts the finished four-stage solution; a partial flow
  // (early stages, a deadline) or a vg-rebuffered one is not that.
  if (a.eco && (a.stages != 4 || a.deadline_ms > 0 || a.vg > 0))
    usage("--eco needs the full four-stage flow "
          "(no --stages/--deadline-ms/--vg)");
  return a;
}

void print_stats_row(rabid::report::Table& t,
                     const rabid::core::StageStats& s) {
  using rabid::report::fmt;
  t.add_row({s.stage, fmt(s.max_wire_congestion, 2),
             fmt(s.avg_wire_congestion, 2), fmt(s.overflow),
             fmt(s.max_buffer_density, 2), fmt(s.buffers),
             fmt(static_cast<std::int64_t>(s.failed_nets)),
             fmt(s.wirelength_mm, 0), fmt(s.max_delay_ps, 0),
             fmt(s.avg_delay_ps, 0), fmt(s.cpu_s, 2),
             fmt(static_cast<std::int64_t>(s.threads))});
}

/// RABID stage by stage: a prefix of the flow (--stages) or the rest of
/// a checkpointed run (--resume), checkpointing after each stage
/// (--checkpoint-dir).  Prints each stage row into `table`.
rabid::core::Status run_stages(rabid::core::Rabid& rabid, const Args& args,
                              rabid::report::Table& table) {
  using rabid::core::Status;
  int completed = 0;
  if (args.resume) {
    if (Status s = rabid::core::resume_from_checkpoint(args.checkpoint_dir,
                                                       rabid, &completed);
        !s) {
      return s;
    }
    std::printf("resumed from %s (stages 1..%d already complete)\n\n",
                args.checkpoint_dir.c_str(), completed);
  }
  for (int stage = completed + 1; stage <= args.stages; ++stage) {
    if (rabid.timed_out()) break;
    switch (stage) {
      case 1: print_stats_row(table, rabid.run_stage1()); break;
      case 2: print_stats_row(table, rabid.run_stage2()); break;
      case 3: print_stats_row(table, rabid.run_stage3()); break;
      case 4: print_stats_row(table, rabid.run_stage4()); break;
    }
    // A stage that the deadline cancelled mid-way is deliberately not
    // checkpointed: the checkpoint would claim the stage completed.
    if (args.checkpoint_dir.empty() || rabid.timed_out()) continue;
    if (Status s = rabid::core::write_checkpoint(args.checkpoint_dir, rabid,
                                                 stage);
        !s) {
      return s;
    }
  }
  return Status::ok();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rabid;
  const Args args = parse(argc, argv);

  const circuits::CircuitSpec* spec = circuits::find_spec(args.circuit);
  if (spec == nullptr) {
    return fail(core::Status::invalid_input(
        "unknown circuit '" + args.circuit +
            "' (expected a Table-I benchmark name)",
        "--circuit"));
  }
  netlist::Design design = circuits::generate_design(*spec);
  if (args.two_pin) design = netlist::Design::decompose_to_two_pin(design);

  circuits::TilingOptions topt;
  topt.nx = args.nx;
  topt.ny = args.ny;
  topt.buffer_sites = args.sites;
  if (args.no_blocked) topt.blocked_span = 0;
  tile::TileGraph graph = circuits::build_tile_graph(design, *spec, topt);
  if (core::Status s = core::validate_inputs(design, graph); !s) {
    return fail(s);
  }

  if (!args.dump_design.empty()) {
    std::ofstream out(args.dump_design);
    if (!out) {
      return fail(core::Status::io_error("cannot open for writing",
                                         args.dump_design));
    }
    netlist::write_design(out, design);
    std::printf("wrote design to %s\n", args.dump_design.c_str());
  }

  std::printf("%s: %zu nets, %zu sinks, %dx%d tiles, %lld sites, L=%d\n\n",
              design.name().c_str(), design.nets().size(),
              design.total_sinks(), graph.nx(), graph.ny(),
              static_cast<long long>(graph.total_site_supply()),
              design.default_length_limit());

  alloc::AllocatorConfig config;
  core::RabidOptions& options = config.rabid;
  options.threads = args.threads;
  options.obs_level = args.obs_level;
  options.congestion_post_after_stage2 = args.post;
  options.stage2_shards = args.stage2_shards;
  if (args.audit) options.audit_level = core::AuditLevel::kPerStage;
  options.deadline_ms = args.deadline_ms;
  if (!args.buffer_library.empty()) {
    buffer::BufferLibrary::preset(args.buffer_library,
                                  &options.buffer_library);
  }
  auto made = alloc::make_allocator(args.backend, design, graph, config);
  if (!made.ok()) return fail(made.status());
  core::Allocator& alloc = *made.value();

  report::Table table({"stage", "wireC max", "wireC avg", "overflows",
                       "bufD max", "#bufs", "#fails", "wl (mm)",
                       "delay max", "delay avg", "wall (s)", "thr"});
  // parse() admits the stage, checkpoint and vG flags for RABID only.
  core::Rabid* const rabid = dynamic_cast<core::Rabid*>(&alloc);
  if (args.resume || !args.checkpoint_dir.empty() || args.stages != 4) {
    if (core::Status s = run_stages(*rabid, args, table); !s) return fail(s);
  } else {
    for (const core::StageStats& s : alloc.plan()) print_stats_row(table, s);
  }
  if (args.vg > 0 && !alloc.timed_out()) {
    const buffer::BufferLibrary lib = buffer::BufferLibrary::standard_180nm();
    const core::StageStats vg = rabid->rebuffer_timing_driven(
        args.vg, args.inverters ? lib : lib.buffers_only());
    print_stats_row(table, vg);
  }
  table.print();
  if (alloc.backend() == core::Backend::kBbp) {
    std::printf("BBP/FR: MTAP %.2f%% (Table V column the stage rows"
                " cannot carry)\n",
                bbp::mtap_pct(graph, circuits::kBufferSiteAreaUm2));
  }

  int rc = 0;
  if (alloc.timed_out()) {
    std::printf("\ndeadline of %.1f ms expired: %lld nets returned "
                "unprocessed (solution is a legal partial)\n",
                args.deadline_ms,
                static_cast<long long>(alloc.nets_cancelled()));
    rc = 4;
  }
  if (args.audit) {
    // A resume that had nothing left to run produced no per-stage
    // audits; fall back to a fresh ground-up audit of the solution.
    core::AuditReport resumed_audit;
    const core::AuditReport* report = alloc.last_audit();
    if (report == nullptr) {
      resumed_audit = alloc.audit();
      report = &resumed_audit;
    }
    std::printf("\n%s\n", report->summary().c_str());
    if (!args.audit_json.empty()) {
      std::ofstream out(args.audit_json);
      if (!out) {
        return fail(core::Status::io_error("cannot open for writing",
                                           args.audit_json));
      }
      report->write_json(out);
      std::printf("wrote audit report to %s\n", args.audit_json.c_str());
    }
    if (!report->clean()) rc = 1;
  }
  if (!args.report_json.empty()) {
    std::ofstream out(args.report_json);
    if (!out) {
      return fail(core::Status::io_error("cannot open for writing",
                                         args.report_json));
    }
    alloc.run_report().write_json(out);
    std::printf("wrote run report to %s\n", args.report_json.c_str());
  }
  if (!args.trace_json.empty()) {
    std::ofstream out(args.trace_json);
    if (!out) {
      return fail(core::Status::io_error("cannot open for writing",
                                         args.trace_json));
    }
    obs::Registry::instance().trace().write_json(out);
    std::printf("wrote chrome trace to %s (open in ui.perfetto.dev)\n",
                args.trace_json.c_str());
  }
  if (!args.dump_solution.empty()) {
    std::ofstream out(args.dump_solution);
    if (!out) {
      return fail(core::Status::io_error("cannot open for writing",
                                         args.dump_solution));
    }
    core::write_solution(out, design, graph, alloc.nets());
    std::printf("wrote solution to %s\n", args.dump_solution.c_str());
  }
  if (!args.svg.empty()) {
    std::ofstream out(args.svg);
    if (!out) {
      return fail(core::Status::io_error("cannot open for writing", args.svg));
    }
    out << report::render_svg(design, graph, alloc.nets());
    std::printf("wrote plot to %s\n", args.svg.c_str());
  }
  // ECO last: everything above reports the batch solution; from here
  // on the graph's books belong to the incremental planner.
  if (args.eco) {
    eco::EcoOptions eopt;
    eopt.tech = options.tech;
    eopt.buffer_library = options.buffer_library;
    eco::IncrementalPlanner planner(design, graph, alloc.nets(), eopt);
    const eco::Perturbation perturbation = eco::random_move_perturbation(
        planner, args.eco_perturb, args.eco_seed);
    eco::ReplanStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    if (core::Status s = planner.replan(perturbation, &stats); !s) {
      return fail(s);
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::printf("\neco: moved %zu nets (%.1f%% of %zu, seed %llu); "
                "replanned %lld, kept %lld, %lld closure iterations, "
                "%.1f ms\n",
                perturbation.moved_nets.size(), 100.0 * args.eco_perturb,
                planner.design().nets().size(),
                static_cast<unsigned long long>(args.eco_seed),
                static_cast<long long>(stats.dirty_nets),
                static_cast<long long>(stats.kept_nets),
                static_cast<long long>(stats.iterations), ms);
    if (args.eco_verify) {
      const eco::EquivalenceReport report =
          eco::compare_with_scratch(planner);
      std::printf("eco verify: %s\n", report.summary().c_str());
      if (!report.within(eopt.equivalence_epsilon)) {
        std::printf("eco verify: FAILED the declared equivalence bound "
                    "(epsilon %.2f)\n",
                    eopt.equivalence_epsilon);
        rc = 1;
      }
    }
  }

  if (args.heatmaps) {
    std::printf("\nwire congestion ('@' = overflow):\n%s",
                report::wire_congestion_map(graph).c_str());
    std::printf("\nbuffer occupancy ('X' = no sites):\n%s",
                report::buffer_density_map(graph).c_str());
  }
  return rc;
}
