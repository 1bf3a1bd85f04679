// table1: the paper's own suite.  Each pass plans all ten Table-I
// circuits, in an order drawn from the seed and the pass index, with
// Rabid::run_stage1..4 at threads=1 and default options.  Every plan is
// audited off the clock, and apte and hp must match the suite's goldens.

#include <cmath>
#include <optional>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "obs/counters.hpp"
#include "plan.hpp"
#include "seeds.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rabid;

constexpr int kSetupRounds = 11;

/// Stage-4 rows the test suite pins for the canonical circuits.
struct Golden {
  std::string_view circuit;
  Quality quality;
};
constexpr Golden kGoldens[] = {
    {"apte", {483, 6, 0, 0.0}},
    {"hp", {467, 7, 0, 0.0}},
};

}  // namespace

Result run_table1(const Config& cfg) {
  Result result;
  SpanLog spans(cfg.trace);
  obs::Registry& registry = obs::Registry::instance();
  registry.set_level(obs::Level::kOff);
  const std::span<const circuits::CircuitSpec> specs = circuits::table1_specs();
  const std::size_t n = specs.size();

  // Set-up: generation and tiling of the ten circuits.  It is repeated
  // before the first pass and after every pass, so its median samples
  // the same machine state as the passes; the first round is used.
  std::vector<netlist::Design> designs;
  std::vector<tile::TileGraph> graphs;
  std::vector<double> setup_s, generate_ms, tile_ms;
  const auto set_up = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      std::vector<netlist::Design> d;
      std::vector<tile::TileGraph> g;
      SpanScope setup(spans, "bench.setup");
      const auto t0 = Clock::now();
      double gen = 0.0, tile = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        auto ts = Clock::now();
        {
          SpanScope s(spans, "circuits.generate", setup.id());
          d.push_back(circuits::generate_design(specs[i]));
        }
        gen += ms_since(ts);
        ts = Clock::now();
        {
          SpanScope s(spans, "circuits.tile_graph", setup.id());
          g.push_back(circuits::build_tile_graph(d.back(), specs[i]));
        }
        tile += ms_since(ts);
      }
      setup_s.push_back(seconds_since(t0));
      generate_ms.push_back(gen);
      tile_ms.push_back(tile);
      if (designs.empty()) {
        designs = std::move(d);
        graphs = std::move(g);
      }
    }
  };
  set_up(kSetupRounds);
  double nets_per_pass = 0.0;
  for (const netlist::Design& d : designs) {
    nets_per_pass += static_cast<double>(d.nets().size());
  }

  core::RabidOptions options;
  options.threads = 1;
  std::vector<double> pass_ms, op_ms, traced_pass_ms, untraced_pass_ms;
  std::vector<std::vector<double>> circuit_ms(n);
  std::optional<std::vector<Quality>> first;
  LayerSums layers;
  int traced_passes = 0;
  const int min_passes = cfg.trace ? 2 : 1;
  const auto start = Clock::now();
  for (int pass = 0; pass < min_passes || seconds_since(start) < cfg.seconds;
       ++pass) {
    // A traced run alternates untraced and counted passes, so the two
    // can be compared for obs.overhead_pct.
    const bool counting = cfg.trace && pass % 2 == 1;
    registry.set_level(counting ? obs::Level::kCounters : obs::Level::kOff);
    options.obs_level = registry.level();
    const auto trace_id = static_cast<std::uint64_t>(pass);
    const int pass_span = spans.open("bench.pass", -1, trace_id);
    double plan_total = 0.0;
    std::vector<Quality> quality(n);
    for (std::size_t i : seeded_order(n, derive_seed(cfg.seed, pass))) {
      tile::TileGraph graph = graphs[i];
      const PlannedDesign planned = plan_design(
          designs[i], graph, options, spans, pass_span, trace_id,
          counting);
      plan_total += planned.plan_ms;
      op_ms.push_back(planned.plan_ms);
      circuit_ms[i].push_back(planned.plan_ms);
      ++result.attempted;

      const auto ta = Clock::now();
      core::AuditReport audit;
      {
        SpanScope s(spans, "core.audit", pass_span, trace_id);
        audit = core::audit_solution(*planned.rabid);
      }
      if (!audit.clean()) {
        ++result.failed;
        result.check(false, specs[i].name.data() + std::string(": ") +
                                audit.summary());
      }
      quality[i].add(final_row(planned));
      if (counting) {
        layers.add(planned);
        layers.audit_ms += ms_since(ta);
      }
    }
    pass_ms.push_back(plan_total);
    (counting ? traced_pass_ms : untraced_pass_ms).push_back(plan_total);
    spans.close(pass_span);
    set_up(kSetupRounds);
    if (counting) ++traced_passes;
    if (!first) {
      first = quality;
    } else {
      result.check(quality == *first,
                   "pass " + std::to_string(pass) +
                       " planned a different solution than pass 0");
    }
  }
  registry.set_level(obs::Level::kOff);

  for (const Golden& golden : kGoldens) {
    for (std::size_t i = 0; i < n; ++i) {
      if (specs[i].name != golden.circuit) continue;
      Quality got = (*first)[i];
      got.wirelength_mm = 0.0;
      result.check(got == golden.quality,
                   format("%s stage 4: %lld buffers, %lld fails, %lld "
                          "overflow; the suite pins %lld/%lld/%lld",
                          golden.circuit.data(),
                          static_cast<long long>(got.buffers),
                          static_cast<long long>(got.length_fails),
                          static_cast<long long>(got.overflow),
                          static_cast<long long>(golden.quality.buffers),
                          static_cast<long long>(golden.quality.length_fails),
                          static_cast<long long>(golden.quality.overflow)));
    }
  }

  Quality total;
  for (const Quality& q : *first) total += q;
  // ops_per_s weighs every circuit alike (geometric mean of each
  // circuit's plans per second), where plan_nets_per_s is dominated by
  // the largest circuits.
  double log_rate = 0.0;
  for (const std::vector<double>& ms : circuit_ms) {
    log_rate += std::log(1000.0 / median(ms));
  }
  auto& v = result.values;
  v["setup_s"] = median(setup_s);
  v["plan_nets_per_s"] = nets_per_pass / (median(pass_ms) / 1000.0);
  v["op_ms_p50"] = percentile(op_ms, 0.5);
  v["op_ms_p90"] = percentile(op_ms, 0.9);
  v["ops_per_s"] = std::exp(log_rate / static_cast<double>(n));
  v["peak_rss_mb"] = peak_rss_mb();
  v["buffers"] = static_cast<double>(total.buffers);
  v["length_fails"] = static_cast<double>(total.length_fails);
  v["wirelength_mm"] = total.wirelength_mm;

  if (cfg.trace) {
    layers.emit(traced_passes, result);
    check_plan_coverage(spans, result);
    v["circuits.generate_ms"] = median(generate_ms);
    v["circuits.tile_graph_ms"] = median(tile_ms);
    add_gauge_metrics(registry.snapshot(), result);
    v["obs.overhead_pct"] =
        100.0 * (median(traced_pass_ms) / median(untraced_pass_ms) - 1.0);
    result.mark_not_applicable(kEcoStepMetrics, "no ECO steps on table1");
    result.mark_not_applicable(kServeOnlyMetrics,
                               "only the serve workload runs this layer");
    std::vector<std::string> notes = {
        format("units: per pass of %zu circuits (%.0f nets); %d counted "
               "passes, %zu untraced",
               n, nets_per_pass, traced_passes, untraced_pass_ms.size()),
        format("pass median: counted %.2f ms, untraced %.2f ms",
               median(traced_pass_ms), median(untraced_pass_ms)),
        format("Rabid construction %.3f ms per pass (inside core.plan)",
               layers.construct_ms / traced_passes),
        format("plan-time samples: %zu circuit plans", op_ms.size())};
    write_trace_report(cfg, "table1", spans, result, notes);
  }
  return result;
}

}  // namespace perfbench
