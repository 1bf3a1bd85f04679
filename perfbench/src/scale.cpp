// scale: two serial batch plans of scale10k (their median gives
// plan_nets_per_s) with independent ECO steps between them.  Each step
// copies the first batch solution into a fresh eco::IncrementalPlanner,
// applies eco::random_move_perturbation over 1% of the nets, with a seed
// drawn from the workload seed and the step index, and times replan().
// Every batch plan and step is audited off the clock.

#include <iostream>
#include <map>
#include <optional>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "eco/incremental.hpp"
#include "obs/counters.hpp"
#include "plan.hpp"
#include "seeds.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rabid;

constexpr int kSetupRounds = 5;
constexpr double kEcoFraction = 0.01;

/// Ceilings on the known ECO overflow defect (README.md, "Known
/// failures").  A step whose only audit errors are wire overload is not
/// a failed step, but a run of at least kMinStepsForCeilings steps is
/// incorrect when the defect gets more common or worse than measured
/// when these were set (32-37% of steps, 1.25-1.28 edges per such step,
/// every edge over by 1).
constexpr std::size_t kMinStepsForCeilings = 50;
constexpr double kMaxOverflowStepShare = 0.6;
constexpr double kMaxEdgesPerOverflowStep = 2.0;
constexpr double kMaxOverloadPerEdge = 1.5;

/// Wire overload left by ECO steps.
struct Overflow {
  std::size_t edges = 0;
  double overload = 0.0;  ///< sum over those edges of w(e) - W(e)
};

/// The overload in `audit` when every error in it is wire overload,
/// nullopt when any other check failed.
std::optional<Overflow> overflow_only(const core::AuditReport& audit) {
  Overflow out;
  for (const core::AuditViolation& v : audit.violations) {
    if (v.severity != core::AuditSeverity::kError) continue;
    if (v.check != core::AuditCheck::kWireCapacity) return std::nullopt;
    ++out.edges;
    out.overload += v.actual - v.expected;
  }
  return out;
}

}  // namespace

Result run_scale(const Config& cfg) {
  Result result;
  SpanLog spans(cfg.trace);
  obs::Registry& registry = obs::Registry::instance();
  registry.set_level(obs::Level::kOff);
  const circuits::CircuitSpec& spec = circuits::spec_by_name("scale10k");

  // Set-up: generation and tiling, repeated; the last round is used.
  std::optional<netlist::Design> design;
  std::optional<tile::TileGraph> pristine;
  std::vector<double> build_s, generate_ms, tile_ms;
  for (int round = 0; round < kSetupRounds; ++round) {
    SpanScope setup(spans, "bench.setup");
    const auto t0 = Clock::now();
    {
      SpanScope s(spans, "circuits.generate", setup.id());
      design = circuits::generate_design(spec);
    }
    generate_ms.push_back(ms_since(t0));
    const auto tt = Clock::now();
    {
      SpanScope s(spans, "circuits.tile_graph", setup.id());
      pristine = circuits::build_tile_graph(*design, spec);
    }
    tile_ms.push_back(ms_since(tt));
    build_s.push_back(seconds_since(t0));
  }
  const double nets = static_cast<double>(design->nets().size());

  // The batch plans: serial engine (stage2_shards = 0), one thread.  One
  // opens the measuring window and one closes it, so that the host is
  // sampled twice, far apart.  The ECO steps copy the first, and a
  // traced run counts the first only.
  const auto start = Clock::now();
  core::RabidOptions options;
  options.threads = 1;
  std::vector<double> batch_ms;
  std::optional<Quality> quality;
  LayerSums layers;
  rabid::obs::Snapshot after_batch;
  const auto plan_batch = [&](PlannedDesign& planned,
                              std::optional<tile::TileGraph>& graph,
                              bool counting) {
    registry.set_level(counting ? obs::Level::kCounters : obs::Level::kOff);
    options.obs_level = registry.level();
    graph = *pristine;
    planned = plan_design(*design, *graph, options, spans, -1, 0, counting);
    batch_ms.push_back(planned.plan_ms);
    ++result.attempted;
    const auto ta = Clock::now();
    {
      SpanScope s(spans, "core.audit", -1, 0);
      const core::AuditReport audit = core::audit_solution(*planned.rabid);
      if (!audit.clean()) {
        ++result.failed;
        result.check(false, "batch plan: " + audit.summary());
      }
    }
    Quality q;
    q.add(final_row(planned));
    result.check(!quality || q == *quality,
                 "two batch plans of one design differ");
    quality = q;
    if (counting) {
      layers.add(planned);
      layers.audit_ms = ms_since(ta);
      after_batch = registry.snapshot();
    }
  };
  std::optional<tile::TileGraph> graph;
  PlannedDesign batch;
  plan_batch(batch, graph, cfg.trace);

  // ECO steps until only the closing batch plan fits in the window.
  eco::EcoOptions eopt;
  eopt.tech = options.tech;
  eopt.buffer_library = options.buffer_library;
  std::vector<double> step_ms, step_setup_s, traced_step_ms, untraced_step_ms;
  std::vector<double> dirty, moved, iterations;
  std::size_t overflow_steps = 0;
  Overflow overflow_total;
  std::map<std::size_t, std::size_t> steps_by_edges;
  // A traced run plans each perturbation twice, untraced and then
  // counted, so obs.overhead_pct compares equal work.
  const int min_steps = cfg.trace ? 2 : 1;
  const double eco_seconds = cfg.seconds - batch_ms.front() / 1000.0;
  for (int step = 0; step < min_steps || (cfg.trace && step % 2 == 1) ||
                     seconds_since(start) < eco_seconds;
       ++step) {
    const bool counting = cfg.trace && step % 2 == 1;
    const int perturbation_index = cfg.trace ? step / 2 : step;
    registry.set_level(counting ? obs::Level::kCounters : obs::Level::kOff);
    const auto trace_id = static_cast<std::uint64_t>(step) + 1;
    SpanScope step_span(spans, "bench.eco_step", -1, trace_id);

    const auto ts = Clock::now();
    std::optional<tile::TileGraph> step_graph;
    std::optional<eco::IncrementalPlanner> planner;
    {
      SpanScope s(spans, "eco.setup", step_span.id(), trace_id);
      step_graph = *graph;
      planner.emplace(*design, *step_graph, batch.rabid->nets(), eopt);
    }
    step_setup_s.push_back(seconds_since(ts));
    eco::Perturbation perturbation;
    {
      SpanScope s(spans, "eco.perturb", step_span.id(), trace_id);
      perturbation = eco::random_move_perturbation(
          *planner, kEcoFraction, derive_seed(cfg.seed, perturbation_index));
    }

    eco::ReplanStats stats;
    const auto tr = Clock::now();
    core::Status status;
    {
      SpanScope s(spans, "eco.replan", step_span.id(), trace_id);
      status = planner->replan(perturbation, &stats);
    }
    const double ms = ms_since(tr);
    step_ms.push_back(ms);
    (counting ? traced_step_ms : untraced_step_ms).push_back(ms);
    ++result.attempted;
    dirty.push_back(static_cast<double>(stats.dirty_nets));
    moved.push_back(static_cast<double>(perturbation.moved_nets.size()));
    iterations.push_back(static_cast<double>(stats.iterations));

    if (!status.ok_status()) {
      ++result.failed;
      result.check(false, "eco step " + std::to_string(step) + ": " +
                              status.to_string());
      continue;
    }
    SpanScope s(spans, "eco.audit", step_span.id(), trace_id);
    const core::AuditReport audit = planner->audit();
    if (!audit.clean()) {
      if (const std::optional<Overflow> overflow = overflow_only(audit)) {
        ++overflow_steps;
        ++steps_by_edges[overflow->edges];
        overflow_total.edges += overflow->edges;
        overflow_total.overload += overflow->overload;
      } else {
        ++result.failed;
        result.check(false, "eco step " + std::to_string(step) + ": " +
                                audit.summary());
      }
    }
  }
  registry.set_level(obs::Level::kOff);
  {
    std::optional<tile::TileGraph> closing_graph;
    PlannedDesign closing;
    plan_batch(closing, closing_graph, false);
  }

  const std::size_t steps = step_ms.size();
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double overflow_share = ratio(overflow_steps, steps);
  const double edges_per_step = ratio(overflow_total.edges, overflow_steps);
  const double overload_per_edge =
      ratio(overflow_total.overload, overflow_total.edges);
  std::string overflow_note = format(
      "%zu of %zu ECO steps left wire overload (known defect, not failed "
      "steps): %.2f edges per such step, overload %.2f per edge; steps by "
      "overloaded edges:",
      overflow_steps, steps, edges_per_step, overload_per_edge);
  for (const auto& [edges, count] : steps_by_edges) {
    overflow_note += format(" %zu:%zu", edges, count);
  }
  std::cerr << "perfbench: " << overflow_note << "\n";
  result.check(steps < kMinStepsForCeilings ||
                   (overflow_share <= kMaxOverflowStepShare &&
                    edges_per_step <= kMaxEdgesPerOverflowStep &&
                    overload_per_edge <= kMaxOverloadPerEdge),
               format("ECO overload over its ceilings (%.0f%% of steps, %.1f "
                      "edges per step, %.1f per edge): ",
                      100.0 * kMaxOverflowStepShare, kMaxEdgesPerOverflowStep,
                      kMaxOverloadPerEdge) +
                   overflow_note);

  double replan_total_s = 0.0;
  for (double ms : step_ms) replan_total_s += ms / 1000.0;
  auto& v = result.values;
  v["setup_s"] = median(build_s) + median(step_setup_s);
  v["plan_nets_per_s"] = nets / (median(batch_ms) / 1000.0);
  v["op_ms_p50"] = percentile(step_ms, 0.5);
  v["op_ms_p90"] = percentile(step_ms, 0.9);
  v["ops_per_s"] = static_cast<double>(step_ms.size()) / replan_total_s;
  v["peak_rss_mb"] = peak_rss_mb();
  v["buffers"] = static_cast<double>(quality->buffers);
  v["length_fails"] = static_cast<double>(quality->length_fails);
  v["wirelength_mm"] = quality->wirelength_mm;
  result.check(quality->overflow == 0, "batch plan left wire overflow");

  if (cfg.trace) {
    layers.emit(1.0, result);
    check_plan_coverage(spans, result);
    v["circuits.generate_ms"] = median(generate_ms);
    v["circuits.tile_graph_ms"] = median(tile_ms);
    add_gauge_metrics(after_batch, result);
    double dirty_total = 0.0, moved_total = 0.0;
    for (double d : dirty) dirty_total += d;
    for (double m : moved) moved_total += m;
    v["eco.dirty_nets_per_step"] = dirty_total / static_cast<double>(steps);
    v["eco.closure_ratio"] = ratio(dirty_total, moved_total);
    v["eco.closure_iterations_p90"] = percentile(iterations, 0.9);
    v["eco.overflow_step_share"] = overflow_share;
    v["obs.overhead_pct"] =
        100.0 * (median(traced_step_ms) / median(untraced_step_ms) - 1.0);
    result.mark_not_applicable(kServeOnlyMetrics,
                               "only the serve workload runs this layer");
    std::vector<std::string> notes = {
        format("units: core/route/buffer counters are for the one batch "
               "plan of %.0f nets; eco.* are per step",
               nets),
        format("batch plans %.1f ms counted (opening), %.1f ms untraced "
               "(closing); Rabid construction %.3f ms",
               batch_ms.front(), batch_ms.back(), batch.construct_ms),
        format("%zu ECO steps (%zu counted, %zu untraced); step p50 "
               "counted %.2f ms, untraced %.2f ms",
               step_ms.size(), traced_step_ms.size(), untraced_step_ms.size(),
               median(traced_step_ms), median(untraced_step_ms)),
        overflow_note,
        format("set-up: build %.3f s + per-step copy and planner "
               "construction %.3f s (medians)",
               median(build_s), median(step_setup_s))};
    write_trace_report(cfg, "scale", spans, result, notes);
  }
  return result;
}

}  // namespace perfbench
