#include "plan.hpp"

namespace perfbench {

using rabid::obs::Counter;

PlannedDesign plan_design(const rabid::netlist::Design& design,
                          rabid::tile::TileGraph& graph,
                          const rabid::core::RabidOptions& options,
                          SpanLog& spans, int parent, std::uint64_t trace,
                          bool counting) {
  PlannedDesign out;
  auto& registry = rabid::obs::Registry::instance();
  const auto t0 = Clock::now();
  SpanScope plan(spans, "core.plan", parent, trace);
  {
    SpanScope s(spans, "core.construct", plan.id(), trace);
    out.rabid = std::make_unique<rabid::core::Rabid>(design, graph, options);
  }
  out.construct_ms = ms_since(t0);
  if (counting) out.snaps[0] = registry.snapshot();
  rabid::core::Rabid& r = *out.rabid;
  const auto stage = [&](int k, const char* name, auto&& run) {
    const auto ts = Clock::now();
    {
      SpanScope s(spans, name, plan.id(), trace);
      run();
    }
    out.stage_ms[static_cast<std::size_t>(k)] = ms_since(ts);
    if (counting) out.snaps[static_cast<std::size_t>(k) + 1] = registry.snapshot();
  };
  stage(0, "core.stage1", [&] { r.run_stage1(); });
  stage(1, "core.stage2", [&] { r.run_stage2(); });
  stage(2, "core.stage3", [&] { r.run_stage3(); });
  stage(3, "core.stage4", [&] { r.run_stage4(); });
  out.plan_ms = ms_since(t0);
  return out;
}

const rabid::core::StageStats& final_row(const PlannedDesign& p) {
  return p.rabid->stage_history().back();
}

void LayerSums::add(const PlannedDesign& p) {
  for (std::size_t k = 0; k < 4; ++k) stage_ms[k] += p.stage_ms[k];
  construct_ms += p.construct_ms;
  for (std::size_t c = 0; c < counters.size(); ++c) {
    counters[c] += p.snaps[4].counters[c] - p.snaps[0].counters[c];
  }
  stage2_maze_pops += delta(p.snaps[1], p.snaps[2], Counter::kMazeHeapPops);
  stage4_twopath_pops +=
      delta(p.snaps[3], p.snaps[4], Counter::kTwoPathHeapPops);
}

void LayerSums::emit(double units, Result& result) const {
  auto& v = result.values;
  const auto per = [&](Counter c) {
    return static_cast<double>((*this)[c]) / units;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  for (std::size_t k = 0; k < 4; ++k) {
    v["core.stage" + std::to_string(k + 1) + "_ms"] = stage_ms[k] / units;
  }
  v["core.audit_ms"] = audit_ms / units;
  v["core.twopath_searches"] = per(Counter::kTwoPathSearches);
  v["core.twopath_heap_pops"] = per(Counter::kTwoPathHeapPops);
  v["core.twopath_ns_per_pop"] =
      ratio(stage_ms[3] * 1e6, static_cast<double>(stage4_twopath_pops));
  v["core.stage2_iterations"] = per(Counter::kStage2Iterations);
  v["core.stage2_nets_ripped"] = per(Counter::kStage2NetsRipped);
  v["core.stage2_nets_kept"] = per(Counter::kStage2NetsKept);
  v["core.buffers_committed"] = per(Counter::kBuffersCommitted);
  v["core.buffers_removed"] = per(Counter::kBuffersRemoved);
  v["core.buffer_commit_retries_per_dp_net"] =
      ratio(per(Counter::kBufferCommitRetries), per(Counter::kDpNets));
  v["route.maze_routes"] = per(Counter::kMazeRoutes);
  v["route.maze_heap_pops"] = per(Counter::kMazeHeapPops);
  v["route.maze_stale_pop_ratio"] =
      ratio(per(Counter::kMazeStalePops), per(Counter::kMazeHeapPops));
  v["route.maze_ns_per_pop"] =
      ratio(stage_ms[1] * 1e6, static_cast<double>(stage2_maze_pops));
  v["route.edge_cache_invalidations"] = per(Counter::kEdgeCacheInvalidations);
  v["route.edge_cache_full_refreshes"] = per(Counter::kEdgeCacheFullRefreshes);
  v["route.wire_units_committed"] = per(Counter::kWireUnitsCommitted);
  v["route.wire_units_removed"] = per(Counter::kWireUnitsRemoved);
  v["buffer.dp_nets"] = per(Counter::kDpNets);
  v["buffer.dp_cells"] = per(Counter::kDpCellsComputed);
  v["buffer.dp_infeasible_ratio"] =
      ratio(per(Counter::kDpCellsInfeasible), per(Counter::kDpCellsComputed));
  v["buffer.dp_limit_relaxations"] = per(Counter::kDpLimitRelaxations);
  v["util.heap_regrows"] = per(Counter::kHeapRegrows);
}

void check_plan_coverage(const SpanLog& spans, Result& result) {
  const std::vector<SpanLog::Span> all = spans.spans();
  const std::vector<double> self = SpanLog::self_us(all);
  double plan_us = 0.0, unattributed_us = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].name != "core.plan" || all[i].end_us < all[i].start_us) continue;
    plan_us += all[i].end_us - all[i].start_us;
    unattributed_us += self[i];
  }
  const double gap = plan_us > 0 ? 100.0 * unattributed_us / plan_us : 0.0;
  result.values["core.plan_unattributed_pct"] = gap;
  result.check(plan_us > 0 && gap < 1.0,
               format("construction and stage spans leave %.3f%% of %.1f ms "
                      "of core.plan spans unattributed",
                      gap, plan_us / 1000.0));
}

}  // namespace perfbench
