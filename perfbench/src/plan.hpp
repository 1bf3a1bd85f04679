#pragma once

/// \file plan.hpp
/// One traced four-stage plan, and the per-layer sums over many.

#include <array>
#include <cstdint>
#include <memory>

#include "core/rabid.hpp"
#include "metrics.hpp"
#include "netlist/design.hpp"
#include "obs/counters.hpp"
#include "spans.hpp"
#include "tile/tile_graph.hpp"

namespace perfbench {

/// A design planned by core::Rabid::run_stage1..4.
struct PlannedDesign {
  std::unique_ptr<rabid::core::Rabid> rabid;
  double plan_ms = 0.0;                ///< construction + four stages
  double construct_ms = 0.0;           ///< the Rabid constructor
  std::array<double, 4> stage_ms{};    ///< wall time of each run_stageN
  /// Registry snapshots before stage 1 and after each stage (only
  /// meaningful when the registry is counting).
  std::array<rabid::obs::Snapshot, 5> snaps{};
};

/// Plans `design` on `graph` (books empty) under a "core.plan" span with
/// one child span per stage.  Snapshots are taken only when `counting`.
PlannedDesign plan_design(const rabid::netlist::Design& design,
                          rabid::tile::TileGraph& graph,
                          const rabid::core::RabidOptions& options,
                          SpanLog& spans, int parent, std::uint64_t trace,
                          bool counting);

/// Per-layer sums over traced plans; emit() divides by the number of
/// planning units (a table1 pass, the scale batch plan).
struct LayerSums {
  std::array<double, 4> stage_ms{};
  double construct_ms = 0.0;
  double audit_ms = 0.0;
  std::array<std::uint64_t,
             static_cast<std::size_t>(rabid::obs::Counter::kCount)>
      counters{};
  std::uint64_t stage2_maze_pops = 0;
  std::uint64_t stage4_twopath_pops = 0;

  void add(const PlannedDesign& p);
  std::uint64_t operator[](rabid::obs::Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  /// Sets the core.*, route.*, buffer.* and util.* per-layer metrics.
  void emit(double units, Result& result) const;
};

/// Sets core.plan_unattributed_pct from the recorded spans — the self
/// time of every "core.plan" span (the part its construction and stage
/// children do not cover) over their total duration — and checks that
/// it is within 1%.
void check_plan_coverage(const SpanLog& spans, Result& result);

/// Final-stage stats row of a planned design.
const rabid::core::StageStats& final_row(const PlannedDesign& p);

}  // namespace perfbench
