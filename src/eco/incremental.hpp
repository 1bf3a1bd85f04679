#pragma once

/// \file incremental.hpp
/// ECO re-planning: apply an engineering change order to a finished
/// RABID solution and re-plan only the nets the change actually
/// touches.
///
/// A late-floorplan ECO — a moved or resized block, a capacity edit on
/// a channel, a handful of new or deleted nets — invalidates a small
/// neighborhood of an otherwise good plan.  Re-running the full
/// four-stage flow answers the question correctly but at full-chip
/// cost; the IncrementalPlanner instead generalizes the stage-2
/// dirty-net filter into a first-class "replan only what moved" API:
///
///   1. Capacity edits go through EdgeCostCache::on_capacity_change so
///      the cached eq. (1) costs and the A* floor stay exact (a raised
///      capacity can drop an edge's true cost below the cached floor,
///      which would silently break A* admissibility).
///   2. The *seed* dirty set is exactly what the perturbation names:
///      moved/removed/added nets, nets riding an edited edge whose cost
///      moved by more than the dirty threshold (or that is now
///      overflowed), and nets holding buffers in a tile whose site
///      supply dropped below its usage.
///   3. The seed set is ripped (wires and buffers leave the books) and
///      re-planned with the stage-2 rip-up/reroute steps
///      (core/replan.hpp), for at most three iterations; later
///      iterations grow the closure only through *overflowed* edges,
///      and only by the overflow excess — enough riders to clear each
///      overload, nets this ECO already re-planned first.  Soft cost
///      movement alone never recruits an untouched net (chasing every
///      nudge would re-plan the whole chip; locality is the point).
///   4. Every re-planned net is re-buffered with the stage-3 DP
///      (demand p(v) = 0 — the batch prediction term is meaningless
///      mid-ECO) and polished with the stage-4 step core::polish_net,
///      then its delays and length-rule flag are refreshed.
///
/// Untouched nets keep their trees, buffers, and delays bit-for-bit;
/// the books stay exactly consistent at every step (audit() proves it).
/// compare_with_scratch() quantifies the cost of incrementality against
/// a from-scratch plan of the perturbed design — the declared
/// equivalence bound the eco fuzz mode and the CI smoke job enforce.

#include <cstdint>
#include <string>
#include <vector>

#include "buffer/library.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/status.hpp"
#include "netlist/design.hpp"
#include "tile/tile_graph.hpp"
#include "timing/tech.hpp"

namespace rabid::eco {

/// One wire-capacity edit: W(edge) becomes new_capacity.
struct WireEdit {
  tile::EdgeId edge = tile::kNoEdge;
  std::int32_t new_capacity = 0;
};

/// One buffer-site edit: B(tile) becomes new_supply.
struct SiteEdit {
  tile::TileId tile = tile::kNoTile;
  std::int32_t new_supply = 0;
};

/// A net whose terminals moved (its block was moved or resized): the
/// old route is ripped and the replacement net planned from scratch.
struct NetMove {
  netlist::NetId id = -1;
  netlist::Net replacement;
};

/// An engineering change order against a planned design.  Net ids refer
/// to the design *before* this perturbation is applied; removals shift
/// the ids of every later net down, exactly like erasing from the
/// design's net vector.
struct Perturbation {
  std::vector<WireEdit> wire_edits;
  std::vector<SiteEdit> site_edits;
  std::vector<NetMove> moved_nets;
  std::vector<netlist::NetId> removed_nets;
  std::vector<netlist::Net> added_nets;

  bool empty() const {
    return wire_edits.empty() && site_edits.empty() && moved_nets.empty() &&
           removed_nets.empty() && added_nets.empty();
  }
};

struct EcoOptions {
  double pd_alpha = 0.4;  ///< RabidOptions::pd_alpha
  /// Declared equivalence bound: relative wirelength / buffer-count gap
  /// tolerated versus a from-scratch plan of the perturbed design
  /// (EquivalenceReport::within).
  double equivalence_epsilon = 0.10;
  timing::Technology tech = timing::kTech180nm;
  buffer::BufferLibrary buffer_library{};
};

/// What one replan() actually did.
struct ReplanStats {
  std::int64_t dirty_nets = 0;      ///< nets in the closure (re-planned)
  std::int64_t kept_nets = 0;       ///< nets whose solution was untouched
  std::int64_t capacity_edits = 0;  ///< W(e)/B(v) entries edited
  std::int64_t iterations = 0;      ///< closure-loop iterations run
};

/// Incremental planner over an adopted batch solution.
///
/// Adoption contract: `solution` holds one NetState per design net and
/// `graph`'s usage books hold exactly the solution's wires and buffers
/// — the state core::Rabid leaves behind after run_all().  The planner
/// owns the design copy (perturbations mutate it) and borrows the
/// graph, keeping its books consistent through every replan.
class IncrementalPlanner {
 public:
  IncrementalPlanner(netlist::Design design, tile::TileGraph& graph,
                     std::vector<core::NetState> solution,
                     EcoOptions options = {});

  IncrementalPlanner(const IncrementalPlanner&) = delete;
  IncrementalPlanner& operator=(const IncrementalPlanner&) = delete;

  /// Applies `p` and re-plans its dirty closure.  On a validation error
  /// nothing is mutated; on success the books, the design, and every
  /// net state are consistent (audit() is clean whenever the perturbed
  /// instance is feasible).
  core::Status replan(const Perturbation& p, ReplanStats* stats = nullptr);

  const netlist::Design& design() const { return design_; }
  const tile::TileGraph& graph() const { return graph_; }
  const std::vector<core::NetState>& nets() const { return nets_; }
  const EcoOptions& options() const { return options_; }

  /// Independent from-scratch audit of the current solution
  /// (core/audit.hpp) under the planner's tech and library.
  core::AuditReport audit() const;

 private:
  core::Status validate(const Perturbation& p) const;

  netlist::Design design_;
  tile::TileGraph& graph_;
  std::vector<core::NetState> nets_;
  EcoOptions options_;
};

/// Side-by-side comparison of the incremental solution against a
/// from-scratch RABID plan of the same (perturbed) design on a fresh
/// copy of the graph's capacities.
struct EquivalenceReport {
  bool audit_clean = false;  ///< incremental solution audits clean
  std::int64_t overflow_incremental = 0;
  std::int64_t overflow_scratch = 0;
  double wirelength_incremental_mm = 0.0;
  double wirelength_scratch_mm = 0.0;
  std::int64_t buffers_incremental = 0;
  std::int64_t buffers_scratch = 0;

  /// The declared equivalence bound, one-sided: the incremental audit is
  /// clean, wirelength and buffer count are no worse than scratch plus
  /// `epsilon` (relative, with a small absolute allowance for fuzz-sized
  /// circuits) — beating scratch is fine — and overflow does not exceed
  /// what the from-scratch plan also could not avoid.
  bool within(double epsilon) const;
  std::string summary() const;
};

/// Re-plans the planner's current design from scratch (a fresh graph
/// with the same capacities) and compares.  When the from-scratch plan
/// itself overflows, wire overload in the incremental audit is
/// downgraded to a warning — the instance is infeasible, which is not
/// an incrementality bug.
EquivalenceReport compare_with_scratch(const IncrementalPlanner& planner);

/// A seeded pin-move ECO over `fraction` of the planner's nets (at
/// least one): each selected net's sinks move to a tile within a few
/// tiles of where they were — a block move, not a teleport — with
/// probability 1/2 (its source with probability 1/4; at least one pin
/// always moves).  The displacement is an absolute tile radius, not a
/// chip fraction: the same ECO is the same physical edit on any die.  Capacities are untouched, so the same tiling
/// serves both the incremental replan and a from-scratch comparison —
/// the workload rabid_cli --eco and bench/eco_latency share.
Perturbation random_move_perturbation(const IncrementalPlanner& planner,
                                      double fraction, std::uint64_t seed);

}  // namespace rabid::eco
