#pragma once

/// \file insertion.hpp
/// Length-based buffer insertion on a routed tree (RABID Stage 3,
/// Section III-C) — the paper's central algorithmic contribution.
///
/// The net's length rule: no gate (the net driver or any inserted buffer)
/// may drive more than L tile-units of *total* interconnect (Fig. 3).
/// Cost of a buffer in tile v is q(v), eq. (2).  The dynamic program
/// keeps, per tree node v, a cost array C_v indexed by the total
/// unbuffered downstream wirelength j:
///
///   C_v[j] = cheapest buffering of the subtree under v whose unbuffered
///            wire hanging at v totals j tile-units, j in [0, L].
///
/// Transitions (all per the paper, Figs. 6/8/9):
///   advance   K_w[j] = C_w[j-1]                      (wire up one tile)
///   decouple  K_w[0] = q(v) + min_{j<=L-1} C_w[j]    (buffer at v drives
///                                                     the arc + branch)
///   join      C_v    = min-plus convolution of the K_w, truncated at L
///   drive     C_v[0] <- min(C_v[0], q(v) + min_j C_v[j])  (>=2 children)
///
/// At the source tile, *decoupling* buffers are allowed (a buffer right
/// at the driver output, isolating one branch: without this a root with
/// more branches than L is structurally unfixable), but no driving
/// buffer is ever placed in series with the driver itself; the answer is
/// min_j C_root[j], i.e. the driver may drive up to L tile-units.
/// Leaves are initialized all-zero exactly as in Fig. 6 Step 1, which
/// reproduces the Fig. 7 table cell-for-cell (the worked example's
/// source tile has no sites, disabling root decoupling there).
///
/// Complexity: O(n L) for a single-sink chain plus O(m L^2) of join work
/// over m sinks, matching Section III-C.
///
/// Reentrancy: the DP is a pure function of (tree, L, q) with no shared
/// state; q is evaluated only on the tree's own node tiles.  Concurrent
/// calls on distinct nets are safe whenever each q is itself safe to
/// call concurrently — core::Rabid's speculative parallel Stage 3
/// exploits both properties (the tile set bounds what can go stale).

#include <functional>
#include <span>
#include <vector>

#include "buffer/frontier.hpp"
#include "buffer/library.hpp"
#include "route/buffers.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"

namespace rabid::buffer {

/// Per-tile buffer cost q(v); return +infinity where no site is available.
using TileCostFn = std::function<double(tile::TileId)>;

struct InsertionResult {
  /// Total q-cost of the chosen buffers; +infinity if no legal solution.
  double cost = 0.0;
  bool feasible = false;
  route::BufferList buffers;
  /// Planning-library type index per buffer, parallel to `buffers`.
  /// Empty means "all unit type" (the single-type engine's output).
  std::vector<std::int32_t> types;
  /// Length limit actually used: == requested L normally; > L when the
  /// relaxed variant had to loosen the rule (net counts as a failure).
  std::int32_t effective_limit = 0;
};

/// Optimal length-based buffer insertion for `tree` under limit `L`.
/// Infeasible (e.g. a path of blocked tiles longer than L) yields
/// feasible == false and no buffers.
InsertionResult insert_buffers(const route::RouteTree& tree, std::int32_t L,
                               const TileCostFn& q);

/// Multi-type buffer insertion: chooses one of `lib`'s b types per
/// buffer, minimizing total scaled site cost (type t at tile v costs
/// cost_scale_t * q(v); a type-t gate may drive up to drive_limit(t, L)
/// tile-units — the net driver itself always obeys the plain L).  Runs
/// the dominance-pruned candidate-list engine; `result.types[i]` is the
/// library index of `result.buffers[i]`.  For a unit library this is
/// value-equivalent to insert_buffers (the oracle battery pins both).
InsertionResult insert_buffers_lib(const route::RouteTree& tree,
                                   std::int32_t L, const TileCostFn& q,
                                   const BufferLibrary& lib);

/// The candidate engine's pruned root frontier (all (load, cost) states
/// with load <= max(L, lib.max_drive_limit(L))).  Exposed for the oracle
/// battery, which checks it state-for-state against exhaustive
/// enumeration (brute_force_frontier_lib).
std::vector<Cand> dp_root_frontier_lib(const route::RouteTree& tree,
                                       std::int32_t L, const TileCostFn& q,
                                       const BufferLibrary& lib);

/// Dispatcher the flow calls: unit libraries take the dense SoA/SIMD
/// path (bit-for-bit the historical engine, empty `types`), anything
/// else takes the candidate-list path.
InsertionResult insert_buffers_planned(const route::RouteTree& tree,
                                       std::int32_t L, const TileCostFn& q,
                                       const BufferLibrary& lib);
/// Like insert_buffers_planned, but on infeasibility retries with 2L,
/// 4L, ... until a solution exists (L >= total wirelength always
/// succeeds with zero buffers), providing the best-effort buffering the
/// experiment tables count as a length-constraint failure;
/// `effective_limit` reports the limit that succeeded.
InsertionResult insert_buffers_planned_relaxed(const route::RouteTree& tree,
                                               std::int32_t L,
                                               const TileCostFn& q,
                                               const BufferLibrary& lib);

/// The forward DP for one node: cost array C_v (size L+1) given the
/// children's arrays (tree child order).  Leaves get the all-zero array.
/// `q_v` == +infinity forbids buffers at v; `allow_drive` is false at
/// the root (no buffer in series with the net driver).
/// Exposed for unit tests; insert_buffers composes it bottom-up.
std::vector<double> dp_node_array(
    std::span<const std::vector<double>> child_arrays, double q_v,
    std::int32_t L, bool allow_drive = true);

}  // namespace rabid::buffer
