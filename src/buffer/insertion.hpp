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
/// Representation: each C_v (and every K_w and join prefix) is kept as
/// its dominance-pruned frontier (frontier.hpp) — only the (j, C_v[j])
/// points where the cost strictly drops — and a b-type library
/// generalizes decouple and drive to a minimum over types (Li & Shi's
/// candidate-list formulation, arXiv:0710.4691; see library.hpp).  The
/// frontier loses nothing a later transition can use, so a unit library
/// reproduces the array DP's optimum and placement exactly.
///
/// Complexity: O(n L) for a single-sink chain plus O(m L^2) of join work
/// over m sinks, matching Section III-C; pruning only shrinks both.
///
/// Reentrancy: the DP is a pure function of (tree, L, q, lib) with no
/// shared state; q is evaluated only on the tree's own node tiles.  Concurrent
/// calls on distinct nets are safe whenever each q is itself safe to
/// call concurrently — core::Rabid's speculative parallel Stage 3
/// exploits both properties (the tile set bounds what can go stale).

#include <cstdint>
#include <functional>
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
  /// Empty for a unit library (every buffer is the unit type).
  std::vector<std::int32_t> types;
  /// Length limit actually used: == requested L normally; > L when the
  /// relaxed variant had to loosen the rule (net counts as a failure).
  std::int32_t effective_limit = 0;
};

/// Optimal length-based buffer insertion for `tree` under limit `L`,
/// choosing one of `lib`'s b types per buffer and minimizing total
/// scaled site cost (type t at tile v costs cost_scale_t * q(v); a
/// type-t gate may drive up to drive_limit(t, L) tile-units — the net
/// driver itself always obeys the plain L).  `result.types[i]` is the
/// library index of `result.buffers[i]`; for a unit library `types`
/// stays empty.  Infeasible (e.g. a path of blocked tiles longer than
/// L) yields feasible == false and no buffers.
InsertionResult insert_buffers(const route::RouteTree& tree, std::int32_t L,
                               const TileCostFn& q,
                               const BufferLibrary& lib = BufferLibrary{});

/// Like insert_buffers, but on infeasibility retries with 2L, 4L, ...
/// until a solution exists (L >= total wirelength always succeeds with
/// zero buffers), providing the best-effort buffering the experiment
/// tables count as a length-constraint failure; `effective_limit`
/// reports the limit that succeeded.
InsertionResult insert_buffers_relaxed(const route::RouteTree& tree,
                                       std::int32_t L, const TileCostFn& q,
                                       const BufferLibrary& lib);

/// The DP's pruned root frontier (all (load, cost) states with load <=
/// max(L, lib.max_drive_limit(L))).  Exposed for the oracle battery,
/// which checks it state-for-state against exhaustive enumeration
/// (brute_force_frontier_lib).
std::vector<Cand> dp_root_frontier(const route::RouteTree& tree,
                                   std::int32_t L, const TileCostFn& q,
                                   const BufferLibrary& lib = BufferLibrary{});

}  // namespace rabid::buffer
