#pragma once

/// \file frontier.hpp
/// Dominance-pruned candidate frontiers — the state representation of
/// the buffer-insertion DP (Li & Shi, arXiv:0710.4691).
///
/// A DP state at a tree node is a pair (load j, cost c): some buffering
/// of the subtree leaves j tile-units of unbuffered wire hanging at the
/// node at total site cost c.  State (j1, c1) *dominates* (j2, c2) when
/// j1 <= j2 and c1 <= c2: every legal continuation of the dominated
/// state (advancing wire, decoupling under some type limit, driving)
/// admits the dominating state too, at no more cost — so dominated
/// states can be dropped before they propagate.
///
/// **Pruning invariant (the losslessness contract the property tests
/// pin):** for every downstream load budget x,
///
///   min { c : (j, c) in frontier, j <= x }
///
/// is identical over the full state set and its pruned frontier.  The
/// pruned frontier is exactly the lower-left staircase: j strictly
/// increasing, cost strictly decreasing.

#include <cstdint>
#include <span>
#include <vector>

namespace rabid::buffer {

/// One undominated DP state: `cost` of the cheapest known buffering
/// leaving `load` unbuffered tile-units at the node.
struct Cand {
  std::int32_t load = 0;
  /// The insertion DP's traceback link (which state produced this one);
  /// it fills what would be padding, so a Cand stays 16 bytes.  Unused
  /// outside the DP.
  std::int32_t src = 0;
  double cost = 0.0;
};

/// A pruned frontier: loads strictly increasing, costs strictly
/// decreasing (ties collapse toward the smaller load).
using Frontier = std::vector<Cand>;

/// Builds the dominance-pruned frontier of an arbitrary state set
/// (unordered, duplicates allowed, +inf costs dropped).  If `pruned_out`
/// is non-null it receives the number of states dropped.  The DP builds
/// its frontiers in linear passes instead; this sort-based version is
/// the reference the exhaustive oracle prunes with.
Frontier prune_frontier(std::span<const Cand> states,
                        std::uint64_t* pruned_out = nullptr);

/// min { cost : (load, cost) in frontier, load <= budget }; +infinity
/// when no state fits.  Works on pruned frontiers (sorted by load) in
/// O(log n), which is how the DP evaluates decouple/drive options.
double frontier_min_under(std::span<const Cand> frontier,
                          std::int32_t budget);

/// The frontier candidate realizing frontier_min_under (the last entry
/// with load <= budget); -1 when none.  Traceback helper.
std::int32_t frontier_arg_under(std::span<const Cand> frontier,
                                std::int32_t budget);

}  // namespace rabid::buffer
