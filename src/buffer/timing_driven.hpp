#pragma once

/// \file timing_driven.hpp
/// Timing-driven buffer insertion: van Ginneken's algorithm [18] with a
/// buffer library, on the tile-level route tree.
///
/// RABID is deliberately timing-ignorant (Section II: early floorplan
/// timing is meaningless), but the paper prescribes the follow-up:
/// "later in the design flow, when more accurate timing information is
/// available, one can rip up the buffering solution for a given net and
/// recompute a potentially better solution via a timing-driven buffering
/// algorithm."  This module is that algorithm; core::Rabid wires it to
/// the site books via rebuffer_timing_driven().
///
/// Classic bottom-up candidate propagation: each tree point keeps a
/// pruned list of (downstream capacitance, worst slack) pairs; wires
/// degrade slack by the pi-model Elmore term; a buffer option caps the
/// load at the cell's input capacitance.  Sink required-arrival times
/// are zero, so maximizing root slack minimizes the worst sink delay.
/// Buffer placements use the same vocabulary as the length-based DP:
/// an arc buffer {v, child} decouples one branch at v, a driving buffer
/// {v, kNoNode} (only at nodes with >= 2 children) drives the joint
/// load; the source tile never buffers in series with the driver.

#include <functional>
#include <vector>

#include "buffer/library.hpp"
#include "route/buffers.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "timing/delay.hpp"
#include "timing/tech.hpp"

namespace rabid::buffer {

/// Whether a tile can host (another) buffer.
using TileAllowFn = std::function<bool(tile::TileId)>;

struct TimingDrivenResult {
  route::BufferList buffers;
  /// Library index per placement (lib.type(types[i]) realizes
  /// buffers[i]).
  std::vector<std::int32_t> types;
  /// Predicted worst source-to-sink Elmore delay, ps.
  double delay_ps = 0.0;
};

/// Minimizes the worst sink Elmore delay of `tree` by optimal buffer
/// insertion from `lib` (non-inverting cells only) on tiles where
/// `allow` is true.  O(n^2 B^2) worst case; intended for the handful of
/// critical nets, not the full netlist.
TimingDrivenResult van_ginneken(const route::RouteTree& tree,
                                const tile::TileGraph& g,
                                const BufferLibrary& lib,
                                const TileAllowFn& allow,
                                const timing::Technology& tech =
                                    timing::kTech180nm);

/// Inverter-aware variant: repeaters may also be the library's
/// inverting cells (Section I-B: a site realizes "a buffer, inverter
/// (with a range of power levels)...").  Candidate lists are tracked per
/// signal-polarity parity; every sink is guaranteed an even inversion
/// count, so the returned solution is logically equivalent to the
/// buffer-only one but can exploit the cheaper inverting stages in
/// pairs.  Never worse than van_ginneken() on the same library.
TimingDrivenResult van_ginneken_with_inverters(
    const route::RouteTree& tree, const tile::TileGraph& g,
    const BufferLibrary& lib, const TileAllowFn& allow,
    const timing::Technology& tech = timing::kTech180nm);

}  // namespace rabid::buffer
