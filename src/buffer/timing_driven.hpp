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
/// degrade slack by the pi-model Elmore term; a repeater option caps the
/// load at the cell's input capacitance.  Sink required-arrival times
/// are zero, so maximizing root slack minimizes the worst sink delay.
/// Repeaters are exactly the cells of the library passed in.  Lists are
/// kept per signal-polarity parity, so inverting cells (Section I-B: a
/// site realizes "a buffer, inverter (with a range of power levels)...")
/// may be used and every sink still sees an even inversion count; with
/// no inverting cell the parity-1 lists stay empty.  A caller that wants
/// buffers only passes BufferLibrary::buffers_only().
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

/// Minimizes the worst sink Elmore delay of `tree` by optimal repeater
/// insertion from the cells of `lib` on tiles where `allow` is true.
/// Per node, the wire step and the joins are linear in the lists and
/// the repeater options scan each list once per cell: O(B k) for lists
/// of k candidates and B cells.  Intended for the handful of critical
/// nets, not the full netlist.
TimingDrivenResult van_ginneken(const route::RouteTree& tree,
                                const tile::TileGraph& g,
                                const BufferLibrary& lib,
                                const TileAllowFn& allow,
                                const timing::Technology& tech =
                                    timing::kTech180nm);

}  // namespace rabid::buffer
