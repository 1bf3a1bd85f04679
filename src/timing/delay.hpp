#pragma once

/// \file delay.hpp
/// Elmore delay evaluation of a (possibly buffered) tile-level route.
///
/// Tables II-V report maximum and average source-to-sink delay; this is
/// the engine that produces those numbers.  Wires use a pi-model per tile
/// step; buffers follow the switch-level model of tech.hpp.

#include <span>
#include <vector>

#include "buffer/library.hpp"
#include "route/buffers.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "timing/rc_tree.hpp"
#include "timing/tech.hpp"

namespace rabid::timing {

struct DelayResult {
  double max_ps = 0.0;
  double sum_ps = 0.0;
  std::vector<double> sink_delays_ps;  ///< one entry per net sink

  double avg_ps() const {
    return sink_delays_ps.empty()
               ? 0.0
               : sum_ps / static_cast<double>(sink_delays_ps.size());
  }
};

/// Evaluates source-to-sink Elmore delays for `tree` carrying `buffers`.
/// `buffers` entries must reference valid tree nodes/children.
/// `types[i]` is the library cell realizing `buffers[i]`; an empty
/// `types` means every buffer is the unit repeater of `tech`.
DelayResult evaluate_delay(const route::RouteTree& tree,
                           const route::BufferList& buffers,
                           std::span<const buffer::BufferType> types,
                           const tile::TileGraph& g,
                           const Technology& tech = kTech180nm);

/// Shorthand for an unbuffered route.
inline DelayResult evaluate_delay(const route::RouteTree& tree,
                                  const tile::TileGraph& g,
                                  const Technology& tech = kTech180nm) {
  return evaluate_delay(tree, {}, {}, g, tech);
}

}  // namespace rabid::timing
