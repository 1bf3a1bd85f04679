#pragma once

/// \file svg.hpp
/// SVG rendering of a planned design — the Fig. 1-style picture: macro
/// blocks, the blocked no-site region, global routes, and buffer
/// locations.  The paper's whole argument is spatial (buffers clumped
/// between macros vs. sprinkled through them); a plot shows it in one
/// glance.
///
/// Output is a standalone SVG document string.  Layers (in paint
/// order): die outline, macro blocks, zero-site tiles, route arcs,
/// buffers.

#include <span>
#include <string>

#include "core/rabid.hpp"
#include "netlist/design.hpp"
#include "tile/tile_graph.hpp"

namespace rabid::report {

struct SvgOptions {
  bool draw_routes = true;
  bool draw_buffers = true;
  bool draw_zero_site_tiles = true;
  /// Cap on rendered nets (0 = all); playout-sized plots stay viewable.
  std::size_t max_nets = 0;
};

/// Renders the design + per-net solution state into an SVG document.
/// `nets` may be empty (floorplan-only plot).
std::string render_svg(const netlist::Design& design,
                       const tile::TileGraph& g,
                       std::span<const core::NetState> nets,
                       const SvgOptions& options = {});

}  // namespace rabid::report
