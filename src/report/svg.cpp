#include "report/svg.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "util/assert.hpp"

namespace rabid::report {

namespace {

/// Appends printf-formatted text to `out`.
void emitf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Plot scale.
constexpr double kPixelsPerMm = 24.0;

/// Route-stroke palette; nets cycle through it.
constexpr const char* kNetColors[] = {"#2b6cb0", "#2f855a", "#b7791f",
                                      "#6b46c1", "#c05621", "#2c7a7b"};

}  // namespace

std::string render_svg(const netlist::Design& design,
                       const tile::TileGraph& g,
                       std::span<const core::NetState> nets,
                       const SvgOptions& options) {
  const double scale = kPixelsPerMm / 1000.0;  // px per um
  const geom::Rect& die = design.outline();
  const double w = die.width() * scale;
  const double h = die.height() * scale;
  // SVG y grows downward; flip so the plot matches chip orientation.
  auto px = [&](double x_um) { return (x_um - die.lo().x) * scale; };
  auto py = [&](double y_um) { return h - (y_um - die.lo().y) * scale; };

  std::string out;
  emitf(out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
        "height=\"%.0f\" viewBox=\"0 0 %.2f %.2f\">\n",
        w, h, w, h);
  emitf(out, "<rect x=\"0\" y=\"0\" width=\"%.2f\" height=\"%.2f\" "
             "fill=\"#fafaf7\" stroke=\"#333\" stroke-width=\"1\"/>\n",
        w, h);

  // Macro blocks.
  for (const netlist::Block& b : design.blocks()) {
    emitf(out,
          "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" "
          "fill=\"#e8e4da\" stroke=\"#8a8478\" stroke-width=\"0.8\"/>\n",
          px(b.shape.lo().x), py(b.shape.hi().y), b.shape.width() * scale,
          b.shape.height() * scale);
  }

  // Zero-site tiles (the blocked cache region et al.).
  if (options.draw_zero_site_tiles) {
    for (tile::TileId t = 0; t < g.tile_count(); ++t) {
      if (g.site_supply(t) != 0) continue;
      const geom::Rect r = g.tile_rect(t);
      emitf(out,
            "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" "
            "fill=\"#d9534f\" fill-opacity=\"0.12\"/>\n",
            px(r.lo().x), py(r.hi().y), r.width() * scale,
            r.height() * scale);
    }
  }

  // Routes.
  const std::size_t net_count =
      options.max_nets > 0 ? std::min(options.max_nets, nets.size())
                           : nets.size();
  if (options.draw_routes) {
    for (std::size_t i = 0; i < net_count; ++i) {
      const route::RouteTree& tree = nets[i].tree;
      if (tree.empty()) continue;
      const char* color = kNetColors[i % std::size(kNetColors)];
      for (const route::RouteNode& n : tree.nodes()) {
        if (n.parent == route::kNoNode) continue;
        const geom::Point a = g.center(n.tile);
        const geom::Point b = g.center(tree.node(n.parent).tile);
        emitf(out,
              "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\" "
              "stroke=\"%s\" stroke-width=\"0.7\" stroke-opacity=\"0.55\"/>\n",
              px(a.x), py(a.y), px(b.x), py(b.y), color);
      }
    }
  }

  // Buffers.
  if (options.draw_buffers) {
    const double r = std::max(1.2, g.tile_pitch() * scale * 0.12);
    for (std::size_t i = 0; i < net_count; ++i) {
      for (const route::BufferPlacement& b : nets[i].buffers) {
        const geom::Point c = g.center(nets[i].tree.node(b.node).tile);
        emitf(out,
              "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"%.2f\" fill=\"#1a1a1a\" "
              "fill-opacity=\"0.8\"/>\n",
              px(c.x), py(c.y), r);
      }
    }
  }

  out += "</svg>\n";
  return out;
}

}  // namespace rabid::report
