#include <gtest/gtest.h>

#include "route/embed.hpp"

namespace rabid::route {
namespace {

// Exact-structure checks for the geometric-to-tile embedding: the
// random-property tests bound wirelength, these pin the arcs.

tile::TileGraph make_graph() {
  return tile::TileGraph(geom::Rect{{0, 0}, {800, 800}}, 8, 8);
}

netlist::Net net_of(std::vector<geom::Point> pins) {
  netlist::Net n;
  n.name = "n";
  n.source = {pins.front(), netlist::PinKind::kFree, netlist::kNoBlock};
  for (std::size_t i = 1; i < pins.size(); ++i) {
    n.sinks.push_back({pins[i], netlist::PinKind::kFree, netlist::kNoBlock});
  }
  return n;
}

TEST(EmbedExact, LPathGoesXFirst) {
  const tile::TileGraph g = make_graph();
  const netlist::Net n = net_of({{50, 50}, {450, 350}});
  GeomTree gt;
  gt.points = {n.source.location, n.sinks[0].location};
  gt.parent = {-1, 0};
  gt.root = 0;
  gt.terminal_count = 2;
  const RouteTree t = embed_tree(gt, n, g);
  // x-first staircase: (0,0)->(4,0) then up to (4,3).
  for (std::int32_t x = 0; x <= 4; ++x) {
    EXPECT_TRUE(t.contains(g.id_of({x, 0}))) << x;
  }
  for (std::int32_t y = 0; y <= 3; ++y) {
    EXPECT_TRUE(t.contains(g.id_of({4, y}))) << y;
  }
  EXPECT_EQ(t.node_count(), 8U);
  EXPECT_FALSE(t.contains(g.id_of({0, 1})));  // not y-first
}

TEST(EmbedExact, SteinerPointBecomesBranchTile) {
  const tile::TileGraph g = make_graph();
  // Geometric T: source left, Steiner point mid, two sinks up/right.
  const netlist::Net n = net_of({{50, 450}, {750, 750}, {750, 150}});
  GeomTree gt;
  gt.points = {n.source.location,
               n.sinks[0].location,
               n.sinks[1].location,
               {750, 450}};  // Steiner point
  gt.parent = {-1, 3, 3, 0};
  gt.root = 0;
  gt.terminal_count = 3;
  const RouteTree t = embed_tree(gt, n, g);
  t.verify(g);
  const NodeId steiner = t.node_at(g.id_of({7, 4}));
  ASSERT_NE(steiner, kNoNode);
  EXPECT_EQ(t.node(steiner).children().size(), 2U);
  EXPECT_EQ(t.wirelength_tiles(), 7 + 3 + 3);
}

TEST(EmbedExact, CrossingArcsReanchorIntoATree) {
  const tile::TileGraph g = make_graph();
  // Two sinks whose L-paths cross: the second walk must re-anchor on the
  // first path's tiles instead of duplicating them.
  const netlist::Net n = net_of({{50, 50}, {750, 450}, {450, 750}});
  GeomTree gt;
  gt.points = {n.source.location, n.sinks[0].location, n.sinks[1].location};
  gt.parent = {-1, 0, 0};
  gt.root = 0;
  gt.terminal_count = 3;
  const RouteTree t = embed_tree(gt, n, g);
  t.verify(g);  // single tree, no duplicate tiles
  EXPECT_EQ(t.total_sinks(), 2);
  // Shared x-run (0,0)..(4,0) embedded once: total arcs < sum of paths.
  EXPECT_LT(t.wirelength_tiles(), (7 + 4) + (4 + 7));
}

TEST(EmbedExact, SinkAtSourceTileGetsMultiplicity) {
  const tile::TileGraph g = make_graph();
  const netlist::Net n = net_of({{50, 50}, {60, 60}, {750, 50}});
  GeomTree gt;
  gt.points = {n.source.location, n.sinks[0].location, n.sinks[1].location};
  gt.parent = {-1, 0, 0};
  gt.root = 0;
  gt.terminal_count = 3;
  const RouteTree t = embed_tree(gt, n, g);
  EXPECT_EQ(t.node(t.root()).sink_count, 1);
  EXPECT_EQ(t.total_sinks(), 2);
}

}  // namespace
}  // namespace rabid::route
