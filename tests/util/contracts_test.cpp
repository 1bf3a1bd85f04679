#include <gtest/gtest.h>

#include "buffer/insertion.hpp"
#include "netlist/design.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"

// Contract-layer death tests: RABID_ASSERT stays armed in release builds
// (see util/assert.hpp), so every API misuse below must abort loudly
// rather than corrupt the congestion books.

namespace rabid {
namespace {

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, RectRequiresOrderedCorners) {
  EXPECT_DEATH((geom::Rect{{10, 10}, {0, 0}}), "lo <= hi");
}

TEST(ContractsDeathTest, TileGraphRejectsOutOfRangeIds) {
  tile::TileGraph g(geom::Rect{{0, 0}, {100, 100}}, 2, 2);
  EXPECT_DEATH(g.site_supply(99), "");
  EXPECT_DEATH(g.wire_usage(99), "");
  EXPECT_DEATH(g.id_of({5, 5}), "");
}

TEST(ContractsDeathTest, BufferBooksUnderflowAborts) {
  tile::TileGraph g(geom::Rect{{0, 0}, {100, 100}}, 2, 2);
  EXPECT_DEATH(g.remove_buffer(0), "empty");
  g.set_site_supply(0, 1);
  g.add_buffer(0);
  EXPECT_DEATH(g.add_buffer(0), "no free buffer site");
}

TEST(ContractsDeathTest, WireBooksUnderflowAborts) {
  tile::TileGraph g(geom::Rect{{0, 0}, {100, 100}}, 2, 2);
  EXPECT_DEATH(g.remove_wire(0), "empty");
}

TEST(ContractsDeathTest, RouteTreeRejectsDuplicateTiles) {
  tile::TileGraph g(geom::Rect{{0, 0}, {300, 100}}, 3, 1);
  route::RouteTree t(g.id_of({0, 0}));
  const route::NodeId a = t.add_child(t.root(), g.id_of({1, 0}));
  EXPECT_DEATH(t.add_child(a, g.id_of({0, 0})), "already in route tree");
}

TEST(ContractsDeathTest, InsertionRejectsZeroLimit) {
  tile::TileGraph g(geom::Rect{{0, 0}, {300, 100}}, 3, 1);
  route::RouteTree t(g.id_of({0, 0}));
  t.add_sink(t.root());
  EXPECT_DEATH(
      buffer::insert_buffers(t, 0, [](tile::TileId) { return 1.0; }),
      "at least one tile");
}

TEST(ContractsDeathTest, DesignRejectsSinklessNet) {
  netlist::Design d("x", geom::Rect{{0, 0}, {10, 10}});
  netlist::Net n;
  n.name = "n";
  n.source = {{1, 1}, netlist::PinKind::kFree, netlist::kNoBlock};
  EXPECT_DEATH(d.add_net(n), "at least one sink");
}

}  // namespace
}  // namespace rabid
