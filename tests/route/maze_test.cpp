#include "route/maze.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace rabid::route {
namespace {

tile::TileGraph make_graph(std::int32_t cap = 4) {
  tile::TileGraph g(geom::Rect{{0, 0}, {800, 800}}, 8, 8);
  g.set_uniform_wire_capacity(cap);
  return g;
}

/// Flat eq. (1) costs of the graph's current books.
std::vector<double> soft_costs(const tile::TileGraph& g) {
  std::vector<double> cost(static_cast<std::size_t>(g.edge_count()));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    cost[static_cast<std::size_t>(e)] = soft_wire_cost(g, e);
  }
  return cost;
}

/// Pure-length costs: 1 per edge.
std::vector<double> unit_costs(const tile::TileGraph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.edge_count()), 1.0);
}

TEST(SoftWireCost, MatchesEq1BelowCapacityAndPenalizesAbove) {
  tile::TileGraph g = make_graph(3);
  const tile::EdgeId e = 0;
  EXPECT_DOUBLE_EQ(soft_wire_cost(g, e), 1.0 / 3.0);
  g.add_wire(e);
  EXPECT_DOUBLE_EQ(soft_wire_cost(g, e), 2.0 / 2.0);
  g.add_wire(e);
  EXPECT_DOUBLE_EQ(soft_wire_cost(g, e), 3.0 / 1.0);
  g.add_wire(e);  // full: eq. (1) would be infinite
  EXPECT_DOUBLE_EQ(soft_wire_cost(g, e), kOverflowPenalty);
  g.add_wire(e);
  EXPECT_DOUBLE_EQ(soft_wire_cost(g, e), 2.0 * kOverflowPenalty);
  EXPECT_TRUE(std::isfinite(soft_wire_cost(g, e)));
}

TEST(MazeRouter, ShortestPathOnEmptyGraphIsManhattan) {
  tile::TileGraph g = make_graph();
  MazeRouter router(g);
  const std::vector<double> cost = soft_costs(g);
  const auto path =
      router.shortest_path(g.id_of({0, 0}), g.id_of({5, 3}), cost);
  EXPECT_EQ(path.size(), 9U);  // 8 arcs + 1
  EXPECT_EQ(path.front(), g.id_of({0, 0}));
  EXPECT_EQ(path.back(), g.id_of({5, 3}));
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_NE(g.edge_between(path[i - 1], path[i]), tile::kNoEdge);
  }
}

TEST(MazeRouter, AvoidsCongestedCorridor) {
  tile::TileGraph g = make_graph(2);
  // Saturate the direct horizontal corridor on row 0.
  for (std::int32_t x = 0; x < 7; ++x) {
    const tile::EdgeId e =
        g.edge_between(g.id_of({x, 0}), g.id_of({x + 1, 0}));
    g.add_wire(e);
    g.add_wire(e);
  }
  MazeRouter router(g);
  const std::vector<double> cost = soft_costs(g);
  const auto path =
      router.shortest_path(g.id_of({0, 0}), g.id_of({7, 0}), cost);
  // Must detour off row 0: longer than 8 tiles but no overflow cost.
  EXPECT_GT(path.size(), 8U);
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += soft_wire_cost(g, g.edge_between(path[i - 1], path[i]));
  }
  EXPECT_LT(total, kOverflowPenalty);
}

TEST(MazeRouter, OverflowsMinimallyWhenNoFeasiblePathExists) {
  tile::TileGraph g = make_graph(1);
  // Wall: saturate every vertical crossing of y=3|4 and make the wall
  // span all columns, so any path must overflow exactly one edge.
  for (std::int32_t x = 0; x < 8; ++x) {
    g.add_wire(g.edge_between(g.id_of({x, 3}), g.id_of({x, 4})));
  }
  MazeRouter router(g);
  const std::vector<double> cost = soft_costs(g);
  const auto path =
      router.shortest_path(g.id_of({4, 0}), g.id_of({4, 7}), cost);
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += soft_wire_cost(g, g.edge_between(path[i - 1], path[i]));
  }
  EXPECT_GE(total, kOverflowPenalty);
  EXPECT_LT(total, 2 * kOverflowPenalty);  // exactly one overflow edge
}

TEST(MazeRouter, GrowConnectsAllSinksAsTree) {
  tile::TileGraph g = make_graph();
  MazeRouter router(g);
  const std::vector<double> cost = soft_costs(g);
  const std::vector<tile::TileId> sinks{g.id_of({7, 0}), g.id_of({7, 7}),
                                        g.id_of({0, 7}), g.id_of({3, 3})};
  const RouteTree t = router.grow(g.id_of({0, 0}), sinks, 0.4, cost);
  t.verify(g);
  EXPECT_EQ(t.total_sinks(), 4);
  for (const tile::TileId s : sinks) {
    EXPECT_TRUE(t.contains(s));
  }
}

TEST(MazeRouter, GrowHandlesDuplicateAndSourceCoincidentSinks) {
  tile::TileGraph g = make_graph();
  MazeRouter router(g);
  const std::vector<double> cost = soft_costs(g);
  const std::vector<tile::TileId> sinks{g.id_of({2, 2}), g.id_of({2, 2}),
                                        g.id_of({0, 0})};
  const RouteTree t = router.grow(g.id_of({0, 0}), sinks, 0.4, cost);
  EXPECT_EQ(t.total_sinks(), 3);
  EXPECT_EQ(t.node(t.node_at(g.id_of({2, 2}))).sink_count, 2);
  EXPECT_EQ(t.node(t.root()).sink_count, 1);
}

TEST(MazeRouter, GrowOnEmptyGraphIsNearSteinerLength) {
  tile::TileGraph g = make_graph();
  MazeRouter router(g);
  const std::vector<double> cost = unit_costs(g);
  // A symmetric T: source bottom-center, sinks at both top corners.
  const std::vector<tile::TileId> sinks{g.id_of({0, 7}), g.id_of({7, 7})};
  const RouteTree t = router.grow(g.id_of({4, 0}), sinks, 0.0, cost);
  // Steiner optimum is 14 (HPWL of the three terminals); the two-pass
  // growth may miss it by the source offset but never by more.
  EXPECT_LE(t.wirelength_tiles(), 21);
  EXPECT_GE(t.wirelength_tiles(), 14);
}

TEST(MazeRouter, AlphaOneGivesShortestPathsPerSink) {
  tile::TileGraph g = make_graph();
  MazeRouter router(g);
  const std::vector<double> cost = unit_costs(g);
  const std::vector<tile::TileId> sinks{g.id_of({7, 1}), g.id_of({7, 6})};
  const RouteTree t = router.grow(g.id_of({0, 0}), sinks, 1.0, cost);
  // With alpha = 1 each sink's tree depth equals its Manhattan distance.
  EXPECT_EQ(t.depth(t.node_at(g.id_of({7, 1}))), 8);
  EXPECT_EQ(t.depth(t.node_at(g.id_of({7, 6}))), 13);
}

TEST(MazeRouter, RouteNetMapsPins) {
  tile::TileGraph g = make_graph();
  MazeRouter router(g);
  netlist::Net net;
  net.source = {{50, 50}, netlist::PinKind::kFree, netlist::kNoBlock};
  net.sinks.push_back({{750, 750}, netlist::PinKind::kFree, netlist::kNoBlock});
  const std::vector<double> cost = soft_costs(g);
  const RouteTree t = router.route_net(net, 0.4, cost);
  EXPECT_EQ(t.node(t.root()).tile, g.id_of({0, 0}));
  EXPECT_TRUE(t.contains(g.id_of({7, 7})));
  EXPECT_EQ(t.wirelength_tiles(), 14);
}

}  // namespace
}  // namespace rabid::route
