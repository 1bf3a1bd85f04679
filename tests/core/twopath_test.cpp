#include "core/twopath.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <ostream>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "route/maze.hpp"
#include "util/rng.hpp"

namespace rabid::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

tile::TileGraph make_graph(std::int32_t cap = 4) {
  tile::TileGraph g(geom::Rect{{0, 0}, {900, 900}}, 9, 9);
  g.set_uniform_wire_capacity(cap);
  return g;
}

/// Flat eq. (1) edge costs of the graph's current books.
std::vector<double> soft_costs(const tile::TileGraph& g) {
  std::vector<double> cost(static_cast<std::size_t>(g.edge_count()));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    cost[static_cast<std::size_t>(e)] = route::soft_wire_cost(g, e);
  }
  return cost;
}

/// Flat per-tile buffer costs q(v).
std::vector<double> site_costs(const tile::TileGraph& g,
                               const std::function<double(tile::TileId)>& q) {
  std::vector<double> cost(static_cast<std::size_t>(g.tile_count()));
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    cost[static_cast<std::size_t>(t)] = q(t);
  }
  return cost;
}

TEST(RouteTwoPath, StraightCorridorNoBufferNeeded) {
  const tile::TileGraph g = make_graph();
  const std::vector<double> wire = soft_costs(g);
  const std::vector<double> site =
      site_costs(g, [](tile::TileId) { return 1.0; });
  const TwoPathRoute r = route_two_path(g, g.id_of({0, 0}), g.id_of({3, 0}),
                                        /*L=*/5, wire, site);
  EXPECT_EQ(r.tiles.size(), 4U);
  EXPECT_EQ(r.tiles.front(), g.id_of({0, 0}));
  EXPECT_EQ(r.tiles.back(), g.id_of({3, 0}));
  // 3 edges at eq.(1) cost 1/4 each; no buffer required within L.
  EXPECT_NEAR(r.cost, 3.0 * 0.25, 1e-12);
}

TEST(RouteTwoPath, LongRunMustPayForBuffers) {
  const tile::TileGraph g = make_graph();
  const std::vector<double> wire = soft_costs(g);
  const std::vector<double> site =
      site_costs(g, [](tile::TileId) { return 10.0; });
  const TwoPathRoute r = route_two_path(g, g.id_of({0, 0}), g.id_of({8, 0}),
                                        /*L=*/3, wire, site);
  // 8 edges, buffer every <=3 tiles: at least 2 buffers => cost >= 20.
  EXPECT_GE(r.cost, 20.0);
  EXPECT_LT(r.cost, kInf);
  EXPECT_EQ(r.tiles.front(), g.id_of({0, 0}));
  EXPECT_EQ(r.tiles.back(), g.id_of({8, 0}));
}

TEST(RouteTwoPath, PrefersBufferRichDetour) {
  tile::TileGraph g = make_graph();
  const std::vector<double> wire = soft_costs(g);
  // Sites only on row 2; a run along row 0 cannot buffer.
  const std::vector<double> site = site_costs(
      g, [&](tile::TileId t) { return g.coord_of(t).y == 2 ? 0.5 : kInf; });
  const TwoPathRoute r = route_two_path(g, g.id_of({0, 0}), g.id_of({8, 0}),
                                        /*L=*/4, wire, site);
  ASSERT_TRUE(std::isfinite(r.cost));
  // The path must dip to row 2 to buffer.
  bool touches_row2 = false;
  for (const tile::TileId t : r.tiles) {
    if (g.coord_of(t).y == 2) touches_row2 = true;
  }
  EXPECT_TRUE(touches_row2);
}

TEST(RouteTwoPath, FallsBackWhenUnbufferable) {
  const tile::TileGraph g = make_graph();
  const std::vector<double> wire = soft_costs(g);
  // No sites anywhere.
  const std::vector<double> site =
      site_costs(g, [](tile::TileId) { return kInf; });
  const TwoPathRoute r = route_two_path(g, g.id_of({0, 0}), g.id_of({8, 8}),
                                        /*L=*/3, wire, site);
  EXPECT_TRUE(std::isinf(r.cost));  // marked as rule-violating
  EXPECT_EQ(r.tiles.front(), g.id_of({0, 0}));
  EXPECT_EQ(r.tiles.back(), g.id_of({8, 8}));  // but still connected
}

TEST(RouteTwoPath, SameTileEndpoints) {
  const tile::TileGraph g = make_graph();
  const std::vector<double> wire = soft_costs(g);
  const std::vector<double> site =
      site_costs(g, [](tile::TileId) { return 1.0; });
  const TwoPathRoute r =
      route_two_path(g, g.id_of({4, 4}), g.id_of({4, 4}), 3, wire, site);
  EXPECT_EQ(r.tiles, (std::vector<tile::TileId>{g.id_of({4, 4})}));
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

/// The heuristic field, rooted at goal (0,0) and aimed at (8,8) with
/// floor F = 1e6, reaches T = (1,1) twice: first over (1,0) at d1, then
/// over (0,1) at d2 = d1 - 2^-31.  Both entries key to the same double
/// (d + 14F rounds to a 2^-29 grid), so they tie on (key, tile) and the
/// heap may pop either first; only d2 may settle T and relax its
/// neighbors.  `via_front` also ties (0,1)'s own key with T's, so the
/// stale entry is already waiting among the exact ties when the fresh
/// one arrives; without it both entries queue together.
struct FieldTie {
  const char* name;
  double c1a;  ///< (0,0)-(1,0)
  double c2a;  ///< (1,0)-(1,1)
  double c1b;  ///< (0,0)-(0,1)
  double c2b;  ///< (0,1)-(1,1)
};

void PrintTo(const FieldTie& c, std::ostream* os) { *os << c.name; }

class TwoPathFieldTie : public ::testing::TestWithParam<FieldTie> {};

TEST_P(TwoPathFieldTie, SettlesThePlainDijkstraValue) {
  const FieldTie& c = GetParam();
  const tile::TileGraph g = make_graph();
  const double F = 1e6;
  std::vector<double> wire(static_cast<std::size_t>(g.edge_count()), 2 * F);
  const auto set = [&](geom::TileCoord a, geom::TileCoord b, double cost) {
    wire[static_cast<std::size_t>(g.edge_between(g.id_of(a), g.id_of(b)))] =
        cost;
  };
  set({0, 0}, {1, 0}, c.c1a);
  set({1, 0}, {1, 1}, c.c2a);
  set({0, 0}, {0, 1}, c.c1b);
  set({0, 1}, {1, 1}, c.c2b);
  set({1, 1}, {2, 1}, F);
  set({1, 1}, {1, 2}, F);
  const double d1 = c.c1a + c.c2a;
  const double d2 = c.c1b + c.c2b;
  ASSERT_LT(d2, d1);
  ASSERT_EQ(d1 + 14 * F, d2 + 14 * F);  // the (key, tile) tie

  const std::vector<double> sites(static_cast<std::size_t>(g.tile_count()),
                                  1.0);
  TwoPathSearch search(g);
  search.route(g.id_of({8, 8}), g.id_of({0, 0}), /*L=*/20, wire, sites,
               /*wire_weight=*/1.0, /*astar_floor=*/F);
  EXPECT_EQ(search.field_distance(g.id_of({1, 1}), wire), d2);
  EXPECT_EQ(search.field_distance(g.id_of({2, 1}), wire), d2 + F);
  EXPECT_EQ(search.field_distance(g.id_of({1, 2}), wire), d2 + F);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, TwoPathFieldTie,
    ::testing::Values(
        FieldTie{"queued_together", 1e6, 1e6 + 0x1p-28 + 0x1p-31, 1e6,
                 1e6 + 0x1p-28},
        FieldTie{"via_front", 1e6, 1e6 + 0x1p-28 + 0x1p-31, 1e6 + 0x1p-28,
                 1e6}),
    [](const ::testing::TestParamInfo<FieldTie>& info) {
      return std::string(info.param.name);
    });

route::RouteTree y_tree(const tile::TileGraph& g) {
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 3; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  route::NodeId up = cur;
  for (std::int32_t y = 1; y <= 3; ++y) up = t.add_child(up, g.id_of({3, y}));
  t.add_sink(up);
  route::NodeId right = cur;
  for (std::int32_t x = 4; x <= 6; ++x)
    right = t.add_child(right, g.id_of({x, 0}));
  t.add_sink(right);
  return t;
}

TEST(TileTreeEditor, RebuildIdentityWithoutEdits) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  TileTreeEditor editor(t, g);
  const route::RouteTree r = editor.rebuild();
  r.verify(g);
  EXPECT_EQ(r.node_count(), t.node_count());
  EXPECT_EQ(r.wirelength_tiles(), t.wirelength_tiles());
  EXPECT_EQ(r.total_sinks(), t.total_sinks());
  for (const route::RouteNode& n : t.nodes()) {
    EXPECT_TRUE(r.contains(n.tile));
  }
}

TEST(TileTreeEditor, ReplaceTwoPathReroutesBranch) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  TileTreeEditor editor(t, g);
  // Replace the right branch (3,0)->(6,0) with a detour through row 1.
  const std::vector<tile::TileId> interior{g.id_of({4, 0}), g.id_of({5, 0})};
  editor.remove_path(g.id_of({3, 0}), interior, g.id_of({6, 0}));
  const std::vector<tile::TileId> detour{
      g.id_of({3, 0}), g.id_of({3, 1}), g.id_of({4, 1}), g.id_of({5, 1}),
      g.id_of({6, 1}), g.id_of({6, 0})};
  editor.add_path(detour);
  const route::RouteTree r = editor.rebuild();
  r.verify(g);
  EXPECT_EQ(r.total_sinks(), 2);
  EXPECT_TRUE(r.contains(g.id_of({6, 0})));
  EXPECT_TRUE(r.contains(g.id_of({4, 1})));
  EXPECT_FALSE(r.contains(g.id_of({4, 0})));  // old path pruned
  EXPECT_FALSE(r.contains(g.id_of({5, 0})));
}

TEST(TileTreeEditor, PrunesDanglingStubsAfterCyclicAdd) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  TileTreeEditor editor(t, g);
  // Add a path that closes a cycle: (3,3) back down to (6,0) via row 3.
  const std::vector<tile::TileId> loop{
      g.id_of({3, 3}), g.id_of({4, 3}), g.id_of({5, 3}), g.id_of({6, 3}),
      g.id_of({6, 2}), g.id_of({6, 1}), g.id_of({6, 0})};
  editor.add_path(loop);
  const route::RouteTree r = editor.rebuild();
  r.verify(g);
  // Still a tree with both sinks; no node repeated.
  EXPECT_EQ(r.total_sinks(), 2);
  EXPECT_TRUE(r.contains(g.id_of({3, 3})));
  EXPECT_TRUE(r.contains(g.id_of({6, 0})));
}

TEST(TileTreeEditor, CollapsedTwoPathLeavesValidTree) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  TileTreeEditor editor(t, g);
  // Degenerate "reroute": remove the up-branch and re-add it verbatim.
  const std::vector<tile::TileId> interior{g.id_of({3, 1}), g.id_of({3, 2})};
  editor.remove_path(g.id_of({3, 0}), interior, g.id_of({3, 3}));
  editor.add_path(std::vector<tile::TileId>{g.id_of({3, 3}), g.id_of({3, 2}),
                                            g.id_of({3, 1}), g.id_of({3, 0})});
  const route::RouteTree r = editor.rebuild();
  r.verify(g);
  EXPECT_EQ(r.wirelength_tiles(), t.wirelength_tiles());
  EXPECT_EQ(r.total_sinks(), 2);
}

/// Plain Dijkstra from `goal` over `wire`: the wire-only distance of
/// every tile, the values the heuristic field must settle.
std::vector<double> plain_field(const tile::TileGraph& g, tile::TileId goal,
                                std::span<const double> wire) {
  std::vector<double> dist(static_cast<std::size_t>(g.tile_count()), kInf);
  using Item = std::pair<double, tile::TileId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> open;
  dist[static_cast<std::size_t>(goal)] = 0.0;
  open.push({0.0, goal});
  while (!open.empty()) {
    const auto [d, t] = open.top();
    open.pop();
    if (d > dist[static_cast<std::size_t>(t)]) continue;
    const tile::TileGraph::Adjacency* adj = g.adjacency(t);
    for (int k = 0; k < g.adj_count(t); ++k) {
      const double nd = d + wire[static_cast<std::size_t>(adj[k].edge)];
      double& cur = dist[static_cast<std::size_t>(adj[k].tile)];
      if (nd < cur) {
        cur = nd;
        open.push({nd, adj[k].tile});
      }
    }
  }
  return dist;
}

/// The field's A* aim is the cut bound over an EdgeCostCache's per-cut
/// floors, which differ cut by cut on random costs (cheap cuts, cuts
/// priced in the hundreds, overflow-tier edges).  Whatever it aims at,
/// across re-aimed searches toward one goal, every value the field
/// settles is plain Dijkstra's, and every route costs what the search
/// without a heuristic finds.
TEST(TwoPathFieldValues, MatchPlainDijkstraOnRandomCostGrids) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    const auto nx = static_cast<std::int32_t>(rng.uniform_int(2, 14));
    const auto ny = static_cast<std::int32_t>(rng.uniform_int(2, 14));
    const tile::TileGraph g(
        geom::Rect{{0, 0}, {100.0 * nx, 100.0 * ny}}, nx, ny);
    std::vector<double> wire(static_cast<std::size_t>(g.edge_count()));
    for (double& c : wire) {
      c = rng.uniform(0.05, 3.0);
      if (rng.chance(0.1)) c *= 300.0;
      if (rng.chance(0.02)) c = route::kOverflowPenalty * rng.uniform(1, 3);
    }
    const route::EdgeCostCache cache(
        g, [&](tile::EdgeId e) { return wire[static_cast<std::size_t>(e)]; });
    const std::vector<double> sites = site_costs(g, [&](tile::TileId) {
      return rng.chance(0.2) ? kInf : rng.uniform(0.5, 2.0);
    });
    const auto random_tile = [&] {
      return static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
    };
    const tile::TileId goal = random_tile();
    const std::vector<double> expect = plain_field(g, goal, wire);

    TwoPathSearch search(g);
    for (int k = 0; k < 5; ++k) {
      const tile::TileId from = random_tile();
      const auto L = static_cast<std::int32_t>(rng.uniform_int(2, 10));
      const TwoPathRoute aimed = search.route_keeping_field(
          from, goal, L, wire, sites, 1.0, cache.cut_floors());
      const TwoPathRoute plain =
          route_two_path(g, from, goal, L, wire, sites, 1.0, 0.0);
      EXPECT_EQ(aimed.cost, plain.cost) << "seed " << seed << " search " << k;
    }
    for (tile::TileId t = 0; t < g.tile_count(); ++t) {
      ASSERT_EQ(search.field_distance(t, wire),
                expect[static_cast<std::size_t>(t)])
          << "seed " << seed << " tile " << t;
    }
  }
}

}  // namespace
}  // namespace rabid::core
