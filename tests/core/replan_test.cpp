#include "core/replan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "buffer/library.hpp"
#include "core/twopath.hpp"
#include "geom/rect.hpp"
#include "netlist/design.hpp"
#include "route/maze.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "util/rng.hpp"

namespace rabid::core {
namespace {

/// Both books of a graph, for before/after comparisons.
struct Books {
  std::vector<std::int32_t> wires;
  std::vector<std::int32_t> sites;
  bool operator==(const Books&) const = default;
};

Books books_of(const tile::TileGraph& g) {
  Books b;
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    b.wires.push_back(g.wire_usage(e));
  }
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    b.sites.push_back(g.site_usage(t));
  }
  return b;
}

/// A 16x16 grid with seeded partial wire and site usage, so the net
/// under test shares its edges and tiles with other commitments.
tile::TileGraph busy_grid() {
  util::Rng rng(99);
  tile::TileGraph g(geom::Rect{{0, 0}, {1600, 1600}}, 16, 16);
  g.set_uniform_wire_capacity(4);
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto w = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    for (std::int32_t k = 0; k < w; ++k) g.add_wire(e);
  }
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    g.set_site_supply(t, 3);
    const auto s = static_cast<std::int32_t>(rng.uniform_int(0, 2));
    for (std::int32_t k = 0; k < s; ++k) g.add_buffer(t);
  }
  return g;
}

/// A two-sink net across the grid, two tracks wide.
netlist::Net wide_net(const tile::TileGraph& g) {
  netlist::Net net;
  net.name = "n";
  net.width = 2;
  net.source.location = g.center(g.id_of({1, 2}));
  net.sinks.push_back({g.center(g.id_of({13, 4}))});
  net.sinks.push_back({g.center(g.id_of({6, 14}))});
  return net;
}

route::EdgeCostCache soft_cache(const tile::TileGraph& g) {
  route::EdgeCostCache cache(
      g, [&g](tile::EdgeId e) { return route::soft_wire_cost(g, e); });
  cache.refresh_all();
  return cache;
}

/// The cache holds exactly the costs a full refresh of the live books
/// gives, and its A* floor stays a lower bound on them.  With
/// `exact_floor` (the books are back where the cache was last fully
/// refreshed) the floor is the fresh minimum itself.
void expect_fresh(const tile::TileGraph& g, const route::EdgeCostCache& cache,
                  bool exact_floor) {
  const route::EdgeCostCache fresh = soft_cache(g);
  ASSERT_EQ(cache.values().size(), fresh.values().size());
  for (std::size_t e = 0; e < fresh.values().size(); ++e) {
    EXPECT_EQ(cache.values()[e], fresh.values()[e]) << "edge " << e;
  }
  if (exact_floor) {
    EXPECT_EQ(cache.min_cost(), fresh.min_cost());
  } else {
    EXPECT_LE(cache.min_cost(), fresh.min_cost());
  }
}

TEST(Replan, RipBuffersAndWiresRestoreBothBooks) {
  tile::TileGraph g = busy_grid();
  const netlist::Net net = wide_net(g);
  const Books before = books_of(g);
  route::EdgeCostCache cache = soft_cache(g);
  std::vector<double> site_cost = site_cost_table(g);
  route::MazeRouter router(g);

  NetState state;
  maze_route(g, state, net, 0.4, router, cache);
  buffer_net(g, state, /*L=*/3, buffer::BufferLibrary{});
  ASSERT_FALSE(state.buffers.empty());
  ASSERT_NE(books_of(g), before);
  expect_fresh(g, cache, /*exact_floor=*/false);

  rip_buffers(g, state, site_cost);
  EXPECT_TRUE(state.buffers.empty());
  EXPECT_TRUE(state.buffer_types.empty());
  rip_wires(g, state, net.width, cache);
  EXPECT_FALSE(state.tree.empty());  // kept as the reroute seed
  EXPECT_EQ(books_of(g), before);
  expect_fresh(g, cache, /*exact_floor=*/true);
  EXPECT_EQ(site_cost, site_cost_table(g));
}

TEST(Replan, MazeRouteThenRipNetRoundTrips) {
  tile::TileGraph g = busy_grid();
  const netlist::Net net = wide_net(g);
  const Books before = books_of(g);
  route::EdgeCostCache cache = soft_cache(g);
  route::MazeRouter router(g);

  NetState state;
  maze_route(g, state, net, 0.4, router, cache);
  ASSERT_FALSE(state.tree.empty());
  buffer_net(g, state, /*L=*/3, buffer::BufferLibrary{});
  rip_net(g, state, net.width, cache);
  EXPECT_TRUE(state.tree.empty());
  EXPECT_TRUE(state.buffers.empty());
  EXPECT_FALSE(state.meets_length_rule);
  EXPECT_EQ(books_of(g), before);
  expect_fresh(g, cache, /*exact_floor=*/true);

  // On an unrouted net rip_net is a no-op.
  rip_net(g, state, net.width, cache);
  EXPECT_EQ(books_of(g), before);
}

TEST(Replan, ShardFloorTakesThePlaceOfTheGlobalFloor) {
  tile::TileGraph g = busy_grid();
  const netlist::Net net = wide_net(g);
  route::EdgeCostCache cache = soft_cache(g);
  route::MazeRouter router(g);
  NetState state;
  maze_route(g, state, net, 0.4, router, cache);

  const double global = cache.min_cost();
  double floor = global;
  rip_wires(g, state, net.width, cache, &floor);
  maze_route(g, state, net, 0.4, router, cache, &floor);
  EXPECT_EQ(cache.min_cost(), global);  // only the shard floor moved
  EXPECT_LE(floor, global);
  cache.lower_min(floor);
  expect_fresh(g, cache, /*exact_floor=*/false);
}

TEST(Replan, PolishNetKeepsBooksAndTablesExact) {
  tile::TileGraph g = busy_grid();
  const netlist::Net net = wide_net(g);
  route::EdgeCostCache cache = soft_cache(g);
  route::MazeRouter router(g);
  NetState state;
  maze_route(g, state, net, 0.4, router, cache);
  buffer_net(g, state, /*L=*/3, buffer::BufferLibrary{});
  const Books committed = books_of(g);

  std::vector<double> site_cost = site_cost_table(g);
  TwoPathRerouter rerouter(g);
  polish_net(g, state, /*L=*/3, net.width, buffer::BufferLibrary{}, cache,
             site_cost, rerouter, /*wire_weight=*/1.0);
  EXPECT_FALSE(state.tree.empty());
  expect_fresh(g, cache, /*exact_floor=*/false);
  EXPECT_EQ(site_cost, site_cost_table(g));

  // Ripping the polished net leaves the books as they were before the
  // net was first committed, just as ripping the unpolished one would.
  rip_net(g, state, net.width, cache);
  tile::TileGraph reference = busy_grid();
  EXPECT_EQ(books_of(g), books_of(reference));
  EXPECT_NE(books_of(g), committed);
}

TEST(Replan, AnyArcIsFalseOnAnEmptyTree) {
  const tile::TileGraph g(geom::Rect{{0, 0}, {400, 400}}, 4, 4);
  const auto always = [](tile::EdgeId) { return true; };
  EXPECT_FALSE(any_arc(g, route::RouteTree(), always));

  route::RouteTree tree(g.id_of({0, 0}));
  EXPECT_FALSE(any_arc(g, tree, always));  // a root alone has no arc

  const route::NodeId a = tree.add_child(tree.root(), g.id_of({1, 0}));
  tree.add_sink(tree.add_child(a, g.id_of({1, 1})));
  const tile::EdgeId last = g.edge_between(g.id_of({1, 0}), g.id_of({1, 1}));
  EXPECT_TRUE(any_arc(g, tree, always));
  EXPECT_TRUE(any_arc(g, tree, [&](tile::EdgeId e) { return e == last; }));
  EXPECT_FALSE(any_arc(g, tree, [&](tile::EdgeId e) { return e < 0; }));
}

}  // namespace
}  // namespace rabid::core
