#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "obs/counters.hpp"
#include "route/maze.hpp"

namespace rabid::route {
namespace {

tile::TileGraph make_graph(std::int32_t cap = 4) {
  tile::TileGraph g(geom::Rect{{0, 0}, {800, 800}}, 8, 8);
  g.set_uniform_wire_capacity(cap);
  return g;
}

TEST(EdgeCostCache, ConstructionSnapshotsEveryEdgeAndExactMin) {
  tile::TileGraph g = make_graph(3);
  g.add_wire(5);  // one edge more expensive than the rest
  const EdgeCostCache cache(
      g, [&](tile::EdgeId e) { return soft_wire_cost(g, e); });
  ASSERT_EQ(cache.values().size(), static_cast<std::size_t>(g.edge_count()));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_DOUBLE_EQ(cache[e], soft_wire_cost(g, e));
  }
  EXPECT_DOUBLE_EQ(cache.min_cost(),
                   *std::min_element(cache.values().begin(),
                                     cache.values().end()));
}

TEST(EdgeCostCache, RefreshEdgeTracksUsageChanges) {
  tile::TileGraph g = make_graph(3);
  EdgeCostCache cache(g,
                      [&](tile::EdgeId e) { return soft_wire_cost(g, e); });
  const double before = cache[7];
  g.add_wire(7);
  EXPECT_DOUBLE_EQ(cache[7], before);  // stale until told
  cache.refresh_edge(7);
  EXPECT_DOUBLE_EQ(cache[7], soft_wire_cost(g, 7));
  EXPECT_GT(cache[7], before);
}

/// min_cost() must stay a valid lower bound under point refreshes: it
/// may only move down between refresh_all() calls, even when the true
/// minimum rose (a stale-high bound would break A* admissibility).
TEST(EdgeCostCache, MinIsConservativeLowerBoundUnderPointRefresh) {
  tile::TileGraph g = make_graph(2);
  EdgeCostCache cache(g,
                      [&](tile::EdgeId e) { return soft_wire_cost(g, e); });
  const double initial_min = cache.min_cost();

  // Raise every edge's cost; point-refresh them all.  The cached values
  // move, the bound must not rise.
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    g.add_wire(e);
    cache.refresh_edge(e);
  }
  EXPECT_LE(cache.min_cost(), initial_min);
  for (const double c : cache.values()) {
    EXPECT_LE(cache.min_cost(), c);
  }

  // refresh_all recomputes the exact minimum.
  cache.refresh_all();
  EXPECT_DOUBLE_EQ(cache.min_cost(),
                   *std::min_element(cache.values().begin(),
                                     cache.values().end()));
  EXPECT_GT(cache.min_cost(), initial_min);
}

/// on_capacity_change() must recompute the cached value exactly in both
/// directions: a shrink raises the cost (toward the overflow tier), a
/// widening lowers it — possibly below every cost the cache has ever
/// seen, which is the A*-admissibility hazard the ECO path hits.
TEST(EdgeCostCache, OnCapacityChangeTracksBothDirections) {
  tile::TileGraph g = make_graph(3);
  EdgeCostCache cache(g,
                      [&](tile::EdgeId e) { return soft_wire_cost(g, e); });
  const double before = cache[7];

  // Shrink W(e): (w+1)/(cap-w) rises.  Stale until told, exact after.
  g.set_wire_capacity(7, 1);
  EXPECT_DOUBLE_EQ(cache[7], before);
  cache.on_capacity_change(7);
  EXPECT_DOUBLE_EQ(cache[7], soft_wire_cost(g, 7));
  EXPECT_GT(cache[7], before);

  // Widen W(e) far past the uniform capacity: the true cost drops below
  // the construction-time minimum.  The floor must follow it down, or
  // min_cost() overestimates the cheapest step and A* goes inadmissible.
  g.set_wire_capacity(7, 50);
  cache.on_capacity_change(7);
  EXPECT_DOUBLE_EQ(cache[7], soft_wire_cost(g, 7));
  EXPECT_LT(cache[7], before);
  EXPECT_LE(cache.min_cost(), cache[7]);
  for (const double c : cache.values()) {
    EXPECT_LE(cache.min_cost(), c);
  }
}

/// Shrinking capacity below current usage must land the cached value in
/// the overflow tier, same as soft_wire_cost computes it live.
TEST(EdgeCostCache, OnCapacityChangeEntersOverflowTier) {
  tile::TileGraph g = make_graph(4);
  for (int i = 0; i < 3; ++i) g.add_wire(9);
  EdgeCostCache cache(g,
                      [&](tile::EdgeId e) { return soft_wire_cost(g, e); });
  g.set_wire_capacity(9, 2);  // usage 3 > capacity 2: overflowed
  cache.on_capacity_change(9);
  EXPECT_DOUBLE_EQ(cache[9], soft_wire_cost(g, 9));
  EXPECT_GE(cache[9], kOverflowPenalty);
}

TEST(EdgeCostCache, RefreshTreeUpdatesExactlyTheCommittedEdges) {
  tile::TileGraph g = make_graph(3);
  EdgeCostCache cache(g,
                      [&](tile::EdgeId e) { return soft_wire_cost(g, e); });

  // A 3-tile L-shaped tree: (0,0) -> (1,0) -> (1,1).
  RouteTree tree(g.id_of({0, 0}));
  const NodeId a = tree.add_child(tree.root(), g.id_of({1, 0}));
  const NodeId b = tree.add_child(a, g.id_of({1, 1}));
  tree.add_sink(b);
  tree.commit(g, 1);

  const tile::EdgeId e1 = g.edge_between(g.id_of({0, 0}), g.id_of({1, 0}));
  const tile::EdgeId e2 = g.edge_between(g.id_of({1, 0}), g.id_of({1, 1}));
  const double stale = cache[e1];
  cache.refresh_tree(tree);
  EXPECT_DOUBLE_EQ(cache[e1], soft_wire_cost(g, e1));
  EXPECT_DOUBLE_EQ(cache[e2], soft_wire_cost(g, e2));
  EXPECT_GT(cache[e1], stale);
  // Edges the tree does not cross keep their snapshot.
  const tile::EdgeId other =
      g.edge_between(g.id_of({5, 5}), g.id_of({6, 5}));
  EXPECT_DOUBLE_EQ(cache[other], soft_wire_cost(g, other));
}

/// refresh_tree() is refresh_tree_sharded() on the global floor: both
/// count one invalidation per tree arc, so an empty tree (a net that
/// was never routed) counts none and leaves the floor alone.
TEST(EdgeCostCache, RefreshTreeCountsOneInvalidationPerArc) {
  tile::TileGraph g = make_graph(3);
  EdgeCostCache cache(g,
                      [&](tile::EdgeId e) { return soft_wire_cost(g, e); });
  RouteTree tree(g.id_of({0, 0}));
  tree.add_child(tree.add_child(tree.root(), g.id_of({1, 0})),
                 g.id_of({1, 1}));

  obs::Registry& registry = obs::Registry::instance();
  registry.set_level(obs::Level::kCounters);
  registry.reset();
  const double min_before = cache.min_cost();
  double floor = std::numeric_limits<double>::infinity();
  cache.refresh_tree(RouteTree());
  cache.refresh_tree_sharded(RouteTree(), floor);
  const std::uint64_t empty =
      registry.snapshot()[obs::Counter::kEdgeCacheInvalidations];
  cache.refresh_tree(tree);
  cache.refresh_tree_sharded(tree, floor);
  const std::uint64_t total =
      registry.snapshot()[obs::Counter::kEdgeCacheInvalidations];
  registry.set_level(obs::Level::kOff);
  registry.reset();

  EXPECT_EQ(empty, 0u);
  EXPECT_EQ(total, 4u);  // two arcs, refreshed twice
  EXPECT_DOUBLE_EQ(cache.min_cost(), min_before);
  EXPECT_DOUBLE_EQ(floor, soft_wire_cost(g, g.edge_between(g.id_of({0, 0}),
                                                           g.id_of({1, 0}))));
}

}  // namespace
}  // namespace rabid::route
