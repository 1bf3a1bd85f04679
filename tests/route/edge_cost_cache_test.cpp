#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "obs/counters.hpp"
#include "route/maze.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

// ---------------------------------------------------------------------
// Cut floors: one lower bound per straight grid cut, kept under the
// same discipline as min_cost().

/// Index into a CutFloors of the cut edge `e` crosses, derived from its
/// endpoints (not from the cache's id arithmetic): column cuts first,
/// then row cuts.
std::pair<bool, std::int32_t> cut_of(const tile::TileGraph& g,
                                     tile::EdgeId e) {
  const auto [a, b] = g.edge_tiles(e);
  const geom::TileCoord ca = g.coord_of(a);
  const geom::TileCoord cb = g.coord_of(b);
  if (ca.y == cb.y) return {true, std::min(ca.x, cb.x)};
  return {false, std::min(ca.y, cb.y)};
}

double floor_of(const CutFloors& floors, const tile::TileGraph& g,
                tile::EdgeId e) {
  const auto [column, i] = cut_of(g, e);
  return column ? floors.col(i) : floors.row(i);
}

/// Every cut floor bounds every cached cost in its cut, and min_cost()
/// bounds every cut floor.
void expect_admissible(const EdgeCostCache& cache, const tile::TileGraph& g) {
  const CutFloors floors = cache.cut_floors();
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    ASSERT_LE(floor_of(floors, g, e), cache[e]) << "edge " << e;
    ASSERT_LE(cache.min_cost(), floor_of(floors, g, e)) << "edge " << e;
  }
}

/// After refresh_all() each floor is the exact minimum over its cut.
void expect_exact(const EdgeCostCache& cache, const tile::TileGraph& g) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> cols(static_cast<std::size_t>(g.nx() - 1), inf);
  std::vector<double> rows(static_cast<std::size_t>(g.ny() - 1), inf);
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto [column, i] = cut_of(g, e);
    double& lo = (column ? cols : rows)[static_cast<std::size_t>(i)];
    lo = std::min(lo, soft_wire_cost(g, e));
  }
  const CutFloors floors = cache.cut_floors();
  for (std::int32_t x = 0; x + 1 < g.nx(); ++x) {
    EXPECT_EQ(floors.col(x), cols[static_cast<std::size_t>(x)]) << x;
  }
  for (std::int32_t y = 0; y + 1 < g.ny(); ++y) {
    EXPECT_EQ(floors.row(y), rows[static_cast<std::size_t>(y)]) << y;
  }
  EXPECT_EQ(cache.min_cost(),
            std::min(*std::min_element(cols.begin(), cols.end()),
                     *std::min_element(rows.begin(), rows.end())));
}

/// A random self-avoiding walk from `from`, as a path tree with a sink
/// at its end (at least one arc).
RouteTree random_walk(const tile::TileGraph& g, util::Rng& rng,
                      tile::TileId from, int steps) {
  RouteTree tree(from);
  NodeId at = tree.root();
  std::vector<tile::TileId> seen{from};
  for (int s = 0; s < steps; ++s) {
    const tile::TileId here = tree.node(at).tile;
    const tile::TileGraph::Adjacency* adj = g.adjacency(here);
    const int cnt = g.adj_count(here);
    const tile::TileId next = adj[rng.uniform_int(0, cnt - 1)].tile;
    if (std::find(seen.begin(), seen.end(), next) != seen.end()) continue;
    seen.push_back(next);
    at = tree.add_child(at, next);
  }
  if (at == tree.root()) {
    at = tree.add_child(at, g.adjacency(from)[0].tile);
  }
  tree.add_sink(at);
  return tree;
}

/// Random rip, commit, capacity-edit and point-refresh sequences on a
/// non-square grid: the floors stay admissible after every operation
/// and are exact after each refresh_all().
TEST(CutFloors, AdmissibleUnderRandomEditsExactAfterRefreshAll) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    tile::TileGraph g(geom::Rect{{0, 0}, {700, 500}}, 7, 5);
    util::Rng rng(seed);
    for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
      g.set_wire_capacity(e, static_cast<std::int32_t>(rng.uniform_int(0, 4)));
    }
    EdgeCostCache cache(g,
                        [&](tile::EdgeId e) { return soft_wire_cost(g, e); });
    expect_exact(cache, g);
    std::vector<RouteTree> committed;
    for (int op = 0; op < 300; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 4);
      if (kind == 0 || (kind == 1 && committed.empty())) {
        RouteTree t = random_walk(
            g, rng,
            static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1)),
            static_cast<int>(rng.uniform_int(1, 8)));
        t.commit(g, 1);
        cache.refresh_tree(t);
        committed.push_back(std::move(t));
      } else if (kind == 1) {
        const auto last = static_cast<std::int64_t>(committed.size()) - 1;
        const auto k = static_cast<std::size_t>(rng.uniform_int(0, last));
        committed[k].uncommit(g, 1);
        cache.refresh_tree(committed[k]);
        committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(k));
      } else if (kind == 2) {
        const auto e = static_cast<tile::EdgeId>(
            rng.uniform_int(0, g.edge_count() - 1));
        g.set_wire_capacity(e,
                            static_cast<std::int32_t>(rng.uniform_int(0, 6)));
        cache.on_capacity_change(e);
      } else if (kind == 3) {
        const auto e = static_cast<tile::EdgeId>(
            rng.uniform_int(0, g.edge_count() - 1));
        g.add_wire(e);
        cache.refresh_edge(e);
      } else {
        cache.refresh_all();
        expect_exact(cache, g);
      }
      for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
        ASSERT_EQ(cache[e], soft_wire_cost(g, e));
      }
      expect_admissible(cache, g);
    }
  }
}

/// The uniform case: a scalar floor bounds every cut at that value, and
/// the scalar 0 turns the heuristic off.
TEST(CutFloors, ScalarIsTheUniformCase) {
  const CutFloors off;
  EXPECT_FALSE(off.enabled());
  const CutFloors f = 0.25;
  EXPECT_TRUE(f.enabled());
  EXPECT_EQ(f.min(), 0.25);
  EXPECT_EQ(f.col(3), 0.25);
  EXPECT_EQ(f.row(0), 0.25);
}

/// Sharded stage 2 refreshes one cache from pool workers, each on its
/// own floor; the cut floors are never written there, and lower_min()
/// folds every shard floor back in, so they are admissible afterwards.
TEST(CutFloors, ShardedRefreshesLeaveFloorsAdmissible) {
  tile::TileGraph g(geom::Rect{{0, 0}, {800, 800}}, 8, 8);
  g.set_uniform_wire_capacity(3);
  // One horizontal run per row, committed twice so ripping it lowers
  // every cost it crosses below the initial floors.
  std::vector<RouteTree> rows;
  for (std::int32_t y = 0; y < g.ny(); ++y) {
    RouteTree t(g.id_of({0, y}));
    NodeId at = t.root();
    for (std::int32_t x = 1; x < g.nx(); ++x) {
      at = t.add_child(at, g.id_of({x, y}));
    }
    t.add_sink(at);
    t.commit(g, 2);
    rows.push_back(std::move(t));
  }
  EdgeCostCache cache(g,
                      [&](tile::EdgeId e) { return soft_wire_cost(g, e); });
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> floors(rows.size(), inf);
  util::ThreadPool pool(4);
  pool.parallel_for(0, rows.size(), [&](std::size_t r) {
    rows[r].uncommit(g, 2);
    cache.refresh_tree_sharded(rows[r], floors[r]);
  });
  for (const double f : floors) cache.lower_min(f);
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    ASSERT_EQ(cache[e], soft_wire_cost(g, e));
  }
  expect_admissible(cache, g);
  cache.refresh_all();
  expect_exact(cache, g);
}

}  // namespace
}  // namespace rabid::route
