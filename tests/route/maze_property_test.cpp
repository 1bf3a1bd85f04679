#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "route/maze.hpp"
#include "util/rng.hpp"

namespace rabid::route {
namespace {

/// Flat eq. (1) costs of the graph's current books.
std::vector<double> soft_costs(const tile::TileGraph& g) {
  std::vector<double> cost(static_cast<std::size_t>(g.edge_count()));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    cost[static_cast<std::size_t>(e)] = soft_wire_cost(g, e);
  }
  return cost;
}

/// Bellman-Ford reference distances over the tile graph under flat
/// per-edge costs.
std::vector<double> reference_distances(const tile::TileGraph& g,
                                        tile::TileId source,
                                        std::span<const double> cost) {
  std::vector<double> dist(static_cast<std::size_t>(g.tile_count()),
                           std::numeric_limits<double>::infinity());
  dist[static_cast<std::size_t>(source)] = 0.0;
  for (std::int32_t round = 0; round < g.tile_count(); ++round) {
    bool changed = false;
    for (tile::TileId t = 0; t < g.tile_count(); ++t) {
      if (!std::isfinite(dist[static_cast<std::size_t>(t)])) continue;
      tile::TileId nbr[4];
      const int n = g.neighbors(t, nbr);
      for (int k = 0; k < n; ++k) {
        const double nd = dist[static_cast<std::size_t>(t)] +
                          cost[static_cast<std::size_t>(
                              g.edge_between(t, nbr[k]))];
        if (nd < dist[static_cast<std::size_t>(nbr[k])] - 1e-15) {
          dist[static_cast<std::size_t>(nbr[k])] = nd;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return dist;
}

class MazeOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MazeOptimality, ShortestPathMatchesBellmanFord) {
  util::Rng rng(GetParam() * 31337);
  tile::TileGraph g(geom::Rect{{0, 0}, {700, 600}}, 7, 6);
  g.set_uniform_wire_capacity(4);
  // Random congestion state.
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto w = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    for (std::int32_t k = 0; k < w; ++k) g.add_wire(e);
  }
  const std::vector<double> cost = soft_costs(g);
  MazeRouter router(g);
  const auto src = static_cast<tile::TileId>(
      rng.uniform_int(0, g.tile_count() - 1));
  const std::vector<double> ref = reference_distances(g, src, cost);
  for (int probe = 0; probe < 8; ++probe) {
    const auto dst = static_cast<tile::TileId>(
        rng.uniform_int(0, g.tile_count() - 1));
    const std::vector<tile::TileId> path =
        router.shortest_path(src, dst, cost);
    ASSERT_EQ(path.front(), src);
    ASSERT_EQ(path.back(), dst);
    double total = 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      const tile::EdgeId e = g.edge_between(path[i - 1], path[i]);
      ASSERT_NE(e, tile::kNoEdge);
      total += cost[static_cast<std::size_t>(e)];
    }
    EXPECT_NEAR(total, ref[static_cast<std::size_t>(dst)], 1e-9);
  }
}

TEST_P(MazeOptimality, GrowTreeTouchesEverySinkWithFiniteCost) {
  util::Rng rng(GetParam() * 7919);
  tile::TileGraph g(geom::Rect{{0, 0}, {900, 900}}, 9, 9);
  g.set_uniform_wire_capacity(3);
  MazeRouter router(g);
  const std::vector<double> cost = soft_costs(g);
  for (int trial = 0; trial < 5; ++trial) {
    const auto src = static_cast<tile::TileId>(
        rng.uniform_int(0, g.tile_count() - 1));
    std::vector<tile::TileId> sinks;
    const int k = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < k; ++i) {
      sinks.push_back(static_cast<tile::TileId>(
          rng.uniform_int(0, g.tile_count() - 1)));
    }
    const RouteTree t = router.grow(src, sinks, 0.4, cost);
    t.verify(g);
    EXPECT_EQ(t.total_sinks(), k);
    // Tree spans no more tiles than a per-sink star of shortest paths.
    std::int64_t star = 0;
    for (const tile::TileId s : sinks) {
      star += static_cast<std::int64_t>(
          router.shortest_path(src, s, cost).size());
    }
    EXPECT_LE(t.wirelength_tiles(), star);
    // Committing and uncommitting it leaves the books unchanged.
    const auto before = g.stats();
    t.commit(g);
    t.uncommit(g);
    const auto after = g.stats();
    EXPECT_EQ(before.overflow, after.overflow);
    EXPECT_DOUBLE_EQ(before.avg_wire_congestion, after.avg_wire_congestion);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MazeOptimality,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace rabid::route
