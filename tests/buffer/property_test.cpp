#include <gtest/gtest.h>

#include <cmath>

#include "buffer/brute_force.hpp"
#include "buffer/single_sink.hpp"
#include "buffer/insertion.hpp"
#include "util/rng.hpp"

namespace rabid::buffer {
namespace {

/// Random small route trees + random tile costs; the DP must match the
/// exhaustive optimum exactly (cost) and emit a legal placement.
class DpVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

tile::TileGraph property_graph() {
  return tile::TileGraph(geom::Rect{{0, 0}, {900, 900}}, 9, 9);
}

/// Grows a random tree with up to `max_nodes` nodes by random walks.
route::RouteTree random_tree(const tile::TileGraph& g, util::Rng& rng,
                             std::int32_t max_nodes) {
  route::RouteTree t(g.id_of({4, 4}));
  std::int32_t attempts = 4 * max_nodes;
  while (static_cast<std::int32_t>(t.node_count()) < max_nodes &&
         attempts-- > 0) {
    // Pick a random existing node and try to extend to a free neighbor.
    const auto n = static_cast<route::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(t.node_count()) - 1));
    tile::TileId nbr[4];
    const int cnt = g.neighbors(t.node(n).tile, nbr);
    const tile::TileId pick =
        nbr[static_cast<std::size_t>(rng.uniform_int(0, cnt - 1))];
    if (!t.contains(pick)) t.add_child(n, pick);
  }
  // Sinks: all leaves, plus occasionally an internal node.
  for (std::size_t i = 1; i < t.node_count(); ++i) {
    const auto v = static_cast<route::NodeId>(i);
    if (t.node(v).children().empty() || rng.chance(0.15)) t.add_sink(v);
  }
  if (t.total_sinks() == 0) t.add_sink(t.root());
  return t;
}

TEST_P(DpVsBruteForce, CostsMatchExhaustiveOptimum) {
  util::Rng rng(GetParam());
  const tile::TileGraph g = property_graph();
  for (int trial = 0; trial < 12; ++trial) {
    const route::RouteTree t = random_tree(g, rng, 7);
    // Random costs; ~15% of tiles blocked.
    std::vector<double> qv(static_cast<std::size_t>(g.tile_count()));
    for (double& q : qv) {
      q = rng.chance(0.15) ? std::numeric_limits<double>::infinity()
                           : rng.uniform(0.1, 10.0);
    }
    const TileCostFn q = [&](tile::TileId tl) {
      return qv[static_cast<std::size_t>(tl)];
    };
    const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 5));

    const InsertionResult dp = insert_buffers(t, L, q);
    const InsertionResult bf = brute_force_insert(t, L, q);
    ASSERT_EQ(dp.feasible, bf.feasible)
        << "seed=" << GetParam() << " trial=" << trial << " L=" << L;
    if (dp.feasible) {
      EXPECT_NEAR(dp.cost, bf.cost, 1e-9)
          << "seed=" << GetParam() << " trial=" << trial << " L=" << L;
      EXPECT_TRUE(placement_is_legal(t, dp.buffers, L));
      EXPECT_NEAR(placement_cost(t, dp.buffers, q), dp.cost, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpVsBruteForce,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

/// Chains against the Fig. 6 transcription across random inputs.
class ChainEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainEquivalence, GeneralDpEqualsSingleSinkAlgorithm) {
  util::Rng rng(GetParam() * 977);
  const tile::TileGraph g = property_graph();
  for (int trial = 0; trial < 10; ++trial) {
    const auto len = static_cast<std::int32_t>(rng.uniform_int(1, 8));
    route::RouteTree t(g.id_of({0, 0}));
    route::NodeId cur = t.root();
    std::vector<double> qs;
    std::vector<double> q_by_x(9, std::numeric_limits<double>::infinity());
    for (std::int32_t x = 1; x <= len; ++x) {
      cur = t.add_child(cur, g.id_of({x, 0}));
      const double q =
          rng.chance(0.2) ? std::numeric_limits<double>::infinity()
                          : rng.uniform(0.1, 5.0);
      q_by_x[static_cast<std::size_t>(x)] = q;
      if (x < len) qs.push_back(q);  // the last tile is the sink column
    }
    t.add_sink(cur);
    const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 5));
    const InsertionResult dp = insert_buffers(
        t, L, [&](tile::TileId tl) {
          return q_by_x[static_cast<std::size_t>(g.coord_of(tl).x)];
        });
    const SingleSinkTable table = single_sink_insertion(qs, L);
    if (std::isinf(table.optimal)) {
      EXPECT_FALSE(dp.feasible);
    } else {
      ASSERT_TRUE(dp.feasible);
      EXPECT_NEAR(dp.cost, table.optimal, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace rabid::buffer
