#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "buffer/brute_force.hpp"
#include "buffer/frontier.hpp"
#include "buffer/insertion.hpp"
#include "buffer/library.hpp"
#include "util/rng.hpp"

namespace rabid::buffer {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Reference min-under: scan the *raw* state set.
double raw_min_under(const std::vector<Cand>& states, std::int32_t budget) {
  double best = kInf;
  for (const Cand& c : states) {
    if (c.load <= budget) best = std::min(best, c.cost);
  }
  return best;
}

/// The pruning invariant from frontier.hpp, verified exhaustively: for
/// *every* downstream budget the pruned frontier answers exactly what
/// the full state set answers.  This is the property that licenses
/// dropping dominated states mid-DP.
class PruningLossless : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruningLossless, MinUnderEveryBudgetIsPreserved) {
  util::Rng rng(0xf07715e ^ GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    std::vector<Cand> states(n);
    for (Cand& c : states) {
      c.load = static_cast<std::int32_t>(rng.uniform_int(0, 20));
      // Integer costs force plenty of exact ties; ~10% infinite states
      // model dead (siteless) configurations.
      c.cost = rng.chance(0.1) ? kInf
                               : static_cast<double>(rng.uniform_int(0, 12));
    }
    std::uint64_t pruned = 0;
    const Frontier f = prune_frontier(states, &pruned);

    // Shape: the lower-left staircase — loads strictly increasing,
    // costs strictly decreasing, nothing infinite.
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_TRUE(std::isfinite(f[i].cost));
      if (i > 0) {
        EXPECT_LT(f[i - 1].load, f[i].load);
        EXPECT_GT(f[i - 1].cost, f[i].cost);
      }
    }
    // Bookkeeping: every dropped state is counted.
    EXPECT_EQ(pruned, states.size() - f.size());

    // Losslessness at every budget the DP could ever query.
    for (std::int32_t budget = -1; budget <= 22; ++budget) {
      EXPECT_EQ(frontier_min_under(f, budget), raw_min_under(states, budget))
          << "seed=" << GetParam() << " trial=" << trial
          << " budget=" << budget;
    }

    // frontier_arg_under agrees with frontier_min_under and points at
    // the last in-budget entry (the cheapest, by the staircase shape).
    for (std::int32_t budget = -1; budget <= 22; ++budget) {
      const std::int32_t arg = frontier_arg_under(f, budget);
      if (std::isinf(frontier_min_under(f, budget))) {
        EXPECT_EQ(arg, -1);
      } else {
        ASSERT_GE(arg, 0);
        const auto i = static_cast<std::size_t>(arg);
        EXPECT_LE(f[i].load, budget);
        EXPECT_EQ(f[i].cost, frontier_min_under(f, budget));
        if (i + 1 < f.size()) {
          EXPECT_GT(f[i + 1].load, budget);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningLossless,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

tile::TileGraph small_graph() {
  return tile::TileGraph(geom::Rect{{0, 0}, {900, 900}}, 9, 9);
}

route::RouteTree random_tree(const tile::TileGraph& g, util::Rng& rng,
                             std::int32_t max_nodes) {
  route::RouteTree t(g.id_of({4, 4}));
  std::int32_t attempts = 4 * max_nodes;
  while (static_cast<std::int32_t>(t.node_count()) < max_nodes &&
         attempts-- > 0) {
    const auto n = static_cast<route::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(t.node_count()) - 1));
    tile::TileId nbr[4];
    const int cnt = g.neighbors(t.node(n).tile, nbr);
    const tile::TileId pick =
        nbr[static_cast<std::size_t>(rng.uniform_int(0, cnt - 1))];
    if (!t.contains(pick)) t.add_child(n, pick);
  }
  for (std::size_t i = 1; i < t.node_count(); ++i) {
    const auto v = static_cast<route::NodeId>(i);
    if (t.node(v).children().empty() || rng.chance(0.15)) t.add_sink(v);
  }
  if (t.total_sinks() == 0) t.add_sink(t.root());
  return t;
}

BufferType spec(const char* name, double cost_scale, double drive_scale) {
  BufferType s;
  s.name = name;
  s.cost_scale = cost_scale;
  s.drive_scale = drive_scale;
  return s;
}

/// Degenerate library: b identical copies of the unit type.  Pruning
/// plus the lower-index tie-break must make this *indistinguishable*
/// from the single-type library — same optimum, and every committed
/// type is index 0.
TEST(DegenerateLibraries, DuplicatedUnitTypesCollapseToTypeZero) {
  const tile::TileGraph g = small_graph();
  const BufferLibrary dup(
      {spec("a", 1.0, 1.0), spec("b", 1.0, 1.0), spec("c", 1.0, 1.0)});
  util::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const route::RouteTree t = random_tree(g, rng, 9);
    std::vector<double> qv(static_cast<std::size_t>(g.tile_count()));
    for (double& q : qv) {
      q = rng.chance(0.15) ? kInf
                           : static_cast<double>(rng.uniform_int(1, 9));
    }
    const TileCostFn q = [&](tile::TileId tl) {
      return qv[static_cast<std::size_t>(tl)];
    };
    const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 4));
    const InsertionResult one = insert_buffers(t, L, q);
    const InsertionResult three = insert_buffers(t, L, q, dup);
    ASSERT_EQ(three.feasible, one.feasible);
    if (one.feasible) {
      EXPECT_EQ(three.cost, one.cost);
      for (const std::int32_t ty : three.types) EXPECT_EQ(ty, 0);
    }
  }
}

/// Degenerate library: a free buffer type (cost_scale == 0).  Wherever
/// a site exists a buffer is free, so on an unblocked instance the
/// optimum is exactly zero and still legal.
TEST(DegenerateLibraries, ZeroCostTypeMakesBufferingFree) {
  const tile::TileGraph g = small_graph();
  const BufferLibrary lib({spec("ox1", 1.0, 1.0), spec("free", 0.0, 1.0)});
  util::Rng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    const route::RouteTree t = random_tree(g, rng, 9);
    const TileCostFn q = [](tile::TileId) { return 3.0; };
    const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 4));
    const InsertionResult dp = insert_buffers(t, L, q, lib);
    ASSERT_TRUE(dp.feasible);
    EXPECT_EQ(dp.cost, 0.0);
    EXPECT_TRUE(placement_is_legal_lib(t, dp.buffers, dp.types, L, lib));
    for (const std::int32_t ty : dp.types) {
      EXPECT_EQ(ty, lib.index_of("free"));
    }
  }
}

/// Degenerate drive scales: a sub-unit scale clamps to drive_limit 1
/// (never 0 — every gate can at least drive its own arc), and an
/// enormous scale caps the DP's load range at max_drive_limit, both
/// without upsetting the oracle equivalence.
TEST(DegenerateLibraries, ExtremeDriveScalesStayConsistent) {
  const tile::TileGraph g = small_graph();
  const BufferLibrary lib(
      {spec("tiny", 1.0, 0.01), spec("huge", 8.0, 100.0)});
  EXPECT_EQ(lib.drive_limit(0, 5), 1);
  EXPECT_EQ(lib.drive_limit(1, 5), 500);
  EXPECT_EQ(lib.max_drive_limit(5), 500);

  util::Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    const route::RouteTree t = random_tree(g, rng, 6);
    std::vector<double> qv(static_cast<std::size_t>(g.tile_count()));
    for (double& q : qv) {
      q = rng.chance(0.15) ? kInf
                           : static_cast<double>(rng.uniform_int(1, 9));
    }
    const TileCostFn q = [&](tile::TileId tl) {
      return qv[static_cast<std::size_t>(tl)];
    };
    const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 3));
    const InsertionResult dp = insert_buffers(t, L, q, lib);
    const InsertionResult bf = brute_force_insert_lib(t, L, q, lib);
    ASSERT_EQ(dp.feasible, bf.feasible) << "trial=" << trial;
    if (dp.feasible) {
      EXPECT_EQ(dp.cost, bf.cost) << "trial=" << trial;
      EXPECT_TRUE(placement_is_legal_lib(t, dp.buffers, dp.types, L, lib));
    }
  }
}

}  // namespace
}  // namespace rabid::buffer
