#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "buffer/brute_force.hpp"
#include "buffer/insertion.hpp"
#include "buffer/library.hpp"
#include "util/rng.hpp"

namespace rabid::buffer {
namespace {

/// The oracle battery: the dominance-pruned DP against
/// exhaustive (b+1)^slots enumeration, *exactly* — costs compared with
/// == on doubles, and the root frontier compared state-for-state.
///
/// Exactness is engineered, not hoped for: site costs are small
/// integers and every cost_scale is a power of two, so each scaled cost
/// is exact and every sum of them is exact (they are all small
/// dyadic rationals), regardless of the order the DP and the
/// enumeration accumulate them in.  Any mismatch is a real bug, never
/// float noise.

constexpr double kInf = std::numeric_limits<double>::infinity();

tile::TileGraph oracle_graph() {
  return tile::TileGraph(geom::Rect{{0, 0}, {900, 900}}, 9, 9);
}

/// Grows a random tree with up to `max_nodes` nodes by random walks
/// (same construction as property_test.cpp).
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
    if (t.node(v).children.empty() || rng.chance(0.15)) t.add_sink(v);
  }
  if (t.total_sinks() == 0) t.add_sink(t.root());
  return t;
}

/// Integer site costs in [1, 9]; ~15% of tiles blocked.  Exactly
/// representable, so dyadic scaling keeps all sums exact.
std::vector<double> exact_costs(const tile::TileGraph& g, util::Rng& rng) {
  std::vector<double> qv(static_cast<std::size_t>(g.tile_count()));
  for (double& q : qv) {
    q = rng.chance(0.15) ? kInf
                         : static_cast<double>(rng.uniform_int(1, 9));
  }
  return qv;
}

BufferType spec(const char* name, double cost_scale, double drive_scale) {
  BufferType s;
  s.name = name;
  s.cost_scale = cost_scale;
  s.drive_scale = drive_scale;
  return s;
}

/// Two types, dyadic scales (cf. paper2, whose scales are also exact).
BufferLibrary exact2() {
  return BufferLibrary({spec("ox1", 1.0, 1.0), spec("ox2", 2.0, 2.0)});
}

/// Four types spanning 0.5x..4x — all scales powers of two, unlike
/// paper4's 0.6 cost scale, so oracle comparisons stay bitwise-exact.
BufferLibrary exact4() {
  return BufferLibrary({spec("ox0p5", 0.5, 0.5), spec("ox1", 1.0, 1.0),
                        spec("ox2", 2.0, 2.0), spec("ox4", 4.0, 4.0)});
}

/// One fuzzed instance, checked end to end against the oracle:
/// optimum cost, output legality, recomputed output cost, and the full
/// root frontier state for state.
void check_instance(const route::RouteTree& t, std::int32_t L,
                    const TileCostFn& q, const BufferLibrary& lib,
                    const std::string& where) {
  const InsertionResult dp = insert_buffers(t, L, q, lib);
  const InsertionResult bf = brute_force_insert_lib(t, L, q, lib);
  ASSERT_EQ(dp.feasible, bf.feasible) << where;
  if (dp.feasible) {
    EXPECT_EQ(dp.cost, bf.cost) << where;
    // A unit library leaves `types` empty (every buffer is type 0).
    ASSERT_EQ(dp.types.size(), lib.is_unit() ? 0 : dp.buffers.size())
        << where;
    EXPECT_TRUE(placement_is_legal_lib(t, dp.buffers, dp.types, L, lib))
        << where;
    EXPECT_EQ(placement_cost_lib(t, dp.buffers, dp.types, q, lib), dp.cost)
        << where;
  }

  const Frontier dpf = dp_root_frontier(t, L, q, lib);
  const Frontier bff = brute_force_frontier_lib(t, L, q, lib);
  ASSERT_EQ(dpf.size(), bff.size()) << where << " (frontier size)";
  for (std::size_t i = 0; i < dpf.size(); ++i) {
    EXPECT_EQ(dpf[i].load, bff[i].load) << where << " state " << i;
    EXPECT_EQ(dpf[i].cost, bff[i].cost) << where << " state " << i;
  }
}

/// 20 seeds x 10 trials x {1, 2, 4} types = 600 fuzzed oracle
/// instances.  Tree sizes shrink as the library grows so the
/// enumeration stays tiny ((b+1)^slots combinations).
class DpOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpOracle, MatchesExhaustiveEnumerationStateForState) {
  const tile::TileGraph g = oracle_graph();
  const BufferLibrary unit = BufferLibrary::single_unit();
  const BufferLibrary two = exact2();
  const BufferLibrary four = exact4();
  util::Rng rng(0x0aac1e ^ GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> qv = exact_costs(g, rng);
    const TileCostFn q = [&](tile::TileId tl) {
      return qv[static_cast<std::size_t>(tl)];
    };
    const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 5));
    const std::string tag = "seed=" + std::to_string(GetParam()) +
                            " trial=" + std::to_string(trial) +
                            " L=" + std::to_string(L);
    check_instance(random_tree(g, rng, 10), L, q, unit, tag + " lib=unit");
    check_instance(random_tree(g, rng, 8), L, q, two, tag + " lib=exact2");
    check_instance(random_tree(g, rng, 6), L, q, four, tag + " lib=exact4");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpOracle,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

/// The paper's array DP (Figs. 6/8/9) written out densely, cost only:
/// C_v[j] for every load j in [0, L], nothing pruned.  An independent
/// reference for the frontier engine on the unit library.
double dense_reference_cost(const route::RouteTree& t, std::int32_t L,
                            const TileCostFn& q) {
  const auto stride = static_cast<std::size_t>(L) + 1;
  std::vector<std::vector<double>> c(t.node_count());
  for (const route::NodeId v : t.postorder()) {
    const auto& kids = t.node(v).children;
    std::vector<double>& cv = c[static_cast<std::size_t>(v)];
    if (kids.empty()) {
      cv.assign(stride, 0.0);  // Fig. 6 Step 1
      continue;
    }
    const double qv = q(t.node(v).tile);
    for (std::size_t s = 0; s < kids.size(); ++s) {
      const std::vector<double>& cw = c[static_cast<std::size_t>(kids[s])];
      // Advance one tile; a decoupling buffer at v drives the arc too.
      std::vector<double> k(stride, kInf);
      std::copy(cw.begin(), cw.end() - 1, k.begin() + 1);
      k[0] = qv + *std::min_element(cw.begin(), cw.end() - 1);
      if (s == 0) {
        cv = std::move(k);
        continue;
      }
      // Join: min-plus convolution truncated at L.
      std::vector<double> joined(stride, kInf);
      for (std::size_t j = 0; j < stride; ++j) {
        for (std::size_t x = 0; x <= j; ++x) {
          joined[j] = std::min(joined[j], cv[x] + k[j - x]);
        }
      }
      cv = std::move(joined);
    }
    // Drive: never in series with the net driver.
    if (v != t.root() && kids.size() >= 2) {
      cv[0] = std::min(cv[0], qv + *std::min_element(cv.begin(), cv.end()));
    }
  }
  const std::vector<double>& root = c[static_cast<std::size_t>(t.root())];
  return *std::min_element(root.begin(), root.end());
}

/// With a unit library the frontier engine must be value-equivalent to
/// the dense array DP and to exhaustive enumeration: same feasibility,
/// bitwise-same optimum (all three minimize over the same exact sums),
/// and a legal placement of that cost with no type tags.
class UnitEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnitEquivalence, CandidateEngineMatchesDenseEngine) {
  const tile::TileGraph g = oracle_graph();
  util::Rng rng(0xdeca5 ^ GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const route::RouteTree t = random_tree(g, rng, 12);
    const std::vector<double> qv = exact_costs(g, rng);
    const TileCostFn q = [&](tile::TileId tl) {
      return qv[static_cast<std::size_t>(tl)];
    };
    const auto L = static_cast<std::int32_t>(rng.uniform_int(1, 6));
    const std::string where = "seed=" + std::to_string(GetParam()) +
                              " trial=" + std::to_string(trial) +
                              " L=" + std::to_string(L);
    const InsertionResult dp = insert_buffers(t, L, q);
    const double dense = dense_reference_cost(t, L, q);
    const InsertionResult bf = brute_force_insert(t, L, q);
    ASSERT_EQ(dp.feasible, std::isfinite(dense)) << where;
    ASSERT_EQ(dp.feasible, bf.feasible) << where;
    if (dp.feasible) {
      EXPECT_EQ(dp.cost, dense) << where;
      EXPECT_EQ(dp.cost, bf.cost) << where;
      EXPECT_TRUE(placement_is_legal(t, dp.buffers, L)) << where;
      EXPECT_EQ(placement_cost(t, dp.buffers, q), dp.cost) << where;
      EXPECT_TRUE(dp.types.empty()) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnitEquivalence,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{11}));

/// Deterministic sanity case: a chain of 6 tiles under L = 1 needs a
/// buffer every tile with the unit library, but a single 8x-reach type
/// covers the whole chain with one buffer — the DP must find the cheap
/// strong-buffer solution and tag it with the right type.
TEST(DpOracleFixed, StrongTypeCollapsesAChain) {
  const tile::TileGraph g = oracle_graph();
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 6; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  const TileCostFn q = [](tile::TileId) { return 1.0; };

  const BufferLibrary lib(
      {spec("ox1", 1.0, 1.0), spec("mega", 2.0, 8.0)});
  const InsertionResult dp = insert_buffers(t, 1, q, lib);
  ASSERT_TRUE(dp.feasible);
  // One mega buffer on the first tile after the driver: cost 2.  The
  // all-unit alternative needs a buffer on every tile: cost 6.
  EXPECT_EQ(dp.cost, 2.0);
  ASSERT_EQ(dp.buffers.size(), 1u);
  ASSERT_EQ(dp.types.size(), 1u);
  EXPECT_EQ(dp.types[0], lib.index_of("mega"));
  EXPECT_TRUE(placement_is_legal_lib(t, dp.buffers, dp.types, 1, lib));

  const InsertionResult bf = brute_force_insert_lib(t, 1, q, lib);
  EXPECT_EQ(dp.cost, bf.cost);
}

/// Blocked sites interact with type choice: when the only open site is
/// too far for the weak type, the DP must pay for the strong one.
TEST(DpOracleFixed, BlockedSitesForceTheStrongType) {
  const tile::TileGraph g = oracle_graph();
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 5; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  // Only tile (2,0) has a site.
  const TileCostFn q = [&](tile::TileId tl) {
    return g.coord_of(tl).x == 2 ? 1.0 : kInf;
  };
  const BufferLibrary lib(
      {spec("ox1", 1.0, 1.0), spec("ox2", 4.0, 2.0)});
  // L = 2: driver covers tiles 1..2; a buffer at (2,0) must then drive
  // tiles 3..5 (3 units) — over the unit reach, within ox2's 2L = 4.
  const InsertionResult dp = insert_buffers(t, 2, q, lib);
  ASSERT_TRUE(dp.feasible);
  EXPECT_EQ(dp.cost, 4.0);
  ASSERT_EQ(dp.types.size(), 1u);
  EXPECT_EQ(dp.types[0], lib.index_of("ox2"));
  const InsertionResult bf = brute_force_insert_lib(t, 2, q, lib);
  EXPECT_EQ(dp.cost, bf.cost);

  // Under the unit library the same instance is infeasible.
  EXPECT_FALSE(insert_buffers(t, 2, q, BufferLibrary::single_unit())
                   .feasible);
}

/// The relaxed variant under a multi-type library keeps the unit
/// library's contract: doubles L until feasible and reports the limit.
TEST(DpOracleFixed, RelaxedDoublesTheLimitUntilFeasible) {
  const tile::TileGraph g = oracle_graph();
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 6; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  const TileCostFn q = [](tile::TileId) { return kInf; };  // no sites at all
  const InsertionResult dp = insert_buffers_relaxed(t, 1, q, exact2());
  ASSERT_TRUE(dp.feasible);
  EXPECT_EQ(dp.cost, 0.0);  // no buffers once L covers the wirelength
  EXPECT_TRUE(dp.buffers.empty());
  EXPECT_EQ(dp.effective_limit, 8);  // 1 -> 2 -> 4 -> 8 >= 6 tiles
}

}  // namespace
}  // namespace rabid::buffer
