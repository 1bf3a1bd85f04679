#include "buffer/insertion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "buffer/brute_force.hpp"
#include "buffer/single_sink.hpp"

namespace rabid::buffer {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

tile::TileGraph make_graph(std::int32_t nx = 12, std::int32_t ny = 12) {
  return tile::TileGraph(
      geom::Rect{{0, 0}, {nx * 100.0, ny * 100.0}}, nx, ny);
}

/// Chain tree along row 0 from (0,0) through (len,0); sink at the end.
route::RouteTree chain(const tile::TileGraph& g, std::int32_t len) {
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= len; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  return t;
}

/// q keyed by tile coordinate; everything else infinite.
TileCostFn q_map(const tile::TileGraph& g,
                 std::map<std::pair<std::int32_t, std::int32_t>, double> m) {
  return [&g, m = std::move(m)](tile::TileId t) {
    const geom::TileCoord c = g.coord_of(t);
    const auto it = m.find({c.x, c.y});
    return it == m.end() ? kInf : it->second;
  };
}

TEST(Insertion, MatchesSingleSinkTranscriptionOnPaperExample) {
  const tile::TileGraph g = make_graph();
  // Tiles 1..6 carry the Fig. 5 costs; source (0,0), sink at (7,0).
  const route::RouteTree t = chain(g, 7);
  const TileCostFn q = q_map(
      g, {{{1, 0}, 1.3}, {{2, 0}, 8.6}, {{3, 0}, 0.5}, {{5, 0}, 1.0}});
  const InsertionResult r = insert_buffers(t, 3, q);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.cost, 1.5, 1e-12);
  // Buffers on the third and fifth tiles (x = 3 and x = 5).
  ASSERT_EQ(r.buffers.size(), 2U);
  std::vector<std::int32_t> xs;
  for (const route::BufferPlacement& b : r.buffers) {
    xs.push_back(g.coord_of(t.node(b.node).tile).x);
  }
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(xs, (std::vector<std::int32_t>{3, 5}));

  // Cross-check against the literal Fig. 6 transcription.
  const std::vector<double> fig5{1.3, 8.6, 0.5, kInf, 1.0, kInf};
  const SingleSinkTable table = single_sink_insertion(fig5, 3);
  EXPECT_NEAR(r.cost, table.optimal, 1e-12);
}

TEST(Insertion, NoBuffersWhenWithinLimit) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 4);
  const InsertionResult r =
      insert_buffers(t, 5, [](tile::TileId) { return 1.0; });
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_TRUE(r.buffers.empty());
}

TEST(Insertion, SingleTileTreeTriviallyFeasible) {
  const tile::TileGraph g = make_graph();
  route::RouteTree t(g.id_of({5, 5}));
  t.add_sink(t.root());
  const InsertionResult r =
      insert_buffers(t, 1, [](tile::TileId) { return kInf; });
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(Insertion, InfeasibleChainReportsNoSolution) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 6);
  const InsertionResult r =
      insert_buffers(t, 3, [](tile::TileId) { return kInf; });
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(std::isinf(r.cost));
  EXPECT_TRUE(r.buffers.empty());
}

TEST(Insertion, RelaxedDoublesUntilFeasible) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 6);  // span 6
  const InsertionResult r = insert_buffers_planned_relaxed(
      t, 3, [](tile::TileId) { return kInf; }, BufferLibrary{});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.effective_limit, 6);  // 3 -> 6 suffices (driver drives 6)
  EXPECT_TRUE(r.buffers.empty());
}

TEST(Insertion, RelaxedKeepsOriginalLimitWhenFeasible) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 6);
  const InsertionResult r = insert_buffers_planned_relaxed(
      t, 3, [](tile::TileId) { return 1.0; }, BufferLibrary{});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.effective_limit, 3);
  EXPECT_FALSE(r.buffers.empty());
}

// A symmetric Y: source at (0,0), branch at (3,0), sinks at (3,3) and
// (6,0) -- each branch is 3 arcs beyond the branch point.
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

TEST(Insertion, YTreeNeedsDecouplingOrDrivingBuffer) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  // Total wire = 9; with L = 9 the driver can drive everything.
  EXPECT_DOUBLE_EQ(
      insert_buffers(t, 9, [](tile::TileId) { return 1.0; }).cost, 0.0);
  // With L = 6 (total 9 > 6) at least one buffer is required; a single
  // decoupling buffer at the branch point suffices (branch 3+1=4 <= 6,
  // remaining 3+3 = 6 <= 6... the decoupled arc leaves 5 on the trunk).
  const InsertionResult r =
      insert_buffers(t, 6, [](tile::TileId) { return 1.0; });
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
  ASSERT_EQ(r.buffers.size(), 1U);
  EXPECT_TRUE(placement_is_legal(t, r.buffers, 6));
}

TEST(Insertion, LegalityOfOutputsAcrossLimits) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = y_tree(g);
  for (std::int32_t L = 2; L <= 10; ++L) {
    const InsertionResult r =
        insert_buffers(t, L, [](tile::TileId) { return 1.0; });
    ASSERT_TRUE(r.feasible) << "L=" << L;
    EXPECT_TRUE(placement_is_legal(t, r.buffers, L)) << "L=" << L;
    EXPECT_NEAR(r.cost,
                placement_cost(t, r.buffers, [](tile::TileId) { return 1.0; }),
                1e-9);
  }
}

TEST(Insertion, PrefersCheapTiles) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 8);
  // L = 5, span 8: one buffer, legal positions x in {3,4,5}; make x=4
  // cheap.
  const TileCostFn q = [&g](tile::TileId tl) {
    return g.coord_of(tl).x == 4 ? 0.25 : 10.0;
  };
  const InsertionResult r = insert_buffers(t, 5, q);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 0.25);
  ASSERT_EQ(r.buffers.size(), 1U);
  EXPECT_EQ(g.coord_of(t.node(r.buffers[0].node).tile).x, 4);
}

TEST(Insertion, DpNodeArrayLeafIsAllZero) {
  const std::vector<double> leaf = dp_node_array({}, 1.0, 4);
  ASSERT_EQ(leaf.size(), 5U);
  for (const double v : leaf) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Insertion, DpNodeArrayAdvanceAndDecouple) {
  // One child with a concrete array; verify shift + decouple.
  std::vector<std::vector<double>> child{{2.0, 5.0, 1.0, kInf, 0.5}};
  const std::vector<double> c = dp_node_array(child, 0.3, 4);
  ASSERT_EQ(c.size(), 5U);
  // Decouple: q + min over j<=3 of child = 0.3 + 1.0.
  EXPECT_DOUBLE_EQ(c[0], 1.3);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_DOUBLE_EQ(c[2], 5.0);
  EXPECT_DOUBLE_EQ(c[3], 1.0);
  EXPECT_TRUE(std::isinf(c[4]));
}

TEST(Insertion, DpNodeArrayJoinAddsLengths) {
  // Two children, both needing 1 tile: joined index 2 is their sum.
  std::vector<std::vector<double>> kids{{kInf, 0.0, kInf, kInf},
                                        {kInf, 0.0, kInf, kInf}};
  const std::vector<double> c = dp_node_array(kids, kInf, 3);
  // Advance each to index 2, join at 4 > L... the only finite joined
  // index is 2+2 = 4 which exceeds L=3, so everything is inf except the
  // (blocked) buffer options.
  for (const double v : c) EXPECT_TRUE(std::isinf(v));
  // With a finite q, decoupling rescues it.
  const std::vector<double> c2 = dp_node_array(kids, 2.0, 3);
  EXPECT_DOUBLE_EQ(c2[2], 2.0 + 0.0);  // decouple one branch, advance other
  EXPECT_DOUBLE_EQ(c2[0], 2.0 + 2.0 + 0.0);  // drive-or-decouple both
}

}  // namespace
}  // namespace rabid::buffer
