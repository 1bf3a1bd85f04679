#include "buffer/insertion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <vector>

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
  const InsertionResult r = insert_buffers_relaxed(
      t, 3, [](tile::TileId) { return kInf; }, BufferLibrary{});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.effective_limit, 6);  // 3 -> 6 suffices (driver drives 6)
  EXPECT_TRUE(r.buffers.empty());
}

TEST(Insertion, RelaxedKeepsOriginalLimitWhenFeasible) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 6);
  const InsertionResult r = insert_buffers_relaxed(
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

TEST(Insertion, RootFrontierOfALeafIsZero) {
  // Fig. 6 Step 1: a sink leaves zero wire at zero cost.
  const tile::TileGraph g = make_graph();
  route::RouteTree t(g.id_of({5, 5}));
  t.add_sink(t.root());
  const std::vector<Cand> f =
      dp_root_frontier(t, 4, [](tile::TileId) { return 1.0; });
  ASSERT_EQ(f.size(), 1U);
  EXPECT_EQ(f[0].load, 0);
  EXPECT_DOUBLE_EQ(f[0].cost, 0.0);
}

TEST(Insertion, RootFrontierAdvanceAndDecouple) {
  // One child per node: source (0,0) -> a (1,0) -> b (2,0) -> sink
  // (3,0), L = 2.  Below the root, C_a = {(0, 5), (1, 1), (2, 0)}:
  // decouple at a, decouple at b, or no buffer.
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 3);
  const TileCostFn q =
      q_map(g, {{{0, 0}, 0.3}, {{1, 0}, 5.0}, {{2, 0}, 1.0}});
  const std::vector<Cand> f = dp_root_frontier(t, 2, q);
  ASSERT_EQ(f.size(), 2U);
  // Decouple at the root: q + the cheapest child state of load <= L-1.
  EXPECT_EQ(f[0].load, 0);
  EXPECT_DOUBLE_EQ(f[0].cost, 0.3 + 1.0);
  // Advance shifts loads by one: (1, 5) is dominated by the decouple
  // state and (3, 0) runs past L, so only (2, 1) survives.
  EXPECT_EQ(f[1].load, 2);
  EXPECT_DOUBLE_EQ(f[1].cost, 1.0);
}

TEST(Insertion, RootFrontierJoinAndDrive) {
  // source (0,0) -> v (1,0), which branches into v -> (2,0) -> sink
  // (3,0) and v -> (1,1) -> sink (1,2).  Each branch reaches v with
  // load 2; only v has a site, and the siteless source just advances
  // C_v by one tile.
  const tile::TileGraph g = make_graph();
  route::RouteTree t(g.id_of({0, 0}));
  const route::NodeId v = t.add_child(t.root(), g.id_of({1, 0}));
  t.add_sink(t.add_child(t.add_child(v, g.id_of({2, 0})), g.id_of({3, 0})));
  t.add_sink(t.add_child(t.add_child(v, g.id_of({1, 1})), g.id_of({1, 2})));

  // Join adds the branch loads: 2 + 2 > L = 3 with no site at v.
  EXPECT_TRUE(dp_root_frontier(t, 3, q_map(g, {})).empty());

  // q(v) = 2, L = 3: decouple one branch and advance the other (2, 2),
  // or decouple both (0, 4); a driving buffer would cost the same 4.
  const TileCostFn q = q_map(g, {{{1, 0}, 2.0}});
  const std::vector<Cand> f = dp_root_frontier(t, 3, q);
  ASSERT_EQ(f.size(), 2U);
  EXPECT_EQ(f[0].load, 1);
  EXPECT_DOUBLE_EQ(f[0].cost, 4.0);
  EXPECT_EQ(f[1].load, 3);
  EXPECT_DOUBLE_EQ(f[1].cost, 2.0);

  // L = 4: the unbuffered join (4, 0) lets one driving buffer (cost 2)
  // replace decouple-both, and dominates (2, 2); (4, 0) itself advances
  // past L at the source.
  const std::vector<Cand> f4 = dp_root_frontier(t, 4, q);
  ASSERT_EQ(f4.size(), 1U);
  EXPECT_EQ(f4[0].load, 1);
  EXPECT_DOUBLE_EQ(f4[0].cost, 2.0);
  const InsertionResult r = insert_buffers(t, 4, q);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.buffers.size(), 1U);
  EXPECT_EQ(r.buffers[0].node, v);
  EXPECT_EQ(r.buffers[0].child, route::kNoNode);
  EXPECT_TRUE(placement_is_legal(t, r.buffers, 4));
}

}  // namespace
}  // namespace rabid::buffer
