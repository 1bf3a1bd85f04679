#include "timing/delay.hpp"

#include <gtest/gtest.h>

namespace rabid::timing {
namespace {

tile::TileGraph make_graph() {
  // 10 x 1 chain of 1000um tiles: a 1cm corridor.
  return tile::TileGraph(geom::Rect{{0, 0}, {10000, 1000}}, 10, 1);
}

route::RouteTree chain(const tile::TileGraph& g, std::int32_t len) {
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= len; ++x) {
    cur = t.add_child(cur, g.id_of({x, 0}));
  }
  t.add_sink(cur);
  return t;
}

TEST(Delay, HandAnalyzedTwoTileChain) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 2);
  const Technology& k = kTech180nm;
  const DelayResult r = evaluate_delay(t, g);
  // Two 1000um pi-segments: per segment R=75 ohm, C=0.118 pF.
  // Elmore: Rd*(2C+Cs) + R*(1.5C+Cs) + R*(0.5C+Cs).
  const double wr = k.wire_res(1000.0);
  const double wc = k.wire_cap(1000.0);
  const double expect = k.driver_res * (2.0 * wc + k.sink_cap) +
                        wr * (1.5 * wc + k.sink_cap) +
                        wr * (0.5 * wc + k.sink_cap);
  ASSERT_EQ(r.sink_delays_ps.size(), 1U);
  EXPECT_NEAR(r.sink_delays_ps[0], expect, 1e-9);
  EXPECT_DOUBLE_EQ(r.max_ps, r.sink_delays_ps[0]);
}

TEST(Delay, GrowsSuperlinearlyWithLength) {
  const tile::TileGraph g = make_graph();
  const double d3 = evaluate_delay(chain(g, 3), g).max_ps;
  const double d6 = evaluate_delay(chain(g, 6), g).max_ps;
  const double d9 = evaluate_delay(chain(g, 9), g).max_ps;
  // Unbuffered wire delay is quadratic-ish: increments grow.
  EXPECT_GT(d6 - d3, d3);
  EXPECT_GT(d9 - d6, d6 - d3);
}

TEST(Delay, MidpointBufferBeatsUnbuffered) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 9);
  const double plain = evaluate_delay(t, g).max_ps;
  const route::NodeId mid = t.node_at(g.id_of({5, 0}));
  const double buffered =
      evaluate_delay(t, {{mid, route::kNoNode}}, {}, g).max_ps;
  EXPECT_LT(buffered, plain);
}

TEST(Delay, DecouplingIsolatesSideBranchLoad) {
  // Source -> long chain to sink A, with a heavy side branch at tile 2.
  const tile::TileGraph g2(geom::Rect{{0, 0}, {8000, 8000}}, 8, 8);
  route::RouteTree t(g2.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 6; ++x) cur = t.add_child(cur, g2.id_of({x, 0}));
  t.add_sink(cur);  // sink A at (6,0)
  route::NodeId branch = t.node_at(g2.id_of({2, 0}));
  route::NodeId b = branch;
  for (std::int32_t y = 1; y <= 6; ++y) b = t.add_child(b, g2.id_of({2, y}));
  t.add_sink(b);  // heavy sink B at (2,6)

  const route::NodeId first_branch_node = t.node_at(g2.id_of({2, 1}));
  const DelayResult plain = evaluate_delay(t, g2);
  const DelayResult dec =
      evaluate_delay(t, {{branch, first_branch_node}}, {}, g2);
  // Decoupling the branch removes its capacitance from A's path.
  ASSERT_EQ(plain.sink_delays_ps.size(), 2U);
  EXPECT_LT(dec.sink_delays_ps[0], plain.sink_delays_ps[0]);  // sink A
}

TEST(Delay, MultiSinkCountsEverySink) {
  const tile::TileGraph g = make_graph();
  route::RouteTree t = chain(g, 4);
  t.add_sink(t.node_at(g.id_of({2, 0})));  // extra sink mid-chain
  const DelayResult r = evaluate_delay(t, g);
  ASSERT_EQ(r.sink_delays_ps.size(), 2U);
  EXPECT_GT(r.max_ps, 0.0);
  EXPECT_LE(r.sink_delays_ps[1], r.max_ps);
  EXPECT_NEAR(r.avg_ps(), (r.sink_delays_ps[0] + r.sink_delays_ps[1]) / 2.0,
              1e-12);
}

TEST(Delay, SingleTileNetHasDriverOnlyDelay) {
  const tile::TileGraph g = make_graph();
  route::RouteTree t(g.id_of({3, 0}));
  t.add_sink(t.root());
  const DelayResult r = evaluate_delay(t, g);
  EXPECT_DOUBLE_EQ(r.max_ps, kTech180nm.driver_res * kTech180nm.sink_cap);
}

TEST(Delay, BufferAtSourceAddsStage) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 2);
  // A driving buffer on the first route node (not the root).
  const route::NodeId n1 = t.node_at(g.id_of({1, 0}));
  const DelayResult r = evaluate_delay(t, {{n1, route::kNoNode}}, {}, g);
  EXPECT_GT(r.max_ps, 0.0);
  // Short net: the extra buffer hurts (intrinsic + extra stage).
  EXPECT_GT(r.max_ps, evaluate_delay(t, g).max_ps);
}

}  // namespace
}  // namespace rabid::timing
