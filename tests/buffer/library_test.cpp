#include "buffer/library.hpp"

#include <gtest/gtest.h>

#include "timing/delay.hpp"

namespace rabid::buffer {
namespace {

using timing::DelayResult;
using timing::evaluate_delay;
using timing::kTech180nm;

TEST(BufferLibrary, Standard180nmContents) {
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  EXPECT_EQ(lib.size(), 8U);
  // 5 buffers, then 3 inverters; planning scales are all 1.
  for (std::size_t i = 0; i < lib.size(); ++i) {
    EXPECT_EQ(lib.type(i).inverting, i >= 5) << i;
    EXPECT_EQ(lib.type(i).cost_scale, 1.0) << i;
    EXPECT_EQ(lib.type(i).drive_scale, 1.0) << i;
  }
  EXPECT_FALSE(lib.is_unit());
}

TEST(BufferLibrary, UnitMatchesTechnology) {
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const BufferType& unit = lib.type(1);
  EXPECT_EQ(unit.name, "BUF_X1");
  EXPECT_DOUBLE_EQ(unit.input_cap, kTech180nm.buffer_cap);
  EXPECT_DOUBLE_EQ(unit.output_res, kTech180nm.buffer_res);
  EXPECT_DOUBLE_EQ(unit.intrinsic_ps, kTech180nm.buffer_intrinsic_ps);
}

TEST(BufferLibrary, ScalingMonotone) {
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const auto bufs = lib.types().first(5);
  for (std::size_t i = 1; i < bufs.size(); ++i) {
    EXPECT_GT(bufs[i].size, bufs[i - 1].size);
    EXPECT_GT(bufs[i].input_cap, bufs[i - 1].input_cap);
    EXPECT_LT(bufs[i].output_res, bufs[i - 1].output_res);
  }
}

TEST(BufferLibrary, UnitOnly) {
  // The default library: one unit cell with the Technology's numbers.
  const BufferLibrary lib;
  EXPECT_EQ(lib.size(), 1U);
  EXPECT_TRUE(lib.is_unit());
  const BufferType& unit = lib.type(0);
  EXPECT_EQ(unit.name, "dpbuf_x1");
  EXPECT_FALSE(unit.inverting);
  EXPECT_EQ(unit.size, 1.0);
  EXPECT_EQ(unit.input_cap, kTech180nm.buffer_cap);
  EXPECT_EQ(unit.output_res, kTech180nm.buffer_res);
  EXPECT_EQ(unit.intrinsic_ps, kTech180nm.buffer_intrinsic_ps);
}

TEST(SizedDelay, UnitTypesMatchPlainEvaluation) {
  const tile::TileGraph g(geom::Rect{{0, 0}, {8000, 1000}}, 8, 1);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 7; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  const route::BufferList buffers{{t.node_at(g.id_of({3, 0})),
                                   route::kNoNode}};
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const std::vector<BufferType> unit(1, lib.type(1));
  const DelayResult plain = evaluate_delay(t, buffers, {}, g);
  const DelayResult sized = evaluate_delay(t, buffers, unit, g);
  ASSERT_EQ(plain.sink_delays_ps.size(), sized.sink_delays_ps.size());
  EXPECT_DOUBLE_EQ(plain.max_ps, sized.max_ps);
}

TEST(SizedDelay, BiggerBufferDrivesHeavyLoadFaster) {
  // A long downstream run: the 4x buffer's lower output resistance wins
  // despite its larger input capacitance.
  const tile::TileGraph g(geom::Rect{{0, 0}, {16000, 1000}}, 16, 1);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 15; ++x)
    cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  const route::BufferList buffers{{t.node_at(g.id_of({2, 0})),
                                   route::kNoNode}};
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const std::vector<BufferType> x1(1, lib.type(1));
  const std::vector<BufferType> x4(1, lib.type(3));
  EXPECT_LT(evaluate_delay(t, buffers, x4, g).max_ps,
            evaluate_delay(t, buffers, x1, g).max_ps);
}

TEST(SizedDelay, HalfSizeBufferIsLighterLoadUpstream) {
  // Short branch decoupling: what matters upstream is the input cap.
  const tile::TileGraph g(geom::Rect{{0, 0}, {8000, 8000}}, 8, 8);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 5; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  route::NodeId mid = t.node_at(g.id_of({2, 0}));
  route::NodeId branch = t.add_child(mid, g.id_of({2, 1}));
  t.add_sink(branch);
  const route::BufferList buffers{{mid, branch}};
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const std::vector<BufferType> x05(1, lib.type(0));
  const std::vector<BufferType> x8(1, lib.type(4));
  // Sink on the main path (index 0) sees less load with the small cell.
  const DelayResult small = evaluate_delay(t, buffers, x05, g);
  const DelayResult big = evaluate_delay(t, buffers, x8, g);
  EXPECT_LT(small.sink_delays_ps[0], big.sink_delays_ps[0]);
}

}  // namespace
}  // namespace rabid::buffer
