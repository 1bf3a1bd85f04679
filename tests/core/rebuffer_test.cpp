#include <gtest/gtest.h>

#include "books.hpp"
#include "core/rabid.hpp"
#include "util/rng.hpp"

namespace rabid::core {
namespace {

/// Same toy fixture family as rabid_test.cpp, rebuilt here to keep the
/// test binaries self-contained.
struct Fixture {
  netlist::Design design;
  tile::TileGraph graph;

  Fixture()
      : design("toy-vg", geom::Rect{{0, 0}, {12000, 12000}}),
        graph(design.outline(), 12, 12) {
    design.set_default_length_limit(4);
    util::Rng rng(808);
    for (int i = 0; i < 25; ++i) {
      netlist::Net n;
      n.name = "n" + std::to_string(i);
      n.source = {{rng.uniform(0, 12000), rng.uniform(0, 12000)},
                  netlist::PinKind::kFree,
                  netlist::kNoBlock};
      const int sinks = static_cast<int>(rng.uniform_int(1, 3));
      for (int s = 0; s < sinks; ++s) {
        n.sinks.push_back({{rng.uniform(0, 12000), rng.uniform(0, 12000)},
                           netlist::PinKind::kFree,
                           netlist::kNoBlock});
      }
      design.add_net(std::move(n));
    }
    graph.set_uniform_wire_capacity(8);
    for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
      graph.set_site_supply(t, 4);
    }
  }
};

TEST(RebufferTimingDriven, ImprovesWorstNets) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_all();
  const StageStats before = rabid.snapshot("before", 0.0);
  const StageStats after = rabid.rebuffer_timing_driven(10);
  // Timing-driven rebuffering with the old placements still reachable
  // can only lower the worst delay (up to site contention).
  EXPECT_LE(after.max_delay_ps, before.max_delay_ps + 1e-6);
  EXPECT_LE(after.avg_delay_ps, before.avg_delay_ps * 1.05);
  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

TEST(RebufferTimingDriven, KeepsRoutesAndWireBooks) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_all();
  const StageStats before = rabid.snapshot("before", 0.0);
  const StageStats after = rabid.rebuffer_timing_driven(5);
  EXPECT_DOUBLE_EQ(after.wirelength_mm, before.wirelength_mm);
  EXPECT_EQ(after.overflow, before.overflow);
  for (tile::TileId t = 0; t < f.graph.tile_count(); ++t) {
    EXPECT_LE(f.graph.site_usage(t), f.graph.site_supply(t));
  }
}

TEST(RebufferTimingDriven, SizedCellsRecorded) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_all();
  rabid.rebuffer_timing_driven(8);
  int rebuffered = 0;
  for (const NetState& n : rabid.nets()) {
    if (n.buffer_types.empty()) continue;
    ++rebuffered;
    EXPECT_EQ(n.buffer_types.size(), n.buffers.size());
  }
  EXPECT_GT(rebuffered, 0);
  EXPECT_LE(rebuffered, 8);
}

TEST(RebufferTimingDriven, ZeroCountIsNoop) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_all();
  const StageStats before = rabid.snapshot("before", 0.0);
  const StageStats after = rabid.rebuffer_timing_driven(0);
  EXPECT_DOUBLE_EQ(after.max_delay_ps, before.max_delay_ps);
  EXPECT_EQ(after.buffers, before.buffers);
}

}  // namespace
}  // namespace rabid::core
