#include "core/rabid.hpp"

#include <gtest/gtest.h>

#include "books.hpp"
#include "util/rng.hpp"

namespace rabid::core {
namespace {

/// A small but non-trivial synthetic design: 16x16 tiles, a handful of
/// cross-chip nets, moderate wire capacity, sites everywhere except a
/// blocked band.
struct Fixture {
  netlist::Design design;
  tile::TileGraph graph;

  Fixture()
      : design("toy", geom::Rect{{0, 0}, {8000, 8000}}),
        graph(design.outline(), 16, 16) {
    design.set_default_length_limit(4);
    util::Rng rng(2024);
    for (int i = 0; i < 40; ++i) {
      netlist::Net n;
      n.name = "n" + std::to_string(i);
      n.source = {{rng.uniform(0, 8000), rng.uniform(0, 8000)},
                  netlist::PinKind::kFree,
                  netlist::kNoBlock};
      const int sinks = static_cast<int>(rng.uniform_int(1, 4));
      for (int s = 0; s < sinks; ++s) {
        n.sinks.push_back({{rng.uniform(0, 8000), rng.uniform(0, 8000)},
                           netlist::PinKind::kFree,
                           netlist::kNoBlock});
      }
      design.add_net(std::move(n));
    }
    graph.set_uniform_wire_capacity(6);
    // Sites: 4 per tile, except a blocked 4x4 square.
    for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
      const geom::TileCoord c = graph.coord_of(t);
      const bool blocked = c.x >= 6 && c.x <= 9 && c.y >= 6 && c.y <= 9;
      graph.set_site_supply(t, blocked ? 0 : 4);
    }
  }
};

TEST(Rabid, Stage1RoutesEveryNet) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  const StageStats s1 = rabid.run_stage1();
  EXPECT_EQ(rabid.nets().size(), 40U);
  for (const NetState& n : rabid.nets()) {
    EXPECT_FALSE(n.tree.empty());
    EXPECT_GT(n.delay.sink_delays_ps.size(), 0U);
  }
  EXPECT_GT(s1.wirelength_mm, 0.0);
  EXPECT_GT(s1.max_delay_ps, 0.0);
  EXPECT_EQ(s1.buffers, 0);
  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

TEST(Rabid, Stage2NeverWorsensOverflowAndKeepsBooks) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  const StageStats s1 = rabid.run_stage1();
  const StageStats s2 = rabid.run_stage2();
  EXPECT_LE(s2.overflow, s1.overflow);
  EXPECT_TRUE(rabid::test::books_balance(rabid));
  // Wire feasibility is expected at this capacity.
  EXPECT_EQ(s2.overflow, 0);
  EXPECT_LE(s2.max_wire_congestion, 1.0);
}

TEST(Rabid, Stage3InsertsBuffersWithinSiteSupply) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_stage1();
  rabid.run_stage2();
  const StageStats s3 = rabid.run_stage3();
  EXPECT_GT(s3.buffers, 0);
  EXPECT_LE(s3.max_buffer_density, 1.0);
  for (tile::TileId t = 0; t < f.graph.tile_count(); ++t) {
    EXPECT_LE(f.graph.site_usage(t), f.graph.site_supply(t));
  }
  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

TEST(Rabid, Stage3ReducesDelay) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_stage1();
  const StageStats s2 = rabid.run_stage2();
  const StageStats s3 = rabid.run_stage3();
  // The headline effect: buffering slashes the long-net delays even
  // though the algorithm is "delay ignorant" (Section IV-A).
  EXPECT_LT(s3.max_delay_ps, s2.max_delay_ps);
  EXPECT_LT(s3.avg_delay_ps, s2.avg_delay_ps);
  // Routing untouched in stage 3.
  EXPECT_DOUBLE_EQ(s3.wirelength_mm, s2.wirelength_mm);
  EXPECT_EQ(s3.overflow, s2.overflow);
}

TEST(Rabid, Stage4KeepsInvariantsAndConstraints) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_stage1();
  rabid.run_stage2();
  const StageStats s3 = rabid.run_stage3();
  const StageStats s4 = rabid.run_stage4();
  EXPECT_TRUE(rabid::test::books_balance(rabid));
  EXPECT_EQ(s4.overflow, 0);
  EXPECT_LE(s4.max_buffer_density, 1.0);
  // Post-processing should not increase the failure count.
  EXPECT_LE(s4.failed_nets, s3.failed_nets);
  for (tile::TileId t = 0; t < f.graph.tile_count(); ++t) {
    EXPECT_LE(f.graph.site_usage(t), f.graph.site_supply(t));
  }
}

TEST(Rabid, RunAllReturnsFourStages) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  const std::vector<StageStats> all = rabid.run_all();
  ASSERT_EQ(all.size(), 4U);
  EXPECT_EQ(all[0].stage, "1");
  EXPECT_EQ(all[3].stage, "4");
  // Buffers only appear from stage 3 on.
  EXPECT_EQ(all[0].buffers, 0);
  EXPECT_EQ(all[1].buffers, 0);
  EXPECT_GT(all[2].buffers, 0);
  EXPECT_GT(all[3].buffers, 0);
}

TEST(Rabid, DeterministicAcrossRuns) {
  Fixture f1, f2;
  Rabid r1(f1.design, f1.graph), r2(f2.design, f2.graph);
  const auto a = r1.run_all();
  const auto b = r2.run_all();
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(a[s].wirelength_mm, b[s].wirelength_mm);
    EXPECT_EQ(a[s].buffers, b[s].buffers);
    EXPECT_EQ(a[s].overflow, b[s].overflow);
    EXPECT_DOUBLE_EQ(a[s].max_delay_ps, b[s].max_delay_ps);
    EXPECT_EQ(a[s].failed_nets, b[s].failed_nets);
  }
}

TEST(Rabid, LengthRuleHonoredByBufferedNets) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_all();
  int failures = 0;
  for (std::size_t i = 0; i < rabid.nets().size(); ++i) {
    const NetState& n = rabid.nets()[i];
    if (!n.meets_length_rule) {
      ++failures;
      continue;
    }
    // Verify the flag against an independent check: walk gate loads.
    std::vector<bool> driving(n.tree.node_count(), false);
    std::vector<bool> decoupled(n.tree.node_count(), false);
    for (const route::BufferPlacement& b : n.buffers) {
      if (b.child == route::kNoNode) {
        driving[static_cast<std::size_t>(b.node)] = true;
      } else {
        decoupled[static_cast<std::size_t>(b.child)] = true;
      }
    }
    const std::int32_t L = f.design.length_limit(static_cast<std::int32_t>(i));
    std::vector<std::int32_t> load(n.tree.node_count(), 0);
    for (const route::NodeId v : n.tree.postorder()) {
      std::int32_t total = 0;
      for (const route::NodeId w : n.tree.node(v).children()) {
        const std::int32_t arc = 1 + load[static_cast<std::size_t>(w)];
        if (decoupled[static_cast<std::size_t>(w)]) {
          EXPECT_LE(arc, L);
        } else {
          total += arc;
        }
      }
      if (driving[static_cast<std::size_t>(v)]) {
        EXPECT_LE(total, L);
        total = 0;
      }
      load[static_cast<std::size_t>(v)] = total;
    }
    EXPECT_LE(load[0], L);
  }
  // The blocked 4x4 region may strand a few nets, but most must pass.
  EXPECT_LT(failures, 10);
}

TEST(Rabid, SnapshotCountsSinksOnce) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_stage1();
  const StageStats s = rabid.snapshot("x", 0.0);
  std::size_t sinks = 0;
  for (const NetState& n : rabid.nets()) {
    sinks += n.delay.sink_delays_ps.size();
  }
  EXPECT_EQ(sinks, f.design.total_sinks());
  EXPECT_GT(s.avg_delay_ps, 0.0);
  EXPECT_GE(s.max_delay_ps, s.avg_delay_ps);
}

}  // namespace
}  // namespace rabid::core
