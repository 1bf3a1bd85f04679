#include <gtest/gtest.h>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "obs/counters.hpp"
#include "obs/memory.hpp"

namespace rabid {
namespace {

/// The memory-wall gate (ROADMAP item 5): a 100k-net generated circuit
/// on a 256x256 grid must run stages 1-3 sharded, reach wire
/// feasibility, survive the independent auditor, and leave the memory
/// gauges populated — all inside the regular test suite, so a scaling
/// regression (time or RSS) fails loudly long before the 1M nightly.
/// Stage 4 is excluded: its (tile x L) search dominates wall time at
/// this size and has its own coverage on the Table-I circuits.
TEST(ScaleFlow, Scale100kStages1To3AuditClean) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("scale100k");
  const netlist::Design design = circuits::generate_design(spec);
  ASSERT_EQ(static_cast<std::int32_t>(design.nets().size()), spec.nets);

  obs::Registry::instance().set_level(obs::Level::kCounters);
  obs::Registry::instance().reset();

  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::RabidOptions options;
  options.stage2_shards = 8;
  options.obs_level = obs::Level::kCounters;
  core::Rabid rabid(design, graph, options);

  rabid.run_stage1();
  const core::StageStats s2 = rabid.run_stage2();
  EXPECT_EQ(s2.overflow, 0) << "stage 2 must reach w(e) <= W(e)";
  const core::StageStats s3 = rabid.run_stage3();
  EXPECT_GT(s3.buffers, 0);

  const core::AuditReport audit = rabid.audit();
  EXPECT_TRUE(audit.clean()) << audit.summary();
  EXPECT_EQ(audit.nets_audited, design.nets().size());
  EXPECT_TRUE(rabid::test::books_balance(rabid));

  // The memory observability that makes a 1M-net run diagnosable: the
  // OS peak and every per-structure gauge must be populated.
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  EXPECT_GT(snap[obs::GaugeId::kPeakRssBytes], 0u);
  EXPECT_GT(snap[obs::GaugeId::kTileGraphBytes], 0u);
  EXPECT_GT(snap[obs::GaugeId::kRouteTreeBytes], 0u);
  EXPECT_GT(snap[obs::GaugeId::kEdgeCostCacheBytes], 0u);
  EXPECT_GT(snap[obs::GaugeId::kMazeScratchBytes], 0u);
  EXPECT_GT(snap[obs::GaugeId::kDpArenaBytes], 0u);
  // The hot-path reserves hold at this scale: heaps pre-sized from the
  // tile graph never regrow mid-search.
  EXPECT_EQ(snap[obs::Counter::kHeapRegrows], 0u);
  // The sharded classification actually engaged.
  EXPECT_GT(snap[obs::Counter::kStage2LocalNets] +
                snap[obs::Counter::kStage2BoundaryNets],
            0u);

  obs::Registry::instance().set_level(obs::Level::kOff);
}

}  // namespace
}  // namespace rabid
