#include <gtest/gtest.h>

#include "bbp/bbp.hpp"
#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"

namespace rabid {
namespace {

/// End-to-end runs on the two smallest Table I circuits: the full
/// generator -> tile graph -> RABID pipeline, checked against the
/// paper's qualitative stage-by-stage behaviour (Section IV-A).
class FullFlow : public ::testing::TestWithParam<std::string_view> {};

TEST_P(FullFlow, StageByStageShapeMatchesPaper) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(GetParam());
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  const auto stats = rabid.run_all();
  ASSERT_EQ(stats.size(), 4U);
  const auto& s1 = stats[0];
  const auto& s2 = stats[1];
  const auto& s3 = stats[2];
  const auto& s4 = stats[3];

  // Stage 1 ignores congestion: overflows expected on these workloads.
  EXPECT_GT(s1.overflow, 0);
  EXPECT_GT(s1.max_wire_congestion, 1.0);
  EXPECT_EQ(s1.buffers, 0);
  // "The wire congestion constraint is always satisfied" after stage 2.
  EXPECT_EQ(s2.overflow, 0);
  EXPECT_LE(s2.max_wire_congestion, 1.0);
  // Rerouting around congestion costs wirelength and delay.
  EXPECT_GE(s2.wirelength_mm, s1.wirelength_mm);
  EXPECT_GE(s2.max_delay_ps, s1.max_delay_ps);
  // Stage 3: buffers appear, delay collapses, routing unchanged.
  EXPECT_GT(s3.buffers, 0);
  EXPECT_LT(s3.avg_delay_ps, s2.avg_delay_ps);
  EXPECT_DOUBLE_EQ(s3.wirelength_mm, s2.wirelength_mm);
  // "The algorithm never violates the buffer site constraint."
  EXPECT_LE(s3.max_buffer_density, 1.0);
  EXPECT_LE(s4.max_buffer_density, 1.0);
  EXPECT_EQ(s4.overflow, 0);
  // Stage 4 cleans up: fewer failures, average delay below stage 1.
  EXPECT_LE(s4.failed_nets, s3.failed_nets);
  EXPECT_LT(s4.avg_delay_ps, s1.avg_delay_ps);
  // Failures stay rare (the blocked region causes the few there are).
  EXPECT_LT(s4.failed_nets,
            static_cast<std::int32_t>(design.nets().size()) / 5);

  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

INSTANTIATE_TEST_SUITE_P(SmallCircuits, FullFlow,
                         ::testing::Values("apte", "hp"));

TEST(FullFlowBbp, RabidBeatsBbpOnCongestionAndMtap) {
  // The Table V headline on one circuit: RABID satisfies capacity with
  // dispersed buffers; BBP/FR overflows and concentrates buffer area.
  const circuits::CircuitSpec& spec = circuits::spec_by_name("hp");
  const netlist::Design base = circuits::generate_design(spec);
  const netlist::Design two = netlist::Design::decompose_to_two_pin(base);

  tile::TileGraph bbp_graph = circuits::build_tile_graph(two, spec);
  const core::StageStats theirs =
      bbp::BbpAllocator(two, bbp_graph).plan().back();

  tile::TileGraph our_graph = circuits::build_tile_graph(two, spec);
  core::Rabid rabid(two, our_graph);
  const auto stats = rabid.run_all();
  const auto& ours = stats.back();

  EXPECT_EQ(ours.overflow, 0);
  EXPECT_LT(bbp::mtap_pct(our_graph, circuits::kBufferSiteAreaUm2),
            bbp::mtap_pct(bbp_graph, circuits::kBufferSiteAreaUm2));
  // Delay comparable: within 2x either way (paper: "quite comparable").
  EXPECT_LT(ours.avg_delay_ps, 2.0 * theirs.avg_delay_ps);
}

}  // namespace
}  // namespace rabid
