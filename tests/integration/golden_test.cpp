#include <gtest/gtest.h>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"

namespace rabid {
namespace {

/// Golden regression pins: the full deterministic pipeline on apte must
/// reproduce these exact solution-level numbers run after run, platform
/// after platform (all randomness is the portable PCG stream; all
/// arithmetic is integer or exactly-reproducible double sums).
///
/// If an intentional algorithm change shifts these values, update them
/// *and* re-record EXPERIMENTS.md in the same commit.
TEST(Golden, ApteFullFlowSolutionInvariants) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  const auto stats = rabid.run_all();

  // Stage-1 structural results (pure PD + Steiner + embedding).
  EXPECT_EQ(stats[0].overflow, 50);
  EXPECT_EQ(stats[0].failed_nets, 71);

  // Final solution.
  EXPECT_EQ(stats[3].overflow, 0);
  EXPECT_EQ(stats[3].buffers, 483);
  EXPECT_EQ(stats[3].failed_nets, 6);

  // Wirelength in tiles is integral and exact.
  std::int64_t arcs = 0;
  for (const core::NetState& n : rabid.nets()) {
    arcs += n.tree.wirelength_tiles();
  }
  EXPECT_EQ(arcs, 2823);

  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

TEST(Golden, HpFullFlowSolutionInvariants) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("hp");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  const auto stats = rabid.run_all();
  EXPECT_EQ(stats[3].overflow, 0);
  EXPECT_EQ(stats[3].buffers, 467);
  EXPECT_EQ(stats[3].failed_nets, 7);
}

TEST(Golden, TileGraphFingerprint) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("xerox");
  const netlist::Design d = circuits::generate_design(spec);
  const tile::TileGraph g = circuits::build_tile_graph(d, spec);
  std::int64_t weighted = 0;
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    weighted += static_cast<std::int64_t>(g.site_supply(t)) * (t % 97);
  }
  EXPECT_EQ(g.total_site_supply(), 3000);
  EXPECT_EQ(g.wire_capacity(0), 11);
  EXPECT_EQ(weighted, 135979);
}

}  // namespace
}  // namespace rabid
