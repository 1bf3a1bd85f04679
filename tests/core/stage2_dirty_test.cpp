#include <gtest/gtest.h>

#include <string>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"

namespace rabid::core {
namespace {

struct Stage2Outcome {
  std::int64_t overflow = 0;
  bool audit_clean = false;
};

Stage2Outcome run_stages_1_2(const netlist::Design& design,
                             const circuits::CircuitSpec& spec,
                             const circuits::TilingOptions* tiling,
                             bool dirty_filter) {
  tile::TileGraph graph =
      tiling != nullptr ? circuits::build_tile_graph(design, spec, *tiling)
                        : circuits::build_tile_graph(design, spec);
  RabidOptions options;
  options.stage2_dirty_filter = dirty_filter;
  options.audit_level = AuditLevel::kPerStage;
  Rabid rabid(design, graph, options);
  rabid.run_stage1();
  const StageStats stats = rabid.run_stage2();
  Stage2Outcome out;
  out.overflow = stats.overflow;
  out.audit_clean =
      rabid.last_audit() != nullptr && rabid.last_audit()->clean();
  return out;
}

/// The dirty-net filter only skips nets whose congestion picture did not
/// move; on every Table I circuit it must converge to the same final
/// wire-overflow count as the paper-faithful reroute-everything loop,
/// with the per-stage auditor staying clean throughout.
class Stage2DirtyFilter : public ::testing::TestWithParam<const char*> {};

TEST_P(Stage2DirtyFilter, MatchesFullNairOverflowOnTableOne) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(GetParam());
  const netlist::Design design = circuits::generate_design(spec);
  const Stage2Outcome filtered =
      run_stages_1_2(design, spec, nullptr, /*dirty_filter=*/true);
  const Stage2Outcome full =
      run_stages_1_2(design, spec, nullptr, /*dirty_filter=*/false);
  EXPECT_EQ(filtered.overflow, full.overflow);
  EXPECT_TRUE(filtered.audit_clean);
  EXPECT_TRUE(full.audit_clean);
}

INSTANTIATE_TEST_SUITE_P(TableOne, Stage2DirtyFilter,
                         ::testing::Values("apte", "xerox", "hp", "ami33",
                                           "ami49", "playout", "ac3", "xc5",
                                           "hc7", "a9c3"));

/// Congested random instances: capacities calibrated so tight that the
/// stage-2 loop genuinely iterates (the Table I circuits mostly converge
/// in one pass, which would leave the filter untested).
TEST(Stage2DirtyFilter, MatchesFullNairOnCongestedRandomCircuits) {
  circuits::RandomCircuitOptions options;
  options.target_avg_congestion = 0.8;
  options.min_nets = 16;
  options.max_nets = 28;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const circuits::RandomCircuit circuit(seed, options);
    const netlist::Design design = circuit.design();
    const Stage2Outcome filtered = run_stages_1_2(
        design, circuit.spec(), &circuit.tiling(), /*dirty_filter=*/true);
    const Stage2Outcome full = run_stages_1_2(
        design, circuit.spec(), &circuit.tiling(), /*dirty_filter=*/false);
    EXPECT_EQ(filtered.overflow, full.overflow) << circuit.name();
    EXPECT_TRUE(filtered.audit_clean) << circuit.name();
  }
}

/// With the filter on, a second stage-2 run over an already-feasible
/// solution must leave every route untouched (nothing is dirty).
TEST(Stage2DirtyFilter, QuiescentIterationRipsNothingUp) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  RabidOptions options;
  options.stage2_dirty_filter = true;
  options.reroute_iterations = 6;  // extra passes beyond convergence
  Rabid rabid(design, graph, options);
  rabid.run_stage1();
  const StageStats a = rabid.run_stage2();
  EXPECT_EQ(a.overflow, 0);
  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

}  // namespace
}  // namespace rabid::core
