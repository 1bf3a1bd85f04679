#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"

namespace rabid {
namespace {

/// The region-sharded stage 2 (RabidOptions::stage2_shards) contract:
/// for a fixed shard count K the solution after stage 2 is bit-identical
/// at ANY thread count — shards own disjoint interior-edge sets, both
/// orders (per-shard delay order, boundary net-id order) are fixed
/// before any routing, and the serial boundary replay is the only
/// writer outside region interiors.  Every run must also survive the
/// independent SolutionAuditor: determinism of a corrupt solution would
/// be worthless.
///
/// The suite sweeps threads {1, 2, 4, 8} over all ten Table-I circuits
/// plus twenty seeded random instances (structurally diverse grids,
/// L_i values, site supplies, blocked regions).

core::Rabid run_stages12(const netlist::Design& design,
                         tile::TileGraph& graph, std::int32_t threads,
                         std::int32_t shards) {
  core::RabidOptions options;
  options.threads = threads;
  options.stage2_shards = shards;
  core::Rabid rabid(design, graph, options);
  rabid.run_stage1();
  rabid.run_stage2();
  return rabid;
}

void expect_identical_routes(const core::Rabid& a, const core::Rabid& b,
                             const char* what) {
  ASSERT_EQ(a.nets().size(), b.nets().size()) << what;
  for (std::size_t i = 0; i < a.nets().size(); ++i) {
    const core::NetState& na = a.nets()[i];
    const core::NetState& nb = b.nets()[i];
    ASSERT_EQ(na.tree.node_count(), nb.tree.node_count())
        << what << " net " << i;
    for (std::size_t v = 0; v < na.tree.node_count(); ++v) {
      const auto id = static_cast<route::NodeId>(v);
      ASSERT_EQ(na.tree.node(id).tile, nb.tree.node(id).tile)
          << what << " net " << i << " node " << v;
      ASSERT_EQ(na.tree.node(id).parent, nb.tree.node(id).parent)
          << what << " net " << i << " node " << v;
    }
    EXPECT_EQ(na.meets_length_rule, nb.meets_length_rule)
        << what << " net " << i;
    EXPECT_EQ(na.delay.max_ps, nb.delay.max_ps) << what << " net " << i;
    EXPECT_EQ(na.delay.sum_ps, nb.delay.sum_ps) << what << " net " << i;
  }
  const tile::TileGraph& ga = a.graph();
  const tile::TileGraph& gb = b.graph();
  for (tile::EdgeId e = 0; e < ga.edge_count(); ++e) {
    ASSERT_EQ(ga.wire_usage(e), gb.wire_usage(e)) << what << " edge " << e;
  }
}

void check_thread_sweep(const netlist::Design& design,
                        const circuits::CircuitSpec& spec,
                        const char* name) {
  constexpr std::int32_t kShards = 4;
  tile::TileGraph g1 = circuits::build_tile_graph(design, spec);
  const core::Rabid r1 = run_stages12(design, g1, /*threads=*/1, kShards);
  const core::AuditReport audit1 = r1.audit();
  EXPECT_TRUE(audit1.clean()) << name << "\n" << audit1.summary();
  EXPECT_EQ(audit1.nets_audited, design.nets().size()) << name;
  EXPECT_TRUE(rabid::test::books_balance(r1));

  for (const std::int32_t threads : {2, 4, 8}) {
    tile::TileGraph gn = circuits::build_tile_graph(design, spec);
    const core::Rabid rn = run_stages12(design, gn, threads, kShards);
    expect_identical_routes(r1, rn, name);
    const core::AuditReport audit = rn.audit();
    EXPECT_TRUE(audit.clean()) << name << " at " << threads << " threads\n"
                               << audit.summary();
    EXPECT_TRUE(rabid::test::books_balance(rn));
  }
}

class ShardEquivalence : public ::testing::TestWithParam<std::string_view> {
};

TEST_P(ShardEquivalence, BitIdenticalAcrossThreadCountsAndAuditClean) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(GetParam());
  const netlist::Design design = circuits::generate_design(spec);
  check_thread_sweep(design, spec, spec.name.data());
}

INSTANTIATE_TEST_SUITE_P(TableI, ShardEquivalence,
                         ::testing::Values("apte", "xerox", "hp", "ami33",
                                           "ami49", "playout", "ac3", "xc5",
                                           "hc7", "a9c3"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

class RandomShardEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomShardEquivalence, BitIdenticalAcrossThreadCountsAndAuditClean) {
  const circuits::RandomCircuit rc(GetParam());
  const netlist::Design design = rc.design();
  constexpr std::int32_t kShards = 4;
  tile::TileGraph g1 = rc.graph(design);
  const core::Rabid r1 = run_stages12(design, g1, /*threads=*/1, kShards);
  const core::AuditReport audit1 = r1.audit();
  EXPECT_TRUE(audit1.clean()) << rc.name() << "\n" << audit1.summary();
  for (const std::int32_t threads : {2, 4, 8}) {
    tile::TileGraph gn = rc.graph(design);
    const core::Rabid rn = run_stages12(design, gn, threads, kShards);
    expect_identical_routes(r1, rn, rc.name().c_str());
    const core::AuditReport audit = rn.audit();
    EXPECT_TRUE(audit.clean())
        << rc.name() << " at " << threads << " threads\n" << audit.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShardEquivalence,
                         ::testing::Values(3, 11, 17, 29, 42, 59, 88, 101,
                                           137, 211, 271, 389, 467, 555,
                                           640, 828, 911, 1009, 1213, 4096));

/// Shard-count sanity beyond the sweep: a K larger than the grid clamps
/// instead of misclassifying, and K = 1 (one region holding everything)
/// still audits clean.
TEST(ShardEquivalence, DegenerateShardCountsStayAuditClean) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  for (const std::int32_t shards : {1, 1000}) {
    tile::TileGraph g = circuits::build_tile_graph(design, spec);
    const core::Rabid r = run_stages12(design, g, /*threads=*/2, shards);
    const core::AuditReport audit = r.audit();
    EXPECT_TRUE(audit.clean()) << "shards=" << shards << "\n"
                               << audit.summary();
    EXPECT_TRUE(rabid::test::books_balance(r));
  }
}

}  // namespace
}  // namespace rabid
