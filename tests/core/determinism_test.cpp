#include <gtest/gtest.h>

#include <vector>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"

namespace rabid {
namespace {

/// The parallelism contract (DESIGN.md, "Parallelism"): any thread count
/// produces the *same solution*, bit for bit, as the serial run — same
/// trees, same buffer sites, same wire usage, same costs and delays.
/// Per-net work is speculated across the pool, but every book commit is
/// replayed serially in the paper's net order.

core::Rabid run_flow(const netlist::Design& design, tile::TileGraph& graph,
                     std::int32_t threads,
                     std::vector<core::StageStats>& stats) {
  core::RabidOptions options;
  options.threads = threads;
  core::Rabid rabid(design, graph, options);
  stats = rabid.run_all();
  return rabid;
}

void expect_identical_solutions(const core::Rabid& a, const core::Rabid& b) {
  // Per-net: identical trees (topology and tiles) and buffer placements.
  ASSERT_EQ(a.nets().size(), b.nets().size());
  for (std::size_t i = 0; i < a.nets().size(); ++i) {
    const core::NetState& na = a.nets()[i];
    const core::NetState& nb = b.nets()[i];
    ASSERT_EQ(na.tree.node_count(), nb.tree.node_count()) << "net " << i;
    for (std::size_t v = 0; v < na.tree.node_count(); ++v) {
      const auto id = static_cast<route::NodeId>(v);
      EXPECT_EQ(na.tree.node(id).tile, nb.tree.node(id).tile)
          << "net " << i << " node " << v;
      EXPECT_EQ(na.tree.node(id).parent, nb.tree.node(id).parent)
          << "net " << i << " node " << v;
    }
    ASSERT_EQ(na.buffers.size(), nb.buffers.size()) << "net " << i;
    for (std::size_t k = 0; k < na.buffers.size(); ++k) {
      EXPECT_EQ(na.buffers[k].node, nb.buffers[k].node)
          << "net " << i << " buffer " << k;
      EXPECT_EQ(na.buffers[k].child, nb.buffers[k].child)
          << "net " << i << " buffer " << k;
    }
    EXPECT_EQ(na.meets_length_rule, nb.meets_length_rule) << "net " << i;
    // Delays come from identical arithmetic on identical inputs, so
    // they match exactly, not just approximately.
    EXPECT_EQ(na.delay.max_ps, nb.delay.max_ps) << "net " << i;
    EXPECT_EQ(na.delay.sum_ps, nb.delay.sum_ps) << "net " << i;
  }

  // Books: per-edge wire usage and per-tile site usage.
  const tile::TileGraph& ga = a.graph();
  const tile::TileGraph& gb = b.graph();
  for (tile::EdgeId e = 0; e < ga.edge_count(); ++e) {
    ASSERT_EQ(ga.wire_usage(e), gb.wire_usage(e)) << "edge " << e;
  }
  for (tile::TileId t = 0; t < ga.tile_count(); ++t) {
    ASSERT_EQ(ga.site_usage(t), gb.site_usage(t)) << "tile " << t;
  }
}

class Determinism : public ::testing::TestWithParam<std::string_view> {};

TEST_P(Determinism, FourThreadsMatchesOneThread) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(GetParam());
  const netlist::Design design = circuits::generate_design(spec);

  tile::TileGraph g1 = circuits::build_tile_graph(design, spec);
  std::vector<core::StageStats> s1;
  const core::Rabid r1 = run_flow(design, g1, /*threads=*/1, s1);

  tile::TileGraph g4 = circuits::build_tile_graph(design, spec);
  std::vector<core::StageStats> s4;
  const core::Rabid r4 = run_flow(design, g4, /*threads=*/4, s4);

  expect_identical_solutions(r1, r4);

  // Stage-level stats agree exactly too (all but the wall clock).
  ASSERT_EQ(s1.size(), s4.size());
  for (std::size_t k = 0; k < s1.size(); ++k) {
    EXPECT_EQ(s1[k].overflow, s4[k].overflow);
    EXPECT_EQ(s1[k].buffers, s4[k].buffers);
    EXPECT_EQ(s1[k].failed_nets, s4[k].failed_nets);
    EXPECT_EQ(s1[k].max_wire_congestion, s4[k].max_wire_congestion);
    EXPECT_EQ(s1[k].wirelength_mm, s4[k].wirelength_mm);
    EXPECT_EQ(s1[k].max_delay_ps, s4[k].max_delay_ps);
    EXPECT_EQ(s1[k].avg_delay_ps, s4[k].avg_delay_ps);
  }
  EXPECT_EQ(s1.back().threads, 1);
  EXPECT_EQ(s4.back().threads, 4);

  // Both runs keep the tile-graph books exactly in sync with per-net
  // state (aborts on mismatch).
  EXPECT_TRUE(rabid::test::books_balance(r1));
  EXPECT_TRUE(rabid::test::books_balance(r4));
}

// apte is the smallest CBL circuit; xerox adds multi-terminal nets with
// a different floorplan.  Both are seeded, fully deterministic designs.
INSTANTIATE_TEST_SUITE_P(SeededCircuits, Determinism,
                         ::testing::Values("apte", "xerox"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// The contract must hold beyond the two hand-picked circuits: sweep
/// thread counts {1, 2, 4, 8} over seeded random instances (structurally
/// diverse grids, L_i values, site supplies), requiring every run to be
/// bit-identical to the serial one *and* clean under the independent
/// SolutionAuditor — determinism of a corrupt solution would be
/// worthless.
class RandomDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDeterminism, ThreadSweepIsBitIdenticalAndAuditClean) {
  const circuits::RandomCircuit rc(GetParam());
  const netlist::Design design = rc.design();

  tile::TileGraph g1 = rc.graph(design);
  std::vector<core::StageStats> s1;
  const core::Rabid r1 = run_flow(design, g1, /*threads=*/1, s1);
  const core::AuditReport serial_audit = r1.audit();
  EXPECT_TRUE(serial_audit.clean()) << rc.name() << "\n"
                                    << serial_audit.summary();
  EXPECT_EQ(serial_audit.nets_audited, design.nets().size());

  for (const std::int32_t threads : {2, 4, 8}) {
    tile::TileGraph gn = rc.graph(design);
    std::vector<core::StageStats> sn;
    const core::Rabid rn = run_flow(design, gn, threads, sn);
    expect_identical_solutions(r1, rn);
    const core::AuditReport audit = rn.audit();
    EXPECT_TRUE(audit.clean())
        << rc.name() << " at " << threads << " threads\n"
        << audit.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDeterminism,
                         ::testing::Values(17, 42, 137, 271, 828, 1009));

TEST(Determinism, OddThreadCountAndAutoAlsoMatchSerial) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);

  tile::TileGraph g1 = circuits::build_tile_graph(design, spec);
  std::vector<core::StageStats> s1;
  const core::Rabid r1 = run_flow(design, g1, /*threads=*/1, s1);

  for (const std::int32_t threads : {0, 3}) {
    tile::TileGraph gn = circuits::build_tile_graph(design, spec);
    std::vector<core::StageStats> sn;
    const core::Rabid rn = run_flow(design, gn, threads, sn);
    expect_identical_solutions(r1, rn);
  }
}

}  // namespace
}  // namespace rabid
