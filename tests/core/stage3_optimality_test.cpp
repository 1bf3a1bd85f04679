#include <gtest/gtest.h>

#include <cmath>

#include "buffer/brute_force.hpp"
#include "buffer/insertion.hpp"
#include "circuits/generator.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"

namespace rabid {
namespace {

/// Small-instance optimality of the Stage-3 DP on *flow-produced*
/// trees.  tests/buffer/property_test.cpp certifies the DP on synthetic
/// random-walk trees; here the trees are real Stage-1 outputs (PD +
/// embedding on actual circuits), buffer costs are the graph's own
/// eq. (2) prices, and L_i is the net's published limit.  On every net
/// small enough to enumerate (<= 6 sinks, bounded slot count):
///   * the DP is feasible exactly when the exhaustive search is — it
///     never reports an L_i violation where a legal assignment exists;
///   * feasible solutions are legal under L_i and cost-optimal.

std::int64_t slot_count(const route::RouteTree& tree) {
  // Mirrors brute_force.hpp's candidate space: one decoupling slot per
  // arc plus a driving slot per multi-child node.
  std::int64_t slots =
      static_cast<std::int64_t>(tree.node_count()) - 1;
  for (std::size_t v = 0; v < tree.node_count(); ++v) {
    if (tree.node(static_cast<route::NodeId>(v)).children().size() >= 2) {
      ++slots;
    }
  }
  return slots;
}

/// Runs Stage 1 and checks every enumerable net; returns how many were.
int check_small_nets(const netlist::Design& design, tile::TileGraph& graph) {
  core::Rabid rabid(design, graph);
  rabid.run_stage1();
  const buffer::TileCostFn q = [&](tile::TileId t) {
    return graph.buffer_cost(t, 0.0);
  };
  int checked = 0;
  for (std::size_t i = 0; i < rabid.nets().size(); ++i) {
    const core::NetState& n = rabid.nets()[i];
    if (n.tree.total_sinks() > 6 || slot_count(n.tree) > 14) continue;
    const std::int32_t L =
        design.length_limit(static_cast<netlist::NetId>(i));
    const buffer::InsertionResult bf =
        buffer::brute_force_insert(n.tree, L, q);
    const buffer::InsertionResult dp = buffer::insert_buffers(n.tree, L, q);
    EXPECT_EQ(dp.feasible, bf.feasible)
        << design.name() << " net " << i << " L=" << L;
    if (bf.feasible && dp.feasible) {
      EXPECT_TRUE(buffer::placement_is_legal(n.tree, dp.buffers, L))
          << design.name() << " net " << i;
      EXPECT_NEAR(dp.cost, bf.cost, 1e-9)
          << design.name() << " net " << i;
      EXPECT_NEAR(buffer::placement_cost(n.tree, dp.buffers, q), dp.cost,
                  1e-9);
    }
    ++checked;
  }
  return checked;
}

class SeedCircuits : public ::testing::TestWithParam<std::string_view> {};

TEST_P(SeedCircuits, DpMatchesBruteForceOnEnumerableNets) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(GetParam());
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  EXPECT_GT(check_small_nets(design, graph), 0)
      << "no enumerable nets — the test lost its teeth";
}

INSTANTIATE_TEST_SUITE_P(TableOne, SeedCircuits,
                         ::testing::Values("apte", "xerox"));

class RandomCircuits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuits, DpMatchesBruteForceOnEnumerableNets) {
  const circuits::RandomCircuit rc(GetParam());
  const netlist::Design design = rc.design();
  tile::TileGraph graph = rc.graph(design);
  check_small_nets(design, graph);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuits,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace rabid
