#include <gtest/gtest.h>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"

namespace rabid {
namespace {

/// Smoke + invariants over the complete Table-I suite: the full flow
/// must hold its guarantees on every published workload, not just the
/// small ones the targeted tests use.
class AllCircuits : public ::testing::TestWithParam<std::string_view> {};

TEST_P(AllCircuits, FullFlowInvariants) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(GetParam());
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::RabidOptions options;
  options.audit_level = core::AuditLevel::kPerStage;
  core::Rabid rabid(design, graph, options);
  const auto stats = rabid.run_all();

  // Every stage ran under the independent auditor: solution integrity
  // (books, trees, flags, delays, site capacity) holds throughout, and
  // the final solution is free even of wire-capacity errors.
  ASSERT_NE(rabid.last_audit(), nullptr);
  EXPECT_TRUE(rabid.last_audit()->clean())
      << GetParam() << "\n" << rabid.last_audit()->summary();

  // The paper's two hard guarantees (Section IV-A).
  EXPECT_EQ(stats.back().overflow, 0) << GetParam();
  EXPECT_LE(stats.back().max_buffer_density, 1.0) << GetParam();

  // Per-net structural sanity.
  std::size_t sinks = 0;
  for (std::size_t i = 0; i < rabid.nets().size(); ++i) {
    const core::NetState& n = rabid.nets()[i];
    n.tree.verify(graph);
    sinks += static_cast<std::size_t>(n.tree.total_sinks());
    EXPECT_EQ(n.tree.node(n.tree.root()).tile,
              graph.tile_at(design.net(static_cast<netlist::NetId>(i))
                                .source.location));
  }
  EXPECT_EQ(sinks, design.total_sinks());

  // Books exactly consistent with per-net state.
  EXPECT_TRUE(rabid::test::books_balance(rabid));

  // Failures stay a small minority on every circuit.
  EXPECT_LT(stats.back().failed_nets,
            static_cast<std::int32_t>(design.nets().size()) / 4)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TableOne, AllCircuits,
                         ::testing::Values("apte", "xerox", "hp", "ami33",
                                           "ami49", "playout", "ac3", "xc5",
                                           "hc7", "a9c3"));

}  // namespace
}  // namespace rabid
