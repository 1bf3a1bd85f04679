#include "alloc/factory.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"

namespace rabid::alloc {
namespace {

/// The Allocator capability + correctness contract, pinned for every
/// backend on real Table-I workloads: a backend plans, its books match
/// its nets, its solution is clean under its *declared* allowances, and
/// it either honors a deadline or the factory rejects it — never
/// silently drops it.
struct Workload {
  netlist::Design design;
  tile::TileGraph graph;
};

Workload make_workload(std::string_view circuit, core::Backend backend) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  netlist::Design design = circuits::generate_design(spec);
  if (backend == core::Backend::kBbp) {
    design = netlist::Design::decompose_to_two_pin(design);
  }
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  return {std::move(design), std::move(graph)};
}

class AllocatorConformance
    : public ::testing::TestWithParam<
          std::tuple<core::Backend, std::string_view>> {};

TEST_P(AllocatorConformance, PlansAuditCleanUnderDeclaredAllowances) {
  const auto [backend, circuit] = GetParam();
  Workload w = make_workload(circuit, backend);

  AllocatorConfig config;
  config.rabid.audit_level = core::AuditLevel::kFinal;
  auto made = make_allocator(backend, w.design, w.graph, config);
  ASSERT_TRUE(made.ok()) << made.status().to_string();
  core::Allocator& alloc = *made.value();
  EXPECT_EQ(alloc.backend(), backend);

  const auto stats = alloc.plan();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats.size(), alloc.stage_history().size());

  // One NetState per design net, every sink embedded, root on the
  // driver tile — the schema every consumer (auditor, solution IO,
  // backend_compare) assumes.
  ASSERT_EQ(alloc.nets().size(), w.design.nets().size());
  std::size_t sinks = 0;
  for (std::size_t i = 0; i < alloc.nets().size(); ++i) {
    const core::NetState& n = alloc.nets()[i];
    ASSERT_FALSE(n.tree.empty()) << circuit << " net " << i;
    n.tree.verify(w.graph);
    sinks += static_cast<std::size_t>(n.tree.total_sinks());
    EXPECT_EQ(n.tree.node(n.tree.root()).tile,
              w.graph.tile_at(
                  w.design.net(static_cast<netlist::NetId>(i)).source.location));
  }
  EXPECT_EQ(sinks, w.design.total_sinks());

  // plan() audited once (kFinal) and the fresh recheck agrees: zero
  // errors under the backend's declared allowances.  For RABID and MCF
  // that includes hard wire/buffer capacity; BBP's overloads are
  // warnings by declaration and must be *visible* as such.
  ASSERT_NE(alloc.last_audit(), nullptr);
  EXPECT_TRUE(alloc.last_audit()->clean()) << alloc.last_audit()->summary();
  const core::AuditReport fresh = alloc.audit();
  EXPECT_TRUE(fresh.clean()) << fresh.summary();

  // The generic run report assembles for every backend.
  const core::RunReport report = alloc.run_report();
  EXPECT_EQ(report.verdict, "ok");
  EXPECT_EQ(report.stages.size(), alloc.stage_history().size());
  EXPECT_EQ(report.nets, static_cast<std::int64_t>(w.design.nets().size()));
}

TEST_P(AllocatorConformance, CapabilityContractIsEnforced) {
  const auto [backend, circuit] = GetParam();
  Workload w = make_workload(circuit, backend);

  auto made = make_allocator(backend, w.design, w.graph);
  ASSERT_TRUE(made.ok()) << made.status().to_string();

  // Deadlines are RABID's alone; for any other backend a configured
  // deadline is a *rejected config* (exit-code-3 material), not a silent
  // no-op.
  const bool deadline_ok = backend == core::Backend::kRabid;
  AllocatorConfig with_deadline;
  with_deadline.rabid.deadline_ms = 100.0;
  auto r1 = make_allocator(backend, w.design, w.graph, with_deadline);
  EXPECT_EQ(r1.ok(), deadline_ok)
      << (r1.ok() ? "accepted" : r1.status().to_string());
  if (!r1.ok()) {
    EXPECT_EQ(r1.status().exit_code(), 3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByCircuit, AllocatorConformance,
    ::testing::Combine(::testing::Values(core::Backend::kRabid,
                                         core::Backend::kBbp,
                                         core::Backend::kMcf),
                       ::testing::Values("apte", "xerox", "hp", "ami33")),
    [](const auto& info) {
      return std::string(core::backend_name(std::get<0>(info.param))) + "_" +
             std::string(std::get<1>(info.param));
    });

/// Parallel backends must be bit-identical at any thread count — the
/// same contract stages 1-3 carry, extended to MCF's phase oracles.
class AllocatorDeterminism
    : public ::testing::TestWithParam<core::Backend> {};

TEST_P(AllocatorDeterminism, ThreadCountInvariant) {
  const core::Backend backend = GetParam();
  auto run = [&](std::int32_t threads) {
    Workload w = make_workload("apte", backend);
    AllocatorConfig config;
    config.rabid.threads = threads;
    auto made = make_allocator(backend, w.design, w.graph, config);
    EXPECT_TRUE(made.ok()) << made.status().to_string();
    made.value()->plan();
    std::vector<core::NetState> out(made.value()->nets().begin(),
                                    made.value()->nets().end());
    return out;
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::NetState& a = serial[i];
    const core::NetState& b = parallel[i];
    ASSERT_EQ(a.tree.node_count(), b.tree.node_count()) << "net " << i;
    for (std::size_t n = 0; n < a.tree.node_count(); ++n) {
      const auto id = static_cast<route::NodeId>(n);
      EXPECT_EQ(a.tree.node(id).tile, b.tree.node(id).tile);
      EXPECT_EQ(a.tree.node(id).parent, b.tree.node(id).parent);
    }
    ASSERT_EQ(a.buffers.size(), b.buffers.size()) << "net " << i;
    for (std::size_t k = 0; k < a.buffers.size(); ++k) {
      EXPECT_EQ(a.buffers[k].node, b.buffers[k].node);
      EXPECT_EQ(a.buffers[k].child, b.buffers[k].child);
    }
    EXPECT_EQ(a.meets_length_rule, b.meets_length_rule);
    EXPECT_EQ(a.delay.max_ps, b.delay.max_ps) << "net " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Parallel, AllocatorDeterminism,
                         ::testing::Values(core::Backend::kRabid,
                                           core::Backend::kMcf),
                         [](const auto& info) {
                           return std::string(
                               core::backend_name(info.param));
                         });

TEST(AllocatorFactory, BackendNamesRoundTrip) {
  for (const core::Backend b :
       {core::Backend::kRabid, core::Backend::kBbp, core::Backend::kMcf}) {
    core::Backend parsed;
    ASSERT_TRUE(core::backend_from_name(core::backend_name(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  core::Backend parsed;
  EXPECT_FALSE(core::backend_from_name("astar", &parsed));
  EXPECT_FALSE(core::backend_from_name("", &parsed));
}

TEST(AllocatorFactory, BbpRejectsMultiPinDesigns) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  auto made = make_allocator(core::Backend::kBbp, design, graph);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), core::StatusCode::kInvalidInput);
}

}  // namespace
}  // namespace rabid::alloc
