#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "circuits/random_circuit.hpp"
#include "core/rabid.hpp"
#include "core/replan.hpp"
#include "eco/incremental.hpp"
#include "fuzz/differential.hpp"
#include "geom/point.hpp"
#include "netlist/design.hpp"
#include "obs/counters.hpp"
#include "route/maze.hpp"
#include "tile/tile_graph.hpp"

namespace rabid::eco {
namespace {

/// A batch-planned random instance adopted into an IncrementalPlanner.
/// The graph lives behind a unique_ptr because the planner borrows it.
struct Instance {
  std::unique_ptr<tile::TileGraph> graph;
  std::unique_ptr<IncrementalPlanner> planner;
};

Instance adopt(std::uint64_t seed,
               const circuits::RandomCircuitOptions& circuit_options = {},
               EcoOptions eco = {}) {
  const circuits::RandomCircuit circuit(seed, circuit_options);
  const netlist::Design design = circuit.design();
  Instance inst;
  inst.graph = std::make_unique<tile::TileGraph>(circuit.graph(design));
  core::RabidOptions options;
  core::Rabid rabid(design, *inst.graph, options);
  rabid.run_all();
  eco.tech = options.tech;
  eco.buffer_library = options.buffer_library;
  inst.planner = std::make_unique<IncrementalPlanner>(design, *inst.graph,
                                                      rabid.nets(), eco);
  return inst;
}

std::vector<double> wirelengths(const Instance& inst) {
  std::vector<double> out;
  for (const core::NetState& st : inst.planner->nets()) {
    out.push_back(st.tree.wirelength_um(*inst.graph));
  }
  return out;
}

TEST(IncrementalPlanner, NoOpReplanKeepsEverySolutionBit) {
  Instance inst = adopt(7);
  const std::vector<double> before = wirelengths(inst);
  ReplanStats stats;
  ASSERT_TRUE(inst.planner->replan(Perturbation{}, &stats).ok_status());
  EXPECT_EQ(stats.dirty_nets, 0);
  EXPECT_EQ(stats.kept_nets,
            static_cast<std::int64_t>(inst.planner->nets().size()));
  EXPECT_EQ(wirelengths(inst), before);
  EXPECT_TRUE(inst.planner->audit().clean());
}

/// Bit-for-bit equality of two net states: tree nodes, buffers, cells,
/// the length-rule flag and every delay.
bool same_state(const core::NetState& a, const core::NetState& b) {
  const auto na = a.tree.nodes();
  const auto nb = b.tree.nodes();
  return na.size() == nb.size() &&
         std::memcmp(na.data(), nb.data(), na.size() * sizeof(na[0])) == 0 &&
         a.buffers == b.buffers &&
         a.buffer_types.size() == b.buffer_types.size() &&
         a.meets_length_rule == b.meets_length_rule &&
         a.delay.max_ps == b.delay.max_ps && a.delay.sum_ps == b.delay.sum_ps &&
         a.delay.sink_delays_ps == b.delay.sink_delays_ps;
}

/// A step without capacity edits recruits no planned net, so it walks
/// no untouched tree (eco.seed_trees_walked stays 0); a never-planned
/// net is still planned, and every untouched net keeps every bit.  A
/// wire edit that moves a cost walks the untouched trees again.
TEST(IncrementalPlanner, StepWithoutCapacityEditsWalksNoUntouchedTree) {
  const circuits::RandomCircuit circuit(5);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  core::RabidOptions options;
  core::Rabid rabid(design, graph, options);
  rabid.run_all();
  std::vector<core::NetState> solution = rabid.nets();
  ASSERT_GE(solution.size(), 4u);
  {
    // Net 0 was never planned: out of both books, no tree.
    route::EdgeCostCache cache(graph, [&](tile::EdgeId e) {
      return route::soft_wire_cost(graph, e);
    });
    core::rip_net(graph, solution[0], design.net(0).width, cache);
  }
  ASSERT_TRUE(solution[0].tree.empty());
  EcoOptions eco;
  eco.tech = options.tech;
  eco.buffer_library = options.buffer_library;
  IncrementalPlanner planner(design, graph, solution, eco);

  obs::Registry& registry = obs::Registry::instance();
  registry.set_level(obs::Level::kCounters);
  registry.reset();
  Perturbation move;
  move.moved_nets.push_back({1, design.net(1)});
  ReplanStats stats;
  ASSERT_TRUE(planner.replan(move, &stats).ok_status());
  const std::uint64_t walked_without_edits =
      registry.snapshot()[obs::Counter::kEcoSeedTreesWalked];

  EXPECT_EQ(walked_without_edits, 0u);
  // The closure is the moved net and the never-planned one (no edge
  // overflowed, so nothing else was recruited).
  ASSERT_EQ(stats.dirty_nets, 2);
  EXPECT_FALSE(planner.nets()[0].tree.empty());
  EXPECT_FALSE(planner.nets()[1].tree.empty());
  for (std::size_t i = 2; i < solution.size(); ++i) {
    EXPECT_TRUE(same_state(planner.nets()[i], solution[i])) << "net " << i;
  }
  EXPECT_TRUE(planner.audit().clean());

  // The busiest edge loses a track: every untouched planned net's tree
  // is scanned for it.
  tile::EdgeId busiest = 0;
  for (tile::EdgeId e = 0; e < graph.edge_count(); ++e) {
    if (graph.wire_usage(e) > graph.wire_usage(busiest)) busiest = e;
  }
  ASSERT_GT(graph.wire_usage(busiest), 0);
  registry.reset();
  Perturbation cut;
  cut.wire_edits.push_back({busiest, graph.wire_usage(busiest) - 1});
  ASSERT_TRUE(planner.replan(cut, &stats).ok_status());
  const std::uint64_t walked_with_edit =
      registry.snapshot()[obs::Counter::kEcoSeedTreesWalked];
  registry.set_level(obs::Level::kOff);
  registry.reset();
  EXPECT_EQ(walked_with_edit, planner.nets().size());
}

TEST(IncrementalPlanner, RaisingUnusedEdgeCapacityKeepsPlan) {
  Instance inst = adopt(11);
  tile::EdgeId unused = tile::kNoEdge;
  for (tile::EdgeId e = 0; e < inst.graph->edge_count(); ++e) {
    if (inst.graph->wire_usage(e) == 0) {
      unused = e;
      break;
    }
  }
  ASSERT_NE(unused, tile::kNoEdge);
  const std::vector<double> before = wirelengths(inst);
  Perturbation p;
  p.wire_edits.push_back(
      {unused, inst.graph->wire_capacity(unused) + 5});
  ReplanStats stats;
  ASSERT_TRUE(inst.planner->replan(p, &stats).ok_status());
  EXPECT_EQ(stats.dirty_nets, 0);
  EXPECT_EQ(stats.capacity_edits, 1);
  EXPECT_EQ(wirelengths(inst), before);
  EXPECT_TRUE(inst.planner->audit().clean());
}

TEST(IncrementalPlanner, WireCapacityCutReplansOnlyTheRiders) {
  Instance inst = adopt(3);
  tile::EdgeId busiest = tile::kNoEdge;
  std::int32_t max_use = 0;
  for (tile::EdgeId e = 0; e < inst.graph->edge_count(); ++e) {
    if (inst.graph->wire_usage(e) > max_use) {
      max_use = inst.graph->wire_usage(e);
      busiest = e;
    }
  }
  ASSERT_NE(busiest, tile::kNoEdge);
  Perturbation p;
  p.wire_edits.push_back({busiest, max_use - 1});
  ReplanStats stats;
  ASSERT_TRUE(inst.planner->replan(p, &stats).ok_status());
  EXPECT_GE(stats.dirty_nets, 1);
  EXPECT_LT(stats.dirty_nets,
            static_cast<std::int64_t>(inst.planner->nets().size()));
  // The riders vacated the cut edge: usage respects the new capacity.
  EXPECT_LE(inst.graph->wire_usage(busiest), max_use - 1);
  EXPECT_TRUE(inst.planner->audit().clean());
}

TEST(IncrementalPlanner, SiteSupplyCutEvictsBuffers) {
  // Find a seed whose batch plan actually commits buffers.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Instance inst = adopt(seed);
    tile::TileId buffered = tile::kNoTile;
    for (tile::TileId t = 0; t < inst.graph->tile_count(); ++t) {
      if (inst.graph->site_usage(t) > 0) {
        buffered = t;
        break;
      }
    }
    if (buffered == tile::kNoTile) continue;
    const std::int32_t new_supply = inst.graph->site_usage(buffered) - 1;
    Perturbation p;
    p.site_edits.push_back({buffered, new_supply});
    ReplanStats stats;
    ASSERT_TRUE(inst.planner->replan(p, &stats).ok_status());
    EXPECT_GE(stats.dirty_nets, 1);
    EXPECT_LE(inst.graph->site_usage(buffered), new_supply);
    EXPECT_TRUE(inst.planner->audit().clean());
    return;
  }
  FAIL() << "no random seed in [1,12] produced a buffered tile";
}

TEST(IncrementalPlanner, MovedNetIsReplannedAtItsNewPins) {
  Instance inst = adopt(5);
  const netlist::NetId id = 0;
  netlist::Net replacement = inst.planner->design().net(id);
  // Drag every sink to the far corner's tile center.
  const geom::Point target =
      inst.graph->center(inst.graph->tile_count() - 1);
  for (netlist::Pin& sink : replacement.sinks) sink.location = target;
  Perturbation p;
  p.moved_nets.push_back({id, replacement});
  ReplanStats stats;
  ASSERT_TRUE(inst.planner->replan(p, &stats).ok_status());
  EXPECT_GE(stats.dirty_nets, 1);
  const core::NetState& st = inst.planner->nets()[0];
  EXPECT_FALSE(st.tree.empty());
  EXPECT_TRUE(st.meets_length_rule);
  EXPECT_EQ(inst.planner->design().net(id).sinks[0].location, target);
  EXPECT_TRUE(inst.planner->audit().clean());
}

TEST(IncrementalPlanner, RemovedNetLeavesTheBooksAndShiftsIds) {
  Instance inst = adopt(9);
  const std::size_t n = inst.planner->nets().size();
  ASSERT_GE(n, 2u);
  const std::string second = inst.planner->design().net(1).name;
  std::int64_t used_before = 0;
  for (tile::EdgeId e = 0; e < inst.graph->edge_count(); ++e) {
    used_before += inst.graph->wire_usage(e);
  }
  Perturbation p;
  p.removed_nets.push_back(0);
  ReplanStats stats;
  ASSERT_TRUE(inst.planner->replan(p, &stats).ok_status());
  EXPECT_EQ(inst.planner->nets().size(), n - 1);
  EXPECT_EQ(inst.planner->design().nets().size(), n - 1);
  EXPECT_EQ(inst.planner->design().net(0).name, second);
  std::int64_t used_after = 0;
  for (tile::EdgeId e = 0; e < inst.graph->edge_count(); ++e) {
    used_after += inst.graph->wire_usage(e);
  }
  EXPECT_LT(used_after, used_before);
  EXPECT_TRUE(inst.planner->audit().clean());
}

TEST(IncrementalPlanner, AddedNetIsPlannedIntoTheBooks) {
  Instance inst = adopt(13);
  const std::size_t n = inst.planner->nets().size();
  netlist::Net extra;
  extra.name = "eco_added";
  extra.source.location = inst.graph->center(0);
  extra.sinks.push_back(
      {inst.graph->center(inst.graph->tile_count() - 1)});
  Perturbation p;
  p.added_nets.push_back(extra);
  ReplanStats stats;
  ASSERT_TRUE(inst.planner->replan(p, &stats).ok_status());
  ASSERT_EQ(inst.planner->nets().size(), n + 1);
  const core::NetState& st = inst.planner->nets().back();
  EXPECT_FALSE(st.tree.empty());
  EXPECT_TRUE(st.meets_length_rule);
  EXPECT_TRUE(inst.planner->audit().clean());
}

TEST(IncrementalPlanner, EquivalentToScratchWithinEpsilon) {
  for (const std::uint64_t seed : {2ULL, 6ULL, 10ULL}) {
    Instance inst = adopt(seed);
    ASSERT_GE(inst.planner->nets().size(), 4u);
    // A mixed ECO: move one net, add one, trim one busy edge.
    Perturbation p;
    netlist::Net moved = inst.planner->design().net(1);
    moved.sinks[0].location = inst.graph->center(0);
    p.moved_nets.push_back({1, moved});
    netlist::Net extra;
    extra.name = "eco_extra";
    extra.source.location = inst.graph->center(0);
    extra.sinks.push_back(
        {inst.graph->center(inst.graph->tile_count() / 2)});
    p.added_nets.push_back(extra);
    ASSERT_TRUE(inst.planner->replan(p).ok_status()) << "seed " << seed;
    const EquivalenceReport report = compare_with_scratch(*inst.planner);
    EXPECT_TRUE(report.audit_clean) << report.summary();
    EXPECT_TRUE(report.within(0.30))
        << "seed " << seed << ": " << report.summary();
  }
}

TEST(EquivalenceReport, BoundIsOneSided) {
  EquivalenceReport r;
  r.audit_clean = true;
  r.wirelength_scratch_mm = 44.48;
  r.buffers_scratch = 28;
  // Beating scratch by more than epsilon is no violation.
  r.wirelength_incremental_mm = 42.96;
  r.buffers_incremental = 24;
  EXPECT_TRUE(r.within(0.02));
  // Losing to scratch by more than epsilon is.
  r.wirelength_incremental_mm = 44.48 * 1.11;
  EXPECT_FALSE(r.within(0.10));
  r.wirelength_incremental_mm = 44.48;
  r.buffers_incremental = 28 + 3;  // floor: 0.10 * max(28, 20) = 2.8
  EXPECT_FALSE(r.within(0.10));
  r.buffers_incremental = 28 + 2;
  EXPECT_TRUE(r.within(0.10));
}

TEST(EquivalenceReport, IncrementalBeatingScratchPassesTheSweep) {
  // The 3-step ECO sweep on seed 36 ends at 42.96 vs 44.48 mm and 24 vs
  // 28 buffers: better than scratch, which a symmetric bound rejected.
  fuzz::EcoFuzzOptions options;
  options.steps = 3;
  options.epsilon = 0.10;
  const fuzz::EcoFuzzResult result = fuzz::run_eco(36, options);
  EXPECT_TRUE(result.ok()) << result.describe();
}

TEST(IncrementalPlanner, ValidationRejectsAndMutatesNothing) {
  Instance inst = adopt(4);
  const std::vector<double> before = wirelengths(inst);
  const std::size_t n = inst.planner->nets().size();

  const auto expect_rejected = [&](const Perturbation& p) {
    const core::Status status = inst.planner->replan(p);
    EXPECT_FALSE(status.ok_status()) << status.message();
    EXPECT_EQ(inst.planner->nets().size(), n);
    EXPECT_EQ(wirelengths(inst), before);
  };

  Perturbation bad_edge;
  bad_edge.wire_edits.push_back({inst.graph->edge_count(), 4});
  expect_rejected(bad_edge);

  Perturbation negative_capacity;
  negative_capacity.wire_edits.push_back({0, -1});
  expect_rejected(negative_capacity);

  Perturbation bad_tile;
  bad_tile.site_edits.push_back({inst.graph->tile_count(), 1});
  expect_rejected(bad_tile);

  Perturbation bad_net;
  bad_net.removed_nets.push_back(static_cast<netlist::NetId>(n));
  expect_rejected(bad_net);

  Perturbation doubly_removed;
  doubly_removed.removed_nets = {0, 0};
  expect_rejected(doubly_removed);

  Perturbation moved_and_removed;
  moved_and_removed.removed_nets.push_back(0);
  moved_and_removed.moved_nets.push_back(
      {0, inst.planner->design().net(0)});
  expect_rejected(moved_and_removed);

  Perturbation sinkless;
  netlist::Net no_sinks;
  no_sinks.name = "sinkless";
  no_sinks.source.location = inst.graph->center(0);
  sinkless.added_nets.push_back(no_sinks);
  expect_rejected(sinkless);

  Perturbation off_chip;
  netlist::Net outside;
  outside.name = "outside";
  outside.source.location = inst.graph->center(0);
  outside.sinks.push_back({geom::Point{-1.0e9, -1.0e9}});
  off_chip.added_nets.push_back(outside);
  expect_rejected(off_chip);

  // The instance still replans fine after all the rejections.
  EXPECT_TRUE(inst.planner->replan(Perturbation{}).ok_status());
  EXPECT_TRUE(inst.planner->audit().clean());
}

}  // namespace
}  // namespace rabid::eco
