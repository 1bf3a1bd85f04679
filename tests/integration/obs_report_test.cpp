// End-to-end observability check on ami49: run the full flow with
// counters on, then cross-check the incrementally maintained counter
// totals against the auditor's ground-up recounts and the tile-graph
// books.  The counters and the audit take completely independent
// paths — the flow bumps counters at every commit/uncommit while the
// auditor recounts the books from the per-net states — so agreement
// here certifies both.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <sstream>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/run_report.hpp"
#include "obs/counters.hpp"

namespace rabid {
namespace {

std::int64_t counter_value(const core::RunReport& report,
                           std::string_view name) {
  for (const auto& [key, value] : report.counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "counter " << name << " missing from report";
  return -1;
}

TEST(ObsReportIntegration, Ami49CountersMatchAuditRecounts) {
  obs::Registry& registry = obs::Registry::instance();
  registry.set_level(obs::Level::kCounters);
  registry.reset();

  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami49");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);

  core::RabidOptions options;
  options.obs_level = obs::Level::kCounters;
  options.audit_level = core::AuditLevel::kFinal;
  core::Rabid rabid(design, graph, options);
  rabid.run_all();

  const core::RunReport report = rabid.run_report();
  registry.set_level(obs::Level::kOff);
  registry.reset();

  // The audit's ground-up recount must be clean — everything below
  // leans on the books being exactly the sum of the per-net states.
  ASSERT_TRUE(report.audited);
  EXPECT_TRUE(report.audit_clean);
  EXPECT_EQ(report.audit_errors, 0);
  EXPECT_GT(report.audit_checks, 0);
  EXPECT_EQ(report.audit_nets,
            static_cast<std::int64_t>(design.nets().size()));

  // Wire book: units committed minus units removed over the whole flow
  // equals the final w(e) totals the audit just recounted.
  std::int64_t wire_in_books = 0;
  for (tile::EdgeId e = 0; e < graph.edge_count(); ++e) {
    wire_in_books += graph.wire_usage(e);
  }
  EXPECT_EQ(counter_value(report, "wire.units_committed") -
                counter_value(report, "wire.units_removed"),
            wire_in_books);

  // Buffer book: commits minus removals equals b(v) in the books and
  // the final Table II row.
  const std::int64_t buffers_in_books = graph.stats().buffers_used;
  EXPECT_GT(buffers_in_books, 0);
  EXPECT_EQ(counter_value(report, "buffers.committed") -
                counter_value(report, "buffers.removed"),
            buffers_in_books);
  ASSERT_FALSE(report.stages.empty());
  EXPECT_EQ(report.stages.back().buffers, buffers_in_books);

  // Stage 2 accounting: every iteration classifies every net as ripped
  // or kept, and each ripped net is exactly one maze route.
  const std::int64_t nets = static_cast<std::int64_t>(design.nets().size());
  const std::int64_t iterations = counter_value(report, "stage2.iterations");
  EXPECT_GE(iterations, 1);
  const std::int64_t ripped = counter_value(report, "stage2.nets_ripped");
  const std::int64_t kept = counter_value(report, "stage2.nets_kept");
  EXPECT_EQ(ripped + kept, nets * iterations);
  EXPECT_EQ(counter_value(report, "maze.routes"), ripped);

  // Heap conservation: nothing popped that was never pushed.
  EXPECT_GT(counter_value(report, "maze.heap_pushes"), 0);
  EXPECT_LE(counter_value(report, "maze.heap_pops"),
            counter_value(report, "maze.heap_pushes"));
  // The bounded wavefront skips only pops that survived the stale
  // check, and on ami49 it does skip some.
  const std::int64_t bound_pops = counter_value(report, "maze.bound_pops");
  EXPECT_GT(bound_pops, 0);
  EXPECT_LE(bound_pops, counter_value(report, "maze.heap_pops") -
                            counter_value(report, "maze.stale_pops"));
  EXPECT_GT(counter_value(report, "twopath.searches"), 0);
  EXPECT_LE(counter_value(report, "twopath.heap_pops"),
            counter_value(report, "twopath.heap_pushes"));
  // Stage 4's dominance pruning and heuristic field both do real work.
  EXPECT_GT(counter_value(report, "twopath.labels_pruned"), 0);
  EXPECT_GT(counter_value(report, "twopath.field_pops"), 0);
  // Deferred A* keys: each deferred entry is resolved or dropped at most
  // once (some are still queued when the goal pops), and both paths ran.
  const std::int64_t resolved = counter_value(report, "twopath.keys_resolved");
  EXPECT_GT(resolved, 0);
  EXPECT_LE(resolved + counter_value(report, "twopath.keys_dropped"),
            counter_value(report, "twopath.keys_deferred"));

  // Every net ran the buffer DP at least once in stage 3 and once more
  // in the stage-4 re-buffering.
  EXPECT_GE(counter_value(report, "dp.nets"), 2 * nets);
  EXPECT_GT(counter_value(report, "dp.cells_computed"), 0);

  // The pops-per-route histogram saw exactly one observation per route.
  bool found_histogram = false;
  for (const core::RunReport::HistogramRow& h : report.histograms) {
    if (h.name != "maze.pops_per_route") continue;
    found_histogram = true;
    const std::int64_t observations =
        std::accumulate(h.buckets.begin(), h.buckets.end(), std::int64_t{0});
    EXPECT_EQ(observations, counter_value(report, "maze.routes"));
  }
  EXPECT_TRUE(found_histogram);

  // Utilization histograms cover every edge and tile exactly once.
  EXPECT_EQ(report.wire_utilization.total + report.wire_utilization.skipped,
            static_cast<std::int64_t>(graph.edge_count()));
  EXPECT_EQ(report.site_utilization.total + report.site_utilization.skipped,
            static_cast<std::int64_t>(graph.tile_count()));
  EXPECT_GT(report.site_utilization.max_utilization, 0.0);

  // Shape: one Table II row per stage, counters in catalogue order.
  ASSERT_EQ(report.stages.size(), 4u);
  EXPECT_EQ(report.stages.front().stage, "1");
  EXPECT_EQ(report.stages.back().stage, "4");
  EXPECT_EQ(report.counters.size(),
            static_cast<std::size_t>(obs::Counter::kCount));
  EXPECT_EQ(report.nets, nets);

  // And the whole thing survives the JSON round trip.
  std::ostringstream out;
  report.write_json(out);
  std::string error;
  const auto parsed = core::RunReport::parse(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->counters, report.counters);
  EXPECT_EQ(parsed->stages.size(), report.stages.size());
}

// Every counter is a count of work, not of scheduling: two runs of the
// same input at the same thread count snapshot identically, so a work
// ledger can compare them exactly.
TEST(ObsReportIntegration, CountersRepeatAtTwoThreads) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  obs::Registry& registry = obs::Registry::instance();
  const auto run = [&] {
    registry.set_level(obs::Level::kCounters);
    registry.reset();
    tile::TileGraph graph = circuits::build_tile_graph(design, spec);
    core::RabidOptions options;
    options.threads = 2;
    options.obs_level = obs::Level::kCounters;
    core::Rabid(design, graph, options).run_all();
    const obs::Snapshot snap = registry.snapshot();
    registry.set_level(obs::Level::kOff);
    registry.reset();
    return snap;
  };
  const obs::Snapshot first = run();
  const obs::Snapshot second = run();
  const auto pool = static_cast<std::size_t>(obs::Counter::kPoolIndices);
  EXPECT_GT(first.counters[pool], 0U);
  for (std::size_t c = 0; c < static_cast<std::size_t>(obs::Counter::kCount);
       ++c) {
    EXPECT_EQ(first.counters[c], second.counters[c])
        << obs::counter_name(static_cast<obs::Counter>(c));
  }
}

}  // namespace
}  // namespace rabid
