#include <gtest/gtest.h>

#include <span>
#include <sstream>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/solution_io.hpp"
#include "fuzz/differential.hpp"

namespace rabid {
namespace {

/// The solution dump must be lossless: save -> load -> audit produces a
/// violation-free report, and the loaded solution diffs node-for-node
/// identical to the one that was saved — trees, buffer roles, flags,
/// and bit-exact delays (the reader re-evaluates with the same
/// arithmetic the flow commits).

struct RoundTrip {
  core::LoadedSolution loaded;
  fuzz::SolutionDiff diff;
  core::AuditReport audit;
};

RoundTrip round_trip(const netlist::Design& design,
                     const tile::TileGraph& graph, const core::Rabid& rabid,
                     std::span<const buffer::BufferLibrary> libraries) {
  std::stringstream io;
  core::write_solution(io, design, graph, rabid.nets());
  RoundTrip rt;
  rt.loaded = core::read_solution_checked(io, design, graph, libraries,
                                          rabid.options().tech)
                  .value();
  rt.diff = fuzz::diff_solutions(design, graph, rabid.nets(), graph,
                                 rt.loaded.nets);
  rt.audit = core::SolutionAuditor(design, graph).audit(rt.loaded.nets);
  return rt;
}

TEST(SolutionRoundTrip, FullFlowSurvivesSaveLoadAudit) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();

  const RoundTrip rt = round_trip(design, graph, rabid, {});
  EXPECT_EQ(rt.loaded.design, design.name());
  EXPECT_EQ(rt.loaded.nets.size(), design.nets().size());
  EXPECT_TRUE(rt.diff.identical()) << rt.diff.entries.front();
  EXPECT_TRUE(rt.audit.clean()) << rt.audit.summary();

  // The loaded solution's audit is *equivalent* to the original's: the
  // same coverage, the same (empty) violation list.
  const core::AuditReport original = rabid.audit();
  EXPECT_TRUE(original.clean());
  EXPECT_EQ(rt.audit.checks_run, original.checks_run);
  EXPECT_EQ(rt.audit.nets_audited, original.nets_audited);
  EXPECT_EQ(rt.audit.violations.size(), original.violations.size());
}

TEST(SolutionRoundTrip, SizedBuffersSurviveViaTheLibrary) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("xerox");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();
  const buffer::BufferLibrary library =
      buffer::BufferLibrary::standard_180nm();
  rabid.rebuffer_timing_driven(6, library.buffers_only());

  const RoundTrip rt = round_trip(design, graph, rabid, {&library, 1});
  EXPECT_TRUE(rt.diff.identical())
      << (rt.diff.entries.empty() ? "" : rt.diff.entries.front());
  EXPECT_TRUE(rt.audit.clean()) << rt.audit.summary();
  // At least one net actually carries sized buffers, or the test is a
  // no-op.
  bool sized = false;
  for (const core::NetState& n : rt.loaded.nets) {
    if (!n.buffer_types.empty()) sized = true;
  }
  EXPECT_TRUE(sized);
}

TEST(SolutionRoundTrip, SecondGenerationDumpIsByteIdentical) {
  // Fixed point after one generation: dumping the loaded solution must
  // reproduce the first dump byte for byte.
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();

  std::stringstream first;
  core::write_solution(first, design, graph, rabid.nets());
  const core::LoadedSolution loaded =
      core::read_solution_checked(first, design, graph).value();
  std::stringstream second;
  core::write_solution(second, design, graph, loaded.nets);
  EXPECT_EQ(first.str(), second.str());
}

}  // namespace
}  // namespace rabid
