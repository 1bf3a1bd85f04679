// Hardened-flow coverage: structured Status errors out of the checked
// parsers and validators, cooperative deadlines returning audit-clean
// partial solutions, stage-granular checkpoint/resume (bit-identical by
// contract), and an in-process slice of the fault-injection catalogue
// that tools/fault_flow sweeps at scale.

#include "core/status.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "circuits/generator.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/specs.hpp"
#include "core/checkpoint.hpp"
#include "core/rabid.hpp"
#include "core/run_report.hpp"
#include "core/solution_io.hpp"
#include "core/validate.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/faults.hpp"
#include "netlist/io.hpp"
#include "netlist/validate.hpp"

namespace rabid::core {
namespace {

TEST(Status, FormatsCodeContextAndLine) {
  EXPECT_EQ(Status::ok().to_string(), "ok");
  const Status s = Status::invalid_input("malformed number '1e'", "design", 12);
  EXPECT_FALSE(s);
  EXPECT_EQ(s.to_string(), "error[invalid-input] design line 12: "
                           "malformed number '1e'");
  EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
}

TEST(Status, ExitCodesFollowTheTaxonomy) {
  EXPECT_EQ(Status::ok().exit_code(), 0);
  EXPECT_EQ(Status::invalid_input("x").exit_code(), 3);
  EXPECT_EQ(Status::io_error("x").exit_code(), 3);
  EXPECT_EQ(Status::failed_precondition("x").exit_code(), 3);
  EXPECT_EQ(Status::deadline_exceeded("x").exit_code(), 4);
}

TEST(Status, ResultCarriesValueOrError) {
  Result<int> good(41);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 41);
  Result<int> bad(Status::io_error("disk on fire", "out.sol"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  EXPECT_NE(bad.status().to_string().find("out.sol"), std::string::npos);
}

// ---------------------------------------------------------------------
// Checked parsing: hostile design text becomes a structured error with
// a source line, never an abort or undefined behavior.

Status parse_error(const std::string& text) {
  Result<netlist::Design> r = netlist::design_from_string_checked(text);
  return r.ok() ? Status::ok() : r.status();
}

constexpr const char* kTinyDesign =
    "design t\n"
    "outline 0 0 100 100\n"
    "length_limit 4\n"
    "net n0\n"
    "  source 10 10 pad\n"
    "  sink 90 90 pad\n"
    "end\n";

TEST(CheckedParse, AcceptsAValidDesign) {
  Result<netlist::Design> r = netlist::design_from_string_checked(kTinyDesign);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().nets().size(), 1u);
}

TEST(CheckedParse, RejectsHostileInputsWithLineNumbers) {
  // Inverted rectangle corners used to trip geom::Rect's assert.
  Status s = parse_error("design t\noutline 100 100 0 0\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
  EXPECT_EQ(s.line(), 2);

  EXPECT_FALSE(parse_error("design t\noutline 0 0 nan 100\n"));
  EXPECT_FALSE(parse_error("design t\noutline 0 0 1e500 100\n"));
  EXPECT_FALSE(parse_error(std::string(kTinyDesign) + "zzz 1 2\n"));
  EXPECT_FALSE(parse_error(  // net body truncated mid-file
      "design t\noutline 0 0 9 9\nnet n0\n  source 1 1 pad\n"));
  EXPECT_FALSE(parse_error(  // net width must be a sane integer
      "design t\noutline 0 0 9 9\nnet n0 4 -3\n  source 1 1 pad\nend\n"));
  EXPECT_FALSE(parse_error(  // pin outside the outline
      "design t\noutline 0 0 9 9\nnet n0\n  source 1 1 pad\n"
      "  sink 500 1 pad\nend\n"));
  EXPECT_FALSE(parse_error(  // duplicate sink pins
      "design t\noutline 0 0 9 9\nnet n0\n  source 1 1 pad\n"
      "  sink 5 5 pad\n  sink 5 5 pad\nend\n"));
}

TEST(ValidateInputs, RejectsPreSeededBooks) {
  const circuits::RandomCircuit circuit(3);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  EXPECT_TRUE(validate_inputs(design, graph));

  graph.add_buffer(0);
  graph.set_site_supply(0, 0);  // b(v) = 1 > B(v) = 0
  const Status s = validate_inputs(design, graph);
  ASSERT_FALSE(s);
  EXPECT_EQ(s.code(), StatusCode::kInvalidInput);
}

// ---------------------------------------------------------------------
// Deadlines: expiry yields an honest, audit-clean partial solution.

TEST(Deadline, ExpiryKeepsALegalPartialSolution) {
  const circuits::RandomCircuit circuit(1);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);

  RabidOptions opt;
  opt.threads = 2;
  opt.deadline_ms = 0.01;  // expires during stage 1
  opt.audit_level = AuditLevel::kFinal;
  Rabid rabid(design, graph, opt);
  rabid.run_all();

  EXPECT_TRUE(rabid.timed_out());
  EXPECT_GT(rabid.nets_cancelled(), 0);
  ASSERT_NE(rabid.last_audit(), nullptr);
  EXPECT_TRUE(rabid.last_audit()->clean()) << rabid.last_audit()->summary();

  const RunReport report = rabid.run_report();
  EXPECT_EQ(report.verdict, "timed_out");
  EXPECT_EQ(report.nets_cancelled, rabid.nets_cancelled());

  // The partial dump (with its "unrouted" nets) survives the strict
  // reader and restores into a fresh instance.
  std::stringstream dump;
  write_solution(dump, design, graph, rabid.nets());
  Result<LoadedSolution> loaded = read_solution_checked(dump, design, graph);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  tile::TileGraph graph2 = circuit.graph(design);
  Rabid restored(design, graph2, {});
  EXPECT_TRUE(restored.restore_solution(loaded.value(), 1));
}

TEST(Deadline, NoDeadlineMeansNoTimeout) {
  const circuits::RandomCircuit circuit(2);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  Rabid rabid(design, graph, {});
  rabid.run_all();
  EXPECT_FALSE(rabid.timed_out());
  EXPECT_EQ(rabid.nets_cancelled(), 0);
  EXPECT_EQ(rabid.run_report().verdict, "ok");
}

// A budget past the steady clock's range (about 9.2e12 ms) used to
// overflow the cast to clock ticks and land the deadline in the past.
TEST(Deadline, BudgetBeyondTheClockRangeNeverExpires) {
  const circuits::RandomCircuit circuit(2);
  const netlist::Design design = circuit.design();
  for (const double budget :
       {1e13, std::numeric_limits<double>::infinity()}) {
    tile::TileGraph graph = circuit.graph(design);
    RabidOptions opt;
    opt.deadline_ms = budget;
    Rabid rabid(design, graph, opt);
    rabid.run_all();
    EXPECT_FALSE(rabid.timed_out()) << budget;
    EXPECT_EQ(rabid.nets_cancelled(), 0) << budget;
    EXPECT_EQ(rabid.run_report().verdict, "ok") << budget;
  }
}

// ---------------------------------------------------------------------
// Checkpoint/resume: resuming any stage reproduces the straight run
// bit for bit.

/// Runs stages 1-4 straight, checkpointing after `stage`, resumes a
/// fresh instance from that checkpoint, and expects the same solution.
void expect_resume_bit_identical(const netlist::Design& design,
                                 const tile::TileGraph& fresh_graph,
                                 const RabidOptions& options, int stage) {
  const std::string dir =
      testing::TempDir() + "rabid-checkpoint-resume-test";
  std::filesystem::create_directories(dir);

  tile::TileGraph ref_graph = fresh_graph;
  Rabid reference(design, ref_graph, options);
  reference.run_stage1();
  if (stage == 1) {
    ASSERT_TRUE(write_checkpoint(dir, reference, 1));
  }
  reference.run_stage2();
  if (stage == 2) {
    ASSERT_TRUE(write_checkpoint(dir, reference, 2));
  }
  reference.run_stage3();
  if (stage == 3) {
    ASSERT_TRUE(write_checkpoint(dir, reference, 3));
  }
  reference.run_stage4();

  Result<CheckpointManifest> manifest = read_checkpoint_manifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().to_string();
  EXPECT_EQ(manifest.value().stage, stage);
  EXPECT_EQ(manifest.value().design, design.name());

  tile::TileGraph graph = fresh_graph;
  Rabid resumed(design, graph, options);
  int completed = 0;
  ASSERT_TRUE(resume_from_checkpoint(dir, resumed, &completed));
  EXPECT_EQ(completed, stage);
  if (completed < 2) resumed.run_stage2();
  if (completed < 3) resumed.run_stage3();
  resumed.run_stage4();

  const fuzz::SolutionDiff diff = fuzz::diff_solutions(
      design, ref_graph, reference.nets(), graph, resumed.nets());
  EXPECT_TRUE(diff.identical())
      << diff.total << " differences, first: "
      << (diff.entries.empty() ? "" : diff.entries.front());
  std::ostringstream want;
  std::ostringstream got;
  write_solution(want, design, ref_graph, reference.nets());
  write_solution(got, design, graph, resumed.nets());
  EXPECT_TRUE(got.str() == want.str()) << "solution dumps differ";
  EXPECT_TRUE(resumed.audit().clean());

  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ResumeIsBitIdentical) {
  {
    SCOPED_TRACE("unit library, after stage 2");
    const circuits::RandomCircuit circuit(5);
    const netlist::Design design = circuit.design();
    expect_resume_bit_identical(design, circuit.graph(design), {}, 2);
  }
  {
    // The stage-3 dump carries multi-type cell names; the resumed run
    // must read them back against its own library.
    SCOPED_TRACE("paper4 library, after stage 3");
    const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
    const netlist::Design design = circuits::generate_design(spec);
    RabidOptions options;
    ASSERT_TRUE(
        buffer::BufferLibrary::preset("paper4", &options.buffer_library));
    expect_resume_bit_identical(
        design, circuits::build_tile_graph(design, spec), options, 3);
  }
}

TEST(Checkpoint, HostileManifestsAreStructuredErrors) {
  const circuits::RandomCircuit circuit(5);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  Rabid rabid(design, graph, {});

  EXPECT_EQ(resume_from_checkpoint("/nonexistent/rabid-ckpt", rabid).code(),
            StatusCode::kIoError);
  EXPECT_FALSE(write_checkpoint("/nonexistent/rabid-ckpt", rabid, 1));
  EXPECT_FALSE(write_checkpoint(testing::TempDir(), rabid, 0));
  EXPECT_FALSE(write_checkpoint(testing::TempDir(), rabid, 5));
}

// ---------------------------------------------------------------------
// Fault injection and robustness fuzz, in-process slices of what
// tools/fault_flow and tools/fuzz_flow sweep at scale.

TEST(FaultInjection, CircuitMutantsHonorTheContract) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const fuzz::FaultReport r = fuzz::fuzz_circuit_faults(seed);
    EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures.front());
    EXPECT_GT(r.injected, 20);
    EXPECT_GT(r.structured_errors, 0);
  }
}

TEST(FaultInjection, SolutionMutantsHonorTheContract) {
  const fuzz::FaultReport r = fuzz::fuzz_solution_faults(1);
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_GT(r.injected, 10);
  EXPECT_GT(r.structured_errors, 0);
  EXPECT_GT(r.clean_runs, 0);  // the identity dump round-trips
}

TEST(FaultInjection, GraphLiesHonorTheContract) {
  const fuzz::FaultReport r = fuzz::fuzz_graph_faults(1);
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_GT(r.structured_errors, 0);  // pre-seeded books rejected
  EXPECT_GT(r.clean_runs, 0);         // zeroed capacities degrade cleanly
}

TEST(FaultInjection, IoFaultsHonorTheContract) {
  const fuzz::FaultReport r = fuzz::fuzz_io_faults(1, testing::TempDir());
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_GE(r.injected, 20);
  EXPECT_GT(r.clean_runs, 0);  // the happy-path resume still works
}

TEST(RobustnessFuzz, DeadlinesAndResumesSurviveOneSeed) {
  const fuzz::RobustnessResult r = fuzz::run_robustness(1, testing::TempDir());
  EXPECT_TRUE(r.ok()) << r.describe();
  EXPECT_TRUE(r.deadline_expired);  // the sweep actually hit expiry
}

}  // namespace
}  // namespace rabid::core
