// Hardened-flow coverage: structured Status errors out of the checked
// parsers and validators, cooperative deadlines returning audit-clean
// partial solutions, stage-granular checkpoint/resume (bit-identical by
// contract), and an in-process slice of the fault-injection catalogue
// that tools/fault_flow sweeps at scale.

#include "core/status.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
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
  // Finite but extreme: the tile graph's derived extents overflow.
  EXPECT_FALSE(parse_error(
      "design t\noutline 0 -1e308 1517.6 1517.6\nnet n0\n"
      "  source 1 1 pad\n  sink 5 5 pad\nend\n"));
  EXPECT_FALSE(parse_error(std::string(kTinyDesign) + "zzz 1 2\n"));
  EXPECT_FALSE(parse_error(  // net body truncated mid-file
      "design t\noutline 0 0 9 9\nnet n0\n  source 1 1 pad\n"));
  EXPECT_FALSE(parse_error(  // net width must be a sane integer
      "design t\noutline 0 0 9 9\nnet n0 4 -3\n  source 1 1 pad\nend\n"));
  EXPECT_FALSE(parse_error(  // pin outside the outline
      "design t\noutline 0 0 9 9\nnet n0\n  source 1 1 pad\n"
      "  sink 500 1 pad\nend\n"));
  EXPECT_TRUE(parse_error(  // duplicate sink pins are valid input
      "design t\noutline 0 0 9 9\nnet n0\n  source 1 1 pad\n"
      "  sink 5 5 pad\n  sink 5 5 pad\nend\n"));
}

/// Each grammar error is a Status naming the fault and the line it was
/// found on.
TEST(CheckedParse, ReportsGrammarErrorsWithMessagesAndLines) {
  struct Case {
    const char* text;
    const char* message;
    int line;
  };
  const Case cases[] = {
      {"garbage line\n", "unknown directive", 1},
      {"design x\n", "missing outline", 1},
      {"design x\noutline 0 0 10 10\nnet n\n  source 1 1 free\n",
       "unterminated net", 4},
      {"design x\noutline 0 0 10 10\nnet n\n  source 1 1 bogus\nend\n",
       "unknown pin kind", 4},
  };
  for (const Case& c : cases) {
    const Status s = parse_error(c.text);
    ASSERT_FALSE(s) << c.text;
    EXPECT_EQ(s.code(), StatusCode::kInvalidInput) << c.text;
    EXPECT_NE(s.message().find(c.message), std::string::npos)
        << s.to_string();
    EXPECT_EQ(s.line(), c.line) << s.to_string();
  }
}

/// A given default length_limit is applied as written: 0 or a negative
/// value is a Status on the directive's line, not a silent default.
TEST(CheckedParse, RejectsABadDefaultLengthLimitOnItsLine) {
  for (const char* limit : {"-3", "0"}) {
    const Status s =
        parse_error(std::string("design t\noutline 0 0 100 100\n") +
                    "length_limit " + limit +
                    "\nnet n0\n  source 10 10 pad\n  sink 90 90 pad\nend\n");
    ASSERT_FALSE(s) << limit;
    EXPECT_EQ(s.code(), StatusCode::kInvalidInput) << limit;
    EXPECT_NE(s.message().find("default length_limit"), std::string::npos)
        << s.to_string();
    EXPECT_EQ(s.line(), 3) << s.to_string();
  }
  Result<netlist::Design> one = netlist::design_from_string_checked(
      "design t\noutline 0 0 100 100\nlength_limit 1\n");
  ASSERT_TRUE(one.ok()) << one.status().to_string();
  EXPECT_EQ(one.value().default_length_limit(), 1);
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
  {
    SCOPED_TRACE("xerox, 4 stage-2 shards on 2 threads, after stage 2");
    const circuits::CircuitSpec& spec = circuits::spec_by_name("xerox");
    const netlist::Design design = circuits::generate_design(spec);
    RabidOptions options;
    options.stage2_shards = 4;
    options.threads = 2;
    expect_resume_bit_identical(
        design, circuits::build_tile_graph(design, spec), options, 2);
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

  // A retired mid-stage-2 checkpoint: a valid stage-1 dump plus a
  // well-formed progress sidecar, named by the manifest's
  // "stage2_progress" key.  Read as a completed stage 1 it would re-run
  // stage 2 from trees no straight run produces, so it is rejected.
  const std::string dir = testing::TempDir() + "rabid-legacy-manifest-test";
  std::filesystem::create_directories(dir);
  tile::TileGraph written = circuit.graph(design);
  Rabid writer(design, written, {});
  writer.run_stage1();
  ASSERT_TRUE(write_checkpoint(dir, writer, 1));
  {
    std::ofstream progress(dir + "/stage2.progress");
    progress << "rabid.stage2.progress.v1\niteration 0\nnext_pos 0\n"
             << "min_cost 0\norder " << design.nets().size() << "\n";
    for (std::size_t i = 0; i < design.nets().size(); ++i) {
      progress << i << "\n";
    }
    progress << "snapshot 0\ndirty 0\n";
  }
  const auto write_manifest = [&](bool legacy) {
    std::ofstream out(dir + "/manifest.json");
    out << "{\"schema\": \"rabid.checkpoint.v1\", \"design\": \""
        << design.name() << "\", \"grid\": {\"nx\": " << written.nx()
        << ", \"ny\": " << written.ny() << "}, \"stage\": 1, "
        << "\"books_fingerprint\": \"" << books_fingerprint(written)
        << "\", \"solution\": \"stage1.sol\"";
    if (legacy) out << ", \"stage2_progress\": \"stage2.progress\"";
    out << "}\n";
  };
  write_manifest(/*legacy=*/true);
  const Result<CheckpointManifest> legacy = read_checkpoint_manifest(dir);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(legacy.status().to_string().find("stage2_progress"),
            std::string::npos)
      << legacy.status().to_string();
  tile::TileGraph resumed_graph = circuit.graph(design);
  Rabid resumed(design, resumed_graph, {});
  const Status restored = resume_from_checkpoint(dir, resumed);
  EXPECT_EQ(restored.code(), StatusCode::kInvalidInput);
  EXPECT_EQ(restored.exit_code(), 3);
  EXPECT_EQ(resumed_graph.stats().buffers_used, 0);
  EXPECT_TRUE(resumed.nets().front().tree.empty());

  // The same dump behind a stage-boundary manifest resumes cleanly.
  write_manifest(/*legacy=*/false);
  tile::TileGraph clean_graph = circuit.graph(design);
  Rabid clean(design, clean_graph, {});
  EXPECT_TRUE(resume_from_checkpoint(dir, clean));
  std::filesystem::remove_all(dir);
}

/// The stale-checkpoint guard: a dump's usage replayed onto books whose
/// W(e) or B(v) changed (an ECO between checkpoint and resume) is a
/// different problem, so resuming is rejected with
/// error[stale-checkpoint] instead of producing a quietly divergent plan.
TEST(Checkpoint, PerturbedBooksRejectStaleCheckpoint) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("xerox");
  const netlist::Design design = circuits::generate_design(spec);
  const std::string dir = testing::TempDir() + "rabid-stale-checkpoint-test";
  std::filesystem::create_directories(dir);
  tile::TileGraph written = circuits::build_tile_graph(design, spec);
  Rabid writer(design, written, {});
  writer.run_stage1();
  writer.run_stage2();
  ASSERT_TRUE(write_checkpoint(dir, writer, 2));
  const Result<CheckpointManifest> manifest = read_checkpoint_manifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().to_string();
  EXPECT_EQ(manifest.value().books_fingerprint, books_fingerprint(written));

  // Perturb one edge's capacity in the graph we resume onto — exactly
  // what an ECO does between checkpoint and resume.
  tile::TileGraph perturbed = circuits::build_tile_graph(design, spec);
  perturbed.set_wire_capacity(0, perturbed.wire_capacity(0) + 1);
  EXPECT_NE(books_fingerprint(perturbed), manifest.value().books_fingerprint);
  Rabid resumed(design, perturbed, {});
  const Status restored = resume_from_checkpoint(dir, resumed);
  ASSERT_FALSE(restored.ok_status());
  EXPECT_EQ(restored.code(), StatusCode::kStaleCheckpoint);
  EXPECT_NE(restored.to_string().find("error[stale-checkpoint]"),
            std::string::npos)
      << restored.to_string();
  EXPECT_EQ(restored.exit_code(), 3);

  // Unperturbed books still resume cleanly.
  tile::TileGraph fresh = circuits::build_tile_graph(design, spec);
  Rabid clean(design, fresh, {});
  EXPECT_TRUE(resume_from_checkpoint(dir, clean).ok_status());
  std::filesystem::remove_all(dir);
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

/// Seed 9 poisons an outline corner with -1e308: the checked parse used
/// to accept it, and the tile graph then tripped geom::Rect's assert.
TEST(FaultInjection, ExtremeOutlineMutantIsAStructuredError) {
  const fuzz::FaultReport r = fuzz::fuzz_circuit_faults(9);
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_GT(r.structured_errors, 0);
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

/// Seed 14 draws a siteless tile for the pre-seeded b(v) > B(v) book:
/// the injection itself used to trip TileGraph::add_buffer's assert.
TEST(FaultInjection, PreSeededBookOnASitelessTile) {
  const fuzz::FaultReport r = fuzz::fuzz_graph_faults(14);
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_GT(r.structured_errors, 0);
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
