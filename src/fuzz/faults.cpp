#include "fuzz/faults.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/audit.hpp"
#include "core/checkpoint.hpp"
#include "core/rabid.hpp"
#include "core/solution_io.hpp"
#include "core/status.hpp"
#include "core/validate.hpp"
#include "netlist/io.hpp"
#include "obs/counters.hpp"
#include "util/rng.hpp"

namespace rabid::fuzz {

namespace {

namespace fs = std::filesystem;

void record_injection(FaultReport& report) {
  ++report.injected;
  obs::count(obs::Counter::kFaultsInjected);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// Replaces the `index`-th numeric token (0-based, document order) with
/// `poison`; returns false when the text has fewer numbers than that.
bool poison_number(std::string& text, std::size_t index,
                   const std::string& poison) {
  std::size_t seen = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    const bool starts_number =
        (std::isdigit(static_cast<unsigned char>(text[i])) != 0 ||
         (text[i] == '-' && i + 1 < text.size() &&
          std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0)) &&
        (i == 0 || text[i - 1] == ' ' || text[i - 1] == '\n');
    if (!starts_number) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
    if (seen == index) {
      text.replace(i, end - i, poison);
      return true;
    }
    ++seen;
    i = end;
  }
  return false;
}

/// Pushes one (possibly mutated) design text through the full hardened
/// pipeline: checked parse+validate, then — when the mutant survives as
/// a *valid* design — the deadline-bounded flow plus the final audit.
void check_design_text(const std::string& text, const std::string& fault,
                       const circuits::RandomCircuit& circuit,
                       const FaultOptions& options, FaultReport& report) {
  record_injection(report);
  core::Result<netlist::Design> parsed =
      netlist::design_from_string_checked(text);
  if (!parsed.ok()) {
    if (parsed.status().message().empty()) {
      report.failures.push_back(fault + ": error with an empty message");
    } else {
      ++report.structured_errors;
    }
    return;
  }
  // The mutant passed every validity check, so it is a legal circuit by
  // definition and the flow must handle it: bounded wall clock, final
  // audit clean (deadline allowances included).
  netlist::Design design = parsed.take();
  tile::TileGraph graph = circuit.graph(design);
  if (core::Status s = core::validate_inputs(design, graph); !s) {
    ++report.structured_errors;
    return;
  }
  core::RabidOptions opt;
  opt.threads = options.threads;
  opt.deadline_ms = options.flow_deadline_ms;
  opt.audit_level = core::AuditLevel::kFinal;
  core::Rabid rabid(design, graph, opt);
  rabid.run_all();
  const core::AuditReport* audit = rabid.last_audit();
  if (audit == nullptr || !audit->clean()) {
    report.failures.push_back(
        fault + ": flow on surviving mutant is not audit-clean" +
        (audit != nullptr ? " (" + audit->summary() + ")" : ""));
    return;
  }
  ++report.clean_runs;
}

}  // namespace

void FaultReport::merge(const FaultReport& other) {
  injected += other.injected;
  structured_errors += other.structured_errors;
  clean_runs += other.clean_runs;
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
}

FaultReport fuzz_circuit_faults(std::uint64_t seed,
                                const FaultOptions& options) {
  FaultReport report;
  const circuits::RandomCircuit circuit(seed, options.circuit);
  const netlist::Design design = circuit.design();
  std::ostringstream dump;
  netlist::write_design(dump, design);
  const std::string text = dump.str();
  const std::vector<std::string> lines = split_lines(text);
  util::Rng rng(seed ^ util::Rng::hash("circuit-faults"));

  // Truncations: mid-file and mid-token.
  for (int k = 0; k < 3; ++k) {
    const auto cut = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(text.size()) - 1));
    check_design_text(text.substr(0, cut), "truncate@" + std::to_string(cut),
                      circuit, options, report);
  }

  // Poisoned numerics: NaN, infinities, out-of-range magnitudes.
  for (const char* poison :
       {"nan", "inf", "-inf", "1e308", "-1e308", "1e-400",
        "99999999999999999999", "0x12", "3.5.7"}) {
    std::string mutated = text;
    const auto index = static_cast<std::size_t>(rng.uniform_int(0, 40));
    if (!poison_number(mutated, index, poison)) {
      poison_number(mutated, 0, poison);
    }
    check_design_text(mutated, std::string("poison:") + poison, circuit,
                      options, report);
  }

  // Duplicate a sink pin.  Repeated sink locations are valid input
  // (netlist/validate.hpp), so this mutant must plan audit-clean.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("  sink ") == 0) {
      std::vector<std::string> mutated = lines;
      mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
      check_design_text(join_lines(mutated), "duplicate-sink", circuit,
                        options, report);
      break;
    }
  }

  // Drop a random structural line (may remove `end`, a source, ...).
  for (int k = 0; k < 3; ++k) {
    const auto drop = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(lines.size()) - 1));
    std::vector<std::string> mutated = lines;
    mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(drop));
    check_design_text(join_lines(mutated), "drop-line@" + std::to_string(drop),
                      circuit, options, report);
  }

  // Insert garbage directives.
  for (const char* garbage :
       {"zzz 1 2 3", "net", "sink 1 2 pad", "block half a loaf"}) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(lines.size())));
    std::vector<std::string> mutated = lines;
    mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at),
                   garbage);
    check_design_text(join_lines(mutated), std::string("garbage:") + garbage,
                      circuit, options, report);
  }

  // Semantic lies that parse but must fail validation.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("outline ", 0) == 0) {
      std::vector<std::string> mutated = lines;
      mutated[i] = "outline 0 0 0 0";
      check_design_text(join_lines(mutated), "degenerate-outline", circuit,
                        options, report);
      mutated[i] = "outline 100 100 0 0";
      check_design_text(join_lines(mutated), "inverted-outline", circuit,
                        options, report);
      break;
    }
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("net ", 0) == 0) {
      std::vector<std::string> mutated = lines;
      std::istringstream header(lines[i]);
      std::string cmd, name;
      header >> cmd >> name;
      mutated[i] = "net " + name + " 5 -3";
      check_design_text(join_lines(mutated), "negative-width", circuit,
                        options, report);
      mutated[i] = "net " + name + " -1";
      check_design_text(join_lines(mutated), "negative-limit", circuit,
                        options, report);
      break;
    }
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("  sink ") == 0) {
      std::vector<std::string> mutated = lines;
      mutated[i] = "  sink 1e7 1e7 pad";
      check_design_text(join_lines(mutated), "pin-outside-outline", circuit,
                        options, report);
      break;
    }
  }

  // Random byte flips (parse errors or benign, never crashes).
  for (int k = 0; k < 6; ++k) {
    std::string mutated = text;
    const auto at = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[at] = static_cast<char>(rng.uniform_int(1, 126));
    check_design_text(mutated, "byte-flip@" + std::to_string(at), circuit,
                      options, report);
  }

  return report;
}

namespace {

/// One mutated solution text against the strict reader + restore path.
/// Contract: a structured parse/restore error, or a restore whose books
/// are consistent (the auditor's integrity recount agrees — a lying
/// `ok` flag is the *auditor's* catch, not corruption).
void check_solution_text(const std::string& text, const std::string& fault,
                         const netlist::Design& design,
                         const circuits::RandomCircuit& circuit,
                         FaultReport& report) {
  record_injection(report);
  std::istringstream in(text);
  tile::TileGraph graph = circuit.graph(design);
  core::Result<core::LoadedSolution> loaded =
      core::read_solution_checked(in, design, graph);
  if (!loaded.ok()) {
    ++report.structured_errors;
    return;
  }
  core::Rabid restored(design, graph, {});
  if (core::Status s = restored.restore_solution(loaded.value(), 4); !s) {
    ++report.structured_errors;
    return;
  }
  // The audit must run to completion on hostile inputs; books out of
  // sync after a successful restore is silent corruption.
  for (const core::AuditViolation& v : restored.audit().violations) {
    if (v.check == core::AuditCheck::kWireBooks ||
        v.check == core::AuditCheck::kBufferBooks) {
      report.failures.push_back(fault + ": books out of sync after a restore");
      return;
    }
  }
  ++report.clean_runs;
}

}  // namespace

FaultReport fuzz_solution_faults(std::uint64_t seed,
                                 const FaultOptions& options) {
  FaultReport report;
  const circuits::RandomCircuit circuit(seed, options.circuit);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  core::RabidOptions opt;
  opt.threads = options.threads;
  opt.deadline_ms = options.flow_deadline_ms;
  core::Rabid rabid(design, graph, opt);
  rabid.run_all();
  std::ostringstream dump;
  core::write_solution(dump, design, graph, rabid.nets());
  const std::string text = dump.str();
  const std::vector<std::string> lines = split_lines(text);
  util::Rng rng(seed ^ util::Rng::hash("solution-faults"));

  // The unmutated dump must round-trip (the baseline the mutants
  // deviate from).
  check_solution_text(text, "identity", design, circuit, report);

  for (int k = 0; k < 4; ++k) {
    const auto cut = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(text.size()) - 1));
    check_solution_text(text.substr(0, cut),
                        "truncate@" + std::to_string(cut), design, circuit,
                        report);
  }

  // Teleporting arc: rewrite an arc's child tile to a far corner.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("  arc ") == 0) {
      std::vector<std::string> mutated = lines;
      std::istringstream arc(lines[i]);
      std::string cmd;
      int ax, ay, bx, by;
      arc >> cmd >> ax >> ay >> bx >> by;
      mutated[i] = "  arc " + std::to_string(ax) + ' ' + std::to_string(ay) +
                   " 999 999";
      check_solution_text(join_lines(mutated), "arc-out-of-grid", design,
                          circuit, report);
      mutated[i] = "  arc " + std::to_string(ax) + ' ' + std::to_string(ay) +
                   ' ' + std::to_string(graph.nx() - 1) + ' ' +
                   std::to_string(graph.ny() - 1);
      check_solution_text(join_lines(mutated), "arc-non-adjacent", design,
                          circuit, report);
      // Revisit: duplicate the arc, re-entering its own child tile.
      mutated = lines;
      mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
      check_solution_text(join_lines(mutated), "arc-revisits-tile", design,
                          circuit, report);
      break;
    }
  }

  // Buffer off the tree / buffer flood (capacity lie).
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("net ", 0) == 0) {
      std::vector<std::string> mutated = lines;
      mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     "  buffer 999 999 drive");
      check_solution_text(join_lines(mutated), "buffer-out-of-grid", design,
                          circuit, report);
      std::vector<std::string> flood = lines;
      for (int k = 0; k < 5000; ++k) {
        flood.insert(flood.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     "  buffer 0 0 drive");
      }
      check_solution_text(join_lines(flood), "buffer-flood", design, circuit,
                          report);
      break;
    }
  }

  // Lying metadata.
  {
    std::vector<std::string> mutated = lines;
    for (std::string& line : mutated) {
      if (line.rfind("solution ", 0) == 0) {
        line = "solution some-other-design 999 999";
        break;
      }
    }
    check_solution_text(join_lines(mutated), "wrong-design-header", design,
                        circuit, report);
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("net ", 0) == 0) {
      std::vector<std::string> mutated = lines;
      mutated[i] += "field";  // "ok" -> "okfield" etc.
      check_solution_text(join_lines(mutated), "bad-net-status", design,
                          circuit, report);
      break;
    }
  }

  // Random byte flips.
  for (int k = 0; k < 6; ++k) {
    std::string mutated = text;
    const auto at = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[at] = static_cast<char>(rng.uniform_int(1, 126));
    check_solution_text(mutated, "byte-flip@" + std::to_string(at), design,
                        circuit, report);
  }

  return report;
}

FaultReport fuzz_graph_faults(std::uint64_t seed,
                              const FaultOptions& options) {
  FaultReport report;
  const circuits::RandomCircuit circuit(seed, options.circuit);
  const netlist::Design design = circuit.design();
  util::Rng rng(seed ^ util::Rng::hash("graph-faults"));

  // Capacity lies the flow must degrade through: W(e)=0 edges and
  // B(v)=0 tiles.  The solution stays integrity-consistent; overflow on
  // zeroed resources is honest scarcity, not corruption.
  {
    record_injection(report);
    tile::TileGraph graph = circuit.graph(design);
    for (tile::EdgeId e = 0; e < graph.edge_count(); ++e) {
      if (rng.chance(0.15)) graph.set_wire_capacity(e, 0);
    }
    for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
      if (rng.chance(0.3)) graph.set_site_supply(t, 0);
    }
    core::RabidOptions opt;
    opt.threads = options.threads;
    opt.deadline_ms = options.flow_deadline_ms;
    core::Rabid rabid(design, graph, opt);
    rabid.run_all();
    core::AuditOptions audit_opt;
    audit_opt.wire_overflow_severity = core::AuditSeverity::kWarning;
    const core::AuditReport audit =
        core::SolutionAuditor(design, graph, audit_opt).audit(rabid.nets());
    if (!audit.clean()) {
      report.failures.push_back(
          "zeroed-capacity flow lost integrity: " + audit.summary());
    } else {
      ++report.clean_runs;
    }
  }

  // Pre-seeded books: b(v) > B(v) and non-empty usage must both be
  // rejected before the flow starts.
  {
    record_injection(report);
    tile::TileGraph graph = circuit.graph(design);
    const tile::TileId t = static_cast<tile::TileId>(rng.uniform_int(
        0, static_cast<std::int64_t>(graph.tile_count()) - 1));
    // Unchecked: the tile may have no site at all (add_buffer asserts).
    graph.add_buffer_unchecked(t);
    graph.set_site_supply(t, 0);  // b(v)=1 > B(v)=0
    if (core::Status s = core::validate_inputs(design, graph); !s) {
      ++report.structured_errors;
    } else {
      report.failures.push_back(
          "b(v) > B(v) seed passed input validation");
    }
  }
  {
    record_injection(report);
    tile::TileGraph graph = circuit.graph(design);
    graph.add_wire(0);
    if (core::Status s = core::validate_inputs(design, graph); !s) {
      ++report.structured_errors;
    } else {
      report.failures.push_back("non-empty wire book passed validation");
    }
  }
  // An undersized graph that does not cover the outline.
  {
    record_injection(report);
    const geom::Rect outline = design.outline();
    tile::TileGraph graph(
        geom::Rect{outline.lo(),
                   {outline.lo().x + outline.width() * 0.5,
                    outline.lo().y + outline.height() * 0.5}},
        4, 4);
    if (core::Status s = core::validate_inputs(design, graph); !s) {
      ++report.structured_errors;
    } else {
      report.failures.push_back(
          "tile graph not covering the outline passed validation");
    }
  }
  return report;
}

namespace {

void expect_error(core::Status s, const std::string& fault,
                  FaultReport& report) {
  record_injection(report);
  if (!s && !s.message().empty()) {
    ++report.structured_errors;
  } else if (!s) {
    report.failures.push_back(fault + ": error with an empty message");
  } else {
    report.failures.push_back(fault + ": expected a structured error");
  }
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

}  // namespace

FaultReport fuzz_io_faults(std::uint64_t seed,
                           const std::string& scratch_dir,
                           const FaultOptions& options) {
  FaultReport report;
  const circuits::RandomCircuit circuit(seed, options.circuit);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  core::RabidOptions opt;
  opt.threads = 1;
  opt.deadline_ms = options.flow_deadline_ms;
  core::Rabid rabid(design, graph, opt);
  rabid.run_stage1();

  const std::string root = scratch_dir + "/io-" + std::to_string(seed);
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    report.failures.push_back("cannot create scratch dir: " + ec.message());
    return report;
  }

  // Checkpoint writes against broken destinations.
  expect_error(core::write_checkpoint(root + "/missing/sub", rabid, 1),
               "checkpoint-into-missing-dir", report);
  write_text(root + "/plainfile", "not a directory\n");
  expect_error(core::write_checkpoint(root + "/plainfile", rabid, 1),
               "checkpoint-into-file", report);
  expect_error(core::write_checkpoint(root, rabid, 0),
               "checkpoint-stage-zero", report);
  expect_error(core::write_checkpoint(root, rabid, 5),
               "checkpoint-stage-five", report);

  // Manifests: missing, torn, lying.
  const auto resume_error = [&](const std::string& dir,
                                const std::string& fault) {
    tile::TileGraph g2 = circuit.graph(design);
    core::Rabid fresh(design, g2, {});
    expect_error(core::resume_from_checkpoint(dir, fresh), fault, report);
  };
  resume_error(root + "/never-created", "resume-missing-dir");
  const std::string m = root + "/manifest.json";
  write_text(m, "");
  resume_error(root, "manifest-empty");
  write_text(m, "{\"schema\": \"rabid.checkpoint.v1\", \"design\": ");
  resume_error(root, "manifest-torn-json");
  write_text(m, "[1, 2, 3]\n");
  resume_error(root, "manifest-not-an-object");
  write_text(m, "{\"schema\": \"rabid.checkpoint.v99\"}\n");
  resume_error(root, "manifest-unknown-schema");
  write_text(m, "{\"schema\": \"rabid.checkpoint.v1\"}\n");
  resume_error(root, "manifest-missing-design");
  const std::string head = std::string("{\"schema\": \"rabid.checkpoint.v1\"")
                           + ", \"design\": \"" + design.name() + "\"";
  write_text(m, head + "}\n");
  resume_error(root, "manifest-missing-grid");
  const std::string grid = ", \"grid\": {\"nx\": " +
                           std::to_string(graph.nx()) + ", \"ny\": " +
                           std::to_string(graph.ny()) + "}";
  write_text(m, head + grid + "}\n");
  resume_error(root, "manifest-missing-stage");
  write_text(m, head + grid + ", \"stage\": \"three\"}\n");
  resume_error(root, "manifest-stage-not-a-number");
  write_text(m, head + grid + ", \"stage\": 9, \"solution\": \"s.sol\"}\n");
  resume_error(root, "manifest-stage-out-of-range");
  write_text(m, head + grid + ", \"stage\": 1, \"solution\": \"\"}\n");
  resume_error(root, "manifest-empty-solution-name");
  write_text(m,
             head + grid + ", \"stage\": 1, \"solution\": \"../escape\"}\n");
  resume_error(root, "manifest-path-traversal");
  write_text(m, head + grid +
                    ", \"stage\": 1, \"solution\": \"/etc/passwd\"}\n");
  resume_error(root, "manifest-absolute-path");
  write_text(m, head + grid + ", \"stage\": 1, \"solution\": \"gone.sol\"}\n");
  resume_error(root, "manifest-dangling-solution");
  write_text(m, head + ", \"grid\": {\"nx\": 1, \"ny\": 1}" +
                    ", \"stage\": 1, \"solution\": \"s.sol\"}\n");
  resume_error(root, "manifest-grid-mismatch");
  write_text(m, head + grid + ", \"stage\": 1, \"solution\": \"dir.sol\"}\n");
  fs::create_directories(root + "/dir.sol", ec);
  resume_error(root, "manifest-solution-is-a-directory");

  // A real checkpoint, then torn/corrupted dumps behind a valid
  // manifest.
  if (core::Status s = core::write_checkpoint(root, rabid, 1); !s) {
    report.failures.push_back("valid checkpoint write failed: " +
                              s.to_string());
    return report;
  }
  std::ifstream sol_in(root + "/stage1.sol");
  std::ostringstream sol_buf;
  sol_buf << sol_in.rdbuf();
  const std::string sol_text = sol_buf.str();
  write_text(root + "/stage1.sol",
             sol_text.substr(0, sol_text.size() / 2));
  resume_error(root, "solution-truncated");
  write_text(root + "/stage1.sol", "solution wrong-design 1 1\n");
  resume_error(root, "solution-wrong-design");
  write_text(root + "/stage1.sol", "net before header ok\nend\n");
  resume_error(root, "solution-net-before-header");

  // A lying books fingerprint: the manifest claims the checkpoint was
  // written against different W(e)/B(v) books than the live graph —
  // the stale-checkpoint guard must reject it before touching anything.
  write_text(root + "/stage1.sol", sol_text);
  {
    std::ifstream man_in(root + "/manifest.json");
    std::ostringstream man_buf;
    man_buf << man_in.rdbuf();
    std::string man_text = man_buf.str();
    const std::string key = "\"books_fingerprint\": \"";
    if (const std::size_t at = man_text.find(key);
        at != std::string::npos) {
      man_text.replace(at + key.size(), 16, "0000000000000000");
      write_text(root + "/manifest.json", man_text);
      resume_error(root, "manifest-stale-fingerprint");
      // Restore the untampered manifest for the cases below.
      if (core::Status s = core::write_checkpoint(root, rabid, 1); !s) {
        report.failures.push_back("checkpoint rewrite failed: " +
                                  s.to_string());
      }
    } else {
      report.failures.push_back(
          "manifest has no books_fingerprint to tamper with");
    }
  }

  // Resume onto an instance that already ran (precondition fault).
  {
    tile::TileGraph g2 = circuit.graph(design);
    core::Rabid used(design, g2, {});
    used.run_stage1();
    expect_error(core::resume_from_checkpoint(root, used),
                 "resume-onto-used-instance", report);
  }

  // And the happy path still works after all that abuse.
  {
    record_injection(report);
    tile::TileGraph g2 = circuit.graph(design);
    core::Rabid fresh(design, g2, {});
    int stage = 0;
    if (core::Status s = core::resume_from_checkpoint(root, fresh, &stage);
        !s) {
      report.failures.push_back("valid resume failed: " + s.to_string());
    } else if (stage != 1) {
      report.failures.push_back("valid resume reported wrong stage");
    } else {
      ++report.clean_runs;
    }
  }

  fs::remove_all(root, ec);  // best-effort cleanup
  return report;
}

}  // namespace rabid::fuzz
