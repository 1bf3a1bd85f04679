#include "core/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>

#include "core/rabid.hpp"
#include "core/solution_io.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace rabid::core {

namespace {

void json_escape(std::ostream& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << (c < 0x10 ? "0" : "") << std::hex
              << static_cast<int>(c) << std::dec;
        } else {
          out << c;
        }
    }
  }
}

/// Writes `contents` to `path` via a `.tmp` sibling + rename, so a
/// reader never sees a torn file and a crash leaves any previous
/// version intact.
Status write_file_atomic(const std::string& path,
                         const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return Status::io_error("cannot open for writing", tmp);
    }
    out << contents;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::io_error("write failed", tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::io_error("rename failed", path);
  }
  return Status::ok();
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::io_error("cannot open for reading", path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::io_error("read failed", path);
  return buf.str();
}

constexpr std::string_view kProgressSchema = "rabid.stage2.progress.v1";
constexpr const char* kProgressFile = "stage2.progress";
constexpr const char* kPartialSolution = "stage2_partial.sol";
/// Hostile-input ceiling on any declared element count in a progress
/// file (a 1M-net design needs 1M order entries; 2^27 leaves headroom
/// without letting a forged header drive a multi-GB allocation).
constexpr std::uint64_t kMaxProgressCount = std::uint64_t{1} << 27;

/// Exact decimal form: 17 significant digits round-trip any finite
/// IEEE-754 double, so resumed cost comparisons are bit-identical.
void print_double(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

std::string encode_stage2_progress(const Stage2Progress& p) {
  std::ostringstream out;
  out << kProgressSchema << "\n";
  out << "iteration " << p.iteration << "\n";
  out << "next_pos " << p.next_pos << "\n";
  out << "min_cost ";
  print_double(out, p.min_cost);
  out << "\n";
  out << "order " << p.order.size() << "\n";
  for (std::size_t i = 0; i < p.order.size(); ++i) {
    out << p.order[i] << (i % 16 == 15 ? '\n' : ' ');
  }
  if (!p.order.empty() && p.order.size() % 16 != 0) out << "\n";
  out << "snapshot " << p.snapshot.size() << "\n";
  for (std::size_t i = 0; i < p.snapshot.size(); ++i) {
    print_double(out, p.snapshot[i]);
    out << (i % 8 == 7 ? '\n' : ' ');
  }
  if (!p.snapshot.empty() && p.snapshot.size() % 8 != 0) out << "\n";
  out << "dirty " << p.edge_dirty.size() << "\n";
  for (const std::uint8_t d : p.edge_dirty) {
    out << (d != 0 ? '1' : '0');
  }
  if (!p.edge_dirty.empty()) out << "\n";
  return out.str();
}

/// Reads "<keyword> <count>" and validates both; the counts a hostile
/// file declares are bounded before any allocation happens.
Result<std::uint64_t> read_count(std::istream& in, const char* keyword,
                                 const std::string& path) {
  std::string word;
  std::uint64_t count = 0;
  if (!(in >> word) || word != keyword || !(in >> count)) {
    return Status::invalid_input(
        std::string("progress file missing '") + keyword + "' section",
        path);
  }
  if (count > kMaxProgressCount) {
    return Status::invalid_input(
        std::string("progress '") + keyword + "' count is implausibly large",
        path);
  }
  return count;
}

Result<Stage2Progress> decode_stage2_progress(const std::string& text,
                                              const std::string& path) {
  std::istringstream in(text);
  std::string schema;
  if (!(in >> schema) || schema != kProgressSchema) {
    return Status::invalid_input("progress schema missing or unknown", path);
  }
  Stage2Progress p;
  std::string word;
  if (!(in >> word) || word != "iteration" || !(in >> p.iteration)) {
    return Status::invalid_input("progress file missing iteration", path);
  }
  if (!(in >> word) || word != "next_pos" || !(in >> p.next_pos)) {
    return Status::invalid_input("progress file missing next_pos", path);
  }
  if (!(in >> word) || word != "min_cost" || !(in >> p.min_cost)) {
    return Status::invalid_input("progress file missing min_cost", path);
  }
  Result<std::uint64_t> n = read_count(in, "order", path);
  if (!n.ok()) return n.status();
  p.order.resize(static_cast<std::size_t>(n.value()));
  for (std::uint32_t& v : p.order) {
    if (!(in >> v)) {
      return Status::invalid_input("progress order list truncated", path);
    }
  }
  n = read_count(in, "snapshot", path);
  if (!n.ok()) return n.status();
  p.snapshot.resize(static_cast<std::size_t>(n.value()));
  for (double& v : p.snapshot) {
    if (!(in >> v)) {
      return Status::invalid_input("progress snapshot list truncated", path);
    }
  }
  n = read_count(in, "dirty", path);
  if (!n.ok()) return n.status();
  p.edge_dirty.resize(static_cast<std::size_t>(n.value()));
  if (!p.edge_dirty.empty()) {
    std::string bits;
    if (!(in >> bits) || bits.size() != p.edge_dirty.size()) {
      return Status::invalid_input("progress dirty mask truncated", path);
    }
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] != '0' && bits[i] != '1') {
        return Status::invalid_input("progress dirty mask is not 0/1", path);
      }
      p.edge_dirty[i] = bits[i] == '1' ? 1 : 0;
    }
  }
  return p;
}

/// The shared manifest writer: `progress_file` empty for stage-boundary
/// checkpoints, the sidecar name for mid-stage-2 ones.
Status write_manifest(const std::string& dir, const Rabid& rabid,
                      int completed_stage, const std::string& sol_name,
                      const std::string& progress_file) {
  std::ostringstream manifest;
  manifest << "{\n  \"schema\": \"" << CheckpointManifest::kSchema
           << "\",\n  \"design\": \"";
  json_escape(manifest, rabid.design().name());
  manifest << "\",\n  \"grid\": {\"nx\": " << rabid.graph().nx()
           << ", \"ny\": " << rabid.graph().ny()
           << "},\n  \"stage\": " << completed_stage
           << ",\n  \"books_fingerprint\": \""
           << books_fingerprint(rabid.graph())
           << "\",\n  \"solution\": \"";
  json_escape(manifest, sol_name);
  manifest << "\"";
  if (!progress_file.empty()) {
    manifest << ",\n  \"stage2_progress\": \"";
    json_escape(manifest, progress_file);
    manifest << "\"";
  }
  manifest << "\n}\n";
  return write_file_atomic(dir + "/manifest.json", manifest.str());
}

}  // namespace

std::string books_fingerprint(const tile::TileGraph& g) {
  // FNV-1a-64, folded over the grid shape and every capacity entry in
  // book order.  Deterministic across platforms: the inputs are exact
  // integers, mixed byte-by-byte.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(g.nx());
  mix(g.ny());
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    mix(g.wire_capacity(e));
  }
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    mix(g.site_supply(t));
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Status write_checkpoint(const std::string& dir, const Rabid& rabid,
                        int completed_stage) {
  if (completed_stage < 1 || completed_stage > 4) {
    return Status::failed_precondition(
        "checkpoint stage must be between 1 and 4");
  }
  const std::string sol_name =
      "stage" + std::to_string(completed_stage) + ".sol";

  std::ostringstream sol;
  write_solution(sol, rabid.design(), rabid.graph(), rabid.nets());
  if (Status s = write_file_atomic(dir + "/" + sol_name, sol.str()); !s) {
    return s;
  }

  if (Status s = write_manifest(dir, rabid, completed_stage, sol_name,
                                /*progress_file=*/"");
      !s) {
    return s;
  }
  obs::count(obs::Counter::kCheckpointWrites);
  return Status::ok();
}

Status write_stage2_checkpoint(const std::string& dir, const Rabid& rabid,
                               const Stage2Progress& progress) {
  std::ostringstream sol;
  write_solution(sol, rabid.design(), rabid.graph(), rabid.nets());
  if (Status s = write_file_atomic(dir + "/" + kPartialSolution, sol.str());
      !s) {
    return s;
  }
  if (Status s = write_file_atomic(dir + "/" + kProgressFile,
                                   encode_stage2_progress(progress));
      !s) {
    return s;
  }
  // The manifest flips last, so a crash between the writes leaves the
  // previous checkpoint intact and consistent.
  if (Status s = write_manifest(dir, rabid, /*completed_stage=*/1,
                                kPartialSolution, kProgressFile);
      !s) {
    return s;
  }
  obs::count(obs::Counter::kCheckpointWrites);
  return Status::ok();
}

Result<CheckpointManifest> read_checkpoint_manifest(const std::string& dir) {
  const std::string path = dir + "/manifest.json";
  Result<std::string> text = read_file(path);
  if (!text.ok()) return text.status();

  std::string error;
  const std::optional<obs::json::Value> doc =
      obs::json::parse(text.value(), &error);
  if (!doc.has_value()) {
    return Status::invalid_input("manifest is not valid JSON: " + error,
                                 path);
  }
  if (!doc->is_object()) {
    return Status::invalid_input("manifest top level is not an object", path);
  }
  const obs::json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != CheckpointManifest::kSchema) {
    return Status::invalid_input("manifest schema missing or unknown", path);
  }

  CheckpointManifest m;
  const obs::json::Value* design = doc->find("design");
  if (design == nullptr || !design->is_string()) {
    return Status::invalid_input("manifest missing design name", path);
  }
  m.design = design->string;

  const obs::json::Value* grid = doc->find("grid");
  if (grid == nullptr || !grid->is_object()) {
    return Status::invalid_input("manifest missing grid", path);
  }
  const obs::json::Value* nx = grid->find("nx");
  const obs::json::Value* ny = grid->find("ny");
  if (nx == nullptr || !nx->is_number() || ny == nullptr ||
      !ny->is_number()) {
    return Status::invalid_input("manifest grid needs numeric nx/ny", path);
  }
  m.nx = static_cast<std::int32_t>(nx->as_int());
  m.ny = static_cast<std::int32_t>(ny->as_int());

  const obs::json::Value* stage = doc->find("stage");
  if (stage == nullptr || !stage->is_number()) {
    return Status::invalid_input("manifest missing stage", path);
  }
  m.stage = static_cast<int>(stage->as_int());
  if (m.stage < 1 || m.stage > 4) {
    return Status::invalid_input("manifest stage out of range (1..4)", path);
  }

  const obs::json::Value* books = doc->find("books_fingerprint");
  if (books == nullptr || !books->is_string() || books->string.empty()) {
    return Status::invalid_input("manifest missing books fingerprint", path);
  }
  m.books_fingerprint = books->string;

  const obs::json::Value* sol = doc->find("solution");
  if (sol == nullptr || !sol->is_string() || sol->string.empty()) {
    return Status::invalid_input("manifest missing solution file", path);
  }
  // The dump must live inside the checkpoint directory: a manifest that
  // points elsewhere (absolute path, `../` traversal) is hostile.
  if (sol->string.find('/') != std::string::npos ||
      sol->string.find('\\') != std::string::npos) {
    return Status::invalid_input(
        "manifest solution file must be a bare file name", path);
  }
  m.solution_file = sol->string;

  if (const obs::json::Value* prog = doc->find("stage2_progress");
      prog != nullptr) {
    if (!prog->is_string() || prog->string.empty() ||
        prog->string.find('/') != std::string::npos ||
        prog->string.find('\\') != std::string::npos) {
      return Status::invalid_input(
          "manifest stage2_progress must be a bare file name", path);
    }
    if (m.stage != 1) {
      return Status::invalid_input(
          "manifest pairs stage2_progress with a stage other than 1", path);
    }
    m.stage2_progress_file = prog->string;
  }
  return m;
}

Status resume_from_checkpoint(const std::string& dir, Rabid& rabid,
                              int* completed_stage) {
  Result<CheckpointManifest> manifest = read_checkpoint_manifest(dir);
  if (!manifest.ok()) return manifest.status();
  const CheckpointManifest& m = manifest.value();

  if (m.design != rabid.design().name()) {
    return Status::invalid_input(
        "checkpoint was written for design '" + m.design + "', not '" +
            rabid.design().name() + "'",
        dir + "/manifest.json");
  }
  if (m.nx != rabid.graph().nx() || m.ny != rabid.graph().ny()) {
    return Status::invalid_input(
        "checkpoint grid differs from the tile graph",
        dir + "/manifest.json");
  }
  // The fingerprint guards the snapshot's provenance: a mid-stage-2
  // resume point replays the iteration-start cost array and A* floor,
  // which are only meaningful against the exact W(e)/B(v) books they
  // were computed from.  Perturbed books (an ECO between checkpoint and
  // resume) must re-plan through the ECO path, not resume.
  if (const std::string live = books_fingerprint(rabid.graph());
      m.books_fingerprint != live) {
    return Status::stale_checkpoint(
        "checkpoint books fingerprint " + m.books_fingerprint +
            " does not match the live tile graph (" + live +
            "): the W(e)/B(v) books were perturbed since the checkpoint "
            "was written — re-plan instead of resuming",
        dir + "/manifest.json");
  }

  const std::string sol_path = dir + "/" + m.solution_file;
  std::ifstream in(sol_path);
  if (!in) return Status::io_error("cannot open for reading", sol_path);
  // Cell names resolve against the run's own library, so a resumed
  // multi-type run keeps its type tags (and with them its delays).
  Result<LoadedSolution> sol = read_solution_checked(
      in, rabid.design(), rabid.graph(),
      std::span(&rabid.options().buffer_library, 1));
  if (!sol.ok()) return sol.status();

  if (Status s = rabid.restore_solution(sol.value(), m.stage); !s) return s;
  if (!m.stage2_progress_file.empty()) {
    const std::string prog_path = dir + "/" + m.stage2_progress_file;
    Result<std::string> text = read_file(prog_path);
    if (!text.ok()) return text.status();
    Result<Stage2Progress> progress =
        decode_stage2_progress(text.value(), prog_path);
    if (!progress.ok()) return progress.status();
    if (Status s = rabid.restore_stage2_progress(std::move(progress.value()));
        !s) {
      return s;
    }
  }
  if (completed_stage != nullptr) *completed_stage = m.stage;
  return Status::ok();
}

}  // namespace rabid::core
