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

  std::ostringstream manifest;
  manifest << "{\n  \"schema\": \"" << CheckpointManifest::kSchema
           << "\",\n  \"design\": ";
  obs::json::append_escaped(manifest, rabid.design().name());
  manifest << ",\n  \"grid\": {\"nx\": " << rabid.graph().nx()
           << ", \"ny\": " << rabid.graph().ny()
           << "},\n  \"stage\": " << completed_stage
           << ",\n  \"books_fingerprint\": \""
           << books_fingerprint(rabid.graph()) << "\",\n  \"solution\": ";
  obs::json::append_escaped(manifest, sol_name);
  manifest << "\n}\n";
  if (Status s = write_file_atomic(dir + "/manifest.json", manifest.str());
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
  // Mid-stage-2 resume points are retired: their dump holds mid-iteration
  // trees that no straight run produces, so such a checkpoint must not be
  // read as a completed stage 1.
  if (doc->find("stage2_progress") != nullptr) {
    return Status::invalid_input(
        "manifest is a retired mid-stage-2 checkpoint (\"stage2_progress\"); "
        "re-plan, or resume from a stage-boundary checkpoint",
        path);
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
  // The fingerprint guards the dump's provenance: its usage replayed
  // onto books whose W(e) or B(v) changed is a different problem, not
  // the one the completed stages solved.  Perturbed books (an ECO
  // between checkpoint and resume) must re-plan, not resume.
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
  if (completed_stage != nullptr) *completed_stage = m.stage;
  return Status::ok();
}

}  // namespace rabid::core
