#pragma once

/// \file checkpoint.hpp
/// Stage-granular checkpoint/resume for the RABID flow.
///
/// A checkpoint directory holds one solution dump per completed stage
/// (`stage<k>.sol`, solution format v2) plus a `manifest.json`
/// ("rabid.checkpoint.v1") naming the design, the grid, and the latest
/// completed stage.  Every file is written to a `.tmp` sibling and
/// atomically renamed into place, so a crash mid-write can truncate at
/// most the `.tmp` file — the manifest never points at a torn dump.
///
/// Resume validates everything before touching the instance: the
/// manifest must parse, reference this design and grid, and the dump
/// must pass the strict solution reader and Rabid::restore_solution's
/// capacity dry-run.  A hostile or stale checkpoint yields a structured
/// error, never a corrupted flow.  See docs/ROBUSTNESS.md.

#include <string>
#include <string_view>

#include "core/status.hpp"

namespace rabid::tile {
class TileGraph;
}  // namespace rabid::tile

namespace rabid::core {

class Rabid;

/// FNV-1a-64 over the tile graph's *capacity* books — grid shape, every
/// W(e), every B(v) — rendered as 16 lowercase hex digits.  This is the
/// checkpoint's provenance stamp: a dump's usage replayed onto books
/// whose W(e) or B(v) changed is a different problem, so resume rejects
/// a checkpoint whose fingerprint no longer matches the live graph
/// (error[stale-checkpoint], exit 3) instead of producing a quietly
/// divergent plan.  Usage is excluded on purpose: resume replays usage
/// from the dump onto empty books.
std::string books_fingerprint(const tile::TileGraph& g);

/// The parsed `manifest.json` of a checkpoint directory.
struct CheckpointManifest {
  /// Bumped when a field is renamed or re-shaped (never silently).
  static constexpr std::string_view kSchema = "rabid.checkpoint.v1";

  std::string design;   ///< design name the dump was written for
  std::int32_t nx = 0;  ///< tile grid the dump was written for
  std::int32_t ny = 0;
  int stage = 0;        ///< last completed stage (1..4)
  std::string solution_file;  ///< dump file name, relative to the dir
  /// books_fingerprint() of the graph the checkpoint was written
  /// against (required; resume validates it before touching anything).
  std::string books_fingerprint;
};

/// Dumps the flow's current solution as the checkpoint for
/// `completed_stage` (1..4) and repoints the manifest at it.  The
/// directory must already exist.  On any I/O failure the previous
/// manifest (if any) is left intact.
Status write_checkpoint(const std::string& dir, const Rabid& rabid,
                        int completed_stage);

/// Reads and validates `<dir>/manifest.json`.  A manifest carrying the
/// retired mid-stage-2 `"stage2_progress"` key is rejected as
/// kInvalidInput: its dump holds mid-iteration trees, not a stage result.
Result<CheckpointManifest> read_checkpoint_manifest(const std::string& dir);

/// Restores `rabid` (a fresh instance) from the latest checkpoint in
/// `dir`.  On success `*completed_stage` (when non-null) receives the
/// stage the checkpoint covers, so the caller can run the remainder.
Status resume_from_checkpoint(const std::string& dir, Rabid& rabid,
                              int* completed_stage = nullptr);

}  // namespace rabid::core
