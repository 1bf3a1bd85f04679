#pragma once

/// \file solution_io.hpp
/// Text dump of a planning solution (routes, buffers, per-net status) —
/// the artifact a downstream flow (global router, placer ECO step)
/// would consume after early planning.
///
/// Format v2 (line-oriented, '#' comments):
///
///   solution DESIGN_NAME TILES_X TILES_Y
///   net NAME ok|fail
///     arc X1 Y1 X2 Y2          # one tile step, parent tile first
///     buffer X Y drive [CELL]          # drives all branches (Fig. 8)
///     buffer X Y decouple CX CY [CELL] # drives only the arc to (CX,CY)
///   end
///
/// Coordinates are tile indices; arcs are written parent-before-child,
/// so a reader can rebuild each route tree in one pass.  (v1 omitted
/// the decoupled child's tile, which made multi-branch placements
/// ambiguous on re-ingestion.)
///
/// One reader, read_solution_checked(), rebuilds every NetState; the
/// round-trip tests feed it straight back into the SolutionAuditor
/// (core/audit.hpp) to certify the dump is lossless.

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "buffer/library.hpp"
#include "core/rabid.hpp"
#include "core/status.hpp"

namespace rabid::core {

void write_solution(std::ostream& out, const netlist::Design& design,
                    const tile::TileGraph& g,
                    std::span<const NetState> nets);

/// A full solution parsed back from a dump.
struct LoadedSolution {
  std::string design;
  std::int32_t nx = 0, ny = 0;
  /// One state per design net, in design order: reconstructed tree,
  /// buffers (and types, when cells were dumped and found in a library),
  /// the ok/fail flag, and delays re-evaluated exactly as
  /// Rabid::refresh_delays() would.
  std::vector<NetState> nets;
};

/// Reconstructs the complete solution.  The header must precede any
/// net, and its design name and grid must match `design` and `g` — a
/// checkpoint written for a different circuit must not silently load.
/// Nets must appear in design order under their design names; sink
/// attachment is re-derived from the design's pin locations.  Dumped
/// cell names resolve against `libraries`, the first library naming a
/// cell wins, and each loaded tag is a copy of its cell; with no
/// libraries, cell names are ignored and delays use unit buffers.
/// Malformed input (a fuzzed file, a stale checkpoint) comes back as a
/// structured Status with the offending line, never an abort.
Result<LoadedSolution> read_solution_checked(
    std::istream& in, const netlist::Design& design, const tile::TileGraph& g,
    std::span<const buffer::BufferLibrary> libraries = {},
    const timing::Technology& tech = timing::kTech180nm);

}  // namespace rabid::core
