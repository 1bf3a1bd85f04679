#pragma once

/// \file audit.hpp
/// Independent verification of a finished (or in-flight) RABID solution.
///
/// The flow keeps the tile graph's w(e)/b(v) books incrementally
/// consistent while several code paths mutate them (serial loops,
/// speculative parallel batches with fallback re-runs, rip-up passes).
/// The auditor trusts none of that: it recomputes every invariant from
/// scratch, from only the Design, the TileGraph, and the per-net states,
/// and reports discrepancies instead of asserting.
///
/// Invariants checked (paper reference in parentheses):
///   * tree structure      — single root, acyclic, parent/child links
///                           mutually consistent, unique tiles, every arc
///                           between edge-adjacent tiles (Section II's
///                           tile-graph embedding)
///   * pin embedding       — root at the driver's tile, per-tile sink
///                           counts matching the netlist pins exactly
///   * buffer references   — every placement names a real node, and a
///                           decoupling buffer a real child arc (Fig. 8)
///   * book reconciliation — declared w(e)/b(v) equal a ground-up
///                           recount over all nets (eq. 1 / eq. 2 inputs)
///   * capacity            — w(e) <= W(e), b(v) <= B(v) (the Section IV-A
///                           hard guarantees)
///   * length rule         — each net's meets_length_rule flag agrees
///                           with an independent check that every gate
///                           drives <= L_i total tile-units (Fig. 3)
///   * delay               — Elmore delays recomputed via timing/ equal
///                           the committed DelayResult bit for bit
///
/// The audit is read-only and pure; it never touches the graph's books.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/rabid.hpp"

namespace rabid::core {

/// Which invariant a violation falls under.
enum class AuditCheck {
  kTreeStructure,   ///< connectivity / legal embedding of a route tree
  kPinEmbedding,    ///< driver/sink tiles disagree with the netlist
  kBufferRefs,      ///< buffer placement references an invalid node/arc
  kWireBooks,       ///< declared w(e) != recount over all nets
  kBufferBooks,     ///< declared b(v) != recount over all nets
  kWireCapacity,    ///< w(e) > W(e)
  kBufferCapacity,  ///< b(v) > B(v)
  kLengthRule,      ///< meets_length_rule flag is dishonest
  kDelay,           ///< committed delay != recomputed Elmore delay
  kBufferTypes,     ///< per-buffer type tags corrupt or illegal
};

std::string_view audit_check_name(AuditCheck check);

enum class AuditSeverity : std::uint8_t { kWarning, kError };

/// One discrepancy, with enough identity to act on it.
struct AuditViolation {
  AuditCheck check = AuditCheck::kTreeStructure;
  AuditSeverity severity = AuditSeverity::kError;
  /// Offending net, or -1 for graph-global violations.
  netlist::NetId net = -1;
  tile::TileId tile = tile::kNoTile;
  tile::EdgeId edge = tile::kNoEdge;
  double expected = 0.0;
  double actual = 0.0;
  std::string detail;
  /// Stage label ("1".."4", "vG", "final") when accumulated by an
  /// Allocator.
  std::string stage;
};

/// The auditor's output: violations plus coverage counters, so "clean"
/// demonstrably means "checked", not "skipped".
struct AuditReport {
  std::vector<AuditViolation> violations;
  /// Elementary comparisons performed (monotone in solution size).
  std::int64_t checks_run = 0;
  std::size_t nets_audited = 0;

  std::size_t error_count() const;
  std::size_t warning_count() const;
  bool clean() const { return error_count() == 0; }

  /// Appends another report's violations, stamping them with `stage`.
  void merge(AuditReport other, std::string_view stage);

  /// Human-readable multi-line summary (empty-report safe).
  std::string summary() const;
  /// Machine-readable dump (the CI failure artifact).
  void write_json(std::ostream& out) const;
};

struct AuditOptions {
  /// Wire overload is a heuristic-quality property (stage 1 legitimately
  /// overflows before rip-up/reroute); callers auditing mid-flow may
  /// downgrade it so clean() still certifies solution *integrity*.
  AuditSeverity wire_overflow_severity = AuditSeverity::kError;
  /// Buffer-site overload severity.  RABID and MCF guarantee b(v) <=
  /// B(v), so this stays an error; the BBP/FR baseline piles buffers
  /// into free-space tiles without site bounds *by methodology* (the
  /// Fig. 1 phenomenon Table V quantifies), and its allocator downgrades
  /// overload to a warning so clean() still certifies integrity.
  AuditSeverity buffer_overflow_severity = AuditSeverity::kError;
  /// Accept nets with no route as warnings instead of errors.  A
  /// deadline-cancelled run legitimately leaves nets unrouted; with this
  /// set, clean() still certifies the *integrity* of everything that was
  /// produced while the missing nets stay visible as warnings.
  bool allow_unrouted = false;
  /// Technology the delays were committed under (RabidOptions::tech).
  timing::Technology tech = timing::kTech180nm;
  /// Planning library the solution was buffered with
  /// (RabidOptions::buffer_library).  Type-tagged nets are re-legalized
  /// against it: each tag must name a library type whose electrical
  /// payload matches, b(v) is recounted per type, and the length rule
  /// honors per-type drive limits.  Tags the library doesn't know
  /// (e.g. the vG power levels) legalize under the library's first
  /// type — the unit rule for the default library.
  buffer::BufferLibrary buffer_library{};
};

/// Recomputes every invariant of a solution from scratch.  Bind once,
/// audit any number of snapshots.
class SolutionAuditor {
 public:
  SolutionAuditor(const netlist::Design& design, const tile::TileGraph& graph,
                  AuditOptions options = {});

  /// Audits `nets` (one NetState per design net, in design order).
  AuditReport audit(std::span<const NetState> nets) const;

 private:
  void audit_net(netlist::NetId id, const NetState& state,
                 AuditReport& report) const;

  const netlist::Design& design_;
  const tile::TileGraph& graph_;
  AuditOptions options_;
};

/// Convenience: audit a Rabid instance's current solution.
AuditReport audit_solution(const Rabid& rabid, AuditOptions options = {});

}  // namespace rabid::core
