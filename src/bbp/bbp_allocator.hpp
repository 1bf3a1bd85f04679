#pragma once

/// \file bbp_allocator.hpp
/// The BBP/FR baseline behind the core::Allocator interface.
///
/// BbpPlanner (bbp.hpp) predates the interface and keeps its own state
/// shapes: BbpNetState has no length-rule flag or buffer-type tags, the
/// planner books wire usage but tracks buffers only in its private
/// per-tile vector, and its delays ignore wide-wire RC scaling.  This
/// adapter makes the baseline a first-class, *auditable* backend:
///
///   * every buffer is booked into the graph's b(v) column (via
///     add_buffer_unchecked — BBP's methodology has no site bound, so
///     overload is expected and must be *visible*, not crash);
///   * meets_length_rule is computed honestly per net with the same
///     placement_is_legal the auditor uses (BBP optimizes a delay
///     constraint, not the length rule, so many nets legitimately fail);
///   * delays are re-evaluated under the width-scaled technology,
///     matching the auditor's bit-exact Elmore recheck;
///   * audit_options() declares the baseline's capacity allowances —
///     wire and buffer overflow downgrade to warnings (they are the
///     Table V phenomenon being measured), every integrity invariant
///     stays a hard error.
///
/// Honored RabidOptions: tech, audit_level (kOff or final audit — the
/// flow is single-pass), obs_level.  The flow is serial (threads() is
/// 1).  Deadlines and checkpoints are unsupported; alloc/factory.hpp
/// rejects a deadline.

#include "bbp/bbp.hpp"
#include "core/allocator.hpp"
#include "core/audit.hpp"
#include "core/run_report.hpp"

namespace rabid::bbp {

class BbpAllocator final : public core::Allocator {
 public:
  /// `design` must be two-pin (one sink per net — decompose first);
  /// the graph's capacities must be set and its usage books empty.
  BbpAllocator(const netlist::Design& design, tile::TileGraph& graph,
               core::RabidOptions options = {}, BbpOptions bbp = {});

  core::Backend backend() const override { return core::Backend::kBbp; }
  std::vector<core::StageStats> plan() override;
  core::AuditOptions audit_options() const override;

  /// The baseline's own Table V row (MTAP, constraint misses) — detail
  /// the StageStats schema has no columns for.
  const BbpResult& result() const { return result_; }
  /// Buffers per tile (the emergent "buffer blocks").
  std::span<const std::int32_t> buffers_per_tile() const { return per_tile_; }

 private:
  BbpOptions bbp_options_;
  std::vector<std::int32_t> per_tile_;
  BbpResult result_;
};

}  // namespace rabid::bbp
