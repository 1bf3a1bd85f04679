#pragma once

/// \file bbp.hpp
/// BBP/FR — buffer-block planning with feasible regions (Cong, Kong,
/// Pan, ICCAD'99), the baseline of Table V, behind the core::Allocator
/// interface.
///
/// This is a from-scratch reconstruction of the methodology (the
/// original code is not distributed; see DESIGN.md):
///   * multi-pin nets are decomposed into two-pin nets by the caller
///     (Section IV-C does the same for both tools);
///   * per net, the minimal buffer count k is found such that evenly
///     spaced buffers meet a delay constraint of 1.10x the optimal
///     achievable delay (the paper's 1.05-1.20x constraints);
///   * each buffer has a feasible region along its path — the maximal
///     displacement from the ideal spot that still meets the constraint;
///   * buffers may only live in *free space between macro blocks*
///     (that is the buffer-block methodology); each buffer snaps to the
///     free tile nearest its ideal location, preferring tiles inside the
///     feasible region — buffer blocks emerge as clusters in channels;
///   * nets are routed source -> buffer_1 -> ... -> buffer_k -> sink
///     with congestion-blind staircase segments.
///
/// The point of the comparison survives the reconstruction: buffers
/// forced into channels concentrate area (high MTAP) and drag wires into
/// the same corridors (overflow), which RABID's dispersed sites avoid.
///
/// Each net is planned straight into the common NetState and the graph's
/// books: its tree is committed at the net's wire width, and every
/// buffer is booked with add_buffer_unchecked (the methodology has no
/// site bound, so overload is expected and must be *visible*, not
/// crash).  meets_length_rule uses the auditor's placement_is_legal
/// (BBP optimizes a delay constraint, not the length rule, so many nets
/// legitimately fail), and delays use the width-scaled technology.
/// audit_options() downgrades wire and buffer overflow to warnings (they
/// are the Table V phenomenon being measured); every integrity
/// invariant stays a hard error.
///
/// Honored RabidOptions: tech, congestion_post_after_stage2 (the
/// Table V post-pass, run after routing: a second stage row "post"),
/// audit_level (one final audit), obs_level.  The flow is serial
/// (threads() is 1).  Deadlines and checkpoints are unsupported;
/// alloc/factory.hpp rejects a deadline.

#include <cstdint>
#include <vector>

#include "core/allocator.hpp"
#include "core/audit.hpp"
#include "tile/tile_graph.hpp"

namespace rabid::bbp {

class BbpAllocator final : public core::Allocator {
 public:
  /// `design` must be two-pin (one sink per net — decompose first);
  /// the graph's capacities must be set and its usage books empty.
  BbpAllocator(const netlist::Design& design, tile::TileGraph& graph,
               core::RabidOptions options = {});

  core::Backend backend() const override { return core::Backend::kBbp; }
  std::vector<core::StageStats> plan() override;
  core::AuditOptions audit_options() const override;

  /// Each net's delay target (1.10x its optimal delay), in design-net
  /// order; filled by plan().
  const std::vector<double>& constraints_ps() const { return constraint_ps_; }

 private:
  /// Plans net `id`: picks k, snaps the buffers to free space, routes,
  /// commits the tree and books the buffers.
  void plan_net(netlist::NetId id);
  /// Section IV-C's wirelength-neutral congestion post-pass: buffer
  /// tiles stay pinned and placements are remapped onto the re-embedded
  /// trees (wide nets sit it out, as in RABID's stage 2).
  void congestion_post();
  /// Refreshes a net's length-rule flag and delay from its tree/buffers.
  void evaluate(netlist::NetId id);

  std::vector<bool> free_tile_;
  std::vector<double> constraint_ps_;
};

/// Max tile-area percentage occupied by buffers, over the graph's b(v)
/// book; `buffer_area_um2` is one buffer's area.
double mtap_pct(const tile::TileGraph& g, double buffer_area_um2);

/// Number of emergent "buffer blocks": connected components (4-adjacent
/// tiles) whose tiles each hold at least `min_buffers` buffers in the
/// graph's b(v) book.  This is the Fig.-1 phenomenon made measurable —
/// BBP concentrates buffers into a few dozen clusters in the channels;
/// RABID's usage stays diffuse (many tiny components or none above the
/// threshold).
std::int32_t count_buffer_blocks(const tile::TileGraph& g,
                                 std::int32_t min_buffers = 4);

}  // namespace rabid::bbp
