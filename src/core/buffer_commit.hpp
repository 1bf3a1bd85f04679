#pragma once

/// \file buffer_commit.hpp
/// The one buffer commit: books a proposed buffering of one net into
/// the tile graph's b(v) book and tags each placement with its cell.
///
/// A buffering is proposed per net (the stage-3 DP, the vG rebuffering,
/// the ECO and stream planners, the MCF fallback), but q(v) only sees
/// the free sites of the books, so a single net can claim more sites in
/// one tile than the tile has left (Section III-C's multiple-buffers-
/// per-tile remark).  The commit counts the proposal's buffers per
/// tile, forbids every oversubscribed tile and asks for a new proposal,
/// until one fits.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "buffer/insertion.hpp"
#include "buffer/library.hpp"
#include "core/rabid.hpp"
#include "route/buffers.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"

namespace rabid::core {

/// True when every tile `buffers` places on has a free site for each
/// buffer placed there.
bool buffers_fit(const tile::TileGraph& graph, const route::RouteTree& tree,
                 const route::BufferList& buffers);

/// A buffering of the net's tree that keeps off the `forbidden` tiles.
/// `types` holds library indices (empty: untagged unit buffers);
/// `feasible` and `effective_limit` decide the net's length-rule flag.
using BufferProposer = std::function<buffer::InsertionResult(
    std::span<const tile::TileId> forbidden)>;

/// The eq. (2) site cost q(v) a DP proposal prices with: +infinity on
/// the `forbidden` tiles, else graph.buffer_cost(v, p(v)) with the
/// expected demand p(v) read from `demand` (empty: 0 everywhere).  The
/// returned function views all three arguments.
buffer::TileCostFn site_costs(const tile::TileGraph& graph,
                              std::span<const tile::TileId> forbidden,
                              std::span<const double> demand = {});

/// What commit_buffers does when no proposal can be booked.
enum class OnCommitFailure {
  /// Proposals always exist (the relaxed DPs, vG): every retry forbids
  /// one more tile, so the loop converges; asserts after 64 attempts.
  kAssert,
  /// Proposals may miss the length rule (the stream planner's strict
  /// DP): such a proposal, or 64 failed attempts, returns false.
  kPark,
};

/// Proposes, forbids oversubscribed tiles and retries until a proposal
/// fits the free sites of `graph`, then books it: adds its buffers to
/// the b(v) book and sets `state.buffers`, `state.buffer_types` (the
/// cells `lib` names, by value) and `state.meets_length_rule`
/// (feasible and effective_limit <= L).  `state.tree` must hold the
/// net's committed tree.  Returns false only under kPark, with the
/// books and `state` untouched.  Counts kBufferCommitRetries per retry
/// and kBuffersCommitted per booked buffer.
bool commit_buffers(tile::TileGraph& graph, NetState& state, std::int32_t L,
                    const buffer::BufferLibrary& lib,
                    const BufferProposer& propose,
                    OnCommitFailure on_failure = OnCommitFailure::kAssert);

}  // namespace rabid::core
