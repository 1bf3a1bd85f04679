#include "core/buffer_commit.hpp"

#include <algorithm>
#include <utility>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::core {

namespace {

/// Buffer count per distinct tile of one placement list, in order of
/// each tile's first placement.
std::vector<std::pair<tile::TileId, std::int32_t>> buffers_per_tile(
    const route::RouteTree& tree, const route::BufferList& buffers) {
  std::vector<std::pair<tile::TileId, std::int32_t>> per_tile;
  for (const route::BufferPlacement& b : buffers) {
    const tile::TileId t = tree.node(b.node).tile;
    auto it = std::find_if(per_tile.begin(), per_tile.end(),
                           [&](const auto& p) { return p.first == t; });
    if (it == per_tile.end()) {
      per_tile.emplace_back(t, 1);
    } else {
      ++it->second;
    }
  }
  return per_tile;
}

}  // namespace

bool buffers_fit(const tile::TileGraph& graph, const route::RouteTree& tree,
                 const route::BufferList& buffers) {
  for (const auto& [t, count] : buffers_per_tile(tree, buffers)) {
    if (count > graph.site_supply(t) - graph.site_usage(t)) return false;
  }
  return true;
}

buffer::TileCostFn site_costs(const tile::TileGraph& graph,
                              std::span<const tile::TileId> forbidden,
                              std::span<const double> demand) {
  return [&graph, forbidden, demand](tile::TileId t) {
    if (std::find(forbidden.begin(), forbidden.end(), t) != forbidden.end()) {
      return tile::kInfCost;
    }
    return graph.buffer_cost(
        t, demand.empty() ? 0.0 : demand[static_cast<std::size_t>(t)]);
  };
}

bool commit_buffers(tile::TileGraph& graph, NetState& state, std::int32_t L,
                    const buffer::BufferLibrary& lib,
                    const BufferProposer& propose,
                    OnCommitFailure on_failure) {
  constexpr int kMaxAttempts = 64;
  std::vector<tile::TileId> forbidden;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) obs::count(obs::Counter::kBufferCommitRetries);
    buffer::InsertionResult result = propose(forbidden);
    const bool meets_rule = result.feasible && result.effective_limit <= L;
    if (!meets_rule && on_failure == OnCommitFailure::kPark) return false;

    const auto per_tile = buffers_per_tile(state.tree, result.buffers);
    bool ok = true;
    for (const auto& [t, count] : per_tile) {
      if (count > graph.site_supply(t) - graph.site_usage(t)) {
        forbidden.push_back(t);
        ok = false;
      }
    }
    if (!ok) continue;

    for (const auto& [t, count] : per_tile) {
      for (std::int32_t k = 0; k < count; ++k) graph.add_buffer(t);
    }
    obs::count(obs::Counter::kBuffersCommitted,
               static_cast<std::uint64_t>(result.buffers.size()));
    state.buffers = std::move(result.buffers);
    state.buffer_types.clear();
    for (const std::int32_t t : result.types) {
      state.buffer_types.push_back(lib.type(static_cast<std::size_t>(t)));
    }
    state.meets_length_rule = meets_rule;
    return true;
  }
  RABID_ASSERT_MSG(on_failure == OnCommitFailure::kPark,
                   "buffer commit failed to converge");
  return false;
}

}  // namespace rabid::core
