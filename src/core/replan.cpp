#include "core/replan.hpp"

#include "core/buffer_commit.hpp"
#include "core/twopath.hpp"
#include "obs/counters.hpp"
#include "timing/delay.hpp"

namespace rabid::core {

std::vector<double> site_cost_table(const tile::TileGraph& graph) {
  std::vector<double> cost(static_cast<std::size_t>(graph.tile_count()));
  for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
    cost[static_cast<std::size_t>(t)] = graph.buffer_cost(t, 0.0);
  }
  return cost;
}

void rip_buffers(tile::TileGraph& graph, NetState& state,
                 std::span<double> site_cost) {
  obs::count(obs::Counter::kBuffersRemoved,
             static_cast<std::uint64_t>(state.buffers.size()));
  for (const route::BufferPlacement& b : state.buffers) {
    const tile::TileId t = state.tree.node(b.node).tile;
    graph.remove_buffer(t);
    if (!site_cost.empty()) {
      site_cost[static_cast<std::size_t>(t)] = graph.buffer_cost(t, 0.0);
    }
  }
  state.buffers.clear();
  state.buffer_types.clear();
}

void rip_wires(tile::TileGraph& graph, NetState& state, std::int32_t width,
               route::EdgeCostCache& cache, double* shard_floor) {
  state.tree.uncommit(graph, width);
  if (shard_floor != nullptr) {
    cache.refresh_tree_sharded(state.tree, *shard_floor);
  } else {
    cache.refresh_tree(state.tree);
  }
}

void rip_net(tile::TileGraph& graph, NetState& state, std::int32_t width,
             route::EdgeCostCache& cache) {
  if (state.tree.empty()) return;
  rip_buffers(graph, state);
  rip_wires(graph, state, width, cache);
  state = NetState{};
}

void commit_wires(tile::TileGraph& graph, NetState& state, std::int32_t width,
                  route::EdgeCostCache& cache, double* shard_floor) {
  state.tree.commit(graph, width);
  if (shard_floor != nullptr) {
    cache.refresh_tree_sharded(state.tree, *shard_floor);
  } else {
    cache.refresh_tree(state.tree);
  }
}

void maze_route(tile::TileGraph& graph, NetState& state,
                const netlist::Net& net, double alpha,
                route::MazeRouter& router, route::EdgeCostCache& cache,
                double* shard_floor) {
  const double floor =
      shard_floor != nullptr ? *shard_floor : cache.min_cost();
  state.tree = router.route_net(net, alpha, cache.values(), floor);
  commit_wires(graph, state, net.width, cache, shard_floor);
}

void buffer_net(tile::TileGraph& graph, NetState& state, std::int32_t L,
                const buffer::BufferLibrary& lib,
                std::span<const double> demand,
                const buffer::InsertionResult* first_attempt) {
  commit_buffers(graph, state, L, lib,
                 [&](std::span<const tile::TileId> forbidden) {
                   if (forbidden.empty() && first_attempt != nullptr) {
                     return *first_attempt;
                   }
                   return buffer::insert_buffers_relaxed(
                       state.tree, L, site_costs(graph, forbidden, demand),
                       lib);
                 });
}

void polish_net(tile::TileGraph& graph, NetState& state, std::int32_t L,
                std::int32_t width, const buffer::BufferLibrary& lib,
                route::EdgeCostCache& cache, std::span<double> site_cost,
                TwoPathRerouter& rerouter, double wire_weight) {
  rip_buffers(graph, state, site_cost);
  rip_wires(graph, state, width, cache);
  state.tree = rerouter.reroute(state.tree, L, cache.values(), site_cost,
                                wire_weight, cache.cut_floors());
  commit_wires(graph, state, width, cache);
  buffer_net(graph, state, L, lib);
  for (const route::BufferPlacement& b : state.buffers) {
    const tile::TileId t = state.tree.node(b.node).tile;
    site_cost[static_cast<std::size_t>(t)] = graph.buffer_cost(t, 0.0);
  }
}

void refresh_delay(const tile::TileGraph& graph, NetState& state,
                   std::int32_t width, const timing::Technology& tech) {
  if (state.tree.empty()) return;
  state.delay = timing::evaluate_delay(state.tree, state.buffers,
                                       state.buffer_types, graph,
                                       timing::scaled_for_width(tech, width));
}

void refresh_delays(const tile::TileGraph& graph,
                    const netlist::Design& design, std::span<NetState> nets,
                    const timing::Technology& tech, util::ThreadPool* pool) {
  const auto refresh_one = [&](std::size_t i) {
    refresh_delay(graph, nets[i],
                  design.net(static_cast<netlist::NetId>(i)).width, tech);
  };
  if (pool != nullptr) {
    pool->parallel_for(0, nets.size(), refresh_one);
  } else {
    for (std::size_t i = 0; i < nets.size(); ++i) refresh_one(i);
  }
}

}  // namespace rabid::core
