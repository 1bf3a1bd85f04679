#pragma once

/// \file replan.hpp
/// The per-net re-plan steps every planner shares.
///
/// Each planner re-plans one net at a time from the same few steps:
/// take its buffers and wires out of the books, route it again, book
/// the new route and buffer it.  Stage 2 (Section III-B) rips the whole
/// net and maze-routes it under eq. (1); stage 4 (Section III-D) rips
/// the buffers, reroutes the net's two-paths with joint wire and buffer
/// costs, then re-inserts buffers as in stage 3.  The batch flow, the
/// ECO planner, the stream planner and the MCF legalizer all call the
/// functions here; what differs between them is only which nets they
/// pick, and in what order.
///
/// Book discipline: every step that moves the w(e) book refreshes the
/// touched entries of the caller's EdgeCostCache, and every step that
/// moves the b(v) book re-prices the touched entries of the caller's
/// site-cost table when one is given.  A step never refreshes anything
/// else, so the cached costs and the A* floor evolve exactly as if the
/// caller had written the step out.

#include <cstdint>
#include <span>
#include <vector>

#include "buffer/insertion.hpp"
#include "buffer/library.hpp"
#include "core/rabid.hpp"
#include "netlist/design.hpp"
#include "route/maze.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "timing/tech.hpp"
#include "util/thread_pool.hpp"

namespace rabid::core {

class TwoPathRerouter;  // core/twopath.hpp

/// True when some arc of `tree` rides a tile-graph edge e with pred(e);
/// false on an empty tree.
template <typename Pred>
bool any_arc(const tile::TileGraph& graph, const route::RouteTree& tree,
             Pred&& pred) {
  for (const route::RouteNode& n : tree.nodes()) {
    if (n.parent == route::kNoNode) continue;
    if (pred(graph.edge_between(n.tile, tree.node(n.parent).tile))) {
      return true;
    }
  }
  return false;
}

/// q(v) at expected demand p(v) = 0 for every tile: the flat site-cost
/// table the stage-4 search prices buffers with.
std::vector<double> site_cost_table(const tile::TileGraph& graph);

/// Returns the net's buffers to the b(v) book and clears
/// `state.buffers` and `state.buffer_types`.  When `site_cost` is
/// non-empty, re-prices each freed tile in it at p(v) = 0.
void rip_buffers(tile::TileGraph& graph, NetState& state,
                 std::span<double> site_cost = {});

/// Takes the net's wires (`width` tracks each) out of the w(e) book and
/// refreshes the cache on every edge the tree crosses.  `shard_floor`,
/// when non-null, takes the place of the cache's global A* floor (a
/// parallel shard's private floor; EdgeCostCache::refresh_tree_sharded).
/// `state.tree` stays, uncommitted: it seeds a stage-4 reroute.
void rip_wires(tile::TileGraph& graph, NetState& state, std::int32_t width,
               route::EdgeCostCache& cache, double* shard_floor = nullptr);

/// Rips a routed net out of both books and leaves `state` unrouted (a
/// default NetState).  No-op on a net with no tree.
void rip_net(tile::TileGraph& graph, NetState& state, std::int32_t width,
             route::EdgeCostCache& cache);

/// Books `state.tree` into the w(e) book and refreshes the cache on its
/// edges (on `shard_floor` when non-null, as in rip_wires).
void commit_wires(tile::TileGraph& graph, NetState& state, std::int32_t width,
                  route::EdgeCostCache& cache, double* shard_floor = nullptr);

/// Maze-routes `net` on `router` under the cached eq. (1) costs, with
/// `*shard_floor` (else the cache's min_cost()) as the A* floor, makes
/// it `state.tree` and commits it.  The old route must be ripped first.
void maze_route(tile::TileGraph& graph, NetState& state,
                const netlist::Net& net, double alpha,
                route::MazeRouter& router, route::EdgeCostCache& cache,
                double* shard_floor = nullptr);

/// Stage-3 buffering of the committed `state.tree`: the relaxed DP under
/// eq. (2) site costs at expected demand `demand` (empty: p(v) = 0),
/// booked by commit_buffers.  `first_attempt`, when given, is used as the
/// first proposal; it must have been computed against exactly the costs
/// the DP would see here (stage 3's speculative parallel path).
void buffer_net(tile::TileGraph& graph, NetState& state, std::int32_t L,
                const buffer::BufferLibrary& lib,
                std::span<const double> demand = {},
                const buffer::InsertionResult* first_attempt = nullptr);

/// Stage 4 for one buffered net (Section III-D): rips its buffers and
/// wires, reroutes every two-path under wire_weight * eq. (1) + eq. (2),
/// commits the new tree and re-buffers it as in stage 3.  `site_cost`
/// is the caller's q(v)-at-p=0 table (site_cost_table), kept current on
/// every tile whose buffers moved.
void polish_net(tile::TileGraph& graph, NetState& state, std::int32_t L,
                std::int32_t width, const buffer::BufferLibrary& lib,
                route::EdgeCostCache& cache, std::span<double> site_cost,
                TwoPathRerouter& rerouter, double wire_weight);

/// Re-evaluates one net's Elmore delay from its tree and buffers under
/// `tech` scaled for the net's wire width (footnote 4).  No-op on a net
/// with no tree.
void refresh_delay(const tile::TileGraph& graph, NetState& state,
                   std::int32_t width, const timing::Technology& tech);

/// refresh_delay for every net of `design`, across `pool` when given.
/// Each net touches only its own state, so any schedule gives identical
/// delays.
void refresh_delays(const tile::TileGraph& graph,
                    const netlist::Design& design, std::span<NetState> nets,
                    const timing::Technology& tech, util::ThreadPool* pool);

}  // namespace rabid::core
