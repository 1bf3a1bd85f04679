// Stage 2 (Section III-B): Nair-style rip-up and reroute.  The serial
// loop and the region-sharded engine (DESIGN.md §12) share the reroute,
// the iteration prologue and the dirty-net filter.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/congestion_post.hpp"
#include "core/rabid.hpp"
#include "core/replan.hpp"
#include "obs/trace.hpp"
#include "route/maze.hpp"
#include "tile/region.hpp"
#include "util/assert.hpp"

namespace rabid::core {

namespace {

/// Iteration prologue shared by both loops: refresh the cache, rebuild
/// the dirty-edge mask (edges that overflowed or whose eq. (1) cost
/// moved since the previous iteration began) from `snapshot` when
/// `filter` is on, then re-snapshot.  Returns the dirty-edge count.
std::uint64_t begin_iteration(const tile::TileGraph& graph,
                              route::EdgeCostCache& cache, bool filter,
                              std::vector<double>& snapshot,
                              std::vector<std::uint8_t>& edge_dirty) {
  cache.refresh_all();
  std::uint64_t dirty_edges = 0;
  if (filter) {
    edge_dirty.assign(static_cast<std::size_t>(graph.edge_count()), 0);
    for (tile::EdgeId e = 0; e < graph.edge_count(); ++e) {
      const auto k = static_cast<std::size_t>(e);
      const bool overflowed = graph.wire_usage(e) > graph.wire_capacity(e);
      const bool moved =
          std::abs(cache[e] - snapshot[k]) > kDirtyCostThreshold * snapshot[k];
      if (overflowed || moved) {
        edge_dirty[k] = 1;
        ++dirty_edges;
      }
    }
  }
  snapshot.assign(cache.values().begin(), cache.values().end());
  return dirty_edges;
}

}  // namespace

StageStats Rabid::run_stage2() {
  RABID_ASSERT_MSG(stage1_done_, "stage 2 requires stage 1");
  obs::ScopedTimer obs_timer("stage2", "stage");
  const auto start = std::chrono::steady_clock::now();
  route::MazeRouter router(graph_);
  // Net ordering fixed up front: smallest delay first (Section III-B).
  const std::vector<std::size_t> order = nets_by_delay(/*ascending=*/true);
  // Per-pass flat eq. (1) edge costs, refreshed only for the edges a
  // rip-up or commit actually changed.
  route::EdgeCostCache cache(graph_, [this](tile::EdgeId e) {
    return route::soft_wire_cost(graph_, e);
  });
  if (options_.stage2_shards <= 0) {
    stage2_serial(order, router, cache);
  } else {
    stage2_sharded(order, router, cache);
  }
  if (obs::counting()) {
    obs::gauge_max(obs::GaugeId::kEdgeCostCacheBytes, cache.memory_bytes());
    obs::gauge_max(obs::GaugeId::kMazeScratchBytes, router.memory_bytes());
  }
  if (options_.congestion_post_after_stage2) {
    // The Table-V post-pass: spread monotone two-paths at constant
    // wirelength while no buffers pin the routes yet.  (The pass edits
    // usage one track at a time, so wide-wire nets sit it out.)
    std::vector<std::size_t> eligible;
    std::vector<route::RouteTree> trees;
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      if (design_.net(static_cast<netlist::NetId>(i)).width != 1) continue;
      if (nets_[i].tree.empty()) continue;  // deadline-cancelled in stage 1
      eligible.push_back(i);
      trees.push_back(std::move(nets_[i].tree));
    }
    minimize_congestion(graph_, trees);
    for (std::size_t k = 0; k < eligible.size(); ++k) {
      const std::size_t i = eligible[k];
      nets_[i].tree = std::move(trees[k]);
      nets_[i].meets_length_rule = meets_length_rule(
          nets_[i].tree, {},
          design_.length_limit(static_cast<netlist::NetId>(i)));
    }
  }
  refresh_delays();
  record_memory_gauges();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  StageStats stats = snapshot("2", elapsed.count());
  stage_history_.push_back(stats);
  maybe_audit("2", /*final_stage=*/false, /*overflow_pending=*/true);
  return stats;
}

void Rabid::stage2_reroute(std::size_t index, route::MazeRouter& router,
                           route::EdgeCostCache& cache, double* shard_floor) {
  NetState& state = nets_[index];
  // A net stage 1 never routed (deadline) stays unrouted and flagged.
  if (state.tree.empty()) return;
  const auto id = static_cast<netlist::NetId>(index);
  const netlist::Net& net = design_.net(id);
  rip_wires(graph_, state, net.width, cache, shard_floor);
  maze_route(graph_, state, net, options_.pd_alpha, router, cache,
             shard_floor);
  state.meets_length_rule =
      meets_length_rule(state.tree, {}, design_.length_limit(id));
}

void Rabid::stage2_serial(const std::vector<std::size_t>& order,
                          route::MazeRouter& router,
                          route::EdgeCostCache& cache) {
  std::vector<double> snapshot;
  std::vector<std::uint8_t> edge_dirty;
  const auto dirty_edge = [&](tile::EdgeId e) {
    return edge_dirty[static_cast<std::size_t>(e)] != 0;
  };
  for (std::int32_t iter = 0; iter < options_.reroute_iterations; ++iter) {
    if (deadline_hit()) break;  // per-pass cancellation point
    obs::ScopedTimer iter_timer("stage2 iteration", "stage");
    obs::count(obs::Counter::kStage2Iterations);
    const bool filter = options_.stage2_dirty_filter && iter > 0;
    const std::uint64_t dirty_edges =
        begin_iteration(graph_, cache, filter, snapshot, edge_dirty);
    // A net keeps its route unless the congestion picture under it
    // changed: every overflowed edge is dirty, so any net still causing
    // overflow is always ripped up.
    std::uint64_t kept = 0;
    for (const std::size_t i : order) {
      if (filter && !any_arc(graph_, nets_[i].tree, dirty_edge)) {
        ++kept;
      } else {
        stage2_reroute(i, router, cache, nullptr);
      }
    }
    if (obs::counting()) {
      obs::count(obs::Counter::kStage2DirtyEdges, dirty_edges);
      obs::count(obs::Counter::kStage2NetsRipped, order.size() - kept);
      obs::count(obs::Counter::kStage2NetsKept, kept);
    }
    if (graph_.wire_feasible()) break;
  }
}

void Rabid::stage2_sharded(const std::vector<std::size_t>& order,
                           route::MazeRouter& router,
                           route::EdgeCostCache& cache) {
  const std::int32_t K =
      std::min(options_.stage2_shards, std::min(graph_.nx(), graph_.ny()));
  const tile::RegionGrid regions(graph_, K);
  const auto R = static_cast<std::size_t>(regions.region_count());
  // Interior edges: e belongs to region r iff both endpoints do.  A
  // region-local net's reroute touches only these, so shards are disjoint.
  std::vector<std::vector<tile::EdgeId>> interior(R);
  for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const auto [a, b] = graph_.edge_tiles(e);
    const std::int32_t ra = regions.region_of(a);
    if (ra == regions.region_of(b)) {
      interior[static_cast<std::size_t>(ra)].push_back(e);
    }
  }
  // One router per concurrently live shard (bounded by the pool width).
  // Scratch is stamped, so which instance a region draws cannot affect
  // its routes.
  std::mutex router_mu;
  std::vector<std::unique_ptr<route::MazeRouter>> idle_routers;
  const auto acquire_router = [&]() -> std::unique_ptr<route::MazeRouter> {
    std::lock_guard<std::mutex> lock(router_mu);
    if (idle_routers.empty()) {
      return std::make_unique<route::MazeRouter>(graph_);
    }
    std::unique_ptr<route::MazeRouter> r = std::move(idle_routers.back());
    idle_routers.pop_back();
    return r;
  };
  const auto release_router = [&](std::unique_ptr<route::MazeRouter> r) {
    std::lock_guard<std::mutex> lock(router_mu);
    idle_routers.push_back(std::move(r));
  };
  // The halo span: any route that could still meet the net's length
  // limit lives inside its pre-rip tree's bbox plus a halo of L_i tiles,
  // so the wavefront is confined to O(net) tiles.
  const auto halo_span = [&](std::size_t i) {
    const route::RouteTree& tree = nets_[i].tree;
    geom::TileCoord lo = graph_.coord_of(tree.node(0).tile);
    geom::TileCoord hi = lo;
    for (const route::RouteNode& n : tree.nodes()) {
      const geom::TileCoord c = graph_.coord_of(n.tile);
      lo.x = std::min(lo.x, c.x);
      lo.y = std::min(lo.y, c.y);
      hi.x = std::max(hi.x, c.x);
      hi.y = std::max(hi.y, c.y);
    }
    const std::int32_t halo = std::max<std::int32_t>(
        8, design_.length_limit(static_cast<netlist::NetId>(i)));
    return tile::TileSpan{std::max(lo.x - halo, 0), std::max(lo.y - halo, 0),
                          std::min(hi.x + halo, graph_.nx() - 1),
                          std::min(hi.y + halo, graph_.ny() - 1)};
  };

  std::vector<double> snapshot;
  std::vector<std::uint8_t> edge_dirty;
  const auto dirty_edge = [&](tile::EdgeId e) {
    return edge_dirty[static_cast<std::size_t>(e)] != 0;
  };
  // Overflowed right now (books, not snapshot): drives iteration-0
  // selectivity and the boundary escalation.
  const auto overflowed = [&](tile::EdgeId e) {
    return graph_.wire_usage(e) > graph_.wire_capacity(e);
  };
  std::vector<std::vector<std::size_t>> local(R);
  // Boundary-crossing nets, replayed serially: (net, escalated).  An
  // escalated net — still overflow-touching at iteration >= 1 — routes
  // truly unconfined; everything else is clipped to its halo span.
  std::vector<std::pair<std::size_t, bool>> boundary;
  std::vector<double> floors(R, 0.0);
  for (std::int32_t iter = 0; iter < options_.reroute_iterations; ++iter) {
    if (deadline_hit()) break;  // per-pass cancellation point
    obs::ScopedTimer iter_timer("stage2 iteration", "stage");
    obs::count(obs::Counter::kStage2Iterations);
    const bool filter = options_.stage2_dirty_filter && iter > 0;
    const std::uint64_t dirty_edges =
        begin_iteration(graph_, cache, filter, snapshot, edge_dirty);
    // Classify: a net is region-local iff every tile of its current tree
    // sits in one region.  Local nets keep the delay order within their
    // shard; the boundary replay is ordered by net id — both fixed before
    // any routing, so the thread schedule cannot leak into results.
    // With the dirty filter on, iteration 0 rips up only nets riding an
    // overflowed edge (stage-1 congestion is localized), and from
    // iteration 1 on a net *still* overflow-touching escalates to the
    // unconfined boundary pass, so a full region cannot trap it.
    const bool selective = options_.stage2_dirty_filter;
    for (std::vector<std::size_t>& l : local) l.clear();
    boundary.clear();
    std::uint64_t kept = 0;
    for (const std::size_t i : order) {
      const route::RouteTree& tree = nets_[i].tree;
      if (tree.empty()) continue;
      const bool over = selective && any_arc(graph_, tree, overflowed);
      if ((selective && iter == 0 && !over) ||
          (filter && !any_arc(graph_, tree, dirty_edge))) {
        ++kept;
        continue;
      }
      std::int32_t region =
          over && iter > 0 ? -1 : regions.region_of(tree.node(0).tile);
      for (const route::RouteNode& n : tree.nodes()) {
        if (region < 0 || regions.region_of(n.tile) != region) {
          region = -1;
          break;
        }
      }
      if (region >= 0) {
        local[static_cast<std::size_t>(region)].push_back(i);
      } else {
        boundary.emplace_back(i, over && iter > 0);
      }
    }
    std::sort(boundary.begin(), boundary.end());
    std::uint64_t local_count = 0;
    for (const std::vector<std::size_t>& l : local) local_count += l.size();
    // Parallel phase: each shard owns its region's interior edges — of
    // the books and of the cache — plus a private A* floor seeded from
    // the shard's own minimum.  Clipping each net to its halo span
    // intersected with the region keeps concurrent shards disjoint.
    const auto run_region = [&](std::size_t r) {
      if (local[r].empty()) return;
      std::unique_ptr<route::MazeRouter> mr = acquire_router();
      const tile::TileSpan rs = regions.span(static_cast<std::int32_t>(r));
      floors[r] = cache.min_over(interior[r]);
      for (const std::size_t i : local[r]) {
        tile::TileSpan s = halo_span(i);
        s.x0 = std::max(s.x0, rs.x0);
        s.y0 = std::max(s.y0, rs.y0);
        s.x1 = std::min(s.x1, rs.x1);
        s.y1 = std::min(s.y1, rs.y1);
        mr->confine(s);
        stage2_reroute(i, *mr, cache, &floors[r]);
      }
      release_router(std::move(mr));
    };
    if (pool_ != nullptr) {
      pool_->parallel_for(0, R, run_region);
    } else {
      for (std::size_t r = 0; r < R; ++r) run_region(r);
    }
    // Fold the shard floors back into the global bound, then replay the
    // boundary-crossing nets serially.
    for (std::size_t r = 0; r < R; ++r) {
      if (!local[r].empty()) cache.lower_min(floors[r]);
    }
    // A congested reroute floods the wavefront (the A* floor is a
    // chip-wide bound), so each boundary net is clipped to its halo
    // span; one whose clip has no spare capacity comes back overflowed
    // and escalates next iteration.  Selective mode only — without the
    // overflow classification there is no escalation out of a clip.
    for (const auto& [i, escalated] : boundary) {
      if (selective && !escalated) {
        router.confine(halo_span(i));
      } else {
        router.unconfine();
      }
      stage2_reroute(i, router, cache, nullptr);
    }
    router.unconfine();
    if (obs::counting()) {
      obs::count(obs::Counter::kStage2DirtyEdges, dirty_edges);
      obs::count(obs::Counter::kStage2NetsRipped,
                 local_count + boundary.size());
      obs::count(obs::Counter::kStage2NetsKept, kept);
      obs::count(obs::Counter::kStage2LocalNets, local_count);
      obs::count(obs::Counter::kStage2BoundaryNets, boundary.size());
    }
    if (graph_.wire_feasible()) break;
  }
  if (obs::counting()) {
    std::uint64_t scratch = 0;
    for (const auto& r : idle_routers) scratch += r->memory_bytes();
    obs::gauge_max(obs::GaugeId::kMazeScratchBytes, scratch);
  }
}

}  // namespace rabid::core
