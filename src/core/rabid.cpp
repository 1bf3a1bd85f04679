#include "core/rabid.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "buffer/timing_driven.hpp"
#include "core/allocator.hpp"
#include "core/buffer_commit.hpp"
#include "core/checkpoint.hpp"
#include "core/congestion_post.hpp"
#include "core/solution_io.hpp"
#include "core/twopath.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "route/embed.hpp"
#include "route/maze.hpp"
#include "util/assert.hpp"

namespace rabid::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// True when the buffered tree satisfies the net's length rule: every
/// gate drives at most L tile-units (driver included).
bool meets_rule(const route::RouteTree& tree,
                const route::BufferList& buffers, std::int32_t L) {
  const std::size_t n = tree.node_count();
  std::vector<bool> driving(n, false);
  std::vector<bool> decoupled(n, false);
  for (const route::BufferPlacement& b : buffers) {
    if (b.child == route::kNoNode) {
      driving[static_cast<std::size_t>(b.node)] = true;
    } else {
      decoupled[static_cast<std::size_t>(b.child)] = true;
    }
  }
  std::vector<std::int32_t> load(n, 0);
  for (const route::NodeId v : tree.postorder()) {
    std::int32_t total = 0;
    for (const route::NodeId w : tree.node(v).children) {
      const std::int32_t arc = 1 + load[static_cast<std::size_t>(w)];
      if (decoupled[static_cast<std::size_t>(w)]) {
        if (arc > L) return false;
      } else {
        total += arc;
      }
    }
    if (driving[static_cast<std::size_t>(v)]) {
      if (total > L) return false;
      total = 0;
    }
    load[static_cast<std::size_t>(v)] = total;
  }
  return load[static_cast<std::size_t>(tree.root())] <= L;
}

}  // namespace

bool meets_length_rule(const route::RouteTree& tree,
                       const route::BufferList& buffers, std::int32_t L) {
  return meets_rule(tree, buffers, L);
}

Rabid::Rabid(const netlist::Design& design, tile::TileGraph& graph,
             RabidOptions options)
    : design_(design), graph_(graph), options_(options) {
  RABID_ASSERT_MSG(graph.stats().buffers_used == 0 && graph.wire_feasible(),
                   "tile graph usage books must start empty");
  // Observability is process-global; raise-only, so a default-options
  // instance (obs off) never silences a concurrently observed flow.
  obs::Registry::instance().raise_level(options_.obs_level);
  nets_.resize(design.nets().size());
  const std::size_t workers = util::resolve_thread_count(options_.threads);
  if (workers >= 2) pool_ = std::make_unique<util::ThreadPool>(workers);
  if (options_.deadline_ms > 0.0) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const double ticks =
        std::chrono::duration<double, Clock::period>(
            std::chrono::duration<double, std::milli>(options_.deadline_ms))
            .count();
    // A budget the clock cannot represent (+inf, or ~292 years of
    // nanoseconds) is no deadline: casting it to ticks would overflow.
    // Any double below the rounded room is below the exact room, so the
    // cast and the addition stay in range.
    const auto room =
        static_cast<double>((Clock::time_point::max() - now).count());
    if (ticks < room) {
      has_deadline_ = true;
      deadline_ = now + Clock::duration(static_cast<Clock::rep>(ticks));
    }
  }
}

Status Rabid::restore_solution(const LoadedSolution& solution,
                               int completed_stage) {
  if (completed_stage < 1 || completed_stage > 4) {
    return Status::failed_precondition("completed_stage must be in 1..4");
  }
  if (stage1_done_ || !stage_history_.empty()) {
    return Status::failed_precondition(
        "restore_solution needs a fresh instance (no stage has run)");
  }
  if (solution.nets.size() != design_.nets().size()) {
    return Status::invalid_input("solution net count != design net count",
                                 "solution");
  }
  if (solution.nx != graph_.nx() || solution.ny != graph_.ny()) {
    return Status::invalid_input("solution grid differs from the tile graph",
                                 "solution");
  }
  // Dry-run the buffer-site commits first: a checkpoint written against
  // different supplies must come back as an error, not trip
  // add_buffer's supply assert after half the books are mutated.
  std::vector<std::int32_t> site_need(
      static_cast<std::size_t>(graph_.tile_count()), 0);
  for (const NetState& n : solution.nets) {
    const auto node_count = static_cast<route::NodeId>(n.tree.node_count());
    for (const route::BufferPlacement& b : n.buffers) {
      if (b.node < 0 || b.node >= node_count) {
        return Status::invalid_input("buffer placement at nonexistent node",
                                     "solution");
      }
      const tile::TileId t = n.tree.node(b.node).tile;
      if (t < 0 || t >= graph_.tile_count()) {
        return Status::invalid_input("buffer placement outside the grid",
                                     "solution");
      }
      ++site_need[static_cast<std::size_t>(t)];
    }
  }
  for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
    const auto k = static_cast<std::size_t>(t);
    if (site_need[k] > graph_.site_supply(t) - graph_.site_usage(t)) {
      return Status::invalid_input(
          "solution needs " + std::to_string(site_need[k]) +
              " buffer sites in tile " + std::to_string(t) + " but only " +
              std::to_string(graph_.site_supply(t) - graph_.site_usage(t)) +
              " are free",
          "solution");
    }
  }
  nets_ = solution.nets;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    nets_[i].tree.commit(graph_,
                         design_.net(static_cast<netlist::NetId>(i)).width);
    for (const route::BufferPlacement& b : nets_[i].buffers) {
      graph_.add_buffer(nets_[i].tree.node(b.node).tile);
    }
  }
  stage1_done_ = true;
  stage3_done_ = completed_stage >= 3;
  // The dump's delays were evaluated under a caller-provided tech;
  // re-derive them under ours so the state is exactly what the stages
  // would have left behind.
  refresh_delays();
  obs::count(obs::Counter::kCheckpointLoads);
  return Status::ok();
}

Status Rabid::restore_stage2_progress(Stage2Progress progress) {
  if (!stage1_done_) {
    return Status::failed_precondition(
        "stage-2 progress needs a restored stage-1 solution first");
  }
  if (options_.stage2_shards > 0 && progress.next_pos > 0) {
    return Status::failed_precondition(
        "mid-iteration stage-2 checkpoints resume only with the serial "
        "engine (stage2_shards = 0)");
  }
  const char* const origin = "stage2_progress";
  if (progress.iteration < 0 ||
      progress.iteration > options_.reroute_iterations) {
    return Status::invalid_input("progress iteration out of range", origin);
  }
  if (progress.order.size() != nets_.size()) {
    return Status::invalid_input(
        "progress order has " + std::to_string(progress.order.size()) +
            " entries for a " + std::to_string(nets_.size()) + "-net design",
        origin);
  }
  std::vector<std::uint8_t> seen(nets_.size(), 0);
  for (const std::uint32_t i : progress.order) {
    if (i >= nets_.size() || seen[i] != 0) {
      return Status::invalid_input(
          "progress order is not a permutation of the net ids", origin);
    }
    seen[i] = 1;
  }
  if (progress.next_pos < 0 ||
      progress.next_pos > static_cast<std::int64_t>(progress.order.size())) {
    return Status::invalid_input("progress next_pos out of range", origin);
  }
  const auto edges = static_cast<std::size_t>(graph_.edge_count());
  if (progress.iteration > 0 || progress.next_pos > 0) {
    if (progress.snapshot.size() != edges) {
      return Status::invalid_input(
          "progress snapshot does not match the edge count", origin);
    }
    for (const double v : progress.snapshot) {
      if (!std::isfinite(v) || v < 0.0) {
        return Status::invalid_input(
            "progress snapshot holds a non-finite or negative cost", origin);
      }
    }
  }
  const bool needs_mask = progress.next_pos > 0 && progress.iteration > 0 &&
                          options_.stage2_dirty_filter;
  if (needs_mask && progress.edge_dirty.size() != edges) {
    return Status::invalid_input(
        "progress dirty mask does not match the edge count", origin);
  }
  if (!std::isfinite(progress.min_cost) || progress.min_cost < 0.0) {
    return Status::invalid_input("progress min_cost is not a finite cost",
                                 origin);
  }
  stage2_progress_ = std::make_unique<Stage2Progress>(std::move(progress));
  return Status::ok();
}

void Rabid::record_memory_gauges() const {
  if (!obs::counting()) return;
  obs::record_peak_rss();
  obs::gauge_max(obs::GaugeId::kTileGraphBytes, graph_.memory_bytes());
  std::uint64_t trees = 0;
  for (const NetState& n : nets_) trees += n.tree.memory_bytes();
  obs::gauge_max(obs::GaugeId::kRouteTreeBytes, trees);
}

void Rabid::refresh_delays() {
  obs::ScopedTimer obs_timer("refresh_delays", "flow");
  const auto refresh_one = [this](std::size_t i) {
    NetState& n = nets_[i];
    if (n.tree.empty()) return;
    // Wide-wire classes scale the RC model per net (footnote 4).
    const timing::Technology tech = timing::scaled_for_width(
        options_.tech, design_.net(static_cast<netlist::NetId>(i)).width);
    n.delay =
        timing::evaluate_delay(n.tree, n.buffers, n.buffer_types, graph_, tech);
  };
  // Each net touches only its own state; reads of the graph and design
  // are shared and const, so any schedule gives identical delays.
  if (pool_ != nullptr) {
    pool_->parallel_for(0, nets_.size(), refresh_one);
  } else {
    for (std::size_t i = 0; i < nets_.size(); ++i) refresh_one(i);
  }
}

std::vector<std::size_t> Rabid::nets_by_delay(bool ascending) const {
  std::vector<std::size_t> order(nets_.size());
  std::iota(order.begin(), order.end(), 0U);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ascending
                                ? nets_[a].delay.max_ps < nets_[b].delay.max_ps
                                : nets_[a].delay.max_ps > nets_[b].delay.max_ps;
                   });
  return order;
}

StageStats Rabid::snapshot(std::string stage_name, double cpu_s) const {
  return solution_snapshot(
      graph_, nets_, std::move(stage_name), cpu_s,
      pool_ == nullptr ? 1 : static_cast<std::int32_t>(pool_->size()));
}

StageStats solution_snapshot(const tile::TileGraph& graph,
                             std::span<const NetState> nets,
                             std::string stage, double cpu_s,
                             std::int32_t threads) {
  StageStats s;
  s.stage = std::move(stage);
  s.threads = threads;
  const tile::CongestionStats cs = graph.stats();
  s.max_wire_congestion = cs.max_wire_congestion;
  s.avg_wire_congestion = cs.avg_wire_congestion;
  s.overflow = cs.overflow;
  s.max_buffer_density = cs.max_buffer_density;
  s.avg_buffer_density = cs.avg_buffer_density;
  s.buffers = cs.buffers_used;
  s.cpu_s = cpu_s;
  double wl_um = 0.0;
  for (const NetState& n : nets) {
    if (n.tree.empty()) continue;
    wl_um += n.tree.wirelength_um(graph);
    if (!n.meets_length_rule) ++s.failed_nets;
    s.max_delay_ps = std::max(s.max_delay_ps, n.delay.max_ps);
  }
  s.wirelength_mm = wl_um / 1000.0;
  double delay_sum = 0.0;
  std::size_t sink_count = 0;
  for (const NetState& n : nets) {
    delay_sum += n.delay.sum_ps;
    sink_count += n.delay.sink_delays_ps.size();
  }
  s.avg_delay_ps =
      sink_count == 0 ? 0.0 : delay_sum / static_cast<double>(sink_count);
  return s;
}

void Rabid::check_books() const {
  tile::TileGraph shadow(graph_.chip(), graph_.nx(), graph_.ny());
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const NetState& n = nets_[i];
    if (n.tree.empty()) continue;
    const std::int32_t width =
        design_.net(static_cast<netlist::NetId>(i)).width;
    for (const route::RouteNode& node : n.tree.nodes()) {
      if (node.parent != route::kNoNode) {
        const tile::EdgeId e = shadow.edge_between(
            node.tile, n.tree.node(node.parent).tile);
        for (std::int32_t k = 0; k < width; ++k) shadow.add_wire(e);
      }
    }
  }
  for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    RABID_ASSERT_MSG(shadow.wire_usage(e) == graph_.wire_usage(e),
                     "wire books out of sync");
  }
  std::vector<std::int32_t> bufs(static_cast<std::size_t>(graph_.tile_count()),
                                 0);
  for (const NetState& n : nets_) {
    for (const route::BufferPlacement& b : n.buffers) {
      ++bufs[static_cast<std::size_t>(n.tree.node(b.node).tile)];
    }
  }
  for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
    RABID_ASSERT_MSG(bufs[static_cast<std::size_t>(t)] == graph_.site_usage(t),
                     "buffer books out of sync");
  }
}

route::RouteTree Rabid::build_net_tree(std::size_t index) const {
  return route::build_initial_route(
      design_.net(static_cast<netlist::NetId>(index)), graph_,
      options_.pd_alpha);
}

StageStats Rabid::run_stage1() {
  obs::ScopedTimer obs_timer("stage1", "stage");
  const auto start = std::chrono::steady_clock::now();
  const auto build_one = [this](std::size_t i) {
    NetState& state = nets_[i];
    // Expired deadline: leave the net unrouted (empty tree, flagged
    // fail) rather than overrun — the honest partial solution.
    if (deadline_hit()) return;
    state.tree = build_net_tree(i);
    state.meets_length_rule =
        meets_rule(state.tree, {},
                   design_.length_limit(static_cast<netlist::NetId>(i)));
  };
  if (pool_ != nullptr) {
    // Construction is a pure function of the net and the graph geometry
    // (it never reads the usage books), so building out of order and
    // committing in net order reproduces the serial run exactly.
    pool_->parallel_for(0, nets_.size(), build_one);
  } else {
    for (std::size_t i = 0; i < nets_.size(); ++i) build_one(i);
  }
  std::int64_t cancelled = 0;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i].tree.empty()) {
      ++cancelled;
      continue;
    }
    nets_[i].tree.commit(graph_,
                         design_.net(static_cast<netlist::NetId>(i)).width);
  }
  if (cancelled > 0) {
    nets_cancelled_ += cancelled;
    obs::count(obs::Counter::kDeadlineNetsCancelled,
               static_cast<std::uint64_t>(cancelled));
  }
  refresh_delays();
  stage1_done_ = true;
  record_memory_gauges();
  StageStats stats = snapshot("1", seconds_since(start));
  stage_history_.push_back(stats);
  maybe_audit("1", /*final_stage=*/false);
  return stats;
}

StageStats Rabid::run_stage2() {
  RABID_ASSERT_MSG(stage1_done_, "stage 2 requires stage 1");
  obs::ScopedTimer obs_timer("stage2", "stage");
  const auto start = std::chrono::steady_clock::now();
  route::MazeRouter router(graph_);
  // Net ordering fixed up front: smallest delay first (Section III-B).
  // A resumed run replays the checkpointed order instead — the live
  // delays were just recomputed from mid-stage trees, so rederiving the
  // order here would diverge from the interrupted run.
  std::vector<std::size_t> order;
  if (stage2_progress_ != nullptr) {
    order.reserve(stage2_progress_->order.size());
    for (const std::uint32_t i : stage2_progress_->order) {
      order.push_back(static_cast<std::size_t>(i));
    }
  } else {
    order = nets_by_delay(/*ascending=*/true);
  }

  // Per-pass flat edge costs: the eq. (1) evaluation is hoisted out of
  // the wavefront inner loop into a cache that is refreshed only for
  // edges a rip-up or commit actually changed.
  // `shard_floor`, when non-null, owns the A* step floor instead of the
  // cache's global bound: a parallel shard folds its refreshes into a
  // private floor (refresh_tree_sharded), so the shared minimum is
  // never written concurrently.
  auto reroute_net = [&](std::size_t i, route::MazeRouter& mr,
                         route::EdgeCostCache& cache, double* shard_floor) {
    NetState& state = nets_[i];
    // A net stage 1 never routed (deadline) stays unrouted and flagged.
    if (state.tree.empty()) return;
    const netlist::Net& net = design_.net(static_cast<netlist::NetId>(i));
    state.tree.uncommit(graph_, net.width);
    if (shard_floor != nullptr) {
      cache.refresh_tree_sharded(state.tree, *shard_floor);
    } else {
      cache.refresh_tree(state.tree);
    }
    const double floor =
        shard_floor != nullptr ? *shard_floor : cache.min_cost();
    state.tree = mr.route_net(net, options_.pd_alpha, cache.values(), floor);
    state.tree.commit(graph_, net.width);
    if (shard_floor != nullptr) {
      cache.refresh_tree_sharded(state.tree, *shard_floor);
    } else {
      cache.refresh_tree(state.tree);
    }
    state.meets_length_rule =
        meets_rule(state.tree, {},
                   design_.length_limit(static_cast<netlist::NetId>(i)));
  };

  route::EdgeCostCache cache(graph_, [this](tile::EdgeId e) {
    return route::soft_wire_cost(graph_, e);
  });
  // Iteration-start cost snapshot driving the dirty-net filter.
  std::vector<double> cost_snapshot;
  std::vector<std::uint8_t> edge_dirty;
  std::int32_t first_iter = 0;
  std::int64_t resume_pos = 0;
  double resume_floor = 0.0;
  if (stage2_progress_ != nullptr) {
    first_iter = stage2_progress_->iteration;
    resume_pos = stage2_progress_->next_pos;
    resume_floor = stage2_progress_->min_cost;
    cost_snapshot = std::move(stage2_progress_->snapshot);
    edge_dirty = std::move(stage2_progress_->edge_dirty);
  }

  // Checkpoint cadence (RabidOptions::checkpoint_every_nets): write a
  // resumable snapshot every N processed nets.  Failures warn and
  // continue — losing a checkpoint must not kill a multi-hour run.
  const bool cadence = options_.checkpoint_every_nets > 0 &&
                       !options_.checkpoint_dir.empty();
  std::int64_t nets_since_checkpoint = 0;
  const auto maybe_checkpoint =
      [&](std::int32_t next_iter, std::int64_t next_pos,
          const std::vector<std::uint8_t>* dirty_mask, double floor) {
        if (!cadence ||
            nets_since_checkpoint < options_.checkpoint_every_nets) {
          return;
        }
        nets_since_checkpoint = 0;
        Stage2Progress p;
        p.iteration = next_iter;
        p.next_pos = next_pos;
        p.order.reserve(order.size());
        for (const std::size_t i : order) {
          p.order.push_back(static_cast<std::uint32_t>(i));
        }
        p.snapshot = cost_snapshot;
        if (dirty_mask != nullptr) p.edge_dirty = *dirty_mask;
        p.min_cost = floor;
        if (Status s =
                write_stage2_checkpoint(options_.checkpoint_dir, *this, p);
            !s) {
          std::fprintf(stderr, "warning: stage-2 checkpoint failed: %s\n",
                       s.to_string().c_str());
        }
      };

  // Iteration prologue shared by both engines: refresh the cache,
  // rebuild the dirty-edge mask from the previous iteration's
  // snapshot, then re-snapshot.  A mid-iteration resume replays the
  // persisted bookkeeping instead — recomputing it from the
  // mid-iteration books would diverge from the interrupted run (and
  // point refreshes only ever lowered the floor, so folding the
  // captured value back under refresh_all()'s reproduces it exactly).
  const auto begin_iteration = [&](std::int32_t iter,
                                   bool resumed_mid) -> std::uint64_t {
    cache.refresh_all();
    std::uint64_t dirty_edges = 0;
    if (resumed_mid) {
      cache.lower_min(resume_floor);
      for (const std::uint8_t d : edge_dirty) dirty_edges += d;
      return dirty_edges;
    }
    if (options_.stage2_dirty_filter && iter > 0) {
      edge_dirty.assign(static_cast<std::size_t>(graph_.edge_count()), 0);
      for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
        const auto k = static_cast<std::size_t>(e);
        const bool overflowed =
            graph_.wire_usage(e) > graph_.wire_capacity(e);
        const bool moved =
            std::abs(cache[e] - cost_snapshot[k]) >
            kDirtyCostThreshold * cost_snapshot[k];
        if (overflowed || moved) {
          edge_dirty[k] = 1;
          ++dirty_edges;
        }
      }
    }
    cost_snapshot.assign(cache.values().begin(), cache.values().end());
    return dirty_edges;
  };
  // A net keeps its route unless the congestion picture under it
  // changed: every overflowed edge is dirty, so any net still causing
  // overflow is always ripped up.
  const auto net_dirty = [&](std::size_t i) {
    const route::RouteTree& tree = nets_[i].tree;
    for (const route::RouteNode& n : tree.nodes()) {
      if (n.parent == route::kNoNode) continue;
      const tile::EdgeId e =
          graph_.edge_between(n.tile, tree.node(n.parent).tile);
      if (edge_dirty[static_cast<std::size_t>(e)] != 0) return true;
    }
    return false;
  };
  // Does the net's current tree ride any edge that is overflowed right
  // now (books, not snapshot)?  Drives the sharded engine's
  // iteration-0 selectivity and its boundary escalation.
  const auto net_overflowed = [&](std::size_t i) {
    const route::RouteTree& tree = nets_[i].tree;
    for (const route::RouteNode& n : tree.nodes()) {
      if (n.parent == route::kNoNode) continue;
      const tile::EdgeId e =
          graph_.edge_between(n.tile, tree.node(n.parent).tile);
      if (graph_.wire_usage(e) > graph_.wire_capacity(e)) return true;
    }
    return false;
  };

  if (options_.stage2_shards <= 0) {
    // ---- Serial engine (the golden-pinned legacy loop). ----
    for (std::int32_t iter = first_iter;
         iter < options_.reroute_iterations; ++iter) {
      if (deadline_hit()) break;  // per-pass cancellation point
      obs::ScopedTimer iter_timer("stage2 iteration", "stage");
      obs::count(obs::Counter::kStage2Iterations);
      const bool resumed_mid = iter == first_iter && resume_pos > 0;
      const bool filter = options_.stage2_dirty_filter && iter > 0;
      const std::uint64_t dirty_edges = begin_iteration(iter, resumed_mid);
      std::uint64_t ripped = 0;
      std::uint64_t kept = 0;
      for (std::size_t k =
               resumed_mid ? static_cast<std::size_t>(resume_pos) : 0;
           k < order.size(); ++k) {
        const std::size_t i = order[k];
        if (filter && !net_dirty(i)) {
          ++kept;
        } else {
          ++ripped;
          reroute_net(i, router, cache, nullptr);
        }
        ++nets_since_checkpoint;
        maybe_checkpoint(iter, static_cast<std::int64_t>(k) + 1,
                         filter ? &edge_dirty : nullptr, cache.min_cost());
      }
      if (obs::counting()) {
        obs::count(obs::Counter::kStage2DirtyEdges, dirty_edges);
        obs::count(obs::Counter::kStage2NetsRipped, ripped);
        obs::count(obs::Counter::kStage2NetsKept, kept);
      }
      if (graph_.wire_feasible()) break;
      // Boundary checkpoint: next iteration, position 0, no mask (the
      // resume recomputes it from the persisted snapshot).
      maybe_checkpoint(iter + 1, 0, nullptr, 0.0);
    }
  } else {
    // ---- Region-sharded engine (RabidOptions::stage2_shards). ----
    const std::int32_t K = std::min(
        options_.stage2_shards, std::min(graph_.nx(), graph_.ny()));
    const tile::RegionGrid regions(graph_, K);
    const auto R = static_cast<std::size_t>(regions.region_count());
    // Interior-edge lists: edge e belongs to region r iff both of its
    // endpoints do.  A region-local net's uncommit/reroute/commit
    // touches only these, which is what makes shards disjoint.
    std::vector<std::vector<tile::EdgeId>> interior(R);
    for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
      const auto [a, b] = graph_.edge_tiles(e);
      const std::int32_t ra = regions.region_of(a);
      if (ra == regions.region_of(b)) {
        interior[static_cast<std::size_t>(ra)].push_back(e);
      }
    }
    // Router hand-out: one per concurrently live shard (bounded by
    // the pool width, not the region count — router scratch is the
    // per-shard memory cost).  Scratch is stamped, so which instance
    // a region draws cannot affect its routes.
    std::mutex router_mu;
    std::vector<std::unique_ptr<route::MazeRouter>> idle_routers;
    const auto acquire_router = [&]() -> std::unique_ptr<route::MazeRouter> {
      {
        std::lock_guard<std::mutex> lock(router_mu);
        if (!idle_routers.empty()) {
          std::unique_ptr<route::MazeRouter> r =
              std::move(idle_routers.back());
          idle_routers.pop_back();
          return r;
        }
      }
      return std::make_unique<route::MazeRouter>(graph_);
    };
    const auto release_router = [&](std::unique_ptr<route::MazeRouter> r) {
      std::lock_guard<std::mutex> lock(router_mu);
      idle_routers.push_back(std::move(r));
    };

    std::vector<std::vector<std::size_t>> local(R);
    // Boundary-crossing nets, replayed serially: (net, escalated).
    // An escalated net — still overflow-touching at iteration >= 1 —
    // routes truly unconfined; everything else is clipped to its own
    // tree's bounding box plus a detour halo (see the replay loop).
    std::vector<std::pair<std::size_t, bool>> boundary;
    std::vector<double> floors(R, 0.0);
    for (std::int32_t iter = first_iter;
         iter < options_.reroute_iterations; ++iter) {
      if (deadline_hit()) break;  // per-pass cancellation point
      obs::ScopedTimer iter_timer("stage2 iteration", "stage");
      obs::count(obs::Counter::kStage2Iterations);
      const bool filter = options_.stage2_dirty_filter && iter > 0;
      const std::uint64_t dirty_edges =
          begin_iteration(iter, /*resumed_mid=*/false);
      // Classify: a net is region-local iff every tile of its current
      // tree (which spans all its pins) sits in one region.  Local
      // nets keep the delay order within their shard; the boundary
      // replay is ordered by net id — both orders are fixed before
      // any routing, so the thread schedule cannot leak into results.
      //
      // Iteration 0 is overflow-selective (when the dirty filter is
      // enabled): stage 1 leaves congestion on a localized edge set,
      // so only nets actually riding an overflowed edge are ripped up
      // — everything else keeps its stage-1 tree, which is what makes
      // the sharded engine cheaper than the legacy full first pass.
      // From iteration 1 on, a net that is *still* overflow-touching
      // escalates to the unconfined boundary pass: a net whose region
      // has no spare capacity must be free to leave it, or it would
      // stay overflowed behind the confined search forever.
      const bool selective = options_.stage2_dirty_filter;
      for (std::vector<std::size_t>& l : local) l.clear();
      boundary.clear();
      std::uint64_t kept = 0;
      for (const std::size_t i : order) {
        const route::RouteTree& tree = nets_[i].tree;
        if (tree.empty()) continue;
        const bool over = selective && net_overflowed(i);
        if (selective && iter == 0 && !over) {
          ++kept;
          ++nets_since_checkpoint;
          continue;
        }
        if (filter && iter > 0 && !net_dirty(i)) {
          ++kept;
          ++nets_since_checkpoint;
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
        ++nets_since_checkpoint;
      }
      std::sort(boundary.begin(), boundary.end());
      std::uint64_t local_count = 0;
      for (const std::vector<std::size_t>& l : local) {
        local_count += l.size();
      }
      // The bounding-box clip: any route that could still meet the
      // net's length limit lives inside its current tree's bbox plus
      // a halo of L_i tiles, so the wavefront is confined to O(net)
      // tiles instead of O(region) or O(chip).  Deterministic — a
      // pure function of the net's pre-rip tree.
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
        return tile::TileSpan{
            std::max(lo.x - halo, 0), std::max(lo.y - halo, 0),
            std::min(hi.x + halo, graph_.nx() - 1),
            std::min(hi.y + halo, graph_.ny() - 1)};
      };
      // Parallel phase: each shard owns its region's interior edges —
      // of the books and of the cache — plus a private A* floor
      // seeded from the shard's own minimum, which is tighter than
      // the global bound.  Each net is further clipped to its halo
      // span intersected with the region, which preserves the
      // disjointness of concurrent shards' edge reads and writes.
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
          reroute_net(i, *mr, cache, &floors[r]);
        }
        release_router(std::move(mr));
      };
      if (pool_ != nullptr) {
        pool_->parallel_for(0, R, run_region);
      } else {
        for (std::size_t r = 0; r < R; ++r) run_region(r);
      }
      // Fold the shard floors back into the global bound, then replay
      // the boundary-crossing nets serially, unconfined.
      for (std::size_t r = 0; r < R; ++r) {
        if (!local[r].empty()) cache.lower_min(floors[r]);
      }
      // A congested reroute is what blows a wavefront up — the A*
      // floor is a chip-wide lower bound, so a path priced through
      // overflowed edges looks arbitrarily far from done and the
      // search floods.  Clip each boundary net to its current tree's
      // bounding box plus a detour halo of its own length limit: any
      // route that could still meet L_i lives inside that clip, and a
      // net whose clip has no spare capacity comes back overflowed
      // and escalates to a truly unconfined pass next iteration.
      // Selective mode only — without the overflow classification
      // there is no escalation path out of a too-tight clip.
      for (const auto& [i, escalated] : boundary) {
        if (selective && !escalated) {
          router.confine(halo_span(i));
        } else {
          router.unconfine();
        }
        reroute_net(i, router, cache, nullptr);
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
      maybe_checkpoint(iter + 1, 0, nullptr, 0.0);
    }
    if (obs::counting()) {
      std::uint64_t scratch = 0;
      for (const std::unique_ptr<route::MazeRouter>& r : idle_routers) {
        scratch += r->memory_bytes();
      }
      obs::gauge_max(obs::GaugeId::kMazeScratchBytes, scratch);
    }
  }
  if (obs::counting()) {
    obs::gauge_max(obs::GaugeId::kEdgeCostCacheBytes, cache.memory_bytes());
    obs::gauge_max(obs::GaugeId::kMazeScratchBytes, router.memory_bytes());
  }
  stage2_progress_.reset();
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
      nets_[i].meets_length_rule =
          meets_rule(nets_[i].tree, {},
                     design_.length_limit(static_cast<netlist::NetId>(i)));
    }
  }
  refresh_delays();
  record_memory_gauges();
  StageStats stats = snapshot("2", seconds_since(start));
  stage_history_.push_back(stats);
  maybe_audit("2", /*final_stage=*/false);
  return stats;
}

void Rabid::buffer_net(std::size_t index, std::span<const double> demand,
                       const buffer::InsertionResult* first_attempt) {
  NetState& state = nets_[index];
  const std::int32_t L =
      design_.length_limit(static_cast<netlist::NetId>(index));
  const buffer::BufferLibrary& lib = options_.buffer_library;
  commit_buffers(graph_, state, L, lib,
                 [&](std::span<const tile::TileId> forbidden) {
                   if (forbidden.empty() && first_attempt != nullptr) {
                     return *first_attempt;
                   }
                   return buffer::insert_buffers_planned_relaxed(
                       state.tree, L, site_costs(graph_, forbidden, demand),
                       lib);
                 });
}

StageStats Rabid::rebuffer_timing_driven(std::size_t worst_nets,
                                         const buffer::BufferLibrary& lib,
                                         bool use_inverters) {
  RABID_ASSERT_MSG(stage3_done_, "timing-driven rebuffering needs buffers");
  obs::ScopedTimer obs_timer("rebuffer_vG", "stage");
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::size_t> order = nets_by_delay(/*ascending=*/false);
  if (order.size() > worst_nets) order.resize(worst_nets);

  for (const std::size_t i : order) {
    // Per-net cancellation point: a skipped net keeps its complete
    // stage-3/4 buffering.
    if (deadline_hit()) break;
    NetState& state = nets_[i];
    if (state.tree.empty()) continue;
    // Return this net's sites to the pool; its old solution stays
    // reachable, so the optimum can only improve.
    obs::count(obs::Counter::kBuffersRemoved,
               static_cast<std::uint64_t>(state.buffers.size()));
    for (const route::BufferPlacement& b : state.buffers) {
      graph_.remove_buffer(state.tree.node(b.node).tile);
    }

    const std::int32_t L =
        design_.length_limit(static_cast<netlist::NetId>(i));
    const timing::Technology tech = timing::scaled_for_width(
        options_.tech, design_.net(static_cast<netlist::NetId>(i)).width);
    commit_buffers(
        graph_, state, L, lib, [&](std::span<const tile::TileId> forbidden) {
          const buffer::TileAllowFn allow = [&](tile::TileId t) {
            if (graph_.site_usage(t) >= graph_.site_supply(t)) return false;
            return std::find(forbidden.begin(), forbidden.end(), t) ==
                   forbidden.end();
          };
          buffer::TimingDrivenResult vg =
              use_inverters ? buffer::van_ginneken_with_inverters(
                                  state.tree, graph_, lib, allow, tech)
                            : buffer::van_ginneken(state.tree, graph_, lib,
                                                   allow, tech);
          buffer::InsertionResult result;
          result.buffers = std::move(vg.buffers);
          result.types = std::move(vg.types);
          return result;
        });
    // Timing won; report the length rule honestly.
    state.meets_length_rule = meets_rule(state.tree, state.buffers, L);
  }
  refresh_delays();
  record_memory_gauges();
  StageStats stats = snapshot("vG", seconds_since(start));
  stage_history_.push_back(stats);
  maybe_audit("vG", /*final_stage=*/true);
  return stats;
}

StageStats Rabid::run_stage3() {
  RABID_ASSERT_MSG(stage1_done_, "stage 3 requires a routing");
  obs::ScopedTimer obs_timer("stage3", "stage");
  const auto start = std::chrono::steady_clock::now();

  // p(v): expected demand from unprocessed nets — 1/L_i per crossed tile.
  std::vector<double> demand(static_cast<std::size_t>(graph_.tile_count()),
                             0.0);
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const double p =
        1.0 / design_.length_limit(static_cast<netlist::NetId>(i));
    for (const route::RouteNode& n : nets_[i].tree.nodes()) {
      demand[static_cast<std::size_t>(n.tile)] += p;
    }
  }

  // Highest-delay net first (Section III-C); alternatives for ablation.
  std::vector<std::size_t> order;
  switch (options_.stage3_order) {
    case Stage3Order::kDescendingDelay:
      order = nets_by_delay(/*ascending=*/false);
      break;
    case Stage3Order::kAscendingDelay:
      order = nets_by_delay(/*ascending=*/true);
      break;
    case Stage3Order::kAsGiven:
      order.resize(nets_.size());
      std::iota(order.begin(), order.end(), 0U);
      break;
  }
  if (pool_ != nullptr) {
    assign_buffers_parallel(order, demand);
  } else {
    for (std::size_t k = 0; k < order.size(); ++k) {
      // Per-net cancellation point: remaining nets keep their legal
      // stage-2 routes, honestly flagged (no buffers, rule unmet).
      if (deadline_hit()) {
        const auto cancelled = static_cast<std::int64_t>(order.size() - k);
        nets_cancelled_ += cancelled;
        obs::count(obs::Counter::kDeadlineNetsCancelled,
                   static_cast<std::uint64_t>(cancelled));
        break;
      }
      const std::size_t i = order[k];
      if (nets_[i].tree.empty()) continue;
      // The current net no longer counts as "future demand".
      const double p =
          1.0 / design_.length_limit(static_cast<netlist::NetId>(i));
      for (const route::RouteNode& n : nets_[i].tree.nodes()) {
        demand[static_cast<std::size_t>(n.tile)] -= p;
      }
      buffer_net(i, demand);
    }
  }
  refresh_delays();
  stage3_done_ = true;
  record_memory_gauges();
  StageStats stats = snapshot("3", seconds_since(start));
  stage_history_.push_back(stats);
  maybe_audit("3", /*final_stage=*/false);
  return stats;
}

void Rabid::assign_buffers_parallel(const std::vector<std::size_t>& order,
                                    std::vector<double>& demand) {
  // Speculative batches: per-net DPs run concurrently against the books
  // as of the batch start; commits then replay serially in `order`.  A
  // net whose tree crossed a tile that gained a buffer earlier in the
  // same batch has stale q-costs and falls back to the serial DP, so
  // the solution is bit-identical to the single-threaded loop at any
  // thread count.
  const std::size_t batch = pool_->size();
  std::vector<std::uint8_t> dirty(
      static_cast<std::size_t>(graph_.tile_count()), 0);
  std::vector<double> scratch;
  for (std::size_t b0 = 0; b0 < order.size(); b0 += batch) {
    // Per-batch cancellation point (a batch is at most pool-size nets,
    // so the granularity matches the serial per-net check).
    if (deadline_hit()) {
      const auto cancelled = static_cast<std::int64_t>(order.size() - b0);
      nets_cancelled_ += cancelled;
      obs::count(obs::Counter::kDeadlineNetsCancelled,
                 static_cast<std::uint64_t>(cancelled));
      break;
    }
    obs::ScopedTimer batch_timer("stage3 batch", "batch");
    const std::size_t count = std::min(batch, order.size() - b0);

    // Demand progression: replicate the serial per-node subtraction
    // order on a copy of the p(v) book, recording each net's
    // post-subtraction values for exactly the tiles its DP prices.
    scratch = demand;
    std::vector<std::unordered_map<tile::TileId, double>> net_demand(count);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = order[b0 + k];
      const double p =
          1.0 / design_.length_limit(static_cast<netlist::NetId>(i));
      for (const route::RouteNode& n : nets_[i].tree.nodes()) {
        scratch[static_cast<std::size_t>(n.tile)] -= p;
      }
      for (const route::RouteNode& n : nets_[i].tree.nodes()) {
        net_demand[k][n.tile] = scratch[static_cast<std::size_t>(n.tile)];
      }
    }

    // Parallel phase: nothing mutates the graph while the DPs read it.
    std::vector<buffer::InsertionResult> speculated(count);
    pool_->parallel_for(0, count, [&](std::size_t k) {
      const std::size_t i = order[b0 + k];
      if (nets_[i].tree.empty()) return;  // deadline-cancelled in stage 1
      const std::unordered_map<tile::TileId, double>& dm = net_demand[k];
      const auto q = [&](tile::TileId t) {
        const auto it = dm.find(t);
        RABID_ASSERT_MSG(it != dm.end(),
                         "speculative DP priced an off-tree tile");
        return graph_.buffer_cost(t, it->second);
      };
      speculated[k] = buffer::insert_buffers_planned_relaxed(
          nets_[i].tree, design_.length_limit(static_cast<netlist::NetId>(i)),
          q, options_.buffer_library);
    });

    // Serial phase: commits in net order, exactly as the serial loop
    // would.  A speculated result is valid while no earlier commit in
    // this batch placed a buffer in any tile its DP priced.
    std::fill(dirty.begin(), dirty.end(), 0);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = order[b0 + k];
      if (nets_[i].tree.empty()) continue;
      const double p =
          1.0 / design_.length_limit(static_cast<netlist::NetId>(i));
      bool fresh = true;
      for (const route::RouteNode& n : nets_[i].tree.nodes()) {
        demand[static_cast<std::size_t>(n.tile)] -= p;
        if (dirty[static_cast<std::size_t>(n.tile)] != 0) fresh = false;
      }
      obs::count(fresh ? obs::Counter::kStage3SpecHits
                       : obs::Counter::kStage3SpecMisses);
      buffer_net(i, demand, fresh ? &speculated[k] : nullptr);
      for (const route::BufferPlacement& b : nets_[i].buffers) {
        dirty[static_cast<std::size_t>(nets_[i].tree.node(b.node).tile)] = 1;
      }
    }
  }
}

StageStats Rabid::run_stage4() {
  RABID_ASSERT_MSG(stage3_done_, "stage 4 requires stage 3");
  obs::ScopedTimer obs_timer("stage4", "stage");
  const auto start = std::chrono::steady_clock::now();

  // Flat cost tables so the (tile x L) search pays one load per
  // relaxation.  Wire usage only moves at uncommit/commit, buffer-site
  // usage only at remove_buffer/buffer_net — each point below refreshes
  // exactly the entries it touched.
  route::EdgeCostCache wire_cache(graph_, [this](tile::EdgeId e) {
    return route::soft_wire_cost(graph_, e);
  });
  std::vector<double> site_cost(static_cast<std::size_t>(graph_.tile_count()));
  for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
    site_cost[static_cast<std::size_t>(t)] = graph_.buffer_cost(t, 0.0);
  }
  // One rerouter for the whole stage: its stamped (tile x L) scratch and
  // tree editor warm up once and every later net touches only its own.
  TwoPathRerouter rerouter(graph_);

  for (const std::size_t i : nets_by_delay(/*ascending=*/true)) {
    // Per-net cancellation point: a skipped net keeps its complete
    // (stage-3) solution, so the state stays fully legal.
    if (deadline_hit()) break;
    NetState& state = nets_[i];
    if (state.tree.empty()) continue;
    const std::int32_t L =
        design_.length_limit(static_cast<netlist::NetId>(i));

    // Rip out the net's buffers and wires from the books.
    obs::count(obs::Counter::kBuffersRemoved,
               static_cast<std::uint64_t>(state.buffers.size()));
    for (const route::BufferPlacement& b : state.buffers) {
      const tile::TileId t = state.tree.node(b.node).tile;
      graph_.remove_buffer(t);
      site_cost[static_cast<std::size_t>(t)] = graph_.buffer_cost(t, 0.0);
    }
    state.buffers.clear();
    const std::int32_t width =
        design_.net(static_cast<netlist::NetId>(i)).width;
    state.tree.uncommit(graph_, width);
    wire_cache.refresh_tree(state.tree);

    // Reroute one two-path at a time with joint wire+buffer costs.
    state.tree = rerouter.reroute(
        state.tree, L, wire_cache.values(), site_cost,
        options_.stage4_wire_weight, wire_cache.min_cost());
    state.tree.commit(graph_, width);
    wire_cache.refresh_tree(state.tree);

    // Re-insert buffers net-wide, exactly as in Stage 3.
    buffer_net(i, {});
    for (const route::BufferPlacement& b : state.buffers) {
      const tile::TileId t = state.tree.node(b.node).tile;
      site_cost[static_cast<std::size_t>(t)] = graph_.buffer_cost(t, 0.0);
    }
  }
  refresh_delays();
  if (obs::counting()) {
    obs::gauge_max(obs::GaugeId::kEdgeCostCacheBytes,
                   wire_cache.memory_bytes());
    obs::gauge_max(obs::GaugeId::kMazeScratchBytes,
                   rerouter.memory_bytes());
  }
  record_memory_gauges();
  StageStats stats = snapshot("4", seconds_since(start));
  stage_history_.push_back(stats);
  maybe_audit("4", /*final_stage=*/true);
  return stats;
}

std::vector<StageStats> Rabid::run_all() {
  std::vector<StageStats> stats;
  stats.push_back(run_stage1());
  // Stage-boundary cancellation points: once the deadline expires the
  // remaining stages are skipped outright and the current (legal,
  // audited-tolerant) partial solution is the result.
  if (!deadline_hit()) stats.push_back(run_stage2());
  if (!deadline_hit()) stats.push_back(run_stage3());
  if (!deadline_hit()) {
    stats.push_back(run_stage4());
  } else {
    // Stage 4 never started, so its final-stage audit never ran — but
    // the partial solution *is* final now, and a kFinal-level run still
    // has to see it audited.
    maybe_audit("deadline", /*final_stage=*/true);
  }
  return stats;
}

}  // namespace rabid::core
