#include "core/rabid.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "buffer/timing_driven.hpp"
#include "core/buffer_commit.hpp"
#include "core/replan.hpp"
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

}  // namespace

bool meets_length_rule(const route::RouteTree& tree,
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
    for (const route::NodeId w : tree.node(v).children()) {
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

Rabid::Rabid(const netlist::Design& design, tile::TileGraph& graph,
             RabidOptions options)
    : Allocator(design, graph, std::move(options)) {
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
  core::refresh_delays(graph_, design_, nets_, options_.tech, pool_.get());
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
  return solution_snapshot(graph_, nets_, std::move(stage_name), cpu_s,
                           threads());
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
        meets_length_rule(state.tree, {},
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
  maybe_audit("1", /*final_stage=*/false, /*overflow_pending=*/true);
  return stats;
}

StageStats Rabid::rebuffer_timing_driven(std::size_t worst_nets,
                                         const buffer::BufferLibrary& lib) {
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
    rip_buffers(graph_, state);

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
              buffer::van_ginneken(state.tree, graph_, lib, allow, tech);
          buffer::InsertionResult result;
          result.buffers = std::move(vg.buffers);
          result.types = std::move(vg.types);
          return result;
        });
    // Timing won; report the length rule honestly.
    state.meets_length_rule = meets_length_rule(state.tree, state.buffers, L);
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
      const std::int32_t L =
          design_.length_limit(static_cast<netlist::NetId>(i));
      const double p = 1.0 / L;
      for (const route::RouteNode& n : nets_[i].tree.nodes()) {
        demand[static_cast<std::size_t>(n.tile)] -= p;
      }
      buffer_net(graph_, nets_[i], L, options_.buffer_library, demand);
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
      speculated[k] = buffer::insert_buffers_relaxed(
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
      const std::int32_t L =
          design_.length_limit(static_cast<netlist::NetId>(i));
      const double p = 1.0 / L;
      bool fresh = true;
      for (const route::RouteNode& n : nets_[i].tree.nodes()) {
        demand[static_cast<std::size_t>(n.tile)] -= p;
        if (dirty[static_cast<std::size_t>(n.tile)] != 0) fresh = false;
      }
      obs::count(fresh ? obs::Counter::kStage3SpecHits
                       : obs::Counter::kStage3SpecMisses);
      buffer_net(graph_, nets_[i], L, options_.buffer_library, demand,
                 fresh ? &speculated[k] : nullptr);
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
  // relaxation; polish_net keeps both current on exactly the entries its
  // rips and commits touch.
  route::EdgeCostCache wire_cache(graph_, [this](tile::EdgeId e) {
    return route::soft_wire_cost(graph_, e);
  });
  std::vector<double> site_cost = site_cost_table(graph_);
  // One rerouter for the whole stage: its stamped (tile x L) scratch and
  // tree editor warm up once and every later net touches only its own.
  TwoPathRerouter rerouter(graph_);

  for (const std::size_t i : nets_by_delay(/*ascending=*/true)) {
    // Per-net cancellation point: a skipped net keeps its complete
    // (stage-3) solution, so the state stays fully legal.
    if (deadline_hit()) break;
    if (nets_[i].tree.empty()) continue;
    const auto id = static_cast<netlist::NetId>(i);
    polish_net(graph_, nets_[i], design_.length_limit(id),
               design_.net(id).width, options_.buffer_library, wire_cache,
               site_cost, rerouter, options_.stage4_wire_weight);
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
