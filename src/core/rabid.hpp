#pragma once

/// \file rabid.hpp
/// The four-stage RABID heuristic (Section III): resource allocation for
/// buffer and interconnect distribution.
///
///   Stage 1  initial Steiner trees       (Prim-Dijkstra + overlap removal)
///   Stage 2  wire-congestion reduction   (Nair-style full rip-up/reroute)
///   Stage 3  buffer assignment           (length-based DP, eq. 2 costs)
///   Stage 4  post-processing             (two-path rip-up with joint
///                                         wire+buffer costs, re-buffering)
///
/// The driver owns per-net state (route tree, buffers, delays) and keeps
/// the tile graph's w(e)/b(v) books consistent at every step; stats()
/// emits exactly the columns of Table II.
///
/// Per-net work in Stages 1 and 3 (and every delay refresh) runs on a
/// fixed-size thread pool when RabidOptions::threads allows; all book
/// mutations stay serialized in the paper's net order, so the solution
/// is bit-identical at any thread count (see DESIGN.md, "Parallelism").

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "buffer/insertion.hpp"
#include "core/allocator.hpp"
#include "core/status.hpp"
#include "obs/counters.hpp"
#include "util/thread_pool.hpp"

namespace rabid::route {
class EdgeCostCache;  // route/maze.hpp
class MazeRouter;     // route/maze.hpp
}  // namespace rabid::route

namespace rabid::core {

struct LoadedSolution;  // core/solution_io.hpp

class Rabid final : public Allocator {
 public:
  /// Binds to a design and a tile graph whose capacities/sites are set.
  /// The graph's usage books must be empty; Rabid owns them from here.
  Rabid(const netlist::Design& design, tile::TileGraph& graph,
        RabidOptions options = {});

  Backend backend() const override { return Backend::kRabid; }
  /// The whole flow: run_all().
  std::vector<StageStats> plan() override { return run_all(); }

  // Stages may be run individually (for ablation) or via run_all().
  StageStats run_stage1();
  StageStats run_stage2();
  StageStats run_stage3();
  StageStats run_stage4();
  /// Runs stages 1-4 and returns the four Table II rows.
  std::vector<StageStats> run_all();

  /// The paper's prescribed later-flow step (Section II): rips up the
  /// buffering of the `worst_nets` highest-delay nets and re-inserts
  /// buffers with the timing-driven van Ginneken algorithm [18] and the
  /// cells of `lib` (by default the power-level buffers, no inverters),
  /// honoring remaining site supply.  Requires stage 3.  Wire routes are
  /// untouched; the length rule may be knowingly traded for delay (flags
  /// are re-evaluated honestly).
  StageStats rebuffer_timing_driven(
      std::size_t worst_nets,
      const buffer::BufferLibrary& lib =
          buffer::BufferLibrary::standard_180nm().buffers_only());

  /// Current solution snapshot (stats of the live books).
  StageStats snapshot(std::string stage_name, double cpu_s) const;

  /// True once the cooperative deadline (RabidOptions::deadline_ms)
  /// expired; the solution is the best legal partial state.
  bool timed_out() const override {
    return deadline_expired_.load(std::memory_order_relaxed);
  }
  /// Net-processing steps skipped because the deadline expired (stage-1
  /// routings never built, stage-3 bufferings never attempted).  Nets
  /// skipped by stages 2/4/vG keep a complete earlier solution and are
  /// not counted.
  std::int64_t nets_cancelled() const override { return nets_cancelled_; }

  /// Installs a previously dumped solution (core/solution_io.hpp) as
  /// the current state, as if the stages that produced it had just run:
  /// trees and buffers are committed to the books, stage-completion
  /// flags are set from `completed_stage` (1..4), and delays are
  /// re-evaluated under options_.tech.  Requires a fresh instance
  /// (no stage run yet, books empty).  On error the books are left
  /// untouched and a structured Status explains the mismatch — a
  /// hostile checkpoint cannot corrupt the instance.
  Status restore_solution(const LoadedSolution& solution,
                          int completed_stage);

  /// Recomputes every net's delay from its current tree + buffers.
  void refresh_delays();

 private:
  /// Stage-1 construction for one net (PD + Steiner + embedding).  Pure:
  /// reads only the design and the graph's geometry, never its books.
  route::RouteTree build_net_tree(std::size_t index) const;

  /// The two stage-2 loops (stage2.cpp) over the smallest-delay-first
  /// `order`: the serial Nair loop (stage2_shards == 0) and the
  /// region-sharded engine.  Both reroute through `cache`; `router` is
  /// the serial router (the sharded engine's boundary replay).
  void stage2_serial(const std::vector<std::size_t>& order,
                     route::MazeRouter& router, route::EdgeCostCache& cache);
  void stage2_sharded(const std::vector<std::size_t>& order,
                      route::MazeRouter& router, route::EdgeCostCache& cache);

  /// Stage-2 rip-up and reroute of one net on `router` under the cached
  /// eq. (1) costs (core/replan.hpp's rip_wires + maze_route).
  /// `shard_floor`, when non-null, owns the A* step floor instead of the
  /// cache's global bound (a parallel shard's private floor; see
  /// EdgeCostCache::refresh_tree_sharded).
  void stage2_reroute(std::size_t index, route::MazeRouter& router,
                      route::EdgeCostCache& cache, double* shard_floor);

  /// Stage-3 buffer assignment over `order` with per-net DPs speculated
  /// across the pool and commits serialized in `order` (bit-identical to
  /// the serial loop).  `demand` is the live p(v) book.
  void assign_buffers_parallel(const std::vector<std::size_t>& order,
                               std::vector<double>& demand);

  /// Net indices ordered by current delay (ascending or descending).
  std::vector<std::size_t> nets_by_delay(bool ascending) const;

  /// Records the memory high-water gauges (peak RSS, tile graph, route
  /// trees) into the obs registry; called at every stage boundary.
  /// No-op when the registry is not counting.
  void record_memory_gauges() const;

  /// Cooperative deadline probe: false when no deadline is configured
  /// (one predictable branch — the bench-compare gate holds the
  /// no-deadline flow to within 2%); latches deadline_expired_ on first
  /// expiry.  Safe to call from pool workers.
  bool deadline_hit() {
    if (!has_deadline_) return false;
    if (deadline_expired_.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() >= deadline_) {
      if (!deadline_expired_.exchange(true, std::memory_order_relaxed)) {
        obs::count(obs::Counter::kDeadlineExpirations);
      }
      return true;
    }
    return false;
  }

  /// Live only when options_.threads resolves to >= 2 workers.
  std::unique_ptr<util::ThreadPool> pool_;
  bool stage1_done_ = false;
  bool stage3_done_ = false;
  /// Cooperative-deadline state (see RabidOptions::deadline_ms).
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  /// Latched on first expiry; atomic because pool workers probe it.
  /// The wrapper restores movability (Rabid is only ever moved between
  /// runs, never while workers are live, so a relaxed copy is safe).
  struct ExpiredFlag {
    std::atomic<bool> v{false};
    ExpiredFlag() = default;
    ExpiredFlag(ExpiredFlag&& o) noexcept
        : v(o.v.load(std::memory_order_relaxed)) {}
    bool load(std::memory_order order) const { return v.load(order); }
    bool exchange(bool desired, std::memory_order order) {
      return v.exchange(desired, order);
    }
  };
  ExpiredFlag deadline_expired_;
  /// Mutated only from serial sections.
  std::int64_t nets_cancelled_ = 0;
};

/// True when the buffered tree satisfies the net's length rule: every
/// gate (the driver or any inserted buffer) drives at most L tile-units
/// of interconnect.  The exact per-net check stages 1-4 apply; exported
/// so the incremental (ECO) planner can re-evaluate the flag for just
/// the nets it re-plans.
bool meets_length_rule(const route::RouteTree& tree,
                       const route::BufferList& buffers, std::int32_t L);

}  // namespace rabid::core
