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
#include <span>
#include <string>
#include <vector>

#include "buffer/insertion.hpp"
#include "core/status.hpp"
#include "netlist/design.hpp"
#include "obs/counters.hpp"
#include "route/buffers.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "timing/delay.hpp"
#include "timing/tech.hpp"
#include "util/thread_pool.hpp"

namespace rabid::route {
class EdgeCostCache;  // route/maze.hpp
class MazeRouter;     // route/maze.hpp
}  // namespace rabid::route

namespace rabid::core {

struct AuditReport;      // core/audit.hpp
struct RunReport;        // core/run_report.hpp
struct LoadedSolution;   // core/solution_io.hpp

/// When the flow runs the independent SolutionAuditor (core/audit.hpp)
/// on its own solution.  Results accumulate in last_audit().
enum class AuditLevel {
  kOff,       ///< never (the default; audit() is always available)
  kFinal,     ///< once, after the last stage (stage 4 or rebuffering)
  kPerStage,  ///< after every stage, stamped with the stage label
};

/// Net processing order for Stage-3 buffer assignment.
enum class Stage3Order {
  kDescendingDelay,  ///< the paper's choice: worst nets claim sites first
  kAscendingDelay,
  kAsGiven,          ///< netlist order (what a naive tool would do)
};

/// Relative eq. (1) cost movement that marks an edge dirty for the
/// stage-2 rip-up filter (RabidOptions::stage2_dirty_filter) and for the
/// ECO closure (eco::IncrementalPlanner).
inline constexpr double kDirtyCostThreshold = 0.05;

struct RabidOptions {
  double pd_alpha = 0.4;        ///< Prim-Dijkstra trade-off (footnote 5)
  /// Dirty-net filtering for Stage-2 rip-up: after the first full Nair
  /// pass, an iteration only rips up nets that cross an overflowed edge
  /// or an edge whose eq. (1) cost moved by more than
  /// kDirtyCostThreshold (relative) since the previous iteration began.
  /// Off reproduces the paper-faithful reroute-everything loop.
  bool stage2_dirty_filter = true;
  /// Region sharding for Stage-2 rip-up: the grid is cut into K-by-K
  /// regions; nets whose current tree lies entirely inside one region
  /// are rerouted concurrently across regions, each shard's wavefront
  /// confined to its region (reads and writes touch only the region's
  /// interior edges, so shards are disjoint by construction — no locks,
  /// no atomics), then the boundary-crossing nets replay serially in
  /// net-id order.  With the dirty filter enabled the sharded engine is
  /// also overflow-selective from the start: iteration 0 rips up only
  /// nets riding an overflowed edge (the rest keep their stage-1
  /// trees), and a net still overflow-touching after iteration 0
  /// escalates to the unconfined boundary pass so a full region cannot
  /// trap it.  0 = the legacy serial loop, instruction for
  /// instruction (golden-pinned).  For a fixed K the solution is
  /// bit-identical at any thread count; it is NOT bit-identical to
  /// K = 0 — selectivity, confinement, and processing order
  /// legitimately differ, and both solutions are audit-clean.  Values
  /// above min(nx, ny) clamp.
  std::int32_t stage2_shards = 0;
  Stage3Order stage3_order = Stage3Order::kDescendingDelay;
  std::int32_t reroute_iterations = 3;  ///< Stage-2 cap (Section III-B)
  /// Stage-4 objective = wire_weight * eq.(1) + eq.(2) (footnote 7:
  /// the paper simply adds them, i.e. weight 1.0, but "one could use
  /// any linear combination"; the footnote-7 ablation varies this one).
  double stage4_wire_weight = 1.0;
  /// Runs the wirelength-neutral congestion post-pass (Section IV-C's
  /// Table-V step) at the end of stage 2, before any buffers exist.
  bool congestion_post_after_stage2 = false;
  /// Worker threads for the per-net stages (Stage-1 tree construction,
  /// Stage-3 buffer DP, delay refreshes).  0 = one per hardware thread;
  /// 1 = today's serial code path, instruction for instruction.  Any
  /// value yields bit-identical solutions: per-net work runs in
  /// parallel, but tile-site/wire-usage commits stay serialized in the
  /// paper's net order.
  std::int32_t threads = 0;
  /// Wall-clock budget for the whole run, in milliseconds (0 = none).
  /// The clock starts when the Rabid instance is constructed.  Checked
  /// cooperatively — per net in stages 1/3/4 and the vG rebuffering,
  /// per pass in stage 2, and between stages — so an expired run stops
  /// at the next check and returns the best *legal* partial solution:
  /// already-processed nets keep their committed state, skipped nets
  /// keep their previous legal state (or stay unrouted, honestly
  /// flagged), the books stay exactly consistent, and timed_out() /
  /// nets_cancelled() report what happened.  Fractional values are
  /// honored (sub-millisecond budgets are real for fuzz-sized
  /// circuits).  Under a deadline the result depends on wall-clock
  /// timing, so the bit-identical-at-any-thread-count guarantee is
  /// deliberately waived for runs that actually time out.  A budget
  /// the steady clock cannot represent (+inf, or about 292 years) means
  /// no deadline.
  double deadline_ms = 0.0;
  /// Self-auditing: recompute every solution invariant from scratch at
  /// the chosen points and accumulate violations in last_audit().
  AuditLevel audit_level = AuditLevel::kOff;
  /// Observability (src/obs): off records nothing (the default, and
  /// required for the BENCH_baseline gate); counters feeds the registry
  /// catalogue; trace additionally records chrome-trace events.  The
  /// level is process-global — constructing a Rabid *raises* the
  /// registry to this level but never lowers it.
  obs::Level obs_level = obs::Level::kOff;
  timing::Technology tech = timing::kTech180nm;
  /// Buffer library for stages 3/4 (buffer/library.hpp).  The default
  /// single unit type reproduces the historical dense DP bit-for-bit;
  /// any other library routes per-net buffering through the
  /// dominance-pruned multi-type candidate engine, and NetState gains
  /// per-buffer type tags (delays then use each tag's cell).
  buffer::BufferLibrary buffer_library{};
};

/// One Table II row: the state of the solution after a stage.
struct StageStats {
  std::string stage;
  double max_wire_congestion = 0.0;
  double avg_wire_congestion = 0.0;
  std::int64_t overflow = 0;
  double max_buffer_density = 0.0;
  double avg_buffer_density = 0.0;
  std::int64_t buffers = 0;
  std::int32_t failed_nets = 0;
  double wirelength_mm = 0.0;
  double max_delay_ps = 0.0;
  double avg_delay_ps = 0.0;
  /// Wall-clock seconds for the stage (the paper's "CPU" column).
  double cpu_s = 0.0;
  /// Worker threads the stage ran with (1 == the serial reference path);
  /// cpu_s at 1 thread over cpu_s at N threads is the stage's speedup.
  std::int32_t threads = 1;
};

/// Per-net solution state.
struct NetState {
  route::RouteTree tree;
  route::BufferList buffers;
  /// Library cell per placement, by value; empty means "all unit
  /// buffers" (the default stage-3/4 path).  Filled by
  /// rebuffer_timing_driven(), and by stages 3/4 themselves when
  /// RabidOptions::buffer_library holds more than the unit type.
  std::vector<buffer::BufferType> buffer_types;
  /// Length rule satisfied? (false == the net counts in "#fails")
  bool meets_length_rule = false;
  timing::DelayResult delay;
};

class Rabid {
 public:
  /// Binds to a design and a tile graph whose capacities/sites are set.
  /// The graph's usage books must be empty; Rabid owns them from here.
  Rabid(const netlist::Design& design, tile::TileGraph& graph,
        RabidOptions options = {});

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
  /// power-level library, honoring remaining site supply.  Requires
  /// stage 3.  Wire routes are untouched; the length rule may be
  /// knowingly traded for delay (flags are re-evaluated honestly).
  StageStats rebuffer_timing_driven(
      std::size_t worst_nets,
      const buffer::BufferLibrary& lib =
          buffer::BufferLibrary::standard_180nm(),
      bool use_inverters = false);

  const std::vector<NetState>& nets() const { return nets_; }
  const tile::TileGraph& graph() const { return graph_; }
  const netlist::Design& design() const { return design_; }
  const RabidOptions& options() const { return options_; }

  /// Runs the independent SolutionAuditor on the current solution
  /// (core/audit.hpp): recounts both books from the per-net states,
  /// re-verifies every tree, the length-rule flags, and the committed
  /// delays.  Pure; does not touch last_audit().
  AuditReport audit() const;
  /// Violations accumulated per RabidOptions::audit_level; nullptr until
  /// the first audited stage completes.
  const AuditReport* last_audit() const { return last_audit_.get(); }

  /// Current solution snapshot (stats of the live books).
  StageStats snapshot(std::string stage_name, double cpu_s) const;

  /// Every StageStats this instance produced, in execution order (the
  /// Table II rows a RunReport serializes; see core/run_report.hpp).
  const std::vector<StageStats>& stage_history() const {
    return stage_history_;
  }

  /// The structured run report for the current state: stage history,
  /// obs counter/histogram snapshot, utilization histograms, audit
  /// summary (defined in run_report.cpp; == build_run_report(*this)).
  RunReport run_report() const;

  /// True once the cooperative deadline (RabidOptions::deadline_ms)
  /// expired; the solution is the best legal partial state.
  bool timed_out() const {
    return deadline_expired_.load(std::memory_order_relaxed);
  }
  /// Net-processing steps skipped because the deadline expired (stage-1
  /// routings never built, stage-3 bufferings never attempted).  Nets
  /// skipped by stages 2/4/vG keep a complete earlier solution and are
  /// not counted.
  std::int64_t nets_cancelled() const { return nets_cancelled_; }

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

  /// Exposed for tests: verifies tile-graph books match per-net state
  /// exactly (wire usage, buffer usage); aborts on mismatch.
  void check_books() const;

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

  /// Runs the auditor per options_.audit_level and accumulates the
  /// report (defined in audit.cpp).  `final_stage` marks the flow's
  /// last committed solution, where capacity overload is an error
  /// rather than not-yet-resolved congestion.
  void maybe_audit(const char* stage, bool final_stage);

  const netlist::Design& design_;
  tile::TileGraph& graph_;
  RabidOptions options_;
  std::vector<NetState> nets_;
  /// Live only when options_.threads resolves to >= 2 workers.
  std::unique_ptr<util::ThreadPool> pool_;
  /// shared_ptr so the header needs only the forward declaration.
  std::shared_ptr<AuditReport> last_audit_;
  std::vector<StageStats> stage_history_;
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
    ExpiredFlag& operator=(ExpiredFlag&& o) noexcept {
      v.store(o.v.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
      return *this;
    }
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
