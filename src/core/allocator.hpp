#pragma once

/// \file allocator.hpp
/// The plan state and the one base class of every allocator backend.
///
/// Every early buffer/wire resource allocator in this repository — the
/// four-stage RABID heuristic (core/rabid.hpp), the BBP/FR baseline
/// (bbp/), and the multicommodity-flow backend (mcf/) — plans the same
/// problem: given a Design and a TileGraph with capacities, produce one
/// NetState per net (route tree + buffers + delays) with the graph's
/// w(e)/b(v) books committed to match.  core::Allocator owns that shared
/// state — the design, the graph, the options, the per-net solution, the
/// stage history and the accumulated audit — so the audit / run-report /
/// CLI / serving plumbing is written once and every backend rides it:
///
///   plan()         run the backend's whole flow, returning its stage
///                  rows (Table II for RABID, the backend's own phase
///                  breakdown otherwise)
///   nets()         the per-net solution, in design-net order — exactly
///                  what the SolutionAuditor consumes
///   audit()        the independent ground-up recheck (core/audit.hpp),
///                  under the backend's declared allowances
///   run_report()   the structured rabid.run_report.v1 JSON document
///
/// Backends self-describe their audit allowances via audit_options():
/// RABID and MCF guarantee hard capacity (overflow is an error); BBP by
/// construction overflows wires and buffer tiles (that is Table V's
/// point), so its allowances downgrade the two capacity checks to
/// warnings while every *integrity* invariant — books, structure,
/// flags, bit-exact Elmore — stays a hard error for everyone.
///
/// Deadlines and checkpoints belong to RABID alone: alloc/factory.hpp
/// rejects a deadline for any other backend tag, and core/checkpoint.hpp
/// takes a Rabid.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/library.hpp"
#include "netlist/design.hpp"
#include "obs/counters.hpp"
#include "route/buffers.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "timing/delay.hpp"
#include "timing/tech.hpp"

namespace rabid::core {

struct AuditOptions;  // core/audit.hpp
struct AuditReport;   // core/audit.hpp
struct RunReport;     // core/run_report.hpp

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
  /// Table-V step): RABID runs it at the end of stage 2, before any
  /// buffers exist; BBP/FR runs it after routing, with its buffer tiles
  /// pinned.
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
  /// level is process-global — constructing any Allocator *raises* the
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

/// The selectable allocator backends, in comparison-table order.
enum class Backend {
  kRabid,  ///< the paper's four-stage heuristic (core/rabid.hpp)
  kBbp,    ///< buffer-block planning with feasible regions (bbp/)
  kMcf,    ///< multicommodity-flow buffered routing (mcf/)
};

/// Stable lowercase name ("rabid", "bbp", "mcf") — the CLI --backend
/// values, the serve protocol "backend" field, and the JSON row labels.
std::string_view backend_name(Backend b);
/// Inverse of backend_name; false when `name` matches no backend.
bool backend_from_name(std::string_view name, Backend* out);

class Allocator {
 public:
  virtual ~Allocator() = default;

  virtual Backend backend() const = 0;

  /// Runs the backend's entire flow on the bound design/graph and
  /// returns its stage rows (also appended to stage_history()).  Call
  /// once per instance; backends may assert on re-entry.
  virtual std::vector<StageStats> plan() = 0;

  /// The per-net solution in design-net order — the SolutionAuditor's
  /// input.  Valid (possibly empty trees) before plan(), final after.
  const std::vector<NetState>& nets() const { return nets_; }
  const netlist::Design& design() const { return design_; }
  const tile::TileGraph& graph() const { return graph_; }
  const RabidOptions& options() const { return options_; }
  /// Every StageStats this instance produced, in execution order (the
  /// Table II rows a RunReport serializes).
  const std::vector<StageStats>& stage_history() const {
    return stage_history_;
  }
  /// Violations accumulated per RabidOptions::audit_level; nullptr until
  /// the first audited stage completes.
  const AuditReport* last_audit() const { return last_audit_.get(); }
  /// Worker threads the backend runs with (the RunReport field).
  std::int32_t threads() const;

  /// The audit allowances this backend's solutions legitimately need
  /// (see file comment).  Default: everything a hard error under the
  /// options' tech and buffer library — the RABID/MCF guarantee — except
  /// that a deadline-cancelled run may leave nets unrouted and
  /// congestion unresolved.
  virtual AuditOptions audit_options() const;

  /// Runs the independent SolutionAuditor on the current solution under
  /// audit_options().  Pure; does not touch last_audit().
  AuditReport audit() const;

  /// The structured run report for the current state: stage history,
  /// obs counter/histogram snapshot, utilization histograms, audit
  /// summary (core/run_report.hpp).
  RunReport run_report() const;

  /// True once a cooperative deadline expired (RABID only); the solution
  /// is then the best legal partial state.
  virtual bool timed_out() const { return false; }
  /// Net-processing steps skipped because the deadline expired.
  virtual std::int64_t nets_cancelled() const { return 0; }

 protected:
  /// Binds to a design and a tile graph whose capacities/sites are set.
  /// The graph's usage books must be empty; the backend owns them from
  /// here.  Raises the obs registry to options.obs_level.
  Allocator(const netlist::Design& design, tile::TileGraph& graph,
            RabidOptions options);
  Allocator(Allocator&&) = default;
  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;
  Allocator& operator=(Allocator&&) = delete;

  /// Runs the auditor under audit_options() and merges the violations
  /// into last_audit(), stamped `stage`, when options().audit_level asks
  /// for it: every call at kPerStage, only `final_stage` calls at kFinal.
  /// `overflow_pending` downgrades wire overflow to a warning, for
  /// stages that run before (or while) wire feasibility is earned.
  void maybe_audit(std::string_view stage, bool final_stage,
                   bool overflow_pending = false);

  const netlist::Design& design_;
  tile::TileGraph& graph_;
  RabidOptions options_;
  std::vector<NetState> nets_;
  std::vector<StageStats> stage_history_;
  /// shared_ptr so the header needs only the forward declaration.
  std::shared_ptr<AuditReport> last_audit_;
};

/// One solution-snapshot stats row over (graph books, per-net states) —
/// the Table II columns every backend reports, computed by the very same
/// code so the three-way comparison never drifts.
StageStats solution_snapshot(const tile::TileGraph& graph,
                             std::span<const NetState> nets,
                             std::string stage, double cpu_s,
                             std::int32_t threads);

}  // namespace rabid::core
