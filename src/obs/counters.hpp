#pragma once

/// \file counters.hpp
/// The observability registry: named monotonic counters and log2-bucket
/// histograms, recorded from any thread, merged on snapshot.
///
/// Design constraints (DESIGN.md section 11):
///
///   * **Zero overhead when off.**  Every record path starts with one
///     relaxed atomic load of the global level; at kOff nothing else
///     happens.  Hot loops (the maze wavefront, the DP kernels)
///     accumulate into plain stack locals and flush once per call, so
///     even at kCounters the inner loops stay untouched.
///
///   * **No contention.**  Each thread writes its own shard — a flat
///     array of relaxed atomics indexed by the Counter/Histogram enums.
///     Shards are registered once per thread under a mutex and never
///     freed, so snapshot() can merge them at any time without
///     coordinating with writers (TSan-clean by construction).
///
///   * **Monotonic.**  Counters only ever grow between reset() calls;
///     a snapshot is a consistent-enough sum for reporting (each slot is
///     read atomically; cross-slot skew is bounded by in-flight work).
///
/// The catalogue is a compile-time enum rather than string keys: a
/// counter costs one array slot, names live in one table, and a typo is
/// a compile error.  See docs/OBSERVABILITY.md for the full catalogue
/// with per-counter semantics.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace rabid::obs {

class TraceWriter;

/// How much the process records (RabidOptions::obs_level mirrors this).
enum class Level : std::uint8_t {
  kOff,       ///< record nothing (the default; near-zero overhead)
  kCounters,  ///< counters + histograms
  kTrace,     ///< counters + chrome-trace events (ScopedTimer active)
};

std::string_view level_name(Level level);
/// Inverse of level_name; false when `name` matches no level.
bool level_from_name(std::string_view name, Level* out);

/// Monotonic counter catalogue.  Grouped by subsystem; the name table
/// in counters.cpp must stay in sync (a static_assert enforces size).
enum class Counter : std::uint16_t {
  // route/maze.cpp — wavefront work in stages 2 and 4.
  kMazeRoutes,        ///< grow() calls (one per net connection pass set)
  kMazeHeapPushes,    ///< wavefront heap insertions
  kMazeHeapPops,      ///< wavefront heap extractions
  kMazeStalePops,     ///< pops discarded because a cheaper label landed
  kMazeBoundPops,     ///< pops not expanded: bound exceeds a target label
  kMazePrunedTouches, ///< neighbor relaxations rejected (not better)
  // route/maze.cpp — EdgeCostCache.
  kEdgeCacheFullRefreshes,  ///< refresh_all() calls
  kEdgeCacheInvalidations,  ///< single-edge recomputes (refresh_edge)
  kEdgeCacheCapacityChanges,  ///< capacity-aware recomputes (ECO edits)
  // util/radix_heap.hpp regrow events, flushed by the heap's owners
  // (maze router, two-path search): pushes that forced the node pool or
  // the front to reallocate.  Nonzero after warm-up means a reserve() is
  // missing.
  kHeapRegrows,
  // core/stage2.cpp — stage-2 dirty-net filter.
  kStage2Iterations,  ///< rip-up/reroute iterations actually run
  kStage2NetsRipped,  ///< nets ripped up and rerouted
  kStage2NetsKept,    ///< nets the dirty filter left untouched
  kStage2DirtyEdges,  ///< edges marked dirty at iteration starts
  // core/stage2.cpp — region-sharded stage 2 (stage2_shards > 0).
  kStage2LocalNets,     ///< nets routed confined inside one region
  kStage2BoundaryNets,  ///< nets routed in the serial boundary pass
  // buffer/insertion.cpp — the stage-3 DP.
  kDpNets,             ///< insert_buffers() calls
  kDpCellsComputed,    ///< frontier states materialized
  kDpCellsInfeasible,  ///< retired, always 0; perfbench still names it
  kDpLimitRelaxations, ///< insert_buffers_relaxed limit doublings
  kDpStatesPruned,     ///< dominated (cost, load) candidates dropped
  // core/rabid.cpp — stage-3 speculative parallel batches.
  kStage3SpecHits,    ///< speculated DP results committed as-is
  kStage3SpecMisses,  ///< stale speculations re-run serially
  // core/rabid.cpp — buffer commits against the b(v) book.
  kBuffersCommitted,     ///< add_buffer calls from the flow
  kBuffersRemoved,       ///< remove_buffer calls from the flow
  kBufferCommitRetries,  ///< per-net DP re-runs after oversubscription
  // route/route_tree.cpp — wire commits against the w(e) book.
  kWireUnitsCommitted,  ///< add_wire units from tree commits
  kWireUnitsRemoved,    ///< remove_wire units from tree uncommits
  // core/twopath.cpp — the stage-4 (tile x L) search.
  kTwoPathSearches,    ///< route() calls
  kTwoPathHeapPushes,  ///< (tile, j) state heap insertions
  kTwoPathHeapPops,    ///< (tile, j) state heap extractions
  kTwoPathLabelsPruned,  ///< dominated labels: pops skipped + relaxations refused
  kTwoPathFieldPops,     ///< heuristic-field heap extractions
  kTwoPathKeysDeferred,  ///< pushes keyed by a lower bound on the A* key
  kTwoPathKeysResolved,  ///< deferred pops re-pushed at their exact key
  kTwoPathKeysDropped,   ///< deferred pops stale on arrival, dropped
  // util/thread_pool.cpp.
  kPoolTasks,          ///< queue tasks executed by workers
  kPoolParallelFors,   ///< parallel_for() calls
  kPoolIndices,        ///< parallel_for indices run (any thread)
  // core/rabid.cpp — cooperative deadlines (RabidOptions::deadline_ms).
  kDeadlineExpirations,    ///< deadlines that actually expired (<= 1/run)
  kDeadlineNetsCancelled,  ///< net-processing steps skipped after expiry
  // core/checkpoint.cpp — stage-granular checkpoint/resume.
  kCheckpointWrites,  ///< stage checkpoints committed (atomic renames)
  kCheckpointLoads,   ///< solutions restored from a checkpoint
  // src/fuzz/faults.cpp — fault-injection harness.
  kFaultsInjected,  ///< hostile mutations / IO faults exercised
  // serve/server.cpp — the rabid_serve planning daemon.
  kServeJobsAccepted,   ///< jobs admitted into the queue
  kServeJobsRejected,   ///< jobs refused (overload, drain, bad request)
  kServeJobsCompleted,  ///< jobs that ran to a full solution
  kServeJobsTimedOut,   ///< jobs whose per-job deadline expired mid-run
  kServeJobsCancelled,  ///< queued jobs cancelled before they started
  // mcf/mcf.cpp — the multicommodity-flow allocator backend.
  kMcfPhases,             ///< fractional price-update phases run
  kMcfOracleRoutes,       ///< per-net buffered-path oracle calls
  kMcfCandidatesKept,     ///< distinct per-net candidates retained
  kMcfRoundingFallbacks,  ///< nets legalized off their rounded choice
  kMcfRepairReroutes,     ///< nets ripped up by the overflow-repair loop
  // eco/incremental.cpp — ECO re-planning (docs/INCREMENTAL.md).
  kEcoReplans,        ///< IncrementalPlanner::replan() calls
  kEcoDirtyNets,      ///< nets in the computed dirty closure (re-planned)
  kEcoNetsKept,       ///< nets outside the closure (solution untouched)
  kEcoCapacityEdits,  ///< W(e)/B(v) book entries edited by perturbations
  // eco/stream.cpp — streaming net ingest (the retry-queue pattern).
  kStreamNetsAdmitted,  ///< nets accepted into a stream session
  kStreamNetsPlanned,   ///< nets planned and committed (incl. retries)
  kStreamNetsParked,    ///< plan attempts parked into the retry queue
  kStreamNetsRetried,   ///< parked nets re-attempted after capacity freed
  kCount,
};

std::string_view counter_name(Counter c);

/// Log2-bucket histogram catalogue (bucket b counts values in
/// [2^(b-1), 2^b), bucket 0 counts zeros).
enum class HistogramId : std::uint16_t {
  kMazePopsPerRoute,  ///< wavefront pops per grow() call
  kDpCellsPerNet,     ///< frontier states per insert_buffers() call
  kPoolQueueDepth,    ///< queue length observed at each enqueue
  kServeQueueDepth,   ///< total job-queue depth observed at each admit
  kCount,
};

std::string_view histogram_name(HistogramId h);

/// High-water-mark gauge catalogue (max-semantics: record() keeps the
/// largest value ever seen since reset()).  All values are bytes; the
/// memory.* gauges are the per-structure answer to "what actually ate
/// the RAM" on a 512x512 run, next to the OS-level peak_rss.
enum class GaugeId : std::uint16_t {
  kPeakRssBytes,        ///< getrusage high-water mark (obs/memory.hpp)
  kTileGraphBytes,      ///< tile::TileGraph books + adjacency tables
  kRouteTreeBytes,      ///< sum of all live per-net route trees
  kEdgeCostCacheBytes,  ///< flat edge-cost arrays (stages 2/4)
  kMazeScratchBytes,    ///< router labels + heap backing (all routers)
  kDpArenaBytes,        ///< stage-3 DP frontier pool (per call)
  kCount,
};

std::string_view gauge_name(GaugeId g);

constexpr std::size_t kHistogramBuckets = 32;

/// A merged view of every shard at one instant.
struct Snapshot {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters{};
  std::array<std::array<std::uint64_t, kHistogramBuckets>,
             static_cast<std::size_t>(HistogramId::kCount)>
      histograms{};
  std::array<std::uint64_t, static_cast<std::size_t>(GaugeId::kCount)>
      gauges{};

  std::uint64_t operator[](Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const std::array<std::uint64_t, kHistogramBuckets>& operator[](
      HistogramId h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
  std::uint64_t operator[](GaugeId g) const {
    return gauges[static_cast<std::size_t>(g)];
  }
};

/// The process-wide registry.  All members are safe to call from any
/// thread; reset() assumes no flow is concurrently recording (tests and
/// the CLI call it between runs, not during them).
class Registry {
 public:
  static Registry& instance();

  Level level() const { return level_.load(std::memory_order_relaxed); }
  /// Sets the recording level; enables/disables the trace writer.
  void set_level(Level level);
  /// Raises the level if `level` is higher; never lowers it (so a
  /// default-options Rabid constructed mid-run cannot silence an
  /// observed one).
  void raise_level(Level level);

  bool counting() const { return level() >= Level::kCounters; }

  void add(Counter c, std::uint64_t n = 1) {
    if (!counting()) return;
    shard().counters[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  void observe(HistogramId h, std::uint64_t value) {
    if (!counting()) return;
    shard()
        .histograms[static_cast<std::size_t>(h)][bucket_of(value)]
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// Raises the gauge's high-water mark to `value` if larger.  The CAS
  /// loop is uncontended in practice (gauges are recorded at stage
  /// boundaries, not in inner loops).
  void gauge_max(GaugeId g, std::uint64_t value) {
    if (!counting()) return;
    std::atomic<std::uint64_t>& slot =
        shard().gauges[static_cast<std::size_t>(g)];
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < value &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Sums every thread's shard.
  Snapshot snapshot() const;

  /// Zeroes all counters/histograms and clears the trace buffer.  The
  /// level is left unchanged.
  void reset();

  /// The chrome-trace event sink (records only at Level::kTrace).
  TraceWriter& trace() { return *trace_; }

  /// Log2 bucket index for a histogram value.
  static std::size_t bucket_of(std::uint64_t value);

 private:
  struct Shard {
    std::array<std::atomic<std::uint64_t>,
               static_cast<std::size_t>(Counter::kCount)>
        counters{};
    std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>,
               static_cast<std::size_t>(HistogramId::kCount)>
        histograms{};
    std::array<std::atomic<std::uint64_t>,
               static_cast<std::size_t>(GaugeId::kCount)>
        gauges{};
  };

  Registry();
  Shard& shard();

  std::atomic<Level> level_{Level::kOff};
  mutable std::mutex mu_;
  /// Shards live for the life of the process: a worker thread may exit
  /// while a snapshot is being taken, so shards are never reclaimed.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<TraceWriter> trace_;
};

// Free-function shorthands for instrumentation sites.
inline void count(Counter c, std::uint64_t n = 1) {
  Registry::instance().add(c, n);
}
inline void observe(HistogramId h, std::uint64_t value) {
  Registry::instance().observe(h, value);
}
inline void gauge_max(GaugeId g, std::uint64_t value) {
  Registry::instance().gauge_max(g, value);
}
inline bool counting() { return Registry::instance().counting(); }

}  // namespace rabid::obs
