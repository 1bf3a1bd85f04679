#include "obs/counters.hpp"

#include <algorithm>
#include <bit>

#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace rabid::obs {

namespace {

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(Counter::kCount)>
    kCounterNames = {
        "maze.routes",
        "maze.heap_pushes",
        "maze.heap_pops",
        "maze.stale_pops",
        "maze.bound_pops",
        "maze.pruned_touches",
        "edge_cache.full_refreshes",
        "edge_cache.invalidations",
        "edge_cache.capacity_changes",
        "heap.regrows",
        "stage2.iterations",
        "stage2.nets_ripped",
        "stage2.nets_kept",
        "stage2.dirty_edges",
        "stage2.local_nets",
        "stage2.boundary_nets",
        "dp.nets",
        "dp.cells_computed",
        "dp.cells_infeasible",
        "dp.limit_relaxations",
        "dp.states_pruned",
        "stage3.spec_hits",
        "stage3.spec_misses",
        "buffers.committed",
        "buffers.removed",
        "buffers.commit_retries",
        "wire.units_committed",
        "wire.units_removed",
        "twopath.searches",
        "twopath.heap_pushes",
        "twopath.heap_pops",
        "twopath.labels_pruned",
        "twopath.field_pops",
        "twopath.keys_deferred",
        "twopath.keys_resolved",
        "twopath.keys_dropped",
        "pool.tasks",
        "pool.parallel_fors",
        "pool.indices",
        "deadline.expirations",
        "deadline.nets_cancelled",
        "checkpoint.writes",
        "checkpoint.loads",
        "faults.injected",
        "serve.jobs_accepted",
        "serve.jobs_rejected",
        "serve.jobs_completed",
        "serve.jobs_timed_out",
        "serve.jobs_cancelled",
        "mcf.phases",
        "mcf.oracle_routes",
        "mcf.candidates_kept",
        "mcf.rounding_fallbacks",
        "mcf.repair_reroutes",
        "eco.replans",
        "eco.dirty_nets",
        "eco.nets_kept",
        "eco.capacity_edits",
        "stream.nets_admitted",
        "stream.nets_planned",
        "stream.nets_parked",
        "stream.nets_retried",
};

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(HistogramId::kCount)>
    kHistogramNames = {
        "maze.pops_per_route",
        "dp.cells_per_net",
        "pool.queue_depth",
        "serve.queue_depth",
};

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(GaugeId::kCount)>
    kGaugeNames = {
        "memory.peak_rss_bytes",
        "memory.tile_graph_bytes",
        "memory.route_tree_bytes",
        "memory.edge_cost_cache_bytes",
        "memory.maze_scratch_bytes",
        "memory.dp_arena_bytes",
};

}  // namespace

std::string_view level_name(Level level) {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kCounters: return "counters";
    case Level::kTrace: return "trace";
  }
  return "off";
}

bool level_from_name(std::string_view name, Level* out) {
  for (const Level l : {Level::kOff, Level::kCounters, Level::kTrace}) {
    if (name == level_name(l)) {
      *out = l;
      return true;
    }
  }
  return false;
}

std::string_view counter_name(Counter c) {
  RABID_ASSERT(c < Counter::kCount);
  return kCounterNames[static_cast<std::size_t>(c)];
}

std::string_view histogram_name(HistogramId h) {
  RABID_ASSERT(h < HistogramId::kCount);
  return kHistogramNames[static_cast<std::size_t>(h)];
}

std::string_view gauge_name(GaugeId g) {
  RABID_ASSERT(g < GaugeId::kCount);
  return kGaugeNames[static_cast<std::size_t>(g)];
}

Registry::Registry() : trace_(std::make_unique<TraceWriter>()) {}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::set_level(Level level) {
  level_.store(level, std::memory_order_relaxed);
  trace_->set_enabled(level == Level::kTrace);
}

void Registry::raise_level(Level level) {
  if (level > this->level()) set_level(level);
}

std::size_t Registry::bucket_of(std::uint64_t value) {
  // bit_width(v) = 1 + floor(log2(v)) for v > 0, and 0 for v == 0, so
  // bucket 0 holds zeros and bucket b holds [2^(b-1), 2^b).
  const auto b = static_cast<std::size_t>(std::bit_width(value));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

Registry::Shard& Registry::shard() {
  // One shard per (thread, process) pair, registered on first use.  The
  // raw pointer stays valid after reset(): reset zeroes values in
  // place, it never swaps the shard out.
  thread_local Shard* tls = nullptr;
  if (tls == nullptr) {
    auto owned = std::make_unique<Shard>();
    tls = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(owned));
  }
  return *tls;
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Shard>& s : shards_) {
    for (std::size_t c = 0; c < out.counters.size(); ++c) {
      out.counters[c] += s->counters[c].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < out.histograms.size(); ++h) {
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out.histograms[h][b] +=
            s->histograms[h][b].load(std::memory_order_relaxed);
      }
    }
    for (std::size_t g = 0; g < out.gauges.size(); ++g) {
      // Gauges are high-water marks: the merged view is the max across
      // shards, not the sum.
      out.gauges[g] = std::max(out.gauges[g],
                               s->gauges[g].load(std::memory_order_relaxed));
    }
  }
  return out;
}

void Registry::reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Shard>& s : shards_) {
      for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
      for (auto& h : s->histograms) {
        for (auto& b : h) b.store(0, std::memory_order_relaxed);
      }
      for (auto& g : s->gauges) g.store(0, std::memory_order_relaxed);
    }
  }
  trace_->clear();
}

}  // namespace rabid::obs
