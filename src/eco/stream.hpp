#pragma once

/// \file stream.hpp
/// Streaming net ingest: nets arrive over time and are planned
/// immediately against the live books, instead of in one batch.
///
/// The batch flow's stage-2 soft costs deliberately allow overflow (an
/// iteration later repairs it).  A streaming planner has no "later": a
/// net is either committed legally or it is not committed at all, so
/// admission here is *hard* — the routed tree must fit every edge it
/// crosses, and buffering must satisfy the length rule within the
/// remaining site supply.  A net that does not fit is parked in a FIFO
/// retry queue; the queue drains automatically whenever capacity frees
/// (a net is removed, or a wire/site capacity is raised — the latter
/// through EdgeCostCache::on_capacity_change so the router's A* floor
/// stays admissible).
///
/// Every transition emits a lifecycle event (admitted / planned /
/// parked / retried / removed) through an optional sink; the serve
/// layer's "stream" job type forwards them to the client one NDJSON
/// line each.  audit() runs the independent auditor with unrouted nets
/// tolerated as warnings, so "everything committed is legal" is
/// checkable at any instant of the stream.

#include <cstdint>
#include <functional>
#include <vector>

#include "buffer/library.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/status.hpp"
#include "netlist/design.hpp"
#include "route/maze.hpp"
#include "tile/tile_graph.hpp"
#include "timing/tech.hpp"

namespace rabid::eco {

/// One lifecycle transition of a streamed net.
enum class StreamEvent : std::uint8_t {
  kAdmitted,  ///< accepted into the session (id assigned)
  kPlanned,   ///< routed, buffered, and committed to the books
  kParked,    ///< does not fit right now; waiting in the retry queue
  kRetried,   ///< a retry attempt is starting (followed by planned/parked)
  kRemoved,   ///< ripped out (or dropped from the queue) on request
};

const char* stream_event_name(StreamEvent e);

/// Observer for per-net lifecycle events.  Called synchronously from
/// the mutating entry points; must not reenter the planner.
using StreamSink = std::function<void(netlist::NetId, StreamEvent)>;

struct StreamOptions {
  double pd_alpha = 0.4;  ///< RabidOptions::pd_alpha
  timing::Technology tech = timing::kTech180nm;
  buffer::BufferLibrary buffer_library{};
};

/// Session totals (monotone counters, not current states).
struct StreamStats {
  std::int64_t admitted = 0;
  std::int64_t planned = 0;  ///< successful commits, retries included
  std::int64_t parked = 0;   ///< park events (a net may park repeatedly)
  std::int64_t retried = 0;  ///< retry attempts
};

class StreamPlanner {
 public:
  /// Starts an empty session on `graph` (capacities set, books empty or
  /// holding prior commitments the caller accounts for elsewhere).
  /// `header` is a net-less design — name, outline, default length limit
  /// and blocks — that the streamed nets join; block pins must name its
  /// blocks.
  StreamPlanner(netlist::Design header, tile::TileGraph& graph,
                StreamOptions options = {});

  StreamPlanner(const StreamPlanner&) = delete;
  StreamPlanner& operator=(const StreamPlanner&) = delete;

  void set_event_sink(StreamSink sink) { sink_ = std::move(sink); }

  /// Admits one net and tries to plan it immediately; a net that does
  /// not fit is parked (the id is still returned — parked is a
  /// legitimate state, not an error).  Errors are reserved for nets
  /// that fail netlist::validate_net against the session's design.
  core::Result<netlist::NetId> add_net(netlist::Net net);

  /// Rips a planned net (or drops a parked one), then drains the retry
  /// queue against the freed capacity.
  core::Status remove_net(netlist::NetId id);

  /// Capacity edits mid-stream.  Raising either kind of capacity drains
  /// the retry queue.
  void set_wire_capacity(tile::EdgeId e, std::int32_t c);
  void set_site_supply(tile::TileId t, std::int32_t s);

  /// One pass over the retry queue; returns how many nets planned.
  std::size_t retry_parked();
  /// Drains the queue to a fixed point; returns the nets still parked.
  std::size_t finish();

  bool is_planned(netlist::NetId id) const {
    return phase_.at(static_cast<std::size_t>(id)) == Phase::kPlanned;
  }
  bool is_parked(netlist::NetId id) const {
    return phase_.at(static_cast<std::size_t>(id)) == Phase::kParked;
  }
  std::size_t parked_count() const { return queue_.size(); }

  const netlist::Design& design() const { return design_; }
  const tile::TileGraph& graph() const { return graph_; }
  const std::vector<core::NetState>& nets() const { return nets_; }
  StreamStats stats() const { return stats_; }

  /// Independent audit of everything committed; parked/removed nets are
  /// tolerated as unrouted warnings, so clean() certifies that every
  /// commitment in the books is legal.
  core::AuditReport audit() const;

 private:
  enum class Phase : std::uint8_t { kPlanned, kParked, kRemoved };

  /// try_plan, then marks `id` planned or appends it to the retry queue
  /// (stats, counters and the event included).  Returns try_plan's
  /// verdict.
  bool plan_or_park(netlist::NetId id);
  /// Routes, checks hard feasibility, buffers, and commits net `id`.
  /// On any failure the books are rolled back and false is returned.
  bool try_plan(netlist::NetId id);
  void emit(netlist::NetId id, StreamEvent e) {
    if (sink_) sink_(id, e);
  }

  netlist::Design design_;
  tile::TileGraph& graph_;
  StreamOptions options_;
  std::vector<core::NetState> nets_;
  std::vector<Phase> phase_;
  std::vector<netlist::NetId> queue_;  ///< FIFO of parked ids
  route::EdgeCostCache cache_;
  route::MazeRouter router_;
  StreamSink sink_;
  StreamStats stats_;
};

}  // namespace rabid::eco
