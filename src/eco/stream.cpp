#include "eco/stream.hpp"

#include <algorithm>
#include <utility>

#include "buffer/insertion.hpp"
#include "core/buffer_commit.hpp"
#include "core/replan.hpp"
#include "netlist/validate.hpp"
#include "obs/counters.hpp"

namespace rabid::eco {

const char* stream_event_name(StreamEvent e) {
  switch (e) {
    case StreamEvent::kAdmitted: return "admitted";
    case StreamEvent::kPlanned: return "planned";
    case StreamEvent::kParked: return "parked";
    case StreamEvent::kRetried: return "retried";
    case StreamEvent::kRemoved: return "removed";
  }
  return "unknown";
}

StreamPlanner::StreamPlanner(std::string name, geom::Rect outline,
                             std::int32_t default_length_limit,
                             tile::TileGraph& graph, StreamOptions options)
    : design_(std::move(name), outline),
      graph_(graph),
      options_(std::move(options)),
      cache_(graph, [this](tile::EdgeId e) {
        return route::soft_wire_cost(graph_, e);
      }),
      router_(graph) {
  design_.set_default_length_limit(default_length_limit);
}

core::Result<netlist::NetId> StreamPlanner::add_net(netlist::Net net) {
  const core::Status valid = netlist::validate_incoming_net(
      design_.outline(), net, "streamed", "stream");
  if (!valid) return valid;
  const netlist::NetId id = design_.add_net(std::move(net));
  nets_.emplace_back();
  phase_.push_back(Phase::kParked);
  ++stats_.admitted;
  obs::count(obs::Counter::kStreamNetsAdmitted);
  emit(id, StreamEvent::kAdmitted);
  plan_or_park(id);
  return id;
}

bool StreamPlanner::plan_or_park(netlist::NetId id) {
  if (try_plan(id)) {
    phase_[static_cast<std::size_t>(id)] = Phase::kPlanned;
    ++stats_.planned;
    obs::count(obs::Counter::kStreamNetsPlanned);
    emit(id, StreamEvent::kPlanned);
    return true;
  }
  queue_.push_back(id);
  ++stats_.parked;
  obs::count(obs::Counter::kStreamNetsParked);
  emit(id, StreamEvent::kParked);
  return false;
}

bool StreamPlanner::try_plan(netlist::NetId id) {
  const netlist::Net& net = design_.net(id);
  route::RouteTree tree = router_.route_net(net, options_.pd_alpha,
                                            cache_.values(),
                                            cache_.min_cost());

  // Hard wire admission: the soft eq. (1) costs steer the router away
  // from full edges, but only choose an overflowing arc when no free
  // path exists — in a stream that means "does not fit", not "fix it
  // next iteration".  Checked before anything is booked.
  const auto full = [&](tile::EdgeId e) {
    return graph_.wire_usage(e) + net.width > graph_.wire_capacity(e);
  };
  if (core::any_arc(graph_, tree, full)) return false;
  core::NetState& st = nets_[static_cast<std::size_t>(id)];
  st.tree = std::move(tree);
  core::commit_wires(graph_, st, net.width, cache_);

  // Strict (non-relaxed) buffering at demand p(v) = 0: a streamed net
  // parks rather than committing a length-rule violation.
  const std::int32_t L = design_.length_limit(id);
  const buffer::BufferLibrary& lib = options_.buffer_library;
  const bool buffered = core::commit_buffers(
      graph_, st, L, lib,
      [&](std::span<const tile::TileId> forbidden) {
        return buffer::insert_buffers(
            st.tree, L, core::site_costs(graph_, forbidden), lib);
      },
      core::OnCommitFailure::kPark);
  if (!buffered) {
    // Buffering infeasible within the remaining sites: roll the wires
    // back out of the books and park.
    core::rip_net(graph_, st, net.width, cache_);
    return false;
  }
  core::refresh_delay(graph_, st, net.width, options_.tech);
  return true;
}

core::Status StreamPlanner::remove_net(netlist::NetId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= nets_.size()) {
    return core::Status::invalid_input(
        "no streamed net with id " + std::to_string(id), "stream");
  }
  Phase& phase = phase_[static_cast<std::size_t>(id)];
  if (phase == Phase::kRemoved) {
    return core::Status::failed_precondition(
        "streamed net " + std::to_string(id) + " was already removed");
  }
  if (phase == Phase::kParked) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                 queue_.end());
    phase = Phase::kRemoved;
    emit(id, StreamEvent::kRemoved);
    return core::Status::ok();
  }

  core::rip_net(graph_, nets_[static_cast<std::size_t>(id)],
                design_.net(id).width, cache_);
  phase = Phase::kRemoved;
  emit(id, StreamEvent::kRemoved);
  // The rip freed wires and sites: parked nets get another chance.
  finish();
  return core::Status::ok();
}

void StreamPlanner::set_wire_capacity(tile::EdgeId e, std::int32_t c) {
  const bool raised = c > graph_.wire_capacity(e);
  graph_.set_wire_capacity(e, c);
  // The capacity-aware refresh keeps the A* floor admissible when the
  // new capacity drops this edge's cost below it (route/maze.hpp).
  cache_.on_capacity_change(e);
  obs::count(obs::Counter::kEcoCapacityEdits);
  if (raised) finish();
}

void StreamPlanner::set_site_supply(tile::TileId t, std::int32_t s) {
  const bool raised = s > graph_.site_supply(t);
  graph_.set_site_supply(t, s);
  obs::count(obs::Counter::kEcoCapacityEdits);
  if (raised) finish();
}

std::size_t StreamPlanner::retry_parked() {
  std::vector<netlist::NetId> round;
  round.swap(queue_);
  std::size_t planned = 0;
  for (const netlist::NetId id : round) {
    ++stats_.retried;
    obs::count(obs::Counter::kStreamNetsRetried);
    emit(id, StreamEvent::kRetried);
    if (plan_or_park(id)) ++planned;
  }
  return planned;
}

std::size_t StreamPlanner::finish() {
  while (!queue_.empty() && retry_parked() > 0) {
  }
  return queue_.size();
}

core::AuditReport StreamPlanner::audit() const {
  core::AuditOptions opts;
  opts.allow_unrouted = true;  // parked/removed nets have no route
  opts.tech = options_.tech;
  opts.buffer_library = options_.buffer_library;
  core::SolutionAuditor auditor(design_, graph_, opts);
  return auditor.audit(nets_);
}

}  // namespace rabid::eco
