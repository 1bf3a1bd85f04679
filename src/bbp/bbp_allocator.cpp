#include "bbp/bbp_allocator.hpp"

#include <chrono>
#include <utility>

#include "buffer/brute_force.hpp"
#include "util/assert.hpp"

namespace rabid::bbp {

BbpAllocator::BbpAllocator(const netlist::Design& design,
                           tile::TileGraph& graph,
                           core::RabidOptions options, BbpOptions bbp)
    : Allocator(design, graph, std::move(options)), bbp_options_(bbp) {
  RABID_ASSERT_MSG(options_.deadline_ms == 0.0,
                   "BBP/FR does not support deadlines");
  options_.threads = 1;
  bbp_options_.tech = options_.tech;
}

std::vector<core::StageStats> BbpAllocator::plan() {
  RABID_ASSERT_MSG(stage_history_.empty(), "plan() already ran");
  const auto start = std::chrono::steady_clock::now();

  BbpPlanner planner(design_, graph_, bbp_options_);
  result_ = planner.run(bbp_options_.buffer_area_um2);
  per_tile_.assign(planner.buffers_per_tile().begin(),
                   planner.buffers_per_tile().end());

  // Adopt the planner's solution under the common NetState schema: book
  // every buffer (overload and all), recompute the honesty-critical
  // fields with exactly the primitives the auditor uses.
  for (std::size_t i = 0; i < planner.nets().size(); ++i) {
    const BbpNetState& from = planner.nets()[i];
    const auto id = static_cast<netlist::NetId>(i);
    core::NetState& to = nets_[i];
    to.tree = from.tree;
    to.buffers = from.buffers;
    for (const route::BufferPlacement& b : to.buffers) {
      graph_.add_buffer_unchecked(to.tree.node(b.node).tile);
    }
    to.meets_length_rule = buffer::placement_is_legal(
        to.tree, to.buffers, design_.length_limit(id));
    const timing::Technology tech =
        timing::scaled_for_width(options_.tech, design_.net(id).width);
    to.delay = timing::evaluate_delay(to.tree, to.buffers, {}, graph_, tech);
  }

  const double cpu_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  stage_history_.push_back(
      core::solution_snapshot(graph_, nets_, "bbp", cpu_s, threads()));
  maybe_audit("final", /*final_stage=*/true);
  return stage_history_;
}

core::AuditOptions BbpAllocator::audit_options() const {
  core::AuditOptions opt;
  opt.tech = options_.tech;
  // Capacity overload IS the measured phenomenon (Fig. 1 / Table V):
  // congestion-blind staircase routes and buffers piled into channels.
  // Integrity invariants stay hard errors.
  opt.wire_overflow_severity = core::AuditSeverity::kWarning;
  opt.buffer_overflow_severity = core::AuditSeverity::kWarning;
  return opt;
}

}  // namespace rabid::bbp
