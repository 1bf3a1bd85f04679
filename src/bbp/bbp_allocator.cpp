#include "bbp/bbp_allocator.hpp"

#include <chrono>
#include <utility>

#include "buffer/brute_force.hpp"
#include "util/assert.hpp"

namespace rabid::bbp {

BbpAllocator::BbpAllocator(const netlist::Design& design,
                           tile::TileGraph& graph,
                           core::RabidOptions options, BbpOptions bbp)
    : design_(design),
      graph_(graph),
      options_(std::move(options)),
      bbp_options_(bbp) {
  RABID_ASSERT_MSG(options_.deadline_ms == 0.0,
                   "BBP/FR does not support deadlines");
  bbp_options_.tech = options_.tech;
  obs::Registry::instance().raise_level(options_.obs_level);
}

std::vector<core::StageStats> BbpAllocator::plan() {
  RABID_ASSERT_MSG(history_.empty(), "plan() already ran");
  const auto start = std::chrono::steady_clock::now();

  BbpPlanner planner(design_, graph_, bbp_options_);
  result_ = planner.run(bbp_options_.buffer_area_um2);
  per_tile_.assign(planner.buffers_per_tile().begin(),
                   planner.buffers_per_tile().end());

  // Adopt the planner's solution under the common NetState schema: book
  // every buffer (overload and all), recompute the honesty-critical
  // fields with exactly the primitives the auditor uses.
  nets_.clear();
  nets_.reserve(planner.nets().size());
  for (std::size_t i = 0; i < planner.nets().size(); ++i) {
    const BbpNetState& from = planner.nets()[i];
    const auto id = static_cast<netlist::NetId>(i);
    core::NetState to;
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
    nets_.push_back(std::move(to));
  }

  const double cpu_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  history_.push_back(core::solution_snapshot(graph_, nets_, "bbp", cpu_s, 1));

  if (options_.audit_level != core::AuditLevel::kOff) {
    core::AuditReport fresh =
        core::SolutionAuditor(design_, graph_, audit_options()).audit(nets_);
    last_audit_ = std::make_unique<core::AuditReport>();
    last_audit_->merge(std::move(fresh), "final");
  }
  return history_;
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
