#include "core/allocator.hpp"

#include <algorithm>
#include <utility>

#include "core/audit.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace rabid::core {

std::string_view backend_name(Backend b) {
  switch (b) {
    case Backend::kRabid: return "rabid";
    case Backend::kBbp: return "bbp";
    case Backend::kMcf: return "mcf";
  }
  return "unknown";
}

bool backend_from_name(std::string_view name, Backend* out) {
  if (name == "rabid") {
    *out = Backend::kRabid;
  } else if (name == "bbp") {
    *out = Backend::kBbp;
  } else if (name == "mcf") {
    *out = Backend::kMcf;
  } else {
    return false;
  }
  return true;
}

Allocator::Allocator(const netlist::Design& design, tile::TileGraph& graph,
                     RabidOptions options)
    : design_(design), graph_(graph), options_(std::move(options)) {
  RABID_ASSERT_MSG(graph.stats().buffers_used == 0 && graph.wire_feasible(),
                   "tile graph usage books must start empty");
  // Observability is process-global; raise-only, so a default-options
  // instance (obs off) never silences a concurrently observed flow.
  obs::Registry::instance().raise_level(options_.obs_level);
  nets_.resize(design.nets().size());
}

std::int32_t Allocator::threads() const {
  return static_cast<std::int32_t>(
      util::resolve_thread_count(options_.threads));
}

AuditOptions Allocator::audit_options() const {
  AuditOptions opt;
  opt.tech = options_.tech;
  opt.buffer_library = options_.buffer_library;
  // A deadline-cancelled run honestly leaves nets unrouted and
  // congestion unresolved — integrity checks stay at full severity.
  if (timed_out()) {
    opt.allow_unrouted = true;
    opt.wire_overflow_severity = AuditSeverity::kWarning;
  }
  return opt;
}

AuditReport Allocator::audit() const {
  return SolutionAuditor(design_, graph_, audit_options()).audit(nets_);
}

void Allocator::maybe_audit(std::string_view stage, bool final_stage,
                            bool overflow_pending) {
  if (options_.audit_level == AuditLevel::kOff) return;
  if (options_.audit_level == AuditLevel::kFinal && !final_stage) return;
  AuditOptions opt = audit_options();
  if (overflow_pending) opt.wire_overflow_severity = AuditSeverity::kWarning;
  AuditReport fresh = SolutionAuditor(design_, graph_, opt).audit(nets_);
  if (last_audit_ == nullptr) last_audit_ = std::make_shared<AuditReport>();
  last_audit_->merge(std::move(fresh), stage);
}

StageStats solution_snapshot(const tile::TileGraph& graph,
                             std::span<const NetState> nets,
                             std::string stage, double cpu_s,
                             std::int32_t threads) {
  StageStats s;
  s.stage = std::move(stage);
  s.threads = threads;
  const tile::CongestionStats cs = graph.stats();
  s.max_wire_congestion = cs.max_wire_congestion;
  s.avg_wire_congestion = cs.avg_wire_congestion;
  s.overflow = cs.overflow;
  s.max_buffer_density = cs.max_buffer_density;
  s.avg_buffer_density = cs.avg_buffer_density;
  s.buffers = cs.buffers_used;
  s.cpu_s = cpu_s;
  double wl_um = 0.0;
  for (const NetState& n : nets) {
    if (n.tree.empty()) continue;
    wl_um += n.tree.wirelength_um(graph);
    if (!n.meets_length_rule) ++s.failed_nets;
    s.max_delay_ps = std::max(s.max_delay_ps, n.delay.max_ps);
  }
  s.wirelength_mm = wl_um / 1000.0;
  double delay_sum = 0.0;
  std::size_t sink_count = 0;
  for (const NetState& n : nets) {
    delay_sum += n.delay.sum_ps;
    sink_count += n.delay.sink_delays_ps.size();
  }
  s.avg_delay_ps =
      sink_count == 0 ? 0.0 : delay_sum / static_cast<double>(sink_count);
  return s;
}

}  // namespace rabid::core
