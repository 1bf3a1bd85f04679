#include "core/run_report.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "core/audit.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace rabid::core {

namespace {

void write_utilization(std::ostream& out, const char* key,
                       const UtilizationHistogram& h, const char* indent) {
  out << indent << "\"" << key << "\": {\"buckets\": [";
  for (std::size_t i = 0; i < UtilizationHistogram::kBuckets; ++i) {
    out << (i == 0 ? "" : ", ") << h.buckets[i];
  }
  out << "], \"skipped\": " << h.skipped << ", \"total\": " << h.total
      << ", \"max\": ";
  obs::json::append_number(out, h.max_utilization);
  out << "}";
}

double member_number(const obs::json::Value& obj, std::string_view key) {
  const obs::json::Value* v = obj.find(key);
  RABID_ASSERT_MSG(v != nullptr, "run report member missing");
  return v->as_number();
}

std::int64_t member_int(const obs::json::Value& obj, std::string_view key) {
  const obs::json::Value* v = obj.find(key);
  RABID_ASSERT_MSG(v != nullptr, "run report member missing");
  return v->as_int();
}

bool parse_utilization(const obs::json::Value& obj, std::string_view key,
                       UtilizationHistogram* out, std::string* error) {
  const obs::json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_object()) {
    if (error != nullptr) *error = std::string(key) + ": missing object";
    return false;
  }
  const obs::json::Value* buckets = v->find("buckets");
  if (buckets == nullptr || !buckets->is_array() ||
      buckets->items.size() != UtilizationHistogram::kBuckets) {
    if (error != nullptr) *error = std::string(key) + ": bad buckets";
    return false;
  }
  for (std::size_t i = 0; i < UtilizationHistogram::kBuckets; ++i) {
    out->buckets[i] = buckets->items[i].as_int();
  }
  out->skipped = member_int(*v, "skipped");
  out->total = member_int(*v, "total");
  out->max_utilization = member_number(*v, "max");
  return true;
}

}  // namespace

std::size_t UtilizationHistogram::bucket_of(double utilization) {
  // NaN and everything <= 0 land in bucket 0; anything at or beyond
  // 100% (including +inf, for which the double->size_t cast would be
  // UB) lands in the overflow bucket.  Comparison before cast keeps
  // the cast's argument provably in range.
  if (!(utilization > 0.0)) return 0;
  if (utilization >= 0.05 * static_cast<double>(kBuckets - 1)) {
    return kBuckets - 1;
  }
  return static_cast<std::size_t>(utilization / 0.05);
}

void UtilizationHistogram::add(double utilization) {
  ++buckets[bucket_of(utilization)];
  ++total;
  max_utilization = std::max(max_utilization, utilization);
}

void RunReport::write_json(std::ostream& out) const {
  // max_digits10 so every double survives the round trip bit-exact.
  const auto precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\n  \"schema\": \"" << kSchema << "\",\n  \"design\": ";
  obs::json::append_escaped(out, design);
  out << ",\n  \"grid\": {\"nx\": " << nx << ", \"ny\": " << ny
      << "},\n  \"nets\": " << nets << ",\n  \"sinks\": " << sinks
      << ",\n  \"site_supply\": " << site_supply << ",\n  \"obs_level\": ";
  obs::json::append_escaped(out, obs_level);
  out << ",\n  \"threads\": " << threads << ",\n  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageStats& s = stages[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"stage\": ";
    obs::json::append_escaped(out, s.stage);
    out << ", \"max_wire_congestion\": ";
    obs::json::append_number(out, s.max_wire_congestion);
    out << ", \"avg_wire_congestion\": ";
    obs::json::append_number(out, s.avg_wire_congestion);
    out << ", \"overflow\": " << s.overflow << ", \"max_buffer_density\": ";
    obs::json::append_number(out, s.max_buffer_density);
    out << ", \"avg_buffer_density\": ";
    obs::json::append_number(out, s.avg_buffer_density);
    out << ", \"buffers\": " << s.buffers
        << ", \"failed_nets\": " << s.failed_nets << ", \"wirelength_mm\": ";
    obs::json::append_number(out, s.wirelength_mm);
    out << ", \"max_delay_ps\": ";
    obs::json::append_number(out, s.max_delay_ps);
    out << ", \"avg_delay_ps\": ";
    obs::json::append_number(out, s.avg_delay_ps);
    out << ", \"cpu_s\": ";
    obs::json::append_number(out, s.cpu_s);
    out << ", \"threads\": " << s.threads << "}";
  }
  out << (stages.empty() ? "]" : "\n  ]") << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    ";
    obs::json::append_escaped(out, counters[i].first);
    out << ": " << counters[i].second;
  }
  out << (counters.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    ";
    obs::json::append_escaped(out, histograms[i].name);
    out << ": [";
    for (std::size_t b = 0; b < histograms[i].buckets.size(); ++b) {
      out << (b == 0 ? "" : ", ") << histograms[i].buckets[b];
    }
    out << "]";
  }
  out << (histograms.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    ";
    obs::json::append_escaped(out, gauges[i].first);
    out << ": " << gauges[i].second;
  }
  out << (gauges.empty() ? "}" : "\n  }") << ",\n";
  write_utilization(out, "wire_utilization", wire_utilization, "  ");
  out << ",\n";
  write_utilization(out, "site_utilization", site_utilization, "  ");
  out << ",\n  \"verdict\": ";
  obs::json::append_escaped(out, verdict);
  out << ",\n  \"nets_cancelled\": " << nets_cancelled;
  out << ",\n  \"audit\": {\"run\": " << (audited ? "true" : "false")
      << ", \"clean\": " << (audit_clean ? "true" : "false")
      << ", \"errors\": " << audit_errors << ", \"warnings\": "
      << audit_warnings << ", \"checks_run\": " << audit_checks
      << ", \"nets_audited\": " << audit_nets
      << "},\n  \"trace\": {\"events\": " << trace_events
      << ", \"dropped\": " << trace_dropped << "}\n}\n";
  out.precision(precision);
}

std::optional<RunReport> RunReport::parse(std::string_view text,
                                          std::string* error) {
  const std::optional<obs::json::Value> doc = obs::json::parse(text, error);
  if (!doc.has_value()) return std::nullopt;
  if (!doc->is_object()) {
    if (error != nullptr) *error = "run report: top level is not an object";
    return std::nullopt;
  }
  const obs::json::Value* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kSchema) {
    if (error != nullptr) *error = "run report: missing or unknown schema";
    return std::nullopt;
  }

  RunReport r;
  const obs::json::Value* design = doc->find("design");
  if (design == nullptr || !design->is_string()) {
    if (error != nullptr) *error = "run report: missing design";
    return std::nullopt;
  }
  r.design = design->string;
  const obs::json::Value* grid = doc->find("grid");
  if (grid == nullptr || !grid->is_object()) {
    if (error != nullptr) *error = "run report: missing grid";
    return std::nullopt;
  }
  r.nx = static_cast<std::int32_t>(member_int(*grid, "nx"));
  r.ny = static_cast<std::int32_t>(member_int(*grid, "ny"));
  r.nets = member_int(*doc, "nets");
  r.sinks = member_int(*doc, "sinks");
  r.site_supply = member_int(*doc, "site_supply");
  const obs::json::Value* level = doc->find("obs_level");
  if (level == nullptr || !level->is_string()) {
    if (error != nullptr) *error = "run report: missing obs_level";
    return std::nullopt;
  }
  r.obs_level = level->string;
  r.threads = static_cast<std::int32_t>(member_int(*doc, "threads"));

  const obs::json::Value* stages = doc->find("stages");
  if (stages == nullptr || !stages->is_array()) {
    if (error != nullptr) *error = "run report: missing stages";
    return std::nullopt;
  }
  for (const obs::json::Value& row : stages->items) {
    if (!row.is_object()) {
      if (error != nullptr) *error = "run report: stage row is not an object";
      return std::nullopt;
    }
    StageStats s;
    const obs::json::Value* name = row.find("stage");
    if (name == nullptr || !name->is_string()) {
      if (error != nullptr) *error = "run report: stage row missing name";
      return std::nullopt;
    }
    s.stage = name->string;
    s.max_wire_congestion = member_number(row, "max_wire_congestion");
    s.avg_wire_congestion = member_number(row, "avg_wire_congestion");
    s.overflow = member_int(row, "overflow");
    s.max_buffer_density = member_number(row, "max_buffer_density");
    s.avg_buffer_density = member_number(row, "avg_buffer_density");
    s.buffers = member_int(row, "buffers");
    s.failed_nets = static_cast<std::int32_t>(member_int(row, "failed_nets"));
    s.wirelength_mm = member_number(row, "wirelength_mm");
    s.max_delay_ps = member_number(row, "max_delay_ps");
    s.avg_delay_ps = member_number(row, "avg_delay_ps");
    s.cpu_s = member_number(row, "cpu_s");
    s.threads = static_cast<std::int32_t>(member_int(row, "threads"));
    r.stages.push_back(std::move(s));
  }

  const obs::json::Value* counters = doc->find("counters");
  if (counters == nullptr || !counters->is_object()) {
    if (error != nullptr) *error = "run report: missing counters";
    return std::nullopt;
  }
  for (const auto& [name, value] : counters->members) {
    r.counters.emplace_back(name, value.as_int());
  }

  const obs::json::Value* histograms = doc->find("histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    if (error != nullptr) *error = "run report: missing histograms";
    return std::nullopt;
  }
  for (const auto& [name, value] : histograms->members) {
    if (!value.is_array()) {
      if (error != nullptr) *error = "run report: histogram is not an array";
      return std::nullopt;
    }
    HistogramRow row;
    row.name = name;
    for (const obs::json::Value& b : value.items) {
      row.buckets.push_back(b.as_int());
    }
    r.histograms.push_back(std::move(row));
  }

  // Reports written before the scaling work have no gauges block;
  // default to empty rather than rejecting the document.
  if (const obs::json::Value* gauges = doc->find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->members) {
      r.gauges.emplace_back(name, value.as_int());
    }
  }

  if (!parse_utilization(*doc, "wire_utilization", &r.wire_utilization,
                         error) ||
      !parse_utilization(*doc, "site_utilization", &r.site_utilization,
                         error)) {
    return std::nullopt;
  }

  // Reports written before the deadline work lack these two members;
  // default them rather than rejecting the document.
  if (const obs::json::Value* verdict = doc->find("verdict");
      verdict != nullptr && verdict->is_string()) {
    r.verdict = verdict->string;
  }
  if (const obs::json::Value* cancelled = doc->find("nets_cancelled");
      cancelled != nullptr) {
    r.nets_cancelled = cancelled->as_int();
  }

  const obs::json::Value* audit = doc->find("audit");
  if (audit == nullptr || !audit->is_object()) {
    if (error != nullptr) *error = "run report: missing audit";
    return std::nullopt;
  }
  const obs::json::Value* run = audit->find("run");
  const obs::json::Value* clean = audit->find("clean");
  if (run == nullptr || !run->is_bool() || clean == nullptr ||
      !clean->is_bool()) {
    if (error != nullptr) *error = "run report: bad audit block";
    return std::nullopt;
  }
  r.audited = run->as_bool();
  r.audit_clean = clean->as_bool();
  r.audit_errors = member_int(*audit, "errors");
  r.audit_warnings = member_int(*audit, "warnings");
  r.audit_checks = member_int(*audit, "checks_run");
  r.audit_nets = member_int(*audit, "nets_audited");

  const obs::json::Value* trace = doc->find("trace");
  if (trace == nullptr || !trace->is_object()) {
    if (error != nullptr) *error = "run report: missing trace";
    return std::nullopt;
  }
  r.trace_events = member_int(*trace, "events");
  r.trace_dropped = member_int(*trace, "dropped");
  return r;
}

RunReport Allocator::run_report() const {
  RunReport r;
  r.design = design_.name();
  r.nx = graph_.nx();
  r.ny = graph_.ny();
  r.nets = static_cast<std::int64_t>(design_.nets().size());
  for (const netlist::Net& net : design_.nets()) {
    r.sinks += static_cast<std::int64_t>(net.sinks.size());
  }
  r.site_supply = graph_.total_site_supply();

  obs::Registry& registry = obs::Registry::instance();
  r.obs_level = std::string(obs::level_name(registry.level()));
  r.threads = threads();
  r.stages = stage_history_;

  const obs::Snapshot snap = registry.snapshot();
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(obs::Counter::kCount); ++c) {
    r.counters.emplace_back(
        std::string(obs::counter_name(static_cast<obs::Counter>(c))),
        static_cast<std::int64_t>(snap.counters[c]));
  }
  for (std::size_t h = 0;
       h < static_cast<std::size_t>(obs::HistogramId::kCount); ++h) {
    RunReport::HistogramRow row;
    row.name =
        std::string(obs::histogram_name(static_cast<obs::HistogramId>(h)));
    row.buckets.assign(snap.histograms[h].begin(), snap.histograms[h].end());
    r.histograms.push_back(std::move(row));
  }
  for (std::size_t g = 0; g < static_cast<std::size_t>(obs::GaugeId::kCount);
       ++g) {
    const auto id = static_cast<obs::GaugeId>(g);
    // The registry's peak-RSS gauge is only populated at obs levels
    // above off; the report's copy falls back to a live probe so the
    // memory footprint is never silently zero.
    const std::uint64_t v = id == obs::GaugeId::kPeakRssBytes
                                ? std::max(snap.gauges[g], obs::peak_rss_bytes())
                                : snap.gauges[g];
    r.gauges.emplace_back(std::string(obs::gauge_name(id)),
                          static_cast<std::int64_t>(v));
  }

  for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const std::int32_t cap = graph_.wire_capacity(e);
    if (cap <= 0) {
      ++r.wire_utilization.skipped;
      continue;
    }
    r.wire_utilization.add(static_cast<double>(graph_.wire_usage(e)) / cap);
  }
  for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
    const std::int32_t supply = graph_.site_supply(t);
    if (supply <= 0) {
      ++r.site_utilization.skipped;
      continue;
    }
    r.site_utilization.add(static_cast<double>(graph_.site_usage(t)) / supply);
  }

  r.verdict = timed_out() ? "timed_out" : "ok";
  r.nets_cancelled = nets_cancelled();

  if (const AuditReport* audit = last_audit(); audit != nullptr) {
    r.audited = true;
    r.audit_clean = audit->clean();
    r.audit_errors = static_cast<std::int64_t>(audit->error_count());
    r.audit_warnings = static_cast<std::int64_t>(audit->warning_count());
    r.audit_checks = audit->checks_run;
    r.audit_nets = static_cast<std::int64_t>(audit->nets_audited);
  }

  r.trace_events = static_cast<std::int64_t>(registry.trace().event_count());
  r.trace_dropped =
      static_cast<std::int64_t>(registry.trace().dropped_count());
  return r;
}

}  // namespace rabid::core
