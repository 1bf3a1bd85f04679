#include "metrics.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "obs/memory.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Quality::add(const rabid::core::StageStats& row) {
  buffers += row.buffers;
  length_fails += row.failed_nets;
  overflow += row.overflow;
  wirelength_mm += row.wirelength_mm;
}

Quality& Quality::operator+=(const Quality& other) {
  buffers += other.buffers;
  length_fails += other.length_fails;
  overflow += other.overflow;
  wirelength_mm += other.wirelength_mm;
  return *this;
}

std::uint64_t delta(const rabid::obs::Snapshot& before,
                    const rabid::obs::Snapshot& after,
                    rabid::obs::Counter c) {
  return after[c] - before[c];
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"plan_nets_per_s", "1/s"},
      {"op_ms_p50", "ms"},
      {"op_ms_p90", "ms"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"buffers", "count"},
      {"length_fails", "count"},
      {"wirelength_mm", "mm"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"circuits.generate_ms", "ms"},
      {"circuits.tile_graph_ms", "ms"},
      {"core.stage1_ms", "ms"},
      {"core.stage2_ms", "ms"},
      {"core.stage3_ms", "ms"},
      {"core.stage4_ms", "ms"},
      {"core.plan_unattributed_pct", "%", "plan span"},
      {"core.audit_ms", "ms"},
      {"core.twopath_searches", "count"},
      {"core.twopath_heap_pops", "count"},
      {"core.twopath_ns_per_pop", "ns", "core.twopath_heap_pops"},
      {"core.stage2_iterations", "count"},
      {"core.stage2_nets_ripped", "count"},
      {"core.stage2_nets_kept", "count"},
      {"core.buffers_committed", "count"},
      {"core.buffers_removed", "count"},
      {"core.buffer_commit_retries_per_dp_net", "ratio", "buffer.dp_nets"},
      {"route.maze_routes", "count"},
      {"route.maze_heap_pops", "count"},
      {"route.maze_stale_pop_ratio", "ratio", "route.maze_heap_pops"},
      {"route.maze_ns_per_pop", "ns", "route.maze_heap_pops"},
      {"route.edge_cache_invalidations", "count"},
      {"route.edge_cache_full_refreshes", "count"},
      {"route.wire_units_committed", "count"},
      {"route.wire_units_removed", "count"},
      {"buffer.dp_nets", "count"},
      {"buffer.dp_cells", "count"},
      {"buffer.dp_infeasible_ratio", "ratio", "buffer.dp_cells"},
      {"buffer.dp_limit_relaxations", "count"},
      {"eco.dirty_nets_per_step", "count", "eco steps"},
      {"eco.closure_ratio", "ratio", "moved nets"},
      {"eco.closure_iterations_p90", "count"},
      {"eco.overflow_step_share", "ratio", "eco steps"},
      {"eco.stream_parked_share", "ratio", "stream nets admitted"},
      {"eco.stream_retries", "count"},
      {"serve.queue_share", "ratio", "job time"},
      {"serve.done_bytes_mean", "bytes"},
      {"mcf.phases", "count"},
      {"mcf.oracle_routes", "count"},
      {"memory.tile_graph_mb", "MB"},
      {"memory.route_trees_mb", "MB"},
      {"memory.edge_cost_cache_mb", "MB"},
      {"memory.maze_scratch_mb", "MB"},
      {"memory.dp_arena_mb", "MB"},
      {"util.heap_regrows", "count"},
      {"obs.overhead_pct", "%", "untraced work"},
  };
  return kMetrics;
}

void Result::mark_not_applicable(
    std::span<const std::string_view> names, const std::string& reason) {
  for (std::string_view name : names) not_applicable[std::string(name)] = reason;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems_.push_back(what);
}

std::string Result::emit(bool trace) {
  const std::vector<MetricSpec>& catalogue =
      trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricSpec& m : catalogue) {
    const std::string name(m.name);
    double value = 0.0;
    if (auto it = values.find(name); it != values.end()) {
      value = it->second;
    } else {
      check(not_applicable.count(name) > 0, "metric " + name + " not measured");
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += format("\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                      name.c_str(), value, std::string(m.unit).c_str());
  }
  return format(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), metrics.c_str());
}

double peak_rss_mb() {
  return static_cast<double>(rabid::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void add_gauge_metrics(const rabid::obs::Snapshot& snap, Result& result) {
  using rabid::obs::GaugeId;
  const auto mb = [&](GaugeId g) {
    return static_cast<double>(snap[g]) / (1024.0 * 1024.0);
  };
  result.values["memory.tile_graph_mb"] = mb(GaugeId::kTileGraphBytes);
  result.values["memory.route_trees_mb"] = mb(GaugeId::kRouteTreeBytes);
  result.values["memory.edge_cost_cache_mb"] = mb(GaugeId::kEdgeCostCacheBytes);
  result.values["memory.maze_scratch_mb"] = mb(GaugeId::kMazeScratchBytes);
  result.values["memory.dp_arena_mb"] = mb(GaugeId::kDpArenaBytes);
}

void write_trace_report(const Config& cfg, std::string_view workload,
                        const SpanLog& spans, const Result& result,
                        const std::vector<std::string>& lines) {
  const std::string stem =
      std::string(workload) + "-s" + std::to_string(cfg.seed);
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  const std::string trace_path = cfg.out_dir + "/" + stem + ".trace.json";
  const std::string report_path = cfg.out_dir + "/" + stem + ".report.txt";

  std::string report;
  report += format("%s, seed %llu, traced run\n\n", std::string(workload).c_str(),
                   static_cast<unsigned long long>(cfg.seed));
  report += format("%-34s %-28s %8s %12s %12s\n", "span", "parent", "count",
                   "total_ms", "self_ms");
  for (const SpanLog::Row& row : spans.table()) {
    report += format("%-34s %-28s %8lld %12.3f %12.3f\n", row.name.c_str(),
                     row.parent.c_str(), static_cast<long long>(row.count),
                     row.total_ms, row.self_ms);
  }
  report += "\nper-layer metrics\n";
  for (const MetricSpec& m : per_layer_metrics()) {
    const std::string name(m.name);
    if (auto it = result.not_applicable.find(name);
        it != result.not_applicable.end()) {
      report += format("  %-38s n/a (%s)\n", name.c_str(), it->second.c_str());
      continue;
    }
    auto it = result.values.find(name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    report += format("  %-38s %14.6g %-6s", name.c_str(), value,
                     std::string(m.unit).c_str());
    if (!m.base.empty()) {
      report += "  base: " + std::string(m.base);
      if (auto b = result.values.find(std::string(m.base));
          b != result.values.end()) {
        report += format(" = %.6g", b->second);
      }
    }
    report += '\n';
  }
  if (!lines.empty()) report += "\nnotes\n";
  for (const std::string& line : lines) report += "  " + line + "\n";
  for (const std::string& p : result.problems()) {
    report += "  CHECK FAILED: " + p + "\n";
  }

  std::ofstream(report_path) << report;
  std::ofstream trace(trace_path);
  spans.write_chrome_trace(trace);
  std::cerr << report << "wrote " << report_path << " and " << trace_path
            << "\n";
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(std::max(n, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
