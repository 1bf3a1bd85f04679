#pragma once

/// \file metrics.hpp
/// What one benchmark run reports: the result line, the metric
/// catalogues, order statistics, quality sums and obs counter deltas.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/rabid.hpp"
#include "obs/counters.hpp"
#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line settings shared by every workload.
struct Config {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// false: the end-to-end metrics, obs off.  true: the per-layer
  /// metrics, with spans and obs counters on for half of the work.
  bool trace = false;
  /// Traced runs write "<workload>-s<seed>.trace.json" (chrome trace)
  /// and "<workload>-s<seed>.report.txt" (self-time table) here.
  std::string out_dir = ".bench_out";
};

double seconds_since(Clock::time_point t0);
double ms_since(Clock::time_point t0);

/// Median and linear-interpolated percentile (q in [0, 1]); 0 on empty.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);

/// Final-solution quality summed over designs (Table II's last row).
struct Quality {
  std::int64_t buffers = 0;
  std::int64_t length_fails = 0;
  std::int64_t overflow = 0;
  double wirelength_mm = 0.0;

  void add(const rabid::core::StageStats& row);
  Quality& operator+=(const Quality& other);
  bool operator==(const Quality&) const = default;
};

/// obs::Snapshot difference for one counter.
std::uint64_t delta(const rabid::obs::Snapshot& before,
                    const rabid::obs::Snapshot& after,
                    rabid::obs::Counter c);

/// One metric catalogue entry.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  /// For a ratio: the metric holding its denominator (or what it is
  /// normalized by); empty otherwise.
  std::string_view base = {};
};
/// The end-to-end metrics every untraced run prints (BENCHMARK.json
/// "end_to_end", same order).
const std::vector<MetricSpec>& end_to_end_metrics();
/// The per-layer metrics every traced run prints (BENCHMARK.json
/// "per_layer", same order).
const std::vector<MetricSpec>& per_layer_metrics();

/// Per-layer metrics only the scale workload (ECO steps) or only the
/// serve workload (stream, serve, mcf layers) exercises.
inline constexpr std::array<std::string_view, 4> kEcoStepMetrics = {
    "eco.dirty_nets_per_step", "eco.closure_ratio",
    "eco.closure_iterations_p90", "eco.overflow_step_share"};
inline constexpr std::array<std::string_view, 6> kServeOnlyMetrics = {
    "eco.stream_parked_share", "eco.stream_retries", "serve.queue_share",
    "serve.done_bytes_mean",   "mcf.phases",         "mcf.oracle_routes"};

/// The last line a run prints.
class Result {
 public:
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Records a check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what);
  const std::vector<std::string>& problems() const { return problems_; }

  /// Metric values by name; emit() prints the catalogue for the mode.
  std::map<std::string, double> values;
  /// Per-layer metrics the workload does not exercise, with the reason;
  /// they print as 0 and are listed in the report.
  std::map<std::string, std::string> not_applicable;
  void mark_not_applicable(std::span<const std::string_view> names,
                           const std::string& reason);

  /// One JSON object: correct, attempted, failed, metrics.  Every
  /// catalogue metric of the mode must have a value (or be marked not
  /// applicable); a missing one marks the run incorrect.
  std::string emit(bool trace);

 private:
  std::vector<std::string> problems_;
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Writes the traced run's artifacts under cfg.out_dir and prints the
/// self-time table to stderr: the chrome trace, and a report holding the
/// span table, every per-layer metric (with its base where it is a
/// ratio) and the free-form `lines` the workload adds.
void write_trace_report(const Config& cfg, std::string_view workload,
                        const SpanLog& spans, const Result& result,
                        const std::vector<std::string>& lines);

/// Fills the per-layer metrics that come straight from registry gauges
/// (memory.*).
void add_gauge_metrics(const rabid::obs::Snapshot& snap, Result& result);

/// printf into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
