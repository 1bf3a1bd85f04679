#pragma once

/// \file run_report.hpp
/// The structured run report: one JSON document unifying everything a
/// flow run can tell about itself — the Table II stage rows, the full
/// observability counter/histogram catalogue, per-tile w(e)/W(e) and
/// b(v)/B(v) utilization histograms, and the audit summary.
///
/// This is the machine-readable complement of report/table.hpp's
/// human-readable Table II: the CLI writes it with --report, the
/// nightly CI job archives it on failure, and bench tooling diffs it
/// across runs.  parse() reads a written report back (via obs/json) so
/// tests can assert exact round-trips and external tools get a schema
/// they can rely on ("schema": "rabid.run_report.v1").
///
/// Counter totals here come straight from the obs registry, which the
/// flow increments incrementally; the audit block comes from the
/// independent ground-up recount.  The two agreeing (e.g. buffer
/// commits minus removals equals the audited buffer total) is itself a
/// checked invariant — see tests/integration/obs_report_test.cpp.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rabid.hpp"
#include "obs/counters.hpp"

namespace rabid::core {

/// Fixed-width utilization histogram over a resource book: 5%-wide
/// buckets from 0 to 100%, plus one overflow bucket for >= 100%.
/// Entries with zero capacity (e.g. tiles with no buffer sites) are
/// tallied in `skipped`, not bucketed.
struct UtilizationHistogram {
  static constexpr std::size_t kBuckets = 21;

  std::array<std::int64_t, kBuckets> buckets{};
  std::int64_t skipped = 0;  ///< zero-capacity entries (not bucketed)
  std::int64_t total = 0;    ///< bucketed entries (sum of buckets)
  double max_utilization = 0.0;

  /// Bucket index for usage/capacity: floor(u / 0.05), capped at the
  /// >= 100% overflow bucket.
  static std::size_t bucket_of(double utilization);
  void add(double utilization);
};

/// Everything one flow run reports about itself.  Build with
/// Allocator::run_report(), serialize with write_json(), read back with
/// parse().
struct RunReport {
  /// Bumped when a field is renamed or re-shaped (never silently).
  static constexpr std::string_view kSchema = "rabid.run_report.v1";

  std::string design;
  std::int32_t nx = 0;
  std::int32_t ny = 0;
  std::int64_t nets = 0;
  std::int64_t sinks = 0;
  std::int64_t site_supply = 0;
  std::string obs_level;  ///< registry level the run recorded at
  std::int32_t threads = 1;

  /// The Table II rows, in execution order (Allocator::stage_history()).
  std::vector<StageStats> stages;

  /// The full counter catalogue in enum order, names from
  /// obs::counter_name() — zero-valued counters included, so consumers
  /// can tell "did not happen" from "not recorded".
  std::vector<std::pair<std::string, std::int64_t>> counters;

  struct HistogramRow {
    std::string name;
    /// Log2 buckets (obs::kHistogramBuckets wide; trailing zeros kept).
    std::vector<std::int64_t> buckets;
  };
  std::vector<HistogramRow> histograms;

  /// High-water-mark gauges in enum order, names from obs::gauge_name()
  /// — the memory.* byte counters plus the OS peak RSS, recorded even
  /// at obs level off (peak_rss is re-probed at report-build time, so a
  /// run that recorded nothing still reports its memory footprint).
  std::vector<std::pair<std::string, std::int64_t>> gauges;

  UtilizationHistogram wire_utilization;  ///< w(e)/W(e) over all edges
  UtilizationHistogram site_utilization;  ///< b(v)/B(v) over all tiles

  /// "ok" for a full run, "timed_out" when the deadline expired and the
  /// flow returned a partial solution (see RabidOptions::deadline_ms).
  std::string verdict = "ok";
  /// Net-processing steps skipped after the deadline expired.
  std::int64_t nets_cancelled = 0;

  bool audited = false;  ///< the audit block reflects a real audit run
  bool audit_clean = true;
  std::int64_t audit_errors = 0;
  std::int64_t audit_warnings = 0;
  std::int64_t audit_checks = 0;
  std::int64_t audit_nets = 0;

  std::int64_t trace_events = 0;
  std::int64_t trace_dropped = 0;

  void write_json(std::ostream& out) const;
  /// Reads back what write_json() wrote.  On failure returns nullopt
  /// and, when `error` is non-null, stores what went wrong.
  static std::optional<RunReport> parse(std::string_view text,
                                        std::string* error = nullptr);
};

}  // namespace rabid::core
