#pragma once

/// \file spans.hpp
/// The benchmark's own span recorder.
///
/// Spans are recorded by the benchmark around each call it makes into a
/// planner layer (nothing inside the planner is instrumented).  A span
/// has a name "<layer>.<what>", a start and an end on the steady clock,
/// the span that caused it (parent) and a trace id shared by the spans
/// of one request.  They stay in memory and are written out when the
/// run ends: as chrome-trace JSON (loads in https://ui.perfetto.dev) and
/// as a self-time table, where a span's self time is its duration minus
/// the part of its interval that its children cover.
///
/// A disabled log records nothing; open() then returns -1 and every
/// other call is a no-op, so untraced runs pay one branch per call.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t trace = 0;
    double start_us = 0.0;
    double end_us = -1.0;  ///< < start_us while still open
    std::uint32_t tid = 0;
  };

  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  /// Microseconds since the log was created.
  double now_us() const;

  /// Opens a span starting now; returns its id (-1 when disabled).
  int open(std::string name, int parent = -1, std::uint64_t trace = 0);
  void close(int id);
  /// Records a span whose endpoints were measured elsewhere (client-side
  /// job lifecycle timestamps); returns its id.
  int add(std::string name, int parent, double start_us, double end_us,
          std::uint64_t trace);

  std::vector<Span> spans() const;
  /// Self time of every span, indexed like spans().
  static std::vector<double> self_us(const std::vector<Span>& spans);

  /// Per-name aggregate: count, total and self time, and the name of
  /// the most common parent.
  struct Row {
    std::string name;
    std::string parent;
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<Row> table() const;

  void write_chrome_trace(std::ostream& out) const;

 private:
  std::uint32_t thread_index();

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> tids_;
};

/// RAII span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string name, int parent = -1,
            std::uint64_t trace = 0)
      : log_(log), id_(log.open(std::move(name), parent, trace)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
