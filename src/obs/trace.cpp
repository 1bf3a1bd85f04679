#include "obs/trace.hpp"

#include <ostream>

#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace rabid::obs {

TraceWriter::TraceWriter() : epoch_(std::chrono::steady_clock::now()) {}

double TraceWriter::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t TraceWriter::thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void TraceWriter::complete(std::string name, const char* category,
                           double ts_us, double dur_us) {
  if (!enabled()) return;
  const std::uint32_t tid = thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back({std::move(name), category, ts_us, dur_us, tid, 'X'});
}

void TraceWriter::instant(std::string name, const char* category) {
  if (!enabled()) return;
  const std::uint32_t tid = thread_id();
  const double ts = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back({std::move(name), category, ts, 0.0, tid, 'i'});
}

void TraceWriter::set_thread_name(std::string name) {
  const std::uint32_t tid = thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing, existing_name] : thread_names_) {
    if (existing == tid) {
      existing_name = std::move(name);
      return;
    }
  }
  thread_names_.emplace_back(tid, std::move(name));
}

std::size_t TraceWriter::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t TraceWriter::dropped_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceWriter::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

void TraceWriter::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Microsecond timestamps of a minutes-long run need more than the
  // default 6 significant digits to stay distinct.
  const auto precision = out.precision(15);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& [tid, name] : thread_names_) {
    out << (first ? "\n" : ",\n")
        << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"tid\": "
        << tid << ", \"args\": {\"name\": ";
    json::append_escaped(out, name);
    out << "}}";
    first = false;
  }
  for (const Event& e : events_) {
    out << (first ? "\n" : ",\n") << "  {\"name\": ";
    json::append_escaped(out, e.name);
    out << ", \"cat\": \"" << e.category << "\", \"ph\": \"" << e.phase
        << "\", \"pid\": 0, \"tid\": " << e.tid << ", \"ts\": " << e.ts_us;
    if (e.phase == 'X') out << ", \"dur\": " << e.dur_us;
    if (e.phase == 'i') out << ", \"s\": \"t\"";
    out << "}";
    first = false;
  }
  out << (first ? "]" : "\n]") << ",\n\"displayTimeUnit\": \"ms\""
      << ",\n\"droppedEvents\": " << dropped_ << "\n}\n";
  out.precision(precision);
}

ScopedTimer::ScopedTimer(std::string name, const char* category)
    : name_(std::move(name)), category_(category) {
  TraceWriter& trace = Registry::instance().trace();
  active_ = trace.enabled();
  if (active_) start_us_ = trace.now_us();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  TraceWriter& trace = Registry::instance().trace();
  const double end = trace.now_us();
  trace.complete(std::move(name_), category_, start_us_, end - start_us_);
}

}  // namespace rabid::obs
