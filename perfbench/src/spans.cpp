#include "spans.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <utility>

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t SpanLog::thread_index() {
  auto [it, inserted] = tids_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
  (void)inserted;
  return it->second;
}

int SpanLog::open(std::string name, int parent, std::uint64_t trace) {
  if (!enabled_) return -1;
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), parent, trace, start, -1.0,
                    thread_index()});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

int SpanLog::add(std::string name, int parent, double start_us, double end_us,
                 std::uint64_t trace) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      {std::move(name), parent, trace, start_us, end_us, thread_index()});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanLog::self_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_us >= s.start_us) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_us, s.end_us});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_us < s.start_us) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end_us - s.start_us) - covered;
  }
  return self;
}

std::vector<SpanLog::Row> SpanLog::table() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_us(all);
  std::map<std::string, Row> rows;
  std::map<std::string, std::map<std::string, std::int64_t>> parents;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_us < s.start_us) continue;
    Row& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    row.total_ms += (s.end_us - s.start_us) / 1000.0;
    row.self_ms += self[i] / 1000.0;
    const std::string parent =
        s.parent >= 0 ? all[static_cast<std::size_t>(s.parent)].name : "-";
    ++parents[s.name][parent];
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) {
    const auto& p = parents[name];
    row.parent = std::max_element(p.begin(), p.end(), [](auto& a, auto& b) {
                   return a.second < b.second;
                 })->first;
    out.push_back(row);
  }
  return out;
}

namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

void SpanLog::write_chrome_trace(std::ostream& out) const {
  const std::vector<Span> all = spans();
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_us < s.start_us) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out << (first ? "\n" : ",\n") << "{\"name\":";
    write_json_string(out, s.name);
    out << ",\"cat\":";
    write_json_string(out, layer);
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
