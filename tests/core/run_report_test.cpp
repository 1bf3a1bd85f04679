// RunReport JSON round-trip: write_json followed by parse must
// reproduce every field exactly, including doubles bit-for-bit
// (write_json serializes at max_digits10).

#include "core/run_report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace rabid::core {
namespace {

RunReport sample_report() {
  RunReport r;
  r.design = "ami49 \"two-pin\"\r\x01";  // exercises string escaping
  r.nx = 33;
  r.ny = 31;
  r.nets = 493;
  r.sinks = 1282;
  r.site_supply = 3500;
  r.obs_level = "counters";
  r.threads = 4;

  StageStats s1;
  s1.stage = "1";
  s1.max_wire_congestion = 1.8712345678901234;
  s1.avg_wire_congestion = 0.3333333333333333;
  s1.overflow = 142;
  s1.max_buffer_density = 0.0;
  s1.avg_buffer_density = 0.0;
  s1.buffers = 0;
  s1.failed_nets = 493;
  s1.wirelength_mm = 1234.0625;
  s1.max_delay_ps = 9876.5;
  s1.avg_delay_ps = 321.0078125;
  s1.cpu_s = 0.4443359375;
  s1.threads = 4;
  r.stages.push_back(s1);
  StageStats s4 = s1;
  s4.stage = "4\t\x1f";
  s4.overflow = 0;
  s4.buffers = 2220;
  s4.failed_nets = 0;
  r.stages.push_back(s4);

  r.counters.emplace_back("maze.routes", 1479);
  r.counters.emplace_back("wire.units_committed", 987654321012LL);
  r.counters.emplace_back("dp.cells_infeasible", 0);

  RunReport::HistogramRow h;
  h.name = "maze.pops_per_route";
  h.buckets = {0, 3, 17, 250, 1, 0, 0, 0};
  r.histograms.push_back(h);

  for (std::size_t i = 0; i < UtilizationHistogram::kBuckets; ++i) {
    r.wire_utilization.buckets[i] = static_cast<std::int64_t>(i * i);
    r.wire_utilization.total += static_cast<std::int64_t>(i * i);
  }
  r.wire_utilization.skipped = 12;
  r.wire_utilization.max_utilization = 1.25;
  r.site_utilization.buckets[0] = 900;
  r.site_utilization.total = 900;
  r.site_utilization.max_utilization = 0.046875;

  r.audited = true;
  r.audit_clean = true;
  r.audit_errors = 0;
  r.audit_warnings = 3;
  r.audit_checks = 62225;
  r.audit_nets = 493;
  r.trace_events = 9;
  r.trace_dropped = 0;
  return r;
}

void expect_equal(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.design, b.design);
  EXPECT_EQ(a.nx, b.nx);
  EXPECT_EQ(a.ny, b.ny);
  EXPECT_EQ(a.nets, b.nets);
  EXPECT_EQ(a.sinks, b.sinks);
  EXPECT_EQ(a.site_supply, b.site_supply);
  EXPECT_EQ(a.obs_level, b.obs_level);
  EXPECT_EQ(a.threads, b.threads);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const StageStats& x = a.stages[i];
    const StageStats& y = b.stages[i];
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.max_wire_congestion, y.max_wire_congestion);
    EXPECT_EQ(x.avg_wire_congestion, y.avg_wire_congestion);
    EXPECT_EQ(x.overflow, y.overflow);
    EXPECT_EQ(x.max_buffer_density, y.max_buffer_density);
    EXPECT_EQ(x.avg_buffer_density, y.avg_buffer_density);
    EXPECT_EQ(x.buffers, y.buffers);
    EXPECT_EQ(x.failed_nets, y.failed_nets);
    EXPECT_EQ(x.wirelength_mm, y.wirelength_mm);
    EXPECT_EQ(x.max_delay_ps, y.max_delay_ps);
    EXPECT_EQ(x.avg_delay_ps, y.avg_delay_ps);
    EXPECT_EQ(x.cpu_s, y.cpu_s);
    EXPECT_EQ(x.threads, y.threads);
  }
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i]);
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
    EXPECT_EQ(a.histograms[i].buckets, b.histograms[i].buckets);
  }
  EXPECT_EQ(a.wire_utilization.buckets, b.wire_utilization.buckets);
  EXPECT_EQ(a.wire_utilization.skipped, b.wire_utilization.skipped);
  EXPECT_EQ(a.wire_utilization.total, b.wire_utilization.total);
  EXPECT_EQ(a.wire_utilization.max_utilization,
            b.wire_utilization.max_utilization);
  EXPECT_EQ(a.site_utilization.buckets, b.site_utilization.buckets);
  EXPECT_EQ(a.site_utilization.skipped, b.site_utilization.skipped);
  EXPECT_EQ(a.site_utilization.total, b.site_utilization.total);
  EXPECT_EQ(a.site_utilization.max_utilization,
            b.site_utilization.max_utilization);
  EXPECT_EQ(a.audited, b.audited);
  EXPECT_EQ(a.audit_clean, b.audit_clean);
  EXPECT_EQ(a.audit_errors, b.audit_errors);
  EXPECT_EQ(a.audit_warnings, b.audit_warnings);
  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_EQ(a.audit_nets, b.audit_nets);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.trace_dropped, b.trace_dropped);
}

TEST(RunReport, JsonRoundTripIsExact) {
  const RunReport original = sample_report();
  std::ostringstream out;
  original.write_json(out);
  std::string error;
  const auto parsed = RunReport::parse(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  expect_equal(original, *parsed);
}

TEST(RunReport, RoundTripIsIdempotent) {
  const RunReport original = sample_report();
  std::ostringstream first;
  original.write_json(first);
  const auto parsed = RunReport::parse(first.str());
  ASSERT_TRUE(parsed.has_value());
  std::ostringstream second;
  parsed->write_json(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(RunReport, EmptyReportRoundTrips) {
  const RunReport empty;
  std::ostringstream out;
  empty.write_json(out);
  std::string error;
  const auto parsed = RunReport::parse(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  expect_equal(empty, *parsed);
}

TEST(RunReport, ParseRejectsWrongSchema) {
  std::string error;
  EXPECT_FALSE(RunReport::parse("{}", &error).has_value());
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_FALSE(
      RunReport::parse(R"({"schema": "rabid.run_report.v999"})", &error)
          .has_value());
  EXPECT_FALSE(RunReport::parse("not json at all", &error).has_value());
}

TEST(UtilizationBuckets, FixedWidthWithOverflowBucket) {
  EXPECT_EQ(UtilizationHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(UtilizationHistogram::bucket_of(0.049), 0u);
  EXPECT_EQ(UtilizationHistogram::bucket_of(0.05), 1u);
  EXPECT_EQ(UtilizationHistogram::bucket_of(0.5), 10u);
  EXPECT_EQ(UtilizationHistogram::bucket_of(0.999), 19u);
  EXPECT_EQ(UtilizationHistogram::bucket_of(1.0),
            UtilizationHistogram::kBuckets - 1);
  EXPECT_EQ(UtilizationHistogram::bucket_of(3.7),
            UtilizationHistogram::kBuckets - 1);
  UtilizationHistogram h;
  h.add(0.2);
  h.add(0.21);
  h.add(1.5);
  EXPECT_EQ(h.buckets[4], 2);
  EXPECT_EQ(h.buckets[UtilizationHistogram::kBuckets - 1], 1);
  EXPECT_EQ(h.total, 3);
  EXPECT_DOUBLE_EQ(h.max_utilization, 1.5);
}

}  // namespace
}  // namespace rabid::core
