// TraceWriter well-formedness: what write_json emits must parse back
// (with the in-tree obs::json parser) as valid chrome-trace JSON with
// the events, metadata, and fields Perfetto expects.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace rabid::obs {
namespace {

json::Value parse_trace(const TraceWriter& writer) {
  std::ostringstream out;
  writer.write_json(out);
  std::string error;
  const auto doc = json::parse(out.str(), &error);
  EXPECT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(doc->is_object());
  return doc.value_or(json::Value{});
}

TEST(TraceWriter, DisabledRecordsNoEvents) {
  TraceWriter writer;
  writer.complete("ignored", "test", 0.0, 1.0);
  writer.instant("also ignored", "test");
  EXPECT_EQ(writer.event_count(), 0u);
  const json::Value doc = parse_trace(writer);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Only (possibly zero) metadata events — no X/i records.
  for (const json::Value& e : events->items) {
    EXPECT_EQ(e.find("ph")->as_string(), "M");
  }
}

TEST(TraceWriter, CompleteEventsSerializeWellFormed) {
  TraceWriter writer;
  writer.set_enabled(true);
  writer.set_thread_name("main");
  writer.complete("stage1", "stage", 10.0, 250.0);
  writer.complete("stage2", "stage", 260.0, 40.0);
  writer.instant("milestone", "flow");
  EXPECT_EQ(writer.event_count(), 3u);

  const json::Value doc = parse_trace(writer);
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t complete = 0, instant = 0, metadata = 0;
  for (const json::Value& e : events->items) {
    ASSERT_TRUE(e.is_object());
    // Every event carries the Trace Event Format required fields.
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.find("dur")->as_number(), 0.0);
      EXPECT_GE(e.find("ts")->as_number(), 0.0);
      EXPECT_EQ(e.find("cat")->as_string(), "stage");
    } else if (ph == "i") {
      ++instant;
    } else if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.find("name")->as_string(), "thread_name");
      EXPECT_EQ(e.find("args")->find("name")->as_string(), "main");
    }
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instant, 1u);
  EXPECT_EQ(metadata, 1u);
}

TEST(TraceWriter, EscapesHostileNames) {
  TraceWriter writer;
  writer.set_enabled(true);
  const std::string name = "quote\" back\\slash\nnewline\ttab\rcr\x01 ctl";
  writer.complete(name, "cat", 0.0, 1.0);
  const json::Value doc = parse_trace(writer);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 1u);
  EXPECT_EQ(events->items[0].find("name")->as_string(), name);
}

TEST(TraceWriter, ThreadsGetDistinctTracks) {
  TraceWriter writer;
  writer.set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&writer, t] {
      writer.set_thread_name("worker-" + std::to_string(t));
      writer.complete("work", "test", 0.0, 1.0);
    });
  }
  for (std::thread& t : threads) t.join();

  const json::Value doc = parse_trace(writer);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::int64_t> event_tids, named_tids;
  for (const json::Value& e : events->items) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "X") event_tids.insert(e.find("tid")->as_int());
    if (ph == "M") named_tids.insert(e.find("tid")->as_int());
  }
  EXPECT_EQ(event_tids.size(), kThreads);
  // Every track with events also carries a thread_name record.
  for (const std::int64_t tid : event_tids) {
    EXPECT_TRUE(named_tids.count(tid) > 0) << "unnamed tid " << tid;
  }
}

TEST(TraceWriter, ClearDropsEventsAndRestartsEpoch) {
  TraceWriter writer;
  writer.set_enabled(true);
  writer.complete("before", "test", 0.0, 1.0);
  ASSERT_EQ(writer.event_count(), 1u);
  writer.clear();
  EXPECT_EQ(writer.event_count(), 0u);
  EXPECT_EQ(writer.dropped_count(), 0u);
  writer.complete("after", "test", writer.now_us(), 1.0);
  EXPECT_EQ(writer.event_count(), 1u);
}

TEST(ScopedTimer, RecordsOnlyWhenTracing) {
  Registry& registry = Registry::instance();
  registry.set_level(Level::kOff);
  registry.reset();
  { ScopedTimer t("not traced", "test"); }
  EXPECT_EQ(registry.trace().event_count(), 0u);

  registry.set_level(Level::kTrace);
  { ScopedTimer t("traced", "test"); }
  EXPECT_EQ(registry.trace().event_count(), 1u);
  const json::Value doc = parse_trace(registry.trace());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const json::Value& e : events->items) {
    if (e.find("ph")->as_string() == "X") {
      EXPECT_EQ(e.find("name")->as_string(), "traced");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  registry.set_level(Level::kOff);
  registry.reset();
}

}  // namespace
}  // namespace rabid::obs
