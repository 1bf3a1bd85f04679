// In-process tests for serve/server.hpp: job lifecycle, admission
// control, duplicate-id rejection, cancellation, deadline enforcement,
// interleaved-response demultiplexing, and the graceful-drain contract
// (an accepted job is never lost).  Everything runs through
// handle_line() with a capturing sink — no sockets, no subprocesses.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "serve/protocol.hpp"

namespace rabid::serve {
namespace {

using obs::json::Value;

/// Thread-safe sink that parses every event line and lets tests block
/// until a job reaches a terminal event.
class CapturingSink {
 public:
  Sink sink() {
    return [this](std::string_view line) { record(line); };
  }

  /// Blocks until `id` has a terminal event (done/rejected/cancelled/
  /// failed); returns it.  Fails the test on timeout.
  Value wait_terminal(const std::string& id,
                      std::chrono::seconds timeout = std::chrono::seconds(60)) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ok = cv_.wait_for(lock, timeout, [&] {
      return terminal_.count(id) > 0;
    });
    EXPECT_TRUE(ok) << "no terminal event for " << id;
    return ok ? terminal_[id] : Value{};
  }

  /// Every event recorded for `id`, in arrival order.
  std::vector<Value> events_of(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Value> out;
    for (const auto& event : events_) {
      const auto* event_id = event.find("id");
      if (event_id != nullptr && event_id->is_string() &&
          event_id->as_string() == id) {
        out.push_back(event);
      }
    }
    return out;
  }

  std::vector<Value> all_events() {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  void record(std::string_view line) {
    std::string error;
    auto value = obs::json::parse(line, &error);
    ASSERT_TRUE(value.has_value())
        << "unparseable event line: " << error << " in " << line;
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(*value);
    const auto* kind = value->find("event");
    const auto* id = value->find("id");
    if (kind != nullptr && id != nullptr && id->is_string()) {
      const std::string& k = kind->as_string();
      if (k == "done" || k == "rejected" || k == "cancelled" ||
          k == "failed") {
        terminal_[id->as_string()] = *value;
        cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Value> events_;
  std::map<std::string, Value> terminal_;
};

std::string plan_line(const std::string& id, const std::string& circuit,
                      const std::string& priority = "normal",
                      const std::string& extra = "") {
  return R"({"type":"plan","id":")" + id + R"(","circuit":")" + circuit +
         R"(","priority":")" + priority + "\"" + extra + "}";
}

TEST(ServerTest, LifecycleQueuedStartedDone) {
  ServerOptions options;
  options.workers = 2;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  server.handle_line(plan_line("j1", "apte", "high"), sink.sink());

  Value done = sink.wait_terminal("j1");
  ASSERT_EQ(done.find("event")->as_string(), "done");
  EXPECT_EQ(done.find("verdict")->as_string(), "ok");
  EXPECT_GE(done.find("elapsed_ms")->as_number(), 0.0);

  // The embedded report is the real RunReport, compact, schema-tagged.
  const auto* report = done.find("report");
  ASSERT_NE(report, nullptr);
  ASSERT_TRUE(report->is_object());
  EXPECT_EQ(report->find("schema")->as_string(), "rabid.run_report.v1");
  EXPECT_EQ(report->find("verdict")->as_string(), "ok");

  // Full lifecycle, in order: queued -> started -> done.
  auto events = sink.events_of("j1");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].find("event")->as_string(), "queued");
  EXPECT_EQ(events[0].find("priority")->as_string(), "high");
  EXPECT_EQ(events[1].find("event")->as_string(), "started");
  EXPECT_EQ(events[2].find("event")->as_string(), "done");
}

TEST(ServerTest, UnknownCircuitRejectedStructured) {
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server{ServerOptions{}};
  server.handle_line(plan_line("bad", "not-a-circuit"), sink.sink());
  Value event = sink.wait_terminal("bad");
  ASSERT_EQ(event.find("event")->as_string(), "rejected");
  const auto* error = event.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), "invalid-input");
}

TEST(ServerTest, MalformedLineEmitsErrorEvent) {
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server{ServerOptions{}};
  server.handle_line("this is not json", sink.sink());
  auto events = sink.all_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("event")->as_string(), "error");
  EXPECT_EQ(events[0].find("error")->find("code")->as_string(),
            "invalid-input");
}

TEST(ServerTest, DuplicateIdRejectedWhileFirstInFlight) {
  ServerOptions options;
  options.workers = 1;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  server.handle_line(plan_line("dup", "apte"), sink.sink());
  server.handle_line(plan_line("dup", "xerox"), sink.sink());

  // One of the two must be rejected with duplicate-id; exactly one runs.
  bool saw_duplicate = false;
  for (int i = 0; i < 2 && !saw_duplicate; ++i) {
    for (const auto& event : sink.events_of("dup")) {
      const auto* error = event.find("error");
      if (error != nullptr &&
          error->find("code")->as_string() == "duplicate-id") {
        saw_duplicate = true;
      }
    }
    if (!saw_duplicate) sink.wait_terminal("dup");
  }
  EXPECT_TRUE(saw_duplicate);
}

TEST(ServerTest, OverloadRejectsWithStructuredError) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  // Worker busy with the first job, channel holds one more; the rest of
  // the flood must be answered with "overloaded", never dropped.
  constexpr int kFlood = 8;
  for (int i = 0; i < kFlood; ++i) {
    server.handle_line(plan_line("f" + std::to_string(i), "apte", "low"),
                       sink.sink());
  }
  int done = 0, overloaded = 0;
  for (int i = 0; i < kFlood; ++i) {
    Value event = sink.wait_terminal("f" + std::to_string(i));
    const std::string kind = event.find("event")->as_string();
    if (kind == "done") {
      ++done;
    } else {
      ASSERT_EQ(kind, "rejected");
      EXPECT_EQ(event.find("error")->find("code")->as_string(), "overloaded");
      ++overloaded;
    }
  }
  EXPECT_GE(done, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(done + overloaded, kFlood);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, done);
  EXPECT_EQ(stats.rejected, overloaded);
}

TEST(ServerTest, DeadlineJobReportsTimedOut) {
  ServerOptions options;
  options.workers = 1;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  server.handle_line(
      plan_line("slow", "playout", "normal", R"(,"deadline_ms":1)"),
      sink.sink());
  Value done = sink.wait_terminal("slow");
  ASSERT_EQ(done.find("event")->as_string(), "done");
  EXPECT_EQ(done.find("verdict")->as_string(), "timed_out");
  EXPECT_EQ(done.find("report")->find("verdict")->as_string(), "timed_out");
  EXPECT_EQ(server.stats().timed_out, 1);
}

// The protocol accepts any finite deadline, and an uncapped server
// passes it through: a budget past the clock's range must mean "no
// deadline", not one that expired before the run began.
TEST(ServerTest, HugeDeadlineJobFinishesDone) {
  ServerOptions options;
  options.workers = 1;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  server.handle_line(
      plan_line("patient", "apte", "normal", R"(,"deadline_ms":1e13)"),
      sink.sink());
  Value done = sink.wait_terminal("patient");
  ASSERT_EQ(done.find("event")->as_string(), "done");
  EXPECT_EQ(done.find("verdict")->as_string(), "ok");
  EXPECT_EQ(server.stats().timed_out, 0);
}

TEST(ServerTest, MaxDeadlineClampsGreedyJobs) {
  ServerOptions options;
  options.workers = 1;
  options.max_deadline_ms = 1.0;  // everything times out instantly
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  server.handle_line(
      plan_line("greedy", "playout", "normal", R"(,"deadline_ms":1e9)"),
      sink.sink());
  Value done = sink.wait_terminal("greedy");
  ASSERT_EQ(done.find("event")->as_string(), "done");
  EXPECT_EQ(done.find("verdict")->as_string(), "timed_out");
}

TEST(ServerTest, CancelQueuedJob) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  // Occupy the single worker, then queue a victim and cancel it.
  server.handle_line(plan_line("busy", "ami49"), sink.sink());
  server.handle_line(plan_line("victim", "apte", "low"), sink.sink());
  server.handle_line(R"({"type":"cancel","id":"victim"})", sink.sink());

  Value victim = sink.wait_terminal("victim");
  const std::string kind = victim.find("event")->as_string();
  // Cancelled while queued is the expected path; "done" is acceptable
  // only if the worker won the race, and a structured rejection only if
  // it was already running.
  EXPECT_TRUE(kind == "cancelled" || kind == "done" || kind == "rejected")
      << kind;
  sink.wait_terminal("busy");
  if (kind == "cancelled") {
    EXPECT_EQ(server.stats().cancelled, 1);
  }
}

TEST(ServerTest, CancelUnknownJobRejected) {
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server{ServerOptions{}};
  server.handle_line(R"({"type":"cancel","id":"ghost"})", sink.sink());
  Value event = sink.wait_terminal("ghost");
  EXPECT_EQ(event.find("event")->as_string(), "rejected");
  EXPECT_EQ(event.find("error")->find("code")->as_string(), "invalid-input");
}

TEST(ServerTest, InterleavedResponsesDemuxById) {
  ServerOptions options;
  options.workers = 4;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  // Many concurrent jobs over one sink: their events interleave freely,
  // but each id must still see its own complete, ordered lifecycle.
  const std::vector<std::string> circuits = {"apte", "xerox", "hp"};
  constexpr int kJobs = 12;
  for (int i = 0; i < kJobs; ++i) {
    server.handle_line(plan_line("mix-" + std::to_string(i),
                                 circuits[i % circuits.size()],
                                 i % 2 == 0 ? "high" : "low"),
                       sink.sink());
  }
  for (int i = 0; i < kJobs; ++i) {
    const std::string id = "mix-" + std::to_string(i);
    Value done = sink.wait_terminal(id);
    ASSERT_EQ(done.find("event")->as_string(), "done") << id;
    auto events = sink.events_of(id);
    ASSERT_EQ(events.size(), 3u) << id;
    EXPECT_EQ(events[0].find("event")->as_string(), "queued") << id;
    EXPECT_EQ(events[1].find("event")->as_string(), "started") << id;
    EXPECT_EQ(events[2].find("event")->as_string(), "done") << id;
  }
}

TEST(ServerTest, InlineDesignPlansEndToEnd) {
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server{ServerOptions{}};
  // A tiny hand-written design in the netlist text format, shipped
  // inline with explicit grid and sites (required for inline designs).
  const std::string design_text =
      "design inline_test\\n"
      "outline 0 0 100 100\\n"
      "length_limit 4\\n"
      "net n1\\n"
      "  source 10 10 free\\n"
      "  sink 90 90 free\\n"
      "end\\n";
  server.handle_line(
      R"({"type":"plan","id":"inline","design":")" + design_text +
          R"(","grid":[4,4],"sites":64})",
      sink.sink());
  Value event = sink.wait_terminal("inline");
  ASSERT_EQ(event.find("event")->as_string(), "done")
      << obs::json::dump(event);
  EXPECT_EQ(event.find("report")->find("schema")->as_string(),
            "rabid.run_report.v1");
}

TEST(ServerTest, StatsAndPing) {
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server{ServerOptions{}};
  server.handle_line(R"({"type":"ping"})", sink.sink());
  server.handle_line(plan_line("s1", "apte"), sink.sink());
  sink.wait_terminal("s1");
  server.handle_line(R"({"type":"stats"})", sink.sink());

  bool saw_pong = false, saw_stats = false;
  for (const auto& event : sink.all_events()) {
    const std::string kind = event.find("event")->as_string();
    if (kind == "pong") saw_pong = true;
    if (kind == "stats") {
      saw_stats = true;
      EXPECT_EQ(event.find("accepted")->as_int(), 1);
      EXPECT_EQ(event.find("completed")->as_int(), 1);
      EXPECT_FALSE(event.find("draining")->as_bool());
    }
  }
  EXPECT_TRUE(saw_pong);
  EXPECT_TRUE(saw_stats);
}

TEST(ServerTest, DrainCompletesAcceptedJobsRejectsNew) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  constexpr int kJobs = 4;
  for (int i = 0; i < kJobs; ++i) {
    server.handle_line(plan_line("d" + std::to_string(i), "apte"),
                       sink.sink());
  }
  server.begin_drain();
  // Late arrival: structured "draining" rejection, not silence.
  server.handle_line(plan_line("late", "apte"), sink.sink());
  Value late = sink.wait_terminal("late");
  ASSERT_EQ(late.find("event")->as_string(), "rejected");
  EXPECT_EQ(late.find("error")->find("code")->as_string(), "draining");

  server.drain_and_join();
  // Every accepted job reached done — none were lost by the shutdown.
  for (int i = 0; i < kJobs; ++i) {
    auto events = sink.events_of("d" + std::to_string(i));
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().find("event")->as_string(), "done")
        << "d" << i << " lost by drain";
  }
  // Counter consistency: after a full drain every accepted job is
  // accounted for exactly once across the terminal counters.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kJobs);
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.timed_out + stats.cancelled +
                stats.failed);
  EXPECT_TRUE(server.draining());
}

/// The satellite-3 regression: cancelling queued jobs while the server
/// drains must count each job exactly once — either it completes (it
/// was popped first) or it is cancelled (it was extracted first), never
/// both, and never cancelled + rejected.  The old flag-based cancel had
/// a window where a job could land in both serve.cancelled and the
/// drained: rejection tally.
TEST(ServerTest, CancelDuringDrainCountsExactlyOnce) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  // Occupy the single worker so the victims stay queued.
  server.handle_line(plan_line("busy", "ami49"), sink.sink());
  constexpr int kVictims = 4;
  for (int i = 0; i < kVictims; ++i) {
    server.handle_line(plan_line("v" + std::to_string(i), "apte", "low"),
                       sink.sink());
  }
  server.begin_drain();
  for (int i = 0; i < kVictims; ++i) {
    server.handle_line(
        R"({"type":"cancel","id":"v)" + std::to_string(i) + R"("})",
        sink.sink());
  }
  server.drain_and_join();

  // Each victim reached exactly one of done/cancelled — extraction and
  // drain hand-off are mutually exclusive.
  int done = 0, cancelled = 0;
  for (int i = 0; i < kVictims; ++i) {
    int terminals = 0;
    for (const auto& event : sink.events_of("v" + std::to_string(i))) {
      const std::string kind = event.find("event")->as_string();
      if (kind == "done") { ++done; ++terminals; }
      if (kind == "cancelled") { ++cancelled; ++terminals; }
    }
    EXPECT_EQ(terminals, 1) << "v" << i;
  }
  EXPECT_EQ(done + cancelled, kVictims);

  // Counter consistency: accepted == sum of terminal outcomes, with the
  // cancellations visible exactly once.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kVictims + 1);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.timed_out + stats.cancelled +
                stats.failed);
}

TEST(ServerTest, StreamJobEmitsPerNetLifecycle) {
  ServerOptions options;
  options.workers = 1;
  CapturingSink sink;  // outlives the server: events arrive until drain ends
  Server server(options);
  server.handle_line(
      R"({"type":"stream","id":"s1","circuit":"apte","audit":true})",
      sink.sink());

  Value done = sink.wait_terminal("s1");
  ASSERT_EQ(done.find("event")->as_string(), "done");
  EXPECT_EQ(done.find("verdict")->as_string(), "ok");
  const auto* report = done.find("report");
  ASSERT_NE(report, nullptr);
  ASSERT_TRUE(report->is_object());
  EXPECT_EQ(report->find("schema")->as_string(), "rabid.stream_report.v1");
  const std::int64_t nets = report->find("nets")->as_int();
  ASSERT_GT(nets, 0);
  EXPECT_EQ(report->find("admitted")->as_int(), nets);
  EXPECT_EQ(report->find("invalid")->as_int(), 0);
  EXPECT_TRUE(report->find("audit_clean")->as_bool());

  // Zero lost, zero duplicated: every net has exactly one admitted
  // event and ends in exactly one steady state.
  std::map<std::int64_t, std::vector<std::string>> per_net;
  for (const Value& event : sink.events_of("s1")) {
    if (event.find("event")->as_string() == "stream_net") {
      per_net[event.find("net")->as_int()].push_back(
          event.find("state")->as_string());
    }
  }
  EXPECT_EQ(per_net.size(), static_cast<std::size_t>(nets));
  std::int64_t planned = 0, parked = 0;
  for (const auto& [net, states] : per_net) {
    EXPECT_EQ(std::count(states.begin(), states.end(), "admitted"), 1)
        << "net " << net;
    ASSERT_FALSE(states.empty());
    EXPECT_EQ(states.front(), "admitted") << "net " << net;
    const std::string& last = states.back();
    EXPECT_TRUE(last == "planned" || last == "parked") << "net " << net;
    ++(last == "planned" ? planned : parked);
  }
  EXPECT_EQ(planned, report->find("planned")->as_int());
  EXPECT_EQ(parked, report->find("parked")->as_int());
}

TEST(ServerTest, StreamJobWithDeadlineRejectedAtParse) {
  CapturingSink sink;
  Server server{ServerOptions{}};
  server.handle_line(
      R"({"type":"stream","id":"sd","circuit":"apte","deadline_ms":50})",
      sink.sink());
  // Parse-level rejection: an id-less structured error event.
  bool saw_error = false;
  for (const Value& event : sink.all_events()) {
    if (event.find("event")->as_string() == "error") saw_error = true;
  }
  EXPECT_TRUE(saw_error);
}

TEST(ServerTest, DestructorDrains) {
  CapturingSink sink;
  {
    ServerOptions options;
    options.workers = 2;
    Server server(options);
    for (int i = 0; i < 3; ++i) {
      server.handle_line(plan_line("x" + std::to_string(i), "apte"),
                         sink.sink());
    }
    // ~Server must complete the backlog before returning.
  }
  for (int i = 0; i < 3; ++i) {
    auto events = sink.events_of("x" + std::to_string(i));
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().find("event")->as_string(), "done");
  }
}

}  // namespace
}  // namespace rabid::serve
