// serve: an in-process serve::Server behind a loopback TcpTransport, in
// a closed loop.  max(1, nproc/2) client connections, one thread each,
// and as many server workers, so the busy threads stay within nproc.
// Every client walks the fixed job mix below in an order drawn from the
// seed, keeping one job in flight; every job asks for "audit":true.
// Job time runs from submit to the client receiving "done".

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/run_report.hpp"
#include "core/validate.hpp"
#include "netlist/io.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "plan.hpp"
#include "seeds.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rabid;
namespace json = obs::json;

/// Set-up rounds; the first kWarmupRounds are not timed.
constexpr int kSetupRounds = 36;
constexpr int kWarmupRounds = 5;
/// A job that has not finished after this long counts as failed.
constexpr int kJobTimeoutS = 60;

enum class Kind { kNamed, kInline, kMcf, kStream };
const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kNamed: return "named";
    case Kind::kInline: return "inline";
    case Kind::kMcf: return "mcf";
    case Kind::kStream: return "stream";
  }
  return "?";
}

/// The job mix: one entry per job of a cycle.
struct MixEntry {
  Kind kind;
  std::string_view circuit;
};
constexpr MixEntry kMix[] = {
    {Kind::kNamed, "apte"},  {Kind::kNamed, "xerox"}, {Kind::kNamed, "hp"},
    {Kind::kNamed, "ami33"}, {Kind::kNamed, "ami49"}, {Kind::kInline, "apte"},
    {Kind::kInline, "hp"},   {Kind::kMcf, "apte"},    {Kind::kMcf, "hp"},
    {Kind::kStream, "apte"},
};
constexpr std::size_t kMixSize = std::size(kMix);

/// A ready-to-send request: the line is head + id + tail.
struct Request {
  Kind kind;
  std::string label;
  std::string head;
  std::string tail;
  std::int64_t nets = 0;
};

/// One job as the client saw it.
struct JobRecord {
  std::size_t mix = 0;
  Clock::time_point submit, started, done;
  bool ok = false;
  bool connection_lost = false;
  std::string problem;
  std::size_t done_bytes = 0;
  bool counted = false;  ///< submitted while the registry was counting
  // plan jobs
  std::optional<Quality> quality;
  std::array<double, 4> stage_ms{};
  double elapsed_ms = 0.0;
  // stream jobs
  std::int64_t stream_events = 0;
  std::int64_t admitted = 0, parked = 0, retried = 0;
};

/// Blocking NDJSON client socket with a receive timeout.
class ClientSocket {
 public:
  explicit ClientSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{kJobTimeoutS, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ClientSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool send_line(std::string line) {
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One full line, or nullopt on EOF, error or timeout.
  std::optional<std::string> recv_line() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Server, transport, acceptor thread and client connections.
struct Harness {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::TcpTransport> transport;
  std::thread acceptor;
  std::vector<std::unique_ptr<ClientSocket>> clients;

  bool start(int workers, int connections) {
    serve::ServerOptions options;
    options.workers = workers;
    options.queue_capacity = 64;
    // The benchmark switches the registry level itself (traced runs
    // count during their second half only).
    options.obs_level = obs::Level::kOff;
    server = std::make_unique<serve::Server>(options);
    core::Status status;
    transport = std::make_unique<serve::TcpTransport>(*server, 0, &status);
    if (!status.ok_status()) {
      transport.reset();
      return false;
    }
    acceptor = std::thread([t = transport.get()] { t->accept_loop(); });
    for (int c = 0; c < connections; ++c) {
      clients.push_back(std::make_unique<ClientSocket>(transport->port()));
      if (!clients.back()->connected()) return false;
    }
    return true;
  }

  /// Closes the clients, drains the server and joins every thread.
  void stop() {
    clients.clear();
    if (transport) {
      transport->stop_accepting();
      if (acceptor.joinable()) acceptor.join();
    }
    if (server) {
      server->begin_drain();
      server->drain_and_join();
    }
    if (transport) transport->close_connections();
    transport.reset();
    server.reset();
  }
};

std::vector<Request> build_requests(double* generate_ms, double* tile_ms,
                                    Result& result) {
  std::vector<Request> out;
  *generate_ms = 0.0;
  *tile_ms = 0.0;
  for (const MixEntry& entry : kMix) {
    const circuits::CircuitSpec& base = circuits::spec_by_name(entry.circuit);
    Request r;
    r.kind = entry.kind;
    r.nets = base.nets;
    r.label = std::string(kind_name(entry.kind)) + ":" +
              std::string(entry.circuit);
    switch (entry.kind) {
      case Kind::kNamed:
      case Kind::kMcf:
      case Kind::kStream: {
        r.head = entry.kind == Kind::kStream ? R"({"type":"stream","id":")"
                                             : R"({"type":"plan","id":")";
        r.tail = R"(","circuit":")" + std::string(entry.circuit) + "\"";
        if (entry.kind == Kind::kMcf) r.tail += R"(,"backend":"mcf")";
        r.tail += R"(,"audit":true})";
        break;
      }
      case Kind::kInline: {
        // An inline design goes through the server's checked parser on
        // every job; the client checks that it tiles before sending.
        auto t0 = Clock::now();
        const netlist::Design design = circuits::generate_design(base);
        const std::string text = netlist::to_string(design);
        *generate_ms += ms_since(t0);
        t0 = Clock::now();
        circuits::CircuitSpec tiling;
        tiling.name = base.name;
        tiling.grid_x = base.grid_x;
        tiling.grid_y = base.grid_y;
        tiling.buffer_sites = base.buffer_sites;
        circuits::TilingOptions topt;
        topt.nx = base.grid_x;
        topt.ny = base.grid_y;
        topt.buffer_sites = base.buffer_sites;
        topt.blocked_span = 0;
        const tile::TileGraph graph =
            circuits::build_tile_graph(design, tiling, topt);
        const core::Status valid = core::validate_inputs(design, graph);
        *tile_ms += ms_since(t0);
        result.check(valid.ok_status(), r.label + ": " + valid.to_string());
        r.head = R"({"type":"plan","id":")";
        r.tail = R"(","design":)";
        json::append_escaped(r.tail, text);
        r.tail += format(R"(,"grid":[%d,%d],"sites":%d,"audit":true})",
                         base.grid_x, base.grid_y, base.buffer_sites);
        break;
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Reads a plan job's done report into the record; false with a reason
/// when the job did not produce an audit-clean, complete plan.
bool read_plan_report(const json::Value& report, JobRecord& rec) {
  std::string error;
  const std::optional<core::RunReport> parsed =
      core::RunReport::parse(json::dump(report), &error);
  if (!parsed) {
    rec.problem = "unreadable report: " + error;
    return false;
  }
  if (parsed->verdict != "ok" || !parsed->audited || !parsed->audit_clean ||
      parsed->stages.empty()) {
    rec.problem = format("verdict %s, audited %d, %lld audit errors",
                         parsed->verdict.c_str(), parsed->audited ? 1 : 0,
                         static_cast<long long>(parsed->audit_errors));
    return false;
  }
  Quality q;
  q.add(parsed->stages.back());
  rec.quality = q;
  for (const core::StageStats& row : parsed->stages) {
    if (row.stage.size() == 1 && row.stage[0] >= '1' && row.stage[0] <= '4') {
      rec.stage_ms[static_cast<std::size_t>(row.stage[0] - '1')] +=
          row.cpu_s * 1000.0;
    }
  }
  return true;
}

bool read_stream_report(const json::Value& report, JobRecord& rec) {
  const auto num = [&](const char* key) -> std::int64_t {
    const json::Value* v = report.find(key);
    return v != nullptr && v->is_number() ? v->as_int() : 0;
  };
  rec.admitted = num("admitted");
  rec.parked = num("parked");
  rec.retried = num("retried");
  const json::Value* verdict = report.find("verdict");
  const json::Value* clean = report.find("audit_clean");
  const bool ok = verdict != nullptr && verdict->is_string() &&
                  verdict->as_string() == "ok" && clean != nullptr &&
                  clean->is_bool() && clean->as_bool() && num("invalid") == 0;
  if (!ok) rec.problem = "stream report: " + json::dump(report);
  return ok;
}

/// Submits one job and waits for its terminal event.
JobRecord run_job(ClientSocket& socket, const Request& request,
                  const std::string& id) {
  JobRecord rec;
  rec.submit = Clock::now();
  rec.started = rec.submit;
  if (!socket.send_line(request.head + id + request.tail)) {
    rec.problem = "send failed";
    rec.connection_lost = true;
    return rec;
  }
  while (true) {
    std::optional<std::string> line = socket.recv_line();
    if (!line) {
      rec.problem = "connection closed or job timed out";
      rec.connection_lost = true;
      return rec;
    }
    const Clock::time_point now = Clock::now();
    if (line->find("\"event\":\"stream_net\"") != std::string::npos) {
      ++rec.stream_events;
      continue;
    }
    std::string error;
    const std::optional<json::Value> event = json::parse(*line, &error);
    const json::Value* name = event ? event->find("event") : nullptr;
    if (name == nullptr || !name->is_string()) {
      rec.problem = "malformed event: " + error;
      return rec;
    }
    const std::string& kind = name->as_string();
    if (kind == "queued") continue;
    if (kind == "started") {
      rec.started = now;
      continue;
    }
    if (kind != "done") {
      rec.done = now;
      rec.problem = "job " + kind + ": " + *line;
      return rec;
    }
    rec.done = now;
    rec.done_bytes = line->size();
    const json::Value* elapsed = event->find("elapsed_ms");
    rec.elapsed_ms =
        elapsed != nullptr && elapsed->is_number() ? elapsed->as_number() : 0;
    const json::Value* report = event->find("report");
    if (report == nullptr || !report->is_object()) {
      rec.problem = "done event without a report";
      return rec;
    }
    rec.ok = request.kind == Kind::kStream ? read_stream_report(*report, rec)
                                           : read_plan_report(*report, rec);
    return rec;
  }
}

}  // namespace

Result run_serve(const Config& cfg) {
  Result result;
  SpanLog spans(cfg.trace);
  obs::Registry& registry = obs::Registry::instance();
  registry.set_level(obs::Level::kOff);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int connections = static_cast<int>(std::max(1u, hw / 2));

  // Set-up, repeated: build the request lines (inline designs generated,
  // serialized and checked), start the server and connect the clients.
  std::vector<Request> requests;
  Harness harness;
  std::vector<double> setup_s, generate_ms, tile_ms;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (round > 0) harness.stop();
    harness = Harness{};
    SpanScope setup(spans, "bench.setup");
    const auto t0 = Clock::now();
    double g = 0.0, t = 0.0;
    {
      SpanScope s(spans, "circuits.inline_designs", setup.id());
      requests = build_requests(&g, &t, result);
    }
    bool started = false;
    {
      SpanScope s(spans, "serve.start", setup.id());
      started = harness.start(connections, connections);
    }
    if (round >= kWarmupRounds) {
      setup_s.push_back(seconds_since(t0));
      generate_ms.push_back(g);
      tile_ms.push_back(t);
    }
    if (!started) {
      harness.stop();
      result.check(false, "could not start the loopback server");
      return result;
    }
  }

  // Closed loop until the window closes; a traced run counts during its
  // second half only, so the halves give obs.overhead_pct.
  std::vector<std::vector<JobRecord>> records(
      static_cast<std::size_t>(connections));
  std::atomic<bool> counting{false};
  obs::Snapshot at_switch, at_end;
  std::mutex switch_mu;
  const auto start = Clock::now();
  const double start_us = spans.now_us();
  const auto at = [&](Clock::time_point tp) {
    return start_us +
           std::chrono::duration<double, std::micro>(tp - start).count();
  };
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  const auto switch_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds / 2));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClientSocket& socket = *harness.clients[static_cast<std::size_t>(c)];
      std::vector<JobRecord>& mine = records[static_cast<std::size_t>(c)];
      for (std::uint64_t cycle = 0; Clock::now() < deadline; ++cycle) {
        const std::vector<std::size_t> order = seeded_order(
            kMixSize, derive_seed(cfg.seed, cycle * 1024 + c));
        for (std::size_t k = 0; k < kMixSize && Clock::now() < deadline;
             ++k) {
          if (cfg.trace && !counting.load() && Clock::now() >= switch_at) {
            std::lock_guard<std::mutex> lock(switch_mu);
            if (!counting.load()) {
              registry.set_level(obs::Level::kCounters);
              at_switch = registry.snapshot();
              counting.store(true);
            }
          }
          const std::size_t m = order[k];
          const std::string id = format("c%d-%llu-%zu", c,
                                        static_cast<unsigned long long>(cycle),
                                        k);
          JobRecord rec = run_job(socket, requests[m], id);
          rec.mix = m;
          rec.counted = counting.load();
          const auto trace_id = (static_cast<std::uint64_t>(c) << 32) |
                                static_cast<std::uint64_t>(mine.size());
          const int job = spans.add("serve.job", -1, at(rec.submit),
                                    at(rec.done), trace_id);
          spans.add("serve.queue", job, at(rec.submit), at(rec.started),
                    trace_id);
          spans.add(std::string("serve.run.") + kind_name(requests[m].kind),
                    job, at(rec.started), at(rec.done), trace_id);
          const bool lost = rec.connection_lost;
          mine.push_back(std::move(rec));
          if (lost) return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = seconds_since(start);
  if (cfg.trace) at_end = registry.snapshot();
  registry.set_level(obs::Level::kOff);
  harness.stop();

  // Tally.  Per-layer sums cover the jobs completed while counting.
  std::vector<double> job_ms, queue_ms, run_ms, counted_job_ms,
      uncounted_job_ms;
  std::map<Kind, std::vector<double>> run_ms_by_kind;
  std::vector<std::optional<Quality>> quality(kMixSize);
  double nets_done = 0.0, done_bytes = 0.0;
  std::int64_t jobs_done = 0, counted_jobs = 0, mcf_counted = 0,
               stream_jobs = 0, admitted = 0, parked = 0, retried = 0;
  LayerSums layers;
  for (const std::vector<JobRecord>& mine : records) {
    for (const JobRecord& rec : mine) {
      const Request& request = requests[rec.mix];
      ++result.attempted;
      if (!rec.ok) {
        ++result.failed;
        result.check(false, request.label + ": " + rec.problem);
        continue;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(rec.done - rec.submit)
              .count();
      const double q_ms =
          std::chrono::duration<double, std::milli>(rec.started - rec.submit)
              .count();
      job_ms.push_back(ms);
      queue_ms.push_back(q_ms);
      run_ms.push_back(ms - q_ms);
      run_ms_by_kind[request.kind].push_back(ms - q_ms);
      (rec.counted ? counted_job_ms : uncounted_job_ms).push_back(ms);
      nets_done += static_cast<double>(request.nets);
      ++jobs_done;
      done_bytes += static_cast<double>(rec.done_bytes);
      if (rec.counted) {
        ++counted_jobs;
        if (request.kind == Kind::kMcf) ++mcf_counted;
        if (request.kind == Kind::kNamed || request.kind == Kind::kInline) {
          double stages = 0.0;
          for (std::size_t k = 0; k < 4; ++k) {
            layers.stage_ms[k] += rec.stage_ms[k];
            stages += rec.stage_ms[k];
          }
          layers.audit_ms += rec.elapsed_ms - stages;
        }
      }
      if (request.kind == Kind::kStream) {
        ++stream_jobs;
        admitted += rec.admitted;
        parked += rec.parked;
        retried += rec.retried;
        result.check(rec.stream_events >= rec.admitted,
                     request.label + ": fewer stream_net events than nets");
        continue;
      }
      std::optional<Quality>& q = quality[rec.mix];
      if (!q) {
        q = rec.quality;
      } else {
        result.check(*q == *rec.quality,
                     request.label + ": two runs of one job differ");
      }
    }
  }
  result.check(jobs_done > 0, "no job completed");
  Quality total;
  for (std::size_t m = 0; m < kMixSize; ++m) {
    if (kMix[m].kind == Kind::kStream) continue;
    result.check(quality[m].has_value(),
                 requests[m].label + " never completed");
    if (quality[m]) total += *quality[m];
  }
  if (quality[0]) {
    Quality apte = *quality[0];
    apte.wirelength_mm = 0.0;
    result.check(apte == Quality{483, 6, 0, 0.0},
                 "served apte plan differs from the suite's golden");
  }

  // ops_per_s is the daemon's throughput as the clients see it;
  // plan_nets_per_s is the planning speed inside it, per second of job
  // run time (started to done), without queue wait or the request trip.
  double run_total_s = 0.0;
  for (double ms : run_ms) run_total_s += ms / 1000.0;
  auto& v = result.values;
  v["setup_s"] = median(setup_s);
  v["plan_nets_per_s"] = run_total_s > 0 ? nets_done / run_total_s : 0.0;
  v["op_ms_p50"] = percentile(job_ms, 0.5);
  v["op_ms_p90"] = percentile(job_ms, 0.9);
  v["ops_per_s"] = static_cast<double>(jobs_done) / wall_s;
  v["peak_rss_mb"] = peak_rss_mb();
  v["buffers"] = static_cast<double>(total.buffers);
  v["length_fails"] = static_cast<double>(total.length_fails);
  v["wirelength_mm"] = total.wirelength_mm;

  if (cfg.trace) {
    using obs::Counter;
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    for (std::size_t c = 0; c < layers.counters.size(); ++c) {
      layers.counters[c] = at_end.counters[c] - at_switch.counters[c];
    }
    // Only stage 4 runs the two-path search here; maze pops also come
    // from stream and mcf jobs, so stage 2 has no pop count of its own.
    layers.stage4_twopath_pops = layers[Counter::kTwoPathHeapPops];
    layers.emit(static_cast<double>(std::max<std::int64_t>(counted_jobs, 1)),
                result);
    result.not_applicable["core.plan_unattributed_pct"] =
        "stage times come from the jobs' reports, not from spans";
    v.erase("route.maze_ns_per_pop");
    result.not_applicable["route.maze_ns_per_pop"] =
        "the process-wide pop count mixes stage 2 with stream and mcf jobs";
    v["circuits.generate_ms"] = median(generate_ms);
    v["circuits.tile_graph_ms"] = median(tile_ms);
    result.mark_not_applicable(kEcoStepMetrics, "no ECO steps on serve");
    v["eco.stream_parked_share"] =
        ratio(static_cast<double>(parked), static_cast<double>(admitted));
    v["eco.stream_retries"] =
        ratio(static_cast<double>(retried), static_cast<double>(stream_jobs));
    double queue_total = 0.0, job_total = 0.0;
    for (double q : queue_ms) queue_total += q;
    for (double j : job_ms) job_total += j;
    v["serve.queue_share"] = ratio(queue_total, job_total);
    v["serve.done_bytes_mean"] = ratio(done_bytes, jobs_done);
    const double mcf_jobs = mcf_counted > 0 ? mcf_counted : 1;
    v["mcf.phases"] =
        static_cast<double>(delta(at_switch, at_end, Counter::kMcfPhases)) /
        mcf_jobs;
    v["mcf.oracle_routes"] =
        static_cast<double>(
            delta(at_switch, at_end, Counter::kMcfOracleRoutes)) /
        mcf_jobs;
    add_gauge_metrics(at_end, result);
    v["obs.overhead_pct"] =
        100.0 * (median(counted_job_ms) / median(uncounted_job_ms) - 1.0);

    std::vector<std::string> notes = {
        format("%d connections, %d workers, %lld jobs in %.2f s "
               "(%lld while counting)",
               connections, connections, static_cast<long long>(jobs_done),
               wall_s, static_cast<long long>(counted_jobs)),
        "core/route/buffer numbers are process-wide deltas over the "
        "counting half, per job of any kind completed in it (mcf.* per mcf "
        "job); stage and audit times come from the jobs' reports",
        format("serve.queue_ms p50 %.3f, p90 %.3f (submit to started)",
               percentile(queue_ms, 0.5), percentile(queue_ms, 0.9)),
        format("serve.run_ms p50 %.3f (started to done)",
               percentile(run_ms, 0.5)),
        "core.audit_ms on serve: job elapsed time not covered by its stage "
        "rows (audit + report)",
    };
    for (const auto& [kind, times] : run_ms_by_kind) {
      notes.push_back(format("%s jobs: %zu, run_ms p50 %.3f, p90 %.3f",
                             kind_name(kind), times.size(),
                             percentile(times, 0.5), percentile(times, 0.9)));
    }
    notes.push_back(format("counting-half job p50 %.3f ms over %zu jobs, "
                           "untraced-half %.3f ms over %zu jobs",
                           median(counted_job_ms), counted_job_ms.size(),
                           median(uncounted_job_ms), uncounted_job_ms.size()));
    write_trace_report(cfg, "serve", spans, result, notes);
  }
  return result;
}

}  // namespace perfbench
