#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "alloc/factory.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/run_report.hpp"
#include "core/validate.hpp"
#include "eco/stream.hpp"
#include "obs/json.hpp"

namespace rabid::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options), queue_(options.queue_capacity) {
  obs::Registry::instance().raise_level(options_.obs_level);
  const std::size_t workers = util::resolve_thread_count(options_.workers);
  pool_ = std::make_unique<util::ThreadPool>(workers);
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(pool_->submit([this, w] { worker_loop(w); }));
  }
}

Server::~Server() {
  begin_drain();
  drain_and_join();
}

void Server::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
  queue_.close();
}

void Server::drain_and_join() {
  RABID_ASSERT_MSG(draining(), "drain_and_join() before begin_drain()");
  for (std::future<void>& worker : workers_) {
    if (worker.valid()) worker.get();
  }
  workers_.clear();
  pool_.reset();
}

void Server::handle_line(std::string_view line, const Sink& sink) {
  core::Result<Request> parsed = parse_request(line);
  if (!parsed) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kServeJobsRejected);
    sink(event_error(parsed.status()));
    return;
  }
  Request& request = parsed.value();
  switch (request.kind) {
    case Request::Kind::kPlan:
      handle_plan(std::move(request.job), sink);
      return;
    case Request::Kind::kCancel:
      handle_cancel(request.cancel_id, sink);
      return;
    case Request::Kind::kStats:
      sink(event_stats(stats()));
      return;
    case Request::Kind::kPing:
      sink(event_pong());
      return;
    case Request::Kind::kDrain: {
      sink(event_draining());
      begin_drain();
      if (drain_callback_) drain_callback_();
      return;
    }
  }
}

void Server::reject(const Sink& sink, std::string_view id,
                    std::string_view code, std::string_view message) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::kServeJobsRejected);
  sink(event_rejected(id, code, message));
}

void Server::handle_plan(JobRequest&& request, const Sink& sink) {
  if (draining()) {
    reject(sink, request.id, "draining",
           "the server is draining and admits no new jobs");
    return;
  }

  core::Status status = core::Status::ok();
  std::shared_ptr<const Prepared> prepared = prepare(request, &status);
  if (prepared == nullptr) {
    reject(sink, request.id, status_code_name(status.code()),
           status.to_string());
    return;
  }

  Job job;
  job.id = request.id;
  job.priority = request.priority;
  job.backend = request.backend;
  if (job.backend == core::Backend::kRabid) {
    job.deadline_ms =
        request.deadline_ms > 0 ? request.deadline_ms
                                : options_.default_deadline_ms;
    if (options_.max_deadline_ms > 0) {
      job.deadline_ms =
          job.deadline_ms > 0
              ? std::min(job.deadline_ms, options_.max_deadline_ms)
              : options_.max_deadline_ms;
    }
  }
  // (backends without deadline support run uncapped; parse_request
  // already rejected an explicit deadline_ms on them)
  job.stream = request.stream;
  // A stream job runs to completion: never apply the server's default
  // batch deadline to one (parse already rejected an explicit value).
  if (job.stream) job.deadline_ms = 0.0;
  job.threads = request.threads > 0 ? request.threads : options_.job_threads;
  job.audit = request.audit;
  job.buffer_library = request.buffer_library;
  job.prepared = std::move(prepared);
  job.sink = sink;
  job.accepted_at = std::chrono::steady_clock::now();

  // Reserve the id and push under one hold of mu_: admission is atomic
  // against cancel and drain.  A cancel can only observe the job after
  // it is really in the queue, and a begin_drain() landing between the
  // reserve and the push can no longer leave a half-admitted job for
  // handle_cancel to count — the old unlock-then-push window let one
  // job show up both in serve.cancelled and on the drained: rejection
  // tally.  Lock order is mu_ -> queue_.mu_ everywhere (handle_cancel
  // does the same; workers take them one at a time), so this nesting
  // cannot deadlock.
  const std::string id = job.id;
  const Priority priority = job.priority;
  bool duplicate = false;
  PushResult result = PushResult::kAccepted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    duplicate = !active_.emplace(job.id, Active{}).second;
    if (!duplicate) {
      result = queue_.push(priority, std::move(job));
      if (result != PushResult::kAccepted) {
        active_.erase(id);
      } else {
        // Emit "queued" before releasing mu_: the worker that pops the
        // job needs mu_ to mark it running, so the started event cannot
        // overtake this one.  (Sinks are thread-safe and non-throwing
        // by contract.)
        const std::size_t depth = queue_.size();
        accepted_.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::kServeJobsAccepted);
        obs::observe(obs::HistogramId::kServeQueueDepth,
                     static_cast<std::uint64_t>(depth));
        sink(event_queued(id, priority, depth));
      }
    }
  }
  if (duplicate) {
    reject(sink, id, "duplicate-id",
           "a job with this id is already queued or running");
    return;
  }
  if (result != PushResult::kAccepted) {
    if (result == PushResult::kRejected) {
      reject(sink, id, "overloaded",
             "the " + std::string(priority_name(priority)) +
                 " queue is at capacity (" +
                 std::to_string(queue_.capacity_per_channel()) + ")");
    } else {
      reject(sink, id, "draining",
             "the server is draining and admits no new jobs");
    }
    return;
  }
}

void Server::handle_cancel(const std::string& id, const Sink& sink) {
  enum class Outcome { kCancelled, kRunning, kUnknown };
  Outcome outcome = Outcome::kUnknown;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(id);
    if (it == active_.end()) {
      outcome = Outcome::kUnknown;
    } else if (it->second.phase == Phase::kRunning) {
      // A running flow has no preemption point; the cooperative
      // deadline is the only mid-run brake (docs/SERVING.md).
      outcome = Outcome::kRunning;
    } else if (queue_.remove_first(
                   [&](const Job& j) { return j.id == id; })) {
      // Extracted from the queue: the job can no longer be popped by a
      // worker or counted by the drain — cancelled exactly once.
      active_.erase(it);
      outcome = Outcome::kCancelled;
    } else {
      // A worker popped it between our find and the removal (it is
      // about to flip the phase under mu_): already effectively
      // running.
      outcome = Outcome::kRunning;
    }
  }
  switch (outcome) {
    case Outcome::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::kServeJobsCancelled);
      sink(event_cancelled(id));
      return;
    case Outcome::kRunning:
      sink(event_rejected(id, "failed-precondition",
                          "job is already running and cannot be cancelled"));
      return;
    case Outcome::kUnknown:
      sink(event_rejected(id, "invalid-input",
                          "no queued job with this id"));
      return;
  }
}

std::shared_ptr<const Server::Prepared> Server::prepare(
    const JobRequest& request, core::Status* status) {
  if (!request.circuit.empty()) {
    const circuits::CircuitSpec* spec = circuits::find_spec(request.circuit);
    if (spec == nullptr) {
      *status = core::Status::invalid_input(
          "unknown circuit '" + request.circuit +
              "' (expected a Table-I benchmark name)",
          "request");
      return nullptr;
    }
    const std::string key = request.circuit + "|" +
                            std::to_string(request.nx) + "x" +
                            std::to_string(request.ny) + "|" +
                            std::to_string(request.sites);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    // Build outside the lock: first-touch generation of a big circuit
    // must not stall every other client's admission.  A racing second
    // build of the same key is wasted work, not a bug (the generator is
    // deterministic, so both results are identical).
    netlist::Design design = circuits::generate_design(*spec);
    circuits::TilingOptions topt;
    topt.nx = request.nx;
    topt.ny = request.ny;
    topt.buffer_sites = request.sites;
    tile::TileGraph graph = circuits::build_tile_graph(design, *spec, topt);
    if (core::Status s = core::validate_inputs(design, graph); !s) {
      *status = s;
      return nullptr;
    }
    auto prepared =
        std::make_shared<Prepared>(std::move(design), std::move(graph));
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = cache_.emplace(key, std::move(prepared));
    (void)inserted;
    return it->second;
  }

  // Inline design: already through the checked parser; lay a tiling
  // over it from the request's grid/sites (both mandatory, enforced by
  // parse_request).  No blocked cache region — that is a Table-I
  // benchmark artifact, not a property of user floorplans.
  netlist::Design design = *request.design;
  circuits::CircuitSpec spec;
  spec.name = design.name();
  spec.grid_x = request.nx;
  spec.grid_y = request.ny;
  spec.buffer_sites = static_cast<std::int32_t>(request.sites);
  circuits::TilingOptions topt;
  topt.nx = request.nx;
  topt.ny = request.ny;
  topt.buffer_sites = request.sites;
  topt.blocked_span = 0;
  tile::TileGraph graph = circuits::build_tile_graph(design, spec, topt);
  if (core::Status s = core::validate_inputs(design, graph); !s) {
    *status = s;
    return nullptr;
  }
  return std::make_shared<Prepared>(std::move(design), std::move(graph));
}

void Server::worker_loop(std::size_t worker_index) {
  Job job;
  while (queue_.pop(&job)) {
    {
      // A cancelled job was extracted from the queue before its
      // active_ entry went away, so everything popped here is live.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = active_.find(job.id);
      RABID_ASSERT_MSG(it != active_.end(), "popped job missing from active_");
      it->second.phase = Phase::kRunning;
    }

    running_.fetch_add(1, std::memory_order_relaxed);
    const double queue_ms = ms_since(job.accepted_at);
    job.sink(event_started(job.id, worker_index, queue_ms));
    run_job(job, worker_index, queue_ms);
    running_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_.erase(job.id);
    }
    job = Job{};  // release the prepared data before blocking in pop()
  }
}

void Server::run_job(const Job& job, std::size_t worker_index,
                     double queue_ms) {
  (void)worker_index;
  const auto t0 = std::chrono::steady_clock::now();
  if (job.stream) {
    run_stream_job(job, t0, queue_ms);
    return;
  }
  try {
    // Each run copies the pristine graph (books empty) and shares the
    // immutable design; the flow never touches the cached original.
    tile::TileGraph graph = job.prepared->graph;
    alloc::AllocatorConfig config;
    config.rabid.threads = job.threads;
    config.rabid.deadline_ms = job.deadline_ms;
    config.rabid.audit_level =
        job.audit ? core::AuditLevel::kFinal : core::AuditLevel::kOff;
    config.rabid.obs_level = options_.obs_level;
    if (!job.buffer_library.empty()) {
      buffer::BufferLibrary::preset(job.buffer_library,
                                    &config.rabid.buffer_library);
    }
    // BBP/FR only plans two-pin nets; its jobs solve the decomposed
    // workload (the paper's Table V setup).  The cached original stays
    // multi-pin for everyone else.
    netlist::Design two_pin;
    const netlist::Design* design = &job.prepared->design;
    if (job.backend == core::Backend::kBbp) {
      two_pin = netlist::Design::decompose_to_two_pin(*design);
      design = &two_pin;
    }
    auto made = alloc::make_allocator(job.backend, *design, graph, config);
    if (!made.ok()) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      job.sink(event_failed(job.id, made.status().to_string()));
      return;
    }
    made.value()->plan();
    const core::RunReport report = made.value()->run_report();

    // Re-serialize the (pretty, multi-line) report compactly so the
    // done event stays one NDJSON line.
    std::ostringstream pretty;
    report.write_json(pretty);
    std::string error;
    std::optional<obs::json::Value> doc =
        obs::json::parse(pretty.str(), &error);
    RABID_ASSERT_MSG(doc.has_value(), "RunReport JSON failed to re-parse");

    if (report.verdict == "timed_out") {
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::kServeJobsTimedOut);
    } else {
      completed_.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::kServeJobsCompleted);
    }
    job.sink(event_done(job.id, report.verdict, ms_since(t0), queue_ms,
                        obs::json::dump(*doc)));
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    job.sink(event_failed(job.id, e.what()));
  }
}

void Server::run_stream_job(const Job& job,
                            std::chrono::steady_clock::time_point t0,
                            double queue_ms) {
  try {
    tile::TileGraph graph = job.prepared->graph;
    eco::StreamOptions options;
    if (!job.buffer_library.empty()) {
      buffer::BufferLibrary::preset(job.buffer_library,
                                    &options.buffer_library);
    }
    const netlist::Design& source = job.prepared->design;
    // The session's design is the prepared design's header: streamed
    // block pins name its blocks.
    netlist::Design header = source;
    header.mutable_nets().clear();
    eco::StreamPlanner planner(std::move(header), graph, options);
    planner.set_event_sink(
        [&job](netlist::NetId net, eco::StreamEvent e) {
          job.sink(event_stream_net(job.id, net,
                                    eco::stream_event_name(e)));
        });

    // Feed the prepared design one net at a time, in design order — the
    // serving analogue of nets trickling in from an evolving floorplan.
    std::int64_t invalid = 0;
    for (const netlist::Net& net : source.nets()) {
      if (!planner.add_net(net).ok()) ++invalid;
    }
    const std::size_t parked = planner.finish();
    const bool audit_clean = !job.audit || planner.audit().clean();

    const eco::StreamStats totals = planner.stats();
    const bool ok = audit_clean && invalid == 0;
    const char* verdict = ok ? "ok" : "violations";
    std::string report = "{\"schema\":\"rabid.stream_report.v1\"";
    report += ",\"verdict\":\"" + std::string(verdict) + "\"";
    report += ",\"nets\":" + std::to_string(source.nets().size());
    report += ",\"invalid\":" + std::to_string(invalid);
    report += ",\"admitted\":" + std::to_string(totals.admitted);
    report += ",\"planned_events\":" + std::to_string(totals.planned);
    report += ",\"parked_events\":" + std::to_string(totals.parked);
    report += ",\"retried\":" + std::to_string(totals.retried);
    report += ",\"parked\":" + std::to_string(parked);
    report += ",\"planned\":" +
              std::to_string(totals.admitted -
                             static_cast<std::int64_t>(parked));
    report += ",\"audited\":";
    report += job.audit ? "true" : "false";
    report += ",\"audit_clean\":";
    report += audit_clean ? "true" : "false";
    report += '}';

    completed_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kServeJobsCompleted);
    job.sink(event_done(job.id, verdict, ms_since(t0), queue_ms, report));
  } catch (const std::exception& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    job.sink(event_failed(job.id, e.what()));
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.queued_high = queue_.depth(Priority::kHigh);
  s.queued_normal = queue_.depth(Priority::kNormal);
  s.queued_low = queue_.depth(Priority::kLow);
  s.running = running_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.draining = draining();
  return s;
}

}  // namespace rabid::serve
