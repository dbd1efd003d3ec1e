#include "machine/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exec/proc_backend.hpp"
#include "exec/sim_backend.hpp"
#include "exec/threaded_backend.hpp"
#include "machine/context.hpp"
#include "obs/diagnostics.hpp"

namespace fxpar::machine {

double RunResult::efficiency() const {
  if (clocks.empty() || finish_time <= 0.0) return 0.0;
  double busy = 0.0;
  for (const auto& c : clocks) busy += c.busy;
  return busy / (finish_time * static_cast<double>(clocks.size()));
}

std::uint64_t RunResult::traffic_between(int src, int dst) const {
  const int P = static_cast<int>(clocks.size());
  if (traffic.empty() || src < 0 || dst < 0 || src >= P || dst >= P) return 0;
  return traffic[static_cast<std::size_t>(src) * static_cast<std::size_t>(P) +
                 static_cast<std::size_t>(dst)];
}

Machine::Machine(MachineConfig config) : config_(config) {
  config_.validate();
  payloads_.init(config_.num_procs);
  doubles_.init(config_.num_procs);
  switch (config_.backend) {
    case exec::BackendKind::Sim:
      backend_ = std::make_unique<exec::SimBackend>(config_);
      break;
    case exec::BackendKind::Threads:
      backend_ = std::make_unique<exec::ThreadedBackend>(config_);
      break;
    case exec::BackendKind::Proc:
      backend_ = std::make_unique<exec::ProcBackend>(config_);
      break;
  }
  if (config_.trace) {
    // Only the simulator charges modeled compute; the real-time backends
    // derive span busy time from elapsed time.
    tracer_ = std::make_shared<trace::TraceRecorder>(
        config_.num_procs, config_.backend == exec::BackendKind::Sim
                               ? trace::TraceRecorder::Busy::Charged
                               : trace::TraceRecorder::Busy::Elapsed);
    tracer_->set_clock([this](int rank) { return backend_->now(rank); });
  }
  if (config_.metrics) {
    metrics_ = std::make_unique<metrics::RuntimeMetrics>(config_.num_procs);
  }
  if (config_.flight_recorder || config_.obs_port >= 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        config_.num_procs, config_.flight_events, config_.flight_window_s);
  }
  backend_->set_probe(exec::Probe{tracer_.get(), metrics_.get(), flight_.get(), &counters_});
  if (config_.obs_port >= 0) {
    endpoint_ = std::make_unique<obs::Endpoint>();
    endpoint_->handle("/metrics", "text/plain; version=0.0.4", [this] {
      return metrics_ ? metrics_->registry.snapshot().to_prometheus()
                      : std::string("# metrics disabled\n");
    });
    endpoint_->handle("/healthz", "application/json",
                      [this] { return healthz_json(); });
    endpoint_->handle("/trace", "application/json", [this] {
      return flight_ ? flight_->chrome_json()
                     : std::string("{\"traceEvents\":[]}");
    });
    endpoint_->handle("/diagnostics", "application/json",
                      [this] { return capture_diagnostic("on-demand", ""); });
    if (!endpoint_->start(config_.obs_port)) {
      std::fprintf(stderr,
                   "fxpar obs: cannot bind 127.0.0.1:%d; live endpoint "
                   "disabled\n",
                   config_.obs_port);
      endpoint_.reset();
    }
  }
}

namespace {

/// The calling processor's rank, or -1 outside a processor body (the
/// driver thread).
int calling_rank(const exec::Backend& backend) noexcept {
  try {
    return backend.current_rank();
  } catch (...) {
    return -1;
  }
}

}  // namespace

void Machine::count_plan(PlanKind kind, bool hit) noexcept {
  // Metric shard and trace timeline: the calling rank, or 0 on the driver
  // thread (only looked up when a sink uses it).
  backend_->probe().plan(metrics_ || tracer_ ? std::max(0, calling_rank(*backend_)) : 0, kind, hit);
}

std::size_t Machine::next_cache_slot() {
  static std::atomic<std::size_t> next{0};
  const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kCacheSlots) throw std::logic_error("Machine::cache: out of cache slots");
  return slot;
}

int Machine::pool_rank() const noexcept { return calling_rank(*backend_); }

Machine::~Machine() {
  // Stop the server thread before any member it reads is torn down.
  if (endpoint_) endpoint_->stop();
  stop_watchdog();
}

runtime::Simulator& Machine::sim() {
  auto* sb = dynamic_cast<exec::SimBackend*>(backend_.get());
  if (!sb) {
    throw std::logic_error("Machine::sim: the '" + std::string(backend_->name()) +
                           "' backend has no event simulator");
  }
  return sb->sim();
}

RunResult Machine::run(const std::function<void(Context&)>& program) {
  if (!program) throw std::invalid_argument("Machine::run: empty program");
  std::vector<std::unique_ptr<Context>> contexts;
  contexts.reserve(static_cast<std::size_t>(num_procs()));
  for (int r = 0; r < num_procs(); ++r) {
    contexts.push_back(std::make_unique<Context>(*this, r));
  }
  if (tracer_) tracer_->reset();
  const auto host_t0 = std::chrono::steady_clock::now();
  run_state_.store(1, std::memory_order_release);
  start_watchdog();
  // Each processor's whole body runs inside a root "program" span so every
  // recorded event has an enclosing scope.
  try {
    backend_->run([this, &program, &contexts](int r) {
      Context& ctx = *contexts[static_cast<std::size_t>(r)];
      if (tracer_) tracer_->begin_span(r, "program", "root");
      program(ctx);
      if (tracer_) tracer_->end_span(r);
    });
  } catch (const std::exception& e) {
    stop_watchdog();
    // State first: capture_diagnostic only takes live sim introspection
    // when no run is executing (run_state_ != 1).
    run_state_.store(3, std::memory_order_release);
    const bool deadlock = dynamic_cast<const runtime::DeadlockError*>(&e) != nullptr;
    const std::string bundle =
        capture_diagnostic(deadlock ? "deadlock" : "abort", e.what());
    if (obs_enabled()) std::fprintf(stderr, "%s\n", bundle.c_str());
    throw;
  } catch (...) {
    stop_watchdog();
    run_state_.store(3, std::memory_order_release);
    capture_diagnostic("abort", "(non-standard exception)");
    throw;
  }
  stop_watchdog();
  run_state_.store(2, std::memory_order_release);
  const auto host_t1 = std::chrono::steady_clock::now();
  if (metrics_) {
    metrics_->runs->add(0);
    metrics_->last_run_host_s->set(
        std::chrono::duration<double>(host_t1 - host_t0).count());
  }

  const exec::BackendStats bs = backend_->stats();
  RunResult res;
  res.finish_time = bs.finish_time;
  res.clocks = bs.clocks;
  res.messages = bs.messages;
  res.bytes = bs.bytes;
  res.barriers = bs.barriers;
  res.backend = backend_->name();
  res.host_ms = std::chrono::duration<double, std::milli>(host_t1 - host_t0).count();
  res.wait_ms = bs.wait_ms;
  const auto plans = [this](PlanKind k, bool hit) {
    return counters_.get(exec::RunCounters::plan_slot(k, hit));
  };
  res.plan_cache_hits = plans(PlanKind::Redist, true);
  res.plan_cache_misses = plans(PlanKind::Redist, false);
  res.collective_plan_hits = plans(PlanKind::Collective, true);
  res.collective_plan_misses = plans(PlanKind::Collective, false);
  res.pool_spills = pool_spill_count();
  res.pinning = exec::pin_policy_name(config_.pinning);
  res.numa_nodes = bs.numa_nodes;
  res.traffic = bs.traffic;
  if (tracer_) {
    tracer_->finalize(res.finish_time);
    res.trace = tracer_;
  }
  if (metrics_) {
    res.metrics =
        std::make_shared<const metrics::Snapshot>(metrics_->registry.snapshot());
  }
  return res;
}

// ---------------------------------------------------------------------------
// Live observability plane

std::string Machine::healthz_json() const {
  static const char* kStates[] = {"idle", "running", "done", "failed"};
  const int st = run_state_.load(std::memory_order_acquire);
  std::ostringstream os;
  os << "{\"status\":\"" << (st == 3 ? "failed" : "ok") << "\",\"run_state\":\""
     << kStates[st < 0 || st > 3 ? 0 : st] << "\",\"backend\":\""
     << backend_->name() << "\",\"procs\":" << num_procs();
  if (introspection_safe()) {
    const obs::Introspection intro = backend_->introspect();
    os << ",\"now\":" << intro.now
       << ",\"workers\":" << obs::workers_json(intro.workers, intro.now)
       << ",\"barriers\":" << obs::barriers_json(intro.barriers);
  } else {
    os << ",\"workers\":null,\"barriers\":null";
  }
  if (flight_) {
    os << ",\"flight_recorded\":" << flight_->total_recorded()
       << ",\"flight_dropped\":" << flight_->dropped();
  }
  {
    std::lock_guard<std::mutex> lk(healthz_extra_mu_);
    if (healthz_extra_) os << ",\"serve\":" << healthz_extra_();
  }
  os << "}";
  return os.str();
}

std::string Machine::last_diagnostic() const {
  std::lock_guard<std::mutex> lk(diag_mu_);
  return last_diagnostic_;
}

std::string Machine::capture_diagnostic(const std::string& reason,
                                        const std::string& error) {
  obs::DiagnosticInfo d;
  d.reason = reason;
  d.error = error;
  d.backend = backend_->name();
  d.procs = num_procs();
  // Prefer the introspection frozen at the moment of failure (the threaded
  // backend captures one before waking workers to unwind); fall back to a
  // live one when it is safe to take.
  d.intro = backend_->failure_introspection();
  if (d.intro.workers.empty() && introspection_safe()) d.intro = backend_->introspect();
  if (metrics_) d.metrics_json = metrics_->registry.snapshot().to_json();
  if (flight_) d.recent = flight_->snapshot();
  std::string bundle = obs::diagnostic_json(d);
  {
    std::lock_guard<std::mutex> lk(diag_mu_);
    last_diagnostic_ = bundle;
  }
  return bundle;
}

void Machine::start_watchdog() {
  // Concurrent backends only: the watchdog polls Backend::progress() from
  // its own thread, which the single-threaded simulator cannot tolerate
  // (and a sim run monopolizes the run thread anyway). The threaded
  // backend answers from worker atomics, the process backend from its
  // shared-memory control block — both safe at any time.
  if (config_.stall_watchdog_s <= 0 ||
      backend_->kind() == exec::BackendKind::Sim) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(watchdog_mu_);
    watchdog_stop_ = false;
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void Machine::stop_watchdog() {
  {
    std::lock_guard<std::mutex> lk(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void Machine::watchdog_loop() {
  const double limit = config_.stall_watchdog_s;
  // Poll at a quarter of the stall limit, clamped to [10, 250] ms: fine
  // enough to fire near the deadline, coarse enough to cost nothing.
  const auto poll = std::chrono::milliseconds(
      std::min<long>(250, std::max<long>(10, static_cast<long>(limit * 250))));
  std::uint64_t last_progress = backend_->progress();
  auto last_change = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lk(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lk, poll);
    if (watchdog_stop_) break;
    const std::uint64_t p = backend_->progress();
    const auto now = std::chrono::steady_clock::now();
    if (p != last_progress) {
      last_progress = p;
      last_change = now;
      continue;
    }
    if (std::chrono::duration<double>(now - last_change).count() < limit) continue;
    lk.unlock();
    std::ostringstream why;
    why << "no runtime-service progress for " << limit << " s";
    const std::string bundle = capture_diagnostic("stall", why.str());
    std::fprintf(stderr, "fxpar stall watchdog: %s\n", bundle.c_str());
    lk.lock();
    last_change = now;  // re-arm: report again after another full window
  }
}

}  // namespace fxpar::machine
