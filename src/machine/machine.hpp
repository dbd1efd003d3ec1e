// fxpar machine: the SPMD multicomputer.
//
// Machine owns one execution backend (exec/backend.hpp) — the
// deterministic discrete-event simulator, the shared-memory threaded
// engine or the process-per-rank engine, selected by
// MachineConfig::backend — plus everything that is backend-independent:
// the trace recorder, metrics and flight recorder (handed to the backend as
// one exec::Probe), the typed cache-slot registry (redistribution and
// collective plan caches), the buffer pools and the per-run statistics. It launches an SPMD program body on every
// logical processor. User code never touches Machine directly while
// running; it receives a Context (see context.hpp).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "exec/backend.hpp"
#include "machine/config.hpp"
#include "metrics/runtime_metrics.hpp"
#include "obs/endpoint.hpp"
#include "obs/flight_recorder.hpp"
#include "pgroup/group.hpp"
#include "runtime/simulator.hpp"
#include "trace/trace.hpp"

namespace fxpar::machine {

class Context;

/// Raw bytes exchanged by the direct-deposit layer.
using Payload = exec::Payload;

/// Base class for caches that higher layers attach to the machine (see
/// Machine::cache). The machine owns the storage so cached schedules are
/// shared by all processors and survive across run() calls; the attaching
/// layer owns the concrete type.
class MachineCacheBase {
 public:
  virtual ~MachineCacheBase() = default;
};

/// Which plan cache a hit or miss belongs to (Machine::count_plan).
using PlanKind = exec::PlanKind;

/// Aggregate results of one run. The time fields are backend-defined:
/// modeled machine seconds on the simulator, real host seconds on the
/// threaded and process backends (docs/execution.md).
struct RunResult {
  runtime::SimTime finish_time = 0.0;  ///< completion time of the slowest processor
  std::vector<runtime::ProcClock> clocks;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t barriers = 0;

  /// Which engine executed the run: "sim", "threads" or "proc".
  std::string backend = "sim";

  /// Real wall-clock milliseconds spent inside Machine::run (every
  /// backend): simulation overhead on `sim`, actual parallel execution on
  /// `threads` and `proc`.
  double host_ms = 0.0;

  /// Total real milliseconds processors spent blocked (threads and proc;
  /// 0 on the simulator, whose idle time is modeled, not real).
  double wait_ms = 0.0;

  /// Redistribution plan cache counters (see dist/plan_cache.hpp): a miss
  /// builds a schedule, a hit replays one. Both zero when
  /// MachineConfig::plan_cache is off or no redistribution ran.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  /// Collective plan cache counters (see comm/collective_plan.hpp): cached
  /// broadcast/reduce trees and rooted gather/scatter schedules. Both zero
  /// when MachineConfig::plan_cache is off or no collective ran.
  std::uint64_t collective_plan_hits = 0;
  std::uint64_t collective_plan_misses = 0;

  /// Payload-pool releases that could not stay in the releasing worker's
  /// shard and spilled to the shared list (see Machine::pool_release).
  std::uint64_t pool_spills = 0;

  /// The worker placement policy of the run ("none", "compact", "scatter",
  /// "numa"; see MachineConfig::pinning). Placement only affects host
  /// time, never results.
  std::string pinning = "none";

  /// Per-worker NUMA node ids when the threaded backend pinned its workers
  /// (empty otherwise); index is the logical rank, -1 an unpinned worker.
  std::vector<int> numa_nodes;

  /// Per-pair traffic: traffic[src * P + dst] bytes sent from src to dst.
  /// Populated only when MachineConfig::record_traffic is set.
  std::vector<std::uint64_t> traffic;

  /// The structured event trace of the run; null unless
  /// MachineConfig::trace was set. Shared with the Machine: a later run()
  /// on the same Machine resets and reuses the recorder.
  std::shared_ptr<const trace::TraceRecorder> trace;

  /// Merged metrics snapshot taken right after the run; null when
  /// MachineConfig::metrics is off. Counters are cumulative over the
  /// Machine's lifetime (a second run() keeps counting), matching the
  /// Prometheus counter convention.
  std::shared_ptr<const metrics::Snapshot> metrics;

  /// Machine efficiency: mean busy fraction over processors.
  double efficiency() const;

  /// Bytes sent from src to dst (0 if traffic recording was off).
  std::uint64_t traffic_between(int src, int dst) const;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const noexcept { return config_; }
  int num_procs() const noexcept { return config_.num_procs; }

  /// Runs `program` SPMD on all processors and returns run statistics.
  /// The Context passed to each instance is private to that processor.
  RunResult run(const std::function<void(Context&)>& program);

  /// The execution engine behind this machine. Context calls its
  /// processor services (deposit, receive, barrier, io) directly; each
  /// reports itself through the backend's probe (exec/probe.hpp).
  exec::Backend& backend() noexcept { return *backend_; }
  const exec::Backend& backend() const noexcept { return *backend_; }

  /// The underlying event simulator. Throws std::logic_error on the
  /// threaded backend — code that needs modeled time must run on `sim`.
  runtime::Simulator& sim();

  /// The event recorder, or nullptr when MachineConfig::trace is off.
  trace::TraceRecorder* tracer() noexcept { return tracer_.get(); }

  /// The always-on metric set, or nullptr when MachineConfig::metrics is
  /// off. Instrumentation sites hold this pointer and test for null.
  metrics::RuntimeMetrics* metrics() noexcept { return metrics_.get(); }
  const metrics::RuntimeMetrics* metrics() const noexcept { return metrics_.get(); }

  /// Convenience: merged snapshot of every metric (empty-ish snapshot when
  /// metrics are disabled, so callers need no null test).
  metrics::Snapshot metrics_snapshot() const {
    return metrics_ ? metrics_->registry.snapshot() : metrics::Snapshot{};
  }

  // ---- live observability plane (src/obs/, docs/observability.md) ----

  /// The flight recorder, or nullptr unless MachineConfig::flight_recorder
  /// (or obs_port >= 0) enabled it.
  obs::FlightRecorder* flight() noexcept { return flight_.get(); }

  /// Port the live endpoint is listening on (resolves obs_port = 0 to the
  /// kernel-chosen port), or -1 when no endpoint is running.
  int obs_port() const noexcept { return endpoint_ ? endpoint_->port() : -1; }

  /// The /healthz body: run state, backend, and per-worker liveness.
  std::string healthz_json() const;

  /// Installs a provider whose JSON fragment is appended to /healthz under
  /// a "serve" key (the serving driver reports offered load, active mapping
  /// and remap counts here). The callback must return a complete JSON value
  /// and be callable from the endpoint thread at any time; pass an empty
  /// function to uninstall.
  void set_healthz_extra(std::function<std::string()> extra) {
    std::lock_guard<std::mutex> lk(healthz_extra_mu_);
    healthz_extra_ = std::move(extra);
  }

  /// The most recent diagnostic bundle, "" if none was ever captured.
  /// Set on DeadlockError, on an aborting exception, when the stall
  /// watchdog fires, and by each /diagnostics request.
  std::string last_diagnostic() const;

  /// Builds a bundle from current state (and stores it as
  /// last_diagnostic()). `reason` is "deadlock" / "abort" / "stall" /
  /// "on-demand"; `error` the exception text if any.
  std::string capture_diagnostic(const std::string& reason,
                                 const std::string& error);

  // ---- typed cache-slot registry ----
  //
  // Higher layers attach their caches here without the machine knowing
  // their types (comm and dist both link above machine): the redistribution
  // PlanCache (dist/plan_cache.hpp) and the CollectiveCache
  // (comm/collective_plan.hpp). Each cache type gets one fixed slot index
  // on first use, so a lookup is one lock and one array access.

  /// The machine's `T` cache, default-constructed on first use. Attachment
  /// is serialized under one mutex across worker threads (the simulator's
  /// fibers never contend on it); `T` does its own locking after that.
  template <class T>
  T& cache() {
    static_assert(std::is_base_of_v<MachineCacheBase, T>);
    static const std::size_t slot = next_cache_slot();
    std::lock_guard<std::mutex> lk(cache_mu_);
    auto& c = caches_[slot];
    if (!c) c = std::make_unique<T>();
    return static_cast<T&>(*c);
  }

  /// Reports a `kind` hit or miss through the probe: the counters that
  /// RunResult reports, the metrics registry and the calling processor's
  /// open trace spans.
  void count_plan(PlanKind kind, bool hit) noexcept;

  /// The plan caches' memo step, called under the cache's own lock:
  /// returns `table[key]`, building it with `build()` on a miss, and counts
  /// the hit or miss as `kind`. A table already holding `cap` entries is
  /// dropped before the insert (outstanding shared_ptr holders keep their
  /// schedules alive): real programs repeat a handful of plans, so
  /// eviction is a safety valve, not a hot path.
  template <class Table, class Build>
  typename Table::mapped_type memo_plan(PlanKind kind, Table& table,
                                        typename Table::key_type key, std::size_t cap,
                                        Build&& build) {
    if (auto it = table.find(key); it != table.end()) {
      count_plan(kind, true);
      return it->second;
    }
    count_plan(kind, false);
    typename Table::mapped_type plan = build();
    if (table.size() >= cap) table.clear();
    table.emplace(std::move(key), plan);
    return plan;
  }

  // ---- payload buffer pool ----
  //
  // Repeated handoffs move payload buffers sender -> mailbox -> receiver;
  // returning them here after unpacking lets the next pack reuse the
  // allocation instead of growing a fresh vector per message. The pool is
  // sharded per logical processor: the owning worker pushes and pops its
  // shard without any lock (the backend guarantees one worker per rank),
  // and only shard overflow — or an empty shard on acquire — touches the
  // shared spill list under pool_mu_. Buffers migrate sender -> receiver,
  // so the spill list is what lets allocations circulate back to the
  // senders in rooted patterns (gathers, reductions). The pool is
  // host-side only and never changes modeled time.

  /// A buffer of exactly `bytes` bytes, reusing a pooled allocation if
  /// any. The *contents are unspecified* — every caller overwrites the
  /// buffer in full before the bytes become visible to anyone.
  Payload pool_acquire(std::size_t bytes) { return payloads_.acquire(pool_rank(), bytes); }

  /// Returns a spent buffer to the releasing worker's shard (spilling to
  /// the shared list when the shard is full; dropped once both are full).
  void pool_release(Payload&& p) { release_to(payloads_, std::move(p)); }

  /// Releases that overflowed a worker shard onto the shared spill list
  /// (cumulative; also exported as fxpar_machine_pool_spills_total).
  std::uint64_t pool_spill_count() const noexcept {
    return counters_.get(exec::RunCounters::kSpills);
  }

  // ---- typed double-vector scratch pool ----
  //
  // The cached collective executors also churn std::vector<double> results
  // (the dominant element type of the numeric apps): every unpack, gather
  // concatenation and allreduce intermediate is a fresh vector that dies
  // one call later. These mirror pool_acquire/pool_release for that one
  // type, with the same shard-then-spill discipline, so a steady-state
  // collective stream is allocation-quiet (bench_micro --collective-compare
  // watches minor faults across iterations).

  /// A vector of exactly `n` doubles, reusing a pooled allocation if any.
  /// Contents are unspecified; every caller overwrites them in full.
  std::vector<double> double_acquire(std::size_t n) { return doubles_.acquire(pool_rank(), n); }

  /// Returns a spent double vector to the calling worker's shard.
  void double_release(std::vector<double>&& v) { release_to(doubles_, std::move(v)); }

 private:
  /// Shard-then-spill pool of spent vectors of one type: per-rank shards
  /// the owning worker pushes and pops without a lock (the backend runs one
  /// worker per rank), and a shared spill list under a mutex for shard
  /// overflow, empty-shard acquires and the driver thread (rank -1).
  template <class V>
  class Pool {
   public:
    void init(int procs) { shards_ = std::vector<Shard>(static_cast<std::size_t>(procs)); }

    V acquire(int rank, std::size_t n) {
      V v;
      if (rank >= 0) {
        auto& shard = shards_[static_cast<std::size_t>(rank)].bufs;
        if (!shard.empty()) {
          v = std::move(shard.back());
          shard.pop_back();
        }
      }
      if (v.capacity() == 0) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!spill_.empty()) {
          v = std::move(spill_.back());
          spill_.pop_back();
        }
      }
      // Same-size reuse makes this resize a no-op: unlike a freshly
      // constructed vector there is no value-initializing memset. Contents
      // are unspecified by contract; every caller overwrites them. A buffer
      // too small for `n` is emptied first, so the reallocation below does
      // not copy its stale contents.
      if (v.capacity() < n) v.clear();
      v.resize(n);
      return v;
    }

    /// Keeps `v` for reuse. True when a worker's full shard spilled it to
    /// the shared list (dropped once that is full too).
    bool release(int rank, V&& v) {
      if (v.capacity() == 0) return false;
      bool spilled = false;
      if (rank >= 0) {
        auto& shard = shards_[static_cast<std::size_t>(rank)].bufs;
        if (shard.size() < kMaxShard) {
          shard.push_back(std::move(v));
          return false;
        }
        spilled = true;
      }
      std::lock_guard<std::mutex> lk(mu_);
      if (spill_.size() < kMaxSpill) spill_.push_back(std::move(v));
      return spilled;
    }

   private:
    static constexpr std::size_t kMaxShard = 16;
    static constexpr std::size_t kMaxSpill = 64;
    /// Cache-line aligned so neighbouring ranks' pushes never false-share.
    struct alignas(64) Shard {
      std::vector<V> bufs;
    };
    std::vector<Shard> shards_;
    std::mutex mu_;
    std::vector<V> spill_;
  };

  /// Pool shard of the calling processor, or -1 from the driver thread.
  int pool_rank() const noexcept;
  /// Releases into `pool`, counting a spill (RunResult::pool_spills and
  /// fxpar_pool_spills) when the caller's shard overflowed.
  template <class V>
  void release_to(Pool<V>& pool, V&& v) {
    const int rank = pool_rank();
    if (pool.release(rank, std::move(v))) backend_->probe().spill(rank);
  }
  static std::size_t next_cache_slot();

  /// True when any observability feature that wants failure bundles on
  /// stderr is on (endpoint, flight recorder or watchdog).
  bool obs_enabled() const noexcept {
    return config_.obs_port >= 0 || config_.flight_recorder ||
           config_.stall_watchdog_s > 0;
  }
  /// Per-worker liveness can be read now: the simulator's introspection is
  /// fiber-mutated state, unsafe while its run thread executes; the
  /// concurrent backends answer from atomics at any time.
  bool introspection_safe() const noexcept {
    return backend_->kind() != exec::BackendKind::Sim ||
           run_state_.load(std::memory_order_acquire) != 1;
  }
  void start_watchdog();
  void stop_watchdog();
  void watchdog_loop();

  MachineConfig config_;
  std::unique_ptr<exec::Backend> backend_;
  std::shared_ptr<trace::TraceRecorder> tracer_;
  std::unique_ptr<metrics::RuntimeMetrics> metrics_;
  std::unique_ptr<obs::FlightRecorder> flight_;

  /// Run lifecycle for /healthz and for gating live sim introspection:
  /// 0 idle (never ran), 1 running, 2 done, 3 failed.
  std::atomic<int> run_state_{0};
  mutable std::mutex diag_mu_;
  std::string last_diagnostic_;  ///< guarded by diag_mu_

  mutable std::mutex healthz_extra_mu_;
  std::function<std::string()> healthz_extra_;  ///< guarded by healthz_extra_mu_

  // Stall watchdog (threaded backend only): one monitor thread per run.
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  ///< guarded by watchdog_mu_

  /// RunResult's plan-cache and pool-spill counters, fed through the probe
  /// (a forked rank's counts arrive in its residue).
  exec::RunCounters counters_;

  static constexpr std::size_t kCacheSlots = 4;
  std::mutex cache_mu_;
  std::array<std::unique_ptr<MachineCacheBase>, kCacheSlots> caches_;

  Pool<Payload> payloads_;
  Pool<std::vector<double>> doubles_;

  /// Declared last: its handlers capture `this` and read every member
  /// above, so the server thread must be the first thing destroyed.
  std::unique_ptr<obs::Endpoint> endpoint_;
};

}  // namespace fxpar::machine
