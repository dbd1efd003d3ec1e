// fxexec: the one instrumentation probe of the runtime services.
//
// Three sinks observe the machine: the full trace (trace::TraceRecorder),
// the always-on metrics (metrics::RuntimeMetrics) and the flight recorder
// (obs::FlightRecorder). Each is optional; a null pointer means off. A
// Probe holds all three, and every runtime service reports each event
// exactly once through one inline method that fans out to whichever sinks
// are on:
//
//   sent      a deposit            (a backend's deposit)
//   received  a matched receive    (a backend's receive)
//   barrier   a subset barrier     (a backend's barrier)
//   io        an I/O operation     (a backend's io_operation)
//   plan      a plan-cache lookup  (Machine::count_plan)
//   spill     a pool buffer spilled (Machine's pool release)
//   span      a named span opened  (Context::span)
//
// The caller passes the timestamps it already took for its own work, so
// the probe reads no clock of its own (span reads one only for the flight
// recorder). With every sink off, a method costs one pointer test per sink
// it feeds.
//
// A fourth, always-on sink holds the RunResult counters that count whether
// or not metrics are on (plan-cache lookups and pool spills).
//
// The probe also owns the residue format of a forked rank (proc backend):
// what the child's sinks recorded after the fork — its RunResult counter
// deltas, metric deltas, its trace shard and its flight-ring tail — travels
// to the parent as one opaque blob (the payload of the child's Done frame)
// and is absorbed there.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics/runtime_metrics.hpp"
#include "obs/flight_recorder.hpp"
#include "trace/trace.hpp"

namespace fxpar::exec {

/// Which plan cache a hit or miss belongs to (Machine::count_plan).
enum class PlanKind : std::uint8_t {
  Redist,      ///< dist/plan_cache.hpp redistribution and halo schedules
  Collective,  ///< comm/collective_plan.hpp collective schedules
};

/// The RunResult counters kept whether or not metrics are on: plan-cache
/// lookups per (kind, hit) and pool spills. Atomic: on the concurrent
/// backends every worker counts at once.
struct RunCounters {
  static constexpr std::size_t kSlots = 5;
  static constexpr std::size_t kSpills = 4;  ///< slots 0-3 are plan_slot()s
  static constexpr std::size_t plan_slot(PlanKind kind, bool hit) noexcept {
    return 2 * static_cast<std::size_t>(kind) + (hit ? 1 : 0);
  }

  std::array<std::atomic<std::uint64_t>, kSlots> slots{};

  void add(std::size_t slot, std::uint64_t n = 1) noexcept {
    slots[slot].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get(std::size_t slot) const noexcept {
    return slots[slot].load(std::memory_order_relaxed);
  }
};

struct Probe {
  trace::TraceRecorder* trace = nullptr;
  metrics::RuntimeMetrics* metrics = nullptr;
  obs::FlightRecorder* flight = nullptr;
  RunCounters* counters = nullptr;

  /// `src` deposited `bytes` for `dst` over the send interval [t0, t1].
  void sent(int src, int dst, std::uint64_t tag, std::size_t bytes, double t0,
            double t1) const {
    if (metrics) {
      metrics->messages->add(src);
      metrics->message_bytes->add(src, bytes);
    }
    if (flight) {
      flight->record(src, obs::FlightKind::Message, t0, "send",
                     static_cast<std::uint64_t>(dst), tag);
    }
    if (trace) trace->message_sent(src, dst, tag, bytes, t0, t1);
  }

  /// `dst` took the oldest (src, tag) message: it waited from `t0` until
  /// the payload was ready at `t1`. A receive whose first match attempt
  /// succeeded passes t0 == t1 and records no wait.
  void received(int dst, int src, std::uint64_t tag, double t0, double t1) const {
    if (metrics) metrics->recv_wait_s->observe(dst, t1 - t0);
    if (flight) {
      flight->record(dst, obs::FlightKind::Recv, t1, "recv", static_cast<std::uint64_t>(src),
                     tag);
    }
    if (trace) trace->message_received(dst, src, tag, t0, t1);
  }

  /// `rank` arrived at a barrier over the `members`-member group hashed by
  /// `group_key` at `t0` and left it at `t1`. Singleton barriers count but
  /// stay out of the trace. `arrival_seq` as in TraceRecorder::barrier_note.
  void barrier(int rank, std::uint64_t group_key, int members, double t0, double t1,
               std::uint64_t arrival_seq = 0) const {
    if (metrics) {
      metrics->barriers->add(rank);
      metrics->barrier_wait_s->observe(rank, t1 - t0);
    }
    if (flight) flight->record(rank, obs::FlightKind::Barrier, t1, "barrier", group_key, 0);
    if (trace && members > 1) trace->barrier_note(rank, group_key, t0, t1, arrival_seq);
  }

  /// `rank` ran an I/O operation of `bytes` bytes, stalled on the device
  /// over [t0, t1]; `cause_proc`/`cause_time` as in TraceRecorder::io_wait.
  void io(int rank, std::size_t bytes, double t0, double t1, int cause_proc,
          double cause_time) const {
    if (metrics) metrics->io_ops->add(rank);
    if (flight) {
      flight->record(rank, obs::FlightKind::Io, t1, "io", static_cast<std::uint64_t>(bytes), 0);
    }
    if (trace) trace->io_wait(rank, t0, t1, cause_proc, cause_time);
  }

  /// A `kind` plan-cache hit or miss observed by `rank`.
  void plan(int rank, PlanKind kind, bool hit) const {
    if (counters) counters->add(RunCounters::plan_slot(kind, hit));
    if (metrics) {
      metrics::Counter* const counters[2][2] = {
          {metrics->plan_misses, metrics->plan_hits},
          {metrics->collective_plan_misses, metrics->collective_plan_hits}};
      counters[static_cast<int>(kind)][hit ? 1 : 0]->add(rank);
    }
    if (trace) trace->plan_cache_event(rank, hit);
  }

  /// A pool release by `rank` overflowed its shard onto the spill list.
  void spill(int rank) const {
    if (counters) counters->add(RunCounters::kSpills);
    if (metrics) metrics->pool_spills->add(rank);
  }

  /// Opens span `name` on `rank`'s timeline; the guard closes it. `now()`
  /// is called only when the flight recorder is on.
  template <class Now, class Name>
  trace::ScopedSpan span(int rank, const Now& now, Name&& name, const char* category) const {
    if (flight) flight->record(rank, obs::FlightKind::Span, now(), c_str(name));
    if (!trace) return {};
    trace->begin_span(rank, std::forward<Name>(name), category);
    return {trace, rank};
  }

  // ---- the residue of a forked rank (proc backend) ----

  /// What the sinks held when a child forked: its residue is what it
  /// recorded past this point.
  struct Baseline {
    std::array<std::uint64_t, RunCounters::kSlots> counters{};
    metrics::Snapshot metrics;
    std::uint64_t flight_total = 0;
  };
  Baseline baseline(int rank) const;

  /// Serializes what `rank` recorded since `base`: its RunResult counter
  /// deltas, the delta of every metric counter and histogram (gauges are
  /// driver-side values and stay put), its trace shard, and its flight-ring
  /// events past the fork.
  std::vector<std::byte> residue(int rank, const Baseline& base) const;

  /// Parent side: applies a child's residue blob to these sinks, which are
  /// configured exactly like the child's (the child is a fork of them).
  void absorb(const std::vector<std::byte>& residue) const;

 private:
  static const char* c_str(const char* s) noexcept { return s; }
  static const char* c_str(const std::string& s) noexcept { return s.c_str(); }
};

}  // namespace fxpar::exec
