// fxpar trace: per-phase (named span) aggregation of a recorded run.
//
// Turns the raw event log into the table a performance engineer reads
// first: for every distinct span name, how much modeled time its instances
// covered, how that time divides into compute / message waits / barrier
// waits / I/O waits, and how much communication it issued. This replaces
// "subgroup `many` is probably barrier-bound" guesswork with "subgroup
// `many` spent 38% of its time in subset barriers".
//
// Accounting is inclusive: time charged while a nested span was open is
// counted in every enclosing span too, so phases do not sum to the
// machine-seconds total — compare each phase against the makespan instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace fxpar::trace {

/// Aggregate over every span instance sharing one name.
struct PhaseStats {
  std::string name;
  std::string category;
  int instances = 0;          ///< number of span instances (across procs)
  double wall = 0.0;          ///< summed span durations (proc-seconds)
  double busy = 0.0;
  double recv_wait = 0.0;
  double barrier_wait = 0.0;
  double io_wait = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t plan_hits = 0;     ///< redistribution plan-cache hits inside
  std::uint64_t plan_misses = 0;   ///< redistribution plan-cache misses inside

  double active() const { return busy + recv_wait + barrier_wait + io_wait; }
  double wait_fraction() const {
    const double a = active();
    return a > 0.0 ? (recv_wait + barrier_wait + io_wait) / a : 0.0;
  }
};

struct PhaseReport {
  double makespan = 0.0;
  int num_procs = 0;
  double total_busy = 0.0;
  double total_recv_wait = 0.0;
  double total_barrier_wait = 0.0;
  double total_io_wait = 0.0;
  /// Fraction of all accounted processor activity (busy + waits) that fell
  /// inside some named span below the per-processor "program" root.
  double attributed_fraction = 0.0;
  /// Sorted by active() descending.
  std::vector<PhaseStats> phases;

  /// Fixed-width table suitable for printing from benches and examples.
  std::string to_string(std::size_t max_phases = 24) const;
};

PhaseReport phase_report(const TraceRecorder& rec);

}  // namespace fxpar::trace
