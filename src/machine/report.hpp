// fxpar machine: utilization reporting for simulated runs.
//
// RunResult carries raw per-processor clocks; this header turns them into
// the summaries a performance engineer actually reads when deciding how to
// map a task/data parallel program: per-processor busy/idle bars, aggregate
// efficiency, and communication volume.
#pragma once

#include <string>

#include "machine/machine.hpp"

namespace fxpar::machine {

struct UtilizationSummary {
  double makespan = 0.0;
  double mean_busy_fraction = 0.0;
  double min_busy_fraction = 0.0;
  double max_busy_fraction = 0.0;
  int least_busy_proc = -1;
  int most_busy_proc = -1;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t barriers = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t collective_plan_hits = 0;
  std::uint64_t collective_plan_misses = 0;
  std::uint64_t pool_spills = 0;  ///< payload releases that left their shard
  std::string backend = "sim";  ///< which engine executed the run
  double host_ms = 0.0;         ///< real wall-clock of Machine::run
  double wait_ms = 0.0;         ///< total real blocked time (threads backend)
};

/// Computes the aggregate utilization of a run.
UtilizationSummary summarize(const RunResult& result);

/// Renders a fixed-width utilization report: one bar per processor
/// (grouped into at most `max_rows` rows for large machines) plus the
/// aggregate counters. Suitable for printing from examples and benches.
std::string utilization_report(const RunResult& result, int max_rows = 16);

/// Renders the communication matrix (who sends how much to whom) as a
/// logarithmic heat map, grouping processors into at most `max_cells`
/// blocks per axis. Requires MachineConfig::record_traffic; returns a note
/// when traffic was not recorded.
std::string traffic_report(const RunResult& result, int max_cells = 16);

}  // namespace fxpar::machine
