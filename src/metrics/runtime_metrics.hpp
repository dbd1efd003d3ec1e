// fxpar metrics: the runtime's own metric set.
//
// One RuntimeMetrics lives on each Machine (when MachineConfig::metrics is
// on, the default). It owns the Registry and pre-resolves every metric the
// runtime layers update, so an instrumentation site is `if (m) m->x->add(r)`
// — a null test plus one relaxed atomic op; no name lookups on hot paths.
//
// Shard index convention: the updating processor's physical rank. Code
// running outside any worker (the driver thread) uses shard 0 — counter
// totals are shard-sums, so aliasing is harmless.
//
// This header depends only on metrics.hpp. Runtime layers (exec, machine,
// dist, comm, core, apps) include it; metrics never includes them back.
#pragma once

#include <memory>

#include "metrics/metrics.hpp"

namespace fxpar::metrics {

struct RuntimeMetrics {
  Registry registry;

  // comm / machine messaging
  Counter* messages;            ///< deposits issued
  Counter* message_bytes;       ///< payload bytes deposited
  Histogram* recv_wait_s;       ///< blocked-in-receive latency (per receive)
  Counter* barriers;            ///< subset-barrier participations
  Histogram* barrier_wait_s;    ///< blocked-in-barrier latency
  Counter* io_ops;              ///< io_operation() calls
  Counter* collectives;         ///< collective invocations (all kinds)

  // dist
  Counter* redists;             ///< assign/transpose redistributions entered
  Histogram* redist_s;          ///< per-participant redistribution latency
  Counter* halos;               ///< halo exchanges entered
  Histogram* halo_s;            ///< per-participant halo latency
  Counter* plan_hits;           ///< plan-cache hits
  Counter* plan_misses;         ///< plan-cache misses

  // comm collective-plan cache (trees and rooted schedules)
  Counter* collective_plan_hits;    ///< collective-plan-cache hits
  Counter* collective_plan_misses;  ///< collective-plan-cache misses

  // core / exec
  Counter* loops;               ///< parallel_for/parallel_reduce invocations
  Histogram* loop_s;            ///< per-participant loop latency
  Counter* task_regions;        ///< TaskRegion activations
  Gauge* pinned_workers;        ///< workers pinned in the last threaded run

  // machine / apps
  Counter* runs;                ///< Machine::run invocations
  Counter* pool_spills;         ///< payload releases spilled to the shared pool
  Gauge* last_run_host_s;       ///< host wall-clock of the last run
  Gauge* modeled_busy_s;        ///< accumulated modeled compute (sim backend)
  Counter* pipeline_sets;       ///< stream-pipeline data sets completed

  explicit RuntimeMetrics(int shards)
      : registry(shards),
        messages(registry.counter("fxpar_comm_messages_total")),
        message_bytes(registry.counter("fxpar_comm_message_bytes_total")),
        recv_wait_s(registry.histogram("fxpar_comm_recv_wait_seconds")),
        barriers(registry.counter("fxpar_sync_barriers_total")),
        barrier_wait_s(registry.histogram("fxpar_sync_barrier_wait_seconds")),
        io_ops(registry.counter("fxpar_io_operations_total")),
        collectives(registry.counter("fxpar_comm_collectives_total")),
        redists(registry.counter("fxpar_dist_redistributions_total")),
        redist_s(registry.histogram("fxpar_dist_redistribute_seconds")),
        halos(registry.counter("fxpar_dist_halo_exchanges_total")),
        halo_s(registry.histogram("fxpar_dist_halo_seconds")),
        plan_hits(registry.counter("fxpar_dist_plan_cache_hits_total")),
        plan_misses(registry.counter("fxpar_dist_plan_cache_misses_total")),
        collective_plan_hits(registry.counter("fxpar_comm_collective_plan_hits_total")),
        collective_plan_misses(registry.counter("fxpar_comm_collective_plan_misses_total")),
        loops(registry.counter("fxpar_core_parallel_loops_total")),
        loop_s(registry.histogram("fxpar_core_parallel_loop_seconds")),
        task_regions(registry.counter("fxpar_core_task_regions_total")),
        pinned_workers(registry.gauge("fxpar_exec_pinned_workers")),
        runs(registry.counter("fxpar_machine_runs_total")),
        pool_spills(registry.counter("fxpar_machine_pool_spills_total")),
        last_run_host_s(registry.gauge("fxpar_machine_last_run_host_seconds")),
        modeled_busy_s(registry.gauge("fxpar_sim_modeled_busy_seconds")),
        pipeline_sets(registry.counter("fxpar_apps_pipeline_sets_total")) {}
};

}  // namespace fxpar::metrics
