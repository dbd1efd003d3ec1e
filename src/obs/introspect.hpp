// fxobs: structured runtime introspection types.
//
// A Backend can describe the live state of its logical processors — who is
// running, who is parked and why, how deep the mailboxes are, which
// barriers are partially occupied — through these plain structs. They are
// the payload of the diagnostic bundles (diagnostics.hpp) emitted on
// deadlock, abort, or a stall-watchdog firing, and of the /healthz
// endpoint's per-worker liveness view.
//
// This header is dependency-free (standard library only) so both the exec
// layer (which produces introspections) and the obs layer (which renders
// them) can include it without a link cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fxpar::obs {

/// Live state of one logical processor.
struct WorkerState {
  int rank = -1;
  /// "running", "parked" (blocked in a machine service) or "finished".
  std::string state = "running";
  /// Why the worker is blocked ("recv", "barrier", "io", or the
  /// simulator's fuller "recv from proc N tag T"); empty when running.
  std::string block_reason;
  /// Messages deposited to this worker and not yet received.
  std::int64_t mailbox_depth = 0;
  /// Pinned CPU / NUMA node under an active placement policy, -1/-1 when
  /// unpinned (see exec/topology.hpp).
  int cpu = -1;
  int node = -1;
  /// Backend-clock stamp of the worker's last runtime-service activity
  /// (message, barrier, io); negative when unknown. The age
  /// `now - last_beat` is the heartbeat staleness shown by /healthz.
  double last_beat = -1.0;
};

/// Occupancy of one subset barrier: how many of the group's members are
/// currently parked inside it.
struct BarrierOccupancy {
  std::uint64_t group_key = 0;  ///< ProcessorGroup content key
  int members = 0;              ///< group size
  int waiting = 0;              ///< members parked in an unreleased episode
};

/// One backend introspection: a point-in-time view of every worker plus
/// the partially-occupied barriers. `now` is the backend clock at capture
/// (real seconds on threads, modeled seconds on the simulator).
struct Introspection {
  double now = 0.0;
  std::vector<WorkerState> workers;
  std::vector<BarrierOccupancy> barriers;
};

}  // namespace fxpar::obs
