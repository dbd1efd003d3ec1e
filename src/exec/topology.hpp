// fxexec: host NUMA/CPU topology probe and worker-pinning policies.
//
// The threaded backend runs one OS thread per logical processor; where the
// kernel schedules those threads decides which memory controller serves
// their first-touch pages. This header provides
//
//   - HostTopology: the machine's NUMA nodes and their CPUs, parsed from
//     /sys/devices/system/node on Linux. When the sysfs tree is absent,
//     the machine has a single node, or the FX_NO_NUMA environment
//     variable is set, the probe degrades to one flat node holding every
//     CPU — every policy below keeps working, it just loses the
//     node-awareness.
//
//   - PinPolicy: how MachineConfig::pinning places workers on CPUs.
//       none    — no affinity calls at all (the default; test runners
//                 oversubscribe the host with many concurrent Machines).
//       compact — fill node 0's CPUs first, then node 1, ... Minimizes
//                 the number of nodes touched; best for communication-
//                 heavy runs that fit on one node.
//       scatter — round-robin across nodes. Maximizes aggregate memory
//                 bandwidth for bandwidth-bound data parallel loops.
//       numa    — contiguous blocks of workers per node (workers 0..k-1
//                 on node 0, ...), matching the first-touch placement of
//                 block-distributed DistArrays: neighboring ranks share a
//                 node, so halo traffic stays node-local.
//     Workers wrap around when there are more of them than CPUs.
//
// Data placement needs no allocator of its own. DistArray blocks are plain
// std::vectors, constructed and zero-filled by the owning worker, so a
// fresh page faults on that worker's NUMA node (Linux's first-touch rule).
// A freed block returns to the malloc arena it came from, the owning
// worker's own, and that worker's next block reuses its pages. Workers are
// spawned per run, so on a multi-node host a later run's worker may
// inherit an arena whose pages sit on another node.
//
// Pinning is a host-side placement concern only: it never changes modeled
// time, message order, or any computed result on either backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fxpar::exec {

/// Worker-thread placement policy of the threaded backend.
enum class PinPolicy : std::uint8_t { None, Compact, Scatter, Numa };

/// "none" / "compact" / "scatter" / "numa" (stable spelling used by bench
/// records and CLIs).
const char* pin_policy_name(PinPolicy p) noexcept;

/// Parses a policy name; returns false (leaving `out` untouched) on an
/// unknown spelling.
bool parse_pin_policy(const std::string& name, PinPolicy& out) noexcept;

/// The host's NUMA shape: every node with its CPUs, ascending node id.
struct HostTopology {
  struct Node {
    int id = 0;
    std::vector<int> cpus;  ///< ascending CPU ids
  };
  std::vector<Node> nodes;

  int num_cpus() const noexcept {
    std::size_t n = 0;
    for (const Node& nd : nodes) n += nd.cpus.size();
    return static_cast<int>(n);
  }
  int num_nodes() const noexcept { return static_cast<int>(nodes.size()); }
  /// True when the probe saw no NUMA structure (one node or fallback).
  bool flat() const noexcept { return nodes.size() <= 1; }

  /// Probes /sys/devices/system/node. Falls back to one flat node with
  /// hardware_concurrency() CPUs when the tree is unreadable, on non-Linux
  /// hosts, or when the FX_NO_NUMA environment variable is set (the
  /// escape hatch for broken sysfs or containerized runners).
  static HostTopology detect();

  /// A synthetic topology for tests: `cpus_per_node` CPUs on each of
  /// `nnodes` nodes, CPU ids dealt out contiguously per node.
  static HostTopology synthetic(int nnodes, int cpus_per_node);
};

/// Where one worker thread was placed: the CPU it is pinned to (-1 when
/// unpinned) and the NUMA node of that CPU (-1 when unknown).
struct WorkerPlacement {
  int cpu = -1;
  int node = -1;
};

/// The placement of `workers` worker threads under `policy`. PinPolicy::None
/// returns all-unpinned placements; the other policies wrap around when
/// there are more workers than CPUs. Deterministic: same topology + policy
/// + count always yields the same plan.
std::vector<WorkerPlacement> make_pin_plan(const HostTopology& topo, PinPolicy policy,
                                           int workers);

/// Applies `p` to the calling thread via pthread_setaffinity_np. Returns
/// false when `p` is unpinned, the platform has no affinity call, or the
/// kernel rejected the mask (e.g. the CPU is outside the process's cgroup
/// cpuset) — callers treat failure as "run unpinned", never as an error.
bool pin_current_thread(const WorkerPlacement& p) noexcept;

/// Parses a sysfs cpulist string ("0-3,8,10-11") into ascending CPU ids.
/// Exposed for tests; tolerant of trailing whitespace/newline.
std::vector<int> parse_cpulist(const std::string& s);

}  // namespace fxpar::exec
