// fxexec: the execution-backend seam of the fxpar machine.
//
// The paper's execution model — per-processor mapping stacks, minimal
// processor subsets, localized subset barriers — does not care *how* the
// logical processors execute: the original Fx compiler targeted real
// Paragon nodes, while this reproduction started from a deterministic
// single-threaded fiber simulator. Backend is the seam between the two.
// The Machine owns exactly one Backend, and Context calls it directly for
// every processor-visible service:
//
//   - launching the SPMD program body on every logical processor,
//   - direct-deposit messaging (deposit / receive),
//   - subset barriers over the current processor group,
//   - the sequential I/O device,
//   - the per-processor clock (modeled time on the simulator, real
//     elapsed time on the threaded engine).
//
// Each service reports itself once, with the timestamps it already takes,
// through the backend's instrumentation probe (probe.hpp): one call feeds
// the trace, the metrics and the flight recorder, whichever are on.
//
// Implementations:
//   sim_backend.hpp      SimBackend       — the discrete-event fiber
//                        simulator; authoritative *modeled* machine time.
//   threaded_backend.hpp ThreadedBackend  — one OS thread per logical
//                        processor over real shared memory; reports real
//                        host time, wait time and barrier counts.
//   proc_backend.hpp     ProcBackend      — one OS process per logical
//                        processor; messages cross a src/net/ transport
//                        (shm rings or loopback TCP).
//
// The two concurrent backends share one runtime core (rank_core.hpp): the
// message matcher, per-rank live state, the deadlock rule and the failure
// snapshot.
//
// The determinism contract (docs/execution.md): a program whose outputs
// depend only on computed values and received payloads — not on clocks —
// produces bit-identical array contents on every backend, because
// messages are matched by (source, tag) in per-source FIFO order and
// barriers synchronize exactly the same groups on every engine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/probe.hpp"
#include "obs/introspect.hpp"
#include "pgroup/group.hpp"
#include "runtime/simulator.hpp"

namespace fxpar::exec {

/// Raw bytes exchanged by the direct-deposit layer (same representation on
/// every backend; machine::Payload aliases this).
using Payload = std::vector<std::byte>;

/// Which execution engine a MachineConfig selects.
enum class BackendKind : std::uint8_t {
  Sim,      ///< deterministic discrete-event fiber simulator
  Threads,  ///< one OS thread per logical processor, shared memory
  Proc,     ///< one OS *process* per logical processor (fork + src/net/ transport)
};

/// "sim" / "threads" / "proc" (stable spelling used by bench records and CLIs).
const char* backend_kind_name(BackendKind k) noexcept;

/// Which transport moves the process backend's frames (ignored by the
/// in-address-space backends): shared-memory mailbox rings, or loopback
/// TCP — the multi-node-shaped path behind the same net::Channel seam.
enum class TransportKind : std::uint8_t {
  Shm,  ///< mmap'd per-rank MPSC rings with futex park/wake
  Tcp,  ///< pre-connected pairwise loopback TCP sockets
};

/// "shm" / "tcp" (stable spelling used by bench records and CLIs).
const char* transport_kind_name(TransportKind t) noexcept;

/// Static block partition of [lo, hi) over `parts`: piece `which` as
/// [first, last). This is THE ownership map of every data parallel loop
/// (core::parallel_for / parallel_reduce, hpf::on_elements): each member of
/// the current group runs its own block inline on every backend, so
/// iteration ownership is identical on sim, threads and proc.
constexpr std::pair<std::int64_t, std::int64_t> loop_block(std::int64_t lo, std::int64_t hi,
                                                           int parts, int which) noexcept {
  const std::int64_t n = hi - lo;
  const std::int64_t b = (n + parts - 1) / parts;
  const std::int64_t first = lo + static_cast<std::int64_t>(which) * b;
  const std::int64_t last = std::min(hi, first + b);
  return {first, std::max(first, last)};
}

/// Throws std::out_of_range("<what> <rank>") unless 0 <= rank < procs: the
/// range check of every rank a processor operation names.
inline void require_rank(int rank, int procs, const char* what) {
  if (rank < 0 || rank >= procs) {
    throw std::out_of_range(std::string(what) + " " + std::to_string(rank));
  }
}

/// Unwinds a processor body that was parked (or about to park) when some
/// other processor failed; the concurrent backends swallow it and rethrow
/// the first real exception instead.
class AbortError : public std::runtime_error {
 public:
  AbortError() : std::runtime_error("fxexec: run aborted by a failing processor") {}
};

/// Aggregate per-run numbers a backend hands back after run(). The
/// interpretation of the clock fields is backend-defined: modeled seconds
/// on the simulator, real host seconds on the threaded and process engines.
struct BackendStats {
  double finish_time = 0.0;  ///< completion time of the slowest processor
  std::vector<runtime::ProcClock> clocks;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t barriers = 0;
  double wait_ms = 0.0;  ///< total *real* blocked time (threads and proc; 0 on sim)
  std::vector<std::uint64_t> traffic;  ///< src * P + dst, when recorded

  /// Per-worker NUMA node ids under an active pinning policy (threaded
  /// backend; empty otherwise or with pinning none/failed). Index
  /// is the logical rank; -1 marks a worker that could not be pinned.
  std::vector<int> numa_nodes;
};

/// One execution engine. A Backend instance is owned by one Machine; the
/// operations in the "processor operations" block are legal only from
/// inside a processor body started by run() and always act on the calling
/// logical processor.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const noexcept = 0;
  const char* name() const noexcept { return backend_kind_name(kind()); }
  virtual int num_procs() const noexcept = 0;

  /// Runs `body(rank)` to completion on every logical processor. Rethrows
  /// the first exception escaping any processor body.
  virtual void run(const std::function<void(int)>& body) = 0;

  /// Installs the instrumentation probe; each of its sinks may be null
  /// (off). Every service hook reports through it.
  void set_probe(const Probe& probe) noexcept { probe_ = probe; }
  const Probe& probe() const noexcept { return probe_; }

  /// Live structured introspection: per-worker state (running / parked +
  /// block reason / finished), mailbox depths, placement, heartbeats, and
  /// barrier occupancy. The threaded backend answers this from any thread
  /// at any time (all reads are atomics or registry reads under their own
  /// locks); the simulator's answer is safe only from the run thread while
  /// no run is executing (its state is fiber-mutated).
  /// The default is an empty introspection for backends without the hook.
  virtual obs::Introspection introspect() const { return {}; }

  /// Introspection captured at the moment a failure was diagnosed — the
  /// deadlock report or the first processor exception — before the other
  /// workers were woken to unwind. Empty if the last run did not fail (or
  /// the backend does not capture one); the Machine prefers this over a
  /// live introspect() when building a failure diagnostic bundle.
  virtual obs::Introspection failure_introspection() const { return {}; }

  /// Monotone progress stamp for the stall watchdog: changes whenever the
  /// backend performs runtime-service work (messages, barriers, io, worker
  /// completion). A constant value across T seconds means no global
  /// progress. Default 0 = no progress signal.
  virtual std::uint64_t progress() const noexcept { return 0; }

  /// Clock of `rank`: modeled seconds (sim) or real seconds since the
  /// current run() started (threads, proc). Valid for the tracer's clock
  /// callback as well as for Context::now().
  virtual double now(int rank) const = 0;

  /// Counters of the finished (or in-flight) run.
  virtual BackendStats stats() const = 0;

  // ---- processor operations (inside a processor body only) ----

  /// Logical rank of the calling processor.
  virtual int current_rank() const = 0;

  /// Charges modeled compute time to the calling processor. The simulator
  /// advances the virtual clock; the threaded engine ignores it (real time
  /// passes by itself).
  virtual void charge(double seconds) = 0;

  /// Deposits a message into the mailbox of `dst`.
  virtual void deposit(int dst, std::uint64_t tag, Payload data) = 0;

  /// Next message from (`src`, `tag`); blocks until available.
  virtual Payload receive(int src, std::uint64_t tag) = 0;

  /// Subset barrier over `group`; the caller must be a member. Only
  /// members of the same group synchronize — sibling subgroups of a
  /// TASK_PARTITION never affect each other.
  virtual void barrier(const pgroup::ProcessorGroup& group) = 0;

  /// Blocking operation on the machine's sequential I/O device.
  virtual void io_operation(std::size_t bytes) = 0;

 protected:
  Probe probe_;
};

}  // namespace fxpar::exec
