// fxexec: process-per-rank execution backend.
//
// The third engine behind the exec::Backend seam, and the repo's first
// step off a single address space: run() forks one OS process per logical
// processor (the parent doubles as rank 0), so processor state is
// genuinely distributed — a rank's arrays live in its own address space,
// and every deposit/receive crosses a real transport (src/net/): shared
// memory mailbox rings by default, or pre-connected loopback TCP behind
// the same net::Channel interface (MachineConfig::transport).
//
// Coordination that must stay cheap and abort-safe lives in one small
// shared-memory control block mapped before fork, whatever the transport:
// one exec::RankLive per rank (parked flag, block reason, heartbeats,
// awaited barrier, final stats — the runtime core shared with the threaded
// engine, see rank_core.hpp), subset barriers keyed on group content
// (arrival counters + a futex the last arriver bumps), the global progress
// counter and the abort word. A parent monitor thread applies the same
// quiescence rule as the threaded engine (all unfinished ranks parked,
// nothing in transit, no awaited barrier already released, progress
// unchanged across two samples) and detects child death via waitpid;
// either failure — or a child exception — freezes a per-rank snapshot into
// the control block *before* raising the abort word, so diagnostic bundles
// show every rank's block reason exactly as the threaded backend's do.
//
// Determinism: messages are matched by (source, tag) in per-source FIFO
// order (a property the transports guarantee per stream), barriers
// synchronize identical groups, and data parallel loops run their static
// exec::loop_block on every backend. Deterministic programs therefore
// produce bit-identical array contents against sim and threads; the
// cross-backend parity sweep (tests/test_exec_parity.cpp) holds this.
//
// Observability across the fork: a finishing child writes its counters
// into the control block, then sends rank 0 one Done frame whose payload
// is its residue (exec/probe.hpp: RunResult counter and metric deltas,
// trace shard and flight events, one opaque blob); the parent absorbs it
// post-join so RunResult counters and snapshots, traces and /trace dumps
// look the same as on the threaded path.
//
// Run lifetime: the control block and the transport live as long as the
// backend; a run resets both (Transport::reset() empties every ring or
// stream) and forks fresh ranks over them. The join is event-driven: rank 0
// wakes on Done frames, the monitor's sleeps end when run() stops it, and
// children that reported done in a clean run are reaped with a blocking
// waitpid.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "exec/backend.hpp"
#include "exec/rank_core.hpp"
#include "machine/config.hpp"
#include "net/channel.hpp"

namespace fxpar::exec {

namespace procdetail {
struct Ctrl;  // the shared-memory control block; see proc_backend.cpp
}

class ProcBackend final : public Backend {
 public:
  explicit ProcBackend(const machine::MachineConfig& config);
  ~ProcBackend() override;

  ProcBackend(const ProcBackend&) = delete;
  ProcBackend& operator=(const ProcBackend&) = delete;

  BackendKind kind() const noexcept override { return BackendKind::Proc; }
  int num_procs() const noexcept override { return config_.num_procs; }

  void run(const std::function<void(int)>& body) override;

  obs::Introspection introspect() const override;
  obs::Introspection failure_introspection() const override;
  std::uint64_t progress() const noexcept override;

  double now(int rank) const override;
  BackendStats stats() const override;

  int current_rank() const override;
  void charge(double seconds) override;
  void deposit(int dst, std::uint64_t tag, Payload data) override;
  Payload receive(int src, std::uint64_t tag) override;
  void barrier(const pgroup::ProcessorGroup& group) override;
  void io_operation(std::size_t bytes) override;

 private:
  double now_s() const { return clock_.now_s(); }
  std::span<const RankLive> live() const;
  RankLive& self_live() const;
  void beat() { self_live().beat(now_s()); }
  void check_abort() const;  ///< throws AbortError when the abort word is up
  void reset_run_state();
  void attach_channel(int rank);  ///< this process's endpoint of transport_
  void drain_channel();      ///< moves transport frames into matched_/done_frames_
  /// First-failure protocol: claim the error slot, record `text`, freeze
  /// the per-rank introspection snapshot into the control block, then
  /// raise the abort word (`kind` 1 = abort, 2 = deadlock). Returns true
  /// when this caller was the first failer.
  bool fail_shm(std::uint32_t kind, const char* text);
  void wake_all_barriers();
  /// A forked rank's whole life; never returns. `parent` is rank 0's pid.
  void child_main(const std::function<void(int)>& body, int rank, pid_t parent);
  void wait_for_children();
  void reap_children();
  void monitor_loop();
  /// Sleeps up to `seconds` on the monitor's condition variable; returns
  /// true once stop_monitor() has been called.
  bool monitor_pause(double seconds);
  void stop_monitor();  ///< wakes the monitor out of any pause and joins it

  machine::MachineConfig config_;

  procdetail::Ctrl* ctrl_ = nullptr;
  std::size_t ctrl_bytes_ = 0;
  RunClock clock_;

  // The transport is built by the first run and reset by every later one.
  // Every process holds its own endpoint, attached fresh each run: the
  // parent attaches as rank 0 before forking, a child attaches as its own
  // rank right after.
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::Channel> chan_;
  MailStore<Payload> matched_;  ///< matched (or self-deposited) messages
  std::vector<net::Frame> done_frames_;  ///< rank 0: children's Done frames (residue)
  std::map<std::uint64_t, std::uint64_t> barrier_epoch_;  ///< per-group episode counter

  // Parent-side bookkeeping.
  std::vector<pid_t> pids_;  ///< rank -> child pid (0 for rank 0 / reaped)
  std::thread monitor_;
  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;  ///< guarded by monitor_mu_
  bool is_child_ = false;
};

}  // namespace fxpar::exec
