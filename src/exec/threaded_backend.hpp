// fxexec: real shared-memory threaded execution backend.
//
// ThreadedBackend runs the same Fx programs as the simulator, but each
// logical processor is a real OS thread and every machine service is built
// on shared memory:
//
//  - Messaging: one MPSC mailbox per processor. Producers push message
//    nodes onto a lock-free Treiber stack (the inbox); the owning worker
//    drains it, restores arrival order, and files messages under
//    (source, tag) — the same FIFO matching discipline as the simulator,
//    which is what makes deterministic programs produce bit-identical
//    payloads on both engines. A worker with no matching message parks on
//    its mailbox condition variable; senders wake it only when the parked
//    flag is up.
//
//  - Subset barriers: one combining *tree* per processor group, keyed on
//    the group's content key (the paper's localization technique: only
//    members of the current group synchronize, so sibling subgroups of a
//    TASK_PARTITION proceed independently). Members signal completed
//    subtrees up the tree with atomic counters; the root publishes a new
//    release epoch and broadcasts. Episodes are matched by a per-worker
//    per-group epoch counter, exactly like the simulator's per-group
//    barrier state.
//
//  - Time: there is no modeled clock. charge() is a no-op, now() is real
//    seconds since run() started, and the stats report real host time,
//    real blocked time and barrier counts. The simulator remains the
//    authority on modeled machine time (docs/execution.md).
//
//  - Loops: there is no loop service. Data parallel loops run each
//    member's static exec::loop_block inline, exactly as on the simulator.
//
// A processor body that throws aborts the run: every parked worker is
// woken and unwinds with AbortError, and run() rethrows the original
// exception. Per-worker live state, stats, introspection and the deadlock
// rule come from the runtime core shared with the process backend
// (rank_core.hpp); a parked worker that finds the run quiescent reports
// runtime::DeadlockError, mirroring the simulator's diagnosis.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/backend.hpp"
#include "exec/rank_core.hpp"
#include "machine/config.hpp"

namespace fxpar::exec {

class ThreadedBackend final : public Backend {
 public:
  explicit ThreadedBackend(const machine::MachineConfig& config);
  ~ThreadedBackend() override;

  BackendKind kind() const noexcept override { return BackendKind::Threads; }
  int num_procs() const noexcept override { return config_.num_procs; }

  void run(const std::function<void(int)>& body) override;
  double now(int rank) const override;
  BackendStats stats() const override;
  /// Thread-safe at any time: worker fields it reads are atomics, and the
  /// barrier registry is read under its own mutex.
  obs::Introspection introspect() const override;
  obs::Introspection failure_introspection() const override;
  std::uint64_t progress() const noexcept override;

  int current_rank() const override;
  void charge(double seconds) override;
  void deposit(int dst, std::uint64_t tag, Payload data) override;
  Payload receive(int src, std::uint64_t tag) override;
  void barrier(const pgroup::ProcessorGroup& group) override;
  void io_operation(std::size_t bytes) override;

 private:
  /// One message in flight. Allocated by the sender, freed by the receiver.
  struct MsgNode {
    MsgNode* next = nullptr;
    int src = -1;
    std::uint64_t tag = 0;
    Payload data;
  };

  /// Combining-tree barrier for one processor group. Node i's counter
  /// covers its own arrival plus its children's completed subtrees; the
  /// last decrement resets the node for the next episode and signals the
  /// parent, and the root's completion releases the episode.
  struct TreeBarrier {
    explicit TreeBarrier(std::vector<int> member_list);

    struct alignas(64) Node {
      std::atomic<int> pending{0};
      int fanin = 0;
    };
    std::vector<int> members;  ///< group-key collision guard: the registering group
    std::vector<Node> nodes;   ///< indexed by vrank; parent(i) = (i-1)/2
    std::atomic<std::uint64_t> released{0};  ///< highest released episode
    std::mutex mu;
    std::condition_variable cv;
  };

  /// The transport and barrier-cache side of one worker; its live state
  /// is the RankLive of the same rank in live_.
  struct alignas(64) Worker {
    // ---- mailbox: lock-free MPSC inbox, owner-side sorted store ----
    std::atomic<MsgNode*> inbox{nullptr};
    std::mutex mu;
    std::condition_variable cv;
    MailStore<std::unique_ptr<MsgNode>> sorted;  ///< owner thread only

    // ---- owner-thread-local state ----
    std::unordered_map<std::uint64_t, std::uint64_t> barrier_epoch;
    std::unordered_map<std::uint64_t, std::shared_ptr<TreeBarrier>> barrier_cache;
    std::thread thread;
  };

  double now_s() const { return clock_.now_s(); }
  Worker& self();
  RankLive& self_live() { return live_[current_rank()]; }
  std::span<const RankLive> live() const {
    return {live_.get(), static_cast<std::size_t>(num_procs())};
  }
  void drain_inbox(Worker& w);
  std::shared_ptr<TreeBarrier> barrier_for(Worker& me, const pgroup::ProcessorGroup& g);
  void fail(std::exception_ptr e);
  void wake_all();
  void reset_run_state();
  /// Frees every queued MsgNode (undrained inboxes and sorted stores).
  /// Call only when no worker thread is running.
  void free_pending_messages();
  /// The shared quiescence rule (rank_core.hpp) with this backend's
  /// wakeup evidence: an undrained inbox, or a TreeBarrier whose awaited
  /// episode is released.
  bool quiescent(std::uint64_t progress_snapshot) const;
  /// Fails the run with the shared DeadlockError text.
  void report_deadlock();

  machine::MachineConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<RankLive[]> live_;  ///< indexed by rank
  std::vector<std::uint64_t> traffic_;  ///< src * P + dst; row src owned by its worker
  RunClock clock_;

  std::atomic<bool> aborted_{false};
  std::mutex err_mu_;
  std::exception_ptr first_error_;

  std::atomic<std::uint64_t> progress_{0};  ///< bumped by deposits, releases and finishes

  mutable std::mutex breg_mu_;  ///< mutable: introspect() is const
  std::unordered_map<std::uint64_t, std::shared_ptr<TreeBarrier>> barrier_registry_;

  std::mutex io_mu_;
  int io_prev_proc_ = -1;  ///< guarded by io_mu_

  /// Snapshot taken by the first failure (deadlock diagnosis or processor
  /// exception) *before* wake_all() lets the other workers unwind — by the
  /// time run() rethrows, every worker reads "finished", so the states
  /// that explain the failure only exist at diagnosis time.
  mutable std::mutex fail_intro_mu_;
  obs::Introspection failure_intro_;  ///< guarded by fail_intro_mu_
};

}  // namespace fxpar::exec
