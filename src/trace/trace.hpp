// fxpar trace: structured, timestamped event recording for every backend.
//
// The TraceRecorder is the substrate of the observability stack: every
// layer of the runtime reports what it is doing — the Simulator charges
// busy intervals, the backends record message, barrier and I/O waits, and
// the directive layer (TASK_REGION / ON / parallel loops / redistribution /
// collectives) opens named scoped spans so all of it is attributed to the
// directive nest that caused it. Consumers are chrome_export.hpp (Perfetto
// timelines), phase_report.hpp (per-span busy/wait/comm aggregates) and
// critical_path.hpp (longest happens-before chain).
//
// One recording path serves all three backends. Every hook appends to the
// calling rank's own shard and touches no other rank's state, so fibers
// (sim), worker threads (threads) and forked processes (proc, which ship
// their shard to rank 0) record without locks. Nothing the hooks need
// travels inside messages or barriers: finalize() merges the shards once
// after the run and derives every cross-rank fact there — it pairs the k-th
// (src, dst, tag) send with the k-th (src, tag) receive at dst (the
// backends' per-(source, tag) FIFO matching), and finds each barrier
// episode's last arriver from its members' own arrival notes.
//
// Recording never changes modeled time: the recorder only observes the
// clocks through a clock callback. When tracing is disabled
// (MachineConfig::trace == false) no recorder exists and every hook is a
// single null-pointer test.
//
// This library is dependency-free by design: the runtime links it, not the
// other way round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fxpar::trace {

namespace blob {
class Reader;
}

/// Why a processor was off the (modeled) CPU.
enum class WaitKind : std::uint8_t { Recv, Barrier, Io };

const char* wait_kind_name(WaitKind k);

/// One completed named interval on one processor's timeline. Spans nest
/// per processor; `depth` 0 is the per-processor root ("program") span.
/// The accounting fields are *inclusive*: time charged while any deeper
/// span was also open is counted here too.
struct Span {
  int proc = -1;
  int depth = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::string name;
  std::string category;
  double busy = 0.0;          ///< modeled compute while open
  double recv_wait = 0.0;     ///< waiting for message arrivals
  double barrier_wait = 0.0;  ///< waiting in subset barriers
  double io_wait = 0.0;       ///< waiting on the sequential I/O device
  std::uint64_t messages = 0; ///< messages deposited while open
  std::uint64_t bytes = 0;    ///< bytes deposited while open
  std::uint64_t plan_hits = 0;    ///< redistribution plan-cache hits while open
  std::uint64_t plan_misses = 0;  ///< redistribution plan-cache misses while open

  double duration() const { return t1 - t0; }
  double wait() const { return recv_wait + barrier_wait + io_wait; }
};

/// One wait interval on one processor, with the happens-before edge that
/// ended it: the wait could not have ended before `cause_proc` reached
/// `cause_time` (sender finished depositing; last barrier arriver arrived;
/// previous I/O operation drained).
struct Wait {
  int proc = -1;
  WaitKind kind = WaitKind::Recv;
  double t0 = 0.0;
  double t1 = 0.0;
  int cause_proc = -1;
  double cause_time = 0.0;
  std::uint64_t ref = 0;  ///< message id / barrier id (1-based; 0 = none)
};

/// One point-to-point message (direct deposit).
struct MessageRecord {
  std::uint64_t id = 0;  ///< 1-based, in (send_t0, src) order
  int src = -1;
  int dst = -1;
  std::uint64_t tag = 0;
  std::uint64_t bytes = 0;
  double send_t0 = 0.0;  ///< sender started the deposit
  double send_t1 = 0.0;  ///< deposit complete on the sender
  double recv_t = -1.0;  ///< receiver consumed it (< 0: never received)
};

/// One subset barrier instance.
struct BarrierRecord {
  std::uint64_t id = 0;  ///< 1-based, in release order
  std::uint64_t group_key = 0;
  std::vector<int> procs;        ///< arrival order
  std::vector<double> arrivals;  ///< parallel to `procs`
  double release = 0.0;
  int last_arriver = -1;
};

/// Where a worker thread landed under MachineConfig::pinning (threaded
/// backend only): host CPU and NUMA node, or -1/-1 when unpinned.
struct PlacementRecord {
  int cpu = -1;
  int node = -1;
};

/// Per-processor accounting totals (denominators for coverage metrics).
struct ProcTotals {
  double busy = 0.0;
  double recv_wait = 0.0;
  double barrier_wait = 0.0;
  double io_wait = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  double active() const { return busy + recv_wait + barrier_wait + io_wait; }
};

class TraceRecorder {
 public:
  /// `clock(rank)` must return the current time of `rank`; the recorder
  /// never advances any clock.
  using Clock = std::function<double(int)>;

  /// Where a span's busy time comes from. `Charged`: the simulator reports
  /// modeled compute through add_busy(). `Elapsed`: the real-time backends
  /// charge nothing, so a span's busy is stamped at close as its elapsed
  /// time minus the waits recorded while it was open.
  enum class Busy : std::uint8_t { Charged, Elapsed };

  explicit TraceRecorder(int num_procs, Busy busy = Busy::Charged);

  int num_procs() const noexcept { return static_cast<int>(open_.size()); }
  void set_clock(Clock clock) { clock_ = std::move(clock); }

  /// Drops all recorded state (shards, merged records, totals); keeps the
  /// clock. Called at the start of every Machine::run.
  void reset();

  // ---- spans ----

  void begin_span(int proc, std::string name, std::string category);
  void end_span(int proc);
  int open_depth(int proc) const;

  // ---- recording hooks ----
  //
  // Each hook touches only the named rank's shard, span stack and totals;
  // call it only from that rank's fiber, thread or process.

  /// Modeled compute charged to `proc` (Simulator::advance).
  void add_busy(int proc, double dt);

  /// Deposit of `bytes` from `src` to `dst`; [t0, t1] is the sender-side
  /// send interval.
  void message_sent(int src, int dst, std::uint64_t tag, std::uint64_t bytes, double t0,
                    double t1);

  /// `dst` consumed the oldest (src, tag) message: it entered the receive
  /// at `wait_t0` and the payload was available at `ready_t`. The recv wait
  /// is accounted now; its cause (the matched send) is filled in at merge.
  void message_received(int dst, int src, std::uint64_t tag, double wait_t0, double ready_t);

  /// `proc`'s view of its next barrier episode over the group hashed by
  /// `group_key`: it arrived at `arrive_t` and was released at
  /// `release_t`. The barrier wait is accounted now; its cause (the
  /// episode's last arriver) is filled in at merge. `arrival_seq` orders
  /// arrivals that share a timestamp: the simulator passes its service
  /// counter, so the latest-executing fiber among tied modeled arrivals is
  /// the last arriver; real-time stamps leave it 0 and ties go to the
  /// highest rank.
  void barrier_note(int proc, std::uint64_t group_key, double arrive_t, double release_t,
                    std::uint64_t arrival_seq = 0);

  /// `proc` was stalled on the sequential I/O device over [t0, t1]; if it
  /// queued behind another operation, `cause_proc`/`cause_time` name the
  /// previous operation's owner and completion time (else pass proc / t0).
  void io_wait(int proc, double t0, double t1, int cause_proc, double cause_time);

  /// Redistribution plan-cache hit (or miss) observed by `proc`: bumps the
  /// counters of `proc`'s open spans.
  void plan_cache_event(int proc, bool hit);

  /// Worker `proc` was pinned to host CPU `cpu` on NUMA node `node` for
  /// this run (threaded backend, pinning active).
  void set_worker_placement(int proc, int cpu, int node) {
    auto& pl = placements_[static_cast<std::size_t>(proc)];
    pl.cpu = cpu;
    pl.node = node;
  }

  // ---- cross-process shard shipping (proc backend) ----
  //
  // A forked child records into its copy-on-write shard like any rank; at
  // body end its residue (exec/probe.hpp) carries its rank's state (the
  // shard plus its per-proc totals, placement and last-activity stamp) to
  // the parent, which absorbs it before finalize(). Absorbing *assigns* the
  // rank's state — correct because only the owning process records for it.

  /// Appends rank `proc`'s recorded state to `out`.
  void serialize_shard(int proc, std::vector<std::byte>& out) const;
  /// Installs a shard written by serialize_shard() in a (forked) copy of
  /// this recorder; the rank is read from the blob.
  void absorb_shard(blob::Reader& in);

  /// Closes any still-open spans at `finish`, freezes the run's completion
  /// time and merges every rank's shard into the records below. Call once
  /// per run, after every rank has finished.
  void finalize(double finish);

  // ---- merged records (for exporters and analyzers; valid after finalize) ----

  const std::vector<Span>& spans() const noexcept { return done_; }
  const std::vector<Wait>& waits() const noexcept { return waits_; }
  const std::vector<MessageRecord>& messages() const noexcept { return messages_; }
  const std::vector<BarrierRecord>& barriers() const noexcept { return barriers_; }
  const std::vector<PlacementRecord>& placements() const noexcept { return placements_; }
  const std::vector<ProcTotals>& proc_totals() const noexcept { return totals_; }
  double finish_time() const noexcept { return finish_; }

  /// Time of the last recorded event on `proc` (span end, busy interval,
  /// send, or wait end) — unlike span ends, unaffected by finalize()
  /// closing root spans at the run's finish time.
  double last_activity(int proc) const noexcept {
    return last_activity_[static_cast<std::size_t>(proc)];
  }

 private:
  /// One consumed message, noted by its receiver; `wait` indexes the
  /// receiver's recv wait in its shard (-1 when it did not wait).
  struct RecvNote {
    int src = -1;
    std::uint64_t tag = 0;
    double recv_t = 0.0;
    std::int64_t wait = -1;
  };
  /// One member's view of one barrier episode; `wait` as in RecvNote.
  struct BarrierNote {
    std::uint64_t group_key = 0;
    std::uint64_t arrival_seq = 0;
    double arrive_t = 0.0;
    double release_t = 0.0;
    std::int64_t wait = -1;
  };
  /// Everything one rank records, in its own program order.
  struct Shard {
    std::vector<Span> spans;
    std::vector<Wait> waits;
    std::vector<MessageRecord> sends;
    std::vector<RecvNote> recvs;
    std::vector<BarrierNote> barriers;
  };

  double now(int proc) const;
  /// Accounts one wait to `proc` and its open spans; returns its index in
  /// the rank's shard.
  std::int64_t add_wait(int proc, WaitKind kind, double t0, double t1, int cause_proc,
                        double cause_time);
  void touch(int proc, double t);
  void merge_messages();
  void merge_barriers();

  Clock clock_;
  Busy busy_;
  std::vector<std::vector<Span>> open_;  ///< per-proc stack of open spans
  std::vector<Shard> shards_;            ///< per-proc, cleared by finalize()
  std::vector<PlacementRecord> placements_;  ///< per-proc; each rank writes its own slot
  std::vector<ProcTotals> totals_;
  std::vector<double> last_activity_;  ///< per-proc time of the last event
  double finish_ = 0.0;

  std::vector<Span> done_;
  std::vector<Wait> waits_;
  std::vector<MessageRecord> messages_;
  std::vector<BarrierRecord> barriers_;
};

/// RAII closer for a span opened through Context::span(). Inert when
/// default-constructed (tracing disabled).
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceRecorder* rec, int proc) : rec_(rec), proc_(proc) {}
  ScopedSpan(ScopedSpan&& o) noexcept : rec_(o.rec_), proc_(o.proc_) { o.rec_ = nullptr; }
  ScopedSpan& operator=(ScopedSpan&& o) noexcept {
    if (this != &o) {
      close();
      rec_ = o.rec_;
      proc_ = o.proc_;
      o.rec_ = nullptr;
    }
    return *this;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  /// Ends the span now (idempotent; destruction does the same).
  void close() {
    if (rec_) {
      rec_->end_span(proc_);
      rec_ = nullptr;
    }
  }

 private:
  TraceRecorder* rec_ = nullptr;
  int proc_ = -1;
};

}  // namespace fxpar::trace
