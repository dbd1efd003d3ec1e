#include "exec/proc_backend.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <stdexcept>
#include <string>

#include "net/shm_channel.hpp"
#include "net/socket_channel.hpp"

namespace fxpar::exec {

// ---------------------------------------------------------------------------
// The shared-memory control block
//
// One fixed-size block, mapped MAP_SHARED | MAP_ANONYMOUS before the first
// fork, so every rank — parent and children — addresses the *same* physical
// words. Everything the ranks must agree on *cheaply* lives here: the abort
// word (doubling as the transports' stop flag), one RankLive per rank (the
// shared runtime core's live state and final stats, read by the monitor and
// by introspection), subset-barrier state and the progress counter.
// Variable-size state (payloads, a finishing child's residue) travels over
// the net::Channel instead.

namespace procdetail {

inline constexpr int kMaxProcs = 64;       ///< barrier membership is a u64 rank mask
inline constexpr int kBarrierSlots = 256;  ///< open-addressed group-key table
inline constexpr int kErrBytes = 4096;
inline constexpr std::uint64_t kClaimKey = ~std::uint64_t{0};  ///< slot mid-claim

// Abort word: 0 = running, 1 = abort (exception / child death), 2 = deadlock.
inline constexpr std::uint32_t kAbortNone = 0;
inline constexpr std::uint32_t kAbortError = 1;
inline constexpr std::uint32_t kAbortDeadlock = 2;

/// One subset barrier, keyed on the group's content key, claimed on first
/// use by linear probing. The epoch word is the futex all waiters sleep on;
/// the last arriver bumps it and wakes everyone — the localized-barrier
/// property (only members of this group ever touch this slot) comes from
/// keying on group content exactly like the other two backends.
struct BarrierSlot {
  std::atomic<std::uint64_t> key{0};      ///< 0 free, kClaimKey mid-claim
  std::atomic<std::uint64_t> members{0};  ///< rank bitmask (collision guard)
  std::atomic<std::uint32_t> size{0};
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<std::uint32_t> epoch{0};    ///< released episodes; the futex word
  std::atomic<std::uint32_t> waiting{0};  ///< members parked in an unreleased episode
};

struct Ctrl {
  std::atomic<std::uint32_t> abort{0};      ///< also the channels' stop flag
  std::atomic<std::uint32_t> err_claim{0};  ///< first-failer CAS gate
  std::atomic<std::uint32_t> frozen{0};     ///< failure snapshot below is valid
  char err[kErrBytes] = {};

  std::atomic<std::uint64_t> progress{0};
  /// Data frames sent and not yet drained by their destination; nonzero
  /// means the system will move on its own, so no deadlock verdict.
  std::atomic<std::int64_t> in_transit{0};

  std::atomic<std::uint32_t> io_lock{0};  ///< 0 free, else owning rank + 1
  std::atomic<std::int32_t> io_prev{-1};

  // Failure-time snapshot, written by the first failer *before* it raises
  // the abort word (every other rank then unwinds into "finished", so the
  // states that explain the failure only exist at diagnosis time).
  FrozenRank frozen_ranks[kMaxProcs];
  obs::BarrierOccupancy frozen_barriers[kBarrierSlots];
  std::uint32_t frozen_barrier_n = 0;

  BarrierSlot barriers[kBarrierSlots];
  /// Owner-written live state; the final counters are read by the parent
  /// only after the rank's `done` (or its reap).
  RankLive ranks[kMaxProcs];
  std::atomic<std::uint64_t> traffic[kMaxProcs * kMaxProcs];
};

}  // namespace procdetail

namespace {

using procdetail::Ctrl;

void sleep_s(double seconds) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  ::nanosleep(&ts, nullptr);
}

// Process-shared futexes on the control block (no FUTEX_PRIVATE_FLAG: the
// waiters live in different processes). Non-Linux fallback: bounded sleeps —
// every wait site re-checks its condition on a short period anyway.
void futex_wait_u32(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                    double timeout_s) {
#ifdef __linux__
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), FUTEX_WAIT, expected, &ts,
            nullptr, 0);
#else
  if (addr->load(std::memory_order_acquire) == expected) {
    sleep_s(std::min(timeout_s, 1e-3));
  }
#endif
}

void futex_wake_all_u32(std::atomic<std::uint32_t>* addr) {
#ifdef __linux__
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), FUTEX_WAKE, INT_MAX, nullptr,
            nullptr, 0);
#else
  (void)addr;
#endif
}

/// Finds (or claims) the barrier slot of `g` in the shared table. A slot is
/// claimed with a CAS to the sentinel key, its shape published, then the
/// real key release-stored; probers seeing the sentinel spin briefly.
procdetail::BarrierSlot* barrier_slot_for(Ctrl* c, const pgroup::ProcessorGroup& g) {
  std::uint64_t mask = 0;
  for (int m : g.members()) mask |= std::uint64_t{1} << m;
  std::uint64_t key = g.key();
  if (key == 0 || key == procdetail::kClaimKey) key ^= 0x9e3779b97f4a7c15ull;
  const auto n = static_cast<std::uint32_t>(g.size());
  const std::size_t start = key % procdetail::kBarrierSlots;
  for (int probe = 0; probe < procdetail::kBarrierSlots; ++probe) {
    procdetail::BarrierSlot& s =
        c->barriers[(start + static_cast<std::size_t>(probe)) % procdetail::kBarrierSlots];
    for (;;) {
      const std::uint64_t k = s.key.load(std::memory_order_acquire);
      if (k == procdetail::kClaimKey) {
        sleep_s(1e-6);  // another rank is mid-claim; its key lands in microseconds
        continue;
      }
      if (k == key) {
        const std::uint64_t registered = s.members.load(std::memory_order_acquire);
        if (registered != mask || s.size.load(std::memory_order_acquire) != n) {
          std::vector<int> ranks;
          for (int b = 0; b < procdetail::kMaxProcs; ++b) {
            if ((registered >> b) & 1u) ranks.push_back(b);
          }
          pgroup::throw_group_key_collision(ranks, g, "ProcBackend barrier table");
        }
        return &s;
      }
      if (k == 0) {
        std::uint64_t expect = 0;
        if (s.key.compare_exchange_strong(expect, procdetail::kClaimKey,
                                          std::memory_order_acq_rel)) {
          s.members.store(mask, std::memory_order_relaxed);
          s.size.store(n, std::memory_order_relaxed);
          s.key.store(key, std::memory_order_release);
          return &s;
        }
        continue;  // lost the claim race; re-examine this slot
      }
      break;  // different group; next probe
    }
  }
  throw std::runtime_error("ProcBackend: barrier slot table full (too many distinct groups)");
}

/// Writes every barrier with at least one member arrived in an unreleased
/// episode into `out` (capacity kBarrierSlots); returns how many.
std::uint32_t occupied_barriers(const Ctrl& c, obs::BarrierOccupancy* out) {
  std::uint32_t n = 0;
  for (const auto& s : c.barriers) {
    const std::uint64_t k = s.key.load(std::memory_order_acquire);
    if (k == 0 || k == procdetail::kClaimKey) continue;
    const auto arrived = s.arrived.load(std::memory_order_acquire);
    if (arrived == 0) continue;
    out[n++] = obs::BarrierOccupancy{k, static_cast<int>(s.size.load(std::memory_order_relaxed)),
                                     static_cast<int>(arrived)};
  }
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown

ProcBackend::ProcBackend(const machine::MachineConfig& config) : config_(config) {
  if (config_.num_procs <= 0 || config_.num_procs > procdetail::kMaxProcs) {
    throw std::invalid_argument("ProcBackend: num_procs must be in [1, " +
                                std::to_string(procdetail::kMaxProcs) + "]");
  }
  ctrl_bytes_ = sizeof(Ctrl);
  void* mem = ::mmap(nullptr, ctrl_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error("ProcBackend: mmap of the shared control block failed");
  }
  ctrl_ = new (mem) Ctrl();
  pids_.assign(static_cast<std::size_t>(config_.num_procs), 0);
}

ProcBackend::~ProcBackend() {
  if (monitor_.joinable()) stop_monitor();
  // Children are reaped by run(); a child process never destroys the
  // backend (it leaves through _Exit). Atomics are trivially destructible.
  if (ctrl_ != nullptr && !is_child_) ::munmap(ctrl_, ctrl_bytes_);
}

void ProcBackend::reset_run_state() {
  Ctrl& c = *ctrl_;
  c.abort.store(0, std::memory_order_relaxed);
  c.err_claim.store(0, std::memory_order_relaxed);
  c.frozen.store(0, std::memory_order_relaxed);
  c.err[0] = '\0';
  c.progress.store(0, std::memory_order_relaxed);
  c.in_transit.store(0, std::memory_order_relaxed);
  c.io_lock.store(0, std::memory_order_relaxed);
  c.io_prev.store(-1, std::memory_order_relaxed);
  c.frozen_barrier_n = 0;
  for (int r = 0; r < num_procs(); ++r) c.ranks[r].reset();
  for (auto& s : c.barriers) {
    s.key.store(0, std::memory_order_relaxed);
    s.members.store(0, std::memory_order_relaxed);
    s.size.store(0, std::memory_order_relaxed);
    s.arrived.store(0, std::memory_order_relaxed);
    s.epoch.store(0, std::memory_order_relaxed);
    s.waiting.store(0, std::memory_order_relaxed);
  }
  if (config_.record_traffic) {
    const std::size_t n = static_cast<std::size_t>(num_procs()) *
                          static_cast<std::size_t>(num_procs());
    for (std::size_t i = 0; i < n; ++i) c.traffic[i].store(0, std::memory_order_relaxed);
  }
  matched_.clear();
  done_frames_.clear();
  barrier_epoch_.clear();
  pids_.assign(static_cast<std::size_t>(num_procs()), 0);
}

// ---------------------------------------------------------------------------
// Clocks, heartbeats, abort

double ProcBackend::now(int rank) const {
  require_rank(rank, num_procs(), "ProcBackend::now: bad rank");
  // The run clock restarts before the fork, so every process reads the
  // same time base.
  return now_s();
}

int ProcBackend::current_rank() const { return CallingRank::of(this, "ProcBackend"); }

void ProcBackend::charge(double /*seconds*/) {
  // Real time passes by itself; modeled cost parameters do not apply here.
}

std::span<const RankLive> ProcBackend::live() const {
  return {ctrl_->ranks, static_cast<std::size_t>(num_procs())};
}

RankLive& ProcBackend::self_live() const { return ctrl_->ranks[CallingRank::rank]; }

void ProcBackend::check_abort() const {
  if (ctrl_->abort.load(std::memory_order_acquire) != procdetail::kAbortNone) {
    throw AbortError{};
  }
}

// ---------------------------------------------------------------------------
// First-failure protocol

bool ProcBackend::fail_shm(std::uint32_t kind, const char* text) {
  Ctrl& c = *ctrl_;
  std::uint32_t expect = 0;
  if (!c.err_claim.compare_exchange_strong(expect, 1, std::memory_order_acq_rel)) {
    return false;  // someone failed first; their diagnosis stands
  }
  std::snprintf(c.err, procdetail::kErrBytes, "%s", text != nullptr ? text : "unknown error");
  // Freeze what explains the failure before the abort word lets every other
  // rank unwind into "finished".
  for (int r = 0; r < num_procs(); ++r) c.frozen_ranks[r] = freeze(c.ranks[r]);
  c.frozen_barrier_n = occupied_barriers(c, c.frozen_barriers);
  c.frozen.store(1, std::memory_order_release);
  c.abort.store(kind, std::memory_order_seq_cst);
  wake_all_barriers();
  return true;
}

void ProcBackend::wake_all_barriers() {
  for (auto& s : ctrl_->barriers) futex_wake_all_u32(&s.epoch);
}

// ---------------------------------------------------------------------------
// Messaging

void ProcBackend::attach_channel(int rank) {
  chan_ = transport_->attach(rank);
  chan_->set_stop(&ctrl_->abort);
  // A rank that reported done never drains again, so a send to it can only
  // be dropped. Rank 0 is the exception: it keeps draining through the
  // join, which is where children's Done frames arrive.
  chan_->set_peer_done([c = ctrl_](int dst) {
    return dst != 0 && c->ranks[dst].done.load(std::memory_order_acquire) != 0;
  });
}

void ProcBackend::drain_channel() {
  if (!chan_) return;
  std::vector<net::Frame> frames;
  if (!chan_->drain(frames)) return;
  RankLive& lv = ctrl_->ranks[chan_->rank()];
  for (auto& f : frames) {
    if (f.kind == net::FrameKind::Data) {
      // A Data frame is the message payload, nothing else.
      matched_.push(MailKey{f.src, f.tag}, std::move(f.payload));
      lv.mail_depth.fetch_add(1, std::memory_order_relaxed);
      ctrl_->in_transit.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      done_frames_.push_back(std::move(f));  // child residue; absorbed post-join
    }
  }
}

void ProcBackend::deposit(int dst, std::uint64_t tag, Payload data) {
  require_rank(dst, num_procs(), "Context::send: bad destination");
  const int src = current_rank();
  check_abort();
  const double sent_at = now_s();
  RankLive& lv = ctrl_->ranks[src];
  lv.beat(sent_at);
  const std::size_t nbytes = data.size();
  probe_.sent(src, dst, tag, nbytes, sent_at, sent_at);
  lv.messages += 1;
  lv.bytes += nbytes;
  if (config_.record_traffic) {
    ctrl_->traffic[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_procs()) +
                   static_cast<std::size_t>(dst)]
        .fetch_add(nbytes, std::memory_order_relaxed);
  }

  if (dst == src) {
    // Self-sends never touch a transport: match locally, exactly like the
    // other backends' self-mailbox path.
    matched_.push(MailKey{src, tag}, std::move(data));
    lv.mail_depth.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Count the frame in flight *before* it becomes drainable, so the
    // deadlock monitor can never see "all parked" with a message en route.
    ctrl_->in_transit.fetch_add(1, std::memory_order_seq_cst);
    try {
      chan_->send(dst, net::FrameKind::Data, tag, data.data(), nbytes);
    } catch (const net::ChannelStopped&) {
      ctrl_->in_transit.fetch_sub(1, std::memory_order_seq_cst);
      throw AbortError{};
    } catch (const net::PeerFinished&) {
      // The destination finished without receiving it: the frame can never
      // be matched, so it is dropped. It still counts as a deposit, as on
      // the threaded backend, whose mailbox simply keeps it.
      ctrl_->in_transit.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  ctrl_->progress.fetch_add(1, std::memory_order_seq_cst);
}

Payload ProcBackend::receive(int src, std::uint64_t tag) {
  require_rank(src, num_procs(), "Context::recv: bad source");
  const int rank = current_rank();
  RankLive& lv = ctrl_->ranks[rank];
  const double entry = now_s();
  lv.beat(entry);
  const MailKey key{src, tag};
  bool blocked = false;

  for (;;) {
    check_abort();
    drain_channel();
    if (auto m = matched_.pop(key)) {
      lv.mail_depth.fetch_sub(1, std::memory_order_relaxed);
      // A message matched on the first attempt was already here: no wait.
      const double ready = blocked ? now_s() : entry;
      lv.beat(ready);
      if (blocked) lv.add_wait(ready - entry);
      probe_.received(rank, src, tag, entry, ready);
      return std::move(*m);
    }
    // Park on the channel doorbell. The bounded timeout keeps the loop
    // responsive to the abort word even without a wake.
    blocked = true;
    lv.reason.store(BlockReason::Recv, std::memory_order_release);
    lv.parked.store(1, std::memory_order_seq_cst);
    chan_->wait(0.005);
    lv.parked.store(0, std::memory_order_seq_cst);
    lv.reason.store(BlockReason::None, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// Subset barriers

void ProcBackend::barrier(const pgroup::ProcessorGroup& group) {
  const int rank = current_rank();
  pgroup::require_member(group, rank, "Context::barrier");
  check_abort();
  RankLive& lv = ctrl_->ranks[rank];
  const double entry = now_s();
  lv.beat(entry);
  lv.barriers += 1;
  const int n = group.size();
  if (n == 1) {
    probe_.barrier(rank, group.key(), 1, entry, entry);
    return;
  }

  procdetail::BarrierSlot* slot = barrier_slot_for(ctrl_, group);
  const auto want = static_cast<std::uint32_t>(++barrier_epoch_[group.key()]);
  const double arrived_at = now_s();

  if (slot->arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<std::uint32_t>(n)) {
    // Root (the last arriver): reset the slot for the next episode, then
    // bump the epoch and wake the waiters.
    slot->arrived.store(0, std::memory_order_relaxed);
    slot->epoch.fetch_add(1, std::memory_order_seq_cst);
    ctrl_->progress.fetch_add(1, std::memory_order_seq_cst);
    futex_wake_all_u32(&slot->epoch);
  } else {
    // Register the awaited (slot, episode) before raising parked, so the
    // monitor's quiescence rule sees a release this waiter has not consumed
    // yet — e.g. while it is descheduled — as a pending wakeup.
    lv.reason.store(BlockReason::Barrier, std::memory_order_release);
    lv.await_episode.store(want, std::memory_order_seq_cst);
    lv.await_token.store(static_cast<std::uint64_t>(slot - ctrl_->barriers) + 1,
                         std::memory_order_seq_cst);
    lv.parked.store(1, std::memory_order_seq_cst);
    slot->waiting.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      const std::uint32_t seen = slot->epoch.load(std::memory_order_seq_cst);
      if (static_cast<std::int32_t>(seen - want) >= 0) break;
      if (ctrl_->abort.load(std::memory_order_acquire) != 0) break;
      futex_wait_u32(&slot->epoch, seen, 0.005);
      // Keep draining while parked so producers' rings never fill behind a
      // barrier (and control frames from finishing children keep moving).
      drain_channel();
    }
    slot->waiting.fetch_sub(1, std::memory_order_seq_cst);
    lv.parked.store(0, std::memory_order_seq_cst);
    lv.await_token.store(0, std::memory_order_seq_cst);
    lv.reason.store(BlockReason::None, std::memory_order_release);
  }
  check_abort();
  const double released_at = now_s();
  lv.beat(released_at);
  if (released_at > arrived_at) lv.add_wait(released_at - arrived_at);
  probe_.barrier(rank, group.key(), n, arrived_at, released_at);
}

// ---------------------------------------------------------------------------
// I/O

void ProcBackend::io_operation(std::size_t bytes) {
  const int rank = current_rank();
  check_abort();
  RankLive& lv = ctrl_->ranks[rank];
  const double entry = now_s();
  lv.beat(entry);
  const auto token = static_cast<std::uint32_t>(rank) + 1;
  std::uint32_t expect = 0;
  double acquired = entry;
  int cause = rank;
  if (!ctrl_->io_lock.compare_exchange_strong(expect, token, std::memory_order_acq_rel)) {
    lv.reason.store(BlockReason::Io, std::memory_order_release);
    for (;;) {
      expect = 0;
      if (ctrl_->io_lock.compare_exchange_weak(expect, token, std::memory_order_acq_rel)) {
        break;
      }
      if (ctrl_->abort.load(std::memory_order_acquire) != 0) {
        lv.reason.store(BlockReason::None, std::memory_order_release);
        throw AbortError{};
      }
      sleep_s(20e-6);
    }
    lv.reason.store(BlockReason::None, std::memory_order_release);
    acquired = now_s();
    lv.add_wait(acquired - entry);
    const int prev = ctrl_->io_prev.load(std::memory_order_acquire);
    if (prev >= 0) cause = prev;
  }
  ctrl_->io_prev.store(rank, std::memory_order_relaxed);
  // One sequential device: the lock section is the serialization point;
  // the payload work itself happens in the caller, like the threaded engine.
  ctrl_->io_lock.store(0, std::memory_order_release);
  probe_.io(rank, bytes, entry, acquired, cause, entry);
}

// ---------------------------------------------------------------------------
// The run: fork, execute, monitor, merge

void ProcBackend::run(const std::function<void(int)>& body) {
  if (is_child_) {
    throw std::logic_error("ProcBackend::run: nested run inside a forked child");
  }
  reset_run_state();
  const int p = num_procs();
  clock_.restart();

  // No child is alive here (the previous run reaped them all), so the
  // transport can be rewound instead of rebuilt.
  if (!transport_) {
    if (config_.transport == TransportKind::Tcp) {
      transport_ = std::make_unique<net::TcpTransport>(p);
    } else {
      transport_ = std::make_unique<net::ShmTransport>(p);
    }
  } else {
    transport_->reset();
  }
  attach_channel(0);

  // Flush stdio so forked children never replay buffered parent output.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = ::getpid();
  for (int r = 1; r < p; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      fail_shm(procdetail::kAbortError, "ProcBackend: fork failed");
      break;  // already-forked children observe the abort word and exit
    }
    if (pid == 0) child_main(body, r, parent);  // never returns
    pids_[static_cast<std::size_t>(r)] = pid;
  }
  // Started after the forks: the caller is the only thread alive at fork.
  monitor_stop_ = false;
  monitor_ = std::thread([this] { monitor_loop(); });

  // The parent doubles as rank 0 on the calling thread.
  CallingRank::bind(this, 0);
  beat();
  std::exception_ptr my_err;
  bool i_failed_first = false;
  if (ctrl_->abort.load(std::memory_order_acquire) == 0) {
    try {
      body(0);
    } catch (const AbortError&) {
      // Unwound by someone else's failure; the shm error text stands.
    } catch (const std::exception& e) {
      my_err = std::current_exception();
      i_failed_first = fail_shm(procdetail::kAbortError, e.what());
    } catch (...) {
      my_err = std::current_exception();
      i_failed_first = fail_shm(procdetail::kAbortError, "unknown exception in processor body");
    }
  }
  ctrl_->ranks[0].elapsed_s = now_s();
  ctrl_->ranks[0].done.store(1, std::memory_order_seq_cst);
  ctrl_->progress.fetch_add(1, std::memory_order_seq_cst);
  CallingRank::unbind();

  wait_for_children();
  stop_monitor();
  reap_children();

  if (ctrl_->abort.load(std::memory_order_acquire) == 0) {
    for (const net::Frame& f : done_frames_) probe_.absorb(f.payload);
  }
  done_frames_.clear();
  chan_.reset();

  const std::uint32_t aborted = ctrl_->abort.load(std::memory_order_acquire);
  if (aborted != 0) {
    const std::string text(ctrl_->err);
    if (aborted == procdetail::kAbortDeadlock) throw runtime::DeadlockError(text);
    if (i_failed_first && my_err) std::rethrow_exception(my_err);
    throw std::runtime_error(text);
  }
}

void ProcBackend::child_main(const std::function<void(int)>& body, int rank,
                             pid_t parent) {
#ifdef __linux__
  // A rank never outlives its parent: should the parent die (killed, or a
  // watchdog's alarm), the kernel kills this child too rather than leave it
  // blocked on a transport nobody will drain. The getppid check covers a
  // parent that died before the prctl.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) std::_Exit(3);
#else
  (void)parent;
#endif
  is_child_ = true;
  CallingRank::bind(this, rank);
  // Parent-only bookkeeping inherited through fork must not act here.
  pids_.assign(pids_.size(), 0);
  matched_.clear();
  done_frames_.clear();
  barrier_epoch_.clear();

  transport_->isolate(rank);
  attach_channel(rank);

  // Copy-on-write hands this child the sinks exactly as they stood at
  // fork, so "what this rank did" is precisely the end state minus this.
  const Probe::Baseline fork_state = probe_.baseline(rank);

  beat();
  int code = 0;
  try {
    body(rank);
  } catch (const AbortError&) {
    code = 3;
  } catch (const net::ChannelStopped&) {
    code = 3;
  } catch (const std::exception& e) {
    fail_shm(procdetail::kAbortError, e.what());
    code = 2;
  } catch (...) {
    fail_shm(procdetail::kAbortError, "unknown exception in processor body");
    code = 2;
  }

  if (code == 0 && ctrl_->abort.load(std::memory_order_acquire) == 0) {
    ctrl_->ranks[rank].elapsed_s = now_s();
    try {
      const std::vector<std::byte> residue = probe_.residue(rank, fork_state);
      ctrl_->ranks[rank].done.store(1, std::memory_order_seq_cst);
      ctrl_->progress.fetch_add(1, std::memory_order_seq_cst);
      chan_->send(0, net::FrameKind::Done, 0, residue.data(), residue.size());
    } catch (...) {
      code = 3;  // aborted mid-residue; the parent reaps us either way
    }
  } else if (code == 0) {
    code = 3;
  }
  // _Exit, not exit: a forked child must not run the parent's atexit
  // handlers or static destructors.
  std::_Exit(code);
}

void ProcBackend::wait_for_children() {
  // Every child sends exactly one Done frame, last; some may already sit
  // in done_frames_, drained during rank 0's body.
  const auto children = static_cast<std::size_t>(num_procs() - 1);
  while (done_frames_.size() < children) {
    if (ctrl_->abort.load(std::memory_order_acquire) != 0) return;  // reap takes over
    drain_channel();
    if (done_frames_.size() >= children) break;
    chan_->wait(0.01);
  }
}

void ProcBackend::reap_children() {
  // In a run that did not abort, every child that set done has also sent
  // its Done frame (wait_for_children saw them all): it is on its way out
  // through _Exit, so wait for it outright.
  const bool clean = ctrl_->abort.load(std::memory_order_acquire) == 0;
  for (std::size_t r = 1; r < pids_.size(); ++r) {
    const pid_t pid = pids_[r];
    if (pid <= 0) continue;
    int st = 0;
    if (clean && ctrl_->ranks[r].done.load(std::memory_order_acquire) != 0) {
      while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {
      }
      pids_[r] = 0;
      continue;
    }
    bool reaped = false;
    // Children observing the abort word exit within milliseconds; give a
    // generous grace period, then SIGKILL whatever is stuck in user code.
    for (int i = 0; i < 2500; ++i) {
      const pid_t w = ::waitpid(pid, &st, WNOHANG);
      if (w == pid || (w < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      sleep_s(2e-3);
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &st, 0);
    }
    pids_[r] = 0;
  }
}

void ProcBackend::monitor_loop() {
  const int p = num_procs();
  std::vector<char> dead(static_cast<std::size_t>(p), 0);

  // The shared quiescence rule with this backend's evidence: a Data frame
  // in transit, or a barrier slot whose epoch already passed the episode a
  // parked rank awaits (the rank was descheduled before it could leave).
  const auto quiescent = [&](std::uint64_t snap) {
    return exec::quiescent(
        live(), snap, [this] { return progress(); },
        [this](int) { return ctrl_->in_transit.load(std::memory_order_seq_cst) != 0; },
        [this](std::uint64_t token, std::uint64_t episode) {
          const auto epoch = ctrl_->barriers[token - 1].epoch.load(std::memory_order_seq_cst);
          return static_cast<std::int32_t>(epoch - static_cast<std::uint32_t>(episode)) >= 0;
        });
  };

  while (!monitor_pause(2e-3)) {
    // Child death: a rank that exits before reporting done took its part of
    // the program with it — everyone else would block forever. WNOWAIT
    // keeps the zombie reapable by reap_children().
    for (int r = 1; r < p; ++r) {
      if (dead[static_cast<std::size_t>(r)] != 0) continue;
      const pid_t pid = pids_[static_cast<std::size_t>(r)];
      if (pid <= 0) continue;
      siginfo_t si;
      std::memset(&si, 0, sizeof si);
      if (::waitid(P_PID, static_cast<id_t>(pid), &si, WEXITED | WNOHANG | WNOWAIT) == 0 &&
          si.si_pid == pid) {
        dead[static_cast<std::size_t>(r)] = 1;
        if (ctrl_->ranks[r].done.load(std::memory_order_acquire) == 0 &&
            ctrl_->abort.load(std::memory_order_acquire) == 0) {
          char msg[192];
          if (si.si_code == CLD_EXITED) {
            std::snprintf(msg, sizeof msg,
                          "ProcBackend: child process for rank %d exited with status %d "
                          "before finishing",
                          r, si.si_status);
          } else {
            std::snprintf(msg, sizeof msg,
                          "ProcBackend: child process for rank %d killed by signal %d", r,
                          si.si_status);
          }
          fail_shm(procdetail::kAbortError, msg);
        }
      }
    }

    if (ctrl_->abort.load(std::memory_order_acquire) != 0) continue;

    // Deadlock: the rule must hold at two samples far enough apart that
    // any delivered wakeup would have been consumed (the park loops
    // re-check on a 5 ms period) with no progress in between.
    const std::uint64_t snap = progress();
    if (!quiescent(snap)) continue;
    if (monitor_pause(10e-3)) break;
    if (ctrl_->abort.load(std::memory_order_acquire) != 0) continue;
    if (!quiescent(snap)) continue;
    fail_shm(procdetail::kAbortDeadlock, deadlock_text(live()).c_str());
  }
}

void ProcBackend::stop_monitor() {
  {
    std::lock_guard<std::mutex> lk(monitor_mu_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  monitor_.join();
}

bool ProcBackend::monitor_pause(double seconds) {
  std::unique_lock<std::mutex> lk(monitor_mu_);
  return monitor_cv_.wait_for(lk, std::chrono::duration<double>(seconds),
                              [this] { return monitor_stop_; });
}

// ---------------------------------------------------------------------------
// Introspection and stats

obs::Introspection ProcBackend::introspect() const {
  obs::Introspection out;
  out.now = now_s();
  const int p = num_procs();
  out.workers.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) out.workers.push_back(worker_state(ctrl_->ranks[r], r));
  obs::BarrierOccupancy occupied[procdetail::kBarrierSlots];
  out.barriers.assign(occupied, occupied + occupied_barriers(*ctrl_, occupied));
  return out;
}

obs::Introspection ProcBackend::failure_introspection() const {
  obs::Introspection out;
  if (ctrl_->frozen.load(std::memory_order_acquire) == 0) return out;
  out.now = now_s();
  const int p = num_procs();
  out.workers.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) out.workers.push_back(thaw(ctrl_->frozen_ranks[r], r));
  const std::uint32_t nb =
      std::min<std::uint32_t>(ctrl_->frozen_barrier_n, procdetail::kBarrierSlots);
  out.barriers.assign(ctrl_->frozen_barriers, ctrl_->frozen_barriers + nb);
  return out;
}

std::uint64_t ProcBackend::progress() const noexcept {
  return rank_progress(live(), ctrl_->progress.load(std::memory_order_seq_cst));
}

BackendStats ProcBackend::stats() const {
  BackendStats s = rank_stats(live());
  const int p = num_procs();
  if (config_.record_traffic) {
    s.traffic.resize(static_cast<std::size_t>(p) * static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < s.traffic.size(); ++i) {
      s.traffic[i] = ctrl_->traffic[i].load(std::memory_order_relaxed);
    }
  }
  return s;
}

}  // namespace fxpar::exec
