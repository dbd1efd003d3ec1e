// fxexec: the runtime core shared by the threaded and process backends.
//
// Both concurrent engines implement the paper's §4 localization services —
// per-(source, tag) direct-deposit matching and subset barriers — and the
// deadlock detector and failure snapshot built around them. They differ only
// in how ranks are launched (threads or fork), how bytes move (shared memory
// or a net::Channel) and which barrier primitive parks a waiter (combining
// tree or shm futex slot). Everything else lives here, as inline header
// code with no virtual calls on the per-message paths:
//
//   MailStore<Msg>  the per-(src, tag) FIFO matcher (the simulator uses it
//                   too, so all three backends match messages identically);
//   RunClock        the real-time run clock (seconds since run start);
//   CallingRank     which rank the calling thread is running;
//   RankLive        one rank's live state, made only of lock-free atomics and
//                   plain owner-written counters, so the process backend
//                   places it unchanged in its MAP_SHARED control block;
//   free functions  stats aggregation, per-worker introspection, progress,
//                   the DeadlockError text, the POD failure snapshot
//                   (freeze/thaw) and the one quiescence rule.
//
// The deadlock rule (quiescent() below): a verdict needs every unfinished
// rank parked, no pending wakeup, and no progress across the check. A
// pending wakeup is backend evidence — an undrained inbox or a frame in
// transit — or an awaited barrier episode that has already been released
// but not yet consumed by its (possibly descheduled) waiter.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "exec/backend.hpp"
#include "obs/introspect.hpp"

namespace fxpar::exec {

/// Matching key of a deposited message.
struct MailKey {
  int src;
  std::uint64_t tag;
  friend auto operator<=>(const MailKey&, const MailKey&) = default;
};

/// Per-(source, tag) FIFO message store: a receive for (src, tag) takes the
/// oldest message deposited under exactly that key. This is the matching
/// discipline of the determinism contract — every backend files its
/// messages here, so deterministic programs see the same payloads in the
/// same order everywhere. Single-owner: not thread-safe.
template <class Msg>
class MailStore {
 public:
  void push(const MailKey& k, Msg m) { boxes_[k].push_back(std::move(m)); }

  /// The oldest message queued under `k`, or nullopt when there is none.
  std::optional<Msg> pop(const MailKey& k) {
    auto it = boxes_.find(k);
    if (it == boxes_.end()) return std::nullopt;
    std::optional<Msg> m(std::move(it->second.front()));
    it->second.pop_front();
    if (it->second.empty()) boxes_.erase(it);
    return m;
  }

  /// Messages queued under every key.
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& [key, q] : boxes_) n += q.size();
    return n;
  }

  void clear() noexcept { boxes_.clear(); }

 private:
  std::map<MailKey, std::deque<Msg>> boxes_;  ///< never holds an empty deque
};

/// Real seconds since the current run started. Restarted before the ranks
/// launch; CLOCK_MONOTONIC is machine-global, so worker threads and forked
/// processes all read the same time base.
class RunClock {
 public:
  void restart() noexcept { t0_ = std::chrono::steady_clock::now(); }
  double now_s() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// The rank the calling OS thread runs. A worker thread, or a process
/// backend rank's main thread, binds itself for the duration of its body.
/// At most one backend's rank runs on any OS thread at a time, so an
/// (owner, rank) pair is enough; the owner guards against operations
/// issued from threads the backend does not own (e.g. a test driver).
struct CallingRank {
  static inline thread_local const void* owner = nullptr;
  static inline thread_local int rank = -1;

  static void bind(const void* backend, int r) noexcept {
    owner = backend;
    rank = r;
  }
  static void unbind() noexcept { bind(nullptr, -1); }
  /// The bound rank; throws std::logic_error naming `who` when the caller
  /// is not one of `backend`'s ranks.
  static int of(const void* backend, const char* who) {
    if (owner != backend || rank < 0) {
      throw std::logic_error(std::string(who) +
                             ": processor operation outside a processor body");
    }
    return rank;
  }
};

/// Why a rank is blocked in a machine service.
enum class BlockReason : std::uint32_t { None, Recv, Barrier, Io };

/// "recv" / "barrier" / "io"; "" for None.
inline const char* block_reason_name(BlockReason r) noexcept {
  switch (r) {
    case BlockReason::Recv: return "recv";
    case BlockReason::Barrier: return "barrier";
    case BlockReason::Io: return "io";
    case BlockReason::None: break;
  }
  return "";
}

/// One rank's live state. The owner rank writes everything except
/// `mail_depth`, which senders bump too; any thread (or, in shared memory,
/// any process) may read the atomics at any time. The plain counters at
/// the end are owner-written during the run and read only once the rank
/// has finished.
struct alignas(64) RankLive {
  /// Blocked (or about to block) in recv or barrier — the quiescence rule's
  /// "parked". An io wait sets `reason` but not this flag: the device lock
  /// is always released by a running rank.
  std::atomic<std::uint32_t> parked{0};
  std::atomic<BlockReason> reason{BlockReason::None};
  std::atomic<std::uint32_t> done{0};  ///< body returned or unwound
  /// Pinned CPU and its NUMA node, -1/-1 when unpinned.
  std::atomic<std::int32_t> cpu{-1};
  std::atomic<std::int32_t> node{-1};
  std::atomic<std::int64_t> mail_depth{0};  ///< deposited/matched - received
  std::atomic<std::uint64_t> beats{0};      ///< runtime-service heartbeats
  std::atomic<std::uint64_t> last_beat_bits{kNoBeat};  ///< bit pattern of the last beat time
  /// The barrier this rank is parked in (a backend-defined nonzero token,
  /// 0 = none) and the episode it waits for. The owner stores the episode
  /// first and clears the token after clearing `parked`, so quiescent()
  /// can tell a genuine wait from a release not yet consumed.
  std::atomic<std::uint64_t> await_token{0};
  std::atomic<std::uint64_t> await_episode{0};

  double elapsed_s = 0.0;  ///< real seconds from run start to body end
  double wait_s = 0.0;     ///< real seconds blocked (recv/barrier/io)
  std::uint64_t blocks = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t barriers = 0;

  static constexpr std::uint64_t kNoBeat = 0xbff0000000000000ull;  ///< -1.0

  void reset() noexcept {
    parked.store(0, std::memory_order_relaxed);
    reason.store(BlockReason::None, std::memory_order_relaxed);
    done.store(0, std::memory_order_relaxed);
    cpu.store(-1, std::memory_order_relaxed);
    node.store(-1, std::memory_order_relaxed);
    mail_depth.store(0, std::memory_order_relaxed);
    beats.store(0, std::memory_order_relaxed);
    last_beat_bits.store(kNoBeat, std::memory_order_relaxed);
    await_token.store(0, std::memory_order_relaxed);
    await_episode.store(0, std::memory_order_relaxed);
    elapsed_s = wait_s = 0.0;
    blocks = messages = bytes = barriers = 0;
  }

  /// Stamps a heartbeat: introspection's liveness signal and one unit of
  /// watchdog progress. Relaxed — an approximate timeline is enough.
  void beat(double now) noexcept {
    last_beat_bits.store(std::bit_cast<std::uint64_t>(now), std::memory_order_relaxed);
    beats.fetch_add(1, std::memory_order_relaxed);
  }

  /// Charges one blocking episode of `seconds` to this rank.
  void add_wait(double seconds) noexcept {
    wait_s += seconds;
    blocks += 1;
  }
};

static_assert(std::is_standard_layout_v<RankLive>);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free &&
              std::atomic<BlockReason>::is_always_lock_free &&
              std::atomic<std::int64_t>::is_always_lock_free &&
              std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(std::bit_cast<double>(RankLive::kNoBeat) == -1.0);

/// Plain-data copy of one rank's observable state: what a failure freezes
/// (into shared memory on the process backend) before the other ranks
/// unwind into "finished".
struct FrozenRank {
  std::uint32_t state = 0;  ///< 0 running, 1 parked, 2 finished
  BlockReason reason = BlockReason::None;
  std::int64_t mail_depth = 0;
  double last_beat = -1.0;
  std::int32_t cpu = -1;
  std::int32_t node = -1;
};

inline FrozenRank freeze(const RankLive& r) noexcept {
  FrozenRank f;
  f.reason = r.reason.load(std::memory_order_acquire);
  f.state = r.done.load(std::memory_order_acquire) != 0 ? 2u
            : f.reason != BlockReason::None            ? 1u
                                                       : 0u;
  f.mail_depth = r.mail_depth.load(std::memory_order_relaxed);
  f.last_beat = std::bit_cast<double>(r.last_beat_bits.load(std::memory_order_relaxed));
  f.cpu = r.cpu.load(std::memory_order_relaxed);
  f.node = r.node.load(std::memory_order_relaxed);
  return f;
}

inline obs::WorkerState thaw(const FrozenRank& f, int rank) {
  static const char* const kStates[] = {"running", "parked", "finished"};
  obs::WorkerState ws;
  ws.rank = rank;
  ws.state = kStates[std::min<std::uint32_t>(f.state, 2)];
  if (f.state == 1) ws.block_reason = block_reason_name(f.reason);
  ws.mailbox_depth = std::max<std::int64_t>(0, f.mail_depth);
  ws.cpu = f.cpu;
  ws.node = f.node;
  ws.last_beat = f.last_beat;
  return ws;
}

/// Live introspection of one rank.
inline obs::WorkerState worker_state(const RankLive& r, int rank) {
  return thaw(freeze(r), rank);
}

/// Aggregates the finished ranks' counters (everything but traffic, which
/// each backend keeps in its own layout).
inline BackendStats rank_stats(std::span<const RankLive> ranks) {
  BackendStats s;
  s.clocks.reserve(ranks.size());
  bool any_pinned = false;
  for (const RankLive& r : ranks) {
    runtime::ProcClock c;
    c.now = r.elapsed_s;
    c.busy = std::max(0.0, r.elapsed_s - r.wait_s);
    c.idle = r.wait_s;
    c.blocks = r.blocks;
    s.clocks.push_back(c);
    s.finish_time = std::max(s.finish_time, r.elapsed_s);
    s.messages += r.messages;
    s.bytes += r.bytes;
    s.barriers += r.barriers;
    s.wait_ms += r.wait_s * 1e3;
    any_pinned = any_pinned || r.cpu.load(std::memory_order_relaxed) >= 0;
  }
  // Surface placement only when some worker actually got pinned; the common
  // unpinned case keeps the vector empty (and the JSON field out).
  if (any_pinned) {
    for (const RankLive& r : ranks) s.numa_nodes.push_back(r.node.load(std::memory_order_relaxed));
  }
  return s;
}

/// Backend::progress(): the backend's own service counter plus every
/// rank's heartbeats and completion, so a run whose ranks still beat
/// reads as moving.
inline std::uint64_t rank_progress(std::span<const RankLive> ranks,
                                   std::uint64_t services) noexcept {
  std::uint64_t p = services;
  for (const RankLive& r : ranks) {
    p += r.beats.load(std::memory_order_relaxed) + r.done.load(std::memory_order_relaxed);
  }
  return p;
}

/// The runtime::DeadlockError text: one "proc N: <reason>" line per rank.
inline std::string deadlock_text(std::span<const RankLive> ranks) {
  std::string detail = "deadlock: all processors blocked.";
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const FrozenRank f = freeze(ranks[r]);
    detail += "\n  proc " + std::to_string(r) + ": " +
              (f.state == 2   ? "finished"
               : f.state == 1 ? block_reason_name(f.reason)
                              : "running");
  }
  return detail;
}

/// The quiescence rule. True when every unfinished rank is parked,
/// `progress()` still equals `snapshot`, and no rank has a pending wakeup:
/// neither backend evidence (`pending(rank)`: an undrained inbox, a frame
/// in transit) nor an awaited barrier episode that `released(token,
/// episode)` reports as already released. The caller then reports a
/// deadlock.
///
/// The counters are read twice, around the scan, all seq_cst: a rank that
/// consumes its wakeup during the scan clears `parked` before it clears
/// the evidence the scan looks at, so one of the two reads sees it.
template <class Progress, class Pending, class Released>
bool quiescent(std::span<const RankLive> ranks, std::uint64_t snapshot, Progress&& progress,
               Pending&& pending, Released&& released) {
  const auto quiet = [&] {
    if (progress() != snapshot) return false;
    std::size_t done = 0, parked = 0;
    for (const RankLive& r : ranks) {
      if (r.done.load(std::memory_order_seq_cst) != 0) {
        ++done;
      } else if (r.parked.load(std::memory_order_seq_cst) != 0) {
        ++parked;
      }
    }
    // All finished is a normal completion; anyone running will move.
    return done < ranks.size() && done + parked == ranks.size();
  };
  if (!quiet()) return false;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    if (pending(static_cast<int>(r))) return false;
    const std::uint64_t token = ranks[r].await_token.load(std::memory_order_seq_cst);
    if (token != 0 && released(token, ranks[r].await_episode.load(std::memory_order_seq_cst))) {
      return false;
    }
  }
  return quiet();
}

}  // namespace fxpar::exec
