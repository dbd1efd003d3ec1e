#include "exec/threaded_backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "pgroup/group.hpp"
#include "runtime/simulator.hpp"  // runtime::DeadlockError

namespace fxpar::exec {
namespace {

constexpr int kSpinRounds = 256;  ///< brief spin before parking on the cv

}  // namespace

// ---------------------------------------------------------------------------
// TreeBarrier

ThreadedBackend::TreeBarrier::TreeBarrier(std::vector<int> member_list)
    : members(std::move(member_list)), nodes(members.size()) {
  const int n = static_cast<int>(members.size());
  for (int i = 0; i < n; ++i) {
    int fanin = 1;  // the member itself
    if (2 * i + 1 < n) ++fanin;
    if (2 * i + 2 < n) ++fanin;
    nodes[static_cast<std::size_t>(i)].fanin = fanin;
    nodes[static_cast<std::size_t>(i)].pending.store(fanin, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Construction / run lifecycle

ThreadedBackend::ThreadedBackend(const machine::MachineConfig& config)
    : config_(config),
        live_(std::make_unique<RankLive[]>(static_cast<std::size_t>(config.num_procs))) {
  workers_.reserve(static_cast<std::size_t>(config_.num_procs));
  for (int r = 0; r < config_.num_procs; ++r) {
    workers_.push_back(std::make_unique<Worker>());
  }
  if (config_.record_traffic) {
    traffic_.assign(static_cast<std::size_t>(config_.num_procs) *
                        static_cast<std::size_t>(config_.num_procs),
                    0);
  }
}

ThreadedBackend::~ThreadedBackend() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // An aborted run leaves undelivered messages queued (receivers unwound
  // via AbortError); reclaim them here, not only at the next run's reset.
  free_pending_messages();
}

double ThreadedBackend::now(int rank) const {
  require_rank(rank, num_procs(), "ThreadedBackend::now: bad rank");
  return now_s();  // one real clock; every processor reads the same time
}

int ThreadedBackend::current_rank() const { return CallingRank::of(this, "ThreadedBackend"); }

ThreadedBackend::Worker& ThreadedBackend::self() {
  return *workers_[static_cast<std::size_t>(current_rank())];
}

void ThreadedBackend::charge(double /*seconds*/) {
  // Real time passes by itself; modeled cost parameters do not apply here.
}

void ThreadedBackend::free_pending_messages() {
  for (auto& wp : workers_) {
    Worker& w = *wp;
    for (MsgNode* n = w.inbox.exchange(nullptr, std::memory_order_acquire); n;) {
      MsgNode* next = n->next;
      delete n;
      n = next;
    }
    w.sorted.clear();
  }
}

void ThreadedBackend::reset_run_state() {
  free_pending_messages();
  for (int r = 0; r < num_procs(); ++r) {
    Worker& w = *workers_[static_cast<std::size_t>(r)];
    w.barrier_epoch.clear();
    w.barrier_cache.clear();
    live_[r].reset();
  }
  if (!traffic_.empty()) std::fill(traffic_.begin(), traffic_.end(), 0);
  {
    std::lock_guard<std::mutex> lk(breg_mu_);
    barrier_registry_.clear();
  }
  aborted_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  progress_.store(0, std::memory_order_relaxed);
  io_prev_proc_ = -1;
  {
    std::lock_guard<std::mutex> lk(fail_intro_mu_);
    failure_intro_ = {};
  }
}

void ThreadedBackend::fail(std::exception_ptr e) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lk(err_mu_);
    if (!first_error_) {
      first_error_ = std::move(e);
      first = true;
    }
  }
  if (first) {
    // Freeze the state that explains the failure before wake_all() lets
    // every other worker unwind into "finished".
    auto intro = introspect();
    std::lock_guard<std::mutex> lk(fail_intro_mu_);
    failure_intro_ = std::move(intro);
  }
  aborted_.store(true, std::memory_order_seq_cst);
  wake_all();
}

void ThreadedBackend::wake_all() {
  for (auto& wp : workers_) {
    std::lock_guard<std::mutex> lk(wp->mu);
    wp->cv.notify_all();
  }
  std::lock_guard<std::mutex> lk(breg_mu_);
  for (auto& [key, tb] : barrier_registry_) {
    std::lock_guard<std::mutex> blk(tb->mu);
    tb->cv.notify_all();
  }
}

void ThreadedBackend::run(const std::function<void(int)>& body) {
  reset_run_state();
  const int p = num_procs();
  clock_.restart();

  // Worker placement under MachineConfig::pinning: probe the host topology
  // once per run and hand each worker its (cpu, node) slot. The plan is
  // host placement only — results are bit-identical under every policy —
  // so a failed affinity call just leaves that worker unpinned.
  std::vector<WorkerPlacement> pin_plan;
  if (config_.pinning != PinPolicy::None) {
    pin_plan = make_pin_plan(HostTopology::detect(), config_.pinning, p);
  }

  for (int r = 0; r < p; ++r) {
    Worker& w = *workers_[static_cast<std::size_t>(r)];
    RankLive& lv = live_[r];
    const WorkerPlacement place =
        pin_plan.empty() ? WorkerPlacement{} : pin_plan[static_cast<std::size_t>(r)];
    w.thread = std::thread([this, &body, &lv, r, place] {
      CallingRank::bind(this, r);
      if (place.cpu >= 0 && pin_current_thread(place)) {
        lv.cpu.store(place.cpu, std::memory_order_relaxed);
        lv.node.store(place.node, std::memory_order_relaxed);
        if (probe_.trace) probe_.trace->set_worker_placement(r, place.cpu, place.node);
      }
      lv.beat(now_s());
      try {
        body(r);
      } catch (const AbortError&) {
        // Unwound by someone else's failure; nothing more to record.
      } catch (...) {
        fail(std::current_exception());
      }
      lv.elapsed_s = now_s();
      lv.beat(lv.elapsed_s);
      lv.done.store(1, std::memory_order_seq_cst);
      // A worker that finishes may be the last thing a deadlock check is
      // waiting on; poke every parked peer so they re-evaluate.
      progress_.fetch_add(1, std::memory_order_seq_cst);
      wake_all();
      CallingRank::unbind();
    });
  }
  for (auto& wp : workers_) wp->thread.join();

  if (probe_.metrics && !pin_plan.empty()) {
    int pinned = 0;
    for (const RankLive& lv : live()) {
      pinned += lv.cpu.load(std::memory_order_relaxed) >= 0 ? 1 : 0;
    }
    probe_.metrics->pinned_workers->set(pinned);
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

// ---------------------------------------------------------------------------
// Deadlock diagnosis

bool ThreadedBackend::quiescent(std::uint64_t progress_snapshot) const {
  // Counter deltas alone are not enough: a wakeup delivered *before* the
  // caller's snapshot (an inbox push, a barrier release) bumped progress_
  // already, yet the woken worker may still read parked until the scheduler
  // runs it. The rule's evidence scan catches exactly that.
  return exec::quiescent(
      live(), progress_snapshot, [this] { return progress_.load(std::memory_order_seq_cst); },
      [this](int r) {
        // An undrained inbox wakes its owner no matter when it was pushed.
        return workers_[static_cast<std::size_t>(r)]->inbox.load(std::memory_order_seq_cst) !=
               nullptr;
      },
      [](std::uint64_t token, std::uint64_t episode) {
        return reinterpret_cast<const TreeBarrier*>(token)->released.load(
                   std::memory_order_seq_cst) >= episode;
      });
}

void ThreadedBackend::report_deadlock() {
  fail(std::make_exception_ptr(runtime::DeadlockError(deadlock_text(live()))));
}

// ---------------------------------------------------------------------------
// Messaging

void ThreadedBackend::deposit(int dst, std::uint64_t tag, Payload data) {
  require_rank(dst, num_procs(), "Context::send: bad destination");
  if (aborted_.load(std::memory_order_acquire)) throw AbortError{};
  RankLive& me = self_live();
  const double sent_at = now_s();
  me.beat(sent_at);
  const int src = CallingRank::rank;
  const std::size_t bytes = data.size();

  auto* node = new MsgNode{};
  node->src = src;
  node->tag = tag;
  node->data = std::move(data);
  probe_.sent(src, dst, tag, bytes, sent_at, sent_at);

  me.messages += 1;
  me.bytes += bytes;
  if (!traffic_.empty()) {
    traffic_[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_procs()) +
             static_cast<std::size_t>(dst)] += bytes;
  }

  Worker& to = *workers_[static_cast<std::size_t>(dst)];
  MsgNode* head = to.inbox.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!to.inbox.compare_exchange_weak(head, node, std::memory_order_release,
                                           std::memory_order_relaxed));
  live_[dst].mail_depth.fetch_add(1, std::memory_order_relaxed);
  progress_.fetch_add(1, std::memory_order_seq_cst);

  // Dekker-style handshake with the receiver's park sequence: the push
  // above is seq_cst-ordered before this load, and the receiver sets
  // `parked` before its final inbox check. Either we see parked and
  // notify, or the receiver's check sees our node.
  if (live_[dst].parked.load(std::memory_order_seq_cst) != 0) {
    std::lock_guard<std::mutex> lk(to.mu);
    to.cv.notify_all();
  }
}

void ThreadedBackend::drain_inbox(Worker& w) {
  // seq_cst, not acquire: quiescent() infers from a null inbox that the
  // owner's earlier `parked` clear is visible to its counter re-check,
  // which needs the exchange in the single total order with the flags.
  MsgNode* n = w.inbox.exchange(nullptr, std::memory_order_seq_cst);
  // The Treiber stack yields newest-first; reverse to restore push order so
  // matching stays per-source FIFO like the simulator's deques.
  MsgNode* in_order = nullptr;
  while (n) {
    MsgNode* next = n->next;
    n->next = in_order;
    in_order = n;
    n = next;
  }
  while (in_order) {
    MsgNode* next = in_order->next;
    in_order->next = nullptr;
    w.sorted.push(MailKey{in_order->src, in_order->tag}, std::unique_ptr<MsgNode>(in_order));
    in_order = next;
  }
}

Payload ThreadedBackend::receive(int src, std::uint64_t tag) {
  require_rank(src, num_procs(), "Context::recv: bad source");
  Worker& me = self();
  const int rank = CallingRank::rank;
  RankLive& lv = live_[rank];
  const double entry = now_s();
  lv.beat(entry);
  const MailKey key{src, tag};
  bool blocked = false;

  for (int spin = 0;; ++spin) {
    if (aborted_.load(std::memory_order_acquire)) throw AbortError{};
    drain_inbox(me);
    if (auto node = me.sorted.pop(key)) {
      lv.mail_depth.fetch_sub(1, std::memory_order_relaxed);
      // A message matched on the first attempt was already here: no wait.
      const double ready = spin == 0 ? entry : now_s();
      lv.beat(ready);
      if (blocked) lv.add_wait(ready - entry);
      probe_.received(rank, src, tag, entry, ready);
      return std::move((*node)->data);
    }
    if (spin < kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    blocked = true;
    lv.reason.store(BlockReason::Recv, std::memory_order_release);
    std::unique_lock<std::mutex> lk(me.mu);
    lv.parked.store(1, std::memory_order_seq_cst);
    // Final check under the parked flag: a sender that pushed before seeing
    // parked is visible here; one that pushes after will notify.
    if (me.inbox.load(std::memory_order_seq_cst) == nullptr &&
        !aborted_.load(std::memory_order_acquire)) {
      const std::uint64_t snap = progress_.load(std::memory_order_seq_cst);
      if (quiescent(snap)) {
        lk.unlock();
        report_deadlock();
        lk.lock();
      } else {
        me.cv.wait_for(lk, std::chrono::milliseconds(100));
        if (me.inbox.load(std::memory_order_seq_cst) == nullptr &&
            !aborted_.load(std::memory_order_acquire) && quiescent(snap)) {
          lk.unlock();
          report_deadlock();
          lk.lock();
        }
      }
    }
    lv.parked.store(0, std::memory_order_seq_cst);
    lv.reason.store(BlockReason::None, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// Subset barriers

std::shared_ptr<ThreadedBackend::TreeBarrier> ThreadedBackend::barrier_for(
    Worker& me, const pgroup::ProcessorGroup& g) {
  const std::uint64_t key = g.key();
  auto it = me.barrier_cache.find(key);
  if (it != me.barrier_cache.end()) {
    pgroup::check_group_key_match(it->second->members, g, "ThreadedBackend::barrier_for");
    return it->second;
  }
  std::shared_ptr<TreeBarrier> tb;
  {
    std::lock_guard<std::mutex> lk(breg_mu_);
    auto& slot = barrier_registry_[key];
    if (!slot) slot = std::make_shared<TreeBarrier>(g.members());
    tb = slot;
  }
  // Validate outside the registry lock: a collision is a fatal program
  // error, and every later episode would hit the cached entry anyway.
  pgroup::check_group_key_match(tb->members, g, "ThreadedBackend::barrier_for");
  me.barrier_cache.emplace(key, tb);
  return tb;
}

void ThreadedBackend::barrier(const pgroup::ProcessorGroup& group) {
  Worker& me = self();
  const int rank = CallingRank::rank;
  const int vrank = pgroup::require_member(group, rank, "Context::barrier");
  if (aborted_.load(std::memory_order_acquire)) throw AbortError{};
  RankLive& lv = live_[rank];
  const double entry = now_s();
  lv.beat(entry);
  lv.barriers += 1;
  const int n = group.size();
  if (n == 1) {
    probe_.barrier(rank, group.key(), 1, entry, entry);
    return;
  }

  std::shared_ptr<TreeBarrier> tb = barrier_for(me, group);
  const std::uint64_t episode = ++me.barrier_epoch[group.key()];
  const double arrived_at = now_s();

  // Signal completed subtrees up the combining tree. Each node resets
  // itself for the next episode when it fires, which is safe because no
  // member can re-enter this episode's subtree before `released` advances.
  int node = vrank;
  while (tb->nodes[static_cast<std::size_t>(node)].pending.fetch_sub(
             1, std::memory_order_acq_rel) == 1) {
    tb->nodes[static_cast<std::size_t>(node)].pending.store(
        tb->nodes[static_cast<std::size_t>(node)].fanin, std::memory_order_relaxed);
    if (node == 0) {
      // Root: the whole group has arrived; release it.
      tb->released.store(episode, std::memory_order_seq_cst);
      progress_.fetch_add(1, std::memory_order_seq_cst);
      {
        std::lock_guard<std::mutex> lk(tb->mu);
        tb->cv.notify_all();
      }
      break;
    }
    node = (node - 1) / 2;
  }

  // Wait for this episode's release: spin briefly, then park.
  if (tb->released.load(std::memory_order_seq_cst) < episode) {
    for (int spin = 0; spin < kSpinRounds; ++spin) {
      if (tb->released.load(std::memory_order_seq_cst) >= episode) break;
      if (aborted_.load(std::memory_order_acquire)) throw AbortError{};
      std::this_thread::yield();
    }
    if (tb->released.load(std::memory_order_seq_cst) < episode) {
      lv.reason.store(BlockReason::Barrier, std::memory_order_release);
      std::unique_lock<std::mutex> lk(tb->mu);
      // Register what this park waits for (episode first, then the barrier)
      // before raising parked, so quiescent() can tell a genuine wait from
      // a release the scheduler has not delivered yet.
      lv.await_episode.store(episode, std::memory_order_seq_cst);
      lv.await_token.store(reinterpret_cast<std::uint64_t>(tb.get()), std::memory_order_seq_cst);
      lv.parked.store(1, std::memory_order_seq_cst);
      while (tb->released.load(std::memory_order_seq_cst) < episode &&
             !aborted_.load(std::memory_order_acquire)) {
        const std::uint64_t snap = progress_.load(std::memory_order_seq_cst);
        tb->cv.wait_for(lk, std::chrono::milliseconds(100));
        if (tb->released.load(std::memory_order_seq_cst) < episode &&
            !aborted_.load(std::memory_order_acquire) && quiescent(snap)) {
          lk.unlock();
          report_deadlock();
          lk.lock();
        }
      }
      lv.parked.store(0, std::memory_order_seq_cst);
      lv.await_token.store(0, std::memory_order_seq_cst);
      lv.reason.store(BlockReason::None, std::memory_order_release);
    }
  }
  if (aborted_.load(std::memory_order_acquire)) throw AbortError{};
  const double released_at = now_s();
  lv.beat(released_at);
  if (released_at > arrived_at) lv.add_wait(released_at - arrived_at);
  probe_.barrier(rank, group.key(), n, arrived_at, released_at);
}

// ---------------------------------------------------------------------------
// I/O device

void ThreadedBackend::io_operation(std::size_t bytes) {
  RankLive& me = self_live();
  const int rank = CallingRank::rank;
  if (aborted_.load(std::memory_order_acquire)) throw AbortError{};
  const double entry = now_s();
  me.beat(entry);
  // The machine has one sequential I/O device; serialize real access to it
  // just as the simulator serializes modeled access. Only time spent
  // *acquiring* the lock — genuinely queued behind another processor's
  // operation — is blocked time; the device section itself is the caller's
  // own work and stays in busy time.
  std::unique_lock<std::mutex> lk(io_mu_, std::try_to_lock);
  double acquired = entry;
  int cause = rank;
  if (!lk.owns_lock()) {
    me.reason.store(BlockReason::Io, std::memory_order_release);
    lk.lock();
    me.reason.store(BlockReason::None, std::memory_order_release);
    acquired = now_s();
    me.add_wait(acquired - entry);
    if (io_prev_proc_ >= 0) cause = io_prev_proc_;  // guarded by io_mu_, held since lk.lock()
  }
  io_prev_proc_ = rank;
  // Device occupancy: the modeled latency/byte costs are simulator-side
  // parameters, but holding the lock for the transfer keeps operations
  // serialized. The payload copy itself happens in the caller.
  probe_.io(rank, bytes, entry, acquired, cause, entry);
}

// ---------------------------------------------------------------------------
// Stats

BackendStats ThreadedBackend::stats() const {
  BackendStats s = rank_stats(live());
  s.traffic = traffic_;
  return s;
}

// ---------------------------------------------------------------------------
// Live introspection

obs::Introspection ThreadedBackend::introspect() const {
  obs::Introspection out;
  out.now = now_s();
  const int p = num_procs();
  out.workers.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) out.workers.push_back(worker_state(live_[r], r));
  {
    // Partially-occupied barriers: every registered tree with at least one
    // member currently parked in an unreleased episode.
    std::lock_guard<std::mutex> lk(breg_mu_);
    for (const auto& [key, tb] : barrier_registry_) {
      int waiting = 0;
      for (const RankLive& lv : live()) {
        waiting += lv.await_token.load(std::memory_order_acquire) ==
                           reinterpret_cast<std::uint64_t>(tb.get())
                       ? 1
                       : 0;
      }
      if (waiting > 0) {
        out.barriers.push_back(obs::BarrierOccupancy{
            key, static_cast<int>(tb->members.size()), waiting});
      }
    }
  }
  return out;
}

obs::Introspection ThreadedBackend::failure_introspection() const {
  std::lock_guard<std::mutex> lk(fail_intro_mu_);
  return failure_intro_;
}

std::uint64_t ThreadedBackend::progress() const noexcept {
  return rank_progress(live(), progress_.load(std::memory_order_relaxed));
}

}  // namespace fxpar::exec
