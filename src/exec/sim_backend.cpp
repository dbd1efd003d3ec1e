#include "exec/sim_backend.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace fxpar::exec {

const char* backend_kind_name(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::Sim: return "sim";
    case BackendKind::Threads: return "threads";
    case BackendKind::Proc: return "proc";
  }
  return "?";
}

const char* transport_kind_name(TransportKind t) noexcept {
  switch (t) {
    case TransportKind::Shm: return "shm";
    case TransportKind::Tcp: return "tcp";
  }
  return "?";
}

SimBackend::SimBackend(const machine::MachineConfig& config) : config_(config) {
  sim_ = std::make_unique<runtime::Simulator>(config_.num_procs, config_.stack_bytes);
  mailboxes_.resize(static_cast<std::size_t>(config_.num_procs));
  waits_.resize(static_cast<std::size_t>(config_.num_procs));
  if (config_.record_traffic) {
    stat_traffic_.assign(static_cast<std::size_t>(config_.num_procs) *
                             static_cast<std::size_t>(config_.num_procs),
                         0);
  }
}

SimBackend::~SimBackend() = default;

double SimBackend::now(int rank) const { return sim_->clock(rank).now; }

int SimBackend::current_rank() const { return sim_->current_rank(); }

void SimBackend::charge(double seconds) {
  sim_->advance(seconds);
  // Accumulated modeled compute. All fibers run on the simulator's one OS
  // thread, so the gauge's single-writer contract holds.
  if (probe_.metrics && seconds > 0.0) probe_.metrics->modeled_busy_s->add(seconds);
}

void SimBackend::run(const std::function<void(int)>& body) {
  if (ran_) {
    // A finished simulator cannot respawn its ranks; reruns (e.g. a Machine
    // accumulating metrics across programs) get a fresh one, like the
    // threaded backend's reset_run_state(). Modeled clocks restart at zero.
    sim_ = std::make_unique<runtime::Simulator>(config_.num_procs, config_.stack_bytes);
    mailboxes_.assign(static_cast<std::size_t>(config_.num_procs), {});
    waits_.assign(static_cast<std::size_t>(config_.num_procs), {});
    barriers_.clear();
    io_available_ = 0.0;
    io_prev_proc_ = -1;
    stat_messages_ = 0;
    stat_bytes_ = 0;
    stat_barriers_ = 0;
    progress_ = 0;
    if (config_.record_traffic) {
      stat_traffic_.assign(static_cast<std::size_t>(config_.num_procs) *
                               static_cast<std::size_t>(config_.num_procs),
                           0);
    }
  }
  ran_ = true;
  sim_->set_tracer(probe_.trace);
  for (int r = 0; r < num_procs(); ++r) {
    sim_->spawn(r, [&body, r] { body(r); });
  }
  sim_->run();
}

obs::Introspection SimBackend::introspect() const {
  obs::Introspection out;
  const int p = num_procs();
  out.workers.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    obs::WorkerState ws;
    ws.rank = r;
    if (sim_->is_finished(r)) {
      ws.state = "finished";
    } else if (sim_->is_blocked(r)) {
      ws.state = "parked";
      ws.block_reason = sim_->block_reason(r);
    } else {
      ws.state = "running";
    }
    ws.mailbox_depth = static_cast<std::int64_t>(mailboxes_[static_cast<std::size_t>(r)].size());
    // The modeled clock doubles as the heartbeat: it stamps the last
    // moment this processor executed or was charged time.
    ws.last_beat = sim_->clock(r).now;
    out.now = std::max(out.now, sim_->clock(r).now);
    out.workers.push_back(std::move(ws));
  }
  for (const auto& [key, st] : barriers_) {
    if (st.arrived > 0) {
      out.barriers.push_back(obs::BarrierOccupancy{key, st.size, st.arrived});
    }
  }
  return out;
}

BackendStats SimBackend::stats() const {
  BackendStats s;
  s.finish_time = sim_->finish_time();
  s.clocks.reserve(static_cast<std::size_t>(num_procs()));
  for (int r = 0; r < num_procs(); ++r) s.clocks.push_back(sim_->clock(r));
  s.messages = stat_messages_;
  s.bytes = stat_bytes_;
  s.barriers = stat_barriers_;
  s.traffic = stat_traffic_;
  return s;
}

void SimBackend::deposit(int dst, std::uint64_t tag, Payload data) {
  require_rank(dst, num_procs(), "Context::send: bad destination");
  const int src = sim_->current_rank();
  const std::size_t bytes = data.size();
  // Sender-side costs: software overhead plus wire serialization.
  const runtime::SimTime send_start = sim_->now();
  sim_->advance(config_.send_overhead + static_cast<double>(bytes) * config_.byte_time);
  const runtime::SimTime arrival = sim_->now() + config_.latency;

  probe_.sent(src, dst, tag, bytes, send_start, sim_->now());
  const MailKey key{src, tag};
  mailboxes_[static_cast<std::size_t>(dst)].push(key, Message{std::move(data), arrival});
  stat_messages_ += 1;
  stat_bytes_ += bytes;
  progress_ += 1;
  if (!stat_traffic_.empty()) {
    stat_traffic_[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_procs()) +
                  static_cast<std::size_t>(dst)] += bytes;
  }

  WaitState& w = waits_[static_cast<std::size_t>(dst)];
  if (w.waiting && w.key == key && sim_->is_blocked(dst)) {
    w.waiting = false;
    sim_->wake(dst, arrival);
  }
}

Payload SimBackend::receive(int src, std::uint64_t tag) {
  require_rank(src, num_procs(), "Context::recv: bad source");
  const int dst = sim_->current_rank();
  const MailKey key{src, tag};
  auto& box = mailboxes_[static_cast<std::size_t>(dst)];
  const runtime::SimTime recv_entry = sim_->now();
  for (;;) {
    if (auto msg = box.pop(key)) {
      sim_->advance_to(msg->arrival);
      // A message still in flight is a modeled wait even when already queued.
      probe_.received(dst, src, tag, recv_entry, sim_->now());
      sim_->advance(config_.recv_overhead);
      progress_ += 1;
      return std::move(msg->data);
    }
    WaitState& w = waits_[static_cast<std::size_t>(dst)];
    w.waiting = true;
    w.key = key;
    sim_->block("recv from proc " + std::to_string(src) + " tag " + std::to_string(tag));
    // Re-check: wakeups are edge-triggered on the matching deposit, but the
    // loop guards against future conservative wake policies.
  }
}

void SimBackend::barrier(const pgroup::ProcessorGroup& group) {
  const int me = sim_->current_rank();
  pgroup::require_member(group, me, "Context::barrier");
  stat_barriers_ += 1;
  progress_ += 1;
  const int n = group.size();
  const runtime::SimTime arrived_at = sim_->now();
  const std::uint64_t arrival_seq = progress_;  // fiber execution order
  if (n == 1) {
    sim_->advance(config_.barrier_base);
  } else {
    BarrierState& st = barriers_[group.key()];
    st.size = n;
    st.arrived += 1;
    // The release is modeled from the latest *modeled* arrival, which need
    // not be the fiber that executes last.
    st.max_arrival = std::max(st.max_arrival, arrived_at);
    if (st.arrived < n) {
      st.waiting.push_back(me);
      sim_->block("barrier on group " + group.to_string());
      // Woken by the last arriver with the clock already at the release.
    } else {
      const double cost = config_.barrier_base +
                          config_.barrier_stage * std::ceil(std::log2(static_cast<double>(n)));
      const runtime::SimTime release = st.max_arrival + cost;
      std::vector<int> waiting = std::move(st.waiting);
      barriers_.erase(group.key());
      for (int r : waiting) sim_->wake(r, release);
      sim_->advance_to(release);
    }
  }
  probe_.barrier(me, group.key(), n, arrived_at, sim_->now(), arrival_seq);
}

void SimBackend::io_operation(std::size_t bytes) {
  progress_ += 1;
  const int me = sim_->current_rank();
  const double entry = sim_->now();
  const double start = std::max(entry, io_available_);
  const double done = start + config_.io_latency +
                      static_cast<double>(bytes) * config_.io_byte_time;
  // When queued behind an earlier operation, the happens-before edge
  // points at its owner; otherwise the stall is the device itself.
  const bool queued = start > entry && io_prev_proc_ >= 0;
  probe_.io(me, bytes, entry, done, queued ? io_prev_proc_ : me, queued ? io_available_ : entry);
  io_prev_proc_ = me;
  io_available_ = done;
  sim_->advance_to(done);
}

}  // namespace fxpar::exec
