#include "trace/trace.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "trace/blob.hpp"

namespace fxpar::trace {

const char* wait_kind_name(WaitKind k) {
  switch (k) {
    case WaitKind::Recv: return "recv";
    case WaitKind::Barrier: return "barrier";
    case WaitKind::Io: return "io";
  }
  return "?";
}

TraceRecorder::TraceRecorder(int num_procs, Busy busy) : busy_(busy) {
  if (num_procs <= 0) throw std::invalid_argument("TraceRecorder: num_procs must be positive");
  open_.resize(static_cast<std::size_t>(num_procs));
  reset();
}

void TraceRecorder::reset() {
  const std::size_t n = open_.size();
  for (auto& stack : open_) stack.clear();
  shards_.assign(n, Shard{});
  placements_.assign(n, PlacementRecord{});
  totals_.assign(n, ProcTotals{});
  last_activity_.assign(n, 0.0);
  finish_ = 0.0;
  done_.clear();
  waits_.clear();
  messages_.clear();
  barriers_.clear();
}

double TraceRecorder::now(int proc) const {
  if (!clock_) throw std::logic_error("TraceRecorder: no clock installed");
  return clock_(proc);
}

void TraceRecorder::begin_span(int proc, std::string name, std::string category) {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::begin_span: bad proc");
  }
  auto& stack = open_[static_cast<std::size_t>(proc)];
  Span s;
  s.proc = proc;
  s.depth = static_cast<int>(stack.size());
  s.t0 = now(proc);
  s.name = std::move(name);
  s.category = std::move(category);
  stack.push_back(std::move(s));
}

void TraceRecorder::end_span(int proc) {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::end_span: bad proc");
  }
  auto& stack = open_[static_cast<std::size_t>(proc)];
  if (stack.empty()) {
    throw std::logic_error("TraceRecorder::end_span: no open span on proc " +
                           std::to_string(proc));
  }
  Span s = std::move(stack.back());
  stack.pop_back();
  s.t1 = std::max(s.t0, now(proc));
  touch(proc, s.t1);
  if (busy_ == Busy::Elapsed) {
    // Real time passes continuously, so a span's compute is its elapsed
    // time minus the waits recorded while it was open. Root spans also
    // carry the per-processor busy total.
    s.busy = std::max(0.0, s.duration() - s.wait());
    if (s.depth == 0) totals_[static_cast<std::size_t>(proc)].busy += s.busy;
  }
  shards_[static_cast<std::size_t>(proc)].spans.push_back(std::move(s));
}

int TraceRecorder::open_depth(int proc) const {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::open_depth: bad proc");
  }
  return static_cast<int>(open_[static_cast<std::size_t>(proc)].size());
}

void TraceRecorder::add_busy(int proc, double dt) {
  if (dt <= 0.0) return;
  if (clock_) touch(proc, clock_(proc));
  totals_[static_cast<std::size_t>(proc)].busy += dt;
  for (Span& s : open_[static_cast<std::size_t>(proc)]) s.busy += dt;
}

void TraceRecorder::message_sent(int src, int dst, std::uint64_t tag, std::uint64_t bytes,
                                 double t0, double t1) {
  MessageRecord m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.bytes = bytes;
  m.send_t0 = t0;
  m.send_t1 = t1;
  touch(src, t1);
  shards_[static_cast<std::size_t>(src)].sends.push_back(m);
  ProcTotals& t = totals_[static_cast<std::size_t>(src)];
  t.messages += 1;
  t.bytes += bytes;
  for (Span& s : open_[static_cast<std::size_t>(src)]) {
    s.messages += 1;
    s.bytes += bytes;
  }
}

void TraceRecorder::message_received(int dst, int src, std::uint64_t tag, double wait_t0,
                                     double ready_t) {
  RecvNote n{src, tag, ready_t, -1};
  touch(dst, ready_t);
  if (ready_t > wait_t0) n.wait = add_wait(dst, WaitKind::Recv, wait_t0, ready_t, src, wait_t0);
  shards_[static_cast<std::size_t>(dst)].recvs.push_back(n);
}

void TraceRecorder::barrier_note(int proc, std::uint64_t group_key, double arrive_t,
                                 double release_t, std::uint64_t arrival_seq) {
  BarrierNote n{group_key, arrival_seq, arrive_t, release_t, -1};
  touch(proc, release_t);
  if (release_t > arrive_t) {
    n.wait = add_wait(proc, WaitKind::Barrier, arrive_t, release_t, proc, arrive_t);
  }
  shards_[static_cast<std::size_t>(proc)].barriers.push_back(n);
}

void TraceRecorder::io_wait(int proc, double t0, double t1, int cause_proc,
                            double cause_time) {
  if (t1 > t0) add_wait(proc, WaitKind::Io, t0, t1, cause_proc, cause_time);
}

void TraceRecorder::plan_cache_event(int proc, bool hit) {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::plan_cache_event: bad proc");
  }
  for (Span& s : open_[static_cast<std::size_t>(proc)]) {
    (hit ? s.plan_hits : s.plan_misses) += 1;
  }
}

// Shard blobs travel between a forked child and its parent, the same
// binary image: trivially-copyable records ship as raw bytes, and only Span
// needs per-field treatment for its strings.

void TraceRecorder::serialize_shard(int proc, std::vector<std::byte>& out) const {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::serialize_shard: bad proc");
  }
  using namespace blob;
  const auto i = static_cast<std::size_t>(proc);
  const Shard& sh = shards_[i];
  put<std::int32_t>(out, proc);
  put<std::uint64_t>(out, static_cast<std::uint64_t>(sh.spans.size()));
  for (const Span& s : sh.spans) {
    put<std::int32_t>(out, s.proc);
    put<std::int32_t>(out, s.depth);
    put(out, s.t0);
    put(out, s.t1);
    put_str(out, s.name);
    put_str(out, s.category);
    put(out, s.busy);
    put(out, s.recv_wait);
    put(out, s.barrier_wait);
    put(out, s.io_wait);
    put(out, s.messages);
    put(out, s.bytes);
    put(out, s.plan_hits);
    put(out, s.plan_misses);
  }
  put_vec(out, sh.waits);
  put_vec(out, sh.sends);
  put_vec(out, sh.recvs);
  put_vec(out, sh.barriers);
  put(out, totals_[i]);
  put(out, placements_[i]);
  put(out, last_activity_[i]);
}

void TraceRecorder::absorb_shard(blob::Reader& in) {
  const auto proc = in.get<std::int32_t>();
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::absorb_shard: bad proc in blob");
  }
  const auto i = static_cast<std::size_t>(proc);
  const auto n_spans = in.get<std::uint64_t>();
  Shard sh;
  for (std::uint64_t k = 0; k < n_spans; ++k) {
    Span s;
    s.proc = in.get<std::int32_t>();
    s.depth = in.get<std::int32_t>();
    s.t0 = in.get<double>();
    s.t1 = in.get<double>();
    s.name = in.str();
    s.category = in.str();
    s.busy = in.get<double>();
    s.recv_wait = in.get<double>();
    s.barrier_wait = in.get<double>();
    s.io_wait = in.get<double>();
    s.messages = in.get<std::uint64_t>();
    s.bytes = in.get<std::uint64_t>();
    s.plan_hits = in.get<std::uint64_t>();
    s.plan_misses = in.get<std::uint64_t>();
    sh.spans.push_back(std::move(s));
  }
  sh.waits = in.vec<Wait>();
  sh.sends = in.vec<MessageRecord>();
  sh.recvs = in.vec<RecvNote>();
  sh.barriers = in.vec<BarrierNote>();
  shards_[i] = std::move(sh);
  totals_[i] = in.get<ProcTotals>();
  placements_[i] = in.get<PlacementRecord>();
  last_activity_[i] = std::max(last_activity_[i], in.get<double>());
}

std::int64_t TraceRecorder::add_wait(int proc, WaitKind kind, double t0, double t1,
                                     int cause_proc, double cause_time) {
  Wait w;
  w.proc = proc;
  w.kind = kind;
  w.t0 = t0;
  w.t1 = t1;
  w.cause_proc = cause_proc;
  w.cause_time = cause_time;
  touch(proc, t1);
  auto& waits = shards_[static_cast<std::size_t>(proc)].waits;
  waits.push_back(w);
  const double dt = t1 - t0;
  ProcTotals& t = totals_[static_cast<std::size_t>(proc)];
  auto bump = [&](Span* s) {
    switch (kind) {
      case WaitKind::Recv:
        if (s) s->recv_wait += dt; else t.recv_wait += dt;
        break;
      case WaitKind::Barrier:
        if (s) s->barrier_wait += dt; else t.barrier_wait += dt;
        break;
      case WaitKind::Io:
        if (s) s->io_wait += dt; else t.io_wait += dt;
        break;
    }
  };
  bump(nullptr);
  // Blocked processors cannot touch their span stack, so the stack now is
  // the stack that was open for the whole wait.
  for (Span& s : open_[static_cast<std::size_t>(proc)]) bump(&s);
  return static_cast<std::int64_t>(waits.size()) - 1;
}

void TraceRecorder::touch(int proc, double t) {
  auto& last = last_activity_[static_cast<std::size_t>(proc)];
  last = std::max(last, t);
}

void TraceRecorder::merge_messages() {
  // Ids are 1-based in (send start, sender) order. Every rank's clock is
  // monotonic, so each sender keeps its program order here, and the k-th
  // (src, dst, tag) record below is that sender's k-th such send.
  for (const Shard& sh : shards_) {
    messages_.insert(messages_.end(), sh.sends.begin(), sh.sends.end());
  }
  std::stable_sort(messages_.begin(), messages_.end(),
                   [](const MessageRecord& a, const MessageRecord& b) {
                     if (a.send_t0 != b.send_t0) return a.send_t0 < b.send_t0;
                     return a.src < b.src;
                   });
  std::map<std::tuple<int, int, std::uint64_t>, std::deque<std::size_t>> fifo;
  for (std::size_t i = 0; i < messages_.size(); ++i) {
    MessageRecord& m = messages_[i];
    m.id = i + 1;
    fifo[{m.src, m.dst, m.tag}].push_back(i);
  }
  // A receive takes the oldest message of its (src, tag) key, exactly as
  // MailStore matches on every backend.
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    Shard& sh = shards_[dst];
    for (const RecvNote& n : sh.recvs) {
      auto it = fifo.find({n.src, static_cast<int>(dst), n.tag});
      if (it == fifo.end() || it->second.empty()) continue;
      MessageRecord& m = messages_[it->second.front()];
      it->second.pop_front();
      m.recv_t = n.recv_t;
      if (n.wait >= 0) {
        Wait& w = sh.waits[static_cast<std::size_t>(n.wait)];
        w.cause_time = m.send_t1;
        w.ref = m.id;
      }
    }
  }
}

void TraceRecorder::merge_barriers() {
  // Every member of a group takes part in every episode of it, so a
  // member's k-th note on a group belongs to the group's k-th episode.
  struct Member {
    int proc;
    BarrierNote* note;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Member>> episodes;
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    std::map<std::uint64_t, std::uint64_t> seen;
    for (BarrierNote& n : shards_[p].barriers) {
      episodes[{n.group_key, ++seen[n.group_key]}].push_back(
          Member{static_cast<int>(p), &n});
    }
  }
  std::vector<std::pair<BarrierRecord, std::vector<Member>>> built;
  built.reserve(episodes.size());
  for (auto& [key, members] : episodes) {
    // Arrival order, whose last entry is the release cause.
    std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
      const BarrierNote& x = *a.note;
      const BarrierNote& y = *b.note;
      if (x.arrive_t != y.arrive_t) return x.arrive_t < y.arrive_t;
      if (x.arrival_seq != y.arrival_seq) return x.arrival_seq < y.arrival_seq;
      return a.proc < b.proc;
    });
    BarrierRecord b;
    b.group_key = key.first;
    for (const Member& m : members) {
      b.procs.push_back(m.proc);
      b.arrivals.push_back(m.note->arrive_t);
      b.release = std::max(b.release, m.note->release_t);
    }
    b.last_arriver = members.back().proc;
    built.emplace_back(std::move(b), std::move(members));
  }
  std::stable_sort(built.begin(), built.end(), [](const auto& a, const auto& b) {
    return a.first.release < b.first.release;
  });
  for (auto& [b, members] : built) {
    b.id = barriers_.size() + 1;
    const double max_arrival = b.arrivals.back();
    for (const Member& m : members) {
      if (m.note->wait < 0) continue;
      auto& waits = shards_[static_cast<std::size_t>(m.proc)].waits;
      Wait& w = waits[static_cast<std::size_t>(m.note->wait)];
      w.cause_proc = b.last_arriver;
      w.cause_time = max_arrival;
      w.ref = b.id;
    }
    barriers_.push_back(std::move(b));
  }
}

void TraceRecorder::finalize(double finish) {
  finish_ = finish;
  for (int p = 0; p < num_procs(); ++p) {
    auto& stack = open_[static_cast<std::size_t>(p)];
    while (!stack.empty()) {
      Span s = std::move(stack.back());
      stack.pop_back();
      s.t1 = std::max(s.t0, finish);
      shards_[static_cast<std::size_t>(p)].spans.push_back(std::move(s));
    }
  }
  merge_messages();
  merge_barriers();  // patches wait causes, so before the waits merge
  for (Shard& sh : shards_) {
    std::move(sh.spans.begin(), sh.spans.end(), std::back_inserter(done_));
    waits_.insert(waits_.end(), sh.waits.begin(), sh.waits.end());
  }
  shards_.assign(shards_.size(), Shard{});
  // Deterministic order for exporters: spans by processor, then open time,
  // then deeper-first so parents precede children only via (t0, depth);
  // waits by start, interleaving the per-rank streams (each already in
  // time order).
  std::stable_sort(done_.begin(), done_.end(), [](const Span& a, const Span& b) {
    if (a.proc != b.proc) return a.proc < b.proc;
    if (a.t0 != b.t0) return a.t0 < b.t0;
    return a.depth < b.depth;
  });
  std::stable_sort(waits_.begin(), waits_.end(),
                   [](const Wait& a, const Wait& b) { return a.t0 < b.t0; });
}

}  // namespace fxpar::trace
