// Bench-side instrumentation for bench_suite: per-rank logs of stage timing
// and spans recorded around calls into the public APIs, the funnel that
// ships them out of forked proc-backend ranks, and the Chrome-trace and
// self-time views of the spans. Nothing here changes the measured program:
// the stages it wraps are the library's own, called unchanged.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/stream_pipeline.hpp"
#include "comm/serialize.hpp"

namespace suite {

namespace fx = fxpar;

/// Host monotonic clock in seconds. CLOCK_MONOTONIC is machine-global, so
/// stamps taken in forked proc-backend ranks compare directly with the
/// driver's.
inline double clock_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded interval. `id` is the data-set, request or call id (spans
/// of one data set share it across ranks); `parent` is the index of the
/// enclosing driver span, -1 for a root.
struct Span {
  std::int32_t name = 0;  ///< index into Probe::names
  std::int32_t rank = -1; ///< physical rank, -1 for the driver thread
  std::int64_t id = 0;
  std::int64_t parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
};

inline constexpr int kMaxStages = 3;

/// Resource usage of this process plus its reaped children (the proc
/// backend's ranks are reaped inside each call).
struct OsUsage {
  double user_s = 0.0, sys_s = 0.0, minor_faults = 0.0, vol_cs = 0.0, invol_cs = 0.0;

  static OsUsage now() {
    OsUsage u;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
      struct rusage r {};
      getrusage(who, &r);
      u.user_s += static_cast<double>(r.ru_utime.tv_sec) + 1e-6 * r.ru_utime.tv_usec;
      u.sys_s += static_cast<double>(r.ru_stime.tv_sec) + 1e-6 * r.ru_stime.tv_usec;
      u.minor_faults += static_cast<double>(r.ru_minflt);
      u.vol_cs += static_cast<double>(r.ru_nvcsw);
      u.invol_cs += static_cast<double>(r.ru_nivcsw);
    }
    return u;
  }
  void add_since(const OsUsage& from, const OsUsage& to) {
    user_s += to.user_s - from.user_s;
    sys_s += to.sys_s - from.sys_s;
    minor_faults += to.minor_faults - from.minor_faults;
    vol_cs += to.vol_cs - from.vol_cs;
    invol_cs += to.invol_cs - from.invol_cs;
  }
};

/// What one rank observed. start/end/rows cover the data sets of the
/// current call (reset before each); busy and spans accumulate over the
/// whole workload.
struct RankLog {
  std::vector<double> start;        ///< per local set: first-stage entry
  std::vector<double> end;          ///< per local set: last-stage exit
  std::vector<std::int64_t> rows;   ///< per local set: `bins` captured output values
  std::vector<std::int64_t> have;   ///< per local set: 1 when this rank captured the row
  std::array<double, kMaxStages> busy{};
  std::vector<Span> spans;
  std::size_t spans_mark = 0;       ///< spans.size() when the current call began
};

/// Per-workload probe shared by the driver and every rank.
class Probe {
 public:
  Probe(int ranks, int bins) : bins_(bins), ranks_(static_cast<std::size_t>(ranks)) {}

  /// Registers a span name and returns its index.
  int name(const std::string& n) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == n) return static_cast<int>(i);
    }
    names.push_back(n);
    return static_cast<int>(names.size() - 1);
  }

  /// Starts a call of `sets` data sets into the program: resets the rank
  /// logs and stamps the call's start. A traced call also opens a "run"
  /// driver span (id `call_id`, under `parent_span`) that the ranks' spans
  /// hang under; its data-set spans carry ids `id_base + k`.
  void begin_call(int sets, bool traced, std::int64_t call_id, std::int64_t parent_span,
                  std::int64_t id_base) {
    tracing = traced;
    base = id_base;
    for (RankLog& r : ranks_) {
      r.start.assign(static_cast<std::size_t>(sets), std::numeric_limits<double>::infinity());
      r.end.assign(static_cast<std::size_t>(sets), -std::numeric_limits<double>::infinity());
      r.rows.assign(static_cast<std::size_t>(sets) * static_cast<std::size_t>(bins_), 0);
      r.have.assign(static_cast<std::size_t>(sets), 0);
      r.spans_mark = r.spans.size();
    }
    parent = traced ? begin_span(name("run"), call_id, parent_span) : -1;
    call_os0_ = OsUsage::now();
    call_t0_ = clock_s();
  }

  /// Ends the current call; returns its wall time. The call's resource
  /// usage is added to os_total, so bench work between calls (checking
  /// outputs, making inputs) never counts as the program's.
  double end_call() {
    const double t1 = clock_s();
    os_total.add_since(call_os0_, OsUsage::now());
    if (parent >= 0) driver[static_cast<std::size_t>(parent)].t1 = t1;
    return t1 - call_t0_;
  }

  /// Host time at which the current call started.
  double call_start() const { return call_t0_; }

  /// Zeroes the busy and resource totals (set-up work is not measured work).
  void reset_totals() {
    for (RankLog& r : ranks_) r.busy = {};
    os_total = {};
  }

  RankLog& rank(int r) { return ranks_[static_cast<std::size_t>(r)]; }
  int num_ranks() const { return static_cast<int>(ranks_.size()); }
  int bins() const { return bins_; }

  /// Records a rank-side interval: busy time for `stage`, first-entry /
  /// last-exit stamps for local set `k`, and a span when tracing.
  void record(int r, int stage, int name_idx, int k, double t0, double t1, bool first,
              bool last) {
    RankLog& log = rank(r);
    log.busy[static_cast<std::size_t>(stage)] += t1 - t0;
    const auto i = static_cast<std::size_t>(k);
    if (first) log.start[i] = std::min(log.start[i], t0);
    if (last) log.end[i] = std::max(log.end[i], t1);
    if (tracing) log.spans.push_back({name_idx, r, base + k, parent, t0, t1});
  }

  /// Earliest first-stage entry / latest last-stage exit of local set `k`
  /// over all ranks (after funnel() on the process backend).
  double set_start(int k) const {
    double t = std::numeric_limits<double>::infinity();
    for (const RankLog& r : ranks_) t = std::min(t, r.start[static_cast<std::size_t>(k)]);
    return t;
  }
  double set_end(int k) const {
    double t = -std::numeric_limits<double>::infinity();
    for (const RankLog& r : ranks_) t = std::max(t, r.end[static_cast<std::size_t>(k)]);
    return t;
  }

  /// The captured output row of local set `k`, empty when no rank captured it.
  std::vector<std::int64_t> row(int k) const {
    for (const RankLog& r : ranks_) {
      if (r.have[static_cast<std::size_t>(k)] != 0) {
        const auto b = r.rows.begin() + static_cast<std::ptrdiff_t>(k) * bins_;
        return {b, b + bins_};
      }
    }
    return {};
  }

  double busy(int stage) const {
    double s = 0.0;
    for (const RankLog& r : ranks_) s += r.busy[static_cast<std::size_t>(stage)];
    return s;
  }

  /// Every span recorded so far: driver spans then rank spans.
  std::vector<Span> all_spans() const {
    std::vector<Span> out = driver;
    for (const RankLog& r : ranks_) out.insert(out.end(), r.spans.begin(), r.spans.end());
    return out;
  }

  /// Ships every non-zero rank's log for the current call to rank 0 (call
  /// on every rank at the end of the program body). On the process backend
  /// a forked rank's memory dies with it, so this is how rank 0 — the
  /// driver's address space — learns set stamps, captured rows, busy time
  /// and spans recorded elsewhere. Rank 0 overwrites its copy of rank r's
  /// busy totals (the child started from that copy at fork) and appends
  /// only the spans recorded since the call began.
  void funnel(fx::machine::Context& ctx) {
    constexpr std::uint64_t kTag = 0x5b5e00;
    const int me = ctx.phys_rank();
    if (me != 0) {
      RankLog& log = rank(me);
      std::vector<double> times = log.start;
      times.insert(times.end(), log.end.begin(), log.end.end());
      times.insert(times.end(), log.busy.begin(), log.busy.end());
      std::vector<std::int64_t> rows = log.rows;
      rows.insert(rows.end(), log.have.begin(), log.have.end());
      const std::span<const Span> fresh(log.spans.data() + log.spans_mark,
                                        log.spans.size() - log.spans_mark);
      ctx.send_phys(0, kTag, fx::comm::pack_span(std::span<const double>(times)));
      ctx.send_phys(0, kTag + 1, fx::comm::pack_span(std::span<const std::int64_t>(rows)));
      ctx.send_phys(0, kTag + 2, fx::comm::pack_span(fresh));
      return;
    }
    for (int r = 1; r < num_ranks(); ++r) {
      RankLog& log = rank(r);
      const std::size_t n = log.start.size();
      const auto times = fx::comm::unpack_vector<double>(ctx.recv_phys(r, kTag));
      const auto rows = fx::comm::unpack_vector<std::int64_t>(ctx.recv_phys(r, kTag + 1));
      const auto spans = fx::comm::unpack_vector<Span>(ctx.recv_phys(r, kTag + 2));
      if (times.size() != 2 * n + kMaxStages || rows.size() != log.rows.size() + n) {
        throw std::runtime_error("bench_suite: funnel payload size mismatch");
      }
      std::copy(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(n),
                log.start.begin());
      std::copy(times.begin() + static_cast<std::ptrdiff_t>(n),
                times.begin() + static_cast<std::ptrdiff_t>(2 * n), log.end.begin());
      std::copy(times.begin() + static_cast<std::ptrdiff_t>(2 * n), times.end(),
                log.busy.begin());
      std::copy(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(log.rows.size()),
                log.rows.begin());
      std::copy(rows.begin() + static_cast<std::ptrdiff_t>(log.rows.size()), rows.end(),
                log.have.begin());
      log.spans.insert(log.spans.end(), spans.begin(), spans.end());
    }
  }

  /// Opens a driver span and returns its index (close with end_span).
  std::int64_t begin_span(int name_idx, std::int64_t id, std::int64_t parent_span) {
    driver.push_back({name_idx, -1, id, parent_span, clock_s(), 0.0});
    return static_cast<std::int64_t>(driver.size() - 1);
  }
  double end_span(std::int64_t s) {
    Span& sp = driver[static_cast<std::size_t>(s)];
    sp.t1 = clock_s();
    return sp.t1 - sp.t0;
  }

  std::vector<std::string> names;
  std::vector<Span> driver;  ///< driver-thread spans; a span's index is its uid
  bool tracing = false;      ///< read by ranks during a call
  OsUsage os_total;          ///< summed over calls since reset_totals()

 private:
  int bins_;
  std::int64_t parent = -1;
  std::int64_t base = 0;
  double call_t0_ = 0.0;
  OsUsage call_os0_;
  std::vector<RankLog> ranks_;
};

/// Wraps the stages of a Complex-valued stream program so every call is
/// timed per rank: stage 0's data-set id is mapped through `inputs` (local
/// set -> input id), and the member with virtual rank 0 of the last
/// stage's subgroup captures the first `probe.bins()` real parts of that
/// stage's output as the data set's result row.
inline std::vector<fx::apps::PipelineStage<std::complex<double>>> instrument(
    std::vector<fx::apps::PipelineStage<std::complex<double>>> stages, Probe& probe,
    const std::vector<int>& inputs) {
  using Arr = fx::dist::DistArray<std::complex<double>>;
  const int S = static_cast<int>(stages.size());
  for (int s = 0; s < S; ++s) {
    auto& st = stages[static_cast<std::size_t>(s)];
    const int name_idx = probe.name("stage." + st.name);
    st.run = [inner = std::move(st.run), s, S, name_idx, &probe, &inputs](
                 fx::machine::Context& ctx, Arr& in, Arr& out, int k) {
      const double t0 = clock_s();
      inner(ctx, in, out, s == 0 ? inputs[static_cast<std::size_t>(k)] : k);
      const double t1 = clock_s();
      const int me = ctx.phys_rank();
      const bool last = s + 1 == S;
      probe.record(me, s, name_idx, k, t0, t1, s == 0, last);
      if (last && out.group().virtual_of(me) == 0) {
        RankLog& log = probe.rank(me);
        const auto vals = out.local();
        for (int b = 0; b < probe.bins(); ++b) {
          log.rows[static_cast<std::size_t>(k) * static_cast<std::size_t>(probe.bins()) +
                   static_cast<std::size_t>(b)] =
              static_cast<std::int64_t>(vals[static_cast<std::size_t>(b)].real());
        }
        log.have[static_cast<std::size_t>(k)] = 1;
      }
    };
  }
  return stages;
}

/// Writes spans as Chrome trace JSON (one "X" slice per span; the driver
/// thread is tid = number of ranks). Returns false when the file cannot be
/// written.
inline bool write_chrome(const Probe& probe, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  const auto spans = probe.all_spans();
  double t_min = std::numeric_limits<double>::infinity();
  for (const Span& s : spans) t_min = std::min(t_min, s.t0);
  f << "{\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (const Span& s : spans) {
    if (s.t1 < s.t0) continue;  // never closed (a failed call)
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld}}",
                  first ? "" : ",", probe.names[static_cast<std::size_t>(s.name)].c_str(),
                  s.rank >= 0 ? s.rank : probe.num_ranks(), (s.t0 - t_min) * 1e6,
                  (s.t1 - s.t0) * 1e6, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent));
    f << buf;
    first = false;
  }
  f << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(f);
}

/// Total and self time per span name. A span's self time is its duration
/// minus the part of its interval covered by its children (the union over
/// ranks, so four ranks busy in parallel cover an interval once).
inline std::map<std::string, std::pair<double, double>> self_times(const Probe& probe) {
  const auto spans = probe.all_spans();
  std::map<std::int64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].push_back({s.t0, s.t1});
  }
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.t1 < s.t0) continue;
    double covered = 0.0;
    // Only driver spans (rank -1, indexed by uid) have children.
    if (s.rank < 0) {
      auto it = kids.find(static_cast<std::int64_t>(i));
      if (it != kids.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        double lo = s.t0;
        for (auto [a, b] : iv) {
          a = std::max(a, lo);
          b = std::min(b, s.t1);
          if (b > a) {
            covered += b - a;
            lo = b;
          }
        }
      }
    }
    auto& slot = out[probe.names[static_cast<std::size_t>(s.name)]];
    slot.first += s.t1 - s.t0;
    slot.second += s.t1 - s.t0 - covered;
  }
  return out;
}

}  // namespace suite
