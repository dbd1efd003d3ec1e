// bench_suite: host-time benchmark of the paper's workloads on the real
// backends (threads, proc over shm and tcp), four logical ranks, one
// process per workload. Each workload drives the public APIs of apps,
// dist, machine and exec with seeded inputs for a fixed wall-clock
// measurement window, checks every output against a sequential reference,
// and prints its metrics by name and unit as one JSON line.
//
//   bench_suite --workload NAME|all --seed S [--seconds T] [--smoke]
//               [--json-out FILE] [--trace-out FILE]
//
// --trace-out adds the per-layer metrics (see README.md): ranks record
// bench-side spans on half of the calls, the spans are written to FILE as
// Chrome trace JSON, and per-span self times are printed. `all` runs each
// workload in a fresh child process, so peak RSS and OS counters are per
// workload. Malformed flags exit 2.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/ffthist.hpp"
#include "apps/quicksort.hpp"
#include "bench/bench_common.hpp"
#include "probe.hpp"

namespace {

namespace ap = fxpar::apps;
namespace ex = fxpar::exec;
namespace mc = fxpar::machine;
using Complex = std::complex<double>;
using suite::clock_s;

constexpr int kRanks = 4;
constexpr int kBins = 64;
constexpr int kInputs = 16;        ///< distinct stream inputs per run (references)
constexpr int kSetups = 5;         ///< set-ups per run; setup_s is their median

struct Args {
  std::string workload;
  long seed = -1;
  double seconds = 10.0;
  bool smoke = false;
  std::string json_out;
  std::string trace_out;
};

/// One call into the program: a run_stream_pipeline_on or one sort.
struct Call {
  double wall_s = 0.0;  ///< call duration on the driver
  int items = 0;
  double app_s = 0.0;   ///< first item entry -> last item exit, on the ranks
  bool traced = false;
};

/// Everything one workload measured; end_to_end() and per_layer() report it.
struct Measure {
  std::vector<double> setup_s, ctor_ms;
  std::vector<double> latency_ms, queue_wait_ms;  ///< per item
  std::vector<Call> calls;
  double throughput = 0.0;
  long attempted = 0, failed = 0, slo_missed = 0;
  double slo_s = 0.050;  ///< per-item latency limit behind driver.slo_miss_frac
  std::map<std::string, double> layer;  ///< metric-registry deltas (+ ".sum" for histograms)
  double exec_wait_s = 0.0;
  std::vector<std::string> stage_names;  ///< index = stage slot in the probe
  std::vector<int> stage_procs;          ///< processors of each stage's module
  std::vector<std::vector<int>> modules; ///< stage slots per module
  bool handoffs_outside_spans = false;   ///< redistributions happen between app spans
  bool open_loop = false;  ///< throughput is the offered load, so host speed does not set it
  std::vector<double> speed_s;  ///< host-speed slice times
  double last_speed_t = 0.0;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void add_snapshot_delta(Measure& m, const fxpar::metrics::Snapshot& before,
                        const fxpar::metrics::Snapshot& after) {
  for (const auto& [name, v] : after.counters) {
    m.layer[name] += static_cast<double>(v - before.counter(name));
  }
  for (const auto& [name, h] : after.histograms) {
    const auto it = before.histograms.find(name);
    m.layer[name + ".sum"] += h.sum - (it == before.histograms.end() ? 0.0 : it->second.sum);
  }
}

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

mc::MachineConfig machine_config(ex::BackendKind backend, ex::TransportKind transport) {
  mc::MachineConfig cfg = mc::MachineConfig::paragon(kRanks);
  cfg.backend = backend;
  cfg.transport = transport;
  return cfg;
}

// ---------------------------------------------------------------------------
// Host-speed probe.
//
// The shared virtual machines this suite runs on change speed by a third
// or more over minutes as neighbours come and go (a fixed 4-thread FFT
// loop measured 340/s in one stretch and 520/s in another), which would
// swamp any change to the program. The suite times slices of a fixed,
// bench-owned kernel (radix-2 butterfly passes over 1 MiB per thread on
// kRanks threads at once, no library code) before set-up, after the
// window, and between the calls of the closed-loop workloads, so the
// slices cover the same stretch as the calls; the open-loop workload gets
// none inside its window, where they would delay requests. End-to-end
// times are reported at the reference speed: multiplied by host_speed =
// kRefSliceS / median slice time, and rates divided by it, except the
// open loop's served rate, which the offered load sets. The unscaled
// values and host_speed are printed alongside.

constexpr int kSpeedSlices = 12;    ///< slices before set-up and after the window
constexpr double kSpeedEveryS = 0.4;  ///< spacing of slices inside the window
constexpr double kRefSliceS = 0.0225;  ///< slice time on an uncontended host

std::atomic<double> g_speed_sink{0.0};

double speed_slice() {
  constexpr std::size_t kN = 1 << 16;
  const double t0 = clock_s();
  std::vector<std::thread> threads;
  for (int t = 0; t < kRanks; ++t) {
    threads.emplace_back([t] {
      std::vector<Complex> a(kN);
      for (std::size_t i = 0; i < kN; ++i) a[i] = Complex(1.0 + 1e-6 * i, 0.5 - 1e-3 * t);
      const Complex w(0.6, 0.8);
      for (int rep = 0; rep < 4; ++rep) {
        for (std::size_t half = 1; half < kN; half <<= 1) {
          for (std::size_t b = 0; b < kN; b += 2 * half) {
            for (std::size_t j = b; j < b + half; ++j) {
              const Complex u = a[j], v = a[j + half] * w;
              a[j] = (u + v) * 0.5;
              a[j + half] = (u - v) * 0.5;
            }
          }
        }
      }
      g_speed_sink.store(a[7].real(), std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  return clock_s() - t0;
}

void speed_slices(std::vector<double>& slices) {
  for (int i = 0; i < kSpeedSlices; ++i) slices.push_back(speed_slice());
}

/// Between two calls of a closed-loop workload: one probe slice when
/// kSpeedEveryS passed since the last, so the probe samples the host over
/// the same stretch as the calls it scales.
void speed_slice_between(Measure& m) {
  if (clock_s() - m.last_speed_t < kSpeedEveryS) return;
  m.speed_s.push_back(speed_slice());
  m.last_speed_t = clock_s();
}

/// Whether call i of a traced run records spans. Calls go untraced,
/// traced, traced, untraced, ... so each pair (2j, 2j+1) holds one of each
/// and a steady drift in host speed favours neither side of
/// bench.trace_overhead_ratio.
bool traced_call(int i) { return (i + 1) / 2 % 2 == 1; }

// ---------------------------------------------------------------------------
// Stream workloads: FFT-Hist through run_stream_pipeline_on on one Machine.

struct StreamSpec {
  ex::BackendKind backend;
  ex::TransportKind transport;
  std::vector<ap::StreamModule> modules;
  std::int64_t n;  ///< FFT edge
  int chunk;       ///< data sets per call
};

/// A Machine plus the instrumented FFT-Hist program and its references.
class StreamRig {
 public:
  StreamRig(const StreamSpec& spec, long seed, suite::Probe& probe)
      : spec_(spec), probe_(probe) {
    cfg_ = machine_config(spec.backend, spec.transport);
    ap::FftHistConfig fc;
    fc.n = spec.n;
    fc.bins = kBins;
    input_base_ = static_cast<int>(seed % 1000003) * kInputs;
    for (int i = 0; i < kInputs; ++i) refs_.push_back(ap::ffthist_reference(fc, input_base_ + i));
    stages_ = suite::instrument(ap::ffthist_stages(fc), probe_, inputs_);
    if (spec.backend == ex::BackendKind::Proc) {
      opts_.epilogue = [this](mc::Context& ctx) { probe_.funnel(ctx); };
    }
  }

  /// Builds a fresh Machine (destroying the previous one first); returns
  /// the constructor's wall time in ms.
  double rebuild() {
    machine_.reset();
    const double t0 = clock_s();
    machine_ = std::make_unique<mc::Machine>(cfg_);
    return (clock_s() - t0) * 1e3;
  }

  mc::Machine& machine() { return *machine_; }

  /// Runs local sets [0, sets) with global ids id_base + k; returns the
  /// call's wall time and verifies every set's histogram, counting
  /// failures into `failed`. A throwing call fails all of its sets.
  double call(int sets, std::int64_t id_base, bool traced, std::int64_t parent, long& failed,
              mc::RunResult* res_out = nullptr) {
    inputs_.resize(static_cast<std::size_t>(sets));
    for (int k = 0; k < sets; ++k) {
      inputs_[static_cast<std::size_t>(k)] =
          input_base_ + static_cast<int>((id_base + k) % kInputs);
    }
    probe_.begin_call(sets, traced, calls_++, parent, id_base);
    bool threw = false;
    try {
      ap::StreamStats st =
          ap::run_stream_pipeline_on(*machine_, stages_, spec_.modules, sets, opts_);
      if (res_out) *res_out = std::move(st.machine_result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_suite: stream call failed: %s\n", e.what());
      threw = true;
    }
    const double wall = probe_.end_call();
    for (int k = 0; k < sets; ++k) {
      if (threw || probe_.row(k) != refs_[static_cast<std::size_t>((id_base + k) % kInputs)]) {
        ++failed;
      }
    }
    return wall;
  }

 private:
  StreamSpec spec_;
  suite::Probe& probe_;
  mc::MachineConfig cfg_;
  int input_base_ = 0;
  std::vector<std::vector<std::int64_t>> refs_;
  std::vector<int> inputs_;  ///< local set -> input id of the current call
  std::vector<ap::PipelineStage<Complex>> stages_;
  ap::StreamRunOptions opts_;
  std::unique_ptr<mc::Machine> machine_;
  std::int64_t calls_ = 0;
};

void describe_stream(Measure& m, const StreamSpec& spec) {
  m.stage_names = {"cffts", "rffts", "hist"};
  m.stage_procs.assign(3, 0);
  for (const ap::StreamModule& mod : spec.modules) {
    std::vector<int> slots;
    for (int s = mod.first_stage; s <= mod.last_stage; ++s) {
      slots.push_back(s);
      m.stage_procs[static_cast<std::size_t>(s)] = mod.total_procs();
    }
    m.modules.push_back(slots);
  }
  m.handoffs_outside_spans = true;
}

/// Set-up: kSetups times build a Machine and run a short warm-up stream,
/// so plan caches, payload pools and page faults are paid before timing.
void stream_setup(Measure& m, StreamRig& rig, suite::Probe& probe, int warm_sets) {
  const int setup_name = probe.name("setup");
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::int64_t span = probe.begin_span(setup_name, rep, -1);
    m.ctor_ms.push_back(rig.rebuild());
    long ignored = 0;
    rig.call(warm_sets, 0, false, span, ignored);
    m.setup_s.push_back(probe.end_span(span));
    if (ignored != 0) {
      std::fprintf(stderr, "bench_suite: warm-up produced wrong results\n");
      m.failed += ignored;
    }
  }
  probe.reset_totals();
}

/// Long stream: back-to-back calls of `chunk` sets for the measurement
/// window. Throughput is the median per-call rate; latency is per set,
/// first-stage entry to last-stage exit.
Measure stream_workload(const Args& a, const StreamSpec& spec, suite::Probe& probe,
                        bool tracing) {
  Measure m;
  describe_stream(m, spec);
  StreamRig rig(spec, a.seed, probe);
  stream_setup(m, rig, probe, a.smoke ? 4 : 16);

  const auto before = rig.machine().metrics_snapshot();
  const double t_end = clock_s() + a.seconds;
  std::vector<double> rates;
  for (int i = 0; clock_s() < t_end || i < 2; ++i) {
    const bool traced = tracing && traced_call(i);
    const std::int64_t id_base = static_cast<std::int64_t>(i) * spec.chunk;
    mc::RunResult res;
    const long failed_before = m.failed;
    const double wall = rig.call(spec.chunk, id_base, traced, -1, m.failed, &res);
    double first = std::numeric_limits<double>::infinity(), last = -first;
    for (int k = 0; k < spec.chunk; ++k) {
      const double s = probe.set_start(k), e = probe.set_end(k);
      if (!(e >= s)) continue;  // a failed call leaves no stamps
      first = std::min(first, s);
      last = std::max(last, e);
      m.latency_ms.push_back((e - s) * 1e3);
      m.queue_wait_ms.push_back((s - probe.call_start()) * 1e3);
      if (e - s > m.slo_s) ++m.slo_missed;
    }
    m.slo_missed += m.failed - failed_before;
    m.calls.push_back({wall, spec.chunk, last >= first ? last - first : 0.0, traced});
    m.attempted += spec.chunk;
    m.exec_wait_s += res.wait_ms * 1e-3;
    rates.push_back(spec.chunk / wall);
    speed_slice_between(m);
  }
  add_snapshot_delta(m, before, rig.machine().metrics_snapshot());
  m.throughput = median(rates);
  return m;
}

/// Open-loop serving: seeded arrivals at `rate` req/s over the window
/// (Poisson conditioned on the count, so every seed offers the same load).
/// Whenever the machine is idle the driver runs up to kMaxBatch due
/// requests as one call. A request's latency runs from its due time to the
/// end of its batch.
Measure serve_workload(const Args& a, const StreamSpec& spec, double rate, suite::Probe& probe,
                       bool tracing) {
  constexpr int kMaxBatch = 8;
  Measure m;
  describe_stream(m, spec);
  m.open_loop = true;
  StreamRig rig(spec, a.seed, probe);
  stream_setup(m, rig, probe, kMaxBatch);

  const int n_req = std::max(2, static_cast<int>(std::lround(rate * a.seconds)));
  std::vector<double> due(static_cast<std::size_t>(n_req));
  std::uint64_t s = static_cast<std::uint64_t>(a.seed) * 0x2545f4914f6cdd1dull + 7;
  for (double& d : due) d = a.seconds * static_cast<double>(splitmix(s) >> 11) * 0x1.0p-53;
  std::sort(due.begin(), due.end());

  const int request_name = probe.name("request");
  const auto before = rig.machine().metrics_snapshot();
  const double t0 = clock_s();
  double t_last = t0;
  int batch_no = 0;
  for (int next = 0; next < n_req;) {
    const double now = clock_s() - t0;
    if (due[static_cast<std::size_t>(next)] > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due[static_cast<std::size_t>(next)] - now));
      continue;
    }
    int stop = next;
    while (stop < n_req && stop - next < kMaxBatch && due[static_cast<std::size_t>(stop)] <= now) {
      ++stop;
    }
    const int sets = stop - next;
    const bool traced = tracing && traced_call(batch_no);
    mc::RunResult res;
    const long failed_before = m.failed;
    const double wall = rig.call(sets, next, traced, -1, m.failed, &res);
    t_last = clock_s();
    double first = std::numeric_limits<double>::infinity(), last = -first;
    for (int k = 0; k < sets; ++k) {
      const double d = t0 + due[static_cast<std::size_t>(next + k)];
      const double st = probe.set_start(k), en = probe.set_end(k);
      if (en >= st) {
        first = std::min(first, st);
        last = std::max(last, en);
        m.queue_wait_ms.push_back((st - d) * 1e3);
      }
      m.latency_ms.push_back((t_last - d) * 1e3);
      if (t_last - d > m.slo_s) ++m.slo_missed;
      if (traced) {
        probe.driver.push_back({request_name, -1, next + k, -1, d, t_last});
      }
    }
    // A failed batch misses the latency limit for every request in it.
    m.slo_missed += m.failed - failed_before;
    m.calls.push_back({wall, sets, last >= first ? last - first : 0.0, traced});
    m.attempted += sets;
    m.exec_wait_s += res.wait_ms * 1e-3;
    next = stop;
    ++batch_no;
  }
  add_snapshot_delta(m, before, rig.machine().metrics_snapshot());
  m.throughput = static_cast<double>(n_req) / (t_last - t0);
  return m;
}

// ---------------------------------------------------------------------------
// Nested task parallelism: recursive parallel quicksort (paper Figure 4).

struct SortFingerprint {
  std::uint64_t sum = 0, mix = 0;
  bool operator==(const SortFingerprint&) const = default;
};

SortFingerprint fingerprint(const std::vector<std::int64_t>& v) {
  SortFingerprint f;
  for (std::int64_t x : v) {
    std::uint64_t s = static_cast<std::uint64_t>(x);
    f.sum += static_cast<std::uint64_t>(x);
    f.mix += splitmix(s);
  }
  return f;
}

/// One sort exactly as apps::run_parallel_qsort performs it — a fresh
/// Machine, block-distributed input, parallel_qsort, gather to rank 0 —
/// with the sort itself timed on every rank. Returns the call's wall time
/// and leaves rank 0's gathered output in `sorted` (empty if it threw).
double sort_call(const mc::MachineConfig& cfg, const std::vector<std::int64_t>& input,
                 bool traced, std::int64_t call_id, std::int64_t parent, suite::Probe& probe,
                 Measure& m, std::vector<std::int64_t>& sorted) {
  namespace ds = fxpar::dist;
  const auto n = static_cast<std::int64_t>(input.size());
  const int sort_name = probe.name("sort");
  sorted.clear();
  probe.begin_call(1, traced, call_id, parent, call_id);
  try {
    const double c0 = clock_s();
    mc::Machine machine(cfg);
    m.ctor_ms.push_back((clock_s() - c0) * 1e3);
    const mc::RunResult res = machine.run([&](mc::Context& ctx) {
      ds::DistArray<std::int64_t> arr(ctx, ds::Layout(ctx.group(), {n}, {ds::DimDist::block()}),
                                      "a");
      arr.fill([&](std::span<const std::int64_t> g) {
        return input[static_cast<std::size_t>(g[0])];
      });
      const double s0 = clock_s();
      ap::parallel_qsort(ctx, arr);
      probe.record(ctx.phys_rank(), 0, sort_name, 0, s0, clock_s(), true, true);
      auto full = ds::gather_full(ctx, arr, 0);
      if (ctx.phys_rank() == 0) sorted = std::move(full);
    });
    if (res.metrics) add_snapshot_delta(m, {}, *res.metrics);
    m.exec_wait_s += res.wait_ms * 1e-3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: sort failed: %s\n", e.what());
    sorted.clear();
  }
  return probe.end_call();
}

/// Back-to-back sorts of n keys for the measurement window. Throughput is
/// keys per second of the median sort; latency is per sort call.
Measure qsort_workload(const Args& a, std::int64_t n, suite::Probe& probe, bool tracing) {
  Measure m;
  m.stage_names = {"sort"};
  m.stage_procs = {kRanks};
  m.modules = {{0}};
  m.slo_s = 1.0;
  const auto cfg = machine_config(ex::BackendKind::Threads, ex::TransportKind::Shm);
  const int setup_name = probe.name("setup");
  std::vector<std::int64_t> sorted;

  // Set-up: a warm-up sort, checked against std::sort. Its input is the
  // same for every seed, so setup_s compares like with like across seeds.
  const auto warm = ap::qsort_input(n, 0xbe7c4u);
  auto warm_ref = warm;
  std::sort(warm_ref.begin(), warm_ref.end());
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::int64_t span = probe.begin_span(setup_name, rep, -1);
    sort_call(cfg, warm, false, rep, span, probe, m, sorted);
    m.setup_s.push_back(probe.end_span(span));
    if (sorted != warm_ref) {
      std::fprintf(stderr, "bench_suite: warm-up sort differs from std::sort\n");
      ++m.failed;
    }
  }
  // The warm-up's program counters are set-up cost, not measured work.
  m.layer.clear();
  m.exec_wait_s = 0.0;
  probe.reset_totals();

  // Sort i sorts input i / 2, so the two sorts of each traced/untraced
  // pair (traced_call) share their input.
  const double t_end = clock_s() + a.seconds;
  std::vector<double> rates;
  std::vector<std::int64_t> input;
  SortFingerprint want;
  for (int i = 0; clock_s() < t_end || i < 2; ++i) {
    if (i % 2 == 0) {
      input = ap::qsort_input(n, static_cast<unsigned>(a.seed) * 1000u +
                                     static_cast<unsigned>(i / 2));
      want = fingerprint(input);
    }
    const bool traced = tracing && traced_call(i);
    const double wall = sort_call(cfg, input, traced, i, -1, probe, m, sorted);
    const bool ok = static_cast<std::int64_t>(sorted.size()) == n &&
                    std::is_sorted(sorted.begin(), sorted.end()) && fingerprint(sorted) == want;
    if (!ok) ++m.failed;
    const double st = probe.set_start(0), en = probe.set_end(0);
    m.calls.push_back({wall, 1, en >= st ? en - st : 0.0, traced});
    m.latency_ms.push_back(wall * 1e3);
    if (en >= st) m.queue_wait_ms.push_back((st - probe.call_start()) * 1e3);
    if (wall > m.slo_s || !ok) ++m.slo_missed;
    m.attempted += 1;
    rates.push_back(static_cast<double>(n) / wall);
    speed_slice_between(m);
  }
  m.throughput = median(rates);
  return m;
}

// ---------------------------------------------------------------------------
// Registry and reporting.

struct Workload {
  const char* name;
  std::function<Measure(const Args&, suite::Probe&, bool)> run;
};

const std::vector<Workload>& workloads() {
  using BK = ex::BackendKind;
  using TK = ex::TransportKind;
  // Chunk sizes keep one call near a second at the current speed, so the
  // per-call launch cost stays a small share of every long-stream call.
  static const std::vector<Workload> w = {
      {"stream-dp-threads",
       [](const Args& a, suite::Probe& p, bool t) {
         return stream_workload(a, {BK::Threads, TK::Shm, {{0, 2, 4, 1}}, a.smoke ? 64 : 256,
                                    a.smoke ? 8 : 200}, p, t);
       }},
      {"stream-hybrid-shm",
       [](const Args& a, suite::Probe& p, bool t) {
         return stream_workload(
             a, {BK::Proc, TK::Shm, {{0, 1, 1, 2}, {2, 2, 2, 1}}, a.smoke ? 64 : 256,
                 a.smoke ? 8 : 150}, p, t);
       }},
      {"stream-hybrid-tcp",
       [](const Args& a, suite::Probe& p, bool t) {
         return stream_workload(
             a, {BK::Proc, TK::Tcp, {{0, 1, 1, 2}, {2, 2, 2, 1}}, a.smoke ? 64 : 256,
                 a.smoke ? 8 : 150}, p, t);
       }},
      {"nested-qsort-threads",
       [](const Args& a, suite::Probe& p, bool t) {
         return qsort_workload(a, a.smoke ? (1 << 16) : (1 << 20), p, t);
       }},
      {"serve-open-shm",
       [](const Args& a, suite::Probe& p, bool t) {
         return serve_workload(a, {BK::Proc, TK::Shm, {{0, 2, 4, 1}}, 64, 8}, 400.0, p, t);
       }},
  };
  return w;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

class JsonMetrics {
 public:
  void add(const std::string& name, double v, const char* unit) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.9g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    body_ += (body_.empty() ? "" : ",");
    body_ += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// End-to-end metrics; `speed` scales times (and rates inversely) to the
/// reference host speed, 1.0 leaves them as measured.
std::string end_to_end(const Measure& m, double speed) {
  struct rusage self {}, kids {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  JsonMetrics j;
  j.add("setup_s", median(m.setup_s) * speed, "s");
  j.add("throughput_per_s", m.open_loop ? m.throughput : m.throughput / speed, "1/s");
  j.add("latency_p50_ms", quantile(m.latency_ms, 0.50) * speed, "ms");
  j.add("latency_p90_ms", quantile(m.latency_ms, 0.90) * speed, "ms");
  j.add("latency_p99_ms", quantile(m.latency_ms, 0.99) * speed, "ms");
  j.add("peak_rss_mb", static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0,
        "MB");
  return j.str();
}

std::string per_layer(const Measure& m, const suite::Probe& probe, double speed) {
  const auto get = [&m](const char* name) {
    const auto it = m.layer.find(name);
    return it == m.layer.end() ? 0.0 : it->second;
  };
  const double items = std::max(1.0, static_cast<double>(m.attempted));
  double wall = 0.0;
  std::vector<double> overhead_ms, trace_ratio;
  for (std::size_t i = 0; i < m.calls.size(); ++i) {
    const Call& c = m.calls[i];
    wall += c.wall_s;
    overhead_ms.push_back((c.wall_s - c.app_s) * 1e3);
    // Calls pair up (0,1), (2,3), ... with one traced call per pair.
    const Call* prev = i % 2 == 1 ? &m.calls[i - 1] : nullptr;
    if (prev && prev->traced != c.traced && prev->items == c.items) {
      const Call& traced = c.traced ? c : *prev;
      const Call& plain = c.traced ? *prev : c;
      if (plain.wall_s > 0.0) trace_ratio.push_back(traced.wall_s / plain.wall_s);
    }
  }
  wall = std::max(wall, 1e-9);

  JsonMetrics j;
  double busy_total = 0.0, bottleneck = 0.0;
  for (const char* stage : {"cffts", "rffts", "hist", "sort"}) {
    double frac = 0.0;
    for (std::size_t s = 0; s < m.stage_names.size(); ++s) {
      if (m.stage_names[s] == stage) {
        frac = probe.busy(static_cast<int>(s)) / (m.stage_procs[s] * wall);
      }
    }
    j.add(std::string("apps.stage_busy_frac.") + stage, frac, "ratio");
  }
  for (const auto& slots : m.modules) {
    double busy = 0.0;
    for (int s : slots) busy += probe.busy(s);
    busy_total += busy;
    const int procs = m.stage_procs[static_cast<std::size_t>(slots[0])];
    bottleneck = std::max(bottleneck, busy / (procs * wall));
  }
  j.add("apps.bottleneck_busy_frac", bottleneck, "ratio");

  const double redist_s = get("fxpar_dist_redistribute_seconds.sum");
  const double hits = get("fxpar_dist_plan_cache_hits_total");
  const double misses = get("fxpar_dist_plan_cache_misses_total");
  j.add("dist.redistribute_s", redist_s / items, "s/item");
  j.add("dist.redistributions", get("fxpar_dist_redistributions_total") / items, "count/item");
  j.add("dist.plan_misses", misses / items, "count/item");
  j.add("dist.plan_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  j.add("comm.collectives", get("fxpar_comm_collectives_total") / items, "count/item");
  j.add("comm.collective_plan_misses", get("fxpar_comm_collective_plan_misses_total") / items,
        "count/item");
  j.add("machine.messages", get("fxpar_comm_messages_total") / items, "count/item");
  j.add("machine.bytes", get("fxpar_comm_message_bytes_total") / items, "B/item");
  j.add("machine.recv_wait_s", get("fxpar_comm_recv_wait_seconds.sum") / items, "s/item");
  j.add("machine.barriers", get("fxpar_sync_barriers_total") / items, "count/item");
  j.add("machine.barrier_wait_s", get("fxpar_sync_barrier_wait_seconds.sum") / items, "s/item");
  j.add("machine.pool_spills", get("fxpar_machine_pool_spills_total") / items, "count/item");
  j.add("machine.ctor_ms", median(m.ctor_ms), "ms");
  j.add("exec.wait_s", m.exec_wait_s / items, "s/item");
  j.add("exec.runs", static_cast<double>(m.calls.size()) / items, "count/item");
  j.add("exec.run_overhead_ms_p50", quantile(overhead_ms, 0.50), "ms");
  j.add("exec.run_overhead_ms_p99", quantile(overhead_ms, 0.99), "ms");
  j.add("core.task_regions", get("fxpar_core_task_regions_total") / items, "count/item");
  j.add("driver.items_per_run", items / std::max<double>(1.0, static_cast<double>(m.calls.size())),
        "count");
  j.add("driver.queue_wait_ms_p50", quantile(m.queue_wait_ms, 0.50), "ms");
  j.add("driver.slo_miss_frac", static_cast<double>(m.slo_missed) / items, "ratio");

  const suite::OsUsage& os = probe.os_total;
  j.add("os.minor_faults", os.minor_faults / items, "count/item");
  j.add("os.cpu_user_s", os.user_s / items, "s/item");
  j.add("os.cpu_sys_s", os.sys_s / items, "s/item");
  j.add("os.ctx_switches_vol", os.vol_cs / items, "count/item");
  j.add("os.ctx_switches_invol", os.invol_cs / items, "count/item");

  const double attributed = busy_total + (m.handoffs_outside_spans ? redist_s : 0.0);
  j.add("bench.unattributed_frac", 1.0 - attributed / (kRanks * wall), "ratio");
  j.add("bench.trace_overhead_ratio", median(trace_ratio), "ratio");
  j.add("bench.host_speed", speed, "ratio");
  return j.str();
}

void print_self_times(const suite::Probe& probe) {
  std::printf("bench-side spans (traced calls): name, total s, self s\n");
  for (const auto& [name, t] : suite::self_times(probe)) {
    std::printf("  %-14s %12.6f %12.6f\n", name.c_str(), t.first, t.second);
  }
}

int run_one(const Args& a, const Workload& w) {
  const bool tracing = !a.trace_out.empty();
  suite::Probe probe(kRanks, kBins);
  const double t0 = clock_s();
  std::vector<double> before;
  speed_slices(before);
  Measure m = w.run(a, probe, tracing);
  m.speed_s.insert(m.speed_s.end(), before.begin(), before.end());
  speed_slices(m.speed_s);
  const double speed = kRefSliceS / median(m.speed_s);
  const double total_s = clock_s() - t0;
  if (tracing) {
    if (!suite::write_chrome(probe, a.trace_out)) {
      std::fprintf(stderr, "--trace-out: cannot write '%s'\n", a.trace_out.c_str());
      return 1;
    }
    print_self_times(probe);
  }
  const bool verified = m.failed == 0 && m.attempted > 0;
  char head[512];
  std::snprintf(head, sizeof(head),
                "{\"bench\":\"bench_suite\",\"workload\":\"%s\",\"seed\":%ld,\"seconds\":%.6g,"
                "\"smoke\":%s,\"total_s\":%.6g,\"host\":{\"nproc\":%u,\"cpu\":\"%s\"},"
                "\"verified\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":",
                w.name, a.seed, a.seconds, a.smoke ? "true" : "false", total_s,
                std::thread::hardware_concurrency(),
                fxbench::detail::json_escape(cpu_model()).c_str(), verified ? "true" : "false",
                m.attempted, m.failed);
  char speed_buf[48];
  std::snprintf(speed_buf, sizeof(speed_buf), ",\"host_speed\":%.6g,\"raw\":", speed);
  std::string line = head + end_to_end(m, speed) + speed_buf + end_to_end(m, 1.0);
  if (tracing) line += ",\"per_layer\":" + per_layer(m, probe, speed);
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  if (!a.json_out.empty()) {
    std::ofstream f(a.json_out, std::ios::app);
    f << line << '\n';
    if (!f) {
      std::fprintf(stderr, "--json-out: cannot write '%s'\n", a.json_out.c_str());
      return 1;
    }
  }
  return verified ? 0 : 1;
}

/// `--workload all`: each workload in a fresh child process (same flags),
/// so RSS and OS counters are per workload. Returns the worst exit code.
int run_all(int argc, char** argv) {
  int worst = 0;
  for (const Workload& w : workloads()) {
    std::vector<std::string> args(argv, argv + argc);
    for (std::size_t i = 1; i + 1 < args.size(); ++i) {
      if (args[i] == "--workload") args[i + 1] = w.name;
      if (args[i] == "--trace-out") args[i + 1] += std::string(".") + w.name + ".json";
    }
    std::vector<char*> cargs;
    for (auto& s : args) cargs.push_back(s.data());
    cargs.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      execv("/proc/self/exe", cargs.data());
      _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    if (code != 0) std::fprintf(stderr, "bench_suite: workload %s exited %d\n", w.name, code);
    worst = std::max(worst, code);
  }
  return worst;
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: bench_suite --workload NAME|all --seed S [--seconds T] [--smoke]\n"
               "                   [--json-out FILE] [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(f + " requires an argument");
      return argv[++i];
    };
    if (f == "--workload") {
      a.workload = value();
    } else if (f == "--seed") {
      a.seed = fxbench::parse_int_flag("--seed", value(), 0, LONG_MAX);
    } else if (f == "--seconds") {
      a.seconds = fxbench::parse_double_flag("--seconds", value(), 0.01, 3600.0);
      seconds_given = true;
    } else if (f == "--smoke") {
      a.smoke = true;
    } else if (f == "--json-out") {
      a.json_out = value();
    } else if (f == "--trace-out") {
      a.trace_out = value();
    } else {
      usage_error("unknown flag '" + f + "'");
    }
  }
  if (a.seed < 0) usage_error("--seed is required");
  if (a.smoke && !seconds_given) a.seconds = 0.2;
  std::string names;
  for (const Workload& w : workloads()) names += std::string(names.empty() ? "" : ", ") + w.name;
  if (a.workload == "all") return run_all(argc, argv);
  for (const Workload& w : workloads()) {
    if (a.workload == w.name) return run_one(a, w);
  }
  usage_error("--workload must be one of " + names + " or all, got '" + a.workload + "'");
}
