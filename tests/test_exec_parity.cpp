// Cross-backend parity sweep: deterministic Fx programs must produce
// bit-identical array contents on the discrete-event simulator and the
// threaded shared-memory backend (docs/execution.md, "Determinism
// contract"). Four applications: FFT-Hist (data parallel and pipelined),
// the radar benchmark, nested task parallel quicksort, and a synthetic
// floating-point stream pipeline whose outputs are compared at the bit
// level.
//
// Almost every test here runs the simulator, whose ucontext fibers are
// incompatible with ThreadSanitizer, and self-skips under TSan; the
// quicksort pieces test runs its threads leg alone there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "apps/ffthist.hpp"
#include "apps/quicksort.hpp"
#include "apps/radar.hpp"
#include "apps/stream_pipeline.hpp"
#include "comm/serialize.hpp"

#if defined(__SANITIZE_THREAD__)
#define FXPAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FXPAR_TSAN 1
#endif
#endif

#ifdef FXPAR_TSAN
#define FXPAR_SKIP_SIM_UNDER_TSAN() \
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer"
#else
#define FXPAR_SKIP_SIM_UNDER_TSAN() (void)0
#endif

namespace ap = fxpar::apps;
namespace ds = fxpar::dist;
namespace ex = fxpar::exec;
namespace mx = fxpar::machine;
using fxpar::MachineConfig;

namespace {

MachineConfig backend_cfg(int p, ex::BackendKind kind, std::size_t stack = 256 * 1024) {
  auto c = MachineConfig::paragon(p);
  c.backend = kind;
  c.stack_bytes = stack;
  return c;
}

MachineConfig proc_cfg(int p, ex::TransportKind transport, std::size_t stack = 256 * 1024) {
  auto c = backend_cfg(p, ex::BackendKind::Proc, stack);
  c.transport = transport;
  return c;
}

// On the process backend each rank is a forked child: a sink captured by
// reference is written in the child's private memory and never reaches the
// driver unless physical rank 0 wrote it. When the recording rank is not
// phys 0, this epilogue ships every data set's row to rank 0 after the
// stream drains. Harmless on sim/threads (rank 0 overwrites the shared sink
// with identical bytes), so the same program runs on every backend.
template <typename T>
std::function<void(mx::Context&)> funnel_sink(std::vector<std::vector<T>>& sink,
                                              int writer_phys) {
  if (writer_phys == 0) return {};
  return [&sink, writer_phys](mx::Context& ctx) {
    constexpr int kTag0 = 7100;
    if (ctx.phys_rank() == writer_phys) {
      for (std::size_t k = 0; k < sink.size(); ++k) {
        ctx.send_phys(0, kTag0 + static_cast<int>(k),
                      fxpar::comm::pack_span(std::span<const T>(sink[k])));
      }
    } else if (ctx.phys_rank() == 0) {
      for (std::size_t k = 0; k < sink.size(); ++k) {
        sink[k] = fxpar::comm::unpack_vector<T>(
            ctx.recv_phys(writer_phys, kTag0 + static_cast<int>(k)));
      }
    }
  };
}

template <typename T>
void expect_bit_identical(const std::vector<T>& sim, const std::vector<T>& thr,
                          const char* what, int k) {
  ASSERT_EQ(sim.size(), thr.size()) << what << " data set " << k;
  if (!sim.empty()) {
    EXPECT_EQ(std::memcmp(sim.data(), thr.data(), sim.size() * sizeof(T)), 0)
        << what << " data set " << k;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FFT-Hist
// ---------------------------------------------------------------------------

namespace {

std::vector<std::vector<std::int64_t>> run_ffthist(
    const MachineConfig& mcfg, const std::vector<ap::StreamModule>& modules,
    int writer_phys = 0) {
  ap::FftHistConfig cfg;
  cfg.n = 16;
  cfg.bins = 8;
  cfg.num_sets = 6;
  std::vector<std::vector<std::int64_t>> sink;
  const auto stages = ap::ffthist_stages(cfg, &sink);
  ap::run_stream_pipeline<ap::Complex>(mcfg, stages, modules, cfg.num_sets, 0.0,
                                       funnel_sink(sink, writer_phys));
  return sink;
}

}  // namespace

TEST(ExecParity, FftHistDataParallel) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const std::vector<ap::StreamModule> dp = {{0, 2, 4, 1}};
  const auto sim = run_ffthist(backend_cfg(4, ex::BackendKind::Sim), dp);
  const auto thr = run_ffthist(backend_cfg(4, ex::BackendKind::Threads), dp);
  ASSERT_EQ(sim.size(), thr.size());
  for (std::size_t k = 0; k < sim.size(); ++k) {
    expect_bit_identical(sim[k], thr[k], "ffthist/dp", static_cast<int>(k));
  }
}

TEST(ExecParity, FftHistDataParallelProcBothTransports) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const std::vector<ap::StreamModule> dp = {{0, 2, 4, 1}};
  const auto sim = run_ffthist(backend_cfg(4, ex::BackendKind::Sim), dp);
  const auto shm = run_ffthist(proc_cfg(4, ex::TransportKind::Shm), dp);
  const auto tcp = run_ffthist(proc_cfg(4, ex::TransportKind::Tcp), dp);
  ASSERT_EQ(sim.size(), shm.size());
  ASSERT_EQ(sim.size(), tcp.size());
  for (std::size_t k = 0; k < sim.size(); ++k) {
    ASSERT_FALSE(sim[k].empty()) << "sim sink empty at " << k;
    expect_bit_identical(sim[k], shm[k], "ffthist/dp/proc-shm", static_cast<int>(k));
    expect_bit_identical(sim[k], tcp[k], "ffthist/dp/proc-tcp", static_cast<int>(k));
  }
}

TEST(ExecParity, FftHistThreeStagePipeline) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const std::vector<ap::StreamModule> pipe = {{0, 0, 2, 1}, {1, 1, 2, 1}, {2, 2, 2, 1}};
  const auto sim = run_ffthist(backend_cfg(6, ex::BackendKind::Sim), pipe);
  const auto thr = run_ffthist(backend_cfg(6, ex::BackendKind::Threads), pipe);
  ASSERT_EQ(sim.size(), thr.size());
  for (std::size_t k = 0; k < sim.size(); ++k) {
    expect_bit_identical(sim[k], thr[k], "ffthist/pipe", static_cast<int>(k));
  }
}

TEST(ExecParity, FftHistThreeStagePipelineProcBothTransports) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  // The histogram module runs on phys {4,5}; its virtual rank 0 (phys 4, a
  // forked child on the proc backend) records the sink, so the results are
  // funneled to phys 0 by the stream epilogue. The same funneled program
  // runs on the simulator to keep the comparison exact.
  const std::vector<ap::StreamModule> pipe = {{0, 0, 2, 1}, {1, 1, 2, 1}, {2, 2, 2, 1}};
  constexpr int kWriter = 4;
  const auto sim = run_ffthist(backend_cfg(6, ex::BackendKind::Sim), pipe, kWriter);
  const auto shm = run_ffthist(proc_cfg(6, ex::TransportKind::Shm), pipe, kWriter);
  const auto tcp = run_ffthist(proc_cfg(6, ex::TransportKind::Tcp), pipe, kWriter);
  ASSERT_EQ(sim.size(), shm.size());
  ASSERT_EQ(sim.size(), tcp.size());
  for (std::size_t k = 0; k < sim.size(); ++k) {
    ASSERT_FALSE(sim[k].empty()) << "sim sink empty at " << k;
    expect_bit_identical(sim[k], shm[k], "ffthist/pipe/proc-shm", static_cast<int>(k));
    expect_bit_identical(sim[k], tcp[k], "ffthist/pipe/proc-tcp", static_cast<int>(k));
  }
}

// ---------------------------------------------------------------------------
// Radar
// ---------------------------------------------------------------------------

namespace {

std::vector<std::int64_t> run_radar(const ap::RadarConfig& cfg, const MachineConfig& mcfg) {
  std::vector<std::int64_t> sink;
  const auto stages = ap::radar_stages(cfg, &sink);
  const int last = static_cast<int>(stages.size()) - 1;
  ap::run_stream_pipeline<ap::Complex>(mcfg, stages, {{0, last, 4, 1}}, cfg.num_sets);
  return sink;
}

}  // namespace

TEST(ExecParity, RadarDetections) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  ap::RadarConfig cfg;
  cfg.samples = 64;
  cfg.channels = 8;
  cfg.num_sets = 5;
  const auto sim = run_radar(cfg, backend_cfg(4, ex::BackendKind::Sim));
  const auto thr = run_radar(cfg, backend_cfg(4, ex::BackendKind::Threads));
  expect_bit_identical(sim, thr, "radar/detections", -1);
  for (int k = 0; k < cfg.num_sets; ++k) {
    EXPECT_EQ(sim[static_cast<std::size_t>(k)], ap::radar_reference(cfg, k))
        << "dwell " << k;
  }
}

TEST(ExecParity, RadarDetectionsProcBothTransports) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  ap::RadarConfig cfg;
  cfg.samples = 64;
  cfg.channels = 8;
  cfg.num_sets = 5;
  const auto sim = run_radar(cfg, backend_cfg(4, ex::BackendKind::Sim));
  const auto shm = run_radar(cfg, proc_cfg(4, ex::TransportKind::Shm));
  const auto tcp = run_radar(cfg, proc_cfg(4, ex::TransportKind::Tcp));
  expect_bit_identical(sim, shm, "radar/detections/proc-shm", -1);
  expect_bit_identical(sim, tcp, "radar/detections/proc-tcp", -1);
}

// ---------------------------------------------------------------------------
// Quicksort (dynamically nested task regions)
// ---------------------------------------------------------------------------

TEST(ExecParity, QuicksortNestedTaskRegions) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const auto input = ap::qsort_input(513, 42);
  const auto sim =
      ap::run_parallel_qsort(backend_cfg(4, ex::BackendKind::Sim, 512 * 1024), input);
  const auto thr = ap::run_parallel_qsort(backend_cfg(4, ex::BackendKind::Threads), input);
  expect_bit_identical(sim.sorted, thr.sorted, "qsort/sorted", -1);
  auto expect = input;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(thr.sorted, expect);
}

TEST(ExecParity, QuicksortProcBothTransports) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  // qsort gathers the sorted array to phys 0 — the parent process on the
  // proc backend — so the result survives the fork boundary directly.
  const auto input = ap::qsort_input(513, 42);
  const auto sim =
      ap::run_parallel_qsort(backend_cfg(4, ex::BackendKind::Sim, 512 * 1024), input);
  const auto shm = ap::run_parallel_qsort(proc_cfg(4, ex::TransportKind::Shm), input);
  const auto tcp = ap::run_parallel_qsort(proc_cfg(4, ex::TransportKind::Tcp), input);
  expect_bit_identical(sim.sorted, shm.sorted, "qsort/sorted/proc-shm", -1);
  expect_bit_identical(sim.sorted, tcp.sorted, "qsort/sorted/proc-tcp", -1);
  auto expect = input;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(shm.sorted, expect);
}

namespace {

struct QsortRun {
  std::vector<std::int64_t> sorted;
  mx::RunResult res;
};

/// Sorts `input` through a 1-D array of distribution `dist` and gathers the
/// result to phys 0 (the parent process on the proc backend).
QsortRun run_qsort(const MachineConfig& mcfg, ds::DimDist dist,
                   const std::vector<std::int64_t>& input) {
  const auto n = static_cast<std::int64_t>(input.size());
  QsortRun out;
  mx::Machine m(mcfg);
  out.res = m.run([&](mx::Context& ctx) {
    ds::DistArray<std::int64_t> a(ctx, ds::Layout(ctx.group(), {n}, {dist}), "a");
    a.fill([&](std::span<const std::int64_t> g) { return input[static_cast<std::size_t>(g[0])]; });
    ap::parallel_qsort(ctx, a);
    auto full = ds::gather_full(ctx, a, 0);
    if (ctx.phys_rank() == 0) out.sorted = std::move(full);
  });
  return out;
}

/// `n` keys, key i being `hi` when i % 4 == 3 and `lo` otherwise.
std::vector<std::int64_t> two_values(std::size_t n, std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i % 4 == 3 ? hi : lo;
  return v;
}

}  // namespace

// The pieces each rank's leaves hand up, with the pivot runs joined at a
// piece's head or tail, are placed into the caller's array by one exchange.
// Its output, messages, bytes and barriers are equal on sim, threads,
// proc-shm and proc-tcp. Under TSan only the threads leg runs (sim fibers
// and fork-per-rank are not TSan-compatible).
TEST(ExecParity, QuicksortPiecesMatchOnAllFourBackends) {
  constexpr int P = 4;
  struct Case {
    const char* name;
    ds::DimDist dist;
    std::vector<std::int64_t> keys;
  };
  const Case cases[] = {
      {"all equal", ds::DimDist::block(), std::vector<std::int64_t>(64, 42)},
      // Three quarters of the keys take the smaller value, so it is the
      // pivot and its run joins the first piece's head...
      {"two values, run at a head", ds::DimDist::block(), two_values(203, 5, 9)},
      // ...and here the larger value is, so its run joins the last piece's
      // tail.
      {"two values, run at a tail", ds::DimDist::block(), two_values(203, 9, 5)},
      {"fewer keys than ranks", ds::DimDist::block(), {7, -2, 7}},
      {"BLOCK_CYCLIC(3) target", ds::DimDist::block_cyclic(3), ap::qsort_input(1000, 5)},
      {"CYCLIC target", ds::DimDist::cyclic(), ap::qsort_input(1001, 6)},
  };
  for (const Case& c : cases) {
    auto expect = c.keys;
    std::sort(expect.begin(), expect.end());
    const QsortRun thr = run_qsort(backend_cfg(P, ex::BackendKind::Threads), c.dist, c.keys);
    EXPECT_EQ(thr.sorted, expect) << c.name;
#ifndef FXPAR_TSAN
    const std::pair<const char*, MachineConfig> legs[] = {
        {"sim", backend_cfg(P, ex::BackendKind::Sim, 512 * 1024)},
        {"proc-shm", proc_cfg(P, ex::TransportKind::Shm)},
        {"proc-tcp", proc_cfg(P, ex::TransportKind::Tcp)}};
    for (const auto& [leg, cfg] : legs) {
      const QsortRun r = run_qsort(cfg, c.dist, c.keys);
      expect_bit_identical(r.sorted, thr.sorted, leg, -1);
      EXPECT_EQ(r.res.messages, thr.res.messages) << c.name << " on " << leg;
      EXPECT_EQ(r.res.bytes, thr.res.bytes) << c.name << " on " << leg;
      EXPECT_EQ(r.res.barriers, thr.res.barriers) << c.name << " on " << leg;
    }
#endif
  }
}

// ---------------------------------------------------------------------------
// Synthetic floating-point stream pipeline
// ---------------------------------------------------------------------------

namespace {

// Two modules: "gen" fills a block-distributed array with transcendental
// values (owner-computes, so each element is produced by exactly one
// processor on either backend), "collect" receives it replicated — the
// inter-module assign() is a real redistribution — transforms it, and
// virtual rank 0 records the full array per data set.
std::vector<std::vector<double>> run_fp_pipeline(MachineConfig mcfg, bool metrics = true) {
  constexpr std::int64_t kN = 64;
  constexpr int kSets = 6;
  std::vector<std::vector<double>> sink(kSets);

  std::vector<ap::PipelineStage<double>> stages(2);
  stages[0].name = "gen";
  stages[0].in_layout = [](const fxpar::ProcessorGroup& g) {
    return ds::Layout(g, {kN}, {ds::DimDist::block()});
  };
  stages[0].out_layout = stages[0].in_layout;
  stages[0].run = [](mx::Context& ctx, ds::DistArray<double>& /*in*/,
                     ds::DistArray<double>& out, int k) {
    out.fill([k](std::span<const std::int64_t> gi) {
      const double x = static_cast<double>(gi[0]) * 0.1 + static_cast<double>(k);
      return std::sin(x) * std::sqrt(x + 1.0) + std::cos(x * 0.5);
    });
    ctx.charge(1e-6 * static_cast<double>(kN));
  };

  stages[1].name = "collect";
  stages[1].in_layout = [](const fxpar::ProcessorGroup& g) {
    return ds::Layout(g, {kN}, {ds::DimDist::collapsed()});
  };
  stages[1].out_layout = stages[1].in_layout;
  stages[1].run = [&sink](mx::Context& ctx, ds::DistArray<double>& in,
                          ds::DistArray<double>& out, int k) {
    const auto src = in.local();
    const auto dst = out.local();
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] = src[i] * 1.5 + 0.25;
    }
    ctx.charge(1e-6 * static_cast<double>(kN));
    if (in.layout().group().virtual_of(ctx.phys_rank()) == 0) {
      sink[static_cast<std::size_t>(k)].assign(dst.begin(), dst.end());
    }
  };

  mcfg.metrics = metrics;
  // The collect module runs on phys {2,3}: its virtual rank 0 (phys 2)
  // records the sink, so the epilogue funnels the rows to phys 0 for the
  // process backend's sake (a no-op data-wise on sim/threads).
  ap::run_stream_pipeline<double>(mcfg, stages, {{0, 0, 2, 1}, {1, 1, 2, 1}}, kSets, 0.0,
                                  funnel_sink(sink, /*writer_phys=*/2));
  return sink;
}

}  // namespace

TEST(ExecParity, FloatingPointStreamPipelineBitIdentical) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const auto sim = run_fp_pipeline(backend_cfg(4, ex::BackendKind::Sim));
  const auto thr = run_fp_pipeline(backend_cfg(4, ex::BackendKind::Threads));
  ASSERT_EQ(sim.size(), thr.size());
  for (std::size_t k = 0; k < sim.size(); ++k) {
    ASSERT_FALSE(sim[k].empty()) << "sim sink empty at " << k;
    expect_bit_identical(sim[k], thr[k], "fp-pipeline", static_cast<int>(k));
  }
}

TEST(ExecParity, FloatingPointStreamPipelineProcBothTransports) {
  // The deterministic-reduction contract must hold across the fork
  // boundary too: transcendental outputs and the FP assign/redistribute
  // path are compared at the bit level against the simulator on both
  // process-backend transports.
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const auto sim = run_fp_pipeline(backend_cfg(4, ex::BackendKind::Sim));
  const auto shm = run_fp_pipeline(proc_cfg(4, ex::TransportKind::Shm));
  const auto tcp = run_fp_pipeline(proc_cfg(4, ex::TransportKind::Tcp));
  ASSERT_EQ(sim.size(), shm.size());
  ASSERT_EQ(sim.size(), tcp.size());
  for (std::size_t k = 0; k < sim.size(); ++k) {
    ASSERT_FALSE(sim[k].empty()) << "sim sink empty at " << k;
    expect_bit_identical(sim[k], shm[k], "fp-pipeline/proc-shm", static_cast<int>(k));
    expect_bit_identical(sim[k], tcp[k], "fp-pipeline/proc-tcp", static_cast<int>(k));
  }
}

TEST(ExecParity, MetricsOnAndOffProduceBitIdenticalResults) {
  // Metrics instrumentation must be observation-only: disabling it cannot
  // change any computed value on either backend.
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const auto sim_on = run_fp_pipeline(backend_cfg(4, ex::BackendKind::Sim), /*metrics=*/true);
  const auto sim_off =
      run_fp_pipeline(backend_cfg(4, ex::BackendKind::Sim), /*metrics=*/false);
  const auto thr_on =
      run_fp_pipeline(backend_cfg(4, ex::BackendKind::Threads), /*metrics=*/true);
  const auto thr_off =
      run_fp_pipeline(backend_cfg(4, ex::BackendKind::Threads), /*metrics=*/false);
  ASSERT_EQ(sim_on.size(), sim_off.size());
  ASSERT_EQ(thr_on.size(), thr_off.size());
  for (std::size_t k = 0; k < sim_on.size(); ++k) {
    ASSERT_FALSE(sim_on[k].empty()) << "sim sink empty at " << k;
    expect_bit_identical(sim_on[k], sim_off[k], "metrics-parity/sim",
                         static_cast<int>(k));
    expect_bit_identical(thr_on[k], thr_off[k], "metrics-parity/threads",
                         static_cast<int>(k));
    expect_bit_identical(sim_on[k], thr_on[k], "metrics-parity/cross",
                         static_cast<int>(k));
  }
}
