// Host-side microbenchmarks (google-benchmark) of the library substrate:
// fiber switching, simulated messaging, subset barriers, redistribution,
// and the numerical kernels. These measure the *host* cost of simulation,
// not modeled machine time.
//
// Besides the google-benchmark suite, `--redist-compare` runs the
// plan-cache A/B experiment (repeated same-layout transpose, cache on vs
// off), `--collective-compare` the collective-plan-cache A/B and
// `--sort-compare` the quicksort leaf kernel against std::sort and
// `--qsort-scaling` the nested quicksort's sort phase at p = 1, 2 and 4; each
// prints a summary and emits --json-out records; see docs/performance.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/fft.hpp"
#include "apps/quicksort.hpp"
#include "bench_common.hpp"
#include "comm/collectives.hpp"
#include "core/fx.hpp"
#include "dist/redistribute.hpp"
#include "runtime/fiber.hpp"

using namespace fxpar;
namespace ds = fxpar::dist;
namespace ap = fxpar::apps;

namespace {

void BM_FiberSwitch(benchmark::State& state) {
  runtime::Fiber* self = nullptr;
  runtime::Fiber fiber(
      [&] {
        for (;;) self->yield_to_owner();
      },
      64 * 1024);
  self = &fiber;
  for (auto _ : state) {
    fiber.resume();  // one round trip = two context switches
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FiberSwitch);

void BM_SimulatedBarrier(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int rounds = 64;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(procs));
    machine.run([&](Context& ctx) {
      for (int i = 0; i < rounds; ++i) ctx.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * procs);
}
BENCHMARK(BM_SimulatedBarrier)->Arg(4)->Arg(16)->Arg(64);

void BM_SimulatedPingPong(benchmark::State& state) {
  const int rounds = 128;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(2));
    machine.run([&](Context& ctx) {
      for (int i = 0; i < rounds; ++i) {
        if (ctx.phys_rank() == 0) {
          ctx.send_phys(1, 1, machine::Payload(64));
          ctx.recv_phys(1, 2);
        } else {
          ctx.recv_phys(0, 1);
          ctx.send_phys(0, 2, machine::Payload(64));
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_SimulatedPingPong);

void BM_Redistribute1D(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const int procs = 8;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(procs));
    machine.run([&](Context& ctx) {
      const auto g = pgroup::ProcessorGroup::identity(procs);
      ds::DistArray<double> a(ctx, ds::Layout(g, {n}, {ds::DimDist::block()}), "a");
      ds::DistArray<double> b(ctx, ds::Layout(g, {n}, {ds::DimDist::cyclic()}), "b");
      a.fill_value(1.0);
      ds::assign(ctx, b, a);
    });
  }
  state.SetBytesProcessed(state.iterations() * n * static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_Redistribute1D)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_Transpose2D(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const int procs = 8;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(procs));
    machine.run([&](Context& ctx) {
      const auto g = pgroup::ProcessorGroup::identity(procs);
      ds::DistArray<double> a(
          ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
      ds::DistArray<double> b(
          ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "b");
      a.fill_value(1.0);
      ds::transpose(ctx, b, a);
    });
  }
  state.SetBytesProcessed(state.iterations() * n * n *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_Transpose2D)->Arg(64)->Arg(256);

void BM_FftKernel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<ap::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = ap::Complex(static_cast<double>(i % 17), static_cast<double>(i % 5));
  }
  for (auto _ : state) {
    auto copy = data;
    ap::fft_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftKernel)->Arg(256)->Arg(1024)->Arg(4096);

// The cffts stage's column block (256 rows x 64 local columns): range(0) = 0
// transforms it one strided column at a time, 1 in one fft_columns call.
void BM_FftColumns(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  constexpr std::size_t kRows = 256, kCols = 64;
  std::vector<ap::Complex> data(kRows * kCols);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = ap::Complex(static_cast<double>(i % 17), static_cast<double>(i % 5));
  }
  for (auto _ : state) {
    auto copy = data;
    if (batched) {
      ap::fft_columns(copy, kRows, kCols);
    } else {
      for (std::size_t c = 0; c < kCols; ++c) ap::fft_strided(copy, c, kCols, kRows);
    }
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRows * kCols));
}
BENCHMARK(BM_FftColumns)->ArgName("batched")->Arg(0)->Arg(1);

// Repeated same-layout redistribution inside one machine run: the case the
// plan cache targets. range(1) toggles MachineConfig::plan_cache.
void BM_AssignStream(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const bool cached = state.range(1) != 0;
  const int procs = 8;
  const int iters = 16;
  auto c = MachineConfig::ideal(procs);
  c.plan_cache = cached;
  for (auto _ : state) {
    Machine machine(c);
    machine.run([&](Context& ctx) {
      const auto g = pgroup::ProcessorGroup::identity(procs);
      ds::DistArray<double> a(ctx, ds::Layout(g, {n}, {ds::DimDist::block()}), "a");
      ds::DistArray<double> b(ctx, ds::Layout(g, {n}, {ds::DimDist::cyclic()}), "b");
      a.fill_value(1.0);
      for (int i = 0; i < iters; ++i) ds::assign(ctx, b, a);
    });
  }
  state.SetBytesProcessed(state.iterations() * iters * n *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_AssignStream)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

// The permuted (corner-turn) path, where the uncached executor copies
// element by element.
void BM_TransposeStream(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const bool cached = state.range(1) != 0;
  const int procs = 8;
  const int iters = 8;
  auto c = MachineConfig::ideal(procs);
  c.plan_cache = cached;
  for (auto _ : state) {
    Machine machine(c);
    machine.run([&](Context& ctx) {
      const auto g = pgroup::ProcessorGroup::identity(procs);
      ds::DistArray<double> a(
          ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
      ds::DistArray<double> b(
          ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "b");
      a.fill_value(1.0);
      for (int i = 0; i < iters; ++i) ds::transpose(ctx, b, a);
    });
  }
  state.SetBytesProcessed(state.iterations() * iters * n * n *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_TransposeStream)->Args({256, 0})->Args({256, 1});

void BM_TaskRegionOnOff(benchmark::State& state) {
  const int procs = 8;
  const int rounds = 64;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(procs));
    machine.run([&](Context& ctx) {
      core::TaskPartition part(ctx, {{"a", 4}, {"b", 4}});
      core::TaskRegion region(ctx, part);
      for (int i = 0; i < rounds; ++i) {
        region.on("a", [&] { ctx.charge(1e-9); });
        region.on("b", [&] { ctx.charge(1e-9); });
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * procs);
}
BENCHMARK(BM_TaskRegionOnOff);

// --redist-compare: the inspector–executor A/B experiment. A 100-iteration
// 512x512 transpose stream on 16 simulated procs, run with the plan cache
// off and on. Modeled results must be identical; host wall-clock should
// drop by >= 2x with the cache (asserted by the CI perf-smoke job from the
// emitted JSON records).
struct CompareRun {
  machine::RunResult res;
  double host_ms = 0.0;
};

CompareRun run_transpose_stream(bool cache_on, int procs, std::int64_t n, int iters) {
  auto c = MachineConfig::ideal(procs);
  c.stack_bytes = 256 * 1024;
  c.plan_cache = cache_on;
  Machine machine(c);
  CompareRun out;
  const fxbench::HostTimer timer;
  out.res = machine.run([&](Context& ctx) {
    const auto g = pgroup::ProcessorGroup::identity(procs);
    ds::DistArray<double> a(
        ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
    ds::DistArray<double> b(
        ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "b");
    a.fill_value(1.0);
    for (int i = 0; i < iters; ++i) ds::transpose(ctx, b, a);
  });
  out.host_ms = timer.ms();
  return out;
}

/// Best-of-3 host time: host wall-clock is noisy on shared CI runners, so
/// every A/B leg keeps the fastest of three runs (modeled results are
/// deterministic — any run's RunResult serves as the witness).
template <typename RunFn>
auto best_of_3(RunFn run) {
  auto best = run();
  for (int rep = 1; rep < 3; ++rep) {
    auto next = run();
    if (next.host_ms < best.host_ms) best = next;
  }
  return best;
}

int run_redist_compare() {
  const int procs = 16;
  const std::int64_t n = 512;
  const int iters = 100;
  const std::vector<std::pair<std::string, std::string>> base_params{
      {"procs", std::to_string(procs)},
      {"n", std::to_string(n)},
      {"iters", std::to_string(iters)}};

  const CompareRun uncached =
      best_of_3([&] { return run_transpose_stream(false, procs, n, iters); });
  const CompareRun cached =
      best_of_3([&] { return run_transpose_stream(true, procs, n, iters); });

  const bool sim_identical = uncached.res.finish_time == cached.res.finish_time &&
                             uncached.res.messages == cached.res.messages &&
                             uncached.res.bytes == cached.res.bytes;
  const double speedup = cached.host_ms > 0.0 ? uncached.host_ms / cached.host_ms : 0.0;

  auto with = [&](const char* k, const std::string& v) {
    auto p = base_params;
    p.push_back({k, v});
    return p;
  };
  fxbench::json_record("micro/redist/uncached", with("plan_cache", "off"), uncached.res,
                       uncached.host_ms);
  fxbench::json_record("micro/redist/cached", with("plan_cache", "on"), cached.res,
                       cached.host_ms);
  {
    auto p = base_params;
    p.push_back({"speedup", std::to_string(speedup)});
    p.push_back({"sim_identical", sim_identical ? "true" : "false"});
    fxbench::json_record("micro/redist/speedup", p, cached.res, cached.host_ms);
  }

  std::printf(
      "redistribution plan cache A/B (%d iters of %lldx%lld transpose, %d procs, best of 3)\n",
      iters, static_cast<long long>(n), static_cast<long long>(n), procs);
  std::printf("  uncached: host %8.1f ms   sim %.6f s\n", uncached.host_ms,
              uncached.res.finish_time);
  std::printf("  cached:   host %8.1f ms   sim %.6f s   (%llu hits, %llu misses)\n",
              cached.host_ms, cached.res.finish_time,
              static_cast<unsigned long long>(cached.res.plan_cache_hits),
              static_cast<unsigned long long>(cached.res.plan_cache_misses));
  std::printf("  host speedup: %.2fx, modeled results %s\n", speedup,
              sim_identical ? "identical" : "DIFFER");
  return sim_identical ? 0 : 1;
}

// --collective-compare: the collective-plan-cache A/B experiment. Repeated
// 8-way vector allreduce + gather over 32 KiB payloads — the regime where
// the cached executor's pooled buffers and from-bytes combine pay off —
// with MachineConfig::plan_cache off vs on. Modeled results and final
// values must be bit-identical; the CI perf-smoke job asserts a >= 1.5x
// host speedup from the emitted records.
struct CollectiveRun {
  machine::RunResult res;
  double host_ms = 0.0;
  double checksum = 0.0;  ///< deterministic digest of every rank's final vector
  /// Minor page faults taken by the steady-state half of the stream (the
  /// second `iters/2` iterations). With the typed double pool warm this
  /// should be near zero on the cached leg: every result vector is a
  /// recycled allocation, so no new pages get touched.
  std::int64_t steady_minflt = -1;
};

CollectiveRun run_collective_stream(bool cache_on, int procs, std::size_t n, int iters) {
  auto c = MachineConfig::ideal(procs);
  c.stack_bytes = 256 * 1024;
  c.plan_cache = cache_on;
  Machine machine(c);
  std::vector<double> sums(static_cast<std::size_t>(procs), 0.0);
  std::int64_t warm_minflt = -1;
  CollectiveRun out;
  const fxbench::HostTimer timer;
  out.res = machine.run([&](Context& ctx) {
    const auto g = pgroup::ProcessorGroup::identity(procs);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<double>(ctx.phys_rank() + 1) + static_cast<double>(i % 7);
    }
    for (int it = 0; it < iters; ++it) {
      if (it == iters / 2 && ctx.phys_rank() == 0) {
        // Pools and caches are warm; what faults from here on is churn.
        warm_minflt = fxbench::detail::rusage_now().minflt;
      }
      v = comm::allreduce_vector(ctx, g, std::move(v),
                                 [](double a, double b) { return a + b; });
      // Damp so repeated summing stays bounded (procs = 8 => factor 1).
      for (double& x : v) x *= 0.125;
      std::vector<double> all = comm::gather_vectors(ctx, g, 0, v);
      // Feed the gathered data back in so the gather is load-bearing.
      if (ctx.phys_rank() == 0 && !all.empty()) v[0] += all.back() * 1e-12;
      // Hand the gather result back to the typed scratch pool: the next
      // iteration's collectives reuse the allocation instead of growing a
      // fresh vector (this is what keeps the steady state fault-quiet).
      ctx.machine().double_release(std::move(all));
    }
    double s = 0.0;
    for (double x : v) s += x;
    sums[static_cast<std::size_t>(ctx.phys_rank())] = s;
  });
  out.host_ms = timer.ms();
  if (warm_minflt >= 0) {
    const std::int64_t end_minflt = fxbench::detail::rusage_now().minflt;
    out.steady_minflt = end_minflt - warm_minflt;
  }
  for (double s : sums) out.checksum += s;
  return out;
}

int run_collective_compare() {
  const int procs = 8;
  const std::size_t n = 4096;  // doubles per rank: 32 KiB payloads
  const int iters = 200;
  const std::vector<std::pair<std::string, std::string>> base_params{
      {"procs", std::to_string(procs)},
      {"n", std::to_string(n)},
      {"iters", std::to_string(iters)}};

  const CollectiveRun uncached =
      best_of_3([&] { return run_collective_stream(false, procs, n, iters); });
  const CollectiveRun cached =
      best_of_3([&] { return run_collective_stream(true, procs, n, iters); });

  const bool sim_identical = uncached.res.finish_time == cached.res.finish_time &&
                             uncached.res.messages == cached.res.messages &&
                             uncached.res.bytes == cached.res.bytes &&
                             uncached.checksum == cached.checksum;
  const double speedup = cached.host_ms > 0.0 ? uncached.host_ms / cached.host_ms : 0.0;

  auto with = [&](const char* k, const std::string& v) {
    auto p = base_params;
    p.push_back({k, v});
    return p;
  };
  {
    // Emit the counters on both legs: CI asserts the uncached leg really
    // ran cold (zero hits), not just that the cached leg ran warm.
    auto p = with("plan_cache", "off");
    p.push_back(
        {"collective_plan_hits", std::to_string(uncached.res.collective_plan_hits)});
    p.push_back(
        {"collective_plan_misses", std::to_string(uncached.res.collective_plan_misses)});
    p.push_back({"steady_minor_faults", std::to_string(uncached.steady_minflt)});
    fxbench::json_record("micro/collective/uncached", p, uncached.res, uncached.host_ms);
  }
  {
    auto p = with("plan_cache", "on");
    p.push_back({"collective_plan_hits", std::to_string(cached.res.collective_plan_hits)});
    p.push_back(
        {"collective_plan_misses", std::to_string(cached.res.collective_plan_misses)});
    p.push_back({"steady_minor_faults", std::to_string(cached.steady_minflt)});
    fxbench::json_record("micro/collective/cached", p, cached.res, cached.host_ms);
  }
  {
    auto p = base_params;
    p.push_back({"speedup", std::to_string(speedup)});
    p.push_back({"sim_identical", sim_identical ? "true" : "false"});
    fxbench::json_record("micro/collective/speedup", p, cached.res, cached.host_ms);
  }

  std::printf(
      "collective plan cache A/B (%d iters of %d-way allreduce+gather, %zu doubles, "
      "best of 3)\n",
      iters, procs, n);
  std::printf("  uncached: host %8.1f ms   sim %.6f s\n", uncached.host_ms,
              uncached.res.finish_time);
  std::printf("  cached:   host %8.1f ms   sim %.6f s   (%llu hits, %llu misses)\n",
              cached.host_ms, cached.res.finish_time,
              static_cast<unsigned long long>(cached.res.collective_plan_hits),
              static_cast<unsigned long long>(cached.res.collective_plan_misses));
  std::printf("  steady-state minor faults: uncached %lld, cached %lld\n",
              static_cast<long long>(uncached.steady_minflt),
              static_cast<long long>(cached.steady_minflt));
  std::printf("  host speedup: %.2fx, results %s\n", speedup,
              sim_identical ? "identical" : "DIFFER");
  return sim_identical ? 0 : 1;
}

// --sort-compare: the quicksort leaf kernel A/B. std::sort and
// apps::leaf_sort each sort the same 256K qsort_input keys, best of 3 per
// leg; the two outputs must be memcmp-equal. The CI perf-smoke job asserts
// the leaf kernel is >= 2x faster from the emitted records. A size sweep
// around apps::kLeafRadixCutover follows: each leg sorts 1M qsort_input keys
// as independent runs of n keys, best of 5, reported per sort.
struct SortRun {
  double host_ms = 0.0;
  std::vector<std::int64_t> out;
};

int run_sort_compare() {
  const std::int64_t n = std::int64_t{1} << 18;
  const unsigned seed = 1;
  const auto input = ap::qsort_input(n, seed);
  Machine machine(MachineConfig::ideal(1));  // the leaf kernel's scratch pool
  auto leg = [&](auto sort_fn) {
    return best_of_3([&] {
      SortRun r;
      r.out = input;
      const fxbench::HostTimer timer;
      sort_fn(r.out);
      r.host_ms = timer.ms();
      return r;
    });
  };
  const SortRun std_leg = leg([](std::vector<std::int64_t>& v) { std::sort(v.begin(), v.end()); });
  const SortRun leaf_leg = leg([&](std::vector<std::int64_t>& v) { ap::leaf_sort(machine, v); });

  const bool identical =
      std_leg.out.size() == leaf_leg.out.size() &&
      std::memcmp(std_leg.out.data(), leaf_leg.out.data(),
                  std_leg.out.size() * sizeof(std::int64_t)) == 0;
  const double speedup = leaf_leg.host_ms > 0.0 ? std_leg.host_ms / leaf_leg.host_ms : 0.0;
  std::vector<std::pair<std::string, std::string>> params{
      {"n", std::to_string(n)},
      {"seed", std::to_string(seed)},
      {"reps", "3"},
      {"identical", identical ? "true" : "false"}};
  fxbench::json_record("micro/sort/std", params, std_leg.host_ms * 1e-3, 1.0, 0,
                       std_leg.host_ms, 0, 0, "host");
  params.push_back({"speedup", std::to_string(speedup)});
  fxbench::json_record("micro/sort/leaf", params, leaf_leg.host_ms * 1e-3, 1.0, 0,
                       leaf_leg.host_ms, 0, 0, "host");

  std::printf("quicksort leaf kernel A/B (%lld qsort_input keys, best of 3)\n",
              static_cast<long long>(n));
  std::printf("  std::sort: host %8.2f ms\n", std_leg.host_ms);
  std::printf("  leaf_sort: host %8.2f ms\n", leaf_leg.host_ms);
  std::printf("  speedup: %.2fx, outputs %s\n", speedup, identical ? "identical" : "DIFFER");

  const std::int64_t total = std::int64_t{1} << 20;
  const auto pool = ap::qsort_input(total, seed);
  bool sweep_identical = true;
  std::printf("size sweep (%lld keys as runs of n, best of 5, us per sort)\n",
              static_cast<long long>(total));
  for (const std::size_t run : {64, 128, 256, 512, 1024, 4096}) {
    const std::size_t sorts = pool.size() / run;
    auto sweep_leg = [&](auto sort_fn) {
      SortRun best;
      for (int rep = 0; rep < 5; ++rep) {
        SortRun r;
        r.out = pool;
        const fxbench::HostTimer timer;
        for (std::size_t k = 0; k < sorts; ++k) sort_fn(std::span(r.out).subspan(k * run, run));
        r.host_ms = timer.ms();
        if (rep == 0 || r.host_ms < best.host_ms) best = std::move(r);
      }
      return best;
    };
    const SortRun s = sweep_leg([](std::span<std::int64_t> v) { std::sort(v.begin(), v.end()); });
    const SortRun l = sweep_leg([&](std::span<std::int64_t> v) { ap::leaf_sort(machine, v); });
    const bool same =
        std::memcmp(s.out.data(), l.out.data(), s.out.size() * sizeof(std::int64_t)) == 0;
    sweep_identical = sweep_identical && same;
    const double std_us = s.host_ms * 1e3 / static_cast<double>(sorts);
    const double leaf_us = l.host_ms * 1e3 / static_cast<double>(sorts);
    const std::vector<std::pair<std::string, std::string>> sweep_params{
        {"n", std::to_string(run)},
        {"sorts", std::to_string(sorts)},
        {"reps", "5"},
        {"identical", same ? "true" : "false"}};
    fxbench::json_record("micro/sort_sweep/std", sweep_params, std_us * 1e-6, 1.0, 0,
                         s.host_ms, 0, 0, "host");
    fxbench::json_record("micro/sort_sweep/leaf", sweep_params, leaf_us * 1e-6, 1.0, 0,
                         l.host_ms, 0, 0, "host");
    std::printf("  n=%5zu  std::sort %8.2f us  leaf_sort %8.2f us  (%.2fx)%s\n", run, std_us,
                leaf_us, leaf_us > 0.0 ? std_us / leaf_us : 0.0, same ? "" : "  DIFFER");
  }
  return identical && sweep_identical ? 0 : 1;
}

// --qsort-scaling: the nested quicksort's scaling record. parallel_qsort
// sorts the same 1M qsort_input keys on the threaded backend at p = 1, 2
// and 4, one Machine per p in this one process. Each run times the sort
// phase alone (barrier to barrier on rank 0; fill and gather excluded) and
// checks its output against std::sort. The legs take turns, one run each
// per round, so a drift in host speed hits all three alike; each keeps its
// best of 5. The CI perf-smoke job gates the p=4 leg against p=1 from the
// emitted records.
int run_qsort_scaling() {
  const std::int64_t n = std::int64_t{1} << 20;
  const unsigned seed = 1;
  constexpr int kReps = 5;
  constexpr std::array<int, 3> kProcs{1, 2, 4};
  const auto input = ap::qsort_input(n, seed);
  auto expect = input;
  std::sort(expect.begin(), expect.end());

  struct Leg {
    std::unique_ptr<Machine> machine;
    double best_ms = 0.0;
    std::int64_t min_faults = 0;  ///< process-wide minor faults in the sort phase
    bool identical = true;
  };
  std::array<Leg, kProcs.size()> legs;
  for (std::size_t i = 0; i < kProcs.size(); ++i) {
    auto c = MachineConfig::paragon(kProcs[i]);
    c.backend = exec::BackendKind::Threads;
    legs[i].machine = std::make_unique<Machine>(c);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (Leg& leg : legs) {
      double phase_ms = 0.0;
      std::int64_t faults = 0;
      std::vector<std::int64_t> sorted;
      leg.machine->run([&](Context& ctx) {
        ds::DistArray<std::int64_t> a(ctx, ds::Layout(ctx.group(), {n}, {ds::DimDist::block()}),
                                      "a");
        a.fill([&](std::span<const std::int64_t> g) {
          return input[static_cast<std::size_t>(g[0])];
        });
        ctx.barrier();
        const std::int64_t minflt0 =
            ctx.phys_rank() == 0 ? fxbench::detail::rusage_now().minflt : 0;
        const fxbench::HostTimer timer;
        ap::parallel_qsort(ctx, a);
        ctx.barrier();
        if (ctx.phys_rank() == 0) {
          phase_ms = timer.ms();
          faults = fxbench::detail::rusage_now().minflt - minflt0;
        }
        auto full = ds::gather_full(ctx, a, 0);
        if (ctx.phys_rank() == 0) sorted = std::move(full);
      });
      leg.identical = leg.identical && sorted == expect;
      if (rep == 0 || phase_ms < leg.best_ms) leg.best_ms = phase_ms;
      if (rep == 0 || faults < leg.min_faults) leg.min_faults = faults;
    }
  }

  std::printf("nested quicksort scaling (%lld qsort_input keys on threads, sort phase, best of %d)\n",
              static_cast<long long>(n), kReps);
  bool all_identical = true;
  for (std::size_t i = 0; i < kProcs.size(); ++i) {
    const Leg& leg = legs[i];
    all_identical = all_identical && leg.identical;
    const double speedup = leg.best_ms > 0.0 ? legs[0].best_ms / leg.best_ms : 0.0;
    const std::vector<std::pair<std::string, std::string>> params{
        {"n", std::to_string(n)},
        {"seed", std::to_string(seed)},
        {"procs", std::to_string(kProcs[i])},
        {"reps", std::to_string(kReps)},
        {"identical", leg.identical ? "true" : "false"},
        {"speedup_vs_p1", std::to_string(speedup)},
        {"minor_faults", std::to_string(leg.min_faults)}};
    fxbench::json_record("micro/qsort_scaling/p" + std::to_string(kProcs[i]), params,
                         leg.best_ms * 1e-3, 1.0, 0, leg.best_ms, 0, 0, "threads", kProcs[i]);
    std::printf("  p=%d: sort phase %8.2f ms  (%.2fx over p=1), %lld minor faults%s\n",
                kProcs[i], leg.best_ms, speedup, static_cast<long long>(leg.min_faults),
                leg.identical ? "" : "  DIFFERS from std::sort");
  }
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<char*> rest = fxbench::init(argc, argv);
  bool compare = false;
  bool collective_compare = false;
  bool sort_compare = false;
  bool qsort_scaling = false;
  // Hand everything but the mode flags to google-benchmark.
  std::vector<char*> gb_args{rest[0]};
  for (std::size_t i = 1; i < rest.size(); ++i) {
    const std::string a = rest[i];
    if (a == "--redist-compare") {
      compare = true;
    } else if (a == "--collective-compare") {
      collective_compare = true;
    } else if (a == "--sort-compare") {
      sort_compare = true;
    } else if (a == "--qsort-scaling") {
      qsort_scaling = true;
    } else {
      gb_args.push_back(rest[i]);
    }
  }
  if (compare || collective_compare || sort_compare || qsort_scaling) {
    int rc = 0;
    if (compare) rc |= run_redist_compare();
    if (collective_compare) rc |= run_collective_compare();
    if (sort_compare) rc |= run_sort_compare();
    if (qsort_scaling) rc |= run_qsort_scaling();
    return rc;
  }
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
