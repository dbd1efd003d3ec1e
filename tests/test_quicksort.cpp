// Tests for the nested task parallel quicksort (Figure 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "apps/quicksort.hpp"

#if defined(__SANITIZE_THREAD__)
#define FXPAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FXPAR_TSAN 1
#endif
#endif

namespace ap = fxpar::apps;
namespace ds = fxpar::dist;
namespace ex = fxpar::exec;
namespace mx = fxpar::machine;
using fxpar::MachineConfig;

namespace {

MachineConfig paragon(int p) {
  auto c = MachineConfig::paragon(p);
  c.stack_bytes = 512 * 1024;  // recursive task regions need headroom
  return c;
}

void expect_sorted_matches(const std::vector<std::int64_t>& input, int procs) {
  auto expect = input;
  std::sort(expect.begin(), expect.end());
  const auto res = ap::run_parallel_qsort(paragon(procs), input);
  EXPECT_EQ(res.sorted, expect) << "p=" << procs << " n=" << input.size();
}

/// leaf_sort on a copy of `v` must produce std::sort's bytes exactly.
void expect_leaf_matches_std(std::vector<std::int64_t> v) {
  mx::Machine m(MachineConfig::ideal(1));
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  ap::leaf_sort(m, v);
  ASSERT_EQ(v.size(), expect.size());
  EXPECT_TRUE(v.empty() ||
              std::memcmp(v.data(), expect.data(), v.size() * sizeof(std::int64_t)) == 0)
      << "n=" << v.size();
}

/// Sorts `input` through a 1-D array of distribution `dist` on a machine
/// of config `c` and gathers the result.
std::vector<std::int64_t> sort_distributed(const MachineConfig& c, ds::DimDist dist,
                                           const std::vector<std::int64_t>& input) {
  const auto n = static_cast<std::int64_t>(input.size());
  std::vector<std::int64_t> out;
  mx::Machine m(c);
  m.run([&](mx::Context& ctx) {
    ds::DistArray<std::int64_t> a(ctx, ds::Layout(ctx.group(), {n}, {dist}), "a");
    a.fill([&](std::span<const std::int64_t> g) { return input[static_cast<std::size_t>(g[0])]; });
    ap::parallel_qsort(ctx, a);
    auto full = ds::gather_full(ctx, a, 0);
    if (ctx.phys_rank() == 0) out = std::move(full);
  });
  return out;
}

}  // namespace

TEST(Quicksort, SingleProcessorSorts) {
  expect_sorted_matches(ap::qsort_input(100, 1), 1);
}

class QsortSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QsortSweep, SortsRandomInput) {
  const int procs = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  expect_sorted_matches(ap::qsort_input(n, static_cast<unsigned>(n + procs)), procs);
}

INSTANTIATE_TEST_SUITE_P(ProcsBySizes, QsortSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                                            ::testing::Values(1, 2, 17, 100, 513)));

TEST(Quicksort, AlreadySortedInput) {
  std::vector<std::int64_t> v(200);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::int64_t>(i);
  expect_sorted_matches(v, 4);
}

TEST(Quicksort, ReverseSortedInput) {
  std::vector<std::int64_t> v(200);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::int64_t>(200 - i);
  expect_sorted_matches(v, 4);
}

TEST(Quicksort, AllEqualKeys) {
  std::vector<std::int64_t> v(128, 42);
  expect_sorted_matches(v, 4);
}

TEST(Quicksort, FewDistinctKeys) {
  std::vector<std::int64_t> v;
  for (int i = 0; i < 300; ++i) v.push_back(i % 3);
  expect_sorted_matches(v, 8);
}

TEST(Quicksort, FewerElementsThanProcessors) {
  expect_sorted_matches(ap::qsort_input(5, 7), 8);
}

TEST(Quicksort, NegativeAndDuplicateValues) {
  std::vector<std::int64_t> v{5, -3, 0, -3, 12, 5, 5, -100, 7, 0};
  expect_sorted_matches(v, 4);
}

TEST(Quicksort, ProcessorsSubdivideProportionally) {
  // Smoke check that parallel runs use communication (the redistribution
  // and merge phases) and stay deterministic.
  const auto input = ap::qsort_input(400, 9);
  const auto a = ap::run_parallel_qsort(paragon(8), input);
  const auto b = ap::run_parallel_qsort(paragon(8), input);
  EXPECT_GT(a.machine_result.messages, 0u);
  EXPECT_EQ(a.sorted, b.sorted);
  EXPECT_EQ(a.machine_result.messages, b.machine_result.messages);
  EXPECT_DOUBLE_EQ(a.machine_result.finish_time, b.machine_result.finish_time);
}

TEST(Quicksort, ParallelIsFasterThanSingleProcessorInModel) {
  // Communication overheads dominate at small n (a real machine property);
  // at 1M keys the parallel version wins clearly.
  const auto input = ap::qsort_input(1 << 20, 3);
  const auto p1 = ap::run_parallel_qsort(paragon(1), input);
  const auto p8 = ap::run_parallel_qsort(paragon(8), input);
  EXPECT_LT(p8.machine_result.finish_time, p1.machine_result.finish_time);
}

TEST(Quicksort, SmallProblemsAreCommunicationBound) {
  // The flip side: on tiny inputs the single processor wins, because the
  // redistribution latency cannot be amortized. This is the same effect
  // Table 1 shows for small data sets.
  const auto input = ap::qsort_input(256, 5);
  const auto p1 = ap::run_parallel_qsort(paragon(1), input);
  const auto p8 = ap::run_parallel_qsort(paragon(8), input);
  EXPECT_LT(p1.machine_result.finish_time, p8.machine_result.finish_time);
}

// ---- bad input ----

TEST(Quicksort, RejectsMultiDimensionalArray) {
  mx::Machine m(paragon(2));
  try {
    m.run([&](mx::Context& ctx) {
      ds::DistArray<std::int64_t> a(
          ctx, ds::Layout(ctx.group(), {4, 4}, {ds::DimDist::block(), ds::DimDist::collapsed()}),
          "grid");
      ap::parallel_qsort(ctx, a);
    });
    FAIL() << "a 2-D array was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'grid'"), std::string::npos) << what;
    EXPECT_NE(what.find("1-D"), std::string::npos) << what;
  }
}

TEST(Quicksort, InputRejectsNegativeSize) {
  EXPECT_THROW(ap::qsort_input(-1, 1), std::invalid_argument);
  EXPECT_TRUE(ap::qsort_input(0, 1).empty());
}

// ---- the leaf kernel against std::sort ----

TEST(LeafSort, EmptyAndSingleElement) {
  expect_leaf_matches_std({});
  expect_leaf_matches_std({-5});
}

TEST(LeafSort, BelowAndAboveCutover) {
  const auto cut = static_cast<std::int64_t>(ap::kLeafRadixCutover);
  for (std::int64_t n : {cut - 1, cut, cut + 1, 4 * cut + 3}) {
    expect_leaf_matches_std(ap::qsort_input(n, static_cast<unsigned>(n)));
  }
}

TEST(LeafSort, AllEqualKeys) {
  expect_leaf_matches_std(std::vector<std::int64_t>(3 * ap::kLeafRadixCutover, 42));
}

TEST(LeafSort, NegativeOnlyKeys) {
  auto v = ap::qsort_input(5000, 17);
  for (auto& x : v) x = -1 - x * 977;
  expect_leaf_matches_std(v);
}

TEST(LeafSort, FullRangeKeysUseEveryPass) {
  // INT64_MIN and INT64_MAX make max - min span all 64 bits: six 11-bit
  // passes, an even number, and the sign boundary inside the top digit.
  auto v = ap::qsort_input(5000, 23);
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (auto& x : v) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<std::int64_t>(h);
  }
  v[7] = std::numeric_limits<std::int64_t>::min();
  v[100] = std::numeric_limits<std::int64_t>::max();
  v[2500] = std::numeric_limits<std::int64_t>::min();
  v[4999] = 0;
  expect_leaf_matches_std(v);
}

TEST(LeafSort, OddPassCountEndsInScratch) {
  // max - min < 2^33 takes three passes, so the sorted keys land in the
  // scratch buffer and are copied back.
  auto v = ap::qsort_input(4000, 29);
  for (auto& x : v) x = x * 1000003 - (std::int64_t{1} << 32);
  expect_leaf_matches_std(v);
}

TEST(LeafSort, MillionKeysFromQsortInput) {
  expect_leaf_matches_std(ap::qsort_input(1 << 20, 3));
}

// ---- input distributions other than BLOCK ----

class QsortDistribution : public ::testing::TestWithParam<std::tuple<int, ex::BackendKind>> {};

TEST_P(QsortDistribution, SortsCyclicAndBlockCyclicInput) {
  const auto backend = std::get<1>(GetParam());
#ifdef FXPAR_TSAN
  if (backend == ex::BackendKind::Sim) {
    GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer";
  }
#endif
  const ds::DimDist dist =
      std::get<0>(GetParam()) == 0 ? ds::DimDist::cyclic() : ds::DimDist::block_cyclic(5);
  const auto input = ap::qsort_input(9001, 31);  // p=4 leaves still take the radix path
  auto expect = input;
  std::sort(expect.begin(), expect.end());
  for (int procs : {1, 3, 4}) {
    auto c = paragon(procs);
    c.backend = backend;
    EXPECT_EQ(sort_distributed(c, dist, input), expect) << "p=" << procs;
  }
}

INSTANTIATE_TEST_SUITE_P(CyclicKinds, QsortDistribution,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(ex::BackendKind::Sim,
                                                              ex::BackendKind::Threads)));

// ---- modeled cost ----

TEST(Quicksort, ModeledCostIsPinned) {
  // Host-side rewrites (the leaf sort, the partition scatter and classify,
  // the final gather) must leave the model untouched: finish time
  // (exactly), messages, bytes and barriers on paragon(8), with the plan
  // cache on and off. The values were recorded with the sampled-median
  // pivot and the merge-free recursion (docs/performance.md, "Pivot rule
  // and classify" and "Pieces instead of merges").
  struct Pin {
    std::int64_t n;
    unsigned seed;
    double finish;
    std::uint64_t messages, bytes, barriers;
  };
  const Pin pins[] = {
      {4096, 7, 0x1.708326d927fcap-5, 138, 136712, 8},
      {1 << 16, 11, 0x1.6e4f4bc322d4fp-4, 136, 1650424, 8},
  };
  for (const Pin& pin : pins) {
    for (bool plan_cache : {true, false}) {
      auto c = paragon(8);
      c.plan_cache = plan_cache;
      const auto res = ap::run_parallel_qsort(c, ap::qsort_input(pin.n, pin.seed));
      const auto& r = res.machine_result;
      EXPECT_EQ(r.finish_time, pin.finish) << "n=" << pin.n << " cache=" << plan_cache;
      EXPECT_EQ(r.messages, pin.messages) << "n=" << pin.n << " cache=" << plan_cache;
      EXPECT_EQ(r.bytes, pin.bytes) << "n=" << pin.n << " cache=" << plan_cache;
      EXPECT_EQ(r.barriers, pin.barriers) << "n=" << pin.n << " cache=" << plan_cache;
      EXPECT_TRUE(std::is_sorted(res.sorted.begin(), res.sorted.end()));
    }
  }
}

// ---- pivot quality ----

TEST(Quicksort, SampledPivotBalancesLeaves) {
  // The pivot is the median of evenly spaced samples, so each binary split
  // halves the keys and no rank's leaf dwarfs the others: the busiest
  // rank's modeled busy time stays close to the mean. Over these 12 inputs
  // it measured at most 1.083x on p=4 and 1.100x on p=8, with each level's
  // gathers rooted at its middle member. (The old midpoint-key rule
  // measured a median of 1.72x and up to 2.33x on p=4.)
  for (const auto& [procs, bound] : {std::pair{4, 1.10}, std::pair{8, 1.17}}) {
    for (unsigned s = 0; s < 12; ++s) {
      const auto input = ap::qsort_input(1 << 16, s * 1000 + 1);
      auto expect = input;
      std::sort(expect.begin(), expect.end());
      const auto res = ap::run_parallel_qsort(paragon(procs), input);
      ASSERT_EQ(res.sorted, expect) << "p=" << procs << " seed=" << s * 1000 + 1;
      const auto& clocks = res.machine_result.clocks;
      ASSERT_EQ(clocks.size(), static_cast<std::size_t>(procs));
      double busiest = 0.0, total = 0.0;
      for (const auto& c : clocks) {
        busiest = std::max(busiest, c.busy);
        total += c.busy;
      }
      EXPECT_LE(busiest / (total / procs), bound) << "p=" << procs << " seed=" << s * 1000 + 1;
    }
  }
}

class QsortAdversarial : public ::testing::TestWithParam<ex::BackendKind> {};

TEST_P(QsortAdversarial, MidpointKeyIsTheMinimum) {
  // Distinct keys with the minimum at the global midpoint: the key a
  // midpoint rule would pick peels off one element per level.
  const auto backend = GetParam();
#ifdef FXPAR_TSAN
  if (backend == ex::BackendKind::Sim) {
    GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer";
  }
#endif
  const std::size_t n = std::size_t{1} << 14;
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::int64_t>((i * 7919) % n) + 1;
  v[n / 2] = 0;
  auto c = paragon(8);
  c.backend = backend;
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(ap::run_parallel_qsort(c, v).sorted, expect);
}

INSTANTIATE_TEST_SUITE_P(Backends, QsortAdversarial,
                         ::testing::Values(ex::BackendKind::Sim, ex::BackendKind::Threads));
