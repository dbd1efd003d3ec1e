// Tests for the DistArray container (SPMD storage, access legality,
// iteration, fill).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "dist/dist_array.hpp"
#include "machine/context.hpp"

#if defined(__unix__)
#include <sys/resource.h>
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FXPAR_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FXPAR_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace ds = fxpar::dist;
namespace mx = fxpar::machine;
namespace pg = fxpar::pgroup;

namespace {
mx::MachineConfig cfg(int p) {
  auto c = mx::MachineConfig::ideal(p);
  c.stack_bytes = 256 * 1024;
  return c;
}
}  // namespace

TEST(DistArray, MembersAllocateNonMembersDont) {
  mx::Machine m(cfg(4));
  const pg::ProcessorGroup sub({1, 2});
  m.run([&](mx::Context& ctx) {
    ds::DistArray<int> a(ctx, ds::Layout(sub, {8}, {ds::DimDist::block()}), "a");
    if (sub.contains(ctx.phys_rank())) {
      EXPECT_TRUE(a.is_member());
      EXPECT_EQ(a.local().size(), 4u);
    } else {
      EXPECT_FALSE(a.is_member());
      EXPECT_THROW(a.local(), std::logic_error);
      EXPECT_THROW(a.my_vrank(), std::logic_error);
    }
  });
}

TEST(DistArray, GlobalAccessOnOwnerOnly) {
  mx::Machine m(cfg(2));
  m.run([&](mx::Context& ctx) {
    ds::DistArray<int> a(
        ctx, ds::Layout(pg::ProcessorGroup::identity(2), {8}, {ds::DimDist::block()}), "a");
    if (ctx.phys_rank() == 0) {
      a.at(3) = 33;
      EXPECT_EQ(a.at(3), 33);
      EXPECT_THROW(a.at(4), std::logic_error);  // owned by proc 1
    } else {
      a.at(4) = 44;
      EXPECT_THROW(a.at(3), std::logic_error);
    }
  });
}

TEST(DistArray, FillAndForEachCoverExactlyOwned) {
  mx::Machine m(cfg(3));
  m.run([&](mx::Context& ctx) {
    ds::DistArray<std::int64_t> a(
        ctx, ds::Layout(pg::ProcessorGroup::identity(3), {5, 4},
                        {ds::DimDist::block(), ds::DimDist::collapsed()}),
        "grid");
    a.fill([](std::span<const std::int64_t> g) { return g[0] * 100 + g[1]; });
    std::int64_t seen = 0;
    a.for_each_owned([&](std::span<const std::int64_t> g, std::int64_t& v) {
      EXPECT_EQ(v, g[0] * 100 + g[1]);
      seen += 1;
    });
    EXPECT_EQ(seen, static_cast<std::int64_t>(a.local().size()));
  });
}

TEST(DistArray, TwoDimAccessMatchesLayout) {
  mx::Machine m(cfg(4));
  m.run([&](mx::Context& ctx) {
    ds::DistArray<double> a(
        ctx, ds::Layout(pg::ProcessorGroup::identity(4), {4, 4},
                        {ds::DimDist::block(), ds::DimDist::block()}),
        "m");
    a.fill([](std::span<const std::int64_t> g) {
      return static_cast<double>(g[0] * 10 + g[1]);
    });
    // Each proc owns a 2x2 quadrant on a 2x2 grid.
    const int v = a.my_vrank();
    const std::int64_t r0 = (v / 2) * 2, c0 = (v % 2) * 2;
    EXPECT_DOUBLE_EQ(a.at(r0 + 1, c0 + 1), static_cast<double>((r0 + 1) * 10 + c0 + 1));
  });
}

TEST(DistArray, ReplicatedEveryMemberHoldsAll) {
  mx::Machine m(cfg(3));
  m.run([&](mx::Context& ctx) {
    ds::DistArray<int> a(
        ctx, ds::Layout(pg::ProcessorGroup::identity(3), {6},
                        {ds::DimDist::collapsed()}),
        "rep");
    EXPECT_EQ(a.local().size(), 6u);
    a.fill([](std::span<const std::int64_t> g) { return static_cast<int>(g[0] * 2); });
    EXPECT_EQ(a.at(5), 10);  // every member owns every element
  });
}

TEST(DistArray, FillValueSetsAllLocal) {
  mx::Machine m(cfg(2));
  m.run([&](mx::Context& ctx) {
    ds::DistArray<float> a(
        ctx, ds::Layout(pg::ProcessorGroup::identity(2), {10}, {ds::DimDist::cyclic()}), "f");
    a.fill_value(2.5f);
    for (float x : a.local()) EXPECT_FLOAT_EQ(x, 2.5f);
  });
}

TEST(DistArray, NonMemberFillIsNoop) {
  mx::Machine m(cfg(2));
  const pg::ProcessorGroup solo({0});
  m.run([&](mx::Context& ctx) {
    ds::DistArray<int> a(ctx, ds::Layout(solo, {4}, {ds::DimDist::block()}), "solo");
    a.fill_value(7);                                  // no-op off-group
    a.fill([](std::span<const std::int64_t>) { return 9; });  // no-op off-group
    if (ctx.phys_rank() == 0) {
      for (int x : a.local()) EXPECT_EQ(x, 9);
    }
  });
}

TEST(DistArray, WorkerReusesFreedBlocksWithoutFreshPages) {
#if defined(FXPAR_SANITIZED_ALLOCATOR) || !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc malloc; sanitizer allocators quarantine freed blocks";
#else
  // Each rank builds and drops a 2 MiB block six times. The first free
  // raises glibc's mmap threshold past the block size, so from the third
  // round on every block comes from the worker's own arena, in pages it
  // already faulted in (a fresh mapping costs 512 faults per round).
  constexpr int kRounds = 6;
  constexpr int kWarmRounds = 2;
  constexpr std::int64_t kMaxWarmFaults = 64;
  auto c = cfg(4);
  c.backend = fxpar::exec::BackendKind::Threads;
  mx::Machine m(c);
  std::array<std::int64_t, 4> faults{};
  m.run([&](mx::Context& ctx) {
    const ds::Layout layout(pg::ProcessorGroup::identity(4), {std::int64_t{1} << 20},
                            {ds::DimDist::block()});
    auto minflt = [] {
      struct rusage ru;
      getrusage(RUSAGE_THREAD, &ru);
      return static_cast<std::int64_t>(ru.ru_minflt);
    };
    std::int64_t warm = 0;
    for (int round = 0; round < kRounds; ++round) {
      if (round == kWarmRounds) warm = minflt();
      ds::DistArray<std::int64_t> a(ctx, layout, "block");
      a.fill([round](std::span<const std::int64_t> g) { return g[0] + round; });
    }
    faults[static_cast<std::size_t>(ctx.phys_rank())] = minflt() - warm;
  });
  for (std::size_t r = 0; r < faults.size(); ++r) {
    EXPECT_LE(faults[r], kMaxWarmFaults) << "rank " << r;
  }
#endif
}
