// Tests for the redistribution plan cache internals: flattened schedule
// construction, cache keying and discrimination, eviction safety, and the
// halo exchange schedule.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "dist/plan_cache.hpp"
#include "machine/machine.hpp"

namespace ds = fxpar::dist;
namespace mx = fxpar::machine;
namespace pg = fxpar::pgroup;

namespace {

mx::MachineConfig cfg(int p) {
  auto c = mx::MachineConfig::ideal(p);
  c.stack_bytes = 256 * 1024;
  return c;
}

std::int64_t seg_elements(const ds::plan::FlatPlan& fp) {
  std::int64_t n = 0;
  for (const ds::plan::TransferSeg& s : fp.segs) n += s.len;
  return n;
}

}  // namespace

TEST(PlanCache, FlattenedSegmentsCoverEveryPlanElement) {
  const auto g = pg::ProcessorGroup::identity(4);
  const ds::Layout src(g, {9, 7}, {ds::DimDist::block(), ds::DimDist::cyclic()});
  const ds::Layout dst(g, {9, 7}, {ds::DimDist::cyclic(), ds::DimDist::block()});
  const std::vector<int> perm{0, 1};
  const auto sched = ds::plan::build_redist_schedule(src, dst, perm,
                                                     ds::detail::inverse_perm(perm), {0, 0});
  ASSERT_EQ(sched->nsenders, 4);
  ASSERT_EQ(sched->nreceivers, 4);
  std::int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    for (int r = 0; r < 4; ++r) {
      const ds::plan::FlatPlan& fp = sched->pair(s, r);
      EXPECT_EQ(seg_elements(fp), fp.elements) << "pair " << s << "->" << r;
      // Identity perm: every segment is a contiguous memcpy.
      for (const ds::plan::TransferSeg& sg : fp.segs) EXPECT_EQ(sg.dst_stride, 1);
      total += fp.elements;
    }
  }
  EXPECT_EQ(total, 9 * 7);  // every element handled exactly once
}

TEST(PlanCache, PermutedScheduleCoversDistinctDestinations) {
  const auto g = pg::ProcessorGroup::identity(4);
  const ds::Layout src(g, {6, 8}, {ds::DimDist::block(), ds::DimDist::collapsed()});
  const ds::Layout dst(g, {8, 6}, {ds::DimDist::block(), ds::DimDist::collapsed()});
  const std::vector<int> perm{1, 0};
  const auto sched = ds::plan::build_redist_schedule(src, dst, perm,
                                                     ds::detail::inverse_perm(perm), {0, 0});
  std::int64_t total = 0;
  for (int r = 0; r < 4; ++r) {
    // Per receiver, no two segments may write the same local slot.
    std::set<std::int64_t> slots;
    for (int s = 0; s < 4; ++s) {
      const ds::plan::FlatPlan& fp = sched->pair(s, r);
      EXPECT_EQ(seg_elements(fp), fp.elements);
      for (const ds::plan::TransferSeg& sg : fp.segs) {
        for (std::int64_t k = 0; k < sg.len; ++k) {
          EXPECT_TRUE(slots.insert(sg.dst_off + k * sg.dst_stride).second)
              << "receiver " << r << " slot written twice";
        }
      }
      total += fp.elements;
    }
  }
  EXPECT_EQ(total, 6 * 8);
}

TEST(PlanCache, SameArgumentsHitAndShareTheSchedule) {
  mx::Machine m(cfg(4));
  auto& pc = ds::plan::PlanCache::of(m);
  const auto g = pg::ProcessorGroup::identity(4);
  const ds::Layout src(g, {16}, {ds::DimDist::block()});
  const ds::Layout dst(g, {16}, {ds::DimDist::cyclic()});
  const std::vector<int> perm{0};
  const std::vector<int> inv{0};
  const auto s1 = pc.redist(m, src, dst, perm, inv, {0});
  const auto s2 = pc.redist(m, src, dst, perm, inv, {0});
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(pc.redist_entries(), 1u);
}

TEST(PlanCache, KeyDiscriminatesLayoutDetails) {
  mx::Machine m(cfg(4));
  auto& pc = ds::plan::PlanCache::of(m);
  const auto g = pg::ProcessorGroup::identity(4);
  const std::vector<int> perm{0};
  const std::vector<int> inv{0};
  const ds::Layout b16(g, {16}, {ds::DimDist::block()});
  const ds::Layout c16(g, {16}, {ds::DimDist::cyclic()});
  const ds::Layout bc2(g, {16}, {ds::DimDist::block_cyclic(2)});
  const ds::Layout bc4(g, {16}, {ds::DimDist::block_cyclic(4)});
  const ds::Layout b20(g, {20}, {ds::DimDist::block()});
  const pg::ProcessorGroup sub({0, 1});
  const ds::Layout bsub(sub, {16}, {ds::DimDist::block()});
  pc.redist(m, b16, c16, perm, inv, {0});
  pc.redist(m, b16, bc2, perm, inv, {0});   // distribution kind
  pc.redist(m, b16, bc4, perm, inv, {0});   // block size
  pc.redist(m, b20, c16, perm, inv, {0});   // extent (shifted assigns clip)
  pc.redist(m, bsub, c16, perm, inv, {0});  // group membership
  pc.redist(m, b16, c16, perm, inv, {2});   // offset
  EXPECT_EQ(pc.redist_entries(), 6u);
  pc.redist(m, b16, c16, perm, inv, {0});  // replay of the first
  EXPECT_EQ(pc.redist_entries(), 6u);
}

TEST(PlanCache, EvictionKeepsOutstandingSchedulesAlive) {
  mx::Machine m(cfg(2));
  auto& pc = ds::plan::PlanCache::of(m);
  const auto g = pg::ProcessorGroup::identity(2);
  const std::vector<int> perm{0};
  const std::vector<int> inv{0};
  const ds::Layout src0(g, {8}, {ds::DimDist::block()});
  const ds::Layout dst0(g, {8}, {ds::DimDist::cyclic()});
  const auto held = pc.redist(m, src0, dst0, perm, inv, {0});
  const std::int64_t held_elems = held->pair(0, 0).elements + held->pair(0, 1).elements +
                                  held->pair(1, 0).elements + held->pair(1, 1).elements;
  EXPECT_EQ(held_elems, 8);
  // Flood the table past capacity; the wholesale eviction must not touch
  // the schedule a (possibly blocked) caller still holds.
  for (std::int64_t n = 9; n < 9 + 2 * static_cast<std::int64_t>(
                                       ds::plan::PlanCache::kMaxEntries);
       ++n) {
    const ds::Layout s(g, {n}, {ds::DimDist::block()});
    const ds::Layout d(g, {n}, {ds::DimDist::cyclic()});
    pc.redist(m, s, d, perm, inv, {0});
  }
  EXPECT_LE(pc.redist_entries(), ds::plan::PlanCache::kMaxEntries);
  std::int64_t again = 0;
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < 2; ++r) again += held->pair(s, r).elements;
  }
  EXPECT_EQ(again, 8);  // still fully readable after eviction
}

TEST(PlanCache, ReplicatedSourceStoresOneSenderSlot) {
  const auto g = pg::ProcessorGroup::identity(3);
  const ds::Layout src(g, {9}, {ds::DimDist::collapsed()});
  const ds::Layout dst(g, {9}, {ds::DimDist::block()});
  const std::vector<int> perm{0};
  const auto sched = ds::plan::build_redist_schedule(src, dst, perm,
                                                     ds::detail::inverse_perm(perm), {0});
  EXPECT_TRUE(sched->src_replicated);
  EXPECT_EQ(sched->nsenders, 1);
  EXPECT_EQ(sched->pairs.size(), 3u);
  // pair() maps every sender vrank onto the canonical slot.
  for (int s = 0; s < 3; ++s) EXPECT_EQ(sched->pair(s, 1).elements, 3);
}

TEST(PlanCache, HaloScheduleBalancesSendsAndReceives) {
  const auto g = pg::ProcessorGroup::identity(4);
  const ds::Layout lay(g, {2, 13, 5},
                       {ds::DimDist::collapsed(), ds::DimDist::block(), ds::DimDist::collapsed()});
  const auto sched = ds::plan::build_halo_schedule(lay, 2);
  ASSERT_EQ(sched->members.size(), 4u);
  std::int64_t sent = 0, received = 0;
  for (const auto& mp : sched->members) {
    for (const auto& snd : mp.sends) {
      EXPECT_FALSE(snd.local_rows.empty());
      for (std::int64_t lr : snd.local_rows) {
        EXPECT_GE(lr, 0);
        EXPECT_LT(lr, mp.my_hi - mp.my_lo);
      }
      sent += static_cast<std::int64_t>(snd.local_rows.size());
    }
    EXPECT_EQ(mp.n_above + mp.n_below,
              std::accumulate(mp.recvs.begin(), mp.recvs.end(), std::int64_t{0},
                              [](std::int64_t acc, const auto& rcv) {
                                return acc + static_cast<std::int64_t>(rcv.rows.size());
                              }));
    received += mp.n_above + mp.n_below;
  }
  EXPECT_EQ(sent, received);
}

// ---------------------------------------------------------------------------
// Collective plan cache (comm/collective_plan.hpp): schedule builders,
// cached-vs-uncached bit parity on both backends, hit/miss accounting,
// and the group-key collision guard.
// ---------------------------------------------------------------------------

#include <cmath>
#include <cstring>
#include <functional>

#include "comm/collective_plan.hpp"
#include "comm/collectives.hpp"
#include "exec/backend.hpp"

namespace cm = fxpar::comm;
namespace cp = fxpar::comm::plan;
namespace ex = fxpar::exec;

#if defined(__SANITIZE_THREAD__)
#define FXPAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FXPAR_TSAN 1
#endif
#endif

namespace {

std::vector<int> iota_members(int n) {
  std::vector<int> m(static_cast<std::size_t>(n));
  std::iota(m.begin(), m.end(), 0);
  return m;
}

}  // namespace

TEST(CollectivePlan, TreeScheduleMatchesBinomialStructure) {
  for (int n : {1, 2, 3, 4, 5, 7, 8, 13}) {
    for (int root : {0, n / 2, n - 1}) {
      const cp::TreeSchedule t = cp::build_tree_schedule(iota_members(n), root);
      ASSERT_EQ(static_cast<int>(t.nodes.size()), n);
      EXPECT_EQ(t.root, root);
      // The root has no parents; everyone else has exactly one of each.
      int reduce_edges = 0, bcast_edges = 0;
      for (int v = 0; v < n; ++v) {
        const auto& nd = t.nodes[static_cast<std::size_t>(v)];
        if (v == root) {
          EXPECT_EQ(nd.reduce_parent, -1);
          EXPECT_EQ(nd.bcast_parent, -1);
        } else {
          EXPECT_GE(nd.reduce_parent, 0);
          EXPECT_GE(nd.bcast_parent, 0);
        }
        reduce_edges += static_cast<int>(nd.reduce_children.size());
        bcast_edges += static_cast<int>(nd.bcast_children.size());
        // Parent/child lists are mutually consistent.
        for (int c : nd.reduce_children) {
          EXPECT_EQ(t.nodes[static_cast<std::size_t>(c)].reduce_parent, v);
        }
        for (int c : nd.bcast_children) {
          EXPECT_EQ(t.nodes[static_cast<std::size_t>(c)].bcast_parent, v);
        }
      }
      // A tree over n nodes has n-1 edges in each direction.
      EXPECT_EQ(reduce_edges, n - 1) << "n=" << n << " root=" << root;
      EXPECT_EQ(bcast_edges, n - 1) << "n=" << n << " root=" << root;
    }
  }
}

TEST(CollectivePlan, RootedScheduleListsPeersAscending) {
  const cp::RootedSchedule r = cp::build_rooted_schedule(iota_members(5), 2);
  EXPECT_EQ(r.root, 2);
  EXPECT_EQ(r.peers, (std::vector<int>{0, 1, 3, 4}));
}

TEST(CollectivePlan, CacheHitsShareTheSchedule) {
  mx::Machine m(cfg(4));
  auto& cc = cp::CollectiveCache::of(m);
  const auto g = pg::ProcessorGroup::identity(4);
  const auto t1 = cc.tree(m, g, 0);
  const auto t2 = cc.tree(m, g, 0);
  EXPECT_EQ(t1.get(), t2.get());
  EXPECT_EQ(cc.tree_entries(), 1u);
  // A different root is a different entry.
  const auto t3 = cc.tree(m, g, 2);
  EXPECT_NE(t1.get(), t3.get());
  EXPECT_EQ(cc.tree_entries(), 2u);
  // Tree and rooted tables are independent.
  (void)cc.rooted(m, g, 0);
  EXPECT_EQ(cc.rooted_entries(), 1u);
  EXPECT_EQ(cc.tree_entries(), 2u);
}

TEST(CollectivePlan, GroupKeyCollisionGuardThrows) {
  const pg::ProcessorGroup g({0, 1, 2});
  // Matching member list passes.
  EXPECT_NO_THROW(pg::check_group_key_match({0, 1, 2}, g, "tree"));
  // A different list under the same key must be rejected, not replayed.
  EXPECT_THROW(pg::check_group_key_match({0, 1, 3}, g, "tree"), std::logic_error);
  EXPECT_THROW(pg::check_group_key_match({0, 1}, g, "tree"), std::logic_error);
}

TEST(CollectivePlan, EvictionKeepsOutstandingSchedulesAlive) {
  mx::Machine m(cfg(2));
  auto& cc = cp::CollectiveCache::of(m);
  const auto g = pg::ProcessorGroup::identity(2);
  const auto held = cc.tree(m, g, 0);
  // Flood with distinct roots over distinct subgroups to pass capacity.
  for (std::size_t i = 0; i < 2 * cp::CollectiveCache::kMaxEntries; ++i) {
    (void)cc.tree(m, g, static_cast<int>(i % 2));
    const pg::ProcessorGroup sub({static_cast<int>(i % 2)});
    (void)cc.tree(m, sub, 0);
  }
  EXPECT_LE(cc.tree_entries(), cp::CollectiveCache::kMaxEntries);
  EXPECT_EQ(static_cast<int>(held->nodes.size()), 2);  // still readable
}

namespace {

/// One deterministic SPMD program exercising every cached collective over
/// the whole machine and over a subgroup with a non-zero root; returns each
/// rank's flattened outputs so runs can be compared bit-for-bit.
struct SweepResult {
  std::vector<std::vector<double>> per_rank;
  mx::RunResult run;
};

SweepResult run_collective_sweep(ex::BackendKind kind, bool cache_on, int p) {
  auto c = cfg(p);
  c.backend = kind;
  c.plan_cache = cache_on;
  mx::Machine m(c);
  SweepResult out;
  out.per_rank.assign(static_cast<std::size_t>(p), {});
  out.run = m.run([&](mx::Context& ctx) {
    const int r = ctx.phys_rank();
    std::vector<double>& log = out.per_rank[static_cast<std::size_t>(r)];
    const auto g = pg::ProcessorGroup::identity(p);
    const int root = p - 1;

    // broadcast_vector from a non-zero root.
    std::vector<double> b(17);
    if (r == root) {
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 / (1.0 + static_cast<double>(i));
    }
    b = cm::broadcast_vector(ctx, g, root, b);
    log.insert(log.end(), b.begin(), b.end());

    // Scalar reduce + allreduce (sum is order-sensitive in floats; parity
    // requires the cached path to combine in the same order).
    const double s = cm::reduce(ctx, g, root, 0.1 * (r + 1), std::plus<double>{});
    log.push_back(s);
    log.push_back(cm::allreduce(ctx, g, 1.0 / (r + 2), std::plus<double>{}));

    // Vector reduce / allreduce.
    std::vector<double> v(33);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(static_cast<double>(i) + r);
    }
    const auto rv = cm::reduce_vector(ctx, g, 0, v, std::plus<double>{});
    log.insert(log.end(), rv.begin(), rv.end());
    const auto av = cm::allreduce_vector(ctx, g, v, std::plus<double>{});
    log.insert(log.end(), av.begin(), av.end());

    // Scalar gather, vector gather, scatter.
    const auto gs = cm::gather(ctx, g, root, 2.5 * r + 0.25);
    log.insert(log.end(), gs.begin(), gs.end());
    std::vector<double> mine(static_cast<std::size_t>(r + 1), 0.5 * r);
    const auto gv = cm::gather_vectors(ctx, g, 0, mine);
    log.insert(log.end(), gv.begin(), gv.end());
    std::vector<std::vector<double>> parts;
    if (r == root) {
      for (int q = 0; q < p; ++q) {
        parts.emplace_back(static_cast<std::size_t>(q + 2), 1.5 * q);
      }
    }
    const auto sv = cm::scatter_vectors(ctx, g, root, parts);
    log.insert(log.end(), sv.begin(), sv.end());

    // Subgroup collective: only even ranks participate.
    std::vector<int> evens;
    for (int q = 0; q < p; q += 2) evens.push_back(q);
    const pg::ProcessorGroup sub(evens);
    if (sub.contains(r)) {
      const double e = cm::allreduce(ctx, sub, 3.0 + r, std::plus<double>{});
      log.push_back(e);
    }
  });
  return out;
}

void expect_sweeps_identical(const SweepResult& a, const SweepResult& b, const char* what) {
  ASSERT_EQ(a.per_rank.size(), b.per_rank.size());
  for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
    ASSERT_EQ(a.per_rank[r].size(), b.per_rank[r].size()) << what << " rank " << r;
    if (!a.per_rank[r].empty()) {
      EXPECT_EQ(std::memcmp(a.per_rank[r].data(), b.per_rank[r].data(),
                            a.per_rank[r].size() * sizeof(double)),
                0)
          << what << " rank " << r;
    }
  }
}

}  // namespace

TEST(CollectivePlan, CachedMatchesUncachedBitForBitOnSim) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer";
#endif
  for (int p : {2, 3, 5, 8}) {
    const SweepResult on = run_collective_sweep(ex::BackendKind::Sim, true, p);
    const SweepResult off = run_collective_sweep(ex::BackendKind::Sim, false, p);
    expect_sweeps_identical(on, off, "sim");
    EXPECT_GT(on.run.collective_plan_hits + on.run.collective_plan_misses, 0u);
    EXPECT_EQ(off.run.collective_plan_hits, 0u);
    EXPECT_EQ(off.run.collective_plan_misses, 0u);
    // Modeled time is untouched by the cache.
    EXPECT_EQ(on.run.finish_time, off.run.finish_time) << "p=" << p;
  }
}

TEST(CollectivePlan, CachedMatchesUncachedBitForBitOnThreads) {
  for (int p : {2, 3, 5, 8}) {
    const SweepResult on = run_collective_sweep(ex::BackendKind::Threads, true, p);
    const SweepResult off = run_collective_sweep(ex::BackendKind::Threads, false, p);
    expect_sweeps_identical(on, off, "threads");
    EXPECT_GT(on.run.collective_plan_hits + on.run.collective_plan_misses, 0u);
  }
}

TEST(CollectivePlan, ThreadsMatchSimWithCacheOn) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer";
#endif
  const SweepResult sim = run_collective_sweep(ex::BackendKind::Sim, true, 6);
  const SweepResult thr = run_collective_sweep(ex::BackendKind::Threads, true, 6);
  expect_sweeps_identical(sim, thr, "cross-backend");
}

TEST(CollectivePlan, HitMissTotalsAreSpmdShaped) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer";
#endif
  const int p = 4;
  auto c = cfg(p);
  c.plan_cache = true;
  mx::Machine m(c);
  const auto res = m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(p);
    for (int it = 0; it < 3; ++it) {
      (void)cm::allreduce(ctx, g, 1.0, std::plus<double>{});
    }
  });
  // allreduce = reduce + broadcast over one tree entry: the first member to
  // arrive builds it (one miss); every other lookup — all p members, three
  // iterations, two phases — hits.
  EXPECT_EQ(res.collective_plan_misses, 1u);
  EXPECT_EQ(res.collective_plan_hits, static_cast<std::uint64_t>(3 * 2 * p - 1));
}
