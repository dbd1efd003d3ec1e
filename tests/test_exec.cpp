// Tests for the fxexec backend seam: threaded messaging and park/wake,
// subset barriers under nested TASK_PARTITIONs (sibling subgroups must not
// synchronize), counter parity with the simulator, abort propagation,
// deadlock detection, concurrent trace recording, and the runtime core
// shared by the threaded and process backends (matcher, quiescence rule,
// deadlock text).
//
// The simulator's ucontext fibers are incompatible with ThreadSanitizer,
// so sim-side tests self-skip under TSan; the threaded-backend tests are
// exactly the ones a TSan build is for. Fork-per-rank tests self-skip too.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fx.hpp"
#include "comm/collectives.hpp"
#include "core/parallel_loop.hpp"
#include "dist/redistribute.hpp"
#include "exec/rank_core.hpp"
#include "fifo_pairing.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "machine/report.hpp"
#include "pgroup/group.hpp"
#include "runtime/simulator.hpp"
#include "trace/critical_path.hpp"
#include "trace/phase_report.hpp"

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
#define FXPAR_SKIP_PROC_UNDER_TSAN() \
  GTEST_SKIP() << "fork-per-rank backend is incompatible with ThreadSanitizer"
#else
#define FXPAR_SKIP_SIM_UNDER_TSAN() (void)0
#define FXPAR_SKIP_PROC_UNDER_TSAN() (void)0
#endif

namespace mx = fxpar::machine;
namespace ex = fxpar::exec;
namespace core = fxpar::core;
using fxpar::MachineConfig;
using fxpar::SubgroupSpec;

namespace {

MachineConfig threaded(int p) {
  auto c = MachineConfig::paragon(p);
  c.backend = ex::BackendKind::Threads;
  return c;
}

MachineConfig processes(int p) {
  auto c = MachineConfig::paragon(p);
  c.backend = ex::BackendKind::Proc;
  return c;
}

MachineConfig simulated(int p) {
  auto c = MachineConfig::paragon(p);
  c.stack_bytes = 256 * 1024;
  return c;
}

mx::Payload stamp(int rank, int round, std::size_t bytes) {
  mx::Payload p(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::byte>((rank * 31 + round * 7 + static_cast<int>(i)) & 0xff);
  }
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Threaded messaging
// ---------------------------------------------------------------------------

TEST(ExecThreads, RingMessagingDeliversStampedPayloads) {
  const int P = 4, rounds = 50;
  mx::Machine m(threaded(P));
  std::atomic<int> checked{0};
  m.run([&](mx::Context& ctx) {
    const int r = ctx.phys_rank();
    for (int k = 0; k < rounds; ++k) {
      ctx.send_phys((r + 1) % P, 7, stamp(r, k, 16 + static_cast<std::size_t>(k)));
      const mx::Payload got = ctx.recv_phys((r + P - 1) % P, 7);
      const mx::Payload want = stamp((r + P - 1) % P, k, 16 + static_cast<std::size_t>(k));
      ASSERT_EQ(got.size(), want.size());
      ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
          << "rank " << r << " round " << k;
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(checked.load(), P * rounds);
}

TEST(ExecThreads, ManyToOnePreservesPerSenderFifo) {
  const int P = 4, per_sender = 100;
  mx::Machine m(threaded(P));
  m.run([&](mx::Context& ctx) {
    const int r = ctx.phys_rank();
    if (r == 0) {
      // Drain senders in an order chosen by the receiver; each (src, tag)
      // stream must arrive in the sender's send order.
      for (int k = 0; k < per_sender; ++k) {
        for (int s = 1; s < P; ++s) {
          const mx::Payload got = ctx.recv_phys(s, static_cast<std::uint64_t>(s));
          const mx::Payload want = stamp(s, k, 8);
          ASSERT_EQ(got.size(), want.size());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
              << "sender " << s << " message " << k;
        }
      }
    } else {
      for (int k = 0; k < per_sender; ++k) {
        ctx.send_phys(0, static_cast<std::uint64_t>(r), stamp(r, k, 8));
      }
    }
  });
}

TEST(ExecThreads, RunResultReportsRealTime) {
  mx::Machine m(threaded(2));
  const auto res = m.run([&](mx::Context& ctx) {
    if (ctx.phys_rank() == 0) {
      ctx.send_phys(1, 1, mx::Payload(64));
    } else {
      ctx.recv_phys(0, 1);
    }
    ctx.barrier();
  });
  EXPECT_EQ(res.backend, "threads");
  EXPECT_GT(res.host_ms, 0.0);
  EXPECT_GT(res.finish_time, 0.0);  // real seconds, not modeled
  EXPECT_EQ(res.messages, 1u);
  EXPECT_EQ(res.bytes, 64u);
  EXPECT_EQ(res.barriers, 2u);  // per-member arrivals, as in the simulator
  // The report surfaces the real-time line only for non-sim backends.
  const std::string report = mx::utilization_report(res);
  EXPECT_NE(report.find("backend threads"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Subset barriers under nested TASK_PARTITIONs (both backends)
// ---------------------------------------------------------------------------

namespace {

// Sibling subgroups of a TASK_PARTITION must synchronize independently:
// "left" runs many barriers while "right" only exchanges messages. With a
// global (non-subset) barrier this would deadlock, because right's members
// never arrive at left's barriers. Nested partitions inside "left" check
// that grand-child groups are again independent.
void run_sibling_barrier_program(const MachineConfig& cfg, std::uint64_t* barriers_out) {
  mx::Machine m(cfg);
  std::atomic<int> left_done{0}, right_done{0};
  const auto res = m.run([&](mx::Context& ctx) {
    core::TaskPartition part(ctx, {{"left", 2}, {"right", 2}}, "split");
    core::TaskRegion region(ctx, part);
    region.on("left", [&] {
      for (int i = 0; i < 10; ++i) ctx.barrier();
      // Nested partition: each singleton synchronizes only with itself.
      core::TaskPartition inner(ctx, {{"a", 1}, {"b", 1}}, "inner");
      core::TaskRegion inner_region(ctx, inner);
      inner_region.on("a", [&] { ctx.barrier(); });
      inner_region.on("b", [&] { ctx.barrier(); });
      left_done.fetch_add(1, std::memory_order_relaxed);
    });
    region.on("right", [&] {
      const int v = ctx.group().virtual_of(ctx.phys_rank());
      if (v == 0) {
        ctx.send_phys(ctx.group().physical(1), 5, mx::Payload(4));
      } else {
        ctx.recv_phys(ctx.group().physical(0), 5);
      }
      right_done.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(left_done.load(), 2);
  EXPECT_EQ(right_done.load(), 2);
  if (barriers_out) *barriers_out = res.barriers;
}

}  // namespace

TEST(ExecBarriers, SiblingSubgroupsIndependentOnThreads) {
  std::uint64_t barriers = 0;
  run_sibling_barrier_program(threaded(4), &barriers);
  // 2 members x 10 barriers + 2 singleton barriers, plus whatever the
  // partition machinery itself adds — identical on both backends (below).
  EXPECT_GE(barriers, 22u);
}

TEST(ExecBarriers, SiblingSubgroupsIndependentOnSimulator) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  std::uint64_t barriers = 0;
  run_sibling_barrier_program(simulated(4), &barriers);
  EXPECT_GE(barriers, 22u);
}

TEST(ExecBarriers, BarrierCountMatchesAcrossBackends) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  std::uint64_t sim_barriers = 0, thr_barriers = 0;
  run_sibling_barrier_program(simulated(4), &sim_barriers);
  run_sibling_barrier_program(threaded(4), &thr_barriers);
  EXPECT_EQ(sim_barriers, thr_barriers);
}

// ---------------------------------------------------------------------------
// Counter parity with the simulator (satellite: concurrent counters)
// ---------------------------------------------------------------------------

namespace {

// A communication-heavy deterministic program: repeated redistributions
// between a row-block and a column-block layout drive messages, bytes,
// barriers and the redistribution plan cache on every processor.
mx::RunResult run_redistribution_program(const MachineConfig& cfg) {
  namespace ds = fxpar::dist;
  mx::Machine m(cfg);
  return m.run([&](mx::Context& ctx) {
    const auto& g = ctx.group();
    ds::DistArray<double> rows(
        ctx, ds::Layout(g, {16, 16}, {ds::DimDist::block(), ds::DimDist::collapsed()}),
        "rows");
    ds::DistArray<double> cols(
        ctx, ds::Layout(g, {16, 16}, {ds::DimDist::collapsed(), ds::DimDist::block()}),
        "cols");
    rows.fill([](std::span<const std::int64_t> gi) {
      return static_cast<double>(gi[0] * 100 + gi[1]);
    });
    for (int round = 0; round < 4; ++round) {
      ds::assign(ctx, cols, rows);
      ds::assign(ctx, rows, cols);
    }
    ctx.barrier();
  });
}

}  // namespace

TEST(ExecCounters, ThreadedTotalsMatchSimulator) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const auto sim_res = run_redistribution_program(simulated(4));
  const auto thr_res = run_redistribution_program(threaded(4));
  EXPECT_EQ(sim_res.messages, thr_res.messages);
  EXPECT_EQ(sim_res.bytes, thr_res.bytes);
  EXPECT_EQ(sim_res.barriers, thr_res.barriers);
  EXPECT_EQ(sim_res.plan_cache_hits, thr_res.plan_cache_hits);
  EXPECT_EQ(sim_res.plan_cache_misses, thr_res.plan_cache_misses);
  // The repeated rounds must actually hit the plan cache for this test to
  // exercise its concurrent lookup path.
  EXPECT_GT(thr_res.plan_cache_hits, 0u);
  EXPECT_GT(thr_res.plan_cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Failure handling
// ---------------------------------------------------------------------------

TEST(ExecThreads, AbortPropagatesFirstError) {
  mx::Machine m(threaded(4));
  EXPECT_THROW(
      {
        m.run([&](mx::Context& ctx) {
          if (ctx.phys_rank() == 2) {
            throw std::runtime_error("boom on rank 2");
          }
          // Everyone else blocks on a message that never comes; the abort
          // must wake them instead of hanging the join.
          ctx.recv_phys(2, 99);
        });
      },
      std::runtime_error);
}

// Messages still queued when a run aborts must be reclaimed when the
// Machine is destroyed, not only by the next run's reset (the ASan CI job
// enforces the no-leak part).
TEST(ExecThreads, AbortWithQueuedMessagesDoesNotLeak) {
  mx::Machine m(threaded(2));
  EXPECT_THROW(
      {
        m.run([&](mx::Context& ctx) {
          if (ctx.phys_rank() == 0) {
            ctx.send_phys(1, 1, stamp(0, 0, 8));
            for (int i = 0; i < 8; ++i) {
              ctx.send_phys(1, 2, stamp(0, i + 1, 4096));  // never received
            }
            ctx.recv_phys(1, 3);  // parks until the abort wakes it
          } else {
            ctx.recv_phys(0, 1);
            throw std::runtime_error("boom after first message");
          }
        });
      },
      std::runtime_error);
}

TEST(ExecThreads, DeadlockDetected) {
  mx::Machine m(threaded(2));
  EXPECT_THROW(
      {
        m.run([&](mx::Context& ctx) {
          if (ctx.phys_rank() == 0) {
            ctx.recv_phys(1, 3);  // rank 1 finishes without sending
          }
        });
      },
      fxpar::runtime::DeadlockError);
}

// Regression for a false DeadlockError: a deposit (or barrier release)
// delivered just before the sender's own park left the counters quiet
// while the woken worker was still scheduled out, so the quiescence check
// misread a valid program as a global wait cycle. quiescent() now also
// scans undrained inboxes and unconsumed barrier releases. This hammers
// exactly that pattern — deposit, then immediately block — plus full-group
// barriers, and must complete without throwing.
TEST(ExecThreads, NoFalseDeadlockUnderParkRaces) {
  const int P = 8, rounds = 400;
  mx::Machine m(threaded(P));
  m.run([&](mx::Context& ctx) {
    const int r = ctx.phys_rank();
    for (int i = 0; i < rounds; ++i) {
      ctx.send_phys((r + 1) % P, 7, stamp(r, i, 16));
      ctx.recv_phys((r + P - 1) % P, 7);
      if (i % 16 == 0) ctx.barrier();
    }
    ctx.barrier();
  });
}

namespace {

// Rank 0 waits for a message rank 1 never sends; returns the DeadlockError
// text ("" when the run did not deadlock).
std::string deadlock_message(const MachineConfig& cfg) {
  mx::Machine m(cfg);
  try {
    m.run([](mx::Context& ctx) {
      if (ctx.phys_rank() == 0) ctx.recv_phys(1, 3);
    });
  } catch (const fxpar::runtime::DeadlockError& e) {
    return e.what();
  }
  return "";
}

}  // namespace

// Both concurrent backends build the DeadlockError text with one function
// over the same per-rank state, so the same program reads identically.
TEST(ExecThreads, DeadlockTextIdenticalOnThreadsAndProc) {
  const std::string want = "deadlock: all processors blocked.\n  proc 0: recv\n  proc 1: finished";
  EXPECT_EQ(deadlock_message(threaded(2)), want);
  FXPAR_SKIP_PROC_UNDER_TSAN();
  EXPECT_EQ(deadlock_message(processes(2)), want);
}

// The process backend's monitor must apply the same quiescence rule as the
// threads: a barrier waiter whose episode was released while it was
// descheduled still reads "parked", but its release is a pending wakeup,
// not a deadlock. SIGSTOP makes that descheduling last 300 ms. Rank 1
// parks at a 2-rank barrier and is stopped; rank 0 then releases the
// barrier and parks in a receive from rank 1 — every rank parked, nothing
// in transit, no progress — until SIGCONT lets rank 1 leave and send.
TEST(ExecProc, StoppedBarrierWaiterIsNotADeadlock) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  // Mapped before run() so the forked rank 1 and the parent share it.
  void* mem = ::mmap(nullptr, sizeof(std::atomic<pid_t>), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  auto* pid_word = new (mem) std::atomic<pid_t>(0);
  struct Cleanup {
    std::thread resumer;
    void* mem;
    ~Cleanup() {
      if (resumer.joinable()) resumer.join();
      ::munmap(mem, sizeof(std::atomic<pid_t>));
    }
  } cleanup{{}, mem};

  mx::Machine m(processes(2));
  mx::Payload got;
  EXPECT_NO_THROW(m.run([&](mx::Context& ctx) {
    if (ctx.phys_rank() == 1) {
      pid_word->store(::getpid());
      ctx.barrier();
      ctx.send_phys(0, 9, stamp(1, 0, 32));
      return;
    }
    pid_t pid = 0;
    while ((pid = pid_word->load()) == 0) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // rank 1 parks
    ::kill(pid, SIGSTOP);
    cleanup.resumer = std::thread([pid] {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      ::kill(pid, SIGCONT);
    });
    ctx.barrier();  // the last arrival: releases the episode rank 1 is stopped in
    got = ctx.recv_phys(1, 9);
  }));
  EXPECT_EQ(got, stamp(1, 0, 32));
}

// ---------------------------------------------------------------------------
// Concurrent trace recording
// ---------------------------------------------------------------------------

TEST(ExecThreads, TraceRecordsMergeAfterConcurrentRun) {
  auto cfg = threaded(4);
  cfg.trace = true;
  mx::Machine m(cfg);
  const auto res = m.run([&](mx::Context& ctx) {
    auto span = ctx.span("work", "test");
    const int r = ctx.phys_rank();
    if (r == 0) {
      ctx.send_phys(1, 11, mx::Payload(32));
    } else if (r == 1) {
      ctx.recv_phys(0, 11);
    }
    ctx.barrier();
  });
  ASSERT_NE(res.trace, nullptr);
  // Every worker recorded its shard; the merge produced one coherent
  // timeline: the program root span + one "work" span per processor.
  int work_spans = 0;
  for (const auto& s : res.trace->spans()) {
    if (s.name == "work") ++work_spans;
  }
  EXPECT_EQ(work_spans, 4);
  ASSERT_EQ(res.trace->messages().size(), 1u);
  EXPECT_EQ(res.trace->messages()[0].src, 0);
  EXPECT_EQ(res.trace->messages()[0].dst, 1);
  ASSERT_EQ(res.trace->barriers().size(), 1u);
  EXPECT_EQ(res.trace->barriers()[0].procs.size(), 4u);
  // Concurrent spans carry real busy time (elapsed minus recorded waits),
  // not the zero a missing charge() would leave behind.
  double root_busy = 0.0;
  for (const auto& s : res.trace->spans()) {
    EXPECT_GE(s.busy, 0.0);
    EXPECT_LE(s.busy, s.duration() + 1e-9);
    if (s.depth == 0) root_busy += s.busy;
  }
  EXPECT_GT(root_busy, 0.0);
  double totals_busy = 0.0;
  for (const auto& t : res.trace->proc_totals()) totals_busy += t.busy;
  EXPECT_NEAR(totals_busy, root_busy, 1e-9);
  // The analyzers must accept the merged trace.
  EXPECT_FALSE(fxpar::trace::phase_report(*res.trace).to_string().empty());
  EXPECT_FALSE(fxpar::trace::critical_path(*res.trace).to_string().empty());
}

// No message carries trace state: the merge pairs each receive with its
// send by per-(source, tag) FIFO order alone.
TEST(ExecThreads, TraceMergePairsMessagesInFifoOrder) {
  auto cfg = threaded(4);
  cfg.trace = true;
  mx::Machine m(cfg);
  const auto res = m.run(fxtest::fifo_pairing_program);
  ASSERT_NE(res.trace, nullptr);
  fxtest::expect_fifo_pairing(*res.trace);
}

// ---------------------------------------------------------------------------
// Parallel loops: one static schedule on every backend
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kLoopN = 203;  // top-level loop: blocks of 51, 51, 51, 50
constexpr std::int64_t kLeftN = 101;  // "left" loops over [0, 101), "right" over [101, 203)

// Iteration i of a loop over [lo, hi), with an irregular cost: the first
// quarter of every loop is 32x heavier, so all of it lands in vrank 0's
// static block. Deterministic — the same arguments give the same bits.
double irregular_at(std::int64_t i, std::int64_t lo, std::int64_t hi) {
  const int rounds = (i - lo < (hi - lo) / 4 ? 32 : 1) * 100;
  double acc = static_cast<double>(i) * 1e-3;
  for (int r = 0; r < rounds; ++r) acc = std::fma(acc, 1.0000001, std::sin(acc) * 1e-3);
  return acc;
}

// One rank's record, as offsets into a vector of doubles: the value and
// the executing vrank of every iteration of the top-level loop, the same
// for its subgroup's loop, both do&merge sums, and its side of the split
// (0 = left, 1 = right). NaN values and -1 vranks mark iterations the rank
// did not run.
constexpr std::size_t kTopVal = 0;
constexpr std::size_t kTopWho = kTopVal + kLoopN;
constexpr std::size_t kSubVal = kTopWho + kLoopN;
constexpr std::size_t kSubWho = kSubVal + kLoopN;
constexpr std::size_t kTopSum = kSubWho + kLoopN;
constexpr std::size_t kSubSum = kTopSum + 1;
constexpr std::size_t kSide = kSubSum + 1;
constexpr std::size_t kRecLen = kSide + 1;

struct LoopParityRun {
  mx::RunResult res;
  std::vector<double> recs;  ///< kRecLen doubles per physical rank, rank-major
};

// An irregular parallel_for and an order-sensitive parallel_reduce, at the
// top level and inside both sides of a 2|2 TASK_PARTITION. On proc every
// rank writes its record in its own address space, so the records reach
// the test through a gather at rank 0 (the calling process on proc).
LoopParityRun run_loop_parity(const MachineConfig& cfg) {
  mx::Machine m(cfg);
  LoopParityRun out;
  out.res = m.run([&out](mx::Context& ctx) {
    std::vector<double> rec(kRecLen, std::numeric_limits<double>::quiet_NaN());
    std::fill_n(rec.begin() + kTopWho, kLoopN, -1.0);
    std::fill_n(rec.begin() + kSubWho, kLoopN, -1.0);
    const auto loops = [&ctx, &rec](std::int64_t lo, std::int64_t hi, std::size_t val,
                                    std::size_t who, std::size_t sum) {
      core::parallel_for(ctx, lo, hi, [&ctx, &rec, lo, hi, val, who](std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        rec[val + u] = irregular_at(i, lo, hi);
        rec[who + u] = ctx.vrank();
      });
      // A floating-point sum whose bits depend on the merge order.
      rec[sum] = core::parallel_reduce<double>(
          ctx, lo, hi, [](std::int64_t i) { return 1.0 / static_cast<double>(i + 1); },
          std::plus<double>{}, 0.0);
    };
    loops(0, kLoopN, kTopVal, kTopWho, kTopSum);
    {
      core::TaskPartition part(ctx, {{"left", 2}, {"right", 2}}, "loop-split");
      core::TaskRegion region(ctx, part);
      region.on("left", [&] {
        rec[kSide] = 0.0;
        loops(0, kLeftN, kSubVal, kSubWho, kSubSum);
      });
      region.on("right", [&] {
        rec[kSide] = 1.0;
        loops(kLeftN, kLoopN, kSubVal, kSubWho, kSubSum);
      });
    }
    std::vector<double> all = fxpar::comm::gather_vectors(ctx, ctx.group(), 0, rec);
    if (ctx.phys_rank() == 0) out.recs = std::move(all);
  });
  return out;
}

// The static schedule, checked against the host: every iteration of every
// loop ran exactly once, on the member whose exec::loop_block holds it (so
// never outside its subgroup), and produced its host-computed value; every
// member of a group holds the same do&merge sum.
void expect_static_schedule(const LoopParityRun& r, int procs) {
  ASSERT_EQ(r.recs.size(), static_cast<std::size_t>(procs) * kRecLen);
  const auto at = [&r](int rank, std::size_t k) {
    return r.recs[static_cast<std::size_t>(rank) * kRecLen + k];
  };
  const auto expect_loop = [&at](const std::vector<int>& ranks, std::int64_t lo,
                                 std::int64_t hi, std::size_t val, std::size_t who,
                                 std::size_t sum) {
    const int parts = static_cast<int>(ranks.size());
    double want_sum = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) want_sum += 1.0 / static_cast<double>(i + 1);
    for (int v = 0; v < parts; ++v) {
      const int rank = ranks[static_cast<std::size_t>(v)];
      const auto [first, last] = ex::loop_block(lo, hi, parts, v);
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto u = static_cast<std::size_t>(i);
        if (first <= i && i < last) {
          ASSERT_EQ(at(rank, who + u), static_cast<double>(v)) << "iteration " << i;
          ASSERT_EQ(at(rank, val + u), irregular_at(i, lo, hi)) << "iteration " << i;
        } else {
          ASSERT_EQ(at(rank, who + u), -1.0) << "iteration " << i << " on rank " << rank;
        }
      }
      EXPECT_EQ(at(rank, sum), at(ranks[0], sum)) << "rank " << rank;
      EXPECT_NEAR(at(rank, sum), want_sum, 1e-12);
    }
  };
  std::vector<int> all, left, right;
  for (int p = 0; p < procs; ++p) {
    all.push_back(p);
    (at(p, kSide) == 0.0 ? left : right).push_back(p);
  }
  ASSERT_EQ(left.size(), 2u);
  ASSERT_EQ(right.size(), 2u);
  expect_loop(all, 0, kLoopN, kTopVal, kTopWho, kTopSum);
  expect_loop(left, 0, kLeftN, kSubVal, kSubWho, kSubSum);
  expect_loop(right, kLeftN, kLoopN, kSubVal, kSubWho, kSubSum);
}

}  // namespace

// Data parallel loops run the static block schedule on every backend, so
// the loop outputs, the order-sensitive reductions and the executing ranks
// are bitwise equal on sim, threads, proc-shm and proc-tcp, and so are the
// message, byte and barrier counts. Under TSan only the threads leg runs
// (sim fibers and fork-per-rank are not TSan-compatible).
TEST(ExecLoopParity, IrregularLoopsMatchOnAllFourBackends) {
  constexpr int P = 4;
  const LoopParityRun thr = run_loop_parity(threaded(P));
  expect_static_schedule(thr, P);
#ifndef FXPAR_TSAN
  auto tcp = processes(P);
  tcp.transport = ex::TransportKind::Tcp;
  const std::pair<const char*, MachineConfig> legs[] = {
      {"sim", simulated(P)}, {"proc-shm", processes(P)}, {"proc-tcp", tcp}};
  for (const auto& [name, cfg] : legs) {
    const LoopParityRun r = run_loop_parity(cfg);
    ASSERT_EQ(r.recs.size(), thr.recs.size()) << name;
    EXPECT_EQ(std::memcmp(r.recs.data(), thr.recs.data(), thr.recs.size() * sizeof(double)), 0)
        << name << " differs from threads";
    EXPECT_EQ(r.res.messages, thr.res.messages) << name;
    EXPECT_EQ(r.res.bytes, thr.res.bytes) << name;
    EXPECT_EQ(r.res.barriers, thr.res.barriers) << name;
  }
#endif
}

// ---------------------------------------------------------------------------
// I/O blocked-time accounting (satellite)
// ---------------------------------------------------------------------------

// Only time spent *waiting for the device lock* is blocked time. A single
// worker can never contend, so a run that is pure io must report zero real
// wait and zero block events — before the fix, the whole io critical
// section was charged as wait.
TEST(ExecThreads, UncontendedIoChargesNoWait) {
  mx::Machine m(threaded(1));
  const auto res = m.run([](mx::Context& ctx) {
    for (int i = 0; i < 16; ++i) ctx.io(std::size_t{1} << 12);
  });
  EXPECT_EQ(res.wait_ms, 0.0);
  ASSERT_EQ(res.clocks.size(), 1u);
  EXPECT_EQ(res.clocks[0].blocks, 0u);
}

// ---------------------------------------------------------------------------
// Group-key collision hardening (satellite)
// ---------------------------------------------------------------------------

// The barrier registry keys entries on the group's 64-bit content hash.
// Two distinct groups colliding on that key would silently share a
// TreeBarrier of the wrong shape; the registry stores the registering
// member list and fails loudly on mismatch. A real FNV-1a collision can't
// be forged from small member lists, so the guard is exercised directly.
TEST(ExecBarriers, GroupKeyCollisionFailsLoudly) {
  const fxpar::pgroup::ProcessorGroup g({0, 1, 2, 3});
  EXPECT_NO_THROW(fxpar::pgroup::check_group_key_match(g.members(), g, "barrier"));
  EXPECT_THROW(fxpar::pgroup::check_group_key_match({0, 1}, g, "barrier"),
               std::logic_error);
  EXPECT_THROW(fxpar::pgroup::check_group_key_match({0, 1, 2, 5}, g, "barrier"),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Config plumbing
// ---------------------------------------------------------------------------

TEST(ExecSeam, SimAccessorThrowsOnThreadedBackend) {
  mx::Machine m(threaded(2));
  EXPECT_THROW(m.sim(), std::logic_error);
}

TEST(ExecSeam, BackendKindNames) {
  EXPECT_STREQ(ex::backend_kind_name(ex::BackendKind::Sim), "sim");
  EXPECT_STREQ(ex::backend_kind_name(ex::BackendKind::Threads), "threads");
  EXPECT_STREQ(ex::backend_kind_name(ex::BackendKind::Proc), "proc");
}

// ---------------------------------------------------------------------------
// The shared runtime core (exec/rank_core.hpp)
// ---------------------------------------------------------------------------

// Messages interleaved across sources and tags come out per-(src, tag)
// FIFO, whatever order the receiver asks for the keys in.
TEST(ExecSeam, MailStoreKeepsPerKeyFifoUnderInterleaving) {
  ex::MailStore<int> box;
  const int srcs = 3, tags = 2, per_key = 5;
  for (int k = 0; k < per_key; ++k) {
    for (int s = 0; s < srcs; ++s) {
      for (int t = 0; t < tags; ++t) {
        box.push(ex::MailKey{s, std::uint64_t(t)}, 100 * s + 10 * t + k);
      }
    }
  }
  EXPECT_EQ(box.size(), std::size_t(srcs * tags * per_key));
  EXPECT_FALSE(box.pop(ex::MailKey{srcs, 0}).has_value());
  for (int t = tags - 1; t >= 0; --t) {
    for (int k = 0; k < per_key; ++k) {
      for (int s = srcs - 1; s >= 0; --s) {
        const auto m = box.pop(ex::MailKey{s, std::uint64_t(t)});
        ASSERT_TRUE(m.has_value());
        EXPECT_EQ(*m, 100 * s + 10 * t + k) << "src " << s << " tag " << t;
      }
    }
    EXPECT_FALSE(box.pop(ex::MailKey{0, std::uint64_t(t)}).has_value());
  }
  EXPECT_EQ(box.size(), 0u);
}

// The single deadlock rule over synthetic per-rank state. Token 1 names a
// barrier whose released-episode count the test controls.
TEST(ExecSeam, QuiescenceRuleVerdicts) {
  constexpr int P = 3;
  auto ranks = std::make_unique<ex::RankLive[]>(P);
  const std::span<const ex::RankLive> view(ranks.get(), P);
  const std::uint64_t snapshot = 7;
  std::uint64_t progress = snapshot;
  bool in_transit = false;
  std::uint64_t released = 0;
  const auto deadlocked = [&] {
    return ex::quiescent(
        view, snapshot, [&] { return progress; }, [&](int) { return in_transit; },
        [&](std::uint64_t token, std::uint64_t episode) {
          return token == 1 && released >= episode;
        });
  };
  // Ranks 0 and 1 parked in recv, rank 2 at barrier episode 1.
  for (int r = 0; r < P; ++r) {
    ranks[r].parked.store(1);
    ranks[r].reason.store(r == 2 ? ex::BlockReason::Barrier : ex::BlockReason::Recv);
  }
  ranks[2].await_episode.store(1);
  ranks[2].await_token.store(1);
  EXPECT_TRUE(deadlocked());

  released = 1;  // released, but the (descheduled) waiter has not left yet
  EXPECT_FALSE(deadlocked());
  released = 0;

  in_transit = true;  // a frame on its way wakes its receiver
  EXPECT_FALSE(deadlocked());
  in_transit = false;

  progress = snapshot + 1;  // something moved since the snapshot
  EXPECT_FALSE(deadlocked());
  progress = snapshot;

  ranks[1].parked.store(0);  // a running rank can still unblock the others
  EXPECT_FALSE(deadlocked());
  ranks[1].parked.store(1);

  ranks[0].done.store(1);  // finished ranks never wake anyone
  EXPECT_TRUE(deadlocked());
  EXPECT_EQ(ex::deadlock_text(view),
            "deadlock: all processors blocked.\n  proc 0: finished\n  proc 1: recv\n"
            "  proc 2: barrier");

  for (int r = 0; r < P; ++r) ranks[r].done.store(1);  // normal completion
  EXPECT_FALSE(deadlocked());
}
