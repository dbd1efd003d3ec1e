// Tests for the process backend across runs of one Machine: the transport
// (shm rings or the TCP mesh) outlives every run and is reset at the next
// run's start, so whatever a run leaves behind — an unreceived message, a
// streamed frame cut off by an exception or a killed child — must never
// reach the next run. Also: sends to a rank that already finished, the
// child-death diagnostics, that many runs hold descriptors and mappings
// steady, and that instrumentation recorded in forked ranks reaches the
// parent.
//
// Every test forks; fork-per-rank is incompatible with ThreadSanitizer, so
// all of them self-skip under TSan.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/ffthist.hpp"
#include "apps/stream_pipeline.hpp"
#include "comm/collectives.hpp"
#include "dist/redistribute.hpp"
#include "fifo_pairing.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"

#if defined(__SANITIZE_THREAD__)
#define FXPAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FXPAR_TSAN 1
#endif
#endif

#ifdef FXPAR_TSAN
#define FXPAR_SKIP_PROC_UNDER_TSAN() \
  GTEST_SKIP() << "fork-per-rank backend is incompatible with ThreadSanitizer"
#else
#define FXPAR_SKIP_PROC_UNDER_TSAN() (void)0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define FXPAR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FXPAR_ASAN 1
#endif
#endif

namespace ap = fxpar::apps;
namespace ds = fxpar::dist;
namespace ex = fxpar::exec;
namespace mx = fxpar::machine;
namespace obs = fxpar::obs;
using fxpar::MachineConfig;

namespace {

constexpr int kP = 4;
const ex::TransportKind kTransports[] = {ex::TransportKind::Shm, ex::TransportKind::Tcp};

MachineConfig processes(ex::TransportKind transport) {
  auto c = MachineConfig::paragon(kP);
  c.backend = ex::BackendKind::Proc;
  c.transport = transport;
  return c;
}

const char* name(ex::TransportKind t) { return ex::transport_kind_name(t); }

mx::Payload stamp(int rank, int round, std::size_t bytes) {
  mx::Payload p(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::byte>((rank * 31 + round * 7 + static_cast<int>(i % 251)) & 0xff);
  }
  return p;
}

/// A regression of a send that never returns would hang the suite; the
/// alarm turns it into a prompt failure instead. Forked ranks do not
/// inherit the pending alarm.
struct HangGuard {
  explicit HangGuard(unsigned seconds) { ::alarm(seconds); }
  ~HangGuard() { ::alarm(0); }
};

/// Runs `program` on `m`, reporting (rather than swallowing) any error.
void expect_run_ok(mx::Machine& m, const std::function<void(mx::Context&)>& program,
                   const std::string& what) {
  try {
    m.run(program);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
}

/// Expects `program` to fail with a runtime_error whose text contains every
/// string in `needles`.
void expect_run_fails(mx::Machine& m, const std::function<void(mx::Context&)>& program,
                      const std::vector<std::string>& needles, const std::string& what) {
  try {
    m.run(program);
    ADD_FAILURE() << what << ": run returned normally";
  } catch (const std::runtime_error& e) {
    for (const auto& n : needles) {
      EXPECT_NE(std::string(e.what()).find(n), std::string::npos)
          << what << ": error text lacks '" << n << "': " << e.what();
    }
  }
}

/// Every rank sends a 400 KB payload tagged `round` to its successor and
/// checks that the one it receives is exactly its predecessor's for this
/// round. A mismatch throws inside the rank, which fails the run.
void ring_round(mx::Machine& m, int round, const std::string& what) {
  constexpr std::size_t kBytes = 400'000;
  expect_run_ok(
      m,
      [round](mx::Context& ctx) {
        const int r = ctx.phys_rank();
        const int succ = (r + 1) % kP;
        const int pred = (r + kP - 1) % kP;
        ctx.send_phys(succ, static_cast<std::uint64_t>(round), stamp(r, round, kBytes));
        const auto got = ctx.recv_phys(pred, static_cast<std::uint64_t>(round));
        if (got != stamp(pred, round, kBytes)) {
          throw std::runtime_error("rank " + std::to_string(r) + " round " +
                                   std::to_string(round) + ": received " +
                                   std::to_string(got.size()) +
                                   " bytes that are not this round's payload");
        }
      },
      what + ", clean round " + std::to_string(round));
}

/// The FFT-Hist data parallel program of the parity sweep, on `m`.
std::vector<std::vector<std::int64_t>> ffthist_dp(mx::Machine& m) {
  ap::FftHistConfig cfg;
  cfg.n = 16;
  cfg.bins = 8;
  cfg.num_sets = 6;
  std::vector<std::vector<std::int64_t>> sink;
  const auto stages = ap::ffthist_stages(cfg, &sink);
  ap::run_stream_pipeline_on<ap::Complex>(m, stages, {{0, 2, kP, 1}}, cfg.num_sets);
  return sink;
}

std::vector<std::vector<std::int64_t>> ffthist_dp_sim() {
  auto cfg = MachineConfig::paragon(kP);
  cfg.stack_bytes = 256 * 1024;
  mx::Machine m(cfg);
  return ffthist_dp(m);
}

/// After a run that lost a child: no child is left unreaped, and the same
/// Machine still runs a real program bit-identically to the simulator.
void expect_machine_recovered(mx::Machine& m, const std::string& what) {
  int st = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &st, WNOHANG), -1) << what << ": a child is still unreaped";
  EXPECT_EQ(errno, ECHILD) << what;
  const auto want = ffthist_dp_sim();
  const auto got = ffthist_dp(m);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_FALSE(want[k].empty()) << what;
    EXPECT_EQ(got[k], want[k]) << what << ": data set " << k;
  }
}

std::size_t fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

std::size_t maps_lines() {
  std::ifstream in("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) ++n;
  return n;
}

/// /dev/shm entries named by this process's ShmTransports ("fx.<pid>.<seq>").
/// Scoped to this pid: concurrent test processes create (and at once
/// unlink) their own.
std::vector<std::string> own_shm_entries() {
  std::vector<std::string> out;
  const std::string prefix = "fx." + std::to_string(::getpid()) + ".";
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/dev/shm", ec)) {
    const std::string n = e.path().filename().string();
    if (n.rfind(prefix, 0) == 0) out.push_back(n);
  }
  return out;
}

}  // namespace

// Rank 1 deposits two 1.6 MB payloads to rank 2, which finishes without
// receiving them. Each is larger than a shm ring, so the first blocks on a
// full ring nobody will drain again; the send must give up once rank 2
// reports done, and the deposits still count, exactly as on threads.
TEST(ExecProc, SendToFinishedRankCompletes) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(120);
  const auto program = [](mx::Context& ctx) {
    if (ctx.phys_rank() == 1) {
      ctx.send_phys(2, 1, stamp(1, 1, 1'600'000));
      ctx.send_phys(2, 2, stamp(1, 2, 1'600'000));
    }
  };
  auto thr_cfg = MachineConfig::paragon(kP);
  thr_cfg.backend = ex::BackendKind::Threads;
  mx::Machine thr(thr_cfg);
  const auto want = thr.run(program);
  EXPECT_EQ(want.messages, 2u);
  for (const auto t : kTransports) {
    mx::Machine m(processes(t));
    mx::RunResult got;
    ASSERT_NO_THROW(got = m.run(program)) << name(t);
    EXPECT_EQ(got.messages, want.messages) << name(t);
    EXPECT_EQ(got.bytes, want.bytes) << name(t);
    ring_round(m, 0, name(t));  // and the transport is clean afterwards
  }
}

// No Data frame carries trace state: the trace merge pairs each receive
// with its send by FIFO order alone, on both transports. One message is
// empty, and one is never received.
TEST(ExecProc, TraceMergePairsMessagesInFifoOrder) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(120);
  for (const auto t : kTransports) {
    SCOPED_TRACE(name(t));
    auto cfg = processes(t);
    cfg.trace = true;
    mx::Machine m(cfg);
    mx::RunResult res;
    ASSERT_NO_THROW(res = m.run(fxtest::fifo_pairing_program));
    ASSERT_NE(res.trace, nullptr);
    fxtest::expect_fifo_pairing(*res.trace);
  }
}

// Three ways a run can leave frames behind, each followed by a clean run
// on the same Machine whose every payload is checked against its round.
// The leftovers use the very (source, tag) the clean run receives next, so
// any stale byte that survived the reset would be matched.
TEST(ExecProc, NextRunSeesNoStaleFrames) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(240);
  // Larger than a 1 MiB shm ring and far above one 256 KiB piece: the
  // sender is mid-frame when its receiver goes away.
  constexpr std::size_t kBig = 1'600'000;
  for (const auto t : kTransports) {
    const std::string tn = name(t);
    mx::Machine m(processes(t));
    int round = 0;
    ring_round(m, round++, tn + " first run");

    // (a) The receiver throws, (b) it is killed, while a streamed frame is
    // in flight to it.
    struct Loss {
      const char* label;
      bool kill;
      std::vector<std::string> needles;
    };
    for (const Loss& loss : {Loss{"(a)", false, {"receiver gave up"}},
                             Loss{"(b)", true, {"rank 2", "signal 9"}}}) {
      const int tag = round;
      expect_run_fails(
          m,
          [tag, kill = loss.kill](mx::Context& ctx) {
            if (ctx.phys_rank() == 1) {
              ctx.send_phys(2, 900, stamp(1, 900, 64));
              ctx.send_phys(2, static_cast<std::uint64_t>(tag), stamp(9, 9, kBig));
            } else if (ctx.phys_rank() == 2) {
              (void)ctx.recv_phys(1, 900);  // rank 1 is now on the big frame
              ::usleep(20'000);
              if (kill) ::raise(SIGKILL);
              throw std::runtime_error("receiver gave up");
            } else {
              ctx.barrier();  // unwound by the abort
            }
          },
          loss.needles, tn + " " + loss.label);
      ring_round(m, round++, tn + " after " + loss.label);
    }

    // (c) A clean run leaves one small message per rank unreceived. The
    // barrier keeps every receiver alive until its message has landed.
    const int c_tag = round;
    expect_run_ok(
        m,
        [c_tag](mx::Context& ctx) {
          const int r = ctx.phys_rank();
          ctx.send_phys((r + 1) % kP, static_cast<std::uint64_t>(c_tag), stamp(9, 9, 4096));
          ctx.barrier();
        },
        tn + " (c)");
    ring_round(m, round++, tn + " after (c)");
  }
}

TEST(ExecProc, ChildKilledBySignalNamesRankAndSignal) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(120);
  for (const auto t : kTransports) {
    mx::Machine m(processes(t));
    expect_run_fails(
        m,
        [](mx::Context& ctx) {
          if (ctx.phys_rank() == 2) ::raise(SIGKILL);
          ctx.barrier();
        },
        {"rank 2", "killed by signal 9"}, name(t));
    expect_machine_recovered(m, name(t));
  }
}

TEST(ExecProc, ChildExitBeforeDoneNamesStatus) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(120);
  for (const auto t : kTransports) {
    mx::Machine m(processes(t));
    expect_run_fails(
        m,
        [](mx::Context& ctx) {
          if (ctx.phys_rank() == 3) std::_Exit(7);
          ctx.barrier();
        },
        {"rank 3", "exited with status 7"}, name(t));
    expect_machine_recovered(m, name(t));
  }
}

// A persistent transport must not grow per run: after the first run has
// built it, 299 more leave the descriptor table and the mapping list
// exactly as they were.
TEST(ExecProc, ManyRunsHoldFdsAndMappingsSteady) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(240);
  for (const auto t : kTransports) {
    mx::Machine m(processes(t));
    const auto empty = [](mx::Context&) {};
    m.run(empty);
    const std::size_t fds = fd_count();
    const std::size_t maps = maps_lines();
    for (int i = 1; i < 300; ++i) m.run(empty);
    EXPECT_EQ(fd_count(), fds) << name(t);
#ifndef FXPAR_ASAN
    // ASan's allocator maps (and merges) regions on its own schedule while
    // its quarantine fills, so the mapping count only holds without it.
    EXPECT_EQ(maps_lines(), maps) << name(t);
#else
    (void)maps;
#endif
  }
  EXPECT_TRUE(own_shm_entries().empty());
}

// ---------------------------------------------------------------------------
// Instrumentation through the probe, across backends and the fork

namespace {

/// Rank 1 receives one message sent before a shared barrier, then one sent
/// well after it posted the receive.
void queued_then_awaited(mx::Context& ctx) {
  if (ctx.phys_rank() == 0) {
    ctx.send_phys(1, 1, stamp(0, 1, 8));
    ctx.barrier();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ctx.send_phys(1, 2, stamp(0, 2, 8));
  } else {
    ctx.barrier();
    (void)ctx.recv_phys(0, 1);
    (void)ctx.recv_phys(0, 2);
  }
}

/// Point-to-point messages, a collective, a redistribution (twice, so the
/// plan cache hits), a singleton-group barrier and an I/O operation.
void every_service(mx::Context& ctx) {
  const int r = ctx.phys_rank();
  const int p = ctx.nprocs();
  ctx.send_phys((r + 1) % p, 7, stamp(r, 0, 64));
  (void)ctx.recv_phys((r + p - 1) % p, 7);
  (void)fxpar::comm::allreduce(ctx, ctx.group(), 1.0, [](double a, double b) { return a + b; });
  const auto g = ctx.group();
  ds::DistArray<double> a(ctx, ds::Layout(g, {64}, {ds::DimDist::block()}), "a");
  ds::DistArray<double> b(ctx, ds::Layout(g, {64}, {ds::DimDist::cyclic()}), "b");
  a.fill([](std::span<const std::int64_t> gi) { return static_cast<double>(gi[0]); });
  ds::assign(ctx, b, a);
  ds::assign(ctx, b, a);
  ctx.barrier(fxpar::pgroup::ProcessorGroup({r}));
  ctx.io(128);
  ctx.barrier();
}

}  // namespace

// A receive whose message was already queued when it was posted records no
// wait, in the trace or in the recv-wait histogram (it observes 0); the one
// that had to wait for its send records exactly one trace wait, caused by
// that send.
TEST(Probe, QueuedReceiveRecordsNoWait) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(60);
  auto threads = MachineConfig::paragon(2);
  threads.backend = ex::BackendKind::Threads;
  auto shm = processes(ex::TransportKind::Shm);
  shm.num_procs = 2;
  for (MachineConfig cfg : {threads, shm}) {
    SCOPED_TRACE(ex::backend_kind_name(cfg.backend));
    cfg.trace = true;
    mx::Machine m(cfg);
    mx::RunResult res;
    ASSERT_NO_THROW(res = m.run(queued_then_awaited));
    ASSERT_NE(res.trace, nullptr);
    int recv_waits = 0;
    for (const auto& w : res.trace->waits()) {
      if (w.kind != fxpar::trace::WaitKind::Recv) continue;
      ++recv_waits;
      EXPECT_EQ(w.proc, 1);
      EXPECT_EQ(w.cause_proc, 0);
      ASSERT_GE(w.ref, 1u);
      EXPECT_EQ(res.trace->messages()[w.ref - 1].tag, 2u) << "caused by the second send";
    }
    EXPECT_EQ(recv_waits, 1);
    ASSERT_NE(res.metrics, nullptr);
    const auto& h = res.metrics->histograms.at("fxpar_comm_recv_wait_seconds");
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.buckets[0], 1u) << "the queued receive observes 0";
  }
}

// Counters and events recorded in forked ranks reach the parent: the same
// program yields the same metric totals on all four engines, and the
// parent's flight recorder holds every rank's sends, receives and barriers.
TEST(Probe, InstrumentationSurvivesTheFork) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(120);
  auto sim = MachineConfig::paragon(kP);
  auto threads = sim;
  threads.backend = ex::BackendKind::Threads;
  const std::vector<std::pair<std::string, MachineConfig>> engines = {
      {"sim", sim},
      {"threads", threads},
      {"proc-shm", processes(ex::TransportKind::Shm)},
      {"proc-tcp", processes(ex::TransportKind::Tcp)}};
  // Plan-cache hits and misses split differently on proc, where each rank
  // looks up its own copy of the cache; lookups (hits + misses) agree.
  const auto totals = [](const fxpar::metrics::Snapshot& s) {
    std::map<std::string, std::uint64_t> t;
    for (const char* c : {"fxpar_comm_messages_total", "fxpar_comm_message_bytes_total",
                          "fxpar_sync_barriers_total", "fxpar_io_operations_total"}) {
      t[c] = s.counter(c);
    }
    t["redist plan lookups"] = s.counter("fxpar_dist_plan_cache_hits_total") +
                               s.counter("fxpar_dist_plan_cache_misses_total");
    t["collective plan lookups"] = s.counter("fxpar_comm_collective_plan_hits_total") +
                                   s.counter("fxpar_comm_collective_plan_misses_total");
    for (const auto& [name, h] : s.histograms) t[name + " observations"] = h.count;
    return t;
  };
  std::map<std::string, std::uint64_t> want;
  for (auto [label, cfg] : engines) {
    SCOPED_TRACE(label);
    cfg.flight_recorder = true;
    mx::Machine m(cfg);
    mx::RunResult res;
    ASSERT_NO_THROW(res = m.run(every_service));
    ASSERT_NE(res.metrics, nullptr);
    const auto got = totals(*res.metrics);
    if (want.empty()) {
      want = got;
      EXPECT_EQ(want["fxpar_io_operations_total"], static_cast<std::uint64_t>(kP));
      EXPECT_GT(want["redist plan lookups"], 0u);
      EXPECT_GT(want["collective plan lookups"], 0u);
    } else {
      EXPECT_EQ(got, want);
    }
    ASSERT_NE(m.flight(), nullptr);
    std::set<std::pair<int, obs::FlightKind>> seen;
    for (const auto& e : m.flight()->snapshot()) seen.emplace(e.proc, e.kind);
    for (int r = 0; r < kP; ++r) {
      for (const auto k : {obs::FlightKind::Message, obs::FlightKind::Recv,
                           obs::FlightKind::Barrier, obs::FlightKind::Io}) {
        EXPECT_TRUE(seen.count({r, k})) << "rank " << r << " " << obs::flight_kind_name(k);
      }
    }
  }
}

// RunResult's plan-cache lookups count a forked rank's lookups too, with the
// metrics registry on or off: the counts ride in the child's residue, so
// proc reports what threads reports.
TEST(Probe, RunResultCountersSurviveTheFork) {
  FXPAR_SKIP_PROC_UNDER_TSAN();
  const HangGuard guard(120);
  auto threads = MachineConfig::paragon(kP);
  threads.backend = ex::BackendKind::Threads;
  const std::vector<std::pair<std::string, MachineConfig>> engines = {
      {"threads", threads},
      {"proc-shm", processes(ex::TransportKind::Shm)},
      {"proc-tcp", processes(ex::TransportKind::Tcp)}};
  for (const bool metrics : {true, false}) {
    std::pair<std::uint64_t, std::uint64_t> want;
    for (auto [label, cfg] : engines) {
      SCOPED_TRACE(label + (metrics ? ", metrics on" : ", metrics off"));
      cfg.metrics = metrics;
      mx::Machine m(cfg);
      mx::RunResult res;
      ASSERT_NO_THROW(res = m.run(every_service));
      const std::pair<std::uint64_t, std::uint64_t> lookups{
          res.plan_cache_hits + res.plan_cache_misses,
          res.collective_plan_hits + res.collective_plan_misses};
      if (label == "threads") {
        want = lookups;
        EXPECT_EQ(want.first, 2u * kP) << "two redistributions on every rank";
        EXPECT_GT(want.second, 0u);
      } else {
        EXPECT_EQ(lookups, want);
      }
    }
  }
}
