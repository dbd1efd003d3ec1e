// Tests for the structured event tracer: span nesting, disabled-tracing
// no-ops, machine-driven event capture, chrome trace export (validated with
// a mini JSON parser), the phase report, and the critical-path analyzer on
// a hand-built two-processor send/receive log.
#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <string>

#include "apps/ffthist.hpp"
#include "apps/stream_pipeline.hpp"
#include "core/fx.hpp"
#include "fifo_pairing.hpp"
#include "json_checker.hpp"
#include "trace/chrome_export.hpp"
#include "trace/critical_path.hpp"
#include "trace/phase_report.hpp"
#include "trace/trace.hpp"

namespace mx = fxpar::machine;
namespace tr = fxpar::trace;

namespace {

mx::MachineConfig test_config(int p) {
  mx::MachineConfig c;
  c.num_procs = p;
  c.send_overhead = 1.0;
  c.recv_overhead = 2.0;
  c.latency = 10.0;
  c.byte_time = 0.5;
  c.barrier_base = 1.0;
  c.barrier_stage = 1.0;
  c.io_latency = 100.0;
  c.io_byte_time = 1.0;
  c.stack_bytes = 128 * 1024;
  c.trace = true;
  return c;
}

}  // namespace

TEST(Trace, SpanNestingAndTiming) {
  tr::TraceRecorder rec(1);
  double t = 0.0;
  rec.set_clock([&](int) { return t; });

  rec.begin_span(0, "outer", "test");
  EXPECT_EQ(rec.open_depth(0), 1);
  t = 1.0;
  rec.begin_span(0, "inner", "test");
  EXPECT_EQ(rec.open_depth(0), 2);
  rec.add_busy(0, 2.0);
  t = 3.0;
  rec.end_span(0);
  EXPECT_EQ(rec.open_depth(0), 1);
  t = 4.0;
  rec.end_span(0);
  EXPECT_EQ(rec.open_depth(0), 0);
  rec.finalize(4.0);

  ASSERT_EQ(rec.spans().size(), 2u);
  // Sorted by (proc, t0, depth): outer first.
  const tr::Span& outer = rec.spans()[0];
  const tr::Span& inner = rec.spans()[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_DOUBLE_EQ(outer.t0, 0.0);
  EXPECT_DOUBLE_EQ(outer.t1, 4.0);
  EXPECT_DOUBLE_EQ(outer.busy, 2.0);  // inclusive: inner busy counts here too
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_DOUBLE_EQ(inner.t0, 1.0);
  EXPECT_DOUBLE_EQ(inner.t1, 3.0);
  EXPECT_DOUBLE_EQ(inner.busy, 2.0);
}

TEST(Trace, FinalizeClosesOpenSpans) {
  tr::TraceRecorder rec(2);
  double t = 0.0;
  rec.set_clock([&](int) { return t; });
  rec.begin_span(0, "left-open", "test");
  t = 5.0;
  rec.finalize(7.5);
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.spans()[0].t1, 7.5);
  EXPECT_DOUBLE_EQ(rec.finish_time(), 7.5);
  EXPECT_EQ(rec.open_depth(0), 0);
}

TEST(Trace, ScopedSpanIsInertWhenDefaultConstructed) {
  tr::ScopedSpan inert;  // no recorder attached: all operations are no-ops
  inert.close();

  tr::TraceRecorder rec(1);
  rec.set_clock([](int) { return 0.0; });
  {
    tr::ScopedSpan sp(&rec, 0);
    rec.begin_span(0, "scoped", "test");
    tr::ScopedSpan moved = std::move(sp);
    moved.close();
    moved.close();  // idempotent
    EXPECT_EQ(rec.open_depth(0), 0);
  }
}

TEST(Trace, DisabledTracingIsNoOp) {
  mx::MachineConfig cfg = test_config(2);
  cfg.trace = false;
  mx::Machine m(cfg);
  EXPECT_EQ(m.tracer(), nullptr);
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    // ctx.span must be inert, not crash, when tracing is off.
    auto sp = ctx.span("unused", "test");
    ctx.charge(1.0);
    ctx.barrier(ctx.group());
  });
  EXPECT_EQ(res.trace, nullptr);

  // Tracing never changes modeled time: same program, traced, same clock.
  mx::Machine traced(test_config(2));
  const mx::RunResult res2 = traced.run([](mx::Context& ctx) {
    auto sp = ctx.span("unused", "test");
    ctx.charge(1.0);
    ctx.barrier(ctx.group());
  });
  ASSERT_NE(res2.trace, nullptr);
  EXPECT_DOUBLE_EQ(res2.finish_time, res.finish_time);
}

TEST(Trace, MachineRunRecordsMessageEdges) {
  mx::Machine m(test_config(2));
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    if (ctx.phys_rank() == 0) {
      ctx.send_phys(1, 7, mx::Payload(4));  // busy [0,3], arrival 13
    } else {
      (void)ctx.recv_phys(0, 7);
    }
  });
  ASSERT_NE(res.trace, nullptr);
  const tr::TraceRecorder& rec = *res.trace;

  ASSERT_EQ(rec.messages().size(), 1u);
  const tr::MessageRecord& msg = rec.messages()[0];
  EXPECT_EQ(msg.src, 0);
  EXPECT_EQ(msg.dst, 1);
  EXPECT_EQ(msg.bytes, 4u);
  EXPECT_DOUBLE_EQ(msg.send_t0, 0.0);
  EXPECT_DOUBLE_EQ(msg.send_t1, 3.0);
  EXPECT_DOUBLE_EQ(msg.recv_t, 13.0);

  // The receiver's stall is one recv wait [0, 13] caused by the send end.
  ASSERT_EQ(rec.waits().size(), 1u);
  const tr::Wait& w = rec.waits()[0];
  EXPECT_EQ(w.kind, tr::WaitKind::Recv);
  EXPECT_EQ(w.proc, 1);
  EXPECT_DOUBLE_EQ(w.t0, 0.0);
  EXPECT_DOUBLE_EQ(w.t1, 13.0);
  EXPECT_EQ(w.cause_proc, 0);
  EXPECT_DOUBLE_EQ(w.cause_time, 3.0);

  EXPECT_DOUBLE_EQ(rec.proc_totals()[1].recv_wait, 13.0);
}

TEST(Trace, MergePairsMessagesInFifoOrder) {
  auto cfg = mx::MachineConfig::paragon(4);
  cfg.trace = true;
  mx::Machine m(cfg);
  const mx::RunResult res = m.run(fxtest::fifo_pairing_program);
  ASSERT_NE(res.trace, nullptr);
  fxtest::expect_fifo_pairing(*res.trace);
}

TEST(Trace, BarrierRecordsModeledLastArriver) {
  mx::Machine m(test_config(3));
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    ctx.charge(ctx.phys_rank() == 1 ? 9.0 : 1.0);  // proc 1 arrives last
    ctx.barrier(ctx.group());
  });
  const tr::TraceRecorder& rec = *res.trace;
  ASSERT_EQ(rec.barriers().size(), 1u);
  const tr::BarrierRecord& b = rec.barriers()[0];
  EXPECT_EQ(b.last_arriver, 1);
  EXPECT_DOUBLE_EQ(b.release, 9.0 + 1.0 + 1.0 * 2.0);  // base + stage*ceil(log2 3)

  // Early arrivers wait [1, release] with the happens-before edge at the
  // last arrival; the last arriver waits only for the barrier cost itself.
  for (const tr::Wait& w : rec.waits()) {
    EXPECT_EQ(w.kind, tr::WaitKind::Barrier);
    EXPECT_EQ(w.cause_proc, 1);
    EXPECT_DOUBLE_EQ(w.cause_time, 9.0);
    EXPECT_DOUBLE_EQ(w.t1, b.release);
    EXPECT_DOUBLE_EQ(w.t0, w.proc == 1 ? 9.0 : 1.0);
  }
}

TEST(Trace, BarrierTieGoesToTheFiberThatRanLast) {
  // Every proc arrives at modeled time 5, but proc 2 blocks on a receive
  // from proc 3 and so runs its barrier call after proc 3. Among equal
  // modeled arrivals the simulator names the fiber that executed last.
  auto cfg = test_config(4);
  cfg.send_overhead = 0.0;
  cfg.recv_overhead = 0.0;
  cfg.latency = 0.0;
  cfg.byte_time = 0.0;
  mx::Machine m(cfg);
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    const int r = ctx.phys_rank();
    if (r == 2) {
      (void)ctx.recv_phys(3, 1);
    } else {
      ctx.charge(5.0);
    }
    if (r == 3) ctx.send_phys(2, 1, mx::Payload());
    ctx.barrier(ctx.group());
  });
  const tr::TraceRecorder& rec = *res.trace;
  ASSERT_EQ(rec.barriers().size(), 1u);
  EXPECT_EQ(rec.barriers()[0].last_arriver, 2);
  int barrier_waits = 0;
  for (const tr::Wait& w : rec.waits()) {
    if (w.kind != tr::WaitKind::Barrier) continue;
    ++barrier_waits;
    EXPECT_EQ(w.cause_proc, 2);
    EXPECT_DOUBLE_EQ(w.cause_time, 5.0);
    EXPECT_EQ(w.ref, rec.barriers()[0].id);
  }
  EXPECT_EQ(barrier_waits, 4);
}

TEST(Trace, ChromeExportIsValidJson) {
  mx::Machine m(test_config(2));
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    auto sp = ctx.span("phase \"one\"\n", "test");  // needs escaping
    if (ctx.phys_rank() == 0) {
      ctx.send_phys(1, 3, mx::Payload(8));
    } else {
      (void)ctx.recv_phys(0, 3);
    }
    ctx.barrier(ctx.group());
  });
  const std::string json = tr::chrome_trace_json(*res.trace);
  fxtest::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete events
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow end
  EXPECT_NE(json.find("phase \\\"one\\\"\\n"), std::string::npos);
}

TEST(Trace, PhaseReportAggregatesNamedSpans) {
  mx::Machine m(test_config(2));
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    {
      auto sp = ctx.span("compute", "test");
      ctx.charge(2.0);
    }
    auto sp = ctx.span("sync", "test");
    ctx.barrier(ctx.group());
  });
  const tr::PhaseReport rep = tr::phase_report(*res.trace);
  EXPECT_EQ(rep.num_procs, 2);
  EXPECT_GT(rep.makespan, 0.0);
  // All activity happens inside the two named spans.
  EXPECT_NEAR(rep.attributed_fraction, 1.0, 1e-9);

  const tr::PhaseStats* compute = nullptr;
  const tr::PhaseStats* sync = nullptr;
  for (const tr::PhaseStats& p : rep.phases) {
    if (p.name == "compute") compute = &p;
    if (p.name == "sync") sync = &p;
  }
  ASSERT_NE(compute, nullptr);
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(compute->instances, 2);
  EXPECT_DOUBLE_EQ(compute->busy, 4.0);  // 2 procs x 2 s
  EXPECT_DOUBLE_EQ(compute->barrier_wait, 0.0);
  EXPECT_DOUBLE_EQ(sync->busy, 0.0);
  EXPECT_GT(sync->barrier_wait, 0.0);
  EXPECT_FALSE(rep.to_string().empty());
}

TEST(Trace, CriticalPathOnHandBuiltTwoProcLog) {
  // proc 0 computes [0, 1.0], sends over [1.0, 1.1]; the message is ready
  // at proc 1 at 1.2, which then computes [1.2, 2.2]. The critical path is
  // proc 0's execute + the wire delay + proc 1's execute.
  tr::TraceRecorder rec(2);
  double clock[2] = {0.0, 0.0};
  rec.set_clock([&](int p) { return clock[p]; });

  // Mirror a machine run: a depth-0 root span per proc, named work inside.
  rec.begin_span(0, "program", "root");
  rec.begin_span(1, "program", "root");
  rec.begin_span(0, "produce", "test");
  rec.begin_span(1, "consume", "test");
  rec.add_busy(0, 1.1);
  clock[0] = 1.1;
  rec.message_sent(0, 1, 42, 64, 1.0, 1.1);
  rec.message_received(1, 0, 42, 0.0, 1.2);
  clock[1] = 1.2;
  rec.add_busy(1, 1.0);
  clock[1] = 2.2;
  rec.end_span(0);
  rec.end_span(1);
  rec.finalize(2.2);

  const tr::CriticalPathReport cp = tr::critical_path(rec);
  EXPECT_DOUBLE_EQ(cp.makespan, 2.2);
  EXPECT_NEAR(cp.execute_time, 2.1, 1e-9);
  EXPECT_NEAR(cp.recv_delay, 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(cp.barrier_delay, 0.0);
  EXPECT_NEAR(cp.attributed_fraction, 1.0, 1e-9);

  ASSERT_GE(cp.steps.size(), 3u);
  // Steps come back in time order: produce, wire delay, consume.
  EXPECT_EQ(cp.steps.front().kind, tr::PathStep::Kind::Execute);
  EXPECT_EQ(cp.steps.front().proc, 0);
  EXPECT_EQ(cp.steps.front().span, "produce");
  EXPECT_EQ(cp.steps.back().kind, tr::PathStep::Kind::Execute);
  EXPECT_EQ(cp.steps.back().proc, 1);
  EXPECT_EQ(cp.steps.back().span, "consume");
  bool saw_delay = false;
  for (const tr::PathStep& st : cp.steps) {
    if (st.kind == tr::PathStep::Kind::Delay) {
      saw_delay = true;
      EXPECT_EQ(st.wait_kind, tr::WaitKind::Recv);
      EXPECT_NEAR(st.duration(), 0.1, 1e-9);
    }
  }
  EXPECT_TRUE(saw_delay);
  EXPECT_FALSE(cp.to_string().empty());
}

TEST(Trace, CriticalPathCrossesTaskRegions) {
  // Two subgroups; "slow" computes 4x longer, then a full barrier. The
  // critical path must run through on:slow, not on:fast.
  mx::MachineConfig cfg = test_config(4);
  mx::Machine m(cfg);
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    fxpar::core::TaskPartition part(ctx, {{"fast", 2}, {"slow", 2}}, "demo");
    fxpar::core::TaskRegion region(ctx, part);
    region.on("fast", [&] { ctx.charge(1.0); });
    region.on("slow", [&] { ctx.charge(4.0); });
    ctx.barrier(ctx.group());
  });
  const tr::CriticalPathReport cp = tr::critical_path(*res.trace);
  double slow_on_path = 0.0;
  double fast_on_path = 0.0;
  for (const tr::SpanCritical& sc : cp.by_span) {
    if (sc.name == "on:slow") slow_on_path = sc.critical();
    if (sc.name == "on:fast") fast_on_path = sc.critical();
  }
  EXPECT_NEAR(slow_on_path, 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(fast_on_path, 0.0);
}

TEST(Trace, SimFftHistReportsArePinned) {
  // A traced hybrid FFT-Hist pipeline on sim (two replicated FFT modules
  // feeding one hist module), with both reports pinned word for word: any
  // change in how the merge orders, pairs or attributes records shows here.
  fxpar::apps::FftHistConfig fcfg;
  fcfg.n = 32;
  fcfg.bins = 16;
  fcfg.num_sets = 4;
  auto cfg = mx::MachineConfig::paragon(10);
  cfg.trace = true;
  const auto stats = fxpar::apps::run_stream_pipeline<fxpar::apps::Complex>(
      cfg, fxpar::apps::ffthist_stages(fcfg), {{0, 1, 4, 2}, {2, 2, 2, 1}}, fcfg.num_sets);
  ASSERT_NE(stats.machine_result.trace, nullptr);
  const tr::TraceRecorder& rec = *stats.machine_result.trace;
  EXPECT_EQ(tr::phase_report(rec).to_string(), R"(phase report: makespan 0.0294 s on 10 procs; attributed to named spans: 100%
  machine activity: busy 0.1541 s, recv wait 0.0143 s, barrier wait 0.0689 s, io wait 0.0000 s (proc-seconds)
  phase                          inst     time(s)   busy%  recvw%  barrw%    iow%      bytes
  region:stream                    10      0.2373   64.9%    6.0%   29.1%    0.0%     115712
  assign:hist.in                   24      0.0907   20.7%    7.7%   71.6%    0.0%      65536
  on:m0.i0                          8      0.0612   96.2%    0.5%    3.3%    0.0%      24576
  on:m0.i1                          8      0.0612   96.2%    0.5%    3.3%    0.0%      24576
  assign:rffts.in                  16      0.0479   90.4%    1.3%    8.3%    0.0%      49152
  cffts                            16      0.0396  100.0%    0.0%    0.0%    0.0%          0
  rffts                            16      0.0350  100.0%    0.0%    0.0%    0.0%          0
  hist                              8      0.0241   72.2%   27.8%    0.0%    0.0%       1024
  on:m1.i0                          8      0.0241   72.2%   27.8%    0.0%    0.0%       1024
  broadcast                         8      0.0077   42.1%   57.9%    0.0%    0.0%        512
  reduce_vector                     8      0.0055   59.3%   40.7%    0.0%    0.0%        512
  setup                            10      0.0000    0.0%    0.0%    0.0%    0.0%          0
  (inclusive: nested spans also count toward their parents)
  phase                           plan_hit plan_miss
  region:stream                         67         5
  on:m0.i0                               7         1
  on:m0.i1                               7         1
  hist                                  15         1
  on:m1.i0                              15         1
  broadcast                              8         0
  reduce_vector                          7         1
)");
  EXPECT_EQ(tr::critical_path(rec).to_string(), R"(critical path: makespan 0.0294 s = execute 0.0258 s (88%) + msg delay 0.0020 s (7%) + barrier delay 0.0016 s (6%) + io delay 0.0000 s (0%)
  attributed to named spans: 100% of the path (54 steps)
  span                            on-path(s)  execute(s)   delay(s)   slack(s)
  assign:hist.in                      0.0085      0.0065     0.0020     0.0822
  hist                                0.0055      0.0055     0.0000     0.0186
  reduce_vector                       0.0039      0.0033     0.0006     0.0016
  broadcast                           0.0038      0.0032     0.0006     0.0039
  assign:rffts.in                     0.0031      0.0027     0.0004     0.0448
  cffts                               0.0025      0.0025     0.0000     0.0371
  rffts                               0.0022      0.0022     0.0000     0.0328
  region:stream                       0.0000      0.0000     0.0000     0.2373
  (slack: span time overlapped off the critical path)
)");
}

TEST(Trace, IoWaitsAreSerializedAndAttributed) {
  mx::Machine m(test_config(2));
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    ctx.io(10);  // both procs at t=0: device serializes them
  });
  const tr::TraceRecorder& rec = *res.trace;
  ASSERT_EQ(rec.waits().size(), 2u);
  double total_io = 0.0;
  for (const tr::Wait& w : rec.waits()) {
    EXPECT_EQ(w.kind, tr::WaitKind::Io);
    total_io += w.t1 - w.t0;
  }
  // First op: 110 s; second queues behind it: 220 s.
  EXPECT_DOUBLE_EQ(total_io, 110.0 + 220.0);
}

// ---------------------------------------------------------------------------
// Plan-cache span attribution and merged concurrent traces
// ---------------------------------------------------------------------------

TEST(Trace, PlanCacheEventsAttributeToOpenSpans) {
  tr::TraceRecorder rec(2);
  double t = 0.0;
  rec.set_clock([&](int) { return t; });

  rec.begin_span(0, "outer", "test");
  rec.begin_span(0, "loop", "test");
  rec.plan_cache_event(0, true);
  rec.plan_cache_event(0, true);
  rec.plan_cache_event(0, false);
  t = 1.0;
  rec.end_span(0);
  // Events after the inner span closed only reach the outer span.
  rec.plan_cache_event(0, false);
  t = 2.0;
  rec.end_span(0);
  rec.finalize(2.0);

  const tr::Span* outer = nullptr;
  const tr::Span* loop = nullptr;
  for (const tr::Span& s : rec.spans()) {
    if (s.name == "outer") outer = &s;
    if (s.name == "loop") loop = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->plan_hits, 2u);
  EXPECT_EQ(loop->plan_misses, 1u);
  EXPECT_EQ(outer->plan_hits, 2u);  // inclusive, like the time accounting
  EXPECT_EQ(outer->plan_misses, 2u);
}

TEST(Trace, PhaseReportSurfacesPlanCacheCounters) {
  tr::TraceRecorder rec(1);
  double t = 0.0;
  rec.set_clock([&](int) { return t; });
  rec.begin_span(0, "program", "root");
  rec.begin_span(0, "loop", "test");
  rec.add_busy(0, 1.0);
  rec.plan_cache_event(0, true);
  rec.plan_cache_event(0, false);
  t = 1.0;
  rec.end_span(0);
  rec.begin_span(0, "quiet", "test");
  rec.add_busy(0, 1.0);
  t = 2.0;
  rec.end_span(0);
  rec.end_span(0);
  rec.finalize(2.0);

  const tr::PhaseReport rep = tr::phase_report(rec);
  const tr::PhaseStats* loop = nullptr;
  const tr::PhaseStats* quiet = nullptr;
  for (const tr::PhaseStats& p : rep.phases) {
    if (p.name == "loop") loop = &p;
    if (p.name == "quiet") quiet = &p;
  }
  ASSERT_NE(loop, nullptr);
  ASSERT_NE(quiet, nullptr);
  EXPECT_EQ(loop->plan_hits, 1u);
  EXPECT_EQ(loop->plan_misses, 1u);
  EXPECT_EQ(quiet->plan_hits + quiet->plan_misses, 0u);

  // The plan-cache table appears, lists the active phase only.
  const std::string text = rep.to_string();
  EXPECT_NE(text.find("plan_hit plan_miss"), std::string::npos);
  const std::size_t table = text.find("plan_hit plan_miss");
  EXPECT_NE(text.find("loop", table), std::string::npos);
  EXPECT_EQ(text.find("quiet", table), std::string::npos);
}

TEST(Trace, MergedConcurrentTraceCriticalPath) {
  // Hand-built two-worker trace, recorded with elapsed-time busy exactly as
  // the threaded backend does: rank 0 produces over [0, 1.0] and deposits
  // a message; rank 1 blocks on the receive until 1.2, then consumes over
  // [1.2, 2.2], looking up one cached plan on the way. After finalize()
  // merges the shards the analyzers must see one coherent run.
  tr::TraceRecorder rec(2, tr::TraceRecorder::Busy::Elapsed);
  double c[2] = {0.0, 0.0};
  rec.set_clock([&](int p) { return c[p]; });

  rec.begin_span(0, "program", "root");
  rec.begin_span(0, "produce", "test");
  rec.message_sent(0, 1, 7, 64, 0.9, 1.0);
  c[0] = 1.0;
  rec.end_span(0);
  rec.end_span(0);

  rec.begin_span(1, "program", "root");
  rec.message_received(1, 0, 7, 0.0, 1.2);
  c[1] = 1.2;
  rec.begin_span(1, "consume", "test");
  rec.plan_cache_event(1, true);
  c[1] = 2.2;
  rec.end_span(1);
  rec.end_span(1);

  rec.finalize(2.2);

  // Merged streams: the sender-shard message carries the receiver's
  // consumption time; the receiver-shard span keeps its plan-cache hit.
  ASSERT_EQ(rec.messages().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.messages()[0].recv_t, 1.2);

  const tr::Span* consume = nullptr;
  for (const tr::Span& s : rec.spans()) {
    if (s.name == "consume") consume = &s;
  }
  ASSERT_NE(consume, nullptr);
  EXPECT_EQ(consume->plan_hits, 1u);
  EXPECT_DOUBLE_EQ(consume->busy, 1.0);  // elapsed minus waits

  const tr::CriticalPathReport cp = tr::critical_path(rec);
  EXPECT_DOUBLE_EQ(cp.makespan, 2.2);
  // The path crosses the message edge: both execution legs plus a recv
  // delay; step durations tile the makespan.
  EXPECT_GT(cp.recv_delay, 0.0);
  EXPECT_GT(cp.execute_time, 1.5);
  double steps = 0.0;
  for (const tr::PathStep& s : cp.steps) steps += s.duration();
  EXPECT_NEAR(steps, cp.makespan, 1e-9);
  bool consume_on_path = false;
  for (const tr::SpanCritical& sc : cp.by_span) {
    if (sc.name == "consume" && sc.critical() > 0.0) consume_on_path = true;
  }
  EXPECT_TRUE(consume_on_path);

  // The merged trace also exports as valid chrome JSON.
  const std::string json = tr::chrome_trace_json(rec);
  fxtest::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
}

TEST(Trace, ChromeExportNonFiniteAccountingEmitsNull) {
  // Regression: accounting values are printed straight into JSON; a
  // non-finite busy/wait used to render as a bare `inf`/`nan` token,
  // making the whole file unparseable. They must surface as null.
  tr::TraceRecorder rec(1);
  double t = 0.0;
  rec.set_clock([&](int) { return t; });
  rec.begin_span(0, "poisoned", "test");
  rec.add_busy(0, std::numeric_limits<double>::infinity());
  t = 1.0;
  rec.end_span(0);
  rec.finalize(1.0);

  const std::string json = tr::chrome_trace_json(rec);
  fxtest::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}
