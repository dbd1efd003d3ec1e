// Tests for the host-topology probe and worker pinning (exec/topology.hpp):
// cpulist parsing, pin-plan construction on synthetic topologies, the
// FX_NO_NUMA flat fallback, the machine's sharded payload pool, and a
// threaded-backend pinning smoke run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "exec/topology.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"

namespace ex = fxpar::exec;
namespace mx = fxpar::machine;

TEST(Topology, ParseCpulist) {
  EXPECT_EQ(ex::parse_cpulist("0-3,8,10-11"), (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(ex::parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(ex::parse_cpulist("0-1\n"), (std::vector<int>{0, 1}));
  EXPECT_TRUE(ex::parse_cpulist("").empty());
}

TEST(Topology, PolicyNamesRoundTrip) {
  for (ex::PinPolicy p : {ex::PinPolicy::None, ex::PinPolicy::Compact, ex::PinPolicy::Scatter,
                          ex::PinPolicy::Numa}) {
    ex::PinPolicy back = ex::PinPolicy::None;
    ASSERT_TRUE(ex::parse_pin_policy(ex::pin_policy_name(p), back));
    EXPECT_EQ(back, p);
  }
  ex::PinPolicy out = ex::PinPolicy::Compact;
  EXPECT_FALSE(ex::parse_pin_policy("bogus", out));
  EXPECT_EQ(out, ex::PinPolicy::Compact);  // untouched on failure
}

TEST(Topology, SyntheticShape) {
  const ex::HostTopology t = ex::HostTopology::synthetic(2, 4);
  EXPECT_EQ(t.num_nodes(), 2);
  EXPECT_EQ(t.num_cpus(), 8);
  EXPECT_FALSE(t.flat());
  EXPECT_EQ(t.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(t.nodes[1].cpus, (std::vector<int>{4, 5, 6, 7}));
}

TEST(Topology, PinPlanNoneIsUnpinned) {
  const auto plan = ex::make_pin_plan(ex::HostTopology::synthetic(2, 4), ex::PinPolicy::None, 6);
  ASSERT_EQ(plan.size(), 6u);
  for (const auto& p : plan) {
    EXPECT_EQ(p.cpu, -1);
    EXPECT_EQ(p.node, -1);
  }
}

TEST(Topology, PinPlanCompactFillsNodesInOrder) {
  const auto plan =
      ex::make_pin_plan(ex::HostTopology::synthetic(2, 4), ex::PinPolicy::Compact, 6);
  ASSERT_EQ(plan.size(), 6u);
  // Node 0's CPUs first, then node 1.
  const int want_cpu[] = {0, 1, 2, 3, 4, 5};
  const int want_node[] = {0, 0, 0, 0, 1, 1};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(plan[static_cast<std::size_t>(i)].cpu, want_cpu[i]) << i;
    EXPECT_EQ(plan[static_cast<std::size_t>(i)].node, want_node[i]) << i;
  }
}

TEST(Topology, PinPlanScatterRoundRobinsAcrossNodes) {
  const auto plan =
      ex::make_pin_plan(ex::HostTopology::synthetic(2, 4), ex::PinPolicy::Scatter, 4);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].node, 0);
  EXPECT_EQ(plan[1].node, 1);
  EXPECT_EQ(plan[2].node, 0);
  EXPECT_EQ(plan[3].node, 1);
}

TEST(Topology, PinPlanNumaPlacesContiguousBlocks) {
  const auto plan = ex::make_pin_plan(ex::HostTopology::synthetic(2, 4), ex::PinPolicy::Numa, 8);
  ASSERT_EQ(plan.size(), 8u);
  // Workers 0..3 on node 0, 4..7 on node 1 (block placement matching
  // block-distributed first-touch data).
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(plan[static_cast<std::size_t>(i)].node, i < 4 ? 0 : 1) << i;
  }
}

TEST(Topology, PinPlanWrapsWhenWorkersExceedCpus) {
  const auto plan =
      ex::make_pin_plan(ex::HostTopology::synthetic(2, 2), ex::PinPolicy::Compact, 10);
  ASSERT_EQ(plan.size(), 10u);
  for (const auto& p : plan) {
    EXPECT_GE(p.cpu, 0);
    EXPECT_LT(p.cpu, 4);
    EXPECT_GE(p.node, 0);
  }
  // Wrap is cyclic over the compact order.
  EXPECT_EQ(plan[4].cpu, plan[0].cpu);
  EXPECT_EQ(plan[9].cpu, plan[5].cpu);
}

TEST(Topology, DetectHonorsNoNumaEscapeHatch) {
  ::setenv("FX_NO_NUMA", "1", 1);
  const ex::HostTopology t = ex::HostTopology::detect();
  ::unsetenv("FX_NO_NUMA");
  EXPECT_TRUE(t.flat());
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_GE(t.num_cpus(), 1);
}

TEST(Topology, DetectAlwaysYieldsUsableShape) {
  const ex::HostTopology t = ex::HostTopology::detect();
  ASSERT_GE(t.num_nodes(), 1);
  ASSERT_GE(t.num_cpus(), 1);
  for (const auto& nd : t.nodes) EXPECT_FALSE(nd.cpus.empty());
  // Whatever the host looks like, every policy must produce a full plan.
  for (ex::PinPolicy p : {ex::PinPolicy::Compact, ex::PinPolicy::Scatter, ex::PinPolicy::Numa}) {
    const auto plan = ex::make_pin_plan(t, p, 16);
    ASSERT_EQ(plan.size(), 16u);
    for (const auto& w : plan) EXPECT_GE(w.cpu, 0);
  }
}

TEST(Topology, PoolSpillCounterCountsShardOverflow) {
  auto c = mx::MachineConfig::ideal(1);
  c.backend = ex::BackendKind::Threads;
  c.stack_bytes = 256 * 1024;
  mx::Machine m(c);
  const auto res = m.run([&](mx::Context& ctx) {
    // Hold more payloads than one shard's capacity, then release them all:
    // the first 16 fill this worker's shard, the rest spill to the shared
    // list (and are counted).
    std::vector<mx::Payload> held;
    for (int i = 0; i < 24; ++i) held.push_back(ctx.machine().pool_acquire(256));
    for (auto& p : held) ctx.machine().pool_release(std::move(p));
  });
  EXPECT_GE(m.pool_spill_count(), 8u);
  EXPECT_EQ(res.pool_spills, m.pool_spill_count());

  // The double-vector scratch pool runs through the same shard-then-spill
  // pool and the same spill counter; spilled vectors come back from the
  // shared list once the shard is drained (a reused allocation keeps its
  // larger capacity when a smaller vector is asked for).
  const std::uint64_t before = m.pool_spill_count();
  std::size_t reused = 0;
  const auto dres = m.run([&](mx::Context& ctx) {
    std::vector<std::vector<double>> held;
    for (int i = 0; i < 24; ++i) held.push_back(ctx.machine().double_acquire(64));
    for (auto& v : held) ctx.machine().double_release(std::move(v));
    held.clear();
    for (int i = 0; i < 24; ++i) {
      held.push_back(ctx.machine().double_acquire(8));
      reused += held.back().capacity() == 64 ? 1 : 0;
    }
  });
  EXPECT_EQ(m.pool_spill_count() - before, 8u);
  EXPECT_EQ(dres.pool_spills, m.pool_spill_count());
  EXPECT_EQ(reused, 24u);
}

TEST(Topology, ThreadedBackendPinningSmoke) {
  auto c = mx::MachineConfig::ideal(2);
  c.backend = ex::BackendKind::Threads;
  c.pinning = ex::PinPolicy::Compact;
  c.stack_bytes = 256 * 1024;
  mx::Machine m(c);
  int sum = 0;
  const auto res = m.run([&](mx::Context& ctx) {
    if (ctx.phys_rank() == 0) sum = 41 + 1;  // just prove the body ran pinned or not
  });
  EXPECT_EQ(sum, 42);
  EXPECT_EQ(res.pinning, "compact");
  // Affinity can be refused (cgroup cpusets, restricted sandboxes); when it
  // sticks, every worker reports its node.
  if (!res.numa_nodes.empty()) {
    ASSERT_EQ(res.numa_nodes.size(), 2u);
    for (int nd : res.numa_nodes) EXPECT_GE(nd, 0);
  }
}

TEST(Topology, PinningKeepsResultsIdentical) {
  auto run_with = [](ex::PinPolicy pol) {
    auto c = mx::MachineConfig::ideal(4);
    c.backend = ex::BackendKind::Threads;
    c.pinning = pol;
    c.stack_bytes = 256 * 1024;
    mx::Machine m(c);
    std::vector<double> out(4, 0.0);
    m.run([&](mx::Context& ctx) {
      const int r = ctx.phys_rank();
      double acc = 0;
      for (int i = 0; i < 1000; ++i) acc += 1.0 / (1 + ((i * 31 + r) % 97));
      out[static_cast<std::size_t>(r)] = acc;
    });
    return out;
  };
  const auto none = run_with(ex::PinPolicy::None);
  for (ex::PinPolicy pol : {ex::PinPolicy::Compact, ex::PinPolicy::Scatter, ex::PinPolicy::Numa}) {
    EXPECT_EQ(run_with(pol), none);
  }
}
