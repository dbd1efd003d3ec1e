// Tests for the Barnes-Hut application: tree invariants, force accuracy
// against direct summation, exact equivalence of the nested task parallel
// computation with the sequential traversal, and worklist behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/barneshut.hpp"
#include "exec/backend.hpp"

namespace ap = fxpar::apps;
using fxpar::MachineConfig;

namespace {

MachineConfig paragon(int p) {
  auto c = MachineConfig::paragon(p);
  c.stack_bytes = 512 * 1024;
  return c;
}

double norm3(const std::array<double, 3>& v) {
  return std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
}

}  // namespace

TEST(BhTree, BalancedSplitCoversAllParticles) {
  ap::BhConfig cfg;
  cfg.n = 200;
  cfg.leaf_size = 4;
  ap::BhTree tree(ap::bh_particles(cfg), cfg.leaf_size);
  const auto& root = tree.root();
  EXPECT_EQ(root.lo, 0);
  EXPECT_EQ(root.hi, 200);
  // Every internal node splits at the midpoint; leaves are small.
  for (const auto& n : tree.nodes()) {
    if (!n.leaf()) {
      const auto& l = tree.nodes()[static_cast<std::size_t>(n.left)];
      const auto& r = tree.nodes()[static_cast<std::size_t>(n.right)];
      EXPECT_EQ(l.lo, n.lo);
      EXPECT_EQ(r.hi, n.hi);
      EXPECT_EQ(l.hi, r.lo);
      EXPECT_EQ(l.hi - l.lo, (n.hi - n.lo) / 2);
    } else {
      EXPECT_LE(n.hi - n.lo, cfg.leaf_size);
    }
  }
}

TEST(BhTree, MassAndComConsistent) {
  ap::BhConfig cfg;
  cfg.n = 64;
  ap::BhTree tree(ap::bh_particles(cfg), cfg.leaf_size);
  for (const auto& n : tree.nodes()) {
    if (n.leaf()) continue;
    const auto& l = tree.nodes()[static_cast<std::size_t>(n.left)];
    const auto& r = tree.nodes()[static_cast<std::size_t>(n.right)];
    EXPECT_NEAR(n.mass, l.mass + r.mass, 1e-9);
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(n.mass * n.com[d], l.mass * l.com[d] + r.mass * r.com[d], 1e-9);
      EXPECT_GE(n.com[d], n.bb_min[d] - 1e-12);
      EXPECT_LE(n.com[d], n.bb_max[d] + 1e-12);
    }
  }
}

TEST(BhTree, ThetaZeroEqualsDirectSummation) {
  ap::BhConfig cfg;
  cfg.n = 128;
  cfg.theta = 0.0;  // never approximate
  ap::BhTree tree(ap::bh_particles(cfg), cfg.leaf_size);
  std::int64_t visited = 0;
  for (std::int64_t i = 0; i < cfg.n; i += 7) {
    const auto bh = tree.force_on(i, 0, cfg.n, 64, cfg.theta, cfg.eps, visited);
    ASSERT_TRUE(bh.has_value());
    const auto direct = tree.direct_force(i, cfg.eps);
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR((*bh)[d], direct[d], 1e-9 * (1.0 + std::abs(direct[d])));
    }
  }
}

TEST(BhTree, ApproximationErrorBoundedForModestTheta) {
  ap::BhConfig cfg;
  cfg.n = 256;
  cfg.theta = 0.4;
  ap::BhTree tree(ap::bh_particles(cfg), cfg.leaf_size);
  std::int64_t visited = 0;
  double worst = 0.0;
  for (std::int64_t i = 0; i < cfg.n; i += 11) {
    const auto bh = tree.force_on(i, 0, cfg.n, 64, cfg.theta, cfg.eps, visited);
    const auto direct = tree.direct_force(i, cfg.eps);
    std::array<double, 3> diff{(*bh)[0] - direct[0], (*bh)[1] - direct[1],
                               (*bh)[2] - direct[2]};
    worst = std::max(worst, norm3(diff) / (norm3(direct) + 1e-12));
  }
  EXPECT_LT(worst, 0.12);  // classic BH accuracy envelope for theta=0.4
}

TEST(BhTree, RestrictedVisibilityPutsParticlesOnWorklist) {
  ap::BhConfig cfg;
  cfg.n = 256;
  cfg.theta = 0.5;
  ap::BhTree tree(ap::bh_particles(cfg), cfg.leaf_size);
  std::int64_t visited = 0;
  // With k=0 (only the root replicated) and a narrow visible range, most
  // boundary particles cannot finish.
  int deferred = 0;
  for (std::int64_t i = 0; i < 32; ++i) {
    if (!tree.force_on(i, 0, 32, 0, cfg.theta, cfg.eps, visited).has_value()) deferred += 1;
  }
  EXPECT_GT(deferred, 0);
  // With full visibility nothing defers.
  for (std::int64_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(tree.force_on(i, 0, cfg.n, 0, cfg.theta, cfg.eps, visited).has_value());
  }
}

TEST(BarnesHut, ParallelForcesExactlyMatchSequential) {
  ap::BhConfig cfg;
  cfg.n = 512;
  cfg.theta = 0.6;
  const auto ref = ap::barneshut_reference(cfg);
  for (int p : {1, 2, 4, 8}) {
    const auto res = ap::run_barneshut(paragon(p), cfg);
    ASSERT_EQ(res.forces.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(res.forces[i][d], ref[i][d]) << "p=" << p << " particle " << i;
      }
    }
  }
}

TEST(BarnesHut, WorklistShrinksWithMoreReplicatedLevels) {
  // Paper: "the size of the worklist can be reduced by controlling the
  // number of replicated layers k".
  ap::BhConfig cfg;
  cfg.n = 2048;
  cfg.theta = 1.0;
  auto total_wl = [&](int k) {
    cfg.k_repl = k;
    const auto res = ap::run_barneshut(paragon(8), cfg);
    std::int64_t t = 0;
    for (auto v : res.worklist_per_level) t += v;
    return t;
  };
  const auto wl_k3 = total_wl(3);
  const auto wl_k9 = total_wl(9);
  EXPECT_GT(wl_k3, 0);
  EXPECT_LT(wl_k9, wl_k3);
}

TEST(BarnesHut, WorklistDrainsGoingUpTheRecursion) {
  // Each level retries its children's worklist against a twice-as-large
  // visible subtree, so the counts must decrease towards the root.
  ap::BhConfig cfg;
  cfg.n = 8192;
  cfg.theta = 1.0;
  cfg.k_repl = 12;
  const auto res = ap::run_barneshut(paragon(8), cfg);
  ASSERT_GE(res.worklist_per_level.size(), 2u);
  for (std::size_t l = 1; l < res.worklist_per_level.size(); ++l) {
    EXPECT_LE(res.worklist_per_level[l - 1], res.worklist_per_level[l])
        << "level " << l;  // index 0 is the root
  }
}

TEST(BarnesHut, WorklistGrowsSublinearly) {
  // The paper: for uniform particles the total worklist is O(n^(2/3)):
  // quadrupling n should far less than quadruple the worklist.
  ap::BhConfig cfg;
  cfg.theta = 1.0;
  cfg.k_repl = 12;
  auto total_wl = [&](std::int64_t n) {
    cfg.n = n;
    const auto res = ap::run_barneshut(paragon(8), cfg);
    std::int64_t t = 0;
    for (auto v : res.worklist_per_level) t += v;
    return t;
  };
  const auto small = total_wl(8192);
  const auto big = total_wl(32768);
  EXPECT_LT(static_cast<double>(big), 3.0 * static_cast<double>(small));
  // And the deferred *fraction* shrinks.
  EXPECT_LT(static_cast<double>(big) / 32768.0, static_cast<double>(small) / 8192.0);
}

TEST(BarnesHut, DeterministicAcrossRuns) {
  ap::BhConfig cfg;
  cfg.n = 256;
  const auto a = ap::run_barneshut(paragon(4), cfg);
  const auto b = ap::run_barneshut(paragon(4), cfg);
  EXPECT_EQ(a.forces, b.forces);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.worklist_per_level, b.worklist_per_level);
}

TEST(BarnesHut, ScalesInModeledTime) {
  ap::BhConfig cfg;
  cfg.n = 2048;
  const auto p1 = ap::run_barneshut(paragon(1), cfg);
  const auto p8 = ap::run_barneshut(paragon(8), cfg);
  EXPECT_LT(p8.makespan, p1.makespan);
}

TEST(BarnesHutSteps, MatchesSequentialDynamics) {
  ap::BhConfig cfg;
  cfg.n = 256;
  cfg.theta = 1.0;
  cfg.k_repl = 12;
  const auto ref = ap::barneshut_steps_reference(cfg, 3, 0.01);
  const auto res = ap::run_barneshut_steps(paragon(4), cfg, 3, 0.01);
  ASSERT_EQ(res.particles.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(res.particles[i].pos[d], ref[i].pos[d]) << "particle " << i;
    }
  }
  EXPECT_EQ(static_cast<int>(res.worklist_total_per_step.size()), 3);
}

// On threads every rank reaches the per-step tree rebuild concurrently; it
// must run once per step, before any rank reads the tree.
TEST(BarnesHutSteps, ThreadsMatchSimAndSequential) {
  ap::BhConfig cfg;
  cfg.n = 1024;
  const auto ref = ap::barneshut_steps_reference(cfg, 3, 0.01);
  const auto sim = ap::run_barneshut_steps(paragon(4), cfg, 3, 0.01);
  auto tcfg = paragon(4);
  tcfg.backend = fxpar::exec::BackendKind::Threads;
  const auto thr = ap::run_barneshut_steps(tcfg, cfg, 3, 0.01);
  ASSERT_EQ(thr.particles.size(), ref.size());
  ASSERT_EQ(sim.particles.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(thr.particles[i].pos[d], ref[i].pos[d]) << "particle " << i;
      EXPECT_EQ(sim.particles[i].pos[d], ref[i].pos[d]) << "particle " << i;
    }
  }
  EXPECT_EQ(thr.worklist_total_per_step, sim.worklist_total_per_step);
}

TEST(BarnesHutSteps, ParticlesActuallyMove) {
  ap::BhConfig cfg;
  cfg.n = 128;
  const auto before = ap::bh_particles(cfg);
  const auto res = ap::run_barneshut_steps(paragon(2), cfg, 2, 0.05);
  double moved = 0.0;
  for (std::size_t i = 0; i < res.particles.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      moved += std::abs(res.particles[i].pos[d] - before[i].pos[d]);
    }
  }
  EXPECT_GT(moved, 0.0);
}

TEST(BarnesHutSteps, VirtualTimeAccumulatesAcrossSteps) {
  ap::BhConfig cfg;
  cfg.n = 256;
  const auto one = ap::run_barneshut_steps(paragon(4), cfg, 1, 0.01);
  const auto three = ap::run_barneshut_steps(paragon(4), cfg, 3, 0.01);
  EXPECT_GT(three.makespan, 2.0 * one.makespan);
}

TEST(BarnesHutSteps, RejectsBadStepCount) {
  ap::BhConfig cfg;
  cfg.n = 64;
  EXPECT_THROW(ap::run_barneshut_steps(paragon(2), cfg, 0, 0.01), std::invalid_argument);
}
