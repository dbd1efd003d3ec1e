#include "apps/barneshut.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

namespace fxpar::apps {

namespace {

using machine::Context;
using pgroup::ProcessorGroup;

constexpr double kFlopsPerVisit = 15.0;
constexpr double kBuildOpsPerElem = 2.0;  // per element per level, modeled

void accumulate(std::array<double, 3>& f, const double* pi, double mi, const double* pj,
                double mj, double eps) {
  const double dx = pj[0] - pi[0], dy = pj[1] - pi[1], dz = pj[2] - pi[2];
  const double r2 = dx * dx + dy * dy + dz * dz + eps * eps;
  const double inv = 1.0 / (r2 * std::sqrt(r2));
  const double s = mi * mj * inv;
  f[0] += s * dx;
  f[1] += s * dy;
  f[2] += s * dz;
}

}  // namespace

BhTree::BhTree(std::vector<BhParticle> particles, std::int64_t leaf_size)
    : parts_(std::move(particles)), leaf_size_(std::max<std::int64_t>(leaf_size, 1)) {
  if (parts_.empty()) throw std::invalid_argument("BhTree: no particles");
  nodes_.reserve(parts_.size() * 2);
  build(0, static_cast<std::int64_t>(parts_.size()), 0, 0);
}

int BhTree::build(std::int64_t lo, std::int64_t hi, int axis, int depth) {
  const int idx = static_cast<int>(nodes_.size());
  nodes_.push_back(BhNode{});
  max_depth_ = std::max(max_depth_, depth);
  // Median split (balanced binary tree; sorts particles by leaf order).
  if (hi - lo > leaf_size_) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    std::nth_element(parts_.begin() + lo, parts_.begin() + mid, parts_.begin() + hi,
                     [axis](const BhParticle& a, const BhParticle& b) {
                       return a.pos[axis] < b.pos[axis];
                     });
    const int l = build(lo, mid, (axis + 1) % 3, depth + 1);
    const int r = build(mid, hi, (axis + 1) % 3, depth + 1);
    BhNode& n = nodes_[static_cast<std::size_t>(idx)];
    n.left = l;
    n.right = r;
  }
  BhNode& n = nodes_[static_cast<std::size_t>(idx)];
  n.lo = lo;
  n.hi = hi;
  n.depth = depth;
  for (int d = 0; d < 3; ++d) {
    n.bb_min[d] = std::numeric_limits<double>::infinity();
    n.bb_max[d] = -std::numeric_limits<double>::infinity();
  }
  for (std::int64_t i = lo; i < hi; ++i) {
    const BhParticle& p = parts_[static_cast<std::size_t>(i)];
    n.mass += p.mass;
    for (int d = 0; d < 3; ++d) {
      n.com[d] += p.mass * p.pos[d];
      n.bb_min[d] = std::min(n.bb_min[d], p.pos[d]);
      n.bb_max[d] = std::max(n.bb_max[d], p.pos[d]);
    }
  }
  if (n.mass > 0) {
    for (int d = 0; d < 3; ++d) n.com[d] /= n.mass;
  }
  return idx;
}

std::optional<std::array<double, 3>> BhTree::force_on(std::int64_t i, std::int64_t vis_lo,
                                                      std::int64_t vis_hi, int k, double theta,
                                                      double eps, std::int64_t& visited) const {
  const BhParticle& pi = parts_[static_cast<std::size_t>(i)];
  std::array<double, 3> f{0, 0, 0};
  // Explicit stack; deterministic order: right child pushed first so the
  // left subtree is processed first (matches a recursive traversal).
  std::vector<int> stack{0};
  while (!stack.empty()) {
    const int idx = stack.back();
    stack.pop_back();
    const BhNode& n = nodes_[static_cast<std::size_t>(idx)];
    visited += 1;
    if (n.lo <= i && i < n.hi && n.hi - n.lo == 1) continue;  // the particle itself
    // Opening criterion against the cell's center of mass.
    double s = 0.0;
    for (int d = 0; d < 3; ++d) s = std::max(s, n.bb_max[d] - n.bb_min[d]);
    const double dx = n.com[0] - pi.pos[0], dy = n.com[1] - pi.pos[1],
                 dz = n.com[2] - pi.pos[2];
    const double dist = std::sqrt(dx * dx + dy * dy + dz * dz) + 1e-300;
    const bool contains_self = (n.lo <= i && i < n.hi);
    if (!contains_self && s / dist < theta) {
      accumulate(f, pi.pos, pi.mass, n.com, n.mass, eps);
      continue;
    }
    if (n.leaf()) {
      // Direct sum needs the leaf's particle data: present only when the
      // leaf lies inside the visible subtree.
      if (n.lo >= vis_lo && n.hi <= vis_hi) {
        for (std::int64_t j = n.lo; j < n.hi; ++j) {
          if (j == i) continue;
          const BhParticle& pj = parts_[static_cast<std::size_t>(j)];
          accumulate(f, pi.pos, pi.mass, pj.pos, pj.mass, eps);
          visited += 1;
        }
        continue;
      }
      return std::nullopt;  // remote branch: worklist
    }
    // Children are present if within the replicated top k levels or if they
    // overlap the visible range.
    for (int child : {n.right, n.left}) {
      const BhNode& c = nodes_[static_cast<std::size_t>(child)];
      const bool present = (c.depth <= k) || (c.lo < vis_hi && c.hi > vis_lo);
      if (!present) return std::nullopt;  // remote branch: worklist
      stack.push_back(child);
    }
  }
  return f;
}

std::array<double, 3> BhTree::direct_force(std::int64_t i, double eps) const {
  const BhParticle& pi = parts_[static_cast<std::size_t>(i)];
  std::array<double, 3> f{0, 0, 0};
  for (std::int64_t j = 0; j < static_cast<std::int64_t>(parts_.size()); ++j) {
    if (j == i) continue;
    const BhParticle& pj = parts_[static_cast<std::size_t>(j)];
    accumulate(f, pi.pos, pi.mass, pj.pos, pj.mass, eps);
  }
  return f;
}

std::vector<BhParticle> bh_particles(const BhConfig& cfg) {
  std::vector<BhParticle> ps(static_cast<std::size_t>(cfg.n));
  std::uint64_t h = cfg.seed * 0x9e3779b97f4a7c15ull + 0x853c49e6748fea9bull;
  auto next = [&h] {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    return static_cast<double>(h % 1000000) / 1000000.0;
  };
  for (auto& p : ps) {
    p.pos[0] = next();
    p.pos[1] = next();
    p.pos[2] = next();
    p.mass = 0.5 + next();
  }
  return ps;
}

namespace {

/// Recursive nested task parallel force phase. Returns the worklist of
/// particles this level could not compute, identical on every member of the
/// current group. `level` indexes worklist_per_level (0 = leaf recursion).
std::vector<std::int64_t> compute_force_rec(Context& ctx, const BhTree& tree, std::int64_t lo,
                                            std::int64_t hi, int k, const BhConfig& cfg,
                                            std::vector<std::array<double, 3>>& sink,
                                            int level, std::vector<std::int64_t>* wl_stats) {
  const ProcessorGroup g = ctx.group();
  if (ctx.nprocs() == 1) {
    std::vector<std::int64_t> wl;
    std::int64_t visited = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      auto f = tree.force_on(i, lo, hi, k, cfg.theta, cfg.eps, visited);
      if (f) {
        sink[static_cast<std::size_t>(i)] = *f;
      } else {
        wl.push_back(i);
      }
    }
    ctx.charge_flops(kFlopsPerVisit * static_cast<double>(visited));
    return wl;
  }

  const std::int64_t mid = lo + (hi - lo) / 2;
  const auto sizes = pgroup::proportional_split(
      g.size(), {static_cast<double>(mid - lo), static_cast<double>(hi - mid)});
  core::TaskPartition part(ctx, {{"subTreeG1", sizes[0]}, {"subTreeG2", sizes[1]}}, "bhPart");

  std::vector<std::int64_t> wl_local;
  {
    core::TaskRegion region(ctx, part);
    region.on("subTreeG1", [&] {
      wl_local = compute_force_rec(ctx, tree, lo, mid, k, cfg, sink, level + 1, wl_stats);
    });
    region.on("subTreeG2", [&] {
      wl_local = compute_force_rec(ctx, tree, mid, hi, k, cfg, sink, level + 1, wl_stats);
    });
  }
  // Parent scope: merge the children's worklists (replicated on all current
  // processors) and retry them against this level's larger visible subtree.
  const auto wl1 = comm::broadcast_vector(ctx, g, 0, wl_local);
  const auto wl2 = comm::broadcast_vector(ctx, g, sizes[0], wl_local);
  std::vector<std::int64_t> combined = wl1;
  combined.insert(combined.end(), wl2.begin(), wl2.end());
  if (wl_stats && g.virtual_of(ctx.phys_rank()) == 0 &&
      level < static_cast<int>(wl_stats->size())) {
    // Leaders of sibling groups at the same level may add concurrently.
    std::atomic_ref<std::int64_t>((*wl_stats)[static_cast<std::size_t>(level)])
        .fetch_add(static_cast<std::int64_t>(combined.size()), std::memory_order_relaxed);
  }

  const int me = g.virtual_of(ctx.phys_rank());
  std::vector<std::int64_t> failed_mine;
  std::int64_t visited = 0;
  for (std::size_t j = 0; j < combined.size(); ++j) {
    if (static_cast<int>(j % static_cast<std::size_t>(g.size())) != me) continue;
    const std::int64_t i = combined[j];
    auto f = tree.force_on(i, lo, hi, k, cfg.theta, cfg.eps, visited);
    if (f) {
      sink[static_cast<std::size_t>(i)] = *f;
    } else {
      failed_mine.push_back(i);
    }
  }
  ctx.charge_flops(kFlopsPerVisit * static_cast<double>(visited));
  // Replicate the still-failing set on all members.
  const auto gathered = comm::gather_vectors(ctx, g, 0, failed_mine);
  auto all_failed = comm::broadcast_vector(ctx, g, 0, gathered);
  std::sort(all_failed.begin(), all_failed.end());
  return all_failed;
}

}  // namespace

BhResult run_barneshut(const machine::MachineConfig& mcfg, const BhConfig& cfg) {
  BhResult res;
  const BhTree tree(bh_particles(cfg), cfg.leaf_size);
  const std::int64_t n = cfg.n;
  const int k = cfg.k_repl >= 0
                    ? cfg.k_repl
                    : static_cast<int>(std::ceil(std::log2(std::max(mcfg.num_procs, 2)))) + 1;

  res.forces.assign(static_cast<std::size_t>(n), {0, 0, 0});
  machine::Machine machine(mcfg);
  // Worklist bookkeeping: collected per recursion by the group leader.
  std::vector<std::int64_t> level_counts(32, 0);
  res.machine_result = machine.run([&](Context& ctx) {
    // Modeled parallel tree build: each processor charges its share of the
    // median-split work plus the replication of the top k levels.
    const double levels = std::log2(static_cast<double>(std::max<std::int64_t>(n, 2)));
    ctx.charge_int_ops(kBuildOpsPerElem * static_cast<double>(n) * levels /
                       static_cast<double>(ctx.nprocs()));
    auto wl = compute_force_rec(ctx, tree, 0, n, k, cfg, res.forces, 0, &level_counts);
    if (!wl.empty()) {
      throw std::logic_error("barneshut: root worklist not empty");
    }
    ctx.barrier();
  });
  res.makespan = res.machine_result.finish_time;
  while (!level_counts.empty() && level_counts.back() == 0) level_counts.pop_back();
  res.worklist_per_level = level_counts;
  return res;
}

std::vector<std::array<double, 3>> barneshut_reference(const BhConfig& cfg) {
  const BhTree tree(bh_particles(cfg), cfg.leaf_size);
  const std::int64_t n = cfg.n;
  std::vector<std::array<double, 3>> forces(static_cast<std::size_t>(n));
  std::int64_t visited = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    auto f = tree.force_on(i, 0, n, tree.max_depth() + 1, cfg.theta, cfg.eps, visited);
    forces[static_cast<std::size_t>(i)] = *f;
  }
  return forces;
}

namespace {

void apply_forces(std::vector<BhParticle>& parts,
                  const std::vector<std::array<double, 3>>& forces, double dt) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      parts[i].pos[d] += dt * dt / parts[i].mass * forces[i][d];
    }
  }
}

}  // namespace

BhSimResult run_barneshut_steps(const machine::MachineConfig& mcfg, const BhConfig& cfg,
                                int steps, double dt) {
  if (steps <= 0) throw std::invalid_argument("run_barneshut_steps: steps must be positive");
  BhSimResult res;
  res.worklist_total_per_step.assign(static_cast<std::size_t>(steps), 0);
  const std::int64_t n = cfg.n;
  const int k = cfg.k_repl >= 0
                    ? cfg.k_repl
                    : static_cast<int>(std::ceil(std::log2(std::max(mcfg.num_procs, 2)))) + 1;

  // Host-side state shared by every processor. The first processor past the
  // per-step barrier advances the dynamics and rebuilds the tree under
  // `rebuild_mu`; the others wait on the lock and find the step built, so the
  // tree is never replaced while anyone reads it. Everyone charges its share
  // of the modeled (parallel) build cost.
  std::vector<BhParticle> parts = bh_particles(cfg);
  std::unique_ptr<BhTree> tree;
  int built_step = -1;
  std::mutex rebuild_mu;
  std::vector<std::array<double, 3>> forces(static_cast<std::size_t>(n), {0, 0, 0});
  std::vector<std::int64_t> wl_stats(32, 0);

  machine::Machine machine(mcfg);
  res.machine_result = machine.run([&](machine::Context& ctx) {
    const double levels = std::log2(static_cast<double>(std::max<std::int64_t>(n, 2)));
    for (int s = 0; s < steps; ++s) {
      std::unique_lock lock(rebuild_mu);
      if (built_step < s) {
        // First processor past the step barrier: bank the previous step's
        // worklist counts, advance the dynamics, rebuild the tree.
        if (s > 0) {
          for (auto v : wl_stats) {
            res.worklist_total_per_step[static_cast<std::size_t>(s - 1)] += v;
          }
          apply_forces(parts, forces, dt);
        }
        wl_stats.assign(wl_stats.size(), 0);
        tree = std::make_unique<BhTree>(parts, cfg.leaf_size);
        parts = tree->particles();  // tree-sorted order for the next update
        built_step = s;
      }
      lock.unlock();
      ctx.charge_int_ops((kBuildOpsPerElem * static_cast<double>(n) * levels + 6.0 * n) /
                         static_cast<double>(ctx.nprocs()));
      auto wl = compute_force_rec(ctx, *tree, 0, n, k, cfg, forces, 0, &wl_stats);
      if (!wl.empty()) throw std::logic_error("barneshut: root worklist not empty");
      // All forces must be final before the dynamics advance.
      ctx.barrier();
    }
  });
  for (auto v : wl_stats) {
    res.worklist_total_per_step[static_cast<std::size_t>(steps - 1)] += v;
  }
  apply_forces(parts, forces, dt);
  res.particles = parts;
  res.makespan = res.machine_result.finish_time;
  return res;
}

std::vector<BhParticle> barneshut_steps_reference(const BhConfig& cfg, int steps, double dt) {
  std::vector<BhParticle> parts = bh_particles(cfg);
  const std::int64_t n = cfg.n;
  std::vector<std::array<double, 3>> forces(static_cast<std::size_t>(n));
  for (int s = 0; s < steps; ++s) {
    BhTree tree(parts, cfg.leaf_size);
    parts = tree.particles();
    std::int64_t visited = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      forces[static_cast<std::size_t>(i)] =
          *tree.force_on(i, 0, n, tree.max_depth() + 1, cfg.theta, cfg.eps, visited);
    }
    apply_forces(parts, forces, dt);
  }
  return parts;
}

}  // namespace fxpar::apps
