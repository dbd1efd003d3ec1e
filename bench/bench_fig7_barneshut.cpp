// Reproduces the Barnes-Hut claims of Section 5.3 / Figure 7:
//   (1) the nested task parallel force computation scales: expected running
//       time O((n/p) log n);
//   (2) the total worklist grows like O(n^(2/3)) for uniform particles;
//   (3) the worklist shrinks as the number of replicated tree levels k
//       rises (k should be at least log2(p), within a small multiple of it).
// Forces are verified bit-exact against the sequential traversal. The
// times are modeled, so the bench runs on the simulator only.
#include <cmath>
#include <cstdio>

#include "apps/barneshut.hpp"
#include "bench/bench_common.hpp"

using namespace fxpar;
namespace ap = fxpar::apps;

namespace {

std::int64_t total_wl(const ap::BhResult& r) {
  std::int64_t t = 0;
  for (auto v : r.worklist_per_level) t += v;
  return t;
}

MachineConfig mcfg(int p) {
  auto c = MachineConfig::paragon(p);
  c.stack_bytes = 1 << 20;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  fxbench::init(argc, argv);
  fxbench::require_sim_backend("bench_fig7_barneshut",
                               "the force phase shares one tree across ranks and the "
                               "reported times are modeled");
  std::printf("Figure 7 / Section 5.3 — Barnes-Hut with nested task parallelism\n\n");

  // (1) Scaling with processors.
  {
    ap::BhConfig cfg;
    cfg.n = 16384;
    cfg.theta = 1.0;
    cfg.k_repl = 12;
    const auto ref = ap::barneshut_reference(cfg);
    std::printf("(1) scaling, n=%lld, theta=%.1f, k=%d\n",
                static_cast<long long>(cfg.n), cfg.theta, cfg.k_repl);
    std::printf("    %5s | %10s | %8s | %10s\n", "procs", "time", "speedup", "worklist");
    double t1 = 0.0;
    for (int p : {1, 2, 4, 8, 16, 32, 64}) {
      const auto res = ap::run_barneshut(mcfg(p), cfg);
      if (res.forces != ref) {
        std::fprintf(stderr, "VERIFICATION FAILED at p=%d\n", p);
        return 1;
      }
      if (p == 1) t1 = res.makespan;
      std::printf("    %5d | %8.4f s | %7.2fx | %10lld\n", p, res.makespan, t1 / res.makespan,
                  static_cast<long long>(total_wl(res)));
    }
  }

  // (2) Worklist growth with n.
  {
    ap::BhConfig cfg;
    cfg.theta = 1.0;
    cfg.k_repl = 14;
    std::printf("\n(2) total worklist vs n (p=8; paper expects O(n^(2/3)))\n");
    std::printf("    %8s | %10s | %10s | %s\n", "n", "worklist", "wl/n", "growth exp.");
    std::int64_t prev_wl = 0;
    std::int64_t prev_n = 0;
    for (std::int64_t n : {4096, 8192, 16384, 32768, 65536}) {
      cfg.n = n;
      const auto res = ap::run_barneshut(mcfg(8), cfg);
      const auto wl = total_wl(res);
      if (prev_wl > 0) {
        const double exp_fit = std::log(static_cast<double>(wl) / prev_wl) /
                               std::log(static_cast<double>(n) / prev_n);
        std::printf("    %8lld | %10lld | %10.3f | %.2f\n", static_cast<long long>(n),
                    static_cast<long long>(wl), static_cast<double>(wl) / n, exp_fit);
      } else {
        std::printf("    %8lld | %10lld | %10.3f |  -\n", static_cast<long long>(n),
                    static_cast<long long>(wl), static_cast<double>(wl) / n);
      }
      prev_wl = wl;
      prev_n = n;
    }
  }

  // (3) Worklist vs replicated levels k.
  {
    ap::BhConfig cfg;
    cfg.n = 16384;
    cfg.theta = 1.0;
    std::printf("\n(3) total worklist vs replicated levels k (n=%lld, p=8, log2 p = 3)\n",
                static_cast<long long>(cfg.n));
    std::printf("    %4s | %10s | %10s\n", "k", "worklist", "time");
    for (int k : {0, 2, 4, 6, 8, 10, 12, 14}) {
      cfg.k_repl = k;
      const auto res = ap::run_barneshut(mcfg(8), cfg);
      std::printf("    %4d | %10lld | %8.4f s\n", k, static_cast<long long>(total_wl(res)),
                  res.makespan);
    }
  }

  std::printf("\nShape targets (paper): near-linear speedup in p; sub-linear (~n^(2/3))\n"
              "worklist growth; monotone worklist reduction as k grows beyond log2(p).\n");
  return 0;
}
