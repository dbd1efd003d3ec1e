#include "apps/ffthist.hpp"

#include <cmath>

#include "apps/cost_util.hpp"

namespace fxpar::apps {

namespace {

constexpr double kGenFlopsPerElem = 4.0;  ///< synthetic sensor acquisition

using dist::DimDist;
using dist::Layout;
using pgroup::ProcessorGroup;

Layout col_layout(const ProcessorGroup& g, std::int64_t n) {
  return Layout(g, {n, n}, {DimDist::collapsed(), DimDist::block()});
}

Layout row_layout(const ProcessorGroup& g, std::int64_t n) {
  return Layout(g, {n, n}, {DimDist::block(), DimDist::collapsed()});
}

Layout hist_layout(const ProcessorGroup& g, std::int64_t bins) {
  return Layout(g, {bins}, {DimDist::collapsed()});
}

}  // namespace

Complex ffthist_input(int k, std::int64_t i, std::int64_t j) {
  // A mix of per-set tones plus a deterministic pseudo-noise term: cheap,
  // reproducible, and spectrally non-trivial.
  const double phase =
      0.37 * static_cast<double>(k + 1) * static_cast<double>(i) +
      0.61 * static_cast<double>(k + 2) * static_cast<double>(j);
  std::uint64_t h = static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull +
                    static_cast<std::uint64_t>(j) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  const double noise = static_cast<double>(h % 1000) / 1000.0 - 0.5;
  return Complex(std::cos(phase) + 0.25 * noise, std::sin(phase) - 0.25 * noise);
}

std::vector<std::int64_t> ffthist_reference(const FftHistConfig& cfg, int k) {
  const std::int64_t n = cfg.n;
  std::vector<Complex> a(static_cast<std::size_t>(n * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(i * n + j)] = ffthist_input(k, i, j);
    }
  }
  // Column FFTs then row FFTs.
  for (std::int64_t j = 0; j < n; ++j) {
    fft_strided(a, static_cast<std::size_t>(j), static_cast<std::size_t>(n),
                static_cast<std::size_t>(n));
  }
  for (std::int64_t i = 0; i < n; ++i) {
    fft_inplace(std::span<Complex>(a).subspan(static_cast<std::size_t>(i * n),
                                              static_cast<std::size_t>(n)));
  }
  return magnitude_histogram(a, cfg.bins, cfg.max_mag());
}

std::vector<PipelineStage<Complex>> ffthist_stages(
    const FftHistConfig& cfg, std::vector<std::vector<std::int64_t>>* hist_sink) {
  const std::int64_t n = cfg.n;
  const int bins = cfg.bins;
  const double max_mag = cfg.max_mag();
  if (!is_pow2(n)) throw std::invalid_argument("ffthist: n must be a power of two");
  if (hist_sink) hist_sink->assign(static_cast<std::size_t>(cfg.num_sets), {});

  std::vector<PipelineStage<Complex>> stages(3);

  // Stage 0: generate the data set and FFT the columns. Input layout
  // (*, BLOCK): every processor owns all rows of a block of columns.
  stages[0].name = "cffts";
  stages[0].in_layout = [n](const ProcessorGroup& g) { return col_layout(g, n); };
  stages[0].out_layout = [n](const ProcessorGroup& g) { return col_layout(g, n); };
  stages[0].run = [n](machine::Context& ctx, DistArray<Complex>&, DistArray<Complex>& out,
                      int k) {
    const auto& ext = out.local_extents();
    const std::int64_t cols = ext[1];
    out.fill([&](std::span<const std::int64_t> g) { return ffthist_input(k, g[0], g[1]); });
    ctx.charge_flops(kGenFlopsPerElem * static_cast<double>(n) * static_cast<double>(cols));
    fft_columns(out.local(), static_cast<std::size_t>(n), static_cast<std::size_t>(cols));
    ctx.charge_flops(static_cast<double>(cols) * fft_flops(n));
  };

  // Stage 1: FFT the rows. Input layout (BLOCK, *): the handoff assign is
  // the distributed "corner" exchange.
  stages[1].name = "rffts";
  stages[1].in_layout = [n](const ProcessorGroup& g) { return row_layout(g, n); };
  stages[1].out_layout = [n](const ProcessorGroup& g) { return row_layout(g, n); };
  stages[1].run = [n](machine::Context& ctx, DistArray<Complex>& in, DistArray<Complex>& out,
                      int) {
    const auto& ext = in.local_extents();
    const std::int64_t rows = ext[0];
    auto src = in.local();
    auto dst = out.local();
    std::copy(src.begin(), src.end(), dst.begin());
    ctx.charge_mem_bytes(static_cast<double>(src.size_bytes()));
    for (std::int64_t r = 0; r < rows; ++r) {
      fft_inplace(dst.subspan(static_cast<std::size_t>(r * n), static_cast<std::size_t>(n)));
    }
    ctx.charge_flops(static_cast<double>(rows) * fft_flops(n));
  };

  // Stage 2: histogram + group-wide reduction; the result is replicated
  // over the stage's subgroup.
  stages[2].name = "hist";
  stages[2].in_layout = [n](const ProcessorGroup& g) { return row_layout(g, n); };
  stages[2].out_layout = [bins](const ProcessorGroup& g) {
    return hist_layout(g, bins);
  };
  stages[2].run = [bins, max_mag, hist_sink](machine::Context& ctx, DistArray<Complex>& in,
                                             DistArray<Complex>& out, int k) {
    auto local_hist = magnitude_histogram(in.local(), bins, max_mag);
    ctx.charge_flops(histogram_flops(static_cast<std::int64_t>(in.local().size())));
    auto total = comm::allreduce_vector(ctx, in.group(), std::move(local_hist),
                                        std::plus<std::int64_t>{});
    auto sink = out.local();
    for (int b = 0; b < bins; ++b) {
      sink[static_cast<std::size_t>(b)] =
          Complex(static_cast<double>(total[static_cast<std::size_t>(b)]), 0.0);
    }
    if (hist_sink && in.group().virtual_of(ctx.phys_rank()) == 0) {
      (*hist_sink)[static_cast<std::size_t>(k)] = std::move(total);
    }
  };

  return stages;
}

sched::PipelineModel ffthist_model(const machine::MachineConfig& mcfg,
                                   const FftHistConfig& cfg) {
  const double n = static_cast<double>(cfg.n);
  const double elems = n * n;
  const double bytes = elems * static_cast<double>(sizeof(Complex));
  const double fft_work = n * fft_flops(cfg.n);  // n 1-D FFTs per direction

  sched::PipelineModel model;
  model.stages.resize(3);
  model.stages[0] = {"cffts", [=](int p) {
                       const double q = static_cast<double>(std::min<std::int64_t>(p, cfg.n));
                       return (kGenFlopsPerElem * elems + fft_work) * mcfg.flop_time / q;
                     }};
  model.stages[1] = {"rffts", [=](int p) {
                       const double q = static_cast<double>(std::min<std::int64_t>(p, cfg.n));
                       return fft_work * mcfg.flop_time / q +
                              bytes / q * mcfg.mem_byte_time;
                     }};
  model.stages[2] = {"hist", [=](int p) {
                       const double q = static_cast<double>(std::min<std::int64_t>(p, cfg.n));
                       return histogram_flops(static_cast<std::int64_t>(elems / q)) *
                                  mcfg.flop_time +
                              allreduce_time(mcfg, static_cast<double>(cfg.bins) * 8.0, p);
                     }};
  model.transfer = [=](int, int pu, int pd) {
    return redistribution_time(mcfg, bytes, pu, pd);
  };
  return model;
}

}  // namespace fxpar::apps
