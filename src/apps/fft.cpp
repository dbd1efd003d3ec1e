#include "apps/fft.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace fxpar::apps {

bool is_pow2(std::int64_t n) { return n > 0 && (n & (n - 1)) == 0; }

namespace {

/// Twiddle and bit-reversal tables for one power-of-two transform size,
/// built on first use and shared by every thread for the process lifetime.
struct FftPlan {
  // exp(-2 pi i k / len) for k < len/2, stage `len` stored at [len/2 - 1,
  // len - 1): each pass reads its twiddles contiguously.
  std::vector<double> wr, wi;
  // Bit-reversal permutation as (i, j) pairs with i < j.
  std::vector<std::pair<std::size_t, std::size_t>> swaps;
};

FftPlan build_plan(std::size_t n) {
  FftPlan plan;
  plan.wr.reserve(n);
  plan.wi.reserve(n);
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t k = 0; k < half; ++k) {
      const double ang = -std::numbers::pi * static_cast<double>(k) / static_cast<double>(half);
      plan.wr.push_back(std::cos(ang));
      plan.wi.push_back(std::sin(ang));
    }
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) plan.swaps.emplace_back(i, j);
  }
  return plan;
}

/// One slot per log2(n), over std::countr_zero's full range 0..64. A plan is
/// published with a compare-and-swap and never freed, so lookups take no
/// lock (a forked child can never inherit a held one) and, after the first
/// call for a size, allocate nothing.
std::array<std::atomic<const FftPlan*>, 65> g_plans{};

const FftPlan& plan_for(std::size_t n) {
  std::atomic<const FftPlan*>& slot = g_plans[static_cast<std::size_t>(std::countr_zero(n))];
  const FftPlan* plan = slot.load(std::memory_order_acquire);
  if (plan != nullptr) return *plan;
  auto fresh = std::make_unique<const FftPlan>(build_plan(n));
  if (slot.compare_exchange_strong(plan, fresh.get(), std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *plan;  // another thread published first
}

/// The radix-2 butterfly between rows x (top) and y (bottom) of `cols`
/// interleaved complex values, twiddle (wr, wi).
void butterfly_rows(double* x, double* y, std::size_t cols, double wr, double wi) {
  for (std::size_t c = 0; c < 2 * cols; c += 2) {
    const double yr = y[c], yi = y[c + 1];
    const double vr = yr * wr - yi * wi;
    const double vi = yr * wi + yi * wr;
    const double xr = x[c], xi = x[c + 1];
    x[c] = xr + vr;
    x[c + 1] = xi + vi;
    y[c] = xr - vr;
    y[c + 1] = xi - vi;
  }
}

}  // namespace

void fft_columns(std::span<Complex> data, std::size_t rows, std::size_t cols, bool inverse) {
  if (!is_pow2(static_cast<std::int64_t>(rows))) {
    throw std::invalid_argument("fft_columns: rows must be a power of two");
  }
  if (cols == 0) return;
  if (data.size() / cols < rows) throw std::out_of_range("fft_columns: span too small");
  const FftPlan& plan = plan_for(rows);
  // std::complex<double> may be accessed as double[2] ([complex.numbers]).
  double* a = reinterpret_cast<double*>(data.data());
  const std::size_t width = 2 * cols;  // doubles per row
  for (const auto& [i, j] : plan.swaps) {
    std::swap_ranges(a + i * width, a + (i + 1) * width, a + j * width);
  }
  const double sign = inverse ? -1.0 : 1.0;
  for (std::size_t half = 1; half < rows; half <<= 1) {
    const double* wr = plan.wr.data() + (half - 1);
    const double* wi = plan.wi.data() + (half - 1);
    for (std::size_t i = 0; i < rows; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        butterfly_rows(a + (i + k) * width, a + (i + k + half) * width, cols, wr[k],
                       sign * wi[k]);
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(rows);
    for (std::size_t e = 0; e < rows * width; ++e) a[e] *= scale;
  }
}

void fft_inplace(std::span<Complex> data, bool inverse) {
  fft_columns(data, data.size(), 1, inverse);
}

std::vector<Complex> naive_dft(std::span<const Complex> data, bool inverse) {
  const std::size_t n = data.size();
  std::vector<Complex> out(n);
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang =
          sign * std::numbers::pi * static_cast<double>(k * j) / static_cast<double>(n);
      acc += data[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

void fft_strided(std::span<Complex> data, std::size_t offset, std::size_t stride,
                 std::size_t n, bool inverse) {
  if (stride == 0) throw std::invalid_argument("fft_strided: zero stride");
  if (offset + (n - 1) * stride >= data.size()) {
    throw std::out_of_range("fft_strided: span too small");
  }
  if (stride == 1) {
    fft_inplace(data.subspan(offset, n), inverse);
    return;
  }
  std::vector<Complex> tmp(n);
  for (std::size_t k = 0; k < n; ++k) tmp[k] = data[offset + k * stride];
  fft_inplace(tmp, inverse);
  for (std::size_t k = 0; k < n; ++k) data[offset + k * stride] = tmp[k];
}

double fft_flops(std::int64_t n) {
  if (n <= 1) return 0.0;
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

std::vector<std::int64_t> magnitude_histogram(std::span<const Complex> data, int bins,
                                              double max_mag) {
  if (bins <= 0) throw std::invalid_argument("magnitude_histogram: bins must be positive");
  if (max_mag <= 0.0) throw std::invalid_argument("magnitude_histogram: max_mag must be positive");
  std::vector<std::int64_t> hist(static_cast<std::size_t>(bins), 0);
  for (const Complex& z : data) {
    const double m = std::abs(z);
    int b = static_cast<int>(m / max_mag * static_cast<double>(bins));
    if (b >= bins) b = bins - 1;
    if (b < 0) b = 0;
    hist[static_cast<std::size_t>(b)] += 1;
  }
  return hist;
}

double histogram_flops(std::int64_t n) {
  // magnitude (sqrt + 2 mul + add) + scale + clamp ~ 8 ops per element.
  return 8.0 * static_cast<double>(n);
}

}  // namespace fxpar::apps
