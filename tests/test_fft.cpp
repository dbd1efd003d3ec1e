// Tests for the sequential FFT / histogram kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <latch>
#include <random>
#include <thread>

#include "apps/fft.hpp"

namespace ap = fxpar::apps;
using ap::Complex;

namespace {

std::vector<Complex> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<Complex> v(n);
  for (auto& z : v) z = Complex(d(rng), d(rng));
  return v;
}

bool bit_equal(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

double max_abs_diff(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> v(8, Complex(0, 0));
  v[0] = Complex(1, 0);
  ap::fft_inplace(v);
  for (const auto& z : v) {
    EXPECT_NEAR(z.real(), 1.0, 1e-12);
    EXPECT_NEAR(z.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantGivesDelta) {
  std::vector<Complex> v(16, Complex(1, 0));
  ap::fft_inplace(v);
  EXPECT_NEAR(v[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t kN = 64;
  constexpr int kTone = 5;
  std::vector<Complex> v(kN);
  for (std::size_t t = 0; t < kN; ++t) {
    const double ang = 2.0 * M_PI * kTone * static_cast<double>(t) / kN;
    v[t] = Complex(std::cos(ang), std::sin(ang));
  }
  ap::fft_inplace(v);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_NEAR(std::abs(v[k]), k == kTone ? 64.0 : 0.0, 1e-9) << "bin " << k;
  }
}

class FftVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsDft, MatchesNaiveDft) {
  const auto sig = random_signal(GetParam(), 42);
  auto fast = sig;
  ap::fft_inplace(fast);
  const auto slow = ap::naive_dft(sig);
  EXPECT_LT(max_abs_diff(fast, slow), 1e-9);
}

TEST_P(FftVsDft, InverseRoundTrips) {
  const auto sig = random_signal(GetParam(), 7);
  auto v = sig;
  ap::fft_inplace(v, false);
  ap::fft_inplace(v, true);
  EXPECT_LT(max_abs_diff(v, sig), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, FftVsDft,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 256, 1024));

TEST(Fft, NonPow2Rejected) {
  std::vector<Complex> v(12);
  EXPECT_THROW(ap::fft_inplace(v), std::invalid_argument);
}

TEST(Fft, StridedMatchesContiguous) {
  constexpr std::size_t kRows = 8, kCols = 4;
  auto mat = random_signal(kRows * kCols, 3);
  auto expect = mat;
  // Column FFT via explicit copy.
  for (std::size_t c = 0; c < kCols; ++c) {
    std::vector<Complex> col(kRows);
    for (std::size_t r = 0; r < kRows; ++r) col[r] = expect[r * kCols + c];
    ap::fft_inplace(col);
    for (std::size_t r = 0; r < kRows; ++r) expect[r * kCols + c] = col[r];
  }
  for (std::size_t c = 0; c < kCols; ++c) {
    ap::fft_strided(mat, c, kCols, kRows);
  }
  EXPECT_LT(max_abs_diff(mat, expect), 1e-12);
}

class FftColumns
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, bool>> {};

// The batched kernel gives each column exactly the operations of a lone 1-D
// transform, so it must agree with the per-column paths bit for bit.
TEST_P(FftColumns, BitIdenticalToPerColumnTransforms) {
  const auto [rows, cols, inverse] = GetParam();
  const auto mat = random_signal(rows * cols, 5);
  auto batched = mat;
  ap::fft_columns(batched, rows, cols, inverse);
  auto strided = mat;
  for (std::size_t c = 0; c < cols; ++c) ap::fft_strided(strided, c, cols, rows, inverse);
  EXPECT_TRUE(bit_equal(batched, strided));
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<Complex> col(rows), got(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      col[r] = mat[r * cols + c];
      got[r] = batched[r * cols + c];
    }
    ap::fft_inplace(col, inverse);
    EXPECT_TRUE(bit_equal(col, got)) << "column " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FftColumns,
                         ::testing::Combine(::testing::Values(1, 2, 8, 256),
                                            ::testing::Values(1, 3, 64), ::testing::Bool()));

TEST(Fft, ColumnsRejectBadShapes) {
  std::vector<Complex> v(48);
  EXPECT_THROW(ap::fft_columns(v, 12, 4), std::invalid_argument);
  EXPECT_THROW(ap::fft_columns(v, 16, 4), std::out_of_range);
  EXPECT_NO_THROW(ap::fft_columns(v, 16, 3));
}

// Plans for new sizes are built and published by whichever thread gets
// there first; every thread must see a complete plan and the same result.
TEST(Fft, ConcurrentFirstUseMatchesSingleThreaded) {
  constexpr std::size_t kRows[] = {512, 2048, 4096, 8192};
  constexpr std::size_t kCols = 4;
  std::vector<std::vector<Complex>> got(4), want(4);
  std::vector<std::thread> threads;
  std::latch start(4);
  for (std::size_t t = 0; t < 4; ++t) {
    got[t] = random_signal(kRows[t] * kCols, 100 + static_cast<unsigned>(t));
    want[t] = got[t];
  }
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Every thread walks all four sizes, so each plan has racing builders.
      for (std::size_t s = 0; s < 4; ++s) {
        auto scratch = random_signal(kRows[s], 7);
        ap::fft_inplace(scratch);
      }
      ap::fft_columns(got[t], kRows[t], kCols);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    ap::fft_columns(want[t], kRows[t], kCols);
    EXPECT_TRUE(bit_equal(got[t], want[t])) << "rows " << kRows[t];
  }
}

TEST(Fft, StridedBoundsChecked) {
  std::vector<Complex> v(8);
  EXPECT_THROW(ap::fft_strided(v, 0, 0, 4), std::invalid_argument);
  EXPECT_THROW(ap::fft_strided(v, 4, 2, 4), std::out_of_range);
}

TEST(Fft, FlopModelScalesNLogN) {
  EXPECT_DOUBLE_EQ(ap::fft_flops(1), 0.0);
  EXPECT_DOUBLE_EQ(ap::fft_flops(8), 5.0 * 8 * 3);
  EXPECT_GT(ap::fft_flops(1024), ap::fft_flops(512) * 2.0);
}

TEST(Histogram, CountsFallInRightBuckets) {
  std::vector<Complex> v{{0.1, 0.0}, {0.9, 0.0}, {1.9, 0.0}, {5.0, 0.0}};
  const auto h = ap::magnitude_histogram(v, 2, 2.0);
  // bins: [0,1) and [1,2); 5.0 clamps into the last bin.
  EXPECT_EQ(h, (std::vector<std::int64_t>{2, 2}));
}

TEST(Histogram, TotalAlwaysMatchesInput) {
  const auto sig = random_signal(1000, 11);
  const auto h = ap::magnitude_histogram(sig, 16, 1.5);
  std::int64_t total = 0;
  for (auto c : h) total += c;
  EXPECT_EQ(total, 1000);
}

TEST(Histogram, Errors) {
  std::vector<Complex> v(4);
  EXPECT_THROW(ap::magnitude_histogram(v, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(ap::magnitude_histogram(v, 4, 0.0), std::invalid_argument);
}

TEST(IsPow2, Basics) {
  EXPECT_TRUE(ap::is_pow2(1));
  EXPECT_TRUE(ap::is_pow2(1024));
  EXPECT_FALSE(ap::is_pow2(0));
  EXPECT_FALSE(ap::is_pow2(-8));
  EXPECT_FALSE(ap::is_pow2(12));
}
