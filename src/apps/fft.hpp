// fxpar apps: sequential FFT and histogram kernels.
//
// These run on each simulated processor's local data. Each helper both
// computes real values (so tests can verify numerics end to end) and
// returns the floating-point operation count its caller should charge to
// the virtual clock (the standard 5 n log2 n accounting for a radix-2
// complex FFT).
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace fxpar::apps {

using Complex = std::complex<double>;

/// In-place radix-2 complex FFTs down the columns of a row-major block:
/// `rows`-point transforms of each of the `cols` interleaved columns of
/// data[0, rows * cols). `rows` must be a power of two. `inverse` applies the
/// conjugate transform including the 1/rows scale. Each column undergoes
/// exactly the operations of a lone 1-D transform, so the result is
/// bit-identical to transforming the columns one at a time.
void fft_columns(std::span<Complex> data, std::size_t rows, std::size_t cols,
                 bool inverse = false);

/// In-place 1-D FFT: fft_columns(data, data.size(), 1, inverse).
void fft_inplace(std::span<Complex> data, bool inverse = false);

/// Reference O(n^2) DFT for testing.
std::vector<Complex> naive_dft(std::span<const Complex> data, bool inverse = false);

/// Strided in-place FFT over data[offset + k*stride], k in [0, n), run
/// through the same kernel on a gathered copy of the column.
void fft_strided(std::span<Complex> data, std::size_t offset, std::size_t stride,
                 std::size_t n, bool inverse = false);

/// Modeled flop cost of one n-point complex FFT.
double fft_flops(std::int64_t n);

/// Histogram of |z| over [0, max_mag) into `bins` buckets; values at or
/// beyond max_mag land in the last bucket.
std::vector<std::int64_t> magnitude_histogram(std::span<const Complex> data, int bins,
                                              double max_mag);

/// Modeled flop cost of histogramming n elements.
double histogram_flops(std::int64_t n);

/// True if `n` is a power of two (and positive).
bool is_pow2(std::int64_t n);

}  // namespace fxpar::apps
