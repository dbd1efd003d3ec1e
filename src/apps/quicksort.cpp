#include "apps/quicksort.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace fxpar::apps {

namespace {

using dist::DimDist;
using dist::DistArray;
using dist::Layout;
using machine::Context;
using pgroup::ProcessorGroup;

constexpr double kClassifyOpsPerElem = 3.0;
constexpr std::size_t kPivotSamples = 255;  // per member
constexpr double kSelectOpsPerSample = 2.0;  // nth_element's expected work
constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

Layout block1d(const ProcessorGroup& g, std::int64_t n) {
  return Layout(g, {n}, {DimDist::block()});
}

/// A scratch block of `bytes` borrowed from the machine's payload pool and
/// handed back by release() or on destruction, so repeated sorts reuse
/// buffers instead of faulting in fresh pages.
class PooledScratch {
 public:
  PooledScratch(machine::Machine& m, std::size_t bytes) : m_(m), buf_(m.pool_acquire(bytes)) {}
  ~PooledScratch() { release(); }
  void release() { m_.pool_release(std::exchange(buf_, machine::Payload{})); }
  PooledScratch(const PooledScratch&) = delete;
  PooledScratch& operator=(const PooledScratch&) = delete;

  /// Starts the lifetime of an uninitialized T[n] at byte `offset`. Pool
  /// buffers are operator-new aligned; `offset` must keep T aligned.
  template <typename T>
  T* array(std::size_t offset, std::size_t n) {
    if (n == 0) return nullptr;
    return ::new (static_cast<void*>(buf_.data() + offset)) T[n];
  }

 private:
  machine::Machine& m_;
  machine::Payload buf_;
};

/// Scatters the selected elements of every parent processor into `target`
/// (block-distributed over a subgroup of `parent`). `mine` holds this
/// processor's selected elements in local order; `counts[v]` the selection
/// count of parent virtual rank v (identical knowledge on every member, so
/// sender/receiver pairs are computed symmetrically and no empty messages
/// are exchanged — the paper's localization rule). Payloads are packed
/// straight from `mine` and copied straight into the target block; the
/// self part never leaves `mine`.
void scatter_selected(Context& ctx, const ProcessorGroup& parent,
                      std::span<const std::int64_t> mine,
                      const std::vector<std::int64_t>& counts, DistArray<std::int64_t>& target) {
  const int P = parent.size();
  const int me = parent.virtual_of(ctx.phys_rank());
  if (me < 0) throw std::logic_error("scatter_selected: caller outside parent group");
  std::vector<std::int64_t> off(static_cast<std::size_t>(P + 1), 0);
  for (int v = 0; v < P; ++v) off[static_cast<std::size_t>(v + 1)] = off[static_cast<std::size_t>(v)] + counts[static_cast<std::size_t>(v)];
  const std::uint64_t tag = ctx.collective_tag(parent);
  const Layout& tl = target.layout();
  const ProcessorGroup& tg = tl.group();

  // Send phase.
  const std::int64_t my_lo = off[static_cast<std::size_t>(me)];
  const std::int64_t my_hi = my_lo + static_cast<std::int64_t>(mine.size());
  for (int r = 0; r < tg.size(); ++r) {
    const auto runs = tl.owned_runs(r, 0);
    if (runs.empty()) continue;
    const std::int64_t lo = std::max(my_lo, runs.front().start);
    const std::int64_t hi = std::min(my_hi, runs.front().start + runs.front().len);
    if (lo >= hi) continue;
    const auto part = mine.subspan(static_cast<std::size_t>(lo - my_lo),
                                   static_cast<std::size_t>(hi - lo));
    ctx.charge_mem_bytes(static_cast<double>(part.size_bytes()));
    if (tg.physical(r) != ctx.phys_rank()) {
      ctx.send_phys(tg.physical(r), tag, comm::pack_span_pooled(ctx.machine(), part));
    }
  }

  // Receive phase.
  const int tme = tg.virtual_of(ctx.phys_rank());
  if (tme < 0) return;
  const auto my_runs = tl.owned_runs(tme, 0);
  if (my_runs.empty()) return;
  const std::int64_t lo = my_runs.front().start;
  const std::int64_t hi = lo + my_runs.front().len;
  std::int64_t* const local = target.local().data();
  for (int s = 0; s < P; ++s) {
    const std::int64_t s_lo = std::max(off[static_cast<std::size_t>(s)], lo);
    const std::int64_t s_hi = std::min(off[static_cast<std::size_t>(s + 1)], hi);
    if (s_lo >= s_hi) continue;
    const std::size_t bytes = static_cast<std::size_t>(s_hi - s_lo) * sizeof(std::int64_t);
    if (s == me) {
      ctx.charge_mem_bytes(static_cast<double>(bytes));
      std::memcpy(local + (s_lo - lo), mine.data() + (s_lo - my_lo), bytes);
      continue;
    }
    machine::Payload data = ctx.recv_phys(parent.physical(s), tag);
    if (data.size() != bytes) throw std::logic_error("scatter_selected: payload size mismatch");
    ctx.charge_mem_bytes(static_cast<double>(bytes));
    std::memcpy(local + (s_lo - lo), data.data(), bytes);
    ctx.machine().pool_release(std::move(data));
  }
}

/// Up to kPivotSamples evenly spaced keys of `block` (the midpoints of
/// equal strides): a pure function of the block's contents, so every
/// backend picks the same pivot.
std::vector<std::int64_t> pivot_sample(std::span<const std::int64_t> block) {
  const std::size_t m = block.size();
  const std::size_t k = std::min(kPivotSamples, m);
  std::vector<std::int64_t> s(k);
  for (std::size_t i = 0; i < k; ++i) s[i] = block[(2 * i + 1) * m / (2 * k)];
  return s;
}

/// Writes `pivot` into the global index range [first, first+count) of `a`
/// (purely local stores on the owners).
void write_pivot_range(DistArray<std::int64_t>& a, std::int64_t first, std::int64_t count,
                       std::int64_t pivot) {
  if (!a.is_member() || count == 0) return;
  const auto runs = a.layout().owned_runs(a.my_vrank(), 0);
  for (const auto& run : runs) {
    const std::int64_t lo = std::max(first, run.start);
    const std::int64_t hi = std::min(first + count, run.start + run.len);
    for (std::int64_t i = lo; i < hi; ++i) a.at(i) = pivot;
  }
}

}  // namespace

void leaf_sort(machine::Machine& m, std::span<std::int64_t> keys) {
  const std::size_t n = keys.size();
  if (n < kLeafRadixCutover) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  // A plain min/max loop vectorizes; std::minmax_element's iterator
  // tracking does not.
  std::int64_t lo = keys[0], hi = keys[0];
  for (const std::int64_t x : keys) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const std::uint64_t base = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - base;
  if (range == 0) return;
  const int passes = (std::bit_width(range) + kDigitBits - 1) / kDigitBits;
  constexpr std::uint64_t kMask = kBuckets - 1;

  // One pooled block: the per-pass count tables, then the ping-pong keys.
  const std::size_t table_words = static_cast<std::size_t>(passes) * kBuckets;
  PooledScratch scratch(m, (table_words + n) * sizeof(std::int64_t));
  std::uint64_t* const counts = scratch.array<std::uint64_t>(0, table_words);
  std::fill_n(counts, table_words, std::uint64_t{0});
  for (const std::int64_t x : keys) {
    const std::uint64_t u = static_cast<std::uint64_t>(x) - base;
    for (int p = 0; p < passes; ++p) {
      ++counts[static_cast<std::size_t>(p) * kBuckets + ((u >> (p * kDigitBits)) & kMask)];
    }
  }

  std::int64_t* from = keys.data();
  std::int64_t* to = scratch.array<std::int64_t>(table_words * sizeof(std::uint64_t), n);
  for (int p = 0; p < passes; ++p) {
    std::uint64_t* const c = counts + static_cast<std::size_t>(p) * kBuckets;
    const int shift = p * kDigitBits;
    // A digit every key shares moves nothing: skip the pass.
    if (c[((static_cast<std::uint64_t>(from[0]) - base) >> shift) & kMask] == n) continue;
    std::uint64_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t k = c[b];
      c[b] = sum;
      sum += k;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t x = from[i];
      to[c[((static_cast<std::uint64_t>(x) - base) >> shift) & kMask]++] = x;
    }
    std::swap(from, to);
  }
  if (from != keys.data()) std::memcpy(keys.data(), from, n * sizeof(std::int64_t));
}

void parallel_qsort(Context& ctx, DistArray<std::int64_t>& a) {
  if (a.layout().ndims() != 1) {
    throw std::invalid_argument("parallel_qsort: array '" + a.name() + "' must be 1-D, got " +
                                std::to_string(a.layout().ndims()) + "-D");
  }
  const std::int64_t n = a.layout().extent(0);
  if (n <= 1) return;
  const ProcessorGroup g = ctx.group();
  if (!(a.group() == g)) {
    throw std::logic_error("parallel_qsort: array must be mapped to the current group");
  }

  if (ctx.nprocs() == 1) {
    leaf_sort(ctx.machine(), a.local());
    ctx.charge_int_ops(2.0 * static_cast<double>(n) *
                       std::max(1.0, std::log2(static_cast<double>(n))));
    return;
  }

  // Pick the pivot as the median of every member's evenly spaced samples:
  // gathered at virtual rank 0, selected there and broadcast.
  const std::span<const std::int64_t> mine = a.local();
  std::vector<std::int64_t> samples = comm::gather_vectors(ctx, g, 0, pivot_sample(mine));
  std::int64_t median = 0;
  if (!samples.empty()) {  // non-empty exactly at the root: n > 1 keys exist
    const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    median = *mid;
    ctx.charge_int_ops(kSelectOpsPerSample * static_cast<double>(samples.size()));
  }
  const std::int64_t pivot = comm::broadcast(ctx, g, 0, median);

  // Classify local elements (order-preserving) into one pooled block: count
  // first, then fill — the less keys, then the greater. Each side has one
  // slack slot past its end, so the fill stores every key at both sides'
  // next index and advances each index by its comparison: no data-dependent
  // branch. (With pointer cursors GCC merged the two exclusive comparisons
  // back into one branch.)
  std::size_t nl = 0, ng = 0;
  for (const std::int64_t v : mine) {
    nl += v < pivot;
    ng += v > pivot;
  }
  PooledScratch selected(ctx.machine(), (nl + ng + 2) * sizeof(std::int64_t));
  std::int64_t* const lo = selected.array<std::int64_t>(0, nl + ng + 2);
  std::int64_t* const hi = lo + nl + 1;
  std::size_t il = 0, ig = 0;
  for (const std::int64_t v : mine) {
    lo[il] = v;
    hi[ig] = v;
    il += v < pivot;
    ig += v > pivot;
  }
  const std::span<std::int64_t> less(lo, nl);
  const std::span<std::int64_t> greater(hi, ng);
  const auto eq = static_cast<std::int64_t>(mine.size() - nl - ng);
  ctx.charge_int_ops(kClassifyOpsPerElem * static_cast<double>(mine.size()));

  // Exchange per-processor counts (an allgather of triples).
  std::vector<std::int64_t> triple{static_cast<std::int64_t>(nl), eq,
                                   static_cast<std::int64_t>(ng)};
  const auto gathered = comm::gather_vectors(ctx, g, 0, triple);
  const auto all_counts = comm::broadcast_vector(ctx, g, 0, gathered);
  const int P = g.size();
  std::vector<std::int64_t> less_cnt(static_cast<std::size_t>(P)),
      eq_cnt(static_cast<std::size_t>(P)), greater_cnt(static_cast<std::size_t>(P));
  std::int64_t n_less = 0, n_eq = 0, n_greater = 0;
  for (int v = 0; v < P; ++v) {
    less_cnt[static_cast<std::size_t>(v)] = all_counts[static_cast<std::size_t>(3 * v)];
    eq_cnt[static_cast<std::size_t>(v)] = all_counts[static_cast<std::size_t>(3 * v + 1)];
    greater_cnt[static_cast<std::size_t>(v)] = all_counts[static_cast<std::size_t>(3 * v + 2)];
    n_less += less_cnt[static_cast<std::size_t>(v)];
    n_eq += eq_cnt[static_cast<std::size_t>(v)];
    n_greater += greater_cnt[static_cast<std::size_t>(v)];
  }

  if (n_less == 0 && n_greater == 0) return;  // all keys equal: sorted

  if (n_less == 0 || n_greater == 0) {
    // One-sided: recurse on the non-empty side with the whole group (the
    // equal keys peel off, so the problem strictly shrinks).
    const bool less_side = n_less > 0;
    auto& src_counts = less_side ? less_cnt : greater_cnt;
    const std::int64_t m = less_side ? n_less : n_greater;
    DistArray<std::int64_t> rest(ctx, block1d(g, m), "qsort.rest");
    scatter_selected(ctx, g, less_side ? less : greater, src_counts, rest);
    selected.release();
    parallel_qsort(ctx, rest);
    if (less_side) {
      dist::assign_shifted(ctx, a, {0}, rest);
      write_pivot_range(a, m, n_eq, pivot);
    } else {
      write_pivot_range(a, 0, n_eq, pivot);
      dist::assign_shifted(ctx, a, {n_eq}, rest);
    }
    return;
  }

  // compute_subgroup_sizes: processors proportional to the two halves.
  const auto sizes = pgroup::proportional_split(
      P, {static_cast<double>(n_less), static_cast<double>(n_greater)});
  core::TaskPartition part(ctx, {{"less", sizes[0]}, {"greater", sizes[1]}}, "qsortPart");
  auto a_less =
      core::subgroup_array<std::int64_t>(ctx, part, "less", {n_less},
                                         {DimDist::block()}, "aLess");
  auto a_greater =
      core::subgroup_array<std::int64_t>(ctx, part, "greater", {n_greater},
                                         {DimDist::block()}, "aGreaterEq");

  // pick_less_than_pivot / pick_greater_...: value-dependent redistribution.
  scatter_selected(ctx, g, less, less_cnt, a_less);
  scatter_selected(ctx, g, greater, greater_cnt, a_greater);
  selected.release();

  {
    core::TaskRegion region(ctx, part);
    region.on("less", [&] { parallel_qsort(ctx, a_less); });
    region.on("greater", [&] { parallel_qsort(ctx, a_greater); });

    // merge_result (parent scope): sorted less block, pivot run, sorted
    // greater block.
    dist::assign_shifted(ctx, a, {0}, a_less);
    write_pivot_range(a, n_less, n_eq, pivot);
    dist::assign_shifted(ctx, a, {n_less + n_eq}, a_greater);
  }
}

std::vector<std::int64_t> qsort_input(std::int64_t n, unsigned seed) {
  if (n < 0) throw std::invalid_argument("qsort_input: n must be >= 0, got " + std::to_string(n));
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
  for (auto& x : v) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    x = static_cast<std::int64_t>(h % static_cast<std::uint64_t>(std::max<std::int64_t>(n, 2)));
  }
  return v;
}

QsortResult run_parallel_qsort(const machine::MachineConfig& mcfg,
                               const std::vector<std::int64_t>& input) {
  QsortResult res;
  machine::Machine machine(mcfg);
  const std::int64_t n = static_cast<std::int64_t>(input.size());
  res.machine_result = machine.run([&](Context& ctx) {
    DistArray<std::int64_t> a(ctx, block1d(ctx.group(), n), "a");
    a.fill([&](std::span<const std::int64_t> g) {
      return input[static_cast<std::size_t>(g[0])];
    });
    parallel_qsort(ctx, a);
    auto sorted = dist::gather_full(ctx, a, 0);
    if (ctx.phys_rank() == 0) res.sorted = std::move(sorted);
  });
  return res;
}

}  // namespace fxpar::apps
