#include "apps/quicksort.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <new>
#include <optional>
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

/// `count` copies of `key`: the keys equal to one level's pivot.
struct PivotRun {
  std::int64_t key;
  std::int64_t count;
};

/// A read-only stretch of a sequence: the runs in `head`, then `keys`, then
/// the runs in `tail`.
struct PieceView {
  std::span<const PivotRun> head;
  std::span<const std::int64_t> keys;
  std::span<const PivotRun> tail;

  std::int64_t size() const {
    std::int64_t n = static_cast<std::int64_t>(keys.size());
    for (const PivotRun& r : head) n += r.count;
    for (const PivotRun& r : tail) n += r.count;
    return n;
  }

  /// Writes elements [from, from + count) of the stretch to `dst`.
  void copy(std::int64_t from, std::int64_t count, std::int64_t* dst) const {
    const auto take = [&](std::int64_t len, auto&& write) {
      if (from >= len) {
        from -= len;
        return;
      }
      const std::int64_t k = std::min(count, len - from);
      write(from, k);
      dst += k;
      count -= k;
      from = 0;
    };
    const auto runs = [&](std::span<const PivotRun> rs) {
      for (const PivotRun& r : rs) {
        take(r.count, [&](std::int64_t, std::int64_t k) { std::fill_n(dst, k, r.key); });
      }
    };
    runs(head);
    take(static_cast<std::int64_t>(keys.size()), [&](std::int64_t at, std::int64_t k) {
      if (k > 0) {
        std::memcpy(dst, keys.data() + at, static_cast<std::size_t>(k) * sizeof(std::int64_t));
      }
    });
    runs(tail);
  }
};

/// One rank's share of its group's sorted keys, in virtual rank order.
/// `keys` is a leaf array's block, moved up the recursion, never copied.
struct Piece {
  std::vector<PivotRun> head;
  std::vector<std::int64_t> keys;
  std::vector<PivotRun> tail;

  PieceView view() const { return {head, keys, tail}; }
};

/// Calls fn(global_start, length, local_offset) for each overlap of the
/// global range [lo, hi) with `runs`, one member's ascending owned runs of
/// a 1-D layout; local_offset is the overlap's index in its local block.
template <typename Fn>
void for_each_overlap(const std::vector<dist::IndexRun>& runs, std::int64_t lo, std::int64_t hi,
                      Fn&& fn) {
  std::int64_t local = 0;
  for (const dist::IndexRun& r : runs) {
    if (r.start >= hi) break;
    const std::int64_t s = std::max(lo, r.start);
    const std::int64_t e = std::min(hi, r.start + r.len);
    if (s < e) fn(s, e - s, local + (s - r.start));
    local += r.len;
  }
}

std::int64_t overlap_length(const std::vector<dist::IndexRun>& runs, std::int64_t lo,
                            std::int64_t hi) {
  std::int64_t n = 0;
  for_each_overlap(runs, lo, hi, [&](std::int64_t, std::int64_t k, std::int64_t) { n += k; });
  return n;
}

/// Scatters a sequence held in pieces, one per member of `parent` in virtual
/// rank order, into `target`: any 1-D layout over `parent` or a subgroup of
/// it. `mine` is this processor's piece; `counts[v]` the length of parent
/// virtual rank v's (identical knowledge on every member, so sender/receiver
/// pairs are computed symmetrically and no empty messages are exchanged —
/// the paper's localization rule). Payloads are packed straight from the
/// pieces and copied straight into the target block; the self part goes
/// straight across.
void scatter_piece(Context& ctx, const ProcessorGroup& parent, const PieceView& mine,
                   const std::vector<std::int64_t>& counts, DistArray<std::int64_t>& target) {
  const int P = parent.size();
  const int me = parent.virtual_of(ctx.phys_rank());
  if (me < 0) throw std::logic_error("scatter_piece: caller outside parent group");
  std::vector<std::int64_t> off(static_cast<std::size_t>(P + 1), 0);
  for (int v = 0; v < P; ++v) off[static_cast<std::size_t>(v + 1)] = off[static_cast<std::size_t>(v)] + counts[static_cast<std::size_t>(v)];
  const std::uint64_t tag = ctx.collective_tag(parent);
  const Layout& tl = target.layout();
  const ProcessorGroup& tg = tl.group();
  constexpr auto kKey = static_cast<std::int64_t>(sizeof(std::int64_t));

  // Send phase.
  const std::int64_t my_lo = off[static_cast<std::size_t>(me)];
  const std::int64_t my_hi = off[static_cast<std::size_t>(me + 1)];
  for (int r = 0; r < tg.size(); ++r) {
    const auto runs = tl.owned_runs(r, 0);
    const std::int64_t len = overlap_length(runs, my_lo, my_hi);
    if (len == 0) continue;
    ctx.charge_mem_bytes(static_cast<double>(len * kKey));
    if (tg.physical(r) == ctx.phys_rank()) continue;
    machine::Payload p = ctx.machine().pool_acquire(static_cast<std::size_t>(len * kKey));
    std::int64_t* dst = ::new (static_cast<void*>(p.data())) std::int64_t[len];
    for_each_overlap(runs, my_lo, my_hi, [&](std::int64_t g, std::int64_t k, std::int64_t) {
      mine.copy(g - my_lo, k, dst);
      dst += k;
    });
    ctx.send_phys(tg.physical(r), tag, std::move(p));
  }

  // Receive phase.
  const int tme = tg.virtual_of(ctx.phys_rank());
  if (tme < 0) return;
  const auto my_runs = tl.owned_runs(tme, 0);
  std::int64_t* const local = target.local().data();
  for (int s = 0; s < P; ++s) {
    const std::int64_t s_lo = off[static_cast<std::size_t>(s)];
    const std::int64_t s_hi = off[static_cast<std::size_t>(s + 1)];
    const std::int64_t len = overlap_length(my_runs, s_lo, s_hi);
    if (len == 0) continue;
    ctx.charge_mem_bytes(static_cast<double>(len * kKey));
    if (s == me) {
      for_each_overlap(my_runs, s_lo, s_hi, [&](std::int64_t g, std::int64_t k, std::int64_t l) {
        mine.copy(g - s_lo, k, local + l);
      });
      continue;
    }
    machine::Payload data = ctx.recv_phys(parent.physical(s), tag);
    if (static_cast<std::int64_t>(data.size()) != len * kKey) {
      throw std::logic_error("scatter_piece: payload size mismatch");
    }
    const std::byte* src = data.data();
    for_each_overlap(my_runs, s_lo, s_hi, [&](std::int64_t, std::int64_t k, std::int64_t l) {
      std::memcpy(local + l, src, static_cast<std::size_t>(k * kKey));
      src += k * kKey;
    });
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

namespace {

/// Sorts the one-member group's whole array `a` in place.
void sort_leaf(Context& ctx, DistArray<std::int64_t>& a) {
  const std::int64_t n = a.layout().extent(0);
  leaf_sort(ctx.machine(), a.local());
  ctx.charge_int_ops(2.0 * static_cast<double>(n) *
                     std::max(1.0, std::log2(static_cast<double>(n))));
}

Piece sort_piece(Context& ctx, DistArray<std::int64_t>& a);

/// One partition level of `a` (1-D, over the current group of two or more
/// members): picks the pivot, classifies, scatters each side into a fresh
/// array and recurses. Returns this rank's piece of the sorted keys, or
/// nothing when every key equals the pivot (`a` is sorted as it stands).
std::optional<Piece> partition_level(Context& ctx, DistArray<std::int64_t>& a) {
  const ProcessorGroup g = ctx.group();
  const int P = g.size();
  const int me = g.virtual_of(ctx.phys_rank());
  // The middle member roots this level's gathers and broadcasts. In a
  // balanced binary split no rank is then the root at two levels, so the
  // root's extra work does not pile up on one rank.
  const int root = (P - 1) / 2;

  // Pick the pivot as the median of every member's evenly spaced samples:
  // gathered at the root, selected there and broadcast.
  const std::span<const std::int64_t> mine = a.local();
  std::vector<std::int64_t> samples = comm::gather_vectors(ctx, g, root, pivot_sample(mine));
  std::int64_t median = 0;
  if (!samples.empty()) {  // non-empty exactly at the root: n > 1 keys exist
    const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    median = *mid;
    ctx.charge_int_ops(kSelectOpsPerSample * static_cast<double>(samples.size()));
  }
  const std::int64_t pivot = comm::broadcast(ctx, g, root, median);

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
  const std::span<const std::int64_t> less(lo, nl);
  const std::span<const std::int64_t> greater(hi, ng);
  const auto eq = static_cast<std::int64_t>(mine.size() - nl - ng);
  ctx.charge_int_ops(kClassifyOpsPerElem * static_cast<double>(mine.size()));

  // Exchange per-processor counts (an allgather of triples).
  std::vector<std::int64_t> triple{static_cast<std::int64_t>(nl), eq,
                                   static_cast<std::int64_t>(ng)};
  const auto gathered = comm::gather_vectors(ctx, g, root, triple);
  const auto all_counts = comm::broadcast_vector(ctx, g, root, gathered);
  std::vector<std::int64_t> less_cnt(static_cast<std::size_t>(P)),
      greater_cnt(static_cast<std::size_t>(P));
  std::int64_t n_less = 0, n_eq = 0, n_greater = 0;
  for (int v = 0; v < P; ++v) {
    less_cnt[static_cast<std::size_t>(v)] = all_counts[static_cast<std::size_t>(3 * v)];
    greater_cnt[static_cast<std::size_t>(v)] = all_counts[static_cast<std::size_t>(3 * v + 2)];
    n_less += less_cnt[static_cast<std::size_t>(v)];
    n_eq += all_counts[static_cast<std::size_t>(3 * v + 1)];
    n_greater += greater_cnt[static_cast<std::size_t>(v)];
  }
  const PivotRun eq_run{pivot, n_eq};

  if (n_less == 0 && n_greater == 0) return std::nullopt;  // all keys equal

  if (n_less == 0 || n_greater == 0) {
    // One-sided: recurse on the non-empty side with the whole group (the
    // equal keys peel off, so the problem strictly shrinks). The equal run
    // joins the last member's piece after the less keys, or the first
    // member's before the greater keys.
    const bool less_side = n_less > 0;
    DistArray<std::int64_t> rest(ctx, block1d(g, less_side ? n_less : n_greater), "qsort.rest");
    scatter_piece(ctx, g, {{}, less_side ? less : greater, {}},
                  less_side ? less_cnt : greater_cnt, rest);
    selected.release();
    Piece piece = sort_piece(ctx, rest);
    if (less_side && me == P - 1) piece.tail.push_back(eq_run);
    if (!less_side && me == 0) piece.head.insert(piece.head.begin(), eq_run);
    return piece;
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
  scatter_piece(ctx, g, {{}, less, {}}, less_cnt, a_less);
  scatter_piece(ctx, g, {{}, greater, {}}, greater_cnt, a_greater);
  selected.release();

  Piece piece;
  {
    core::TaskRegion region(ctx, part);
    region.on("less", [&] { piece = sort_piece(ctx, a_less); });
    region.on("greater", [&] { piece = sort_piece(ctx, a_greater); });
  }
  // The pieces stay where the subgroups sorted them; the equal run joins
  // the less side's last member.
  if (me == sizes[0] - 1) piece.tail.push_back(eq_run);
  return piece;
}

/// Sorts `a` (1-D BLOCK over the current group) and returns this rank's
/// piece of the result. A leaf — one member, at most one key, or all keys
/// equal — hands up its own block, moved out of `a`.
Piece sort_piece(Context& ctx, DistArray<std::int64_t>& a) {
  const std::int64_t n = a.layout().extent(0);
  if (n > 1 && ctx.nprocs() > 1) {
    if (auto piece = partition_level(ctx, a)) return std::move(*piece);
  } else if (n > 1) {
    sort_leaf(ctx, a);
  }
  return {{}, a.release_local(), {}};
}

}  // namespace

void parallel_qsort(Context& ctx, DistArray<std::int64_t>& a) {
  if (a.layout().ndims() != 1) {
    throw std::invalid_argument("parallel_qsort: array '" + a.name() + "' must be 1-D, got " +
                                std::to_string(a.layout().ndims()) + "-D");
  }
  if (a.layout().extent(0) <= 1) return;
  const ProcessorGroup g = ctx.group();
  if (!(a.group() == g)) {
    throw std::logic_error("parallel_qsort: array must be mapped to the current group");
  }
  if (ctx.nprocs() == 1) {
    sort_leaf(ctx, a);
    return;
  }

  const std::optional<Piece> piece = partition_level(ctx, a);
  if (!piece) return;
  // The pieces lie in virtual rank order, in whatever lengths the leaves
  // came out: learn every piece's length and place them into `a` with one
  // exchange.
  std::vector<std::int64_t> lens(static_cast<std::size_t>(g.size()), 0);
  lens[static_cast<std::size_t>(g.virtual_of(ctx.phys_rank()))] = piece->view().size();
  lens = comm::allreduce_vector(ctx, g, std::move(lens), std::plus<>());
  scatter_piece(ctx, g, piece->view(), lens, a);
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
