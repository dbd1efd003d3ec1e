#include "dist/plan_cache.hpp"

#include <array>
#include <utility>

namespace fxpar::dist::plan {

namespace {

// FNV-1a over the key words.
std::size_t hash_words(const std::vector<std::int64_t>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t w : words) {
    std::uint64_t u = static_cast<std::uint64_t>(w);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

std::size_t PlanCache::KeyHash::operator()(const Key& k) const noexcept {
  return hash_words(k.blob);
}

void PlanCache::append_layout(std::vector<std::int64_t>& blob, const Layout& l) {
  blob.push_back(l.group().size());
  for (int p : l.group().members()) blob.push_back(p);
  blob.push_back(l.ndims());
  for (int d = 0; d < l.ndims(); ++d) {
    const DimDist& dd = l.dim_dist(d);
    blob.push_back(l.extent(d));
    blob.push_back(static_cast<std::int64_t>(dd.kind()));
    blob.push_back(dd.distributed() ? dd.block_size(l.extent(d), l.procs_along(d)) : 0);
    blob.push_back(l.procs_along(d));  // captures explicit grid extents
  }
}

PlanCache::Key PlanCache::redist_key(const Layout& src, const Layout& dst,
                                     const std::vector<int>& perm,
                                     const std::vector<std::int64_t>& offsets) {
  Key k;
  k.blob.reserve(2 * (4 + 4 * static_cast<std::size_t>(src.ndims())) + perm.size() +
                 offsets.size() + 2);
  append_layout(k.blob, src);
  append_layout(k.blob, dst);
  for (int p : perm) k.blob.push_back(p);
  for (std::int64_t o : offsets) k.blob.push_back(o);
  return k;
}

std::shared_ptr<const RedistSchedule> PlanCache::redist(machine::Machine& m, const Layout& src,
                                                        const Layout& dst,
                                                        const std::vector<int>& perm,
                                                        const std::vector<int>& inv_perm,
                                                        const std::vector<std::int64_t>& offsets) {
  Key key = redist_key(src, dst, perm, offsets);
  std::lock_guard<std::mutex> lk(mu_);
  return m.memo_plan(machine::PlanKind::Redist, redist_, std::move(key), kMaxEntries,
                     [&] { return build_redist_schedule(src, dst, perm, inv_perm, offsets); });
}

std::shared_ptr<const HaloSchedule> PlanCache::halo(machine::Machine& m, const Layout& layout,
                                                    int halo) {
  Key key;
  append_layout(key.blob, layout);
  key.blob.push_back(halo);
  std::lock_guard<std::mutex> lk(mu_);
  return m.memo_plan(machine::PlanKind::Redist, halo_, std::move(key), kMaxEntries,
                     [&] { return build_halo_schedule(layout, halo); });
}

std::shared_ptr<const RedistSchedule> build_redist_schedule(
    const Layout& src, const Layout& dst, const std::vector<int>& perm,
    const std::vector<int>& inv_perm, const std::vector<std::int64_t>& offsets) {
  auto sched = std::make_shared<RedistSchedule>();
  sched->ugroup = union_group(src.group(), dst.group());
  sched->src_replicated = src.fully_replicated();
  sched->nsenders = sched->src_replicated ? 1 : src.group().size();
  sched->nreceivers = dst.group().size();
  sched->pairs.resize(static_cast<std::size_t>(sched->nsenders) *
                      static_cast<std::size_t>(sched->nreceivers));

  const int nd = src.ndims();
  bool identity = true;
  for (int dd = 0; dd < nd; ++dd) identity &= (perm[static_cast<std::size_t>(dd)] == dd);
  // The destination dimension whose index varies along an innermost source
  // run; its receiver-local stride spaces the unpacked elements.
  const int var_dd = inv_perm[static_cast<std::size_t>(nd - 1)];

  std::vector<std::int64_t> gidx(static_cast<std::size_t>(nd), 0);
  std::vector<std::int64_t> didx(static_cast<std::size_t>(nd), 0);
  for (int s = 0; s < sched->nsenders; ++s) {
    for (int r = 0; r < sched->nreceivers; ++r) {
      const detail::TransferPlan tp = detail::build_plan(src, s, dst, r, inv_perm, offsets);
      FlatPlan& fp = sched->pairs[static_cast<std::size_t>(s) *
                                      static_cast<std::size_t>(sched->nreceivers) +
                                  static_cast<std::size_t>(r)];
      fp.elements = tp.elements;
      if (tp.empty()) continue;

      // Receiver-local stride of var_dd (1 for identity: the innermost,
      // contiguous dimension). A run never spans a distribution block on
      // either side, so successive elements advance by exactly this stride.
      std::int64_t stride = 1;
      if (!identity) {
        const std::vector<std::int64_t> dext = dst.local_extents(r);
        for (int d = var_dd + 1; d < nd; ++d) stride *= dext[static_cast<std::size_t>(d)];
      }

      detail::visit_plan(tp, gidx, 0, [&](const std::vector<std::int64_t>& g, std::int64_t len) {
        const std::int64_t soff = src.local_offset(s, g);
        for (int dd = 0; dd < nd; ++dd) {
          didx[static_cast<std::size_t>(dd)] =
              g[static_cast<std::size_t>(perm[static_cast<std::size_t>(dd)])] +
              offsets[static_cast<std::size_t>(dd)];
        }
        const std::int64_t doff = dst.local_offset(r, didx);
        // Coalesce with the previous segment when both sides stay
        // contiguous; the wire byte order is unchanged.
        if (stride == 1 && !fp.segs.empty()) {
          TransferSeg& last = fp.segs.back();
          if (last.dst_stride == 1 && last.src_off + last.len == soff &&
              last.dst_off + last.len == doff) {
            last.len += len;
            return;
          }
        }
        fp.segs.push_back(TransferSeg{soff, doff, len, stride});
      });
    }
  }
  return sched;
}

std::shared_ptr<const HaloSchedule> build_halo_schedule(const Layout& lay, int halo) {
  auto sched = std::make_shared<HaloSchedule>();
  sched->planes = lay.extent(0);
  sched->H = lay.extent(1);
  sched->W = lay.extent(2);
  const std::int64_t H = sched->H;
  const int n = lay.group().size();
  sched->members.resize(static_cast<std::size_t>(n));

  auto rows_of = [&](int v) -> std::pair<std::int64_t, std::int64_t> {
    const auto runs = lay.owned_runs(v, 1);
    if (runs.empty()) return {0, 0};
    return {runs.front().start, runs.front().start + runs.front().len};
  };
  auto ghost_need = [&](int v) {
    const auto [lo, hi] = rows_of(v);
    std::vector<std::int64_t> need;
    if (lo == hi) return need;
    for (std::int64_t r = std::max<std::int64_t>(0, lo - halo); r < lo; ++r) need.push_back(r);
    for (std::int64_t r = hi; r < std::min(H, hi + halo); ++r) need.push_back(r);
    return need;
  };

  for (int me = 0; me < n; ++me) {
    HaloSchedule::Member& mp = sched->members[static_cast<std::size_t>(me)];
    const auto [my_lo, my_hi] = rows_of(me);
    mp.my_lo = my_lo;
    mp.my_hi = my_hi;

    // Sends, in the uncached path's order: ascending consumer, rows in the
    // consumer's need order, only rows I own, non-empty messages only.
    for (int v = 0; v < n; ++v) {
      if (v == me) continue;
      HaloSchedule::Send snd;
      snd.dst_vrank = v;
      for (std::int64_t r : ghost_need(v)) {
        if (r < my_lo || r >= my_hi) continue;
        snd.local_rows.push_back(r - my_lo);
      }
      if (!snd.local_rows.empty()) mp.sends.push_back(std::move(snd));
    }

    if (my_lo == my_hi) continue;
    mp.first_above = std::max<std::int64_t>(0, my_lo - halo);
    mp.n_above = my_lo - mp.first_above;
    mp.first_below = my_hi;
    mp.n_below = std::min(H, my_hi + halo) - my_hi;

    // Receives: my ghost rows grouped by owner, ascending owner order, need
    // order preserved within an owner (the uncached stable sort).
    std::vector<std::pair<int, std::int64_t>> by_owner;
    for (std::int64_t r : ghost_need(me)) {
      const std::array<std::int64_t, 3> gi{0, r, 0};
      by_owner.push_back({lay.owner_of(gi), r});
    }
    std::stable_sort(by_owner.begin(), by_owner.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });
    std::size_t i = 0;
    while (i < by_owner.size()) {
      HaloSchedule::Recv rcv;
      rcv.src_vrank = by_owner[i].first;
      while (i < by_owner.size() && by_owner[i].first == rcv.src_vrank) {
        rcv.rows.push_back(by_owner[i].second);
        ++i;
      }
      mp.recvs.push_back(std::move(rcv));
    }
  }
  return sched;
}

}  // namespace fxpar::dist::plan
