// fxpar dist: general array assignment between distributed arrays.
//
// assign(dst, src) implements the paper's parent-scope array assignment
// (e.g. `A2 = A1` between pipeline stages, Figure 2): every processor of
// the *current* scope may call it, but only the minimal participating set —
// the union of the source and destination owner groups — takes part; all
// other processors return immediately and race ahead (Section 4,
// "Identification of minimal processor subsets"). Communication is pure
// direct deposit: no empty messages between processors whose owned sets do
// not intersect ("Localization").
//
// Synchronization: by default participants synchronize on a subset barrier
// before the transfer, modelling Fx's deposit model in which the receiver's
// buffer must be ready ("The actual synchronization mechanism is
// implementation dependent ... typically the same as that used for normal
// data parallel execution"). This bounds pipeline run-ahead to one data set
// per stage, like the real system. AssignSync::None gives unbounded
// buffering for ablation studies.
//
// assign_permuted additionally permutes dimensions — the corner turn
// (transpose) of the radar benchmark is one redistribution — and
// assign_shifted writes into a rectangular offset of the destination (a
// sub-block copied into a larger array).
//
// Plan caching (MachineConfig::plan_cache, on by default): the
// O(senders x receivers) run-intersection analysis below is the *inspector*
// of an inspector–executor split. With the cache on, its output is
// flattened once per (layouts, perm, offsets) tuple into per-pair
// (src_offset, dst_offset, len, stride) segments shared machine-wide (see
// plan_cache.hpp), and later calls replay it with plain memcpy loops. The
// cached executor issues exactly the same messages and charges, so modeled
// results are bit-identical either way.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "comm/serialize.hpp"
#include "dist/dist_array.hpp"
#include "dist/plan_cache.hpp"
#include "machine/context.hpp"
#include "trace/trace.hpp"

namespace fxpar::dist {

using machine::Context;
using machine::Payload;

enum class AssignSync {
  SubsetBarrier,  ///< participants barrier before the transfer (default)
  None,           ///< pure deposit; sender never waits (unbounded buffering)
};

namespace detail {

/// Executor pack over a flattened schedule: every segment is one memcpy.
/// Byte order matches pack_plan exactly.
template <typename T>
void pack_flat(const DistArray<T>& src, const plan::FlatPlan& fp, Payload& buf) {
  const T* local = src.local().data();
  std::byte* out = buf.data();
  std::size_t pos = 0;
  for (const plan::TransferSeg& s : fp.segs) {
    std::memcpy(out + pos, local + s.src_off, static_cast<std::size_t>(s.len) * sizeof(T));
    pos += static_cast<std::size_t>(s.len) * sizeof(T);
  }
}

/// Executor unpack: contiguous segments are one memcpy; permuted
/// (corner-turn) segments scatter at a fixed receiver stride — no
/// per-element offset resolution either way.
template <typename T>
void unpack_flat(T* local, const plan::FlatPlan& fp, const Payload& buf) {
  const std::byte* in = buf.data();
  std::size_t pos = 0;
  for (const plan::TransferSeg& s : fp.segs) {
    if (s.dst_stride == 1) {
      std::memcpy(local + s.dst_off, in + pos, static_cast<std::size_t>(s.len) * sizeof(T));
      pos += static_cast<std::size_t>(s.len) * sizeof(T);
      continue;
    }
    T* out = local + s.dst_off;
    for (std::int64_t k = 0; k < s.len; ++k) {
      std::memcpy(out + k * s.dst_stride, in + pos, sizeof(T));
      pos += sizeof(T);
    }
  }
}

template <typename T>
Payload pack_plan(const DistArray<T>& src, int s_vrank, const TransferPlan& plan) {
  Payload buf;
  buf.reserve(static_cast<std::size_t>(plan.elements) * sizeof(T));
  std::vector<std::int64_t> gidx(plan.runs.size(), 0);
  const std::span<const T> local = src.local();
  visit_plan(plan, gidx, 0, [&](const std::vector<std::int64_t>& g, std::int64_t len) {
    const std::int64_t off = src.layout().local_offset(s_vrank, g);
    const std::size_t pos = buf.size();
    buf.resize(pos + static_cast<std::size_t>(len) * sizeof(T));
    std::memcpy(buf.data() + pos, local.data() + off, static_cast<std::size_t>(len) * sizeof(T));
  });
  return buf;
}

template <typename T>
void unpack_plan(const Layout& dl, T* local, int r_vrank, const TransferPlan& plan,
                 const std::vector<int>& perm, const std::vector<std::int64_t>& offsets,
                 bool identity_perm, const Payload& data) {
  const int nd = static_cast<int>(plan.runs.size());
  std::vector<std::int64_t> gidx(static_cast<std::size_t>(nd), 0);
  std::vector<std::int64_t> didx(static_cast<std::size_t>(nd), 0);
  std::size_t pos = 0;
  visit_plan(plan, gidx, 0, [&](const std::vector<std::int64_t>& g, std::int64_t len) {
    if (identity_perm) {
      // Runs never span a distribution block on either side (the plan was
      // clipped against both owners' runs), so destination local addresses
      // of a run are contiguous too.
      for (int dd = 0; dd < nd; ++dd) {
        didx[static_cast<std::size_t>(dd)] =
            g[static_cast<std::size_t>(dd)] + offsets[static_cast<std::size_t>(dd)];
      }
      const std::int64_t off = dl.local_offset(r_vrank, didx);
      std::memcpy(local + off, data.data() + pos,
                  static_cast<std::size_t>(len) * sizeof(T));
      pos += static_cast<std::size_t>(len) * sizeof(T);
      return;
    }
    for (std::int64_t k = 0; k < len; ++k) {
      for (int dd = 0; dd < nd; ++dd) {
        const int sd = perm[static_cast<std::size_t>(dd)];
        didx[static_cast<std::size_t>(dd)] = g[static_cast<std::size_t>(sd)] +
                                             ((sd == nd - 1) ? k : 0) +
                                             offsets[static_cast<std::size_t>(dd)];
      }
      T v;
      std::memcpy(&v, data.data() + pos, sizeof(T));
      pos += sizeof(T);
      local[dl.local_offset(r_vrank, didx)] = v;
    }
  });
}

}  // namespace detail

/// Where an assignment lands: the destination layout, this processor's
/// row-major local block of it (null on non-members) and the name its trace
/// span carries. A DistArray destination is its local().data(); gather_full
/// points the root's view at the vector it returns, so the data is unpacked
/// straight into the result.
template <typename T>
struct DstView {
  const Layout& layout;
  T* local;
  const std::string& name;
};

/// Generalized assignment: for every source index G inside the copied
/// region, dst[ G[perm[0]]+offsets[0], ... ] = src[G]. `perm` maps
/// destination dimensions to source dimensions (identity when empty);
/// `offsets` shifts the destination placement (zero when empty). Must be
/// called by every processor of the current scope; only the union of owner
/// groups participates.
template <typename T>
void assign_general(Context& ctx, DstView<T> dst, const DistArray<T>& src,
                    std::vector<int> perm, std::vector<std::int64_t> offsets,
                    AssignSync sync = AssignSync::SubsetBarrier) {
  const Layout& sl = src.layout();
  const Layout& dl = dst.layout;
  if (sl.ndims() != dl.ndims()) {
    throw std::invalid_argument("assign: dimensionality mismatch");
  }
  const int nd = sl.ndims();
  if (perm.empty()) {
    perm.resize(static_cast<std::size_t>(nd));
    std::iota(perm.begin(), perm.end(), 0);
  }
  if (offsets.empty()) offsets.assign(static_cast<std::size_t>(nd), 0);
  if (static_cast<int>(perm.size()) != nd || static_cast<int>(offsets.size()) != nd) {
    throw std::invalid_argument("assign: perm/offsets arity mismatch");
  }
  const std::vector<int> inv = detail::inverse_perm(perm);
  for (int dd = 0; dd < nd; ++dd) {
    const std::int64_t need =
        sl.extent(perm[static_cast<std::size_t>(dd)]) + offsets[static_cast<std::size_t>(dd)];
    if (offsets[static_cast<std::size_t>(dd)] < 0 || need > dl.extent(dd)) {
      throw std::invalid_argument("assign: source does not fit destination in dimension " +
                                  std::to_string(dd));
    }
  }
  bool identity = true;
  for (int dd = 0; dd < nd; ++dd) identity &= (perm[static_cast<std::size_t>(dd)] == dd);

  // Inspector: with caching on, fetch (or build once) the machine-wide
  // flattened schedule — union group, participant sets and per-pair
  // segments all come precomputed.
  std::shared_ptr<const plan::RedistSchedule> sched;
  if (ctx.config().plan_cache) {
    sched = plan::PlanCache::of(ctx.machine()).redist(ctx.machine(), sl, dl, perm, inv, offsets);
  }

  // Minimal participating set: owners of either side. Everyone else skips.
  pgroup::ProcessorGroup ug_local;
  if (!sched) ug_local = union_group(sl.group(), dl.group());
  const pgroup::ProcessorGroup& ug = sched ? sched->ugroup : ug_local;
  const int me = ctx.phys_rank();
  if (!ug.contains(me)) return;
  metrics::RuntimeMetrics* const mm = ctx.machine().metrics();
  double mt0 = 0.0;
  if (mm) {
    mm->redists->add(me);
    mt0 = ctx.machine().backend().now(me);
  }
  trace::ScopedSpan sp_;
  if (ctx.tracer()) sp_ = ctx.span("assign:" + dst.name, "redistribute");
  const std::uint64_t tag = ctx.collective_tag(ug);
  if (sync == AssignSync::SubsetBarrier) ctx.barrier(ug);

  const int s_me = sl.group().virtual_of(me);
  const int r_me = dl.group().virtual_of(me);
  // With a fully replicated source every member holds the data; virtual
  // rank 0 is the canonical sender so values are sent exactly once.
  const bool i_send = s_me >= 0 && (!sl.fully_replicated() || s_me == 0);

  Payload self_payload;
  bool have_self = false;
  detail::TransferPlan self_plan;  // uncached path: reused by the receive loop
  if (i_send) {
    for (int r = 0; r < dl.group().size(); ++r) {
      const int r_phys = dl.group().physical(r);
      // With a replicated source, destination members that are themselves
      // source members serve their own copy: never message them.
      if (sl.fully_replicated() && r_phys != me && sl.group().contains(r_phys)) continue;
      Payload buf;
      if (sched) {
        const plan::FlatPlan& fp = sched->pair(s_me, r);
        if (fp.empty()) continue;
        buf = ctx.machine().pool_acquire(static_cast<std::size_t>(fp.elements) * sizeof(T));
        detail::pack_flat(src, fp, buf);
      } else {
        detail::TransferPlan plan = detail::build_plan(sl, s_me, dl, r, inv, offsets);
        if (plan.empty()) continue;
        buf = detail::pack_plan(src, s_me, plan);
        if (r_phys == me) self_plan = std::move(plan);
      }
      ctx.charge_mem_bytes(static_cast<double>(buf.size()));
      if (r_phys == me) {
        self_payload = std::move(buf);
        have_self = true;
      } else {
        ctx.send_phys(r_phys, tag, std::move(buf));
      }
    }
  }
  if (r_me >= 0) {
    for (int s = 0; s < sl.group().size(); ++s) {
      if (sl.fully_replicated() && s != (s_me >= 0 ? s_me : 0)) continue;
      // Self-serve from the local replica when the canonical sender skipped
      // us (replicated source, we are a non-canonical member).
      const bool serve_replica = sl.fully_replicated() && s_me >= 0 && s_me != 0;
      if (sched) {
        const plan::FlatPlan& fp = sched->pair(s, r_me);
        if (fp.empty()) continue;
        Payload buf;
        if (serve_replica) {
          // Replicated local offsets are identical on every member, so the
          // canonical sender slot's segments pack our own replica too.
          buf = ctx.machine().pool_acquire(static_cast<std::size_t>(fp.elements) * sizeof(T));
          detail::pack_flat(src, fp, buf);
        } else if (sl.group().physical(s) == me) {
          if (!have_self) throw std::logic_error("assign: missing self payload");
          buf = std::move(self_payload);
          have_self = false;
        } else {
          buf = ctx.recv_phys(sl.group().physical(s), tag);
        }
        if (buf.size() != static_cast<std::size_t>(fp.elements) * sizeof(T)) {
          throw std::logic_error("assign: payload size does not match plan");
        }
        ctx.charge_mem_bytes(static_cast<double>(buf.size()));
        detail::unpack_flat(dst.local, fp, buf);
        ctx.machine().pool_release(std::move(buf));
        continue;
      }
      // Uncached path. The self pair's plan was already built by the send
      // loop above — reuse it instead of rebuilding.
      detail::TransferPlan plan_storage;
      const detail::TransferPlan* plan;
      if (!serve_replica && sl.group().physical(s) == me && have_self) {
        plan = &self_plan;
      } else {
        plan_storage = detail::build_plan(sl, s, dl, r_me, inv, offsets);
        plan = &plan_storage;
      }
      if (plan->empty()) continue;
      Payload buf;
      if (serve_replica) {
        buf = detail::pack_plan(src, s_me, *plan);
      } else if (sl.group().physical(s) == me) {
        if (!have_self) throw std::logic_error("assign: missing self payload");
        buf = std::move(self_payload);
        have_self = false;
      } else {
        buf = ctx.recv_phys(sl.group().physical(s), tag);
      }
      if (buf.size() != static_cast<std::size_t>(plan->elements) * sizeof(T)) {
        throw std::logic_error("assign: payload size does not match plan");
      }
      ctx.charge_mem_bytes(static_cast<double>(buf.size()));
      detail::unpack_plan(dl, dst.local, r_me, *plan, perm, offsets, identity, buf);
    }
  }
  // Per-participant latency: modeled seconds on the simulator, real
  // seconds on the threaded backend.
  if (mm) mm->redist_s->observe(me, ctx.machine().backend().now(me) - mt0);
}

/// assign_general into a DistArray destination.
template <typename T>
void assign_general(Context& ctx, DistArray<T>& dst, const DistArray<T>& src,
                    std::vector<int> perm, std::vector<std::int64_t> offsets,
                    AssignSync sync = AssignSync::SubsetBarrier) {
  assign_general(ctx, DstView<T>{dst.layout(), dst.is_member() ? dst.local().data() : nullptr,
                                 dst.name()},
                 src, std::move(perm), std::move(offsets), sync);
}

/// dst = src with matching shapes (possibly different distributions and
/// owner groups). The workhorse behind pipeline stage handoffs.
template <typename T>
void assign(Context& ctx, DistArray<T>& dst, const DistArray<T>& src,
            AssignSync sync = AssignSync::SubsetBarrier) {
  if (dst.layout().shape() != src.layout().shape()) {
    throw std::invalid_argument("assign: whole-array assignment requires equal shapes");
  }
  assign_general(ctx, dst, src, {}, {}, sync);
}

/// dst[i...] = src[i[perm]...]: dimension-permuting assignment.
template <typename T>
void assign_permuted(Context& ctx, DistArray<T>& dst, const DistArray<T>& src,
                     std::vector<int> perm, AssignSync sync = AssignSync::SubsetBarrier) {
  assign_general(ctx, dst, src, std::move(perm), {}, sync);
}

/// Writes src into dst starting at `offsets` (dst section assignment).
template <typename T>
void assign_shifted(Context& ctx, DistArray<T>& dst, std::vector<std::int64_t> offsets,
                    const DistArray<T>& src, AssignSync sync = AssignSync::SubsetBarrier) {
  assign_general(ctx, dst, src, {}, std::move(offsets), sync);
}

/// 2-D transpose: dst[j,i] = src[i,j] (the radar corner turn).
template <typename T>
void transpose(Context& ctx, DistArray<T>& dst, const DistArray<T>& src,
               AssignSync sync = AssignSync::SubsetBarrier) {
  if (src.layout().ndims() != 2) throw std::invalid_argument("transpose: 2-D arrays only");
  assign_permuted(ctx, dst, src, {1, 0}, sync);
}

/// Scatters a full row-major array held on physical processor `root_phys`
/// into the distributed array `a`. Must be called by all members of the
/// owner group plus the root; non-root callers may pass an empty vector.
template <typename T>
void scatter_full(Context& ctx, DistArray<T>& a, int root_phys, const std::vector<T>& full) {
  const pgroup::ProcessorGroup root_group({root_phys});
  Layout src_layout(root_group, a.layout().shape(),
                    std::vector<DimDist>(static_cast<std::size_t>(a.layout().ndims()),
                                         DimDist::collapsed()));
  DistArray<T> tmp(ctx, std::move(src_layout), a.name() + ".scatter");
  if (ctx.phys_rank() == root_phys) {
    if (static_cast<std::int64_t>(full.size()) != a.layout().total_elements()) {
      throw std::invalid_argument("scatter_full: source size does not match array shape");
    }
    std::copy(full.begin(), full.end(), tmp.local().begin());
  }
  assign(ctx, a, tmp);
}

/// Gathers the full array, row-major, onto physical processor `root_phys`.
/// Must be called by all members of the owner group plus the root; the root
/// returns the data, everyone else an empty vector. The root's destination
/// view is the returned vector itself: no collapsed temporary, no copy-out.
template <typename T>
std::vector<T> gather_full(Context& ctx, const DistArray<T>& a, int root_phys) {
  const pgroup::ProcessorGroup root_group({root_phys});
  const Layout dst_layout(root_group, a.layout().shape(),
                          std::vector<DimDist>(static_cast<std::size_t>(a.layout().ndims()),
                                               DimDist::collapsed()));
  const std::string name = a.name() + ".gather";
  std::vector<T> full;
  if (ctx.phys_rank() == root_phys) {
    full.resize(static_cast<std::size_t>(dst_layout.total_elements()));
  }
  assign_general(ctx, DstView<T>{dst_layout, full.data(), name}, a, {}, {});
  return full;
}

}  // namespace fxpar::dist
