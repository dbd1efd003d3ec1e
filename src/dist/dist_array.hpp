// fxpar dist: the distributed array container.
//
// A DistArray is an SPMD value: every processor constructs its own instance
// with an identical Layout; only group members allocate local storage (the
// paper's SPMD-with-dynamic-allocation code generation choice, Section 4).
// Element access is by global index and is legal only on the owning
// processor — the runtime analogue of Fx's locality rules.
//
// Per-dimension distribution parameters are cached at construction so that
// the per-element paths (at(), fill(), for_each_owned()) are pure integer
// arithmetic with no allocation.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dist/layout.hpp"
#include "machine/context.hpp"

namespace fxpar::dist {

template <typename T>
class DistArray {
 public:
  /// Constructs the SPMD-local view of the array. Only members of
  /// layout.group() allocate storage; non-members hold metadata only.
  DistArray(machine::Context& ctx, Layout layout, std::string name = "")
      : ctx_(&ctx), layout_(std::move(layout)), name_(std::move(name)) {
    my_vrank_ = layout_.group().virtual_of(ctx.phys_rank());
    if (my_vrank_ >= 0) {
      local_extents_ = layout_.local_extents(my_vrank_);
      std::int64_t size = 1;
      dims_.resize(static_cast<std::size_t>(layout_.ndims()));
      for (int d = 0; d < layout_.ndims(); ++d) {
        DimParam& dp = dims_[static_cast<std::size_t>(d)];
        dp.n = layout_.extent(d);
        dp.p = layout_.procs_along(d);
        dp.coord = layout_.grid_coord(my_vrank_, d);
        dp.collapsed = !layout_.dim_dist(d).distributed() || layout_.fully_replicated();
        dp.b = layout_.dim_dist(d).block_size(dp.n, dp.p);
        dp.ext = local_extents_[static_cast<std::size_t>(d)];
        size *= dp.ext;
      }
      local_.assign(static_cast<std::size_t>(size), T{});
    }
  }

  const Layout& layout() const noexcept { return layout_; }
  const std::string& name() const noexcept { return name_; }
  const pgroup::ProcessorGroup& group() const noexcept { return layout_.group(); }
  machine::Context& context() const noexcept { return *ctx_; }

  /// Whether the calling processor stores a part of this array.
  bool is_member() const noexcept { return my_vrank_ >= 0; }
  int my_vrank() const {
    if (my_vrank_ < 0) throw std::logic_error(bad_access("not a member of the owning group"));
    return my_vrank_;
  }

  /// Local storage, row-major over local_extents(). Members only.
  std::span<T> local() {
    require_member();
    return std::span<T>(local_);
  }
  std::span<const T> local() const {
    require_member();
    return std::span<const T>(local_);
  }

  /// Moves the local block out, leaving this array without storage: local()
  /// is then empty and element access is invalid. Members only. A quicksort
  /// leaf hands its sorted block up the recursion this way instead of
  /// copying it.
  std::vector<T> release_local() {
    require_member();
    return std::exchange(local_, {});
  }

  const std::vector<std::int64_t>& local_extents() const {
    require_member();
    return local_extents_;
  }

  // ---- global-index element access (owner only) ----

  T& at_global(std::span<const std::int64_t> gidx) {
    return local_[static_cast<std::size_t>(owned_offset(gidx))];
  }
  const T& at_global(std::span<const std::int64_t> gidx) const {
    return local_[static_cast<std::size_t>(owned_offset(gidx))];
  }

  T& at(std::int64_t i) { return at_global(std::array<std::int64_t, 1>{i}); }
  T& at(std::int64_t i, std::int64_t j) { return at_global(std::array<std::int64_t, 2>{i, j}); }
  T& at(std::int64_t i, std::int64_t j, std::int64_t k) {
    return at_global(std::array<std::int64_t, 3>{i, j, k});
  }
  const T& at(std::int64_t i) const { return at_global(std::array<std::int64_t, 1>{i}); }
  const T& at(std::int64_t i, std::int64_t j) const {
    return at_global(std::array<std::int64_t, 2>{i, j});
  }
  const T& at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return at_global(std::array<std::int64_t, 3>{i, j, k});
  }

  bool owns(std::span<const std::int64_t> gidx) const {
    return my_vrank_ >= 0 && fast_offset(gidx) >= 0;
  }

  /// Applies `fn(global_index, element)` to every locally stored element in
  /// local row-major order. Members only; non-members do nothing.
  template <typename Fn>
  void for_each_owned(Fn&& fn) {
    if (my_vrank_ < 0) return;
    const int nd = layout_.ndims();
    std::vector<std::int64_t> lidx(static_cast<std::size_t>(nd), 0);
    std::vector<std::int64_t> gidx(static_cast<std::size_t>(nd), 0);
    for (int d = 0; d < nd; ++d) {
      gidx[static_cast<std::size_t>(d)] = local_to_global_dim(d, 0);
    }
    const std::int64_t n = static_cast<std::int64_t>(local_.size());
    for (std::int64_t off = 0; off < n; ++off) {
      fn(std::span<const std::int64_t>(gidx), local_[static_cast<std::size_t>(off)]);
      // Row-major local increment with incremental global update.
      for (int d = nd - 1; d >= 0; --d) {
        std::int64_t& l = lidx[static_cast<std::size_t>(d)];
        if (++l < dims_[static_cast<std::size_t>(d)].ext) {
          gidx[static_cast<std::size_t>(d)] = local_to_global_dim(d, l);
          break;
        }
        l = 0;
        gidx[static_cast<std::size_t>(d)] = local_to_global_dim(d, 0);
      }
    }
  }

  /// Fills every locally stored element from `fn(global_index)`.
  template <typename Fn>
  void fill(Fn&& fn) {
    for_each_owned([&](std::span<const std::int64_t> g, T& v) { v = fn(g); });
  }

  /// Fills with a constant.
  void fill_value(const T& v) {
    if (my_vrank_ < 0) return;
    for (T& x : local_) x = v;
  }

 private:
  struct DimParam {
    std::int64_t n = 0;   ///< global extent
    int p = 1;            ///< processors along this dimension
    int coord = 0;        ///< my grid coordinate along this dimension
    std::int64_t b = 1;   ///< effective block size
    std::int64_t ext = 0; ///< my local extent
    bool collapsed = true;
  };

  void require_member() const {
    if (my_vrank_ < 0) throw std::logic_error(bad_access("not a member of the owning group"));
  }

  /// Local row-major offset of `gidx`, or -1 if out of range / not local.
  std::int64_t fast_offset(std::span<const std::int64_t> gidx) const {
    if (static_cast<int>(gidx.size()) != layout_.ndims()) return -1;
    std::int64_t off = 0;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      const DimParam& dp = dims_[d];
      const std::int64_t gi = gidx[d];
      if (gi < 0 || gi >= dp.n) return -1;
      std::int64_t l;
      if (dp.collapsed) {
        l = gi;
      } else {
        const std::int64_t course = gi / dp.b;
        if (static_cast<int>(course % dp.p) != dp.coord) return -1;
        l = (course / dp.p) * dp.b + (gi % dp.b);
      }
      off = off * dp.ext + l;
    }
    return off;
  }

  std::int64_t local_to_global_dim(int d, std::int64_t l) const {
    const DimParam& dp = dims_[static_cast<std::size_t>(d)];
    if (dp.collapsed) return l;
    const std::int64_t lc = l / dp.b;
    return (lc * dp.p + dp.coord) * dp.b + (l % dp.b);
  }

  std::int64_t owned_offset(std::span<const std::int64_t> gidx) const {
    require_member();
    const std::int64_t off = fast_offset(gidx);
    if (off < 0) {
      throw std::logic_error(bad_access("element is not local to this processor"));
    }
    return off;
  }

  std::string bad_access(const std::string& why) const {
    return "DistArray '" + (name_.empty() ? std::string("<anon>") : name_) + "' on proc " +
           std::to_string(ctx_->phys_rank()) + ": " + why;
  }

  machine::Context* ctx_;
  Layout layout_;
  std::string name_;
  int my_vrank_ = -1;
  std::vector<std::int64_t> local_extents_;
  std::vector<DimParam> dims_;
  /// The local block, zero-filled by the constructing processor: fresh
  /// pages fault on its worker's NUMA node, and a freed block returns to
  /// that worker's malloc arena for its next array to reuse (see
  /// exec/topology.hpp). Callers only ever see this through std::span.
  std::vector<T> local_;
};

}  // namespace fxpar::dist
