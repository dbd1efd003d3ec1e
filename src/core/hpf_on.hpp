// fxpar core: the HPF 2.0 style ON construct (paper Section 6).
//
// The paper contrasts Fx task parallelism — where an ON block may appear
// only inside a task region and its subgroup must come from a declared
// TASK_PARTITION — with the approved HPF extension, where a general ON
// clause names *any* subset of the current processor arrangement, possibly
// computed at runtime, with no declarative information. This header
// implements the HPF flavour so the two styles can be compared in code and
// in benchmarks:
//
//   hpf::on(ctx, some_group, [&]{ ... });                  // explicit group
//   hpf::on_range(ctx, first, count, [&]{ ... });          // rectilinear
//
// Differences from TaskRegion::on, mirroring the paper's discussion:
//   * no TASK_PARTITION declaration, no task region — any single-entry
//     single-exit block can be mapped onto a computed processor subset;
//   * only *rectilinear* subsets of the current arrangement are expressible
//     with on_range (the HPF restriction); on() accepts any group but then
//     provides the implementation none of HPF's declarative knowledge;
//   * overlap between concurrent ON blocks is the programmer's problem:
//     with no partition declaration the library cannot check disjointness,
//     which is exactly the implementation-difficulty argument of Section 6.
#pragma once

#include <type_traits>
#include <utility>

#include "machine/context.hpp"
#include "pgroup/group.hpp"
#include "trace/trace.hpp"

namespace fxpar::core::hpf {

/// Executes `fn` on the processors of `g` (a subset of the current group),
/// with `g` pushed as the current group; everyone else skips past without
/// synchronizing. `g` may be computed at runtime.
template <typename Fn>
void on(machine::Context& ctx, const pgroup::ProcessorGroup& g, Fn&& fn) {
  // Every member of g must be a member of the current group: an ON clause
  // names a subset of the current processor arrangement.
  for (int v = 0; v < g.size(); ++v) {
    if (!ctx.group().contains(g.physical(v))) {
      throw std::logic_error(
          "hpf::on: named processors are not a subset of the current group");
    }
  }
  if (!g.contains(ctx.phys_rank())) return;
  ctx.push_group(g);
  try {
    trace::ScopedSpan sp = ctx.span("hpf_on", "subgroup");
    if constexpr (std::is_invocable_v<Fn&, const pgroup::ProcessorGroup&>) {
      fn(g);
    } else {
      fn();
    }
  } catch (...) {
    ctx.pop_group();
    throw;
  }
  ctx.pop_group();
}

/// HPF's rectilinear form: ON PROCS(first : first+count-1). The range is in
/// virtual ranks of the *current* group.
template <typename Fn>
void on_range(machine::Context& ctx, int first, int count, Fn&& fn) {
  on(ctx, ctx.group().slice(first, count), std::forward<Fn>(fn));
}

/// ON HOME-style element loop: runs `body(i)` for every i in [lo, hi),
/// block-partitioned over the processors of `g` (exec::loop_block), with
/// `g` pushed as the current group. Non-members skip past without
/// synchronizing.
template <typename Body>
void on_elements(machine::Context& ctx, const pgroup::ProcessorGroup& g, std::int64_t lo,
                 std::int64_t hi, Body&& body) {
  on(ctx, g, [&ctx, lo, hi, &body] {
    const auto [first, last] = exec::loop_block(lo, hi, ctx.nprocs(), ctx.vrank());
    for (std::int64_t i = first; i < last; ++i) body(i);
  });
}

}  // namespace fxpar::core::hpf
