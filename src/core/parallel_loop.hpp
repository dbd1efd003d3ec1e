// fxpar core: the Fx parallel loop construct ("do&merge", ref [24] of the
// paper: Yang et al., "Do&merge: Integrating parallel loops and
// reductions").
//
// Fx expresses loop parallelism with a construct that combines independent
// iterations (the "do" part) with a merge of per-iteration contributions
// (the "merge" part — a reduction). Here:
//
//   auto sum = core::parallel_reduce<double>(
//       ctx, 0, n,
//       [&](std::int64_t i) { return f(i); },     // do: one iteration
//       std::plus<double>{}, 0.0);                // merge
//
// Iterations are block-partitioned over the *current* processor group, each
// processor merges its local contributions in iteration order, and the
// partial results are combined with a group reduction whose deterministic
// tree order makes results reproducible. parallel_for is the no-merge
// special case.
//
// Both constructs run the static block schedule (exec::loop_block) on
// every backend: each member of the current group executes its own block
// inline, with no coordination, and the reduction merges per-iteration
// values in iteration order. Results are therefore bit-identical on sim,
// threads and proc (docs/execution.md, "Parallel loops").
#pragma once

#include <cstdint>

#include "comm/collectives.hpp"
#include "machine/context.hpp"

namespace fxpar::core {

/// Runs `body(i)` for every i in [lo, hi), block-partitioned over the
/// current group. Purely local: no synchronization (callers that need the
/// results of other processors' iterations synchronize via the data they
/// touch, as in the paper's execution model).
template <typename Body>
void parallel_for(machine::Context& ctx, std::int64_t lo, std::int64_t hi, Body&& body) {
  trace::ScopedSpan sp = ctx.span("parallel_for", "loop");
  exec::Backend& backend = ctx.machine().backend();
  metrics::RuntimeMetrics* const mm = ctx.machine().metrics();
  const int rank = ctx.phys_rank();
  double t0 = 0.0;
  if (mm) {
    mm->loops->add(rank);
    t0 = backend.now(rank);
  }
  const auto [first, last] = exec::loop_block(lo, hi, ctx.nprocs(), ctx.vrank());
  for (std::int64_t i = first; i < last; ++i) body(i);
  // Modeled seconds on the simulator, real seconds on threads and proc.
  if (mm) mm->loop_s->observe(rank, backend.now(rank) - t0);
}

/// do&merge: evaluates `body(i)` for every iteration, merges locally in
/// iteration order, then reduces across the current group. Every member of
/// the current group must call. Returns the merged value on every member.
template <typename T, typename Body, typename Merge>
T parallel_reduce(machine::Context& ctx, std::int64_t lo, std::int64_t hi, Body&& body,
                  Merge&& merge, T init) {
  trace::ScopedSpan sp = ctx.span("parallel_reduce", "loop");
  exec::Backend& backend = ctx.machine().backend();
  metrics::RuntimeMetrics* const mm = ctx.machine().metrics();
  const int rank = ctx.phys_rank();
  double t0 = 0.0;
  if (mm) {
    mm->loops->add(rank);
    t0 = backend.now(rank);
  }
  auto observe = [&] {
    if (mm) mm->loop_s->observe(rank, backend.now(rank) - t0);
  };
  T local = init;
  const auto [first, last] = exec::loop_block(lo, hi, ctx.nprocs(), ctx.vrank());
  for (std::int64_t i = first; i < last; ++i) local = merge(local, body(i));
  if (ctx.nprocs() == 1) {
    observe();
    return local;
  }
  T result = comm::allreduce(ctx, ctx.group(), local, merge);
  observe();
  return result;
}

}  // namespace fxpar::core
