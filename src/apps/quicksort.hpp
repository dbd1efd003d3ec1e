// fxpar apps: parallel quicksort via dynamically nested task regions
// (paper Section 3.4, Figure 4).
//
// Each level picks a pivot — the median of up to 255 evenly spaced keys
// from every member's block, gathered at the group's middle member and
// broadcast — counts elements below/equal/above it, sizes two subgroups
// proportionally (compute_subgroup_sizes), redistributes the elements into
// subgroup-mapped BLOCK arrays (pick_less_than_pivot / pick_greater_...)
// and recurses inside ON SUBGROUP blocks, each recursion declaring a new
// TASK_PARTITION of its own subgroup. Figure 4 then merges the sorted
// halves back into the parent array at every level (merge_result); here no
// level does. A leaf's sorted block moves up the recursion as that rank's
// piece. Each level's keys equal to its pivot leave the recursion, which
// guarantees termination with duplicate keys, and join an adjacent piece as
// a (pivot, count) run. The top level learns every piece's length with one
// allreduce and places the pieces into the caller's array, of any 1-D
// distribution, with one exchange. The sample depends only on the blocks'
// contents, so every backend picks the same pivots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/fx.hpp"

namespace fxpar::apps {

/// Sorts `a` (1-D, mapped to the *current* group of ctx) in ascending
/// order. Every member of the current group must call. Throws
/// std::invalid_argument for an array that is not 1-D.
void parallel_qsort(machine::Context& ctx, dist::DistArray<std::int64_t>& a);

/// Below this many keys leaf_sort falls back to std::sort. Clearing and
/// scanning the 2048-entry count tables costs about as much as sorting 128
/// keys; `bench_micro --sort-compare` times both sides of the cut-over.
inline constexpr std::size_t kLeafRadixCutover = 256;

/// The sequential leaf kernel of parallel_qsort: sorts `keys` ascending in
/// place. An LSD radix sort on (uint64)(x - min) with 11-bit digits and only
/// as many passes as max - min needs (any int64 range, negative keys
/// included); std::sort below kLeafRadixCutover keys. The scratch buffer
/// comes from m's payload pool and goes back to it.
void leaf_sort(machine::Machine& m, std::span<std::int64_t> keys);

/// Deterministic input generator (duplicates included). Throws
/// std::invalid_argument for n < 0.
std::vector<std::int64_t> qsort_input(std::int64_t n, unsigned seed);

/// Convenience driver: sorts `input` on a machine of mcfg.num_procs
/// processors and returns the sorted data (validated layout round trip)
/// plus machine statistics.
struct QsortResult {
  std::vector<std::int64_t> sorted;
  machine::RunResult machine_result;
};
QsortResult run_parallel_qsort(const machine::MachineConfig& mcfg,
                               const std::vector<std::int64_t>& input);

}  // namespace fxpar::apps
