// fxpar comm: inspector–executor plan caching for collectives.
//
// Every collective over a processor group walks a fixed communication
// structure — a binomial tree for broadcast/reduce/allreduce, a rooted
// star for gather/scatter — that depends only on the group and the
// (virtual) root. Repeated collectives over the same group (iterative
// solvers, per-timestep reductions) rebuild that structure on every call.
// CollectiveCache applies the same inspector–executor split as the dist
// layer's redistribution PlanCache (dist/plan_cache.hpp): the first call
// *inspects* (builds the schedule), later calls *execute* a cached one.
// The cached executor also reuses payload buffers through the machine's
// pool and combines reductions directly from payload bytes, which is
// where the measured host-time win comes from.
//
// The cache changes host time only: the cached paths issue exactly the
// same messages with the same tags and the same modeled charges as the
// uncached loops, so simulated results — and received payload bytes on
// every backend — are bit-identical with the cache on or off
// (MachineConfig::plan_cache gates it; tests/test_plan_cache.cpp holds
// the parity).
//
// Layering: comm sits below dist and cannot see its PlanCache, so this
// cache takes its own slot in the Machine's typed registry
// (Machine::cache) with separate hit/miss counters
// (RunResult::collective_plan_hits / _misses).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "machine/machine.hpp"
#include "pgroup/group.hpp"

namespace fxpar::comm::plan {

/// The binomial tree of one (group, root) pair, serving reduce (leaves to
/// root), broadcast (root to leaves) and allreduce (both, root 0). All
/// ranks are *virtual* ranks of the group — exactly what Context::send /
/// recv take with the group pushed — and every list is stored in the
/// order the uncached loop visits it, so replay is order-identical.
struct TreeSchedule {
  std::vector<int> members;  ///< physical members (pgroup::check_group_key_match)
  int root = 0;              ///< virtual root rank

  struct Node {
    int reduce_parent = -1;  ///< vrank the partial result is sent to (-1: root)
    std::vector<int> reduce_children;  ///< vranks received, in combine order
    int bcast_parent = -1;   ///< vrank the payload arrives from (-1: root)
    std::vector<int> bcast_children;   ///< vranks forwarded to, in send order
  };
  std::vector<Node> nodes;  ///< indexed by the member's virtual rank
};

/// The rooted star of one (group, root) pair, serving gather,
/// gather_vectors and scatter_vectors: the non-root members the root
/// exchanges with, in virtual-rank order (the uncached loop order).
struct RootedSchedule {
  std::vector<int> members;  ///< physical members (collision guard)
  int root = 0;              ///< virtual root rank
  std::vector<int> peers;    ///< vranks 0..n-1 excluding the root, ascending
};

/// Builds the binomial tree for a group of `n` members rooted at virtual
/// rank `root` (exposed for tests; members is the physical member list).
TreeSchedule build_tree_schedule(const std::vector<int>& members, int root);

/// Builds the rooted star (exposed for tests).
RootedSchedule build_rooted_schedule(const std::vector<int>& members, int root);

/// The machine-wide collective-schedule cache. One instance lives on each
/// Machine's collective cache slot and is shared by all processors, so
/// under SPMD the first member to reach a collective builds the schedule
/// (one miss) and the rest hit — totals are backend-independent.
class CollectiveCache final : public machine::MachineCacheBase {
 public:
  /// Entry bound per table; inserting past this drops the whole table
  /// (same policy as the redistribution PlanCache: real programs repeat a
  /// handful of groups, so eviction is a safety valve, not a hot path).
  static constexpr std::size_t kMaxEntries = 128;

  /// The cache attached to `m`, creating it on first use.
  static CollectiveCache& of(machine::Machine& m) { return m.cache<CollectiveCache>(); }

  /// The tree schedule of (g, root), building it on a miss. Counts the
  /// hit/miss on `m` (RunResult::collective_plan_hits / _misses).
  std::shared_ptr<const TreeSchedule> tree(machine::Machine& m,
                                           const pgroup::ProcessorGroup& g, int root);

  /// The rooted star of (g, root), building it on a miss.
  std::shared_ptr<const RootedSchedule> rooted(machine::Machine& m,
                                               const pgroup::ProcessorGroup& g, int root);

  std::size_t tree_entries() const;
  std::size_t rooted_entries() const;

 private:
  struct Key {
    std::uint64_t group_key = 0;
    int root = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // A splitmix-style scramble of the group key and the root.
      std::uint64_t h = k.group_key + 0x9e3779b97f4a7c15ull *
                                          (static_cast<std::uint64_t>(k.root) + 1);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 27;
      return static_cast<std::size_t>(h);
    }
  };

  /// Held across lookup *and* build: concurrent members of one SPMD
  /// collective serialize here briefly on the first call, then hit.
  mutable std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const TreeSchedule>, KeyHash> trees_;
  std::unordered_map<Key, std::shared_ptr<const RootedSchedule>, KeyHash> rooted_;
};

}  // namespace fxpar::comm::plan
