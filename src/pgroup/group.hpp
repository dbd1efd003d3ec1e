// fxpar pgroup: processor groups and virtual->physical processor mappings.
//
// Section 4 of the paper ("Processor mappings"): all data parallel
// compilation is done in terms of virtual processors of the current group;
// a mapping translates virtual ranks to physical ranks at runtime, and
// nested task regions push/pop mappings on a per-processor stack.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fxpar::pgroup {

/// An ordered set of physical processors. The virtual rank of a member is
/// its index in the order; the mapping virtual->physical is exactly the
/// member list. Groups are value types; equality is member-wise, so the
/// same group constructed independently on every SPMD processor compares
/// (and hashes) identically — which is what keys subset barriers and
/// collectives.
class ProcessorGroup {
 public:
  ProcessorGroup() = default;

  /// Group over explicit physical ranks (must be non-empty, all distinct,
  /// all non-negative).
  explicit ProcessorGroup(std::vector<int> physical_ranks);

  /// The identity group {0, 1, ..., n-1}: the whole machine.
  static ProcessorGroup identity(int n);

  int size() const noexcept { return static_cast<int>(phys_.size()); }
  bool empty() const noexcept { return phys_.empty(); }

  /// Physical rank of virtual rank `v`. Throws std::out_of_range.
  int physical(int v) const;

  /// Virtual rank of physical rank `p`, or -1 if `p` is not a member.
  int virtual_of(int p) const noexcept;

  bool contains(int physical_rank) const noexcept { return virtual_of(physical_rank) >= 0; }

  const std::vector<int>& members() const noexcept { return phys_; }

  /// Sub-group made of the members at virtual ranks [first, first+count).
  ProcessorGroup slice(int first, int count) const;

  /// Content hash, equal for equal groups; used to key barrier/collective
  /// matching across SPMD processors.
  std::uint64_t key() const noexcept { return key_; }

  friend bool operator==(const ProcessorGroup& a, const ProcessorGroup& b) {
    return a.phys_ == b.phys_;
  }

  std::string to_string() const;

 private:
  void compute_key();

  std::vector<int> phys_;
  std::uint64_t key_ = 0;
};

/// Virtual rank of physical `rank` in `g`. Throws std::logic_error
/// ("<what>: proc N is not a member of group G") when it is not a member:
/// every subset service (barriers, loops) requires the caller to belong to
/// the group it names.
int require_member(const ProcessorGroup& g, int rank, const char* what);

/// Throws std::logic_error naming `what`, `g` and the `registered` member
/// list: the error of every group-key collision guard.
[[noreturn]] void throw_group_key_collision(const std::vector<int>& registered,
                                            const ProcessorGroup& g, const char* what);

/// The group-key collision guard. Registries keyed on the 64-bit content
/// key (the threaded barrier and loop-arena registries, the collective
/// schedule cache) store the registering member list and call this on
/// every lookup: two distinct groups whose keys collide would otherwise
/// share a barrier, arena or schedule of the wrong shape and hang or
/// mis-release. A real FNV-1a collision between small member lists cannot
/// be forged, so tests call this directly.
inline void check_group_key_match(const std::vector<int>& registered, const ProcessorGroup& g,
                                  const char* what) {
  if (registered != g.members()) throw_group_key_collision(registered, g, what);
}

}  // namespace fxpar::pgroup
