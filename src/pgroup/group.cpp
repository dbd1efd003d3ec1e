#include "pgroup/group.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace fxpar::pgroup {

ProcessorGroup::ProcessorGroup(std::vector<int> physical_ranks)
    : phys_(std::move(physical_ranks)) {
  if (phys_.empty()) throw std::invalid_argument("ProcessorGroup: empty member list");
  std::unordered_set<int> seen;
  for (int p : phys_) {
    if (p < 0) throw std::invalid_argument("ProcessorGroup: negative physical rank");
    if (!seen.insert(p).second) {
      throw std::invalid_argument("ProcessorGroup: duplicate physical rank " + std::to_string(p));
    }
  }
  compute_key();
}

ProcessorGroup ProcessorGroup::identity(int n) {
  if (n <= 0) throw std::invalid_argument("ProcessorGroup::identity: n must be positive");
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return ProcessorGroup(std::move(v));
}

int ProcessorGroup::physical(int v) const {
  if (v < 0 || v >= size()) {
    throw std::out_of_range("ProcessorGroup::physical: virtual rank " + std::to_string(v) +
                            " out of range [0," + std::to_string(size()) + ")");
  }
  return phys_[static_cast<std::size_t>(v)];
}

int ProcessorGroup::virtual_of(int p) const noexcept {
  for (std::size_t i = 0; i < phys_.size(); ++i) {
    if (phys_[i] == p) return static_cast<int>(i);
  }
  return -1;
}

ProcessorGroup ProcessorGroup::slice(int first, int count) const {
  if (first < 0 || count <= 0 || first + count > size()) {
    throw std::out_of_range("ProcessorGroup::slice: bad range [" + std::to_string(first) +
                            "," + std::to_string(first + count) + ") of " +
                            std::to_string(size()));
  }
  return ProcessorGroup(std::vector<int>(phys_.begin() + first, phys_.begin() + first + count));
}

void ProcessorGroup::compute_key() {
  // FNV-1a over the member list.
  std::uint64_t h = 1469598103934665603ull;
  for (int p : phys_) {
    h ^= static_cast<std::uint64_t>(p) + 0x9e3779b97f4a7c15ull;
    h *= 1099511628211ull;
  }
  key_ = h;
}

int require_member(const ProcessorGroup& g, int rank, const char* what) {
  const int v = g.virtual_of(rank);
  if (v < 0) {
    throw std::logic_error(std::string(what) + ": proc " + std::to_string(rank) +
                           " is not a member of group " + g.to_string());
  }
  return v;
}

void throw_group_key_collision(const std::vector<int>& registered, const ProcessorGroup& g,
                               const char* what) {
  std::string msg = std::string("group key collision in ") + what + ": key " +
                    std::to_string(g.key()) + " of group " + g.to_string() +
                    " is already registered for members [";
  for (std::size_t i = 0; i < registered.size(); ++i) {
    if (i) msg += ",";
    msg += std::to_string(registered[i]);
  }
  msg += "]";
  throw std::logic_error(msg);
}

std::string ProcessorGroup::to_string() const {
  std::ostringstream oss;
  oss << "{";
  for (std::size_t i = 0; i < phys_.size(); ++i) {
    if (i) oss << ",";
    oss << phys_[i];
  }
  oss << "}";
  return oss.str();
}

}  // namespace fxpar::pgroup
