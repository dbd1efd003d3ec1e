// fxpar trace: byte blobs for state a forked rank ships to its parent.
//
// The proc backend's children and their parent are the same binary image,
// so trivially copyable values travel in native encoding. The trace shard
// (TraceRecorder::serialize_shard) and the rest of a child's residue
// (exec/probe.hpp) are written with put*() and read back with a Reader,
// which throws std::runtime_error on a truncated blob.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace fxpar::trace::blob {

inline void put_raw(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

template <class T>
void put(std::vector<std::byte>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_raw(out, &v, sizeof v);
}

inline void put_str(std::vector<std::byte>& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  put_raw(out, s.data(), s.size());
}

/// A count, then the elements' raw bytes.
template <class T>
void put_vec(std::vector<std::byte>& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put<std::uint64_t>(out, v.size());
  if (!v.empty()) put_raw(out, v.data(), v.size() * sizeof(T));
}

/// Sequential reader over one blob.
class Reader {
 public:
  Reader(const std::byte* data, std::size_t len) : p_(data), len_(len) {}

  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }

  std::string str() {
    const auto n = get<std::uint32_t>();
    return std::string(reinterpret_cast<const char*>(take(n)), n);
  }

  template <class T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    if (n > (len_ - off_) / sizeof(T)) truncated();
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n != 0) std::memcpy(v.data(), take(v.size() * sizeof(T)), v.size() * sizeof(T));
    return v;
  }

 private:
  const std::byte* take(std::size_t n) {
    if (n > len_ - off_) truncated();
    const std::byte* at = p_ + off_;
    off_ += n;
    return at;
  }
  [[noreturn]] static void truncated() {
    throw std::runtime_error("fxpar: truncated residue blob from a forked rank");
  }

  const std::byte* p_;
  std::size_t len_;
  std::size_t off_ = 0;
};

}  // namespace fxpar::trace::blob
