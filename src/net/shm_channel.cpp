#include "net/shm_channel.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <system_error>
#include <thread>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <sys/time.h>
#endif

#include "net/wire.hpp"

namespace fxpar::net {
namespace detail {

struct alignas(64) RingHdr {
  std::atomic<std::uint64_t> head{0};  ///< bytes consumed (consumer-owned)
  std::atomic<std::uint64_t> tail{0};  ///< bytes committed (producer-owned)
  std::atomic<std::uint32_t> lock{0};  ///< producer mutex (0 free)
  std::atomic<std::uint32_t> doorbell{0};  ///< futex word, bumped per commit
};

/// The mapped region: num_ranks ring headers followed by num_ranks data
/// areas of ring_bytes each. Offsets are computed, not declared, so the
/// struct is just the access helper.
struct ShmRegion {
  static std::size_t bytes(int ranks, std::size_t ring_bytes) {
    return static_cast<std::size_t>(ranks) * (sizeof(RingHdr) + ring_bytes);
  }
  static RingHdr* hdr(void* base, int ranks, std::size_t ring_bytes, int r) {
    (void)ranks;
    (void)ring_bytes;
    return reinterpret_cast<RingHdr*>(base) + r;
  }
  static std::byte* data(void* base, int ranks, std::size_t ring_bytes, int r) {
    auto* p = reinterpret_cast<std::byte*>(base);
    return p + static_cast<std::size_t>(ranks) * sizeof(RingHdr) +
           static_cast<std::size_t>(r) * ring_bytes;
  }
};

namespace {

void futex_wake_word(std::atomic<std::uint32_t>* w) {
#ifdef __linux__
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(w), FUTEX_WAKE, INT32_MAX,
            nullptr, nullptr, 0);
#else
  (void)w;
#endif
}

/// Waits for *w to change from `seen` (or timeout). Spurious returns fine.
void futex_wait_word(std::atomic<std::uint32_t>* w, std::uint32_t seen,
                     double timeout_s) {
#ifdef __linux__
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(w), FUTEX_WAIT, seen, &ts,
            nullptr, 0);
#else
  (void)w;
  (void)seen;
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<long long>(timeout_s * 1e9)));
#endif
}

}  // namespace
}  // namespace detail

using detail::RingHdr;
using detail::ShmRegion;
using detail::WireHdr;

// ---------------------------------------------------------------------------
// ShmTransport

ShmTransport::ShmTransport(int num_ranks, std::size_t ring_bytes)
    : num_ranks_(num_ranks), ring_bytes_(ring_bytes < 4096 ? 4096 : ring_bytes) {
  if (num_ranks_ <= 0) {
    throw std::invalid_argument("ShmTransport: num_ranks must be positive");
  }
  map_bytes_ = ShmRegion::bytes(num_ranks_, ring_bytes_);
  // Name the segment, map it, and unlink immediately: forked children
  // inherit the mapping itself, and no /dev/shm/fx* entry can survive even
  // a crash between here and the first run.
  void* base = MAP_FAILED;
  static std::atomic<std::uint64_t> seq{0};
  for (int attempt = 0; attempt < 16 && base == MAP_FAILED; ++attempt) {
    const std::string name = "/fx." + std::to_string(::getpid()) + "." +
                             std::to_string(seq.fetch_add(1));
    const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) {
      if (errno == EEXIST) continue;
      break;  // shm_open unsupported: fall through to the anonymous mapping
    }
    if (::ftruncate(fd, static_cast<off_t>(map_bytes_)) == 0) {
      base = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    }
    ::shm_unlink(name.c_str());
    ::close(fd);
  }
  if (base == MAP_FAILED) {
    base = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  }
  if (base == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "ShmTransport: mmap");
  }
  // A new shm object or anonymous mapping reads as zeros, so the rings are
  // not cleared here: their pages fault in on first use, not all up front.
  for (int r = 0; r < num_ranks_; ++r) {
    new (ShmRegion::hdr(base, num_ranks_, ring_bytes_, r)) RingHdr();
  }
  region_ = reinterpret_cast<detail::ShmRegion*>(base);
}

ShmTransport::~ShmTransport() {
  if (region_ != nullptr) ::munmap(region_, map_bytes_);
}

std::unique_ptr<Channel> ShmTransport::attach(int rank) {
  if (rank < 0 || rank >= num_ranks_) {
    throw std::out_of_range("ShmTransport::attach: bad rank " + std::to_string(rank));
  }
  return std::make_unique<ShmChannel>(this, rank);
}

void ShmTransport::reset() {
  for (int r = 0; r < num_ranks_; ++r) {
    RingHdr* h = ShmRegion::hdr(region_, num_ranks_, ring_bytes_, r);
    h->head.store(0, std::memory_order_relaxed);
    h->tail.store(0, std::memory_order_relaxed);
    h->lock.store(0, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// ShmChannel

void ShmChannel::send(int dst, FrameKind kind, std::uint64_t tag, const std::byte* data,
                      std::size_t len) {
  if (dst < 0 || dst >= t_->num_ranks_ || dst == rank_) {
    throw std::out_of_range("ShmChannel::send: bad destination " + std::to_string(dst));
  }
  void* base = t_->region_;
  const std::size_t cap = t_->ring_bytes_;
  RingHdr* h = ShmRegion::hdr(base, t_->num_ranks_, cap, dst);
  std::byte* ring = ShmRegion::data(base, t_->num_ranks_, cap, dst);
  const std::size_t max_piece = cap / 4;
  if (peer_done(dst)) throw PeerFinished();

  // Producer lock: held across every piece of the frame so pieces land
  // contiguously and per-source order is the ring order.
  for (int spin = 0;; ++spin) {
    std::uint32_t expect = 0;
    if (h->lock.compare_exchange_weak(expect, 1, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      break;
    }
    if (stopped()) throw ChannelStopped();
    if (peer_done(dst)) throw PeerFinished();
    if (spin > 64) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  struct Unlock {
    RingHdr* h;
    ~Unlock() { h->lock.store(0, std::memory_order_release); }
  } unlock{h};

  std::size_t off = 0;
  do {
    const std::size_t piece = std::min(len - off, max_piece);
    const std::size_t need = sizeof(WireHdr) + piece;
    // Wait for ring space; the consumer frees it by draining. Progress is
    // guaranteed because the destination drains its ring in every park
    // loop (receive, barrier), not only when it wants this frame — until it
    // finishes, and then the frame is dropped (the pieces already committed
    // stay behind until reset()).
    std::uint64_t tail = h->tail.load(std::memory_order_relaxed);
    while (cap - (tail - h->head.load(std::memory_order_acquire)) < need) {
      if (stopped()) throw ChannelStopped();
      if (peer_done(dst)) throw PeerFinished();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    WireHdr w;
    w.len = static_cast<std::uint32_t>(piece);
    w.kind = static_cast<std::uint32_t>(kind) |
             (off + piece < len ? detail::kPartialFlag : 0u);
    w.src = rank_;
    w.pad = 0;
    w.tag = tag;
    const auto put = [&](const void* p, std::size_t n) {
      const std::size_t at = static_cast<std::size_t>(tail % cap);
      const std::size_t first = std::min(n, cap - at);
      std::memcpy(ring + at, p, first);
      if (first < n) {
        std::memcpy(ring, static_cast<const std::byte*>(p) + first, n - first);
      }
      tail += n;
    };
    put(&w, sizeof(w));
    if (piece > 0) put(data + off, piece);
    h->tail.store(tail, std::memory_order_release);
    h->doorbell.fetch_add(1, std::memory_order_release);
    detail::futex_wake_word(&h->doorbell);
    off += piece;
  } while (off < len);
}

bool ShmChannel::drain(std::vector<Frame>& out) {
  void* base = t_->region_;
  const std::size_t cap = t_->ring_bytes_;
  RingHdr* h = ShmRegion::hdr(base, t_->num_ranks_, cap, rank_);
  const std::byte* ring = ShmRegion::data(base, t_->num_ranks_, cap, rank_);
  bool any = false;

  std::uint64_t head = h->head.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t tail = h->tail.load(std::memory_order_acquire);
    const std::uint64_t avail = tail - head;
    if (avail < sizeof(WireHdr)) break;
    const auto get = [&](void* p, std::size_t n, std::uint64_t from) {
      const std::size_t at = static_cast<std::size_t>(from % cap);
      const std::size_t first = std::min(n, cap - at);
      std::memcpy(p, ring + at, first);
      if (first < n) std::memcpy(static_cast<std::byte*>(p) + first, ring, n - first);
    };
    WireHdr w;
    get(&w, sizeof(w), head);
    if (avail < sizeof(WireHdr) + w.len) break;  // piece not fully committed
    const bool partial = (w.kind & detail::kPartialFlag) != 0;
    const auto kind = static_cast<FrameKind>(w.kind & ~detail::kPartialFlag);
    Frame& pend = pending_[w.src];
    if (pend.payload.empty() && pend.src < 0) {
      pend.kind = kind;
      pend.src = w.src;
      pend.tag = w.tag;
    }
    const std::size_t at = pend.payload.size();
    pend.payload.resize(at + w.len);
    if (w.len > 0) get(pend.payload.data() + at, w.len, head + sizeof(WireHdr));
    head += sizeof(WireHdr) + w.len;
    h->head.store(head, std::memory_order_release);
    if (!partial) {
      out.push_back(std::move(pend));
      pending_.erase(w.src);
      any = true;
    }
  }
  return any;
}

bool ShmChannel::wait(double timeout_s) {
  void* base = t_->region_;
  RingHdr* h = ShmRegion::hdr(base, t_->num_ranks_, t_->ring_bytes_, rank_);
  const std::uint32_t seen = h->doorbell.load(std::memory_order_acquire);
  if (h->tail.load(std::memory_order_acquire) != h->head.load(std::memory_order_relaxed)) {
    return true;
  }
  if (stopped()) return true;
  detail::futex_wait_word(&h->doorbell, seen, timeout_s);
  return h->doorbell.load(std::memory_order_acquire) != seen;
}

}  // namespace fxpar::net
