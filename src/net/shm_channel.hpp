// fxnet: shared-memory transport — one MPSC byte ring per rank.
//
// The parent creates the region before fork (shm_open + mmap, unlinked
// immediately so no /dev/shm/fx* name can outlive any crash); every rank
// inherits the mapping at the same address. Rank r consumes ring r;
// producers serialize on a per-ring lock held across one whole frame, so
// per-source FIFO order is a property of the ring itself. Frames larger
// than the ring are streamed as partial pieces (the producer keeps the
// lock, the consumer reassembles), so a bounded ring carries unbounded
// payloads as long as the consumer drains. Consumers park on a futex
// doorbell the producer rings after every committed piece. The region
// lives as long as the transport; reset() rewinds the rings between runs.
#pragma once

#include <cstddef>
#include <map>
#include <memory>

#include "net/channel.hpp"

namespace fxpar::net {

namespace detail {
struct ShmRegion;  // mapped layout (rings + headers); see shm_channel.cpp
}

class ShmTransport final : public Transport {
 public:
  /// `ring_bytes` is the per-rank ring capacity (rounded up to a page);
  /// one frame piece is at most a quarter of it.
  explicit ShmTransport(int num_ranks, std::size_t ring_bytes = 1u << 20);
  ~ShmTransport() override;

  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  const char* name() const noexcept override { return "shm"; }
  int num_ranks() const noexcept override { return num_ranks_; }
  std::unique_ptr<Channel> attach(int rank) override;

  /// Zeroes every ring's head, tail and producer lock: whatever a dead or
  /// finished rank left behind (unread frames, a partial streamed frame, a
  /// lock held by a killed producer) is gone. Doorbells keep counting, so
  /// a waiter's "changed since I looked" test stays valid.
  void reset() override;

 private:
  friend class ShmChannel;
  int num_ranks_;
  std::size_t ring_bytes_;
  std::size_t map_bytes_ = 0;
  detail::ShmRegion* region_ = nullptr;
};

class ShmChannel final : public Channel {
 public:
  ShmChannel(ShmTransport* t, int rank) : t_(t), rank_(rank) {}

  const char* transport() const noexcept override { return "shm"; }
  int rank() const noexcept override { return rank_; }

  void send(int dst, FrameKind kind, std::uint64_t tag, const std::byte* data,
            std::size_t len) override;
  bool drain(std::vector<Frame>& out) override;
  bool wait(double timeout_s) override;

 private:
  ShmTransport* t_;
  int rank_;
  /// Reassembly buffers for streamed (partial) frames, keyed by source.
  std::map<int, Frame> pending_;
};

}  // namespace fxpar::net
