// fxnet: loopback TCP transport — a pre-connected pairwise socket mesh.
//
// The parent connects every rank pair over 127.0.0.1 *before* forking
// (ephemeral listener per pair, connect, accept, listener closed), so no
// post-fork handshake exists: children simply inherit their row of
// connected fds and close the rest. Frames use the same wire header as the
// shm rings; TCP's byte-stream delivery makes partial reads/writes routine,
// and the channel reassembles them — which is exactly what a future
// multi-node transport will need. Sockets run non-blocking with
// poll()-based waits so blocked senders and parked receivers keep
// observing the stop flag. The mesh lives as long as the transport; reset()
// empties every stream between runs, and rebuilds the mesh when it cannot
// prove a stream clean.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "net/channel.hpp"

namespace fxpar::net {

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(int num_ranks);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  const char* name() const noexcept override { return "tcp"; }
  int num_ranks() const noexcept override { return num_ranks_; }
  std::unique_ptr<Channel> attach(int rank) override;

  /// Closes every fd not belonging to `rank` (called by a forked child; a
  /// process hosting several in-process endpoints must not call this).
  void isolate(int rank) override;

  /// Waits (bounded) until no socket has unacknowledged bytes queued, then
  /// reads and discards every stream down to EAGAIN. Rebuilds the mesh if
  /// the wait times out or a discarded stream ends mid-frame.
  void reset() override;

 private:
  friend class TcpChannel;
  void connect_mesh();
  void close_mesh();
  int fd(int owner, int peer) const noexcept {
    return fds_[static_cast<std::size_t>(owner) * static_cast<std::size_t>(num_ranks_) +
                static_cast<std::size_t>(peer)];
  }
  int num_ranks_;
  std::vector<int> fds_;  ///< owner * P + peer; -1 on the diagonal / after isolate
};

class TcpChannel final : public Channel {
 public:
  TcpChannel(TcpTransport* t, int rank);

  const char* transport() const noexcept override { return "tcp"; }
  int rank() const noexcept override { return rank_; }

  void send(int dst, FrameKind kind, std::uint64_t tag, const std::byte* data,
            std::size_t len) override;
  bool drain(std::vector<Frame>& out) override;
  bool wait(double timeout_s) override;

 private:
  friend class TcpTransport;  // reset() drains through every rank's end
  TcpTransport* t_;
  int rank_;
  /// Per-peer receive stream buffer (bytes read but not yet framed).
  std::vector<std::vector<std::byte>> streams_;
};

}  // namespace fxpar::net
