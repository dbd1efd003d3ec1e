// fxnet: byte-frame transport seam for the process-per-rank backend.
//
// A Transport is created by the parent process *before* forking: it owns
// whatever shared resources the ranks will communicate through (a shared
// memory region of per-rank rings, or a mesh of pre-connected loopback TCP
// sockets). Each rank — parent or forked child — then attach()es exactly
// one Channel endpoint for itself and moves frames through it:
//
//   [Frame] kind | src | tag | payload-bytes
//
// The contract mirrors the mailbox semantics of the exec seam
// (docs/execution.md, "Determinism contract"): frames from one source
// arrive in the order they were sent, so per-(src, tag) FIFO matching in
// the consumer reproduces the simulator's deterministic message order.
// Everything above framing — matching, barriers, abort — lives in
// exec::ProcBackend; the transports stay dumb byte movers so a future
// multi-node transport can slot in behind the same interface.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace fxpar::net {

/// What a frame carries. Data frames are direct-deposit messages. A
/// finishing child sends rank 0 one Done frame last: its stats already sit
/// in shared memory, and the payload is its variable-size residue, an
/// opaque blob to the transport (exec/probe.hpp writes and reads it).
enum class FrameKind : std::uint32_t {
  Data = 0,  ///< direct-deposit message payload
  Done = 1,  ///< child finished (payload: its residue); no further frames follow
};

/// One reassembled frame, as handed to the consumer by Channel::drain().
struct Frame {
  FrameKind kind = FrameKind::Data;
  int src = -1;
  std::uint64_t tag = 0;
  std::vector<std::byte> payload;
};

/// Thrown out of a blocking channel operation after request-stop (the
/// backend's abort flag): the caller is unwinding, not failing.
struct ChannelStopped : std::runtime_error {
  ChannelStopped() : std::runtime_error("fxnet: channel stopped") {}
};

/// Thrown out of send() when the destination has finished for good (see
/// Channel::set_peer_done): the frame could never be received, so it is
/// dropped — possibly after some of its pieces already went out.
struct PeerFinished : std::runtime_error {
  PeerFinished() : std::runtime_error("fxnet: destination finished") {}
};

/// One rank's endpoint. Single-threaded use per endpoint (each logical
/// processor is one process/thread); distinct endpoints of one Transport
/// are used concurrently by design.
class Channel {
 public:
  virtual ~Channel() = default;

  /// "shm" / "tcp" (stable spelling used by bench records and CLIs).
  virtual const char* transport() const noexcept = 0;

  /// Rank this endpoint was attached as.
  virtual int rank() const noexcept = 0;

  /// Sends one frame to `dst`. May block (ring full / socket buffer full)
  /// until the consumer drains; honors the stop flag (throws
  /// ChannelStopped) and the peer-done predicate (throws PeerFinished, at
  /// entry or while blocked). `dst == rank()` is a caller error —
  /// self-sends are matched locally by the backend and never reach a
  /// transport.
  virtual void send(int dst, FrameKind kind, std::uint64_t tag, const std::byte* data,
                    std::size_t len) = 0;

  /// Appends every fully received frame to `out` without blocking; returns
  /// true when at least one frame was appended. Partially transmitted
  /// frames stay buffered until complete.
  virtual bool drain(std::vector<Frame>& out) = 0;

  /// Blocks until a frame may be available (or `timeout_s` elapsed);
  /// returns false on timeout. Spurious wakeups are allowed — callers
  /// always re-drain.
  virtual bool wait(double timeout_s) = 0;

  /// Installs a stop flag observed by blocking operations: when it becomes
  /// nonzero, send() throws ChannelStopped and wait() returns promptly.
  /// The pointed-to word must outlive the channel (the proc backend points
  /// it at the abort word in its shared control block, so every process
  /// observes the same stop).
  void set_stop(const std::atomic<std::uint32_t>* stop) noexcept { stop_ = stop; }

  /// Installs a predicate saying whether rank `dst` has finished and will
  /// never drain its endpoint again. A send to such a rank gives up with
  /// PeerFinished instead of waiting for buffer space nobody will free.
  void set_peer_done(std::function<bool(int)> done) { peer_done_ = std::move(done); }

 protected:
  bool stopped() const noexcept {
    return stop_ != nullptr && stop_->load(std::memory_order_acquire) != 0;
  }
  bool peer_done(int dst) const { return peer_done_ && peer_done_(dst); }

 private:
  const std::atomic<std::uint32_t>* stop_ = nullptr;
  std::function<bool(int)> peer_done_;
};

/// Factory for channels, created in the parent before the first fork and
/// kept for the backend's lifetime: every run forks fresh ranks over the
/// same rings or socket mesh, after reset() has emptied them.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual const char* name() const noexcept = 0;
  virtual int num_ranks() const noexcept = 0;

  /// Endpoint for `rank`. After fork each process attaches as its own rank;
  /// in-process tests may attach several ranks from one address space.
  virtual std::unique_ptr<Channel> attach(int rank) = 0;

  /// Drops resources belonging to ranks other than `rank` (a forked child
  /// closes the socket ends it inherited but does not own). No-op where
  /// resources are naturally shared (shm).
  virtual void isolate(int /*rank*/) {}

  /// Returns the transport to its just-constructed state: no byte of any
  /// earlier frame, whole or partial, can reach a channel attached after
  /// this. Only legal while no endpoint is in use (the proc backend calls
  /// it at run start, when no child is alive); channels attached before
  /// must be discarded, since their reassembly state is stale.
  virtual void reset() = 0;
};

}  // namespace fxpar::net
