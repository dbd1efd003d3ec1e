#include "net/socket_channel.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <linux/sockios.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "net/wire.hpp"

namespace fxpar::net {
namespace {

void set_nonblock(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

[[noreturn]] void fail_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// One connected loopback pair: an ephemeral listener, a connect, an
/// accept, listener closed. Returns {server_end, client_end}.
std::pair<int, int> loopback_pair() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) fail_errno("TcpTransport: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0) {
    ::close(lfd);
    fail_errno("TcpTransport: bind/listen");
  }
  socklen_t alen = sizeof(addr);
  if (::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    ::close(lfd);
    fail_errno("TcpTransport: getsockname");
  }
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (cfd < 0) {
    ::close(lfd);
    fail_errno("TcpTransport: socket");
  }
  if (::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(lfd);
    ::close(cfd);
    fail_errno("TcpTransport: connect");
  }
  const int sfd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (sfd < 0) {
    ::close(cfd);
    fail_errno("TcpTransport: accept");
  }
  return {sfd, cfd};
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpTransport

TcpTransport::TcpTransport(int num_ranks) : num_ranks_(num_ranks) {
  if (num_ranks_ <= 0) {
    throw std::invalid_argument("TcpTransport: num_ranks must be positive");
  }
  connect_mesh();
}

TcpTransport::~TcpTransport() { close_mesh(); }

void TcpTransport::connect_mesh() {
  fds_.assign(static_cast<std::size_t>(num_ranks_) * static_cast<std::size_t>(num_ranks_),
              -1);
  for (int i = 0; i < num_ranks_; ++i) {
    for (int j = i + 1; j < num_ranks_; ++j) {
      const auto [a, b] = loopback_pair();
      for (const int fd : {a, b}) {
        set_nonblock(fd);
        set_nodelay(fd);
      }
      fds_[static_cast<std::size_t>(i) * static_cast<std::size_t>(num_ranks_) +
           static_cast<std::size_t>(j)] = a;
      fds_[static_cast<std::size_t>(j) * static_cast<std::size_t>(num_ranks_) +
           static_cast<std::size_t>(i)] = b;
    }
  }
}

void TcpTransport::close_mesh() {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

std::unique_ptr<Channel> TcpTransport::attach(int rank) {
  if (rank < 0 || rank >= num_ranks_) {
    throw std::out_of_range("TcpTransport::attach: bad rank " + std::to_string(rank));
  }
  return std::make_unique<TcpChannel>(this, rank);
}

void TcpTransport::isolate(int rank) {
  for (int owner = 0; owner < num_ranks_; ++owner) {
    if (owner == rank) continue;
    for (int peer = 0; peer < num_ranks_; ++peer) {
      int& fd = fds_[static_cast<std::size_t>(owner) * static_cast<std::size_t>(num_ranks_) +
                     static_cast<std::size_t>(peer)];
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }
}

void TcpTransport::reset() {
  // No endpoint is in use, so the only bytes that can still enter a stream
  // are those already queued on a sending socket. Once none is, everything
  // left is readable now: every rank's end drains it into frames that are
  // discarded. A stream that ends mid-frame — a sender stopped mid-way, or a
  // receiver stopped mid-read — is still empty afterwards, but its framing
  // was lost, so the mesh is rebuilt rather than trusted; so is a send
  // queue that does not empty within a second.
  std::vector<std::unique_ptr<TcpChannel>> ends;
  for (int r = 0; r < num_ranks_; ++r) ends.push_back(std::make_unique<TcpChannel>(this, r));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  bool clean = true;
  for (std::vector<Frame> discarded;;) {
    bool queued = false;
#ifdef SIOCOUTQ
    for (const int fd : fds_) {
      int n = 0;
      if (fd >= 0 && ::ioctl(fd, SIOCOUTQ, &n) == 0 && n > 0) queued = true;
    }
#endif
    for (auto& end : ends) end->drain(discarded);
    discarded.clear();
    if (!queued) break;
    if (std::chrono::steady_clock::now() > deadline) {
      clean = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (const auto& end : ends) {
    for (const auto& partial : end->streams_) clean = clean && partial.empty();
  }
  if (!clean) {
    close_mesh();
    connect_mesh();
  }
}

// ---------------------------------------------------------------------------
// TcpChannel

TcpChannel::TcpChannel(TcpTransport* t, int rank) : t_(t), rank_(rank) {
  streams_.resize(static_cast<std::size_t>(t_->num_ranks_));
}

void TcpChannel::send(int dst, FrameKind kind, std::uint64_t tag, const std::byte* data,
                      std::size_t len) {
  if (dst < 0 || dst >= t_->num_ranks_ || dst == rank_) {
    throw std::out_of_range("TcpChannel::send: bad destination " + std::to_string(dst));
  }
  const int fd = t_->fd(rank_, dst);
  if (fd < 0) throw std::logic_error("TcpChannel::send: fd closed (isolated rank?)");
  if (peer_done(dst)) throw PeerFinished();

  detail::WireHdr w;
  w.len = static_cast<std::uint32_t>(len);
  w.kind = static_cast<std::uint32_t>(kind);
  w.src = rank_;
  w.pad = 0;
  w.tag = tag;

  // Write header then payload; the socket is non-blocking so a full buffer
  // shows up as a short/EAGAIN write — poll for space while watching the
  // stop flag. The receiver reassembles partial arrivals from the stream.
  const auto put = [&](const std::byte* p, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t k = ::send(fd, p + off, n - off, MSG_NOSIGNAL);
      if (k > 0) {
        off += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        fail_errno("TcpChannel::send");
      }
      if (stopped()) throw ChannelStopped();
      // A finished receiver frees no buffer space: drop the frame, even
      // mid-way (reset() rebuilds a mesh whose stream ends mid-frame).
      if (peer_done(dst)) throw PeerFinished();
      pollfd pf{fd, POLLOUT, 0};
      ::poll(&pf, 1, 10);
    }
  };
  put(reinterpret_cast<const std::byte*>(&w), sizeof(w));
  if (len > 0) put(data, len);
}

bool TcpChannel::drain(std::vector<Frame>& out) {
  bool any = false;
  for (int peer = 0; peer < t_->num_ranks_; ++peer) {
    if (peer == rank_) continue;
    const int fd = t_->fd(rank_, peer);
    if (fd < 0) continue;
    auto& buf = streams_[static_cast<std::size_t>(peer)];
    // Pull whatever the kernel has.
    std::byte chunk[16384];
    for (;;) {
      const ssize_t k = ::recv(fd, chunk, sizeof(chunk), 0);
      if (k > 0) {
        buf.insert(buf.end(), chunk, chunk + k);
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
      break;  // peer closed (child exited) or error: frame what we have
    }
    // Frame complete messages out of the stream buffer.
    std::size_t off = 0;
    while (buf.size() - off >= sizeof(detail::WireHdr)) {
      detail::WireHdr w;
      std::memcpy(&w, buf.data() + off, sizeof(w));
      if (buf.size() - off < sizeof(w) + w.len) break;
      Frame f;
      f.kind = static_cast<FrameKind>(w.kind & ~detail::kPartialFlag);
      f.src = w.src;
      f.tag = w.tag;
      f.payload.assign(buf.data() + off + sizeof(w), buf.data() + off + sizeof(w) + w.len);
      out.push_back(std::move(f));
      any = true;
      off += sizeof(w) + w.len;
    }
    if (off > 0) buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return any;
}

bool TcpChannel::wait(double timeout_s) {
  std::vector<pollfd> pfs;
  pfs.reserve(static_cast<std::size_t>(t_->num_ranks_));
  for (int peer = 0; peer < t_->num_ranks_; ++peer) {
    if (peer == rank_) continue;
    const int fd = t_->fd(rank_, peer);
    if (fd >= 0) pfs.push_back(pollfd{fd, POLLIN, 0});
  }
  if (stopped()) return true;  // caller re-checks its abort flag
  if (pfs.empty()) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long long>(timeout_s * 1e6)));
    return false;
  }
  const int ms = std::max(1, static_cast<int>(timeout_s * 1e3));
  return ::poll(pfs.data(), static_cast<nfds_t>(pfs.size()), ms) > 0;
}

}  // namespace fxpar::net
