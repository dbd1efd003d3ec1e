// Tests for the fxnet transport seam (src/net/): frame round-trips and
// per-source FIFO order on both transports, streamed (partial) frames —
// shm rings smaller than one payload, TCP byte-stream reassembly — stop-flag
// and peer-done semantics for blocked senders and parked receivers, and
// reset() discarding every leftover frame. All endpoints are attached
// in-process: the transports are plain byte movers with no fork dependence,
// which is exactly what makes them testable here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/channel.hpp"
#include "net/shm_channel.hpp"
#include "net/socket_channel.hpp"

namespace net = fxpar::net;

namespace {

std::vector<std::byte> bytes_pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131u + seed * 17u) & 0xffu);
  }
  return v;
}

/// Drains `ch` (parking between polls) until `want` frames arrived.
std::vector<net::Frame> drain_until(net::Channel& ch, std::size_t want) {
  std::vector<net::Frame> got;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got.size() < want) {
    if (!ch.drain(got)) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "drain_until: timed out with " << got.size() << "/" << want;
        break;
      }
      ch.wait(0.05);
    }
  }
  return got;
}

std::unique_ptr<net::Transport> make_transport(const std::string& which, int n) {
  if (which == "shm") return std::make_unique<net::ShmTransport>(n);
  return std::make_unique<net::TcpTransport>(n);
}

/// Two ranks with buffers far smaller than the test payloads: a
/// deliberately tiny shm ring, or the TCP mesh, whose kernel socket buffers
/// force partial writes and reads anyway.
std::unique_ptr<net::Transport> small_buffer_transport(const std::string& which) {
  if (which == "shm") return std::make_unique<net::ShmTransport>(2, /*ring_bytes=*/4096);
  return std::make_unique<net::TcpTransport>(2);
}

class NetTransport : public ::testing::TestWithParam<const char*> {};

}  // namespace

TEST_P(NetTransport, FrameRoundTripPreservesKindTagPayload) {
  auto t = make_transport(GetParam(), 2);
  EXPECT_STREQ(t->name(), GetParam());
  EXPECT_EQ(t->num_ranks(), 2);
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  EXPECT_EQ(c0->rank(), 0);
  EXPECT_STREQ(c1->transport(), GetParam());

  const auto payload = bytes_pattern(1000, 7);
  c0->send(1, net::FrameKind::Data, 42, payload.data(), payload.size());
  c0->send(1, net::FrameKind::Done, 3, payload.data(), 0);  // empty payload

  const auto got = drain_until(*c1, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, net::FrameKind::Data);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].tag, 42u);
  ASSERT_EQ(got[0].payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(got[0].payload.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(got[1].kind, net::FrameKind::Done);
  EXPECT_EQ(got[1].tag, 3u);
  EXPECT_TRUE(got[1].payload.empty());
}

TEST_P(NetTransport, PerSourceFifoAcrossInterleavedSenders) {
  auto t = make_transport(GetParam(), 3);
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  auto c2 = t->attach(2);

  constexpr int kPerSender = 100;
  auto sender = [&](net::Channel& ch) {
    for (int i = 0; i < kPerSender; ++i) {
      const auto body = bytes_pattern(32 + static_cast<std::size_t>(i), 1);
      ch.send(0, net::FrameKind::Data, static_cast<std::uint64_t>(i), body.data(),
              body.size());
    }
  };
  std::thread s1([&] { sender(*c1); });
  std::thread s2([&] { sender(*c2); });
  const auto got = drain_until(*c0, 2 * kPerSender);
  s1.join();
  s2.join();

  // The interleaving of sources is arbitrary; the order *within* each
  // source must be exactly the send order (the backend's determinism
  // contract hangs on this).
  ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * kPerSender));
  std::uint64_t next_tag[3] = {0, 0, 0};
  for (const net::Frame& f : got) {
    ASSERT_TRUE(f.src == 1 || f.src == 2) << "src " << f.src;
    EXPECT_EQ(f.tag, next_tag[f.src]) << "src " << f.src;
    EXPECT_EQ(f.payload.size(), 32 + f.tag);
    ++next_tag[f.src];
  }
  EXPECT_EQ(next_tag[1], static_cast<std::uint64_t>(kPerSender));
  EXPECT_EQ(next_tag[2], static_cast<std::uint64_t>(kPerSender));
}

TEST_P(NetTransport, LargeFrameStreamsThroughBoundedBuffers) {
  // A payload far larger than any single buffer: the shm transport gets a
  // deliberately tiny ring so the frame must cross as many partial pieces;
  // on TCP the kernel socket buffers force partial writes and reads. The
  // producer blocks until the consumer drains, so it runs on its own
  // thread (in the real backend they are separate processes).
  auto t = small_buffer_transport(GetParam());
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);

  const auto big = bytes_pattern(3u << 20, 9);  // 3 MiB
  std::thread producer(
      [&] { c0->send(1, net::FrameKind::Data, 77, big.data(), big.size()); });
  const auto got = drain_until(*c1, 1);
  producer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].tag, 77u);
  ASSERT_EQ(got[0].payload.size(), big.size());
  EXPECT_EQ(std::memcmp(got[0].payload.data(), big.data(), big.size()), 0);
}

TEST_P(NetTransport, SmallFramesAfterLargeOneStayFramed) {
  // Reassembly state must reset cleanly between frames: a streamed frame
  // followed by ordinary ones on the same source.
  auto t = small_buffer_transport(GetParam());
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  const auto big = bytes_pattern(256 * 1024, 2);
  const auto small = bytes_pattern(64, 5);
  std::thread producer([&] {
    c0->send(1, net::FrameKind::Data, 1, big.data(), big.size());
    c0->send(1, net::FrameKind::Data, 2, small.data(), small.size());
    c0->send(1, net::FrameKind::Done, 0, small.data(), 0);
  });
  const auto got = drain_until(*c1, 3);
  producer.join();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].payload.size(), big.size());
  EXPECT_EQ(got[1].payload.size(), small.size());
  EXPECT_EQ(std::memcmp(got[1].payload.data(), small.data(), small.size()), 0);
  EXPECT_EQ(got[2].kind, net::FrameKind::Done);
}

TEST_P(NetTransport, StopFlagUnblocksSenderAndWaiter) {
  auto t = small_buffer_transport(GetParam());
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  std::atomic<std::uint32_t> stop{0};
  c0->set_stop(&stop);
  c1->set_stop(&stop);

  // Nobody drains rank 1: the producer must block (tiny ring / full socket
  // buffer) and then observe the stop flag as ChannelStopped.
  std::atomic<bool> threw{false};
  const auto big = bytes_pattern(8u << 20, 4);
  std::thread producer([&] {
    try {
      for (;;) c0->send(1, net::FrameKind::Data, 9, big.data(), big.size());
    } catch (const net::ChannelStopped&) {
      threw.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(1, std::memory_order_release);
  producer.join();
  EXPECT_TRUE(threw.load(std::memory_order_acquire));

  // A parked receiver with the stop flag raised returns promptly instead
  // of sitting out its timeout.
  const auto t0 = std::chrono::steady_clock::now();
  (void)c0->wait(30.0);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST_P(NetTransport, PeerDoneUnblocksSender) {
  auto t = small_buffer_transport(GetParam());
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  std::atomic<bool> done{false};
  c0->set_peer_done([&done](int dst) { return dst == 1 && done.load(); });

  // Nobody drains rank 1: the producer blocks until rank 1 is declared
  // finished, then gives up on the frame.
  std::atomic<bool> threw{false};
  const auto big = bytes_pattern(32u << 20, 5);
  std::thread producer([&] {
    try {
      c0->send(1, net::FrameKind::Data, 9, big.data(), big.size());
    } catch (const net::PeerFinished&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(threw.load());
  done.store(true);
  producer.join();
  EXPECT_TRUE(threw.load());
  // Once finished, a send gives up at entry, however small.
  EXPECT_THROW(c0->send(1, net::FrameKind::Data, 10, big.data(), 8), net::PeerFinished);
}

// What a run can leave in a transport: a whole frame nobody received, and a
// streamed frame whose sender stopped mid-way. After reset(), endpoints
// attached afresh see only frames sent after it, in both directions.
TEST_P(NetTransport, ResetDiscardsWholeAndPartialFrames) {
  auto t = small_buffer_transport(GetParam());
  std::atomic<std::uint32_t> stop{0};
  {
    auto c0 = t->attach(0);
    auto c1 = t->attach(1);
    c0->set_stop(&stop);
    const auto small = bytes_pattern(100, 1);
    c0->send(1, net::FrameKind::Data, 5, small.data(), small.size());
    c1->send(0, net::FrameKind::Data, 5, small.data(), small.size());
    const auto big = bytes_pattern(32u << 20, 2);
    std::thread producer([&] {
      EXPECT_THROW(c0->send(1, net::FrameKind::Data, 6, big.data(), big.size()),
                   net::ChannelStopped);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(1);
    producer.join();
  }
  t->reset();

  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  const auto fresh = bytes_pattern(300, 3);
  c0->send(1, net::FrameKind::Data, 7, fresh.data(), fresh.size());
  c1->send(0, net::FrameKind::Data, 8, fresh.data(), fresh.size());
  for (auto* rx : {c1.get(), c0.get()}) {
    auto got = drain_until(*rx, 1);
    ASSERT_EQ(got.size(), 1u) << "rank " << rx->rank();
    EXPECT_EQ(got[0].tag, rx->rank() == 1 ? 7u : 8u);
    ASSERT_EQ(got[0].payload.size(), fresh.size());
    EXPECT_EQ(std::memcmp(got[0].payload.data(), fresh.data(), fresh.size()), 0);
    (void)rx->wait(0.05);
    EXPECT_FALSE(rx->drain(got)) << "rank " << rx->rank() << " saw a stale frame";
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, NetTransport, ::testing::Values("shm", "tcp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });
