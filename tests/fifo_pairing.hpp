// A traced program whose messages the trace merge must pair with their
// receives by per-(source, tag) FIFO order alone: no message carries trace
// state, so the k-th (src, dst, tag) send is matched to the k-th (src, tag)
// receive at dst. Shared by the threaded (test_exec) and process
// (test_exec_proc) backend tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "machine/context.hpp"
#include "trace/trace.hpp"

namespace fxtest {

inline constexpr std::uint64_t kFifoTagA = 10;
inline constexpr std::uint64_t kFifoTagB = 20;

/// Size of the k-th (src, tag) message: all distinct, and rank 2's first
/// message is empty.
inline std::size_t fifo_bytes(int src, std::uint64_t tag, int k) {
  if (src == 2) return k == 0 ? 0 : 16;
  return static_cast<std::size_t>(tag == kFifoTagA ? 8 + k : 4 + k);
}

inline fxpar::machine::Payload fifo_payload(int src, std::uint64_t tag, int k) {
  fxpar::machine::Payload p(fifo_bytes(src, tag, k));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<std::byte>((src * 31 + static_cast<int>(tag) + k * 7 + static_cast<int>(i)) &
                                  0xff);
  }
  return p;
}

/// Returns once rank `r` is parked in a receive, so the next message sent
/// to it ends a wait. On the real-time backends a receive whose message is
/// already queued records no wait; a sim receive waits for the message's
/// modeled arrival anyway, so there it returns at once.
inline void await_parked(fxpar::machine::Context& ctx, int r) {
  const auto& backend = ctx.machine().backend();
  if (backend.kind() == fxpar::exec::BackendKind::Sim) return;
  while (backend.introspect().workers[static_cast<std::size_t>(r)].state != "parked") {
    std::this_thread::yield();
  }
}

/// Rank 0 sends three tag-A messages to rank 1, waits until rank 1 is
/// blocked in its first receive, then sends two tag-B messages; rank 2
/// sends two tag-A messages to rank 1. Rank 1 receives tag B before tag A
/// and leaves rank 0's third tag-A message unreceived. A wrong payload
/// throws, which fails the run.
inline void fifo_pairing_program(fxpar::machine::Context& ctx) {
  const int r = ctx.phys_rank();
  if (r == 0) {
    for (int k = 0; k < 3; ++k) ctx.send_phys(1, kFifoTagA, fifo_payload(0, kFifoTagA, k));
    await_parked(ctx, 1);
    for (int k = 0; k < 2; ++k) ctx.send_phys(1, kFifoTagB, fifo_payload(0, kFifoTagB, k));
  } else if (r == 2) {
    for (int k = 0; k < 2; ++k) ctx.send_phys(1, kFifoTagA, fifo_payload(2, kFifoTagA, k));
  } else if (r == 1) {
    const auto expect = [&](int src, std::uint64_t tag, int k) {
      if (ctx.recv_phys(src, tag) != fifo_payload(src, tag, k)) {
        throw std::runtime_error("FIFO pairing: wrong payload for message " + std::to_string(k) +
                                 " from proc " + std::to_string(src) + " tag " +
                                 std::to_string(tag));
      }
    };
    expect(0, kFifoTagB, 0);
    expect(0, kFifoTagB, 1);
    expect(0, kFifoTagA, 0);
    expect(0, kFifoTagA, 1);
    expect(2, kFifoTagA, 0);
    expect(2, kFifoTagA, 1);
  }
}

/// Checks the merged trace of fifo_pairing_program: every message has a
/// 1-based id in merged order and a receive time exactly when it was
/// received, the receives pair with the sends in rank 1's receive order,
/// and every recv wait cites its matched send as its cause.
inline void expect_fifo_pairing(const fxpar::trace::TraceRecorder& rec) {
  using Key = std::tuple<int, std::uint64_t, std::uint64_t>;  // (src, tag, bytes)
  const auto key = [](int src, std::uint64_t tag, int k) {
    return Key{src, tag, fifo_bytes(src, tag, k)};
  };
  const auto& msgs = rec.messages();
  ASSERT_EQ(msgs.size(), 7u);
  std::vector<const fxpar::trace::MessageRecord*> received;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto& m = msgs[i];
    EXPECT_EQ(m.id, i + 1);
    EXPECT_EQ(m.dst, 1);
    const bool unreceived = Key{m.src, m.tag, m.bytes} == key(0, kFifoTagA, 2);
    EXPECT_EQ(m.recv_t >= 0.0, !unreceived) << "message from " << m.src << " tag " << m.tag
                                            << " bytes " << m.bytes;
    if (m.recv_t >= 0.0) received.push_back(&m);
  }
  std::sort(received.begin(), received.end(),
            [](const auto* a, const auto* b) { return a->recv_t < b->recv_t; });
  const std::vector<Key> order = {key(0, kFifoTagB, 0), key(0, kFifoTagB, 1),
                                  key(0, kFifoTagA, 0), key(0, kFifoTagA, 1),
                                  key(2, kFifoTagA, 0), key(2, kFifoTagA, 1)};
  ASSERT_EQ(received.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ((Key{received[i]->src, received[i]->tag, received[i]->bytes}), order[i])
        << "receive " << i;
    EXPECT_GE(received[i]->recv_t, received[i]->send_t1);
  }
  int recv_waits = 0;
  for (const auto& w : rec.waits()) {
    if (w.kind != fxpar::trace::WaitKind::Recv) continue;
    ++recv_waits;
    ASSERT_GE(w.ref, 1u);
    ASSERT_LE(w.ref, msgs.size());
    const auto& m = msgs[w.ref - 1];
    EXPECT_EQ(w.proc, m.dst);
    EXPECT_EQ(w.cause_proc, m.src);
    EXPECT_EQ(w.cause_time, m.send_t1);
    EXPECT_EQ(w.t1, m.recv_t);
  }
  EXPECT_GT(recv_waits, 0);
}

}  // namespace fxtest
