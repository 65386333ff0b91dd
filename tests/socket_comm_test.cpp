// The out-of-process transport backend: net::SocketComm over a Unix-
// domain socketpair mesh, and the Vsa fork-per-node run path on top of
// it. The unit tests drive two SocketComm instances inside one process
// (the mesh does not care which side of a socketpair lives where); the
// end-to-end tests fork real node processes through Vsa::run().
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "prt/transport.hpp"
#include "prt/socket_comm.hpp"
#include "prt/vsa.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

using prt::Packet;
using prt::net::FaultPlan;
using prt::net::MailboxComm;
using prt::net::Message;
using prt::net::SocketComm;

/// A 2-rank mesh with both ends living in this test process.
struct Pair {
  std::unique_ptr<SocketComm> a;  // rank 0
  std::unique_ptr<SocketComm> b;  // rank 1
  Pair() {
    auto mesh = SocketComm::socketpair_mesh(2);
    a = std::make_unique<SocketComm>(2, 0, mesh[0]);
    b = std::make_unique<SocketComm>(2, 1, mesh[1]);
  }
};

TEST(SocketCommTest, FullMessageHeaderSurvivesTheWire) {
  Pair p;
  Packet payload = Packet::make(24, /*meta=*/0);
  for (int i = 0; i < 24; ++i) {
    payload.bytes()[i] = static_cast<std::byte>(i * 7);
  }
  p.a->isend(0, 1, /*tag=*/5, payload, /*meta=*/-3, /*seq=*/42, /*ack=*/7,
             /*is_ack=*/false);
  auto m = p.b->recv_wait(1, 2'000'000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->source, 0);
  EXPECT_EQ(m->tag, 5);
  EXPECT_EQ(m->meta, -3);
  EXPECT_EQ(m->seq, 42);
  EXPECT_EQ(m->ack, 7);
  EXPECT_FALSE(m->is_ack);
  EXPECT_EQ(m->epoch, 0u);  // first incarnation unless told otherwise
  ASSERT_EQ(prt::net::Comm::get_count(*m), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(m->payload.bytes()[i], static_cast<std::byte>(i * 7));
  }
  EXPECT_EQ(p.a->messages_offered(), 1);
  EXPECT_EQ(p.a->messages_sent(), 1);
  EXPECT_EQ(p.a->bytes_sent(), 24);
}

TEST(SocketCommTest, EpochStampsEveryFrameIncludingSelfDelivery) {
  // Crash recovery fences stale frames by sender incarnation: every frame
  // a comm emits — wire and self-delivered alike — must carry its epoch.
  auto mesh = SocketComm::socketpair_mesh(2);
  SocketComm a(2, 0, mesh[0], /*epoch=*/3, {3, 0});
  SocketComm b(2, 1, mesh[1], /*epoch=*/0, {3, 0});
  a.isend(0, 1, 5, Packet::make(8), 1);
  auto m = b.recv_wait(1, 2'000'000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->epoch, 3u);
  a.isend(0, 0, 5, Packet::make(8), 2);
  auto s = a.try_recv(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->epoch, 3u);
  // The ctor-provided incarnation vector seeds the receiver-side fence.
  EXPECT_EQ(b.peer_epoch(0), 3u);
  EXPECT_EQ(a.peer_epoch(1), 0u);
}

TEST(SocketCommTest, SelfSendStaysLocal) {
  Pair p;
  p.a->isend(0, 0, 1, Packet::make(8), 11);
  auto m = p.a->try_recv(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->meta, 11);
  // drain() empties the own mailbox in one call.
  p.a->isend(0, 0, 1, Packet::make(8), 12);
  p.a->isend(0, 0, 1, Packet::make(8), 13);
  auto all = p.a->drain(0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].meta, 12);
  EXPECT_EQ(all[1].meta, 13);
}

// Both backends run one tag gate (prt/tags.hpp): negative data tags and
// acks under a data tag are refused before anything reaches the wire.
TEST(SocketCommTest, SharesTheTagGateWithTheInProcessBackend) {
  Pair p;
  MailboxComm mailbox(2);
  for (prt::net::Comm* comm :
       {static_cast<prt::net::Comm*>(p.a.get()),
        static_cast<prt::net::Comm*>(&mailbox)}) {
    EXPECT_THROW(comm->isend(0, 1, prt::net::kPureAckTag, Packet::make(8), 0),
                 Error);
    EXPECT_THROW(comm->isend(0, 1, -2, Packet::make(8), 0), Error);
    EXPECT_THROW(comm->isend(0, 1, 4, Packet(), 0, -1, 3, /*is_ack=*/true),
                 Error);
    EXPECT_EQ(comm->messages_offered(), 0);
  }
}

TEST(SocketCommTest, StreamOrderIsPreservedPerPeer) {
  Pair p;
  for (int i = 0; i < 200; ++i) p.a->isend(0, 1, 2, Packet::make(8), i);
  for (int i = 0; i < 200; ++i) {
    auto m = p.b->recv_wait(1, 2'000'000);
    ASSERT_TRUE(m.has_value()) << "message " << i << " never arrived";
    EXPECT_EQ(m->meta, i);  // SOCK_STREAM + in-order parse
  }
}

// Every frame is its own wire message, so an empty payload is a
// header-only frame; the reader must not wait for payload bytes that
// never come, nor merge the next header into it.
TEST(SocketCommTest, ZeroByteFramesSurvive) {
  Pair p;
  p.a->isend(0, 1, /*tag=*/9, Packet::make(0), /*meta=*/42);
  p.a->isend(0, 1, /*tag=*/10, Packet(), /*meta=*/43);
  Packet one = Packet::make(1);
  one.bytes()[0] = std::byte{0x5A};
  p.a->isend(0, 1, /*tag=*/11, one, /*meta=*/44);
  for (int i = 0; i < 3; ++i) {
    auto m = p.b->recv_wait(1, 2'000'000);
    ASSERT_TRUE(m.has_value()) << "frame " << i << " never arrived";
    EXPECT_EQ(m->tag, 9 + i);
    EXPECT_EQ(m->meta, 42 + i);
    ASSERT_EQ(prt::net::Comm::get_count(*m), i < 2 ? 0u : 1u);
    if (i == 2) {
      EXPECT_EQ(m->payload.bytes()[0], std::byte{0x5A});
    }
  }
  EXPECT_EQ(p.a->bytes_sent(), 1);
}

// Byte-exact golden frame, read off the raw socket: the 48-byte header
// is explicit little-endian (wire.hpp), not a memcpy of host integers,
// so a frame sent from any host must produce exactly these bytes.
// Catches a regression to host-endian headers, which would still pass
// every round-trip test on x86.
TEST(SocketCommTest, GoldenFrameBytesAreLittleEndian) {
  auto mesh = SocketComm::socketpair_mesh(2);
  const int raw = mesh[1][0];  // rank 1's end of the 0 <-> 1 socket
  unsigned char got[SocketComm::kFrameHeaderBytes + 3] = {};
  {
    SocketComm a(2, 0, mesh[0], /*epoch=*/5);
    Packet p = Packet::make(3);
    p.bytes()[0] = std::byte{0xAA};
    p.bytes()[1] = std::byte{0xBB};
    p.bytes()[2] = std::byte{0xCC};
    a.isend(0, 1, /*tag=*/0x01020304, p, /*meta=*/-2,
            /*seq=*/0x0102030405060708LL, /*ack=*/-1, /*is_ack=*/false);
    std::size_t have = 0;
    while (have < sizeof(got)) {
      const ssize_t n = ::read(raw, got + have, sizeof(got) - have);
      ASSERT_GT(n, 0) << "socket closed after " << have << " bytes";
      have += static_cast<std::size_t>(n);
    }
  }
  ::close(raw);
  const unsigned char golden[SocketComm::kFrameHeaderBytes + 3] = {
      0x00, 0x00, 0x00, 0x00,                          // kind = data
      0x00, 0x00, 0x00, 0x00,                          // flags: not an ack
      0x00, 0x00, 0x00, 0x00,                          // source = 0
      0x04, 0x03, 0x02, 0x01,                          // tag, LE
      0xFE, 0xFF, 0xFF, 0xFF,                          // meta = -2, LE
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload length
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq, LE
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // ack = -1
      0x05, 0x00, 0x00, 0x00,                          // epoch = 5
      0xAA, 0xBB, 0xCC,                                // payload
  };
  for (std::size_t i = 0; i < sizeof(golden); ++i) {
    EXPECT_EQ(got[i], golden[i]) << "byte " << i;
  }
}

// A tile of nb = 128 doubles is 128 KiB, and a frame far larger than the
// socket's kernel buffer leaves the writer and the receiver thread in
// several partial reads and writes. Each frame must still arrive whole,
// in order, and unmixed with its neighbours.
TEST(SocketCommTest, FramesLargerThanTheSocketBufferArriveWhole) {
  Pair p;
  constexpr std::size_t kBytes = 3 * 1024 * 1024 + 5;  // odd on purpose
  constexpr int kFrames = 3;
  // The receiver thread drains the socket on its own, so the blocking
  // writes below complete before anything is taken from the mailbox.
  for (int f = 0; f < kFrames; ++f) {
    Packet big = Packet::make(kBytes);
    for (std::size_t b = 0; b < kBytes; ++b) {
      big.bytes()[b] = static_cast<std::byte>((b * 131 + f) & 0xff);
    }
    p.a->isend(0, 1, /*tag=*/3, big, /*meta=*/f);
  }
  for (int f = 0; f < kFrames; ++f) {
    auto m = p.b->recv_wait(1, 10'000'000);
    ASSERT_TRUE(m.has_value()) << "frame " << f << " never arrived";
    EXPECT_EQ(m->meta, f);
    ASSERT_EQ(prt::net::Comm::get_count(*m), kBytes);
    std::size_t bad = 0;
    for (std::size_t b = 0; b < kBytes; ++b) {
      if (m->payload.bytes()[b] !=
          static_cast<std::byte>((b * 131 + f) & 0xff)) {
        ++bad;
      }
    }
    EXPECT_EQ(bad, 0u) << "frame " << f;
  }
  EXPECT_EQ(p.a->bytes_sent(), static_cast<long long>(kFrames * kBytes));
}

TEST(SocketCommTest, InterruptWakesABlockedReceiver) {
  Pair p;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    auto m = p.b->recv_wait(1, 30'000'000);
    EXPECT_FALSE(m.has_value());  // interrupt, not a message
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  p.a->interrupt(1);  // remote interrupt travels as a control frame
  waiter.join();
  EXPECT_TRUE(woke.load());
  // Local interrupt latches even when nobody waits yet.
  p.b->interrupt(1);
  EXPECT_FALSE(p.b->recv_wait(1, 30'000'000).has_value());
}

TEST(SocketCommTest, CancelLatchesOwnMailboxAgainstLateFrames) {
  Pair p;
  p.a->isend(0, 1, 0, Packet::make(8), 0);
  auto first = p.b->recv_wait(1, 2'000'000);
  ASSERT_TRUE(first.has_value());
  p.b->cancel(1);  // a rank cancels its own mailbox on shutdown
  p.a->isend(0, 1, 0, Packet::make(8), 1);  // late frame: must vanish
  EXPECT_FALSE(p.b->recv_wait(1, 50'000).has_value());
}

TEST(SocketCommTest, FaultScheduleMatchesTheInProcessBackend) {
  // Same seed, same (src, dst, tag) stream, same message indices: the
  // pure-hash oracle must replay the identical drop/dup schedule on both
  // backends, delivering the same meta sequence and counters.
  FaultPlan plan;
  plan.seed = 31;
  plan.drop = 0.25;
  plan.dup = 0.25;  // no delay/reorder: those depend on wall-clock timing

  MailboxComm mc(2);
  mc.set_fault_plan(plan);
  for (int i = 0; i < 300; ++i) mc.isend(0, 1, 4, Packet::make(8), i);
  std::vector<int> expect_metas;
  while (auto m = mc.try_recv(1)) expect_metas.push_back(m->meta);

  Pair p;
  p.a->set_fault_plan(plan);
  for (int i = 0; i < 300; ++i) p.a->isend(0, 1, 4, Packet::make(8), i);
  std::vector<int> metas;
  while (metas.size() < expect_metas.size()) {
    auto m = p.b->recv_wait(1, 2'000'000);
    ASSERT_TRUE(m.has_value()) << "socket backend lost scheduled messages";
    metas.push_back(m->meta);
  }
  EXPECT_FALSE(p.b->try_recv(1).has_value());
  EXPECT_EQ(metas, expect_metas);
  EXPECT_EQ(p.a->fault_counters().dropped, mc.fault_counters().dropped);
  EXPECT_EQ(p.a->fault_counters().duplicated, mc.fault_counters().duplicated);
  EXPECT_EQ(p.a->messages_sent(), mc.messages_sent());
  EXPECT_EQ(p.a->messages_offered(), mc.messages_offered());
}

// ---- end to end through Vsa::run() ------------------------------------------

vsaqr::TreeQrOptions socket_qr_options(int nodes, int workers) {
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 2, plan::BoundaryMode::Shifted};
  opt.ib = 2;
  opt.nodes = nodes;
  opt.workers_per_node = workers;
  opt.watchdog_seconds = 60.0;
  opt.transport = prt::Transport::Socket;
  return opt;
}

TEST(SocketVsaTest, FactorizationMatchesTheReferenceBitwise) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 17);
  const auto reference = ref::tree_qr(TileMatrix::from_dense(a0.view(), 5), 2,
                                      socket_qr_options(2, 2).tree);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto run = vsaqr::tree_qr(a, socket_qr_options(2, 2));
  EXPECT_GT(run.stats.fires, 0);
  EXPECT_GT(run.stats.remote_messages, 0);
  // Clean fabric, no cancels: everything offered went out.
  EXPECT_EQ(run.stats.wire_messages, run.stats.wire_offered);
  EXPECT_EQ(run.stats.fault_streams, 0);
  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < reference.a.cols(); ++j) {
    for (int i = 0; i < reference.a.rows(); ++i) {
      ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
          << "factors differ at (" << i << "," << j << ")";
    }
  }
}

// Both transports run one node loop and one stats path: the same
// factorization reports the same counters whether its nodes are thread
// groups or forked processes, and the same bits.
TEST(SocketVsaTest, TransportParityOfStatsAndFactors) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 23);
  auto opt = socket_qr_options(2, 2);
  opt.reliable_transport = false;
  opt.transport = prt::Transport::InProcess;
  const auto inproc = vsaqr::tree_qr(TileMatrix::from_dense(a0.view(), 5), opt);
  opt.transport = prt::Transport::Socket;
  const auto socket = vsaqr::tree_qr(TileMatrix::from_dense(a0.view(), 5), opt);
  EXPECT_GT(inproc.stats.fires, 0);
  EXPECT_GT(inproc.stats.remote_messages, 0);
  EXPECT_EQ(inproc.stats.fires, socket.stats.fires);
  EXPECT_EQ(inproc.stats.remote_messages, socket.stats.remote_messages);
  EXPECT_EQ(inproc.stats.remote_bytes, socket.stats.remote_bytes);
  for (const auto* run : {&inproc, &socket}) {
    const prt::Vsa::RunStats& s = run->stats;
    EXPECT_EQ(s.wire_messages, s.remote_messages);
    EXPECT_EQ(s.leftover_packets, 0);
    ASSERT_EQ(s.busy_per_thread.size(), 4u);
    for (double busy : s.busy_per_thread) EXPECT_GT(busy, 0.0);
    EXPECT_EQ(s.proxy_busy_per_node.size(), 2u);
  }
  for (int j = 0; j < inproc.factors.a.cols(); ++j) {
    for (int i = 0; i < inproc.factors.a.rows(); ++i) {
      ASSERT_EQ(inproc.factors.a.at(i, j), socket.factors.a.at(i, j))
          << "factors differ at (" << i << "," << j << ")";
    }
  }
}

TEST(SocketVsaTest, ThreeNodesWithReliableProtocolStayCorrect) {
  Matrix a0(48, 12);
  fill_random(a0.view(), 18);
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::Binary, 1, plan::BoundaryMode::Shifted};
  opt.ib = 3;
  opt.nodes = 3;
  opt.workers_per_node = 1;
  opt.watchdog_seconds = 60.0;
  opt.transport = prt::Transport::Socket;
  opt.reliable_transport = true;  // default RTO: a clean fabric arms no timer
  const auto reference =
      ref::tree_qr(TileMatrix::from_dense(a0.view(), 6), 3, opt.tree);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 6);
  auto run = vsaqr::tree_qr(a, opt);
  EXPECT_EQ(run.stats.retransmits, 0);
  EXPECT_EQ(run.stats.faults.total(), 0);
  for (int j = 0; j < reference.a.cols(); ++j) {
    for (int i = 0; i < reference.a.rows(); ++i) {
      ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
          << "factors differ at (" << i << "," << j << ")";
    }
  }
}

TEST(SocketVsaTest, ExhaustedRetriesSurfaceTheChildRunReport) {
  // A fully lossy fabric fails in a CHILD process; the structured report
  // must travel back over the control socket and come out of the parent's
  // throw exactly like the in-process backend's.
  Matrix a0(40, 10);
  fill_random(a0.view(), 19);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = socket_qr_options(2, 2);
  opt.fault_plan.seed = 1;
  opt.fault_plan.drop = 1.0;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 200;
  opt.max_retransmits = 3;
  try {
    vsaqr::tree_qr(a, opt);
    FAIL() << "a fully lossy link must fail the run";
  } catch (const prt::Vsa::RunError& e) {
    const auto& r = e.report();
    EXPECT_EQ(r.reason, "transport");
    EXPECT_GT(r.faults.dropped, 0);
    EXPECT_GT(r.retransmits, 0);
    ASSERT_FALSE(r.links.empty()) << "report must name the broken streams";
    bool named = false;
    for (const auto& g : r.links) {
      if (g.exhausted && !g.pending_tags.empty()) named = true;
    }
    EXPECT_TRUE(named);
    const std::string what = e.what();
    EXPECT_NE(what.find("RETRANSMITS_EXHAUSTED"), std::string::npos);
    EXPECT_NE(what.find("retransmit limit"), std::string::npos);
  }
}

TEST(SocketVsaTest, TraceMergesChildTimelinesIntoOneRecorder) {
  // Every node process records into its own Recorder; the 'E' epilogue
  // ships the events plus the child's clock epoch, and the parent
  // offset-aligns them onto its own timeline. The merged trace must
  // cover every child's lanes with sane, parent-relative timestamps.
  Matrix a0(40, 10);
  fill_random(a0.view(), 20);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = socket_qr_options(2, 2);
  opt.trace = true;
  auto run = vsaqr::tree_qr(a, opt);
  ASSERT_FALSE(run.events.empty());
  // Worker lanes are global thread ids; each node's proxy gets the lane
  // total_threads + node.
  const int lanes = opt.nodes * opt.workers_per_node + opt.nodes;
  std::set<int> seen;
  for (const auto& ev : run.events) {
    ASSERT_GE(ev.thread, 0);
    ASSERT_LT(ev.thread, lanes);
    ASSERT_LE(ev.t0, ev.t1);
    // Children start after the parent's clock: a negative t0 would mean
    // the offset alignment (child epoch - parent epoch) went wrong.
    ASSERT_GE(ev.t0, 0.0);
    seen.insert(ev.thread);
  }
  EXPECT_GT(seen.size(), 1u) << "trace covers only one lane";
  // One span per firing, at least (proxies may add more).
  EXPECT_GE(static_cast<long long>(run.events.size()), run.stats.fires);
}

TEST(SocketVsaTest, SolveRunsOverTheSocketBackend) {
  const int m = 40, n = 10, nrhs = 2;
  Matrix a0(m, n);
  fill_random_well_conditioned(a0.view(), 23);
  Matrix b(m, nrhs);
  fill_random(b.view(), 24);
  auto opt = socket_qr_options(2, 2);
  Matrix x = vsaqr::tree_qr_solve(TileMatrix::from_dense(a0.view(), 5),
                                  b.view(), opt);
  // Residual orthogonality: A^T (b - A x) ~ 0 for least squares.
  for (int r = 0; r < nrhs; ++r) {
    std::vector<double> rhs(m), xr(n);
    for (int i = 0; i < m; ++i) rhs[i] = b(i, r);
    for (int i = 0; i < n; ++i) xr[i] = x(i, r);
    std::vector<double> res = rhs;
    blas::gemv(blas::Trans::No, -1.0, a0.view(), xr.data(), 1.0, res.data());
    std::vector<double> atr(n, 0.0);
    blas::gemv(blas::Trans::Yes, 1.0, a0.view(), res.data(), 0.0, atr.data());
    EXPECT_LT(blas::nrm2(n, atr.data()), 1e-9 * m) << "rhs " << r;
  }
}

}  // namespace
}  // namespace pulsarqr
