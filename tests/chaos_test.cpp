// Chaos-engineering tests for the PRT transport: deterministic fault
// injection (net::FaultPlan), the ack/retransmit reliable-delivery
// protocol (net::Reliable), and the graceful-failure path
// (Vsa::RunError + RunReport).
//
// The soak test at the bottom runs the full tree QR under many seeded
// fault schedules and verifies each run bit-for-bit against the
// sequential reference plus ||A - QR|| / orthogonality residuals. The
// schedule count defaults to 102 (>= the 100 the acceptance criteria
// ask for); set PQR_CHAOS_SCHEDULES to shrink it for smoke/TSan runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "prt/socket_comm.hpp"
#include "prt/transport.hpp"
#include "prt/vsa.hpp"
#include "ref/apply_q.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

using prt::Packet;
using Comm = prt::net::MailboxComm;
using prt::net::FaultPlan;
using prt::net::Message;
using prt::net::Reliable;
using prt::net::SocketComm;
using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

// ---- the fault layer, on both backends -------------------------------------
//
// The fault plan, the limbo, the cancel latches and the accounting exist
// once, in the Comm layer both backends share, so every case runs on a
// MailboxComm(2) and on a SocketComm pair. Rank 0 sends and rank 1
// receives. Over sockets the limbo sits on the sending side and only the
// sender's own receive calls flush it, so the socket leg drains rank 0's
// mailbox while it waits, as a node proxy does.

enum class Backend { Mailbox, Socket };

const char* backend_name(Backend b) {
  return b == Backend::Mailbox ? "Mailbox" : "Socket";
}

void PrintTo(Backend b, std::ostream* os) { *os << backend_name(b); }

class FaultPlanTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override { reset(); }

  /// Fresh communicators, for cases that compare several runs.
  void reset() {
    mailbox_.reset();
    a_.reset();
    b_.reset();
    taken_ = 0;
    if (GetParam() == Backend::Mailbox) {
      mailbox_ = std::make_unique<Comm>(2);
    } else {
      auto mesh = SocketComm::socketpair_mesh(2);
      a_ = std::make_unique<SocketComm>(2, 0, mesh[0]);
      b_ = std::make_unique<SocketComm>(2, 1, mesh[1]);
    }
  }

  /// Rank 0's communicator: it sends, holds the plan, the counters and
  /// the send-side limbo.
  prt::net::Comm& tx() {
    if (mailbox_) return *mailbox_;
    return *a_;
  }
  /// Rank 1's communicator.
  prt::net::Comm& rx() {
    if (mailbox_) return *mailbox_;
    return *b_;
  }

  /// recv_wait on rank 1; over sockets, rank 0's limbo is flushed while
  /// it waits.
  std::optional<Message> recv(int timeout_us) {
    if (mailbox_) return mailbox_->recv_wait(1, timeout_us);
    const auto deadline = Clock::now() + microseconds(timeout_us);
    for (;;) {
      (void)a_->drain(0);
      const auto left = std::chrono::duration_cast<microseconds>(
          deadline - Clock::now());
      const long long slice = std::clamp<long long>(left.count(), 0, 500);
      if (auto m = b_->recv_wait(1, static_cast<int>(slice))) return m;
      if (Clock::now() >= deadline) return std::nullopt;
    }
  }

  /// The metas of every message sent and not yet taken. Only for
  /// schedules that leave nothing in the limbo.
  std::vector<int> collect() {
    std::vector<int> metas;
    while (taken_ < tx().messages_sent()) {
      auto m = recv(2'000'000);
      if (!m) {
        ADD_FAILURE() << "a scheduled message never arrived";
        break;
      }
      metas.push_back(m->meta);
      ++taken_;
    }
    EXPECT_FALSE(rx().try_recv(1).has_value()) << "more arrived than was sent";
    return metas;
  }

 private:
  std::unique_ptr<Comm> mailbox_;
  std::unique_ptr<SocketComm> a_, b_;
  long long taken_ = 0;
};

INSTANTIATE_TEST_SUITE_P(Backends, FaultPlanTest,
                         ::testing::Values(Backend::Mailbox, Backend::Socket),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(backend_name(info.param));
                         });

TEST_P(FaultPlanTest, SameSeedReplaysTheSameSchedule) {
  auto run = [&](std::uint64_t seed) {
    reset();
    auto& comm = tx();
    FaultPlan plan;
    plan.seed = seed;
    plan.drop = 0.2;
    plan.dup = 0.2;
    comm.set_fault_plan(plan);
    for (int i = 0; i < 200; ++i) comm.isend(0, 1, 3, Packet::make(8), i);
    return std::make_pair(collect(), comm.fault_counters());
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.dropped, b.second.dropped);
  EXPECT_EQ(a.second.duplicated, b.second.duplicated);
  EXPECT_NE(a.first, c.first) << "different seeds produced identical faults";
  // The plan actually did something on this schedule.
  EXPECT_GT(a.second.dropped, 0);
  EXPECT_GT(a.second.duplicated, 0);
}

TEST_P(FaultPlanTest, DroppedMessagesVanishAndAreCounted) {
  auto& comm = tx();
  FaultPlan plan;
  plan.seed = 7;
  plan.drop = 1.0;
  comm.set_fault_plan(plan);
  for (int i = 0; i < 10; ++i) comm.isend(0, 1, 0, Packet::make(8), i);
  EXPECT_FALSE(recv(20'000).has_value());
  EXPECT_EQ(comm.fault_counters().dropped, 10);
  // Accounting contract: offered counts the caller's isends; sent counts
  // what actually reached a mailbox. A dropped message was offered but
  // never sent — the old code counted it as sent and broke the invariant.
  EXPECT_EQ(comm.messages_offered(), 10);
  EXPECT_EQ(comm.messages_sent(), 0);
  EXPECT_EQ(comm.bytes_sent(), 0);
}

TEST_P(FaultPlanTest, AccountingInvariantHoldsUnderMixedFaults) {
  auto& comm = tx();
  FaultPlan plan;
  plan.seed = 99;
  plan.drop = 0.2;
  plan.dup = 0.2;
  plan.delay = 0.2;
  plan.reorder = 0.2;
  plan.delay_us = 100;
  comm.set_fault_plan(plan);
  for (int i = 0; i < 300; ++i) comm.isend(0, 1, 4, Packet::make(8), i);
  // Drain everything (late limbo releases included).
  int received = 0;
  while (recv(50'000).has_value()) ++received;
  const auto f = comm.fault_counters();
  EXPECT_EQ(comm.messages_offered(), 300);
  EXPECT_EQ(comm.messages_sent(), 300 - f.dropped + f.duplicated);
  EXPECT_EQ(received, comm.messages_sent());
  EXPECT_GT(comm.fault_streams(), 0u);  // one (src,dst,tag) stream used
}

TEST_P(FaultPlanTest, StreamIndexStateResetsOnPlanInstall) {
  // Installing a plan resets the per-stream fault indices, so the same
  // plan replays the same schedule on a reused communicator instead of
  // continuing (and growing) the previous run's stream counters.
  auto& comm = tx();
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.3;
  auto play = [&] {
    comm.set_fault_plan(plan);
    for (int i = 0; i < 100; ++i) comm.isend(0, 1, 6, Packet::make(8), i);
    return collect();
  };
  const auto first = play();
  EXPECT_EQ(comm.fault_streams(), 1u);
  const auto second = play();
  EXPECT_EQ(first, second) << "reinstalling the plan must replay it";
  EXPECT_EQ(comm.fault_streams(), 1u) << "stream state must not accumulate";
}

TEST_P(FaultPlanTest, CancelLatchesAgainstLimboReinsertion) {
  // Regression: cancel(rank) used to clear the mailbox and limbo once,
  // but a concurrent (or later) isend whose fault fate was delay/reorder
  // would re-insert into limbo and eventually re-fill the cancelled
  // mailbox. The latch must make every later send to the rank a no-op —
  // over sockets too, where the sender cancels the destination.
  auto& comm = tx();
  FaultPlan plan;
  plan.seed = 3;
  plan.delay = 1.0;  // every message goes through limbo
  plan.delay_us = 1000;
  comm.set_fault_plan(plan);
  comm.isend(0, 1, 0, Packet::make(8), 0);
  comm.cancel(1);
  for (int i = 1; i < 20; ++i) comm.isend(0, 1, 0, Packet::make(8), i);
  EXPECT_FALSE(recv(20'000).has_value())
      << "a cancelled rank received a message from limbo";
  // Only the pre-cancel send was counted (at fate time, before the cancel
  // discarded it from limbo — the documented cancel exception to the
  // accounting invariant); the 19 post-cancel sends hit the latch.
  EXPECT_EQ(comm.messages_offered(), 20);
  EXPECT_EQ(comm.messages_sent(), 1);
}

TEST_P(FaultPlanTest, DelayedMessagesArriveWithinTheBound) {
  auto& comm = tx();
  FaultPlan plan;
  plan.seed = 7;
  plan.delay = 1.0;
  plan.delay_us = 2000;
  comm.set_fault_plan(plan);
  for (int i = 0; i < 5; ++i) comm.isend(0, 1, 0, Packet::make(8), i);
  // Every message is in limbo, but recv_wait caps its sleep at the next
  // pending release, so each arrives well before the 5 s timeout.
  for (int i = 0; i < 5; ++i) {
    auto m = recv(5'000'000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->meta, i);  // same-fate messages keep their order
  }
  EXPECT_EQ(comm.fault_counters().delayed, 5);
}

TEST_P(FaultPlanTest, ReorderDeliversALaterMessageFirst) {
  // A reorder-held message is released right after the NEXT message to
  // the rank lands — producing a genuine inversion. The hold time bound
  // is huge so only the after-next mechanism can release it here.
  bool saw_inversion = false;
  for (std::uint64_t seed = 0; seed < 64 && !saw_inversion; ++seed) {
    reset();
    auto& comm = tx();
    FaultPlan plan;
    plan.seed = seed;
    plan.reorder = 0.5;
    plan.delay_us = 60'000'000;
    comm.set_fault_plan(plan);
    for (int i = 0; i < 20; ++i) comm.isend(0, 1, 0, Packet::make(8), i);
    std::vector<int> metas;
    while (auto m = recv(20'000)) metas.push_back(m->meta);
    if (!std::is_sorted(metas.begin(), metas.end())) saw_inversion = true;
  }
  EXPECT_TRUE(saw_inversion);
}

// ---- Reliable protocol unit tests ------------------------------------------

Reliable::Params slow_params() {
  Reliable::Params p;
  p.rto_us = 60'000'000;  // no spurious retransmits inside a unit test
  return p;
}

TEST(ReliableTest, InOrderDeliveryAndCumulativeAck) {
  Comm comm(2);
  Reliable a(comm, 0, slow_params());
  Reliable b(comm, 1, slow_params());
  a.send(1, 3, Packet::make(8), 11);
  a.send(1, 3, Packet::make(8), 22);
  std::deque<Message> inbox;
  while (auto m = comm.try_recv(1)) b.on_receive(std::move(*m), inbox);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].meta, 11);
  EXPECT_EQ(inbox[1].meta, 22);
  EXPECT_EQ(inbox[0].seq, 0);
  EXPECT_EQ(inbox[1].seq, 1);
  b.flush_acks();
  EXPECT_EQ(b.acks_sent(), 1);  // one cumulative ack covers both frames
  std::deque<Message> back;
  while (auto m = comm.try_recv(0)) a.on_receive(std::move(*m), back);
  EXPECT_TRUE(back.empty());  // pure acks are consumed, not delivered
  // Everything acked: nothing to retransmit even in the far future.
  EXPECT_TRUE(a.poll(Clock::now() + std::chrono::hours(1)));
  EXPECT_EQ(a.retransmits(), 0);
}

TEST(ReliableTest, DuplicateIsSuppressedAndReAcked) {
  Comm comm(2);
  Reliable a(comm, 0, slow_params());
  Reliable b(comm, 1, slow_params());
  a.send(1, 5, Packet::make(8), 1);
  auto frame = comm.try_recv(1);
  ASSERT_TRUE(frame.has_value());
  Message dup = *frame;
  dup.payload = frame->payload.clone();
  std::deque<Message> inbox;
  b.on_receive(std::move(*frame), inbox);
  ASSERT_EQ(inbox.size(), 1u);
  b.flush_acks();
  EXPECT_EQ(b.acks_sent(), 1);
  // The duplicate (e.g. a retransmission racing the ack) is dropped, but
  // it re-arms the ack: staying silent would leave a sender whose ack was
  // lost retransmitting forever.
  b.on_receive(std::move(dup), inbox);
  EXPECT_EQ(inbox.size(), 1u);
  EXPECT_EQ(b.duplicates_suppressed(), 1);
  b.flush_acks();
  EXPECT_EQ(b.acks_sent(), 2);
}

TEST(ReliableTest, OutOfOrderFramesAreReassembled) {
  Comm comm(2);
  Reliable a(comm, 0, slow_params());
  Reliable b(comm, 1, slow_params());
  for (int i = 0; i < 3; ++i) a.send(1, 2, Packet::make(8), 100 + i);
  std::vector<Message> frames;
  while (auto m = comm.try_recv(1)) frames.push_back(std::move(*m));
  ASSERT_EQ(frames.size(), 3u);
  std::deque<Message> inbox;
  b.on_receive(std::move(frames[2]), inbox);  // future frame: buffered
  EXPECT_TRUE(inbox.empty());
  b.on_receive(std::move(frames[0]), inbox);  // head of line
  EXPECT_EQ(inbox.size(), 1u);
  b.on_receive(std::move(frames[1]), inbox);  // fills the gap: 1 then 2
  ASSERT_EQ(inbox.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(inbox[static_cast<std::size_t>(i)].meta, 100 + i);
  }
}

TEST(ReliableTest, RetransmitBackoffIsExponential) {
  Comm comm(2);
  Reliable::Params prm;
  prm.rto_us = 1000;
  prm.backoff = 2.0;
  prm.max_retries = 10;
  Reliable a(comm, 0, prm);
  std::vector<long long> hook_seqs;
  a.set_retransmit_hook(
      [&](int dst, int tag, long long seq) {
        EXPECT_EQ(dst, 1);
        EXPECT_EQ(tag, 9);
        hook_seqs.push_back(seq);
      });
  a.send(1, 9, Packet::make(8), 0);
  (void)comm.try_recv(1);  // the wire eats the frame; no ack ever comes
  // Synthetic clock: `base` is past the initial deadline, then each step
  // checks the doubled timeout (1000 -> 2000 -> 4000 us).
  const auto base = Clock::now() + std::chrono::seconds(1);
  EXPECT_TRUE(a.poll(base));
  EXPECT_EQ(a.retransmits(), 1);
  EXPECT_TRUE(a.poll(base + microseconds(1000)));  // rto doubled: not due
  EXPECT_EQ(a.retransmits(), 1);
  EXPECT_TRUE(a.poll(base + microseconds(2000)));
  EXPECT_EQ(a.retransmits(), 2);
  EXPECT_TRUE(a.poll(base + microseconds(5000)));  // rto now 4000: not due
  EXPECT_EQ(a.retransmits(), 2);
  EXPECT_TRUE(a.poll(base + microseconds(6000)));
  EXPECT_EQ(a.retransmits(), 3);
  EXPECT_EQ(hook_seqs, (std::vector<long long>{0, 0, 0}));
  // Each retransmission put a real frame on the wire, same sequence.
  int copies = 0;
  while (auto m = comm.try_recv(1)) {
    EXPECT_EQ(m->seq, 0);
    ++copies;
  }
  EXPECT_EQ(copies, 3);
}

TEST(ReliableTest, ExhaustedRetriesFailTheLinkAndNameTheStream) {
  Comm comm(2);
  Reliable::Params prm;
  prm.rto_us = 100;
  prm.max_retries = 3;
  Reliable a(comm, 0, prm);
  a.send(1, 7, Packet::make(8), 0);
  auto t = Clock::now() + std::chrono::seconds(1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(a.poll(t));
    t += std::chrono::seconds(1);  // every deadline long expired
  }
  EXPECT_EQ(a.retransmits(), 3);
  EXPECT_FALSE(a.poll(t));  // cap hit: the link is declared failed
  EXPECT_TRUE(a.failed());
  EXPECT_FALSE(a.poll(t + std::chrono::seconds(1)));  // and stays failed
  EXPECT_EQ(a.retransmits(), 3);  // no further retransmissions
  const auto gaps = a.gaps();
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].src, 0);
  EXPECT_EQ(gaps[0].dst, 1);
  EXPECT_TRUE(gaps[0].exhausted);
  EXPECT_EQ(gaps[0].unacked, 1);
  ASSERT_EQ(gaps[0].pending_tags.size(), 1u);
  EXPECT_EQ(gaps[0].pending_tags[0], 7);
  const std::string s = gaps[0].to_string();
  EXPECT_NE(s.find("link 0->1"), std::string::npos);
  EXPECT_NE(s.find("RETRANSMITS_EXHAUSTED"), std::string::npos);
  EXPECT_NE(s.find("tags=[7]"), std::string::npos);
}

// ---- graceful failure through Vsa::run() ------------------------------------

vsaqr::TreeQrOptions chaos_qr_options(int nodes, int workers) {
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 2, plan::BoundaryMode::Shifted};
  opt.ib = 2;
  opt.nodes = nodes;
  opt.workers_per_node = workers;
  opt.watchdog_seconds = 30.0;
  return opt;
}

TEST(ChaosTest, ExhaustedRetriesProduceStructuredRunReport) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 11);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = chaos_qr_options(2, 2);
  opt.fault_plan.seed = 1;
  opt.fault_plan.drop = 1.0;  // the fabric eats everything, acks included
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 200;
  opt.max_retransmits = 3;
  try {
    vsaqr::tree_qr(a, opt);
    FAIL() << "a fully lossy link must fail the run";
  } catch (const prt::Vsa::RunError& e) {
    const auto& r = e.report();
    EXPECT_EQ(r.reason, "transport");
    EXPECT_GT(r.vdps_alive, 0);
    EXPECT_FALSE(r.stuck_vdps.empty());
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
    EXPECT_NE(what.find("VDPs still alive"), std::string::npos);
  }
}

TEST(ChaosTest, LossWithoutReliableTripsWatchdogWithFaultCounters) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 12);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = chaos_qr_options(2, 2);
  opt.fault_plan.seed = 2;
  opt.fault_plan.drop = 1.0;
  opt.reliable_transport = false;  // nothing repairs the losses
  opt.watchdog_seconds = 0.5;
  try {
    vsaqr::tree_qr(a, opt);
    FAIL() << "dropped packets without reliable delivery must deadlock";
  } catch (const prt::Vsa::RunError& e) {
    EXPECT_EQ(e.report().reason, "watchdog");
    EXPECT_GT(e.report().faults.dropped, 0);
    const std::string what = e.what();
    EXPECT_NE(what.find("PRT watchdog"), std::string::npos);
    EXPECT_NE(what.find("VDPs still alive"), std::string::npos);
    EXPECT_NE(what.find("injected faults"), std::string::npos);
  }
}

// A fault-free fabric loses nothing, so the protocol arms no retransmit
// timer there: zero retransmissions and zero suppressed duplicates at the
// default RTO, however loaded the machine. The second shape (2048x256,
// nb 32) runs for many RTOs with frames in flight, so an armed 2 ms
// timer would fire on it.
TEST(ChaosTest, ReliableTransportIsInertOnACleanFabric) {
  struct Shape {
    int m, n, nb, ib;
  };
  for (const Shape& sh : {Shape{40, 10, 5, 2}, Shape{2048, 256, 32, 8}}) {
    SCOPED_TRACE(testing::Message() << sh.m << "x" << sh.n << " nb " << sh.nb);
    Matrix a0(sh.m, sh.n);
    fill_random(a0.view(), 13);
    auto opt = chaos_qr_options(2, 2);
    opt.ib = sh.ib;
    opt.reliable_transport = true;  // protocol on, zero faults, default RTO
    const auto reference =
        ref::tree_qr(TileMatrix::from_dense(a0.view(), sh.nb), sh.ib, opt.tree);
    TileMatrix a = TileMatrix::from_dense(a0.view(), sh.nb);
    auto run = vsaqr::tree_qr(a, opt);
    EXPECT_EQ(run.stats.retransmits, 0);
    EXPECT_EQ(run.stats.faults.total(), 0);
    EXPECT_EQ(run.stats.duplicates_suppressed, 0);
    EXPECT_EQ(run.stats.leftover_packets, 0);
    for (int j = 0; j < run.factors.a.cols(); ++j) {
      for (int i = 0; i < run.factors.a.rows(); ++i) {
        ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
            << "factors differ at (" << i << "," << j << ")";
      }
    }
  }
}

// ---- raw frames under chaos ------------------------------------------------

// Fault injection applies per wire frame, and every application frame is
// its own wire message: drops, duplicates and reorders hit single frames,
// and the protocol must repair each. Three shapes, several seeds each,
// bitwise against the fault-free sequential reference.
TEST(ChaosTest, RawFramesSurviveChaos) {
  struct Shape {
    int m, n, nb, ib;
    plan::PlanConfig tree;
    int nodes, workers;
  };
  const std::vector<Shape> shapes = {
      {40, 10, 5, 2, {plan::TreeKind::BinaryOnFlat, 2,
                      plan::BoundaryMode::Shifted}, 2, 2},
      {48, 12, 6, 3, {plan::TreeKind::Binary, 1,
                      plan::BoundaryMode::Shifted}, 3, 1},
      {30, 10, 5, 5, {plan::TreeKind::Flat, 1,
                      plan::BoundaryMode::Fixed}, 2, 2},
  };
  struct Case {
    std::size_t shape;
    int matrix_seed;
    std::uint64_t fault_seed;
  };
  std::vector<Case> cases;
  for (std::size_t which = 0; which < shapes.size(); ++which) {
    for (int s = 0; s < 4; ++s) {
      cases.push_back({which, 700 + static_cast<int>(which),
                       4000 + static_cast<std::uint64_t>(s) +
                           10 * static_cast<std::uint64_t>(which)});
    }
  }
  cases.push_back({0, 21, 77});
  for (const Case& c : cases) {
    const auto& sh = shapes[c.shape];
    SCOPED_TRACE(testing::Message() << "shape " << c.shape << " fault seed "
                                    << c.fault_seed);
    Matrix a0(sh.m, sh.n);
    fill_random(a0.view(), c.matrix_seed);
    const auto reference =
        ref::tree_qr(TileMatrix::from_dense(a0.view(), sh.nb), sh.ib, sh.tree);
    TileMatrix a = TileMatrix::from_dense(a0.view(), sh.nb);
    vsaqr::TreeQrOptions opt;
    opt.tree = sh.tree;
    opt.ib = sh.ib;
    opt.nodes = sh.nodes;
    opt.workers_per_node = sh.workers;
    opt.watchdog_seconds = 60.0;
    opt.reliable_transport = true;
    opt.retransmit_timeout_us = 800;
    opt.max_retransmits = 30;
    opt.fault_plan.seed = c.fault_seed;
    opt.fault_plan.drop = 0.10;
    opt.fault_plan.dup = 0.10;
    opt.fault_plan.reorder = 0.10;

    auto run = vsaqr::tree_qr(a, opt);
    EXPECT_GT(run.stats.remote_messages, 0);
    ASSERT_EQ(run.stats.leftover_packets, 0);
    for (int j = 0; j < reference.a.cols(); ++j) {
      for (int i = 0; i < reference.a.rows(); ++i) {
        ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
            << "diverged at (" << i << "," << j << ")";
      }
    }
  }
}

// The shapes above move tiles of at most 6x6 doubles. Here every tile
// frame is 8 KiB (nb 32), so each drop, duplicate or reorder hits a
// frame many times the size of a control message, and a single lost
// frame stalls a whole tile update until its retransmission lands.
TEST(ChaosTest, LargeTileFramesSurviveChaos) {
  Matrix a0(512, 128);
  fill_random(a0.view(), 31);
  auto opt = chaos_qr_options(2, 2);
  opt.ib = 8;
  const auto reference =
      ref::tree_qr(TileMatrix::from_dense(a0.view(), 32), opt.ib, opt.tree);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 32);
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 800;
  opt.max_retransmits = 30;
  opt.fault_plan.seed = 91;
  opt.fault_plan.drop = 0.10;
  opt.fault_plan.dup = 0.10;
  opt.fault_plan.reorder = 0.10;
  auto run = vsaqr::tree_qr(a, opt);
  EXPECT_GT(run.stats.remote_messages, 0);
  EXPECT_GT(run.stats.faults.dropped, 0);
  EXPECT_GT(run.stats.retransmits, 0);
  ASSERT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < reference.a.cols(); ++j) {
    for (int i = 0; i < reference.a.rows(); ++i) {
      ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
          << "diverged at (" << i << "," << j << ")";
    }
  }
}

// ---- the chaos soak ---------------------------------------------------------

struct SoakShape {
  int m, n, nb, ib;
  plan::PlanConfig tree;
  int nodes, workers;
};

// >= 100 seeded schedules by default (acceptance criterion); CI smoke and
// TSan runs shrink it via PQR_CHAOS_SCHEDULES.
int soak_schedules() {
  if (const char* e = std::getenv("PQR_CHAOS_SCHEDULES")) {
    const int n = std::atoi(e);
    if (n > 0) return n;
  }
  return 102;
}

TEST(ChaosTest, SoakManySeededSchedulesStayCorrect) {
  const std::vector<SoakShape> shapes = {
      {40, 10, 5, 2, {plan::TreeKind::BinaryOnFlat, 2,
                      plan::BoundaryMode::Shifted}, 2, 2},
      {48, 12, 6, 3, {plan::TreeKind::Binary, 1,
                      plan::BoundaryMode::Shifted}, 3, 1},
      {30, 10, 5, 5, {plan::TreeKind::Flat, 1,
                      plan::BoundaryMode::Fixed}, 2, 2},
  };
  // One matrix + sequential reference per shape; every schedule must
  // reproduce the reference factors bit-for-bit.
  std::vector<Matrix> inputs;
  std::vector<ref::TreeQrFactors> references;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& sh = shapes[s];
    Matrix a0(sh.m, sh.n);
    fill_random(a0.view(), 900 + static_cast<int>(s));
    references.push_back(ref::tree_qr(TileMatrix::from_dense(a0.view(), sh.nb),
                                      sh.ib, sh.tree));
    inputs.push_back(std::move(a0));
  }
  const int schedules = soak_schedules();
  long long total_faults = 0;
  long long total_retransmits = 0;
  for (int s = 0; s < schedules; ++s) {
    const std::size_t which = static_cast<std::size_t>(s) % shapes.size();
    const auto& sh = shapes[which];
    const Matrix& a0 = inputs[which];
    TileMatrix a = TileMatrix::from_dense(a0.view(), sh.nb);

    vsaqr::TreeQrOptions opt;
    opt.tree = sh.tree;
    opt.ib = sh.ib;
    opt.nodes = sh.nodes;
    opt.workers_per_node = sh.workers;
    opt.watchdog_seconds = 60.0;
    opt.reliable_transport = true;
    opt.retransmit_timeout_us = 800;
    opt.max_retransmits = 30;
    opt.fault_plan.seed = 1000 + static_cast<std::uint64_t>(s);
    opt.fault_plan.drop = 0.08;
    opt.fault_plan.dup = 0.08;
    opt.fault_plan.delay = 0.12;
    opt.fault_plan.reorder = 0.10;
    opt.fault_plan.delay_us = 200;

    auto run = vsaqr::tree_qr(a, opt);
    total_faults += run.stats.faults.total();
    total_retransmits += run.stats.retransmits;
    ASSERT_EQ(run.stats.leftover_packets, 0)
        << "schedule " << opt.fault_plan.seed;
    // Transport accounting invariant (clean runs never cancel a rank):
    // what hit the mailboxes = what was offered, minus drops, plus dups.
    ASSERT_EQ(run.stats.wire_messages,
              run.stats.wire_offered - run.stats.faults.dropped +
                  run.stats.faults.duplicated)
        << "schedule " << opt.fault_plan.seed;

    // Bitwise against the fault-free sequential reference: reliable
    // delivery must make the chaos completely invisible.
    const auto& ref = references[which];
    for (int j = 0; j < ref.a.cols(); ++j) {
      for (int i = 0; i < ref.a.rows(); ++i) {
        ASSERT_EQ(run.factors.a.at(i, j), ref.a.at(i, j))
            << "schedule " << opt.fault_plan.seed << " diverged at (" << i
            << "," << j << ")";
      }
    }
    // Residuals: ||A - QR|| and orthogonality ||Q^T Q - I||.
    const int kk = std::min(sh.m, sh.n);
    Matrix q = ref::form_q(run.factors, sh.m);
    Matrix r = ref::extract_r(run.factors);
    Matrix qr(sh.m, sh.n);
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0,
               q.block(0, 0, sh.m, kk), r.block(0, 0, kk, sh.n), 0.0,
               qr.view());
    double err = 0.0;
    for (int j = 0; j < sh.n; ++j) {
      for (int i = 0; i < sh.m; ++i) {
        err = std::max(err, std::abs(qr(i, j) - a0(i, j)));
      }
    }
    ASSERT_LT(err / (1.0 + blas::norm_max(a0.view())), 1e-12 * sh.m)
        << "schedule " << opt.fault_plan.seed;
    Matrix qtq(kk, kk);
    blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0,
               q.block(0, 0, sh.m, kk), q.block(0, 0, sh.m, kk), 0.0,
               qtq.view());
    double orth = 0.0;
    for (int j = 0; j < kk; ++j) {
      for (int i = 0; i < kk; ++i) {
        orth = std::max(orth,
                        std::abs(qtq(i, j) - (i == j ? 1.0 : 0.0)));
      }
    }
    ASSERT_LT(orth, 1e-12 * sh.m) << "schedule " << opt.fault_plan.seed;
  }
  // Sanity: the soak actually exercised the machinery — faults were
  // injected and at least one lost frame was repaired by retransmission.
  EXPECT_GT(total_faults, 0);
  EXPECT_GT(total_retransmits, 0);
}

// The same soak over the Socket transport: one forked OS process per
// node, frames over Unix-domain sockets, FaultPlan applied send-side
// before the wire — so each seed replays the identical chaos schedule the
// in-process soak saw, and the factors must still come out bit-for-bit
// equal to the fault-free sequential reference. Process startup costs
// real time, so this leg caps itself at 24 schedules; the three shapes
// still rotate, covering >= 20 seeds on >= 2 shapes.
TEST(ChaosTest, SocketSoakSeededSchedulesStayCorrect) {
  const std::vector<SoakShape> shapes = {
      {40, 10, 5, 2, {plan::TreeKind::BinaryOnFlat, 2,
                      plan::BoundaryMode::Shifted}, 2, 2},
      {48, 12, 6, 3, {plan::TreeKind::Binary, 1,
                      plan::BoundaryMode::Shifted}, 3, 1},
      {30, 10, 5, 5, {plan::TreeKind::Flat, 1,
                      plan::BoundaryMode::Fixed}, 2, 2},
  };
  std::vector<Matrix> inputs;
  std::vector<ref::TreeQrFactors> references;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& sh = shapes[s];
    Matrix a0(sh.m, sh.n);
    fill_random(a0.view(), 900 + static_cast<int>(s));
    references.push_back(ref::tree_qr(TileMatrix::from_dense(a0.view(), sh.nb),
                                      sh.ib, sh.tree));
    inputs.push_back(std::move(a0));
  }
  const int schedules = std::min(soak_schedules(), 24);
  long long total_faults = 0;
  long long total_retransmits = 0;
  for (int s = 0; s < schedules; ++s) {
    const std::size_t which = static_cast<std::size_t>(s) % shapes.size();
    const auto& sh = shapes[which];
    TileMatrix a = TileMatrix::from_dense(inputs[which].view(), sh.nb);

    vsaqr::TreeQrOptions opt;
    opt.tree = sh.tree;
    opt.ib = sh.ib;
    opt.nodes = sh.nodes;
    opt.workers_per_node = sh.workers;
    opt.watchdog_seconds = 60.0;
    opt.transport = prt::Transport::Socket;
    opt.reliable_transport = true;
    opt.retransmit_timeout_us = 800;
    opt.max_retransmits = 30;
    opt.fault_plan.seed = 1000 + static_cast<std::uint64_t>(s);
    opt.fault_plan.drop = 0.08;
    opt.fault_plan.dup = 0.08;
    opt.fault_plan.delay = 0.12;
    opt.fault_plan.reorder = 0.10;
    opt.fault_plan.delay_us = 200;

    auto run = vsaqr::tree_qr(a, opt);
    total_faults += run.stats.faults.total();
    total_retransmits += run.stats.retransmits;
    ASSERT_EQ(run.stats.leftover_packets, 0)
        << "schedule " << opt.fault_plan.seed;
    const auto& ref = references[which];
    for (int j = 0; j < ref.a.cols(); ++j) {
      for (int i = 0; i < ref.a.rows(); ++i) {
        ASSERT_EQ(run.factors.a.at(i, j), ref.a.at(i, j))
            << "schedule " << opt.fault_plan.seed << " diverged at (" << i
            << "," << j << ")";
      }
    }
  }
  EXPECT_GT(total_faults, 0);
  EXPECT_GT(total_retransmits, 0);
}

}  // namespace
}  // namespace pulsarqr
