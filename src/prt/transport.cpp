#include "prt/transport.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace pulsarqr::prt::net {

namespace {

using Clock = std::chrono::steady_clock;

/// splitmix64: the fault oracle. Statistically solid, trivially seedable,
/// and — unlike an engine with internal state — a pure function, so the
/// decision for message i of a stream never depends on which thread asked
/// first.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t stream_key(int src, int dst, int tag) {
  return splitmix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                     << 40) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst))
                     << 20) ^
                    static_cast<std::uint32_t>(tag));
}

/// Uniform [0,1) decision for the idx-th message of a stream, per fault
/// kind (`salt` keeps drop/dup/delay/reorder decisions independent).
double u01(std::uint64_t seed, std::uint64_t key, long long idx, int salt) {
  const std::uint64_t h = splitmix64(
      seed ^ splitmix64(key + static_cast<std::uint64_t>(idx) * 0x632be59bd9b4e019ULL +
                        static_cast<std::uint64_t>(salt)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::string LinkGap::to_string() const {
  std::ostringstream os;
  os << "link " << src << "->" << dst << ":";
  if (next_seq >= 0) {  // sender view
    os << " sent=" << next_seq << " acked_through=" << acked
       << " in_flight=" << unacked;
    if (!pending_tags.empty()) {
      os << " tags=[";
      for (std::size_t i = 0; i < pending_tags.size(); ++i) {
        if (i != 0) os << ",";
        os << pending_tags[i];
      }
      os << "]";
    }
    if (exhausted) os << " RETRANSMITS_EXHAUSTED";
  }
  if (expected >= 0) {  // receiver view
    os << " expecting_seq=" << expected;
    if (buffered_out_of_order > 0) {
      os << " buffered_out_of_order=" << buffered_out_of_order;
    }
  }
  return os.str();
}

// ---- FaultOracle ------------------------------------------------------------

void FaultOracle::set_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  // Fresh plan, fresh schedule: the stream counters restart from index 0
  // (and the map shrinks back to nothing), so a long-lived communicator
  // re-seeded per run replays schedules instead of leaking one map entry
  // per (src, dst, tag) stream forever.
  stream_idx_.clear();
  active_.store(plan.any(), std::memory_order_release);
}

FaultFate FaultOracle::decide(int src, int dst, int tag) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t key = stream_key(src, dst, tag);
  const long long idx = stream_idx_[key]++;
  FaultFate f;
  if (u01(plan_.seed, key, idx, 1) < plan_.drop) {
    f.drop = true;
    ++counters_.dropped;
    return f;
  }
  f.dup = u01(plan_.seed, key, idx, 2) < plan_.dup;
  f.delay = u01(plan_.seed, key, idx, 3) < plan_.delay;
  f.reorder = !f.delay && u01(plan_.seed, key, idx, 4) < plan_.reorder;
  if (f.dup) ++counters_.duplicated;
  if (f.delay) ++counters_.delayed;
  if (f.reorder) ++counters_.reordered;
  return f;
}

int FaultOracle::delay_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_.delay_us;
}

FaultCounters FaultOracle::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::size_t FaultOracle::streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stream_idx_.size();
}

// ---- MailboxComm ------------------------------------------------------------

MailboxComm::MailboxComm(int nranks) : MailboxComm(nranks, -1) {}

MailboxComm::MailboxComm(int nranks, int owner)
    : nranks_(nranks), owner_(owner) {
  require(nranks >= 1, "Comm: need at least one rank");
  require(owner >= -1 && owner < nranks, "Comm: owner rank out of range");
  boxes_.resize(nranks);
  limbo_.resize(nranks);
  cancelled_.assign(nranks, 0);
  for (int r = 0; r < nranks; ++r) {
    if (owner < 0 || r == owner) boxes_[r] = std::make_unique<Mailbox>();
  }
}

MailboxComm::~MailboxComm() = default;

MailboxComm::Mailbox& MailboxComm::box(int rank) {
  PQR_ASSERT(rank >= 0 && rank < size() && boxes_[rank] != nullptr,
             "Comm: can only receive for a rank this process holds");
  return *boxes_[rank];
}

void MailboxComm::count_sent(long long copies, std::size_t bytes) {
  sent_.fetch_add(copies, std::memory_order_relaxed);
  bytes_.fetch_add(copies * static_cast<long long>(bytes),
                   std::memory_order_relaxed);
}

bool MailboxComm::push(int rank, Message m) {
  Mailbox& b = box(rank);
  {
    std::lock_guard<std::mutex> lock(b.mu);
    if (b.cancelled) return false;  // latched: post-cancel sends vanish
    b.q.push_back(std::move(m));
  }
  b.cv.notify_one();
  return true;
}

bool MailboxComm::deliver(int dst, Message head, const Packet& payload,
                          bool shared) {
  // The receiver gets its own copy, emulating separate address spaces.
  head.payload = shared ? payload : payload.clone();
  return push(dst, std::move(head));
}

void MailboxComm::wake(int rank) {
  Mailbox& b = box(rank);
  {
    std::lock_guard<std::mutex> lock(b.mu);
    b.wake_pending = true;  // latch: idempotent, never lost
  }
  b.cv.notify_all();
}

int MailboxComm::isend(int src, int dst, int tag, const Packet& payload,
                       int meta, long long seq, long long ack, bool is_ack,
                       bool shared) {
  PQR_ASSERT(dst >= 0 && dst < size(), "isend: bad destination rank");
  PQR_ASSERT(owner_ < 0 || src == owner_,
             "isend: src must be the rank this process holds");
  check_send_tag(tag, is_ack);
  offered_.fetch_add(1, std::memory_order_relaxed);
  // The header travels without the payload, so the fast path touches the
  // caller's buffer only in deliver (one clone, or one frame write).
  Message m{src, tag, meta, seq, ack, is_ack};
  if (!oracle_.active()) {
    // Fate first, count second: a message the cancel latch discards is
    // offered but never sent.
    if (deliver(dst, std::move(m), payload, shared)) {
      count_sent(1, payload.size());
    }
    return 0;  // request handle; completion is immediate
  }
  // Fault plan: every decision is a pure function of (seed, stream,
  // message index) — deterministic per seed, independent per fault kind.
  // The cancel latch, the decision, the limbo and the accounting happen
  // under fmu_ (the oracle's own lock nests inside it); delivery happens
  // strictly after fmu_ is released.
  bool dup = false;
  bool held = false;
  {
    std::lock_guard<std::mutex> lock(fmu_);
    if (cancelled_[dst] != 0) return 0;  // latched: discard, don't decide
    const FaultFate f = oracle_.decide(src, dst, tag);
    if (f.drop) return 0;  // vanished on the wire: offered, never sent
    dup = f.dup;
    held = f.delay || f.reorder;
    count_sent(dup ? 2 : 1, payload.size());
    if (held) {
      // A held duplicate waits while the other copy travels now. The held
      // copy is taken here, so the sender's later writes never reach it.
      Limbo l{Clock::now() + std::chrono::microseconds(oracle_.delay_us()),
              f.reorder, m};
      l.m.payload = shared ? payload : payload.clone();
      limbo_[dst].push_back(std::move(l));
    }
  }
  if (held && !dup) return 0;
  if (dup && !held) (void)deliver(dst, m, payload, shared);
  if (deliver(dst, std::move(m), payload, shared)) release_after_next(dst);
  return 0;
}

void MailboxComm::release_after_next(int dst) {
  std::vector<Limbo> held;
  {
    std::lock_guard<std::mutex> lock(fmu_);
    auto& limbo = limbo_[dst];
    for (auto it = limbo.begin(); it != limbo.end();) {
      if (it->after_next) {
        held.push_back(std::move(*it));
        it = limbo.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& l : held) {
    const Packet p = std::move(l.m.payload);
    (void)deliver(dst, std::move(l.m), p, /*shared=*/true);
  }
}

std::optional<Clock::time_point> MailboxComm::release_due() {
  std::vector<std::pair<int, Limbo>> due;
  std::optional<Clock::time_point> earliest;
  {
    std::lock_guard<std::mutex> lock(fmu_);
    const auto now = Clock::now();
    for (int dst = 0; dst < size(); ++dst) {
      auto& limbo = limbo_[dst];
      for (auto it = limbo.begin(); it != limbo.end();) {
        if (it->release <= now) {
          due.emplace_back(dst, std::move(*it));
          it = limbo.erase(it);
        } else {
          if (!earliest || it->release < *earliest) earliest = it->release;
          ++it;
        }
      }
    }
  }
  for (auto& [dst, l] : due) {
    const Packet p = std::move(l.m.payload);
    (void)deliver(dst, std::move(l.m), p, /*shared=*/true);
  }
  return earliest;
}

std::optional<Message> MailboxComm::try_recv(int rank) {
  if (oracle_.active()) release_due();
  Mailbox& b = box(rank);
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.q.empty()) return std::nullopt;
  Message m = std::move(b.q.front());
  b.q.pop_front();
  return m;
}

std::deque<Message> MailboxComm::drain(int rank) {
  if (oracle_.active()) release_due();
  Mailbox& b = box(rank);
  std::deque<Message> out;
  std::lock_guard<std::mutex> lock(b.mu);
  out.swap(b.q);
  return out;
}

std::optional<Message> MailboxComm::recv_wait(int rank, int timeout_us) {
  Mailbox& b = box(rank);
  const auto deadline = Clock::now() + std::chrono::microseconds(timeout_us);
  for (;;) {
    // Release due limbo traffic first and cap this round's sleep at the
    // next pending release, so a delayed message never waits for the
    // caller's full timeout.
    auto until = deadline;
    if (oracle_.active()) {
      if (auto next = release_due(); next && *next < until) until = *next;
    }
    {
      std::unique_lock<std::mutex> lock(b.mu);
      // Absolute-deadline predicate wait: spurious wakeups re-evaluate
      // against the same deadline instead of restarting the timeout.
      b.cv.wait_until(lock, until,
                      [&] { return !b.q.empty() || b.wake_pending; });
      if (b.wake_pending) {
        b.wake_pending = false;  // consume the latched interrupt
        if (b.q.empty()) return std::nullopt;
      }
      if (!b.q.empty()) {
        Message m = std::move(b.q.front());
        b.q.pop_front();
        return m;
      }
    }
    if (Clock::now() >= deadline) return std::nullopt;
    // Woke early for a pending limbo release; loop to deliver it.
  }
}

void MailboxComm::cancel(int rank) {
  // Latch BOTH sides of the race: the send-side flag under fmu_ stops a
  // concurrent isend from re-populating the limbo after the clear below,
  // and the mailbox flag under its lock stops a concurrent delivery from
  // re-populating the queue. Either the racing send wins its lock first
  // (and its message is cleared here) or cancel does (and the send sees
  // the latch and discards) — nothing survives.
  {
    std::lock_guard<std::mutex> lock(fmu_);
    cancelled_[rank] = 1;
    limbo_[rank].clear();
  }
  if (Mailbox* b = boxes_[rank].get()) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->cancelled = true;
    b->q.clear();
  }
}

// ---- Reliable ---------------------------------------------------------------

Reliable::Reliable(Comm& comm, int rank, Params params)
    : comm_(comm), rank_(rank), params_(params) {
  require(params_.rto_us > 0, "Reliable: rto_us must be positive");
  require(params_.backoff >= 1.0, "Reliable: backoff must be >= 1");
  require(params_.max_retries >= 0, "Reliable: max_retries must be >= 0");
}

long long Reliable::piggyback_ack(int peer) const {
  auto it = recv_.find(peer);
  return it == recv_.end() ? -1 : it->second.expected - 1;
}

void Reliable::send(int dst, int tag, const Packet& payload, int meta) {
  // Sequenced frames carry application tags only; the reserved range is
  // protocol traffic that is never sequenced.
  require_user_tag(tag, "Reliable::send");
  auto& link = send_[dst];
  const long long seq = link.next_seq++;
  comm_.isend(rank_, dst, tag, payload, meta, seq, piggyback_ack(dst));
  if (auto it = recv_.find(dst); it != recv_.end()) {
    it->second.ack_dirty = false;  // the piggyback carried the ack
  }
  Unacked u;
  u.seq = seq;
  u.tag = tag;
  u.meta = meta;
  u.payload = payload;  // retained shared — see the Unacked contract
  u.rto_us = params_.rto_us;
  u.deadline = Clock::now() + std::chrono::microseconds(params_.rto_us);
  link.unacked.push_back(std::move(u));
}

void Reliable::on_receive(Message m, std::deque<Message>& deliver) {
  const int peer = m.source;
  // 1. Cumulative ack (piggybacked or pure): retire acknowledged frames.
  if (m.ack >= 0) {
    if (auto it = send_.find(peer); it != send_.end()) {
      auto& link = it->second;
      if (m.ack > link.acked) link.acked = m.ack;
      while (!link.unacked.empty() && link.unacked.front().seq <= link.acked) {
        retain_for_replay(link, std::move(link.unacked.front()));
        link.unacked.pop_front();
      }
    }
  }
  if (m.is_ack) return;
  if (m.seq < 0) {  // unsequenced frame (protocol off on the peer)
    deliver.push_back(std::move(m));
    return;
  }
  // 2. Data path: dedup, reassemble in order.
  auto& link = recv_[peer];
  if (m.seq < link.expected || link.out_of_order.count(m.seq) != 0) {
    ++dup_suppressed_;
    // Re-ack: a duplicate usually means our previous ack was lost — if we
    // stayed silent, the sender would retransmit forever.
    link.ack_dirty = true;
    return;
  }
  if (m.seq > link.expected) {
    link.out_of_order.emplace(m.seq, std::move(m));
    return;
  }
  deliver.push_back(std::move(m));
  ++link.expected;
  for (auto it = link.out_of_order.begin();
       it != link.out_of_order.end() && it->first == link.expected;
       it = link.out_of_order.erase(it)) {
    deliver.push_back(std::move(it->second));
    ++link.expected;
  }
  link.ack_dirty = true;
}

void Reliable::flush_acks() {
  for (auto& [peer, link] : recv_) {
    if (!link.ack_dirty) continue;
    // Pure ack: empty payload, tag -1, never sequenced (and therefore
    // never acked or retransmitted itself — losing one is harmless, the
    // next duplicate triggers another).
    comm_.isend(rank_, peer, kPureAckTag, Packet(), /*meta=*/0, /*seq=*/-1,
                link.expected - 1, /*is_ack=*/true);
    link.ack_dirty = false;
    ++acks_sent_;
  }
}

void Reliable::retain_for_replay(SendLink& link, Unacked u) {
  if (params_.replay_log_bytes == 0) return;  // retention off: drop as before
  link.replay_bytes += u.payload.size();
  link.replay.push_back(std::move(u));
  while (link.replay_bytes > params_.replay_log_bytes &&
         !link.replay.empty()) {
    link.replay_bytes -= link.replay.front().payload.size();
    link.replay.pop_front();
    ++link.replay_evicted;
  }
}

long long Reliable::replay_link(int dst, Clock::time_point now) {
  auto it = send_.find(dst);
  if (it == send_.end()) return 0;  // never sent there: nothing to replay
  auto& link = it->second;
  if (link.replay_evicted > 0) return -1;  // history incomplete: give up
  // Replay log (acked, oldest first) goes back IN FRONT of the still-
  // unacked tail; both are already in ascending seq order, so the merged
  // queue is the link's complete send history from seq 0.
  for (auto rit = link.replay.rbegin(); rit != link.replay.rend(); ++rit) {
    link.unacked.push_front(std::move(*rit));
  }
  link.replay.clear();
  link.replay_bytes = 0;
  link.acked = -1;
  link.exhausted = false;
  for (auto& u : link.unacked) {
    u.retries = 0;
    u.rto_us = params_.rto_us;
    u.deadline = now;  // due immediately: the next poll() walks them in order
  }
  replayed_ += static_cast<long long>(link.unacked.size());
  return static_cast<long long>(link.unacked.size());
}

void Reliable::reset_recv_link(int src) {
  auto it = recv_.find(src);
  if (it == recv_.end()) return;
  it->second.expected = 0;
  it->second.out_of_order.clear();
  it->second.ack_dirty = false;
}

bool Reliable::poll(Clock::time_point now) {
  for (auto& [dst, link] : send_) {
    if (link.exhausted) continue;
    const bool up = !link_up_ || link_up_(dst);
    for (auto& u : link.unacked) {
      if (u.deadline > now) continue;
      if (!up) {
        // Peer known down (crash window): push the deadline instead of
        // burning retries — the rejoin path re-arms everything anyway.
        u.deadline = now + std::chrono::microseconds(u.rto_us);
        continue;
      }
      if (u.retries >= params_.max_retries) {
        link.exhausted = true;
        failed_ = true;
        break;
      }
      ++u.retries;
      ++retransmits_;
      // Shared: the retained buffer goes on the wire as-is, no deep copy
      // per transmission (the receiver's seq dedup discards stale copies).
      comm_.isend(rank_, dst, u.tag, u.payload, u.meta, u.seq,
                  piggyback_ack(dst), false, /*shared=*/true);
      u.rto_us = static_cast<long long>(
          static_cast<double>(u.rto_us) * params_.backoff);
      u.deadline = now + std::chrono::microseconds(u.rto_us);
      if (retransmit_hook_) retransmit_hook_(dst, u.tag, u.seq);
    }
  }
  return !failed_;
}

std::string Reliable::state_fingerprint() const {
  std::ostringstream os;
  for (const auto& [dst, link] : send_) {
    os << 's' << dst << ':' << link.next_seq << ',' << link.acked << ','
       << (link.exhausted ? 1 : 0) << '[';
    for (const auto& u : link.unacked) {
      os << u.seq << '/' << u.tag << '/' << u.retries << ';';
    }
    os << ']';
  }
  for (const auto& [src, link] : recv_) {
    os << 'r' << src << ':' << link.expected << ','
       << (link.ack_dirty ? 1 : 0) << '[';
    for (const auto& [seq, m] : link.out_of_order) os << seq << ';';
    os << ']';
  }
  return os.str();
}

std::vector<LinkGap> Reliable::gaps() const {
  std::vector<LinkGap> out;
  for (const auto& [dst, link] : send_) {
    LinkGap g;
    g.src = rank_;
    g.dst = dst;
    g.next_seq = link.next_seq;
    g.acked = link.acked;
    g.expected = -1;  // sender view
    g.unacked = static_cast<int>(link.unacked.size());
    g.exhausted = link.exhausted;
    for (const auto& u : link.unacked) g.pending_tags.push_back(u.tag);
    out.push_back(std::move(g));
  }
  for (const auto& [src, link] : recv_) {
    LinkGap g;
    g.src = src;
    g.dst = rank_;
    g.next_seq = -1;  // receiver view
    g.acked = -1;
    g.expected = link.expected;
    g.buffered_out_of_order = static_cast<int>(link.out_of_order.size());
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace pulsarqr::prt::net
