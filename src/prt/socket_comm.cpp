#include "prt/socket_comm.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "prt/wire.hpp"

namespace pulsarqr::prt::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Write exactly n bytes (blocking, no SIGPIPE). False on any error —
/// the peer is gone; the caller treats the frame as dropped on the wire.
bool send_all(int fd, const std::byte* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

std::vector<std::vector<int>> SocketComm::socketpair_mesh(int nranks) {
  std::vector<std::vector<int>> mesh(nranks, std::vector<int>(nranks, -1));
  for (int a = 0; a < nranks; ++a) {
    for (int b = a + 1; b < nranks; ++b) {
      int sv[2];
      require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
              "SocketComm: socketpair failed: " +
                  std::string(std::strerror(errno)));
      mesh[a][b] = sv[0];
      mesh[b][a] = sv[1];
    }
  }
  return mesh;
}

SocketComm::SocketComm(int nranks, int rank, std::vector<int> peer_fds,
                       std::uint32_t epoch,
                       std::vector<std::uint32_t> peer_epochs)
    : Comm(nranks), rank_(rank), epoch_(epoch), peer_fds_(nranks),
      peer_epoch_(nranks), peer_down_(nranks) {
  require(rank_ >= 0 && rank_ < nranks, "SocketComm: rank out of range");
  require(static_cast<int>(peer_fds.size()) == nranks,
          "SocketComm: need one fd per rank");
  require(peer_epochs.empty() ||
              static_cast<int>(peer_epochs.size()) == nranks,
          "SocketComm: need one peer epoch per rank (or none)");
  peer_fds[rank_] = -1;  // never talk to ourselves over a socket
  for (int r = 0; r < nranks; ++r) {
    peer_fds_[r].store(peer_fds[r], std::memory_order_relaxed);
    peer_epoch_[r].store(peer_epochs.empty() ? 0u : peer_epochs[r],
                         std::memory_order_relaxed);
    peer_down_[r].store(false, std::memory_order_relaxed);
  }
  // Self-delivered messages are stamped with our own incarnation.
  peer_epoch_[rank_].store(epoch_, std::memory_order_relaxed);
  wmu_.reserve(nranks);
  for (int r = 0; r < nranks; ++r) wmu_.push_back(std::make_unique<std::mutex>());
  cancelled_to_.assign(nranks, 0);
  barrier_seen_.assign(nranks, 0);
  require(::pipe(wake_pipe_) == 0, "SocketComm: pipe failed: " +
                                       std::string(std::strerror(errno)));
  receiver_ = std::thread([this] { receiver_loop(); });
}

SocketComm::~SocketComm() {
  stop_.store(true, std::memory_order_release);
  const char b = 'w';
  // Best-effort nudge; the receiver also polls stop_ on a short timeout.
  (void)!::write(wake_pipe_[1], &b, 1);
  if (receiver_.joinable()) receiver_.join();
  for (auto& fd : peer_fds_) {
    const int f = fd.load(std::memory_order_relaxed);
    if (f >= 0) ::close(f);
  }
  // Rejoins queued but never installed still own their fds.
  for (const Rejoin& rj : rejoins_) {
    if (rj.fd >= 0) ::close(rj.fd);
  }
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void SocketComm::rejoin_peer(int rank, int fd, std::uint32_t epoch) {
  {
    std::lock_guard<std::mutex> lock(rjmu_);
    rejoins_.push_back(Rejoin{rank, fd, epoch});
  }
  // Nudge an idle proxy out of recv_wait so it installs promptly.
  interrupt(rank_);
}

std::vector<SocketComm::Rejoin> SocketComm::take_rejoins() {
  std::lock_guard<std::mutex> lock(rjmu_);
  std::vector<Rejoin> out;
  out.swap(rejoins_);
  return out;
}

void SocketComm::install_rejoin(const Rejoin& rj) {
  PQR_ASSERT(rj.rank >= 0 && rj.rank < size() && rj.rank != rank_,
             "SocketComm: bad rejoin rank");
  {
    // The write lock serializes against in-flight write_frame calls: no
    // sender can interleave half a frame across the fd swap.
    std::lock_guard<std::mutex> lock(*wmu_[rj.rank]);
    peer_fds_[rj.rank].store(rj.fd);  // seq_cst: see the receiver's EOF path
    peer_epoch_[rj.rank].store(rj.epoch, std::memory_order_release);
  }
  peer_down_[rj.rank].store(false);
  // Wake the receiver so it reconciles (closes the replaced fd, discards
  // the dead incarnation's partial stream, and starts polling the new fd).
  const char b = 'w';
  (void)!::write(wake_pipe_[1], &b, 1);
}

bool SocketComm::write_frame(int dst, std::uint32_t kind, std::uint32_t flags,
                             int source, int tag, int meta,
                             const std::byte* payload, std::size_t len,
                             long long seq, long long ack) {
  std::byte hdr[kFrameHeaderBytes];
  wire::put_u32(hdr, kind);
  wire::put_u32(hdr + 4, flags);
  wire::put_i32(hdr + 8, source);
  wire::put_i32(hdr + 12, tag);
  wire::put_i32(hdr + 16, meta);
  wire::put_u64(hdr + 20, static_cast<std::uint64_t>(len));
  wire::put_i64(hdr + 28, seq);
  wire::put_i64(hdr + 36, ack);
  wire::put_u32(hdr + 44, epoch_);
  // One frame, one writer at a time: header and payload must be adjacent
  // on the stream. SOCK_STREAM backpressure cannot deadlock two mutually
  // blocked senders because every process's receiver thread drains
  // independently of its own sends. The fd is loaded under the same lock
  // install_rejoin swaps it under, so a frame never splits across fds.
  std::lock_guard<std::mutex> lock(*wmu_[dst]);
  const int fd = peer_fds_[dst].load(std::memory_order_acquire);
  if (fd < 0) return false;
  if (!send_all(fd, hdr, kFrameHeaderBytes) ||
      (len > 0 && !send_all(fd, payload, len))) {
    // The peer's process is gone (or its socket is); freeze the link
    // until a replacement rejoins.
    peer_down_[dst].store(true, std::memory_order_release);
    return false;
  }
  return true;
}

bool SocketComm::local_enqueue(Message m) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_self_) return false;
    q_.push_back(std::move(m));
  }
  cv_.notify_one();
  return true;
}

bool SocketComm::transmit(int dst, const Message& m) {
  bool ok;
  if (dst == rank_) {
    Message self = m;
    self.epoch = epoch_;  // self-delivery is always the live incarnation
    ok = local_enqueue(std::move(self));
  } else {
    ok = write_frame(dst, kData, m.is_ack ? 1u : 0u, m.source, m.tag, m.meta,
                     m.payload.bytes(), m.payload.size(), m.seq, m.ack);
  }
  if (ok) {
    sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<long long>(m.payload.size()),
                     std::memory_order_relaxed);
  }
  return ok;
}

int SocketComm::isend(int src, int dst, int tag, const Packet& payload,
                      int meta, long long seq, long long ack, bool is_ack,
                      bool shared) {
  PQR_ASSERT(dst >= 0 && dst < size(), "isend: bad destination rank");
  PQR_ASSERT(src == rank_, "SocketComm::isend: src must be the owning rank");
  check_send_tag(tag, is_ack);
  offered_.fetch_add(1, std::memory_order_relaxed);
  // The wire write below serializes the bytes out of the caller's buffer
  // either way, so `shared` needs no deep copy here; the flag only
  // matters for the local (dst == rank_) delivery, where the receiver
  // adopts the buffer. Local delivery of a non-shared payload clones to
  // preserve the separate-address-space emulation of the base contract.
  Message m{src, tag, meta, seq, ack, is_ack,
            (dst == rank_ && !shared) ? payload.clone() : payload};
  if (!oracle_.active()) {
    (void)transmit(dst, m);
    return 0;
  }
  bool held = false;
  bool dup = false;
  {
    std::lock_guard<std::mutex> lock(lmu_);
    if (cancelled_to_[dst] != 0) return 0;  // offered, never sent
    const FaultFate f = oracle_.decide(src, dst, tag);
    if (f.drop) return 0;
    dup = f.dup;
    held = f.delay || f.reorder;
    if (held) {
      Limbo l;
      l.release = Clock::now() + std::chrono::microseconds(oracle_.delay_us());
      l.after_next = f.reorder;
      l.dst = dst;
      l.m = dup ? Message{m.source, m.tag, m.meta, m.seq,
                          m.ack,    m.is_ack, m.payload}
                : std::move(m);
      limbo_.push_back(std::move(l));
    }
  }
  if (held && !dup) return 0;
  if (dup && !held) (void)transmit(dst, m);
  if (transmit(dst, m)) flush_after_next(dst);
  return 0;
}

std::optional<Clock::time_point> SocketComm::flush_due_limbo() {
  std::vector<Limbo> due;
  std::optional<Clock::time_point> earliest;
  {
    std::lock_guard<std::mutex> lock(lmu_);
    if (limbo_.empty()) return std::nullopt;
    const auto now = Clock::now();
    for (auto it = limbo_.begin(); it != limbo_.end();) {
      if (it->release <= now) {
        due.push_back(std::move(*it));
        it = limbo_.erase(it);
      } else {
        if (!earliest || it->release < *earliest) earliest = it->release;
        ++it;
      }
    }
  }
  for (auto& l : due) (void)transmit(l.dst, l.m);
  return earliest;
}

void SocketComm::flush_after_next(int dst) {
  std::vector<Limbo> held;
  {
    std::lock_guard<std::mutex> lock(lmu_);
    for (auto it = limbo_.begin(); it != limbo_.end();) {
      if (it->after_next && it->dst == dst) {
        held.push_back(std::move(*it));
        it = limbo_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& l : held) (void)transmit(l.dst, l.m);
}

std::optional<Message> SocketComm::try_recv(int rank) {
  PQR_ASSERT(rank == rank_, "SocketComm: can only receive for the owning rank");
  if (oracle_.active()) flush_due_limbo();
  std::lock_guard<std::mutex> lock(mu_);
  if (q_.empty()) return std::nullopt;
  Message m = std::move(q_.front());
  q_.pop_front();
  return m;
}

std::deque<Message> SocketComm::drain(int rank) {
  PQR_ASSERT(rank == rank_, "SocketComm: can only receive for the owning rank");
  if (oracle_.active()) flush_due_limbo();
  std::deque<Message> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.swap(q_);
  return out;
}

std::optional<Message> SocketComm::recv_wait(int rank, int timeout_us) {
  PQR_ASSERT(rank == rank_, "SocketComm: can only receive for the owning rank");
  const auto deadline = Clock::now() + std::chrono::microseconds(timeout_us);
  for (;;) {
    // Flush due limbo traffic first, and cap this round's sleep at the
    // next pending release: a delayed outbound message must not wait for
    // the caller's full timeout (the sender is its only flusher).
    auto until = deadline;
    if (oracle_.active()) {
      if (auto next = flush_due_limbo(); next && *next < until) until = *next;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_until(lock, until,
                     [&] { return !q_.empty() || wake_pending_; });
      if (wake_pending_) {
        wake_pending_ = false;  // consume the latched interrupt
        if (q_.empty()) return std::nullopt;
      }
      if (!q_.empty()) {
        Message m = std::move(q_.front());
        q_.pop_front();
        return m;
      }
    }
    if (Clock::now() >= deadline) return std::nullopt;
  }
}

void SocketComm::barrier() {
  if (size() == 1) return;
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(bmu_);
    gen = ++barrier_gen_;
  }
  // Dissemination: announce our generation to every peer (control frame,
  // bypasses the fault plan), then wait until every peer announced gen.
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    (void)write_frame(r, kBarrier, 0, rank_, 0, 0, nullptr, 0,
                      static_cast<long long>(gen), -1);
  }
  std::unique_lock<std::mutex> lock(bmu_);
  bcv_.wait(lock, [&] {
    for (int r = 0; r < size(); ++r) {
      if (r != rank_ && barrier_seen_[r] < static_cast<long long>(gen)) {
        return false;
      }
    }
    return true;
  });
}

void SocketComm::cancel(int rank) {
  {
    std::lock_guard<std::mutex> lock(lmu_);
    cancelled_to_[rank] = 1;
    for (auto it = limbo_.begin(); it != limbo_.end();) {
      if (it->dst == rank) {
        it = limbo_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (rank == rank_) {
    // Our own mailbox: clear what arrived and latch so frames the
    // receiver thread delivers later are discarded too.
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_self_ = true;
    q_.clear();
  }
}

void SocketComm::interrupt(int rank) {
  if (rank == rank_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake_pending_ = true;  // latch: idempotent, never lost
    }
    cv_.notify_all();
    return;
  }
  (void)write_frame(rank, kInterrupt, 0, rank_, 0, 0, nullptr, 0, -1, -1);
}

void SocketComm::parse_frames(int peer, std::vector<std::byte>& buf) {
  std::size_t off = 0;
  while (buf.size() - off >= kFrameHeaderBytes) {
    const std::byte* h = buf.data() + off;
    const std::uint32_t kind = wire::get_u32(h);
    const std::uint32_t flags = wire::get_u32(h + 4);
    const int source = wire::get_i32(h + 8);
    const int tag = wire::get_i32(h + 12);
    const int meta = wire::get_i32(h + 16);
    const std::size_t len = static_cast<std::size_t>(wire::get_u64(h + 20));
    const long long seq = wire::get_i64(h + 28);
    const long long ack = wire::get_i64(h + 36);
    const std::uint32_t epoch = wire::get_u32(h + 44);
    if (buf.size() - off < kFrameHeaderBytes + len) break;  // partial frame
    const std::byte* body = h + kFrameHeaderBytes;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    switch (kind) {
      case kData: {
        // Pooled receive buffer: the payload is copied off the stream
        // buffer into a fresh PacketPool allocation the channels adopt.
        Packet p = Packet::make(len, meta);
        if (len > 0) std::memcpy(p.bytes(), body, len);
        (void)local_enqueue(Message{source, tag, meta, seq, ack,
                                    (flags & 1u) != 0, std::move(p), epoch});
        break;
      }
      case kBarrier: {
        {
          std::lock_guard<std::mutex> lock(bmu_);
          if (seq > barrier_seen_[peer]) barrier_seen_[peer] = seq;
        }
        bcv_.notify_all();
        break;
      }
      case kInterrupt: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          wake_pending_ = true;
        }
        cv_.notify_all();
        break;
      }
      default:
        PQR_ASSERT(false, "SocketComm: unknown frame kind " +
                              std::to_string(kind) + " from rank " +
                              std::to_string(peer));
    }
    off += kFrameHeaderBytes + len;
  }
  if (off > 0) buf.erase(buf.begin(), buf.begin() + static_cast<long>(off));
}

void SocketComm::receiver_loop() {
  std::vector<std::vector<std::byte>> bufs(size());
  std::vector<char> dead(size(), 0);
  // The receiver's own view of each peer fd. When install_rejoin swaps a
  // peer's fd, the receiver — the only thread that might still be polling
  // the old one — closes the replaced fd itself at the next loop top and
  // discards the dead incarnation's partial stream bytes.
  std::vector<int> cur(size(), -1);
  for (int r = 0; r < size(); ++r) {
    cur[r] = peer_fds_[r].load(std::memory_order_acquire);
  }
  std::vector<std::byte> chunk(64 * 1024);
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> pfds;
    std::vector<int> owners;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      const int fd = peer_fds_[r].load(std::memory_order_acquire);
      if (fd != cur[r]) {  // a replacement rejoined on a fresh socket
        if (cur[r] >= 0) ::close(cur[r]);
        cur[r] = fd;
        bufs[r].clear();  // partial frame bytes of the dead incarnation
        dead[r] = 0;
      }
      if (fd < 0 || dead[r] != 0) continue;
      pfds.push_back({fd, POLLIN, 0});
      owners.push_back(r);
    }
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    const int n = ::poll(pfds.data(), pfds.size(), /*ms=*/50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // polling is unrecoverable; shutdown will reap us
    }
    if (n == 0) continue;
    for (std::size_t i = 0; i + 1 < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int peer = owners[i];
      if (pfds[i].fd != cur[peer]) continue;  // swapped mid-iteration
      const ssize_t k =
          ::recv(pfds[i].fd, chunk.data(), chunk.size(), MSG_DONTWAIT);
      if (k > 0) {
        bufs[peer].insert(bufs[peer].end(), chunk.data(), chunk.data() + k);
        parse_frames(peer, bufs[peer]);
      } else if (k == 0 || (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR)) {
        dead[peer] = 1;  // peer process exited; normal during teardown
        // Only the current fd's EOF marks the peer down. A replacement
        // may have rejoined since this poll began, and the old fd's EOF
        // must not re-mark the link down after install_rejoin cleared it:
        // retransmits to the replacement would then be deferred forever.
        // install_rejoin swaps the fd before it clears the flag, so
        // re-reading the fd after the store undoes a mark that raced it
        // (all four accesses are seq_cst, which keeps both orders).
        if (peer_fds_[peer].load() == pfds[i].fd) {
          peer_down_[peer].store(true);
          if (peer_fds_[peer].load() != pfds[i].fd) {
            peer_down_[peer].store(false);
          }
        }
      }
    }
    if ((pfds.back().revents & POLLIN) != 0) {
      char b;
      (void)!::read(wake_pipe_[0], &b, 1);
    }
  }
  // A swap the loop never got to reconcile would leak the replaced fd.
  for (int r = 0; r < size(); ++r) {
    if (cur[r] >= 0 && cur[r] != peer_fds_[r].load(std::memory_order_acquire)) {
      ::close(cur[r]);
    }
  }
}

}  // namespace pulsarqr::prt::net
