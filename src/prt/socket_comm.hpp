// Out-of-process transport backend: Unix-domain stream sockets between
// one real OS process per node (the paper's §IV-B MPI process model made
// concrete). One SocketComm instance lives in each node process and
// implements the same six-call Comm surface as the in-process
// MailboxComm; the Vsa run path forks the node processes and hands each
// one its row of a pre-opened socketpair mesh.
//
// Wire format — one frame per message, fixed 48-byte little-endian
// header (wire.hpp codec, never host-endian memcpy) followed by the
// payload bytes:
//
//   offset  field         encoding
//   0       kind          u32   0 = data, 2 = interrupt
//   4       flags         u32   bit 0 = is_ack
//   8       source        i32   sending rank
//   12      tag           i32   Message::tag (reserved tags included)
//   16      meta          i32   Message::meta
//   20      payload_len   u64   bytes following the header
//   28      seq           i64   Reliable sequence number (-1 = none)
//   36      ack           i64   cumulative ack (-1 = none)
//   44      epoch         u32   sender incarnation (crash recovery)
//
// Every frame is stamped with the sender's incarnation number (0 for the
// original process of each rank, bumped per crash respawn); receivers
// track the expected incarnation per peer and the proxy fences data
// frames from dead incarnations — a stale cumulative ack surviving in a
// socket buffer across a rejoin would otherwise trim frames the replay
// path just requeued.
//
// Data frames carry the full Message header, so the Reliable layer runs
// unchanged over either backend. Interrupt frames wake a peer blocked in
// recv_wait. Kind 1 is retired and never sent.
//
// SocketComm is a MailboxComm that holds only its own rank's mailbox: the
// fault plan, the limbo, the cancel latches and the accounting are the
// shared ones in transport.hpp. It supplies the two backend hooks: a
// message to its own rank is pushed into the local mailbox, one to a peer
// is written as a frame, and a peer is woken by an interrupt frame. The
// receiver thread pushes parsed frames into the mailbox. Because the
// fault plan acts before a frame is written, a chaos seed replays the
// identical drop/dup/delay/reorder schedule on both backends, and the
// limbo sits on the sending side: the sender's own receive calls (its
// proxy) flush it.
#pragma once

#include <thread>

#include "prt/transport.hpp"

namespace pulsarqr::prt::net {

class SocketComm : public MailboxComm {
 public:
  /// Frame kinds on the wire (header field 0).
  enum : std::uint32_t { kData = 0, kInterrupt = 2 };
  static constexpr std::size_t kFrameHeaderBytes = 48;

  /// Build the full nranks x nranks socketpair mesh (AF_UNIX,
  /// SOCK_STREAM). mesh[a][b] is the fd rank `a` uses to talk to rank
  /// `b` (mesh[a][a] = -1); mesh[a][b] and mesh[b][a] are the two ends
  /// of one socketpair. Called by the parent BEFORE forking; each child
  /// keeps its own row (closing the rest) and the parent closes all.
  static std::vector<std::vector<int>> socketpair_mesh(int nranks);

  /// Take ownership of this rank's row of the mesh (peer_fds[rank] is
  /// ignored / may be -1). Starts the receiver thread. `epoch` is this
  /// process's incarnation (0 unless it is a crash respawn);
  /// `peer_epochs` the current incarnation of every peer at construction
  /// time (empty = all zero — no crash has happened yet).
  SocketComm(int nranks, int rank, std::vector<int> peer_fds,
             std::uint32_t epoch = 0,
             std::vector<std::uint32_t> peer_epochs = {});
  ~SocketComm() override;

  int rank() const { return rank_; }
  std::uint32_t epoch() const { return epoch_; }

  // ---- crash recovery: peer rejoin --------------------------------------
  //
  // When a peer's process dies and the parent forks a replacement, each
  // survivor receives (over its control socketpair) the replacement's
  // rank, new incarnation number and a fresh socket fd. The control
  // thread queues the rejoin here; the node's proxy thread — the sole
  // owner of the Reliable endpoint — installs it, then resets/replays
  // the protocol state. Installation swaps the peer fd under the write
  // lock (the receiver thread closes the replaced fd itself and discards
  // its partial stream) and bumps the expected peer incarnation so stale
  // frames from the dead incarnation are fenced at the proxy's drain.

  struct Rejoin {
    int rank = -1;
    int fd = -1;
    std::uint32_t epoch = 0;
  };

  /// Queue a rejoin (any thread).
  void rejoin_peer(int rank, int fd, std::uint32_t epoch);
  /// Drain queued rejoins (proxy thread).
  std::vector<Rejoin> take_rejoins();
  /// Swap in the replacement's fd + incarnation (proxy thread). The old
  /// fd, if any, stays open until the receiver thread reconciles.
  void install_rejoin(const Rejoin& rj);

  /// Expected incarnation of a peer (frames below it are stale).
  std::uint32_t peer_epoch(int rank) const {
    return peer_epoch_[rank].load(std::memory_order_acquire);
  }
  /// False while the peer's process is known dead (EOF / write failure
  /// seen) and no replacement has rejoined yet — the Reliable layer's
  /// link-up probe, so retransmits idle instead of exhausting.
  bool peer_alive(int rank) const {
    return !peer_down_[rank].load(std::memory_order_acquire);
  }

  /// Frames of any kind accepted by the receiver thread — a liveness
  /// signal for the per-process watchdog (acks arriving while no local
  /// VDP fires still count as progress).
  long long frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }

 protected:
  /// Self: a push into the own mailbox, stamped with this incarnation.
  /// Peer: one frame write. False when the destination is unreachable
  /// (peer gone, mailbox cancelled) — the frame is dropped, as a real
  /// wire would; the Reliable layer repairs or reports it.
  bool deliver(int dst, Message head, const Packet& payload,
               bool shared) override;
  /// Self: latch the own mailbox. Peer: an interrupt frame.
  void wake(int rank) override;

 private:
  bool write_frame(int dst, std::uint32_t kind, std::uint32_t flags,
                   int source, int tag, int meta, const std::byte* payload,
                   std::size_t len, long long seq, long long ack);
  void receiver_loop();
  /// Parse and dispatch every complete frame at the front of a peer's
  /// receive buffer, compacting it afterwards.
  void parse_frames(int peer, std::vector<std::byte>& buf);

  int rank_;
  std::uint32_t epoch_ = 0;  ///< this process's incarnation, stamped on frames
  /// Owned; -1 for self. Atomic so the receiver thread can reconcile a
  /// rejoin-swapped fd without taking the write lock; writers load under
  /// wmu_[dst], which also serializes against install_rejoin's swap.
  std::vector<std::atomic<int>> peer_fds_;
  std::vector<std::atomic<std::uint32_t>> peer_epoch_;
  std::vector<std::atomic<bool>> peer_down_;
  std::vector<std::unique_ptr<std::mutex>> wmu_;  ///< per-peer write lock
  int wake_pipe_[2] = {-1, -1};  ///< receiver-thread shutdown nudge

  // Pending rejoins queued by the control thread for the proxy.
  std::mutex rjmu_;
  std::vector<Rejoin> rejoins_;

  std::atomic<long long> frames_received_{0};
  std::atomic<bool> stop_{false};
  std::thread receiver_;
};

}  // namespace pulsarqr::prt::net
