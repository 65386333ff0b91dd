#include "prt/vsa.hpp"

#include <algorithm>

#include "prt/graph_check.hpp"
#include "prt/packet_pool.hpp"
#include "prt/socket_comm.hpp"
#include "prt/wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

namespace pulsarqr::prt {

using namespace std::chrono_literals;

namespace {
std::uint64_t route_key(int src_node, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
          << 32) |
         static_cast<std::uint32_t>(tag);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}
}  // namespace

// ---- runtime structures -----------------------------------------------------

struct OutMsg {
  int dst_node = -1;
  int tag = -1;
  Packet p;
};

/// A placement domain: the VDP list that one or more workers sweep, and
/// the wake state they share. Without work stealing each worker has its
/// own domain (the paper's static VDP->thread binding); with it, one
/// domain holds every VDP of a node and all the node's workers sweep it.
struct Vsa::Domain : Waker {
  std::vector<Vdp*> vdps;
  std::atomic<int> alive{0};  ///< VDPs of `vdps` not yet dead

  // Wake state: a generation counter bumped by every wake(), plus a count
  // of parked workers so producers skip the mutex entirely while the
  // workers are running or spinning (the common case). Dekker pairing: a
  // waiter publishes parked then re-reads the epoch, the waker publishes
  // the epoch then reads parked — both seq_cst, so no wake is ever lost.
  std::atomic<std::uint64_t> wake_epoch{0};
  std::atomic<int> parked{0};
  std::mutex mu;
  std::condition_variable cv;

  /// New work: one parked worker is enough, since every worker that fires
  /// sweeps again before it waits.
  void wake() override { notify(false); }
  /// The domain finished or the run is stopping: release every worker.
  void wake_all() { notify(true); }

  /// Spin-then-park until the wake epoch moves past `seen` (a value read
  /// BEFORE the caller's last sweep, so any wake during the sweep returns
  /// immediately), `stop()` turns true, or a backstop timeout expires.
  template <class Stop>
  void wait_for_wake(std::uint64_t seen, int spin_us, Stop stop) {
    if (spin_us > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::microseconds(spin_us);
      int iter = 0;
      while (wake_epoch.load(std::memory_order_acquire) == seen) {
        cpu_relax();
        if ((++iter & 63) == 0 &&
            (stop() || std::chrono::steady_clock::now() >= deadline)) {
          break;
        }
      }
      if (wake_epoch.load(std::memory_order_acquire) != seen || stop()) return;
    }
    std::unique_lock<std::mutex> lock(mu);
    parked.fetch_add(1, std::memory_order_seq_cst);
    // The 10ms wait_for is a liveness backstop only; the epoch/parked
    // protocol makes real wakeups prompt.
    cv.wait_for(lock, 10ms, [&] {
      return wake_epoch.load(std::memory_order_seq_cst) != seen || stop();
    });
    parked.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  void notify(bool all) {
    wake_epoch.fetch_add(1, std::memory_order_seq_cst);
    if (parked.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(mu);  // pairs with the parked wait
      if (all) {
        cv.notify_all();
      } else {
        cv.notify_one();
      }
    }
  }
};

struct Vsa::Worker {
  int node_id = 0;
  int local_id = 0;
  int global_id = 0;
  Domain* domain = nullptr;  ///< the VDP list this worker sweeps
  double busy = 0.0;

  // Heartbeat for the watchdog: incremented entering AND leaving fire(),
  // so an odd value means "a firing is in flight on this worker".
  std::atomic<std::uint64_t> fire_epoch{0};

  std::thread thread;
};

struct Vsa::Node {
  int id = 0;
  std::vector<Worker*> workers;
  std::unordered_map<std::uint64_t, Channel*> route;  ///< (src, tag) -> channel
  bool has_remote = false;
  bool local = false;  ///< in the node set this process runs
  std::thread proxy;

  // Outgoing inter-node packets of all the node's workers, in one FIFO.
  // Consecutive firings of one VDP may run on different workers under
  // work stealing; the claim serializes them, so the enqueue order here
  // is the channel order the proxy must keep.
  std::mutex omu;
  std::deque<OutMsg> outq;

  /// Seconds the proxy spent on transport work (written by the proxy
  /// thread, read by run() after joining it).
  double proxy_busy = 0.0;
};

// ---- construction -----------------------------------------------------------

// Every Config field with a constraint, checked once, before any thread
// or process exists; each failure names its field.
void Vsa::Config::validate() const {
  auto fail = [](const std::string& what) {
    throw Error("Vsa::Config::" + what);
  };
  auto str = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  auto at_least = [&](double v, double min, const char* field) {
    // Written as !(v >= min) so a NaN fails too.
    if (!(v >= min)) {
      fail(std::string(field) + " must be >= " + str(min) + " (got " +
           str(v) + ")");
    }
  };
  auto probability = [&](double p, const char* field) {
    if (!(p >= 0.0 && p <= 1.0)) {
      fail(std::string("fault_plan.") + field +
           " must be a probability in [0, 1] (got " + str(p) + ")");
    }
  };
  at_least(nodes, 1, "nodes");
  at_least(workers_per_node, 1, "workers_per_node");
  at_least(retransmit_timeout_us, 1, "retransmit_timeout_us");
  at_least(max_retransmits, 0, "max_retransmits");
  at_least(max_respawns, 0, "max_respawns");
  at_least(watchdog_seconds, 0, "watchdog_seconds");
  at_least(heartbeat_timeout_seconds, 0, "heartbeat_timeout_seconds");
  at_least(fault_plan.delay_us, 0, "fault_plan.delay_us");
  probability(fault_plan.drop, "drop");
  probability(fault_plan.dup, "dup");
  probability(fault_plan.delay, "delay");
  probability(fault_plan.reorder, "reorder");
  if (max_respawns > 0 && transport != Transport::Socket) {
    fail("max_respawns requires the Socket transport (crash recovery "
         "respawns OS processes)");
  }
  if (max_respawns > 0 && !reliable_transport) {
    fail("max_respawns > 0 requires reliable_transport — survivors replay "
         "a crashed peer's frames from the protocol's retained send log");
  }
  if (fault_plan.kill() && transport != Transport::Socket) {
    fail("fault_plan.kill_rank requires the Socket transport (there is no "
         "process to kill in-process)");
  }
  if (fault_plan.kill_rank >= nodes) {
    fail("fault_plan.kill_rank must name a node (got " +
         str(fault_plan.kill_rank) + ")");
  }
}

Vsa::Vsa(Config cfg) : cfg_(cfg) { cfg_.validate(); }

Vsa::~Vsa() = default;

Vdp& Vsa::add_vdp(Tuple tuple, int counter, VdpFn fn, int num_inputs,
                  int num_outputs, int color, int outputs_per_fire) {
  require(counter >= 1, "add_vdp: counter must be positive");
  require(outputs_per_fire >= 0, "add_vdp: outputs_per_fire must be >= 0");
  require(!ran_, "add_vdp: VSA already ran");
  auto vdp = std::make_unique<Vdp>(tuple, counter, std::move(fn), num_inputs,
                                   num_outputs, color, outputs_per_fire);
  auto [it, inserted] = vdps_.emplace(std::move(tuple), std::move(vdp));
  require(inserted, "add_vdp: duplicate tuple " + it->first.to_string());
  creation_order_.push_back(it->second.get());
  return *it->second;
}

void Vsa::declare_output_packets(const Tuple& vdp, int out_slot,
                                 long long total_packets) {
  auto it = vdps_.find(vdp);
  require(it != vdps_.end(),
          "declare_output_packets: unknown VDP " + vdp.to_string());
  Vdp& v = *it->second;
  require(out_slot >= 0 && out_slot < v.num_outputs(),
          "declare_output_packets: bad output slot on " + vdp.to_string());
  require(total_packets >= 0,
          "declare_output_packets: total must be >= 0 on " + vdp.to_string());
  v.declared_out_[out_slot] = total_packets;
}

void Vsa::declare_input_packets(const Tuple& vdp, int in_slot,
                                long long total_packets) {
  auto it = vdps_.find(vdp);
  require(it != vdps_.end(),
          "declare_input_packets: unknown VDP " + vdp.to_string());
  Vdp& v = *it->second;
  require(in_slot >= 0 && in_slot < v.num_inputs(),
          "declare_input_packets: bad input slot on " + vdp.to_string());
  require(total_packets >= 0,
          "declare_input_packets: total must be >= 0 on " + vdp.to_string());
  v.declared_in_[in_slot] = total_packets;
}

void Vsa::connect(const Tuple& src, int out_slot, const Tuple& dst,
                  int in_slot, std::size_t max_bytes, bool enabled,
                  int capacity) {
  require(capacity >= 0, "connect: capacity must be >= 0 (0 = unbounded)");
  edges_.push_back(
      {src, out_slot, dst, in_slot, max_bytes, enabled, capacity});
}

void Vsa::feed(const Tuple& dst, int in_slot, std::size_t max_bytes,
               std::vector<Packet> initial, bool enabled, int capacity) {
  require(capacity >= 0, "feed: capacity must be >= 0 (0 = unbounded)");
  feeds_.push_back(
      {dst, in_slot, max_bytes, std::move(initial), enabled, capacity});
}

void Vsa::map_vdp(const Tuple& tuple, int global_thread) {
  explicit_map_[tuple] = global_thread;
}

void Vsa::set_default_mapping(std::function<int(const Tuple&)> fn) {
  default_map_ = std::move(fn);
}

// ---- wiring -----------------------------------------------------------------

void Vsa::validate_and_wire() {
  const int total = total_threads();

  // Assign VDPs to threads.
  int rr = 0;
  for (Vdp* v : creation_order_) {
    int t;
    if (auto it = explicit_map_.find(v->tuple_); it != explicit_map_.end()) {
      t = it->second;
    } else if (default_map_) {
      t = default_map_(v->tuple_);
    } else {
      t = rr++ % total;
    }
    require(t >= 0 && t < total,
            "mapping: thread out of range for VDP " + v->tuple_.to_string());
    v->global_thread_ = t;
  }

  // Create workers and nodes.
  workers_.clear();
  nodes_.clear();
  domains_.clear();
  for (int n = 0; n < cfg_.nodes; ++n) {
    auto node = std::make_unique<Node>();
    node->id = n;
    nodes_.push_back(std::move(node));
  }
  for (int t = 0; t < total; ++t) {
    auto w = std::make_unique<Worker>();
    w->global_id = t;
    w->node_id = t / cfg_.workers_per_node;
    w->local_id = t % cfg_.workers_per_node;
    // Placement domains: one per worker, or one per node under stealing.
    if (!cfg_.work_stealing || w->local_id == 0) {
      domains_.push_back(std::make_unique<Domain>());
    }
    w->domain = domains_.back().get();
    nodes_[w->node_id]->workers.push_back(w.get());
    workers_.push_back(std::move(w));
  }
  for (Vdp* v : creation_order_) {
    Domain& d = *workers_[v->global_thread_]->domain;
    d.vdps.push_back(v);
    d.alive.fetch_add(1, std::memory_order_relaxed);
  }

  auto find_vdp = [&](const Tuple& t, const char* what) -> Vdp& {
    auto it = vdps_.find(t);
    require(it != vdps_.end(),
            std::string(what) + ": unknown VDP " + t.to_string());
    return *it->second;
  };

  // Source feeds become prefilled input channels.
  for (auto& f : feeds_) {
    Vdp& dst = find_vdp(f.dst, "feed");
    require(f.in_slot >= 0 && f.in_slot < dst.num_inputs(),
            "feed: bad input slot on " + f.dst.to_string());
    require(dst.inputs_[f.in_slot] == nullptr,
            "feed: input slot already connected on " + f.dst.to_string());
    auto ch = std::make_unique<Channel>(f.max_bytes, f.enabled, f.capacity);
    for (auto& p : f.initial) ch->push(std::move(p));
    dst.inputs_[f.in_slot] = std::move(ch);
  }

  // Regular edges.
  std::map<std::pair<int, int>, int> next_tag;  // per (src node, dst node)
  for (auto& e : edges_) {
    Vdp& src = find_vdp(e.src, "connect(src)");
    Vdp& dst = find_vdp(e.dst, "connect(dst)");
    require(e.out_slot >= 0 && e.out_slot < src.num_outputs(),
            "connect: bad output slot on " + e.src.to_string());
    require(e.in_slot >= 0 && e.in_slot < dst.num_inputs(),
            "connect: bad input slot on " + e.dst.to_string());
    require(!src.outputs_[e.out_slot].connected,
            "connect: output slot already connected on " + e.src.to_string());
    require(dst.inputs_[e.in_slot] == nullptr,
            "connect: input slot already connected on " + e.dst.to_string());

    auto ch = std::make_unique<Channel>(e.max_bytes, e.enabled, e.capacity);
    Channel* chp = ch.get();
    dst.inputs_[e.in_slot] = std::move(ch);

    OutputRef& out = src.outputs_[e.out_slot];
    out.connected = true;
    out.max_bytes = e.max_bytes;
    const int src_node = src.global_thread_ / cfg_.workers_per_node;
    const int dst_node = dst.global_thread_ / cfg_.workers_per_node;
    if (src_node == dst_node) {
      out.local = chp;  // zero-copy shared-memory path
      if (chp->bounded()) src.gate_outputs_ = true;
    } else {
      const int tag = next_tag[{src_node, dst_node}]++;
      out.dst_node = dst_node;
      out.tag = tag;
      nodes_[dst_node]->route[route_key(src_node, tag)] = chp;
      nodes_[src_node]->has_remote = true;
      nodes_[dst_node]->has_remote = true;
    }
  }

  // Every slot must be connected; a dangling slot is a latent deadlock.
  for (Vdp* v : creation_order_) {
    for (int s = 0; s < v->num_inputs(); ++s) {
      require(v->inputs_[s] != nullptr, "run: unconnected input slot " +
                                            std::to_string(s) + " on VDP " +
                                            v->tuple_.to_string());
    }
    for (int s = 0; s < v->num_outputs(); ++s) {
      require(v->outputs_[s].connected, "run: unconnected output slot " +
                                            std::to_string(s) + " on VDP " +
                                            v->tuple_.to_string());
    }
    // Fail fast on a silently-blocked VDP: with every input channel
    // disabled from the start it is permanently un-ready (only its own
    // firing code could enable an input), yet it counts as alive and
    // would burn the whole watchdog timeout.
    if (v->num_inputs() > 0) {
      bool any_enabled = false;
      for (const auto& ch : v->inputs_) any_enabled |= ch->enabled();
      require(any_enabled, "run: every input channel of VDP " +
                               v->tuple_.to_string() +
                               " starts disabled; it can never fire");
    }
  }

  // Attach wakers now that ownership is final: a packet wakes the domain
  // that sweeps the destination VDP, and a pop on a bounded local channel
  // (backpressure liveness) wakes the producer's domain.
  for (Vdp* v : creation_order_) {
    Domain* d = workers_[v->global_thread_]->domain;
    for (auto& ch : v->inputs_) ch->set_waker(d);
    for (OutputRef& out : v->outputs_) {
      if (out.local != nullptr && out.local->bounded()) {
        out.local->set_pop_waker(d);
      }
    }
  }
}

// ---- packet routing ---------------------------------------------------------

void Vsa::push_from(VdpContext& ctx, int slot, Packet p) {
  Vdp& v = ctx.vdp;
  PQR_ASSERT(slot >= 0 && slot < v.num_outputs(), "push: bad output slot");
  OutputRef& out = v.outputs_[slot];
  PQR_ASSERT(out.connected, "push: unconnected output slot");
  PQR_ASSERT(p.size() <= out.max_bytes, "push: packet exceeds channel max");
  if (out.local != nullptr) {
    out.local->push(std::move(p));
    return;
  }
  // Inter-node: hand the packet to the node's outgoing queue and wake its
  // proxy through its mailbox (MPI-progress style).
  Node& n = *nodes_[ctx.node];
  {
    std::lock_guard<std::mutex> lock(n.omu);
    n.outq.push_back({out.dst_node, out.tag, std::move(p)});
  }
  comm_->interrupt(ctx.node);
}

void VdpContext::push(int slot, Packet p) {
  vsa.push_from(*this, slot, std::move(p));
}

// ---- execution --------------------------------------------------------------

void Vsa::fire(Vdp& v, Worker& w) {
  // Heartbeat -> odd: tells the watchdog a firing STARTED (and is still
  // in flight), so one kernel outliving watchdog_seconds is progress, not
  // a deadlock.
  w.fire_epoch.fetch_add(1, std::memory_order_relaxed);
  const double t0 = recorder_->now();
  VdpContext ctx{v, *this, w.node_id, w.global_id};
  v.fn_(ctx);
  --v.counter_;
  if (v.counter_ <= 0) {
    v.dead_.store(true, std::memory_order_release);
    v.local_.reset();
  }
  const double t1 = recorder_->now();
  w.busy += t1 - t0;
  recorder_->record(w.global_id, v.color_, v.tuple_, t0, t1);
  w.fire_epoch.fetch_add(1, std::memory_order_relaxed);  // back to even
  fires_.fetch_add(1, std::memory_order_relaxed);
}

void Vsa::worker_loop(Worker& w) {
  Domain& d = *w.domain;
  auto stop = [&] {
    return cancelled_.load(std::memory_order_relaxed) ||
           d.alive.load(std::memory_order_acquire) <= 0;
  };
  while (!stop()) {
    // Sample the wake epoch BEFORE the sweep: a packet arriving for a VDP
    // the sweep already passed bumps the epoch and voids the wait below.
    const std::uint64_t seen = d.wake_epoch.load(std::memory_order_acquire);
    bool fired = false;
    for (Vdp* v : d.vdps) {
      if (v->dead() || !v->ready()) continue;
      // The claim serializes a VDP's firings among the domain's workers.
      // A worker that loses it leaves v to the holder, which sweeps again
      // after releasing it and so sees whatever arrived meanwhile.
      if (v->running_.exchange(true, std::memory_order_acquire)) continue;
      bool died = false;
      while (!v->dead() && v->ready()) {
        fire(*v, w);
        fired = true;
        died = v->dead();
        if (cfg_.scheduling == Scheduling::Lazy) break;
      }
      v->running_.store(false, std::memory_order_release);
      if (died && d.alive.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        d.wake_all();  // the domain is done: release its idle workers
      }
      if (cancelled_.load(std::memory_order_relaxed)) break;
    }
    if (!fired) d.wait_for_wake(seen, spin_us_, stop);
  }
}

void Vsa::proxy_loop(Node& n) {
  // Reliable endpoint: proxy-local, created only when the protocol is on,
  // so the disabled fast path below is byte-for-byte the old raw-frame
  // proxy (the only addition is a null-pointer test per batch).
  std::unique_ptr<net::Reliable> rel;
  // Crash recovery is active only in socket node processes with a respawn
  // budget: the Reliable endpoint then retains acked frames for replay,
  // idles retransmits to dead peers instead of exhausting, and the proxy
  // fences stale incarnations + dedups a replacement's re-sent prefix.
  const bool recovery = sock_comm_ != nullptr && cfg_.max_respawns > 0;
  if (cfg_.reliable_transport) {
    net::Reliable::Params params;
    params.rto_us = cfg_.retransmit_timeout_us;
    params.max_retries = cfg_.max_retransmits;
    if (recovery) params.replay_log_bytes = cfg_.replay_log_bytes;
    rel = std::make_unique<net::Reliable>(*comm_, n.id, params);
    if (recovery) {
      // While a peer's process is down (EOF / write failure seen, no
      // replacement yet) retransmits to it are deferred, not charged
      // against the retry budget — the respawn window must not look like
      // a lossy link that exhausted.
      rel->set_link_up_probe(
          [this](int r) { return sock_comm_->peer_alive(r); });
    }
    if (recorder_->enabled()) {
      // Retransmissions show up as zero-width marks on the node's proxy
      // lane (lane total_threads()+node), tuple = (dst, tag, seq).
      rel->set_retransmit_hook([this, &n](int dst, int tag, long long seq) {
        recorder_->record_mark(total_threads() + n.id, trace::kColorTransport,
                               Tuple{dst, tag, static_cast<int>(seq)},
                               recorder_->now());
      });
    }
  }
  // Channel-level exactly-once bookkeeping for crash replay. Wire
  // sequence numbers cannot dedup a respawned peer's re-sent stream: the
  // replacement's workers interleave their channels differently, so its
  // frame k need not carry the same application frame as the dead
  // incarnation's frame k. What IS deterministic is the per-channel order
  // of application frames (single producer VDP, fixed firing order,
  // in-order delivery under Reliable) — so we count delivered frames per
  // (source node, tag) route and, at a rejoin, arrange to drop exactly the
  // already-delivered prefix of the replacement's fresh stream.
  std::unordered_map<std::uint64_t, long long> delivered;
  std::unordered_map<std::uint64_t, long long> replay_skip;
  auto should_deliver = [&](int src, int tag) {
    if (!recovery) return true;
    const std::uint64_t key = route_key(src, tag);
    if (auto it = replay_skip.find(key);
        it != replay_skip.end() && it->second > 0) {
      --it->second;
      return false;  // re-executed duplicate of a frame we already pushed
    }
    ++delivered[key];
    return true;
  };
  auto deliver = [&](net::Message& m) {
    if (!should_deliver(m.source, m.tag)) return;
    auto it = n.route.find(route_key(m.source, m.tag));
    PQR_ASSERT(it != n.route.end(), "proxy: unroutable message");
    // Adopt the transport's (pooled) buffer directly.
    m.payload.set_meta(m.meta);
    it->second->push(std::move(m.payload));
  };
  // Incoming frames pass through the protocol first (ack processing,
  // dedup, in-order reassembly); `inbox` holds what it cleared for
  // delivery. With the protocol off, frames go straight through.
  std::deque<net::Message> inbox;
  auto accept = [&](net::Message&& m) {
    // Fence frames from a dead incarnation of a respawned peer. They can
    // linger in socket buffers or our mailbox across the rejoin; a stale
    // cumulative ack in particular would trim frames the replay path just
    // requeued, deadlocking the replacement. The fence is applied here —
    // after the mailbox, before the protocol — because the rejoin install
    // happens on this same thread, so no frame can race past it.
    if (recovery && m.source != n.id &&
        m.epoch < sock_comm_->peer_epoch(m.source)) {
      return;
    }
    if (rel) {
      rel->on_receive(std::move(m), inbox);
    } else {
      inbox.push_back(std::move(m));
    }
  };
  auto deliver_inbox = [&] {
    while (!inbox.empty()) {
      deliver(inbox.front());
      inbox.pop_front();
    }
  };
  // ---- egress: one wire message per application frame ----
  using Clock = std::chrono::steady_clock;
  // Retransmit timers are armed only where a frame can be lost: under a
  // dropping fault plan, or with crash recovery (replay_link re-arms the
  // replayed frames' deadlines to now and relies on poll() to resend).
  // Both backends are ordered, reliable streams, and dup, delay and
  // reorder never lose a frame, so elsewhere a timeout could only resend
  // a frame that is already on its way.
  const bool timers = cfg_.fault_plan.drop > 0 || recovery;
  long long frames = 0, frame_bytes = 0;
  double busy = 0.0;
  auto send_one = [&](const OutMsg& m) {
    ++frames;
    frame_bytes += static_cast<long long>(m.p.size());
    if (rel) {
      rel->send(m.dst_node, m.tag, m.p, m.p.meta());
      return;
    }
    const int req = comm_->isend(n.id, m.dst_node, m.tag, m.p, m.p.meta());
    PQR_ASSERT(comm_->test(req), "proxy: isend did not complete");
  };

  std::deque<OutMsg> batch;
  for (;;) {
    const auto t0 = Clock::now();
    bool any = false;
    if (recovery) {
      // Install any peer rejoin queued by the control thread. This thread
      // owns the Reliable endpoint and the routes, so install + replay +
      // dedup snapshot are a single atomic step from the proxy's view.
      for (const auto& rj : sock_comm_->take_rejoins()) {
        any = true;
        sock_comm_->install_rejoin(rj);
        if (rel) {
          const long long nrep = rel->replay_link(rj.rank, Clock::now());
          if (nrep < 0) {
            // The replay log overflowed its byte budget before this crash:
            // part of the acked history is gone and the replacement can
            // never be made whole. Tear the run down with a transport
            // failure instead of silently wedging.
            cancel_run_from_transport();
          }
          rel->reset_recv_link(rj.rank);
        }
        // The replacement re-executes its node from the start: arrange to
        // drop the prefix of each of its channels that this node already
        // consumed (exactly-once at the channel level).
        for (const auto& [key, cnt] : delivered) {
          if (static_cast<int>(key >> 32) == rj.rank) replay_skip[key] = cnt;
        }
      }
    }
    // Batched outgoing drain: swap the node's whole queue out under one
    // lock instead of one lock round-trip per message, then send
    // lock-free.
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(n.omu);
      batch.swap(n.outq);
    }
    for (const OutMsg& m : batch) send_one(m);
    any |= !batch.empty();
    // Drain all queued incoming messages in one mailbox swap.
    for (auto& m : comm_->drain(n.id)) {
      accept(std::move(m));
      any = true;
    }
    deliver_inbox();
    if (rel) {
      rel->flush_acks();
      // Retransmit timed-out frames — but only while the run is live: a
      // completed or cancelled run must not ping-pong late frames between
      // exiting proxies, and a post-completion unacked frame (receiver
      // done, final ack lost) is not a failure.
      if (timers && !done_.load(std::memory_order_acquire) &&
          !cancelled_.load(std::memory_order_acquire) &&
          !rel->poll(Clock::now())) {
        cancel_run_from_transport();
      }
    }
    const bool winding_down = done_.load(std::memory_order_acquire) ||
                              cancelled_.load(std::memory_order_acquire);
    busy += std::chrono::duration<double>(Clock::now() - t0).count();
    if (winding_down) {
      if (!any) break;
      continue;
    }
    if (!any) {
      if (auto m = comm_->recv_wait(n.id, 200)) {
        const auto r0 = Clock::now();
        accept(std::move(*m));
        deliver_inbox();
        busy += std::chrono::duration<double>(Clock::now() - r0).count();
      }
    }
  }
  n.proxy_busy = busy;
  total_remote_msgs_.fetch_add(frames, std::memory_order_relaxed);
  total_remote_bytes_.fetch_add(frame_bytes, std::memory_order_relaxed);
  if (rel) {
    // Publish endpoint totals (and, on a failed run, link snapshots) for
    // RunStats / the RunReport; run() joins proxies before reading them.
    total_retransmits_.fetch_add(rel->retransmits(),
                                 std::memory_order_relaxed);
    total_dups_suppressed_.fetch_add(rel->duplicates_suppressed(),
                                     std::memory_order_relaxed);
    total_acks_sent_.fetch_add(rel->acks_sent(), std::memory_order_relaxed);
    total_replayed_.fetch_add(rel->replayed(), std::memory_order_relaxed);
    if (cancelled_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(fail_mu_);
      for (auto& g : rel->gaps()) link_gaps_.push_back(std::move(g));
    }
  }
}

void Vsa::wake_nodes() {
  for (Node* n : local_nodes_) {
    for (Worker* w : n->workers) w->domain->wake_all();
    comm_->interrupt(n->id);  // proxies blocked in recv_wait
  }
}

void Vsa::cancel() {
  cancelled_.store(true, std::memory_order_release);
  wake_nodes();
}

void Vsa::cancel_run_from_transport() {
  if (transport_failed_.exchange(true, std::memory_order_acq_rel)) return;
  cancel();
}

namespace {
std::string failure_header(const std::string& reason, const Vsa::Config& cfg) {
  if (reason == "transport") {
    return "PRT transport: reliable delivery failed (retransmit limit "
           "reached after " +
           std::to_string(cfg.max_retransmits) +
           " attempts); tearing the run down.\n";
  }
  if (reason == "watchdog") {
    return "PRT watchdog: no VDP fired for " +
           std::to_string(cfg.watchdog_seconds) +
           "s; the VSA is deadlocked.\n";
  }
  return "PRT socket transport: a node process exited without a report "
         "(crash or abort in a forked node) and the respawn budget was "
         "exhausted or recovery is off (Config::max_respawns); tearing the "
         "run down.\n";
}
}  // namespace

Vsa::RunStats Vsa::run() {
  require(!ran_, "run: VSA already ran");
  if (cfg_.graph_check) {
    const GraphReport report = GraphCheck::check(*this);
    if (!report.ok()) {
      throw Error(
          "GraphCheck: the VSA graph is malformed; aborting before "
          "execution (set Config::graph_check = false to bypass).\n" +
          report.to_string());
    }
  }
  // Marked only after the graph passes the check: a lint failure leaves
  // the object reporting the graph error again on retry, not a
  // misleading "already ran".
  ran_ = true;
  validate_and_wire();
  spin_us_ = cfg_.spin_us;
  if (spin_us_ < 0) {
    // Auto: spin only when every worker can have its own hardware thread;
    // on an oversubscribed machine an idle spinner just steals the core
    // from the worker that has the packet.
    const unsigned hw = std::thread::hardware_concurrency();
    spin_us_ = (hw != 0 && workers_.size() <= hw) ? 50 : 0;
  }
  if (cfg_.transport == Transport::Socket) return run_socket();

  comm_ = std::make_unique<net::MailboxComm>(cfg_.nodes);
  std::vector<int> all(cfg_.nodes);
  for (int r = 0; r < cfg_.nodes; ++r) all[r] = r;
  RunStats stats = run_nodes(all);
  if (cancelled_.load()) {
    // Workers and proxies are already joined: the teardown is complete
    // and the error below is the only thing that escapes.
    RunReport report = make_run_report();
    std::string header = failure_header(report.reason, cfg_);
    throw RunError(std::move(header), std::move(report));
  }
  return stats;
}

Vsa::RunStats Vsa::run_nodes(const std::vector<int>& ranks,
                             const NodeHooks& hooks) {
  if (cfg_.fault_plan.any()) comm_->set_fault_plan(cfg_.fault_plan);
  // Pool counters are process-global; snapshot them so RunStats reports
  // this run's delta (a warmed pool shows zero misses here).
  const PacketPool::Stats pool0 = PacketPool::stats();
  // One extra trace lane per node for its proxy (transport marks).
  recorder_ = std::make_unique<trace::Recorder>(total_threads(), cfg_.trace,
                                                cfg_.nodes);
  recorder_->start_clock();

  std::vector<Worker*> local;
  for (int r : ranks) {
    Node* n = nodes_[r].get();
    n->local = true;
    local_nodes_.push_back(n);
    local.insert(local.end(), n->workers.begin(), n->workers.end());
  }
  workers_running_.store(static_cast<int>(local.size()));
  const auto t_start = std::chrono::steady_clock::now();
  for (Worker* w : local) {
    w->thread = std::thread([this, w] {
      worker_loop(*w);
      if (workers_running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(loop_mu_);
        loop_cv_.notify_all();
      }
    });
  }
  for (Node* n : local_nodes_) {
    // With a respawn budget the proxy must exist even on a node with no
    // remote channels today: a rejoining replacement may need its acks
    // and replays served.
    if (n->has_remote || cfg_.max_respawns > 0) {
      n->proxy = std::thread([this, n] { proxy_loop(*n); });
    }
  }

  // Watchdog: progress is any completed fire, any fire START since the
  // last check, a firing currently in flight (odd per-worker heartbeat),
  // or whatever the transport's tick reports. A single kernel outliving
  // watchdog_seconds is therefore never a false deadlock; only "no VDP
  // can fire anywhere" trips it.
  long long last_fires = -1;
  std::vector<std::uint64_t> last_heartbeat(local.size(), 0);
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    bool running;
    {
      std::unique_lock<std::mutex> lock(loop_mu_);
      running = !loop_cv_.wait_for(lock, 1ms, [this] {
        return workers_running_.load(std::memory_order_acquire) == 0;
      });
    }
    bool progress = hooks.tick && hooks.tick();
    if (!running) break;
    const long long f = fires_.load(std::memory_order_relaxed);
    if (f != last_fires) {
      last_fires = f;
      progress = true;
    }
    for (std::size_t i = 0; i < local.size(); ++i) {
      const std::uint64_t hb =
          local[i]->fire_epoch.load(std::memory_order_relaxed);
      if (hb != last_heartbeat[i]) {
        last_heartbeat[i] = hb;
        progress = true;
      } else if ((hb & 1u) != 0) {
        progress = true;  // long-running firing still in flight
      }
    }
    if (progress) {
      last_progress = std::chrono::steady_clock::now();
    } else if (cfg_.watchdog_seconds > 0 &&
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             last_progress)
                       .count() > cfg_.watchdog_seconds) {
      cancelled_.store(true, std::memory_order_release);
      break;
    }
  }

  // Shut down: wake everything and join the workers, let the transport
  // settle, then stop the proxies.
  wake_nodes();
  for (Worker* w : local) w->thread.join();
  if (hooks.settle) hooks.settle();
  done_.store(true, std::memory_order_release);
  for (Node* n : local_nodes_) comm_->interrupt(n->id);
  for (Node* n : local_nodes_) {
    if (n->proxy.joinable()) n->proxy.join();
  }
  if (cancelled_.load()) return {};
  return node_stats(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t_start)
                        .count(),
                    pool0);
}

Vsa::RunStats Vsa::node_stats(double seconds,
                              const PacketPool::Stats& pool0) {
  RunStats s;
  s.seconds = seconds;
  s.fires = fires_.load();
  s.remote_messages = total_remote_msgs_.load(std::memory_order_relaxed);
  s.remote_bytes = total_remote_bytes_.load(std::memory_order_relaxed);
  s.wire_offered = comm_->messages_offered();
  s.wire_messages = comm_->messages_sent();
  s.wire_bytes = comm_->bytes_sent();
  s.fault_streams = static_cast<long long>(comm_->fault_streams());
  const PacketPool::Stats pool1 = PacketPool::stats();
  s.pool_hits = pool1.hits - pool0.hits;
  s.pool_misses = pool1.misses - pool0.misses;
  s.faults = comm_->fault_counters();
  s.retransmits = total_retransmits_.load(std::memory_order_relaxed);
  s.duplicates_suppressed =
      total_dups_suppressed_.load(std::memory_order_relaxed);
  s.acks_sent = total_acks_sent_.load(std::memory_order_relaxed);
  s.replayed_frames = total_replayed_.load(std::memory_order_relaxed);
  s.busy_per_thread.assign(total_threads(), 0.0);
  s.proxy_busy_per_node.assign(cfg_.nodes, 0.0);
  for (Node* n : local_nodes_) {
    for (Worker* w : n->workers) s.busy_per_thread[w->global_id] = w->busy;
    s.proxy_busy_per_node[n->id] = n->proxy_busy;
    while (auto m = comm_->try_recv(n->id)) {
      // Protocol frames lingering in a mailbox after a successful run
      // (late pure acks, retransmitted copies of already-delivered data)
      // are expected residue, not lost application packets.
      if (!m->is_ack && m->seq < 0) ++s.leftover_packets;
    }
  }
  for (Vdp* v : creation_order_) {
    if (!nodes_[v->global_thread_ / cfg_.workers_per_node]->local) continue;
    for (auto& ch : v->inputs_) s.leftover_packets += ch->size();
  }
  return s;
}

// ---- socket transport: one process per node ---------------------------------
//
// run_socket() forks after the graph is built and wired but before any
// thread exists, so every node process inherits an identical copy-on-write
// image of the VSA (VDPs, channels, feeds, globals). Each child runs ONLY
// its own node's workers and proxy over a SocketComm wired into a
// pre-opened socketpair mesh; the parent runs no VDPs at all — it is the
// control plane. Per-child results and stats travel back over a dedicated
// control socketpair as little-endian blobs (wire.hpp).
//
// Control protocol (child c <-> parent):
//   c -> p  'D'                    local workers finished cleanly
//   p -> c  'G'                    every node finished; tear down
//   p -> c  'C'                    another node failed; abandon the run
//   c -> p  'E' u64 len  blob      success epilogue (stats + app blob)
//   c -> p  'F' u64 len  blob      serialized RunReport (local failure)
// A child that gets 'C' (or loses the parent) exits silently with
// status 1; a child EOF without 'E'/'F' means it crashed outright.

namespace {

bool fd_send_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
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

bool fd_read_exact(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;  // EOF
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Bounded counterpart of fd_read_exact: poll before every recv and give
/// up (returning false) once `deadline` passes. Control-plane reads in
/// the parent must never block indefinitely on a wedged child — the
/// caller escalates to the SIGKILL backstop instead.
bool fd_read_deadline(int fd, void* buf, std::size_t n,
                      std::chrono::steady_clock::time_point deadline) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left < 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int pn = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                                       left, 100)));
    if (pn < 0 && errno != EINTR) return false;
    if (pn <= 0) continue;
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;  // EOF
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Read one control byte, keeping room for an SCM_RIGHTS descriptor: the
/// rejoin handshake rides its fd on the first byte of the 'R' message,
/// and a plain read() at that moment would silently discard it.
/// Returns 1 on success, 0 on EOF, -1 on error; *out_fd receives the
/// passed descriptor (or stays -1).
int ctl_read_byte(int fd, char* c, int* out_fd) {
  *out_fd = -1;
  iovec iov{c, 1};
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof cbuf;
  for (;;) {
    const ssize_t k = ::recvmsg(fd, &msg, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (k == 0) return 0;
    break;
  }
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS) {
      std::memcpy(out_fd, CMSG_DATA(cm), sizeof(int));
    }
  }
  return 1;
}

/// Send a small control message with one descriptor attached to its
/// first byte (SCM_RIGHTS). The kernel duplicates the fd into the
/// receiver at delivery, so the caller may close its copy on return.
bool ctl_send_fd(int fd, const std::byte* hdr, std::size_t n, int pass_fd) {
  iovec iov{const_cast<std::byte*>(hdr), n};
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  std::memset(cbuf, 0, sizeof cbuf);
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof cbuf;
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &pass_fd, sizeof(int));
  for (;;) {
    const ssize_t k = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // A socketpair takes the whole few-byte message atomically; finish a
    // (theoretical) short write without re-sending the ancillary data.
    if (static_cast<std::size_t>(k) < n) {
      return fd_send_all(fd, hdr + k, n - static_cast<std::size_t>(k));
    }
    return true;
  }
}

bool ctl_send_blob(int fd, char type, const net::wire::Blob& b) {
  std::byte hdr[9];
  hdr[0] = static_cast<std::byte>(type);
  net::wire::put_u64(hdr + 1, b.size());
  if (!fd_send_all(fd, hdr, sizeof hdr)) return false;
  return b.size() == 0 || fd_send_all(fd, b.data(), b.size());
}

void serialize_report(net::wire::Blob& b, const Vsa::RunReport& r) {
  b.str(r.reason);
  b.u32(static_cast<std::uint32_t>(r.stuck_vdps.size()));
  for (const auto& s : r.stuck_vdps) b.str(s);
  b.i32(r.vdps_alive);
  b.u32(static_cast<std::uint32_t>(r.links.size()));
  for (const auto& g : r.links) {
    b.i32(g.src);
    b.i32(g.dst);
    b.i64(g.next_seq);
    b.i64(g.acked);
    b.i64(g.expected);
    b.i32(g.unacked);
    b.i32(g.buffered_out_of_order);
    b.u32(g.exhausted ? 1 : 0);
    b.u32(static_cast<std::uint32_t>(g.pending_tags.size()));
    for (int t : g.pending_tags) b.i32(t);
  }
  b.i64(r.faults.dropped);
  b.i64(r.faults.duplicated);
  b.i64(r.faults.delayed);
  b.i64(r.faults.reordered);
  b.i64(r.retransmits);
  b.u32(static_cast<std::uint32_t>(r.dead_ranks.size()));
  for (int d : r.dead_ranks) b.i32(d);
}

Vsa::RunReport deserialize_report(const std::byte* p, std::size_t n) {
  net::wire::BlobReader br(p, n);
  Vsa::RunReport r;
  r.reason = br.str();
  const std::uint32_t ns = br.u32();
  for (std::uint32_t i = 0; i < ns; ++i) r.stuck_vdps.push_back(br.str());
  r.vdps_alive = br.i32();
  const std::uint32_t nl = br.u32();
  for (std::uint32_t i = 0; i < nl; ++i) {
    net::LinkGap g;
    g.src = br.i32();
    g.dst = br.i32();
    g.next_seq = br.i64();
    g.acked = br.i64();
    g.expected = br.i64();
    g.unacked = br.i32();
    g.buffered_out_of_order = br.i32();
    g.exhausted = br.u32() != 0;
    const std::uint32_t nt = br.u32();
    for (std::uint32_t t = 0; t < nt; ++t) g.pending_tags.push_back(br.i32());
    r.links.push_back(std::move(g));
  }
  r.faults.dropped = br.i64();
  r.faults.duplicated = br.i64();
  r.faults.delayed = br.i64();
  r.faults.reordered = br.i64();
  r.retransmits = br.i64();
  const std::uint32_t nd = br.u32();
  for (std::uint32_t i = 0; i < nd; ++i) r.dead_ranks.push_back(br.i32());
  return r;
}

/// Every RunStats counter a node set produces, listed once: the 'E'
/// epilogue codec and the parent's merge both walk this list, pairing
/// the fields of `a` and `b`. seconds (the parent times the whole run),
/// respawns and refired_fires (the parent's recovery accounting) are not
/// node counters and stay out.
template <class A, class B, class F>
void zip_counters(A& a, B& b, F&& f) {
  f(a.fires, b.fires);
  f(a.remote_messages, b.remote_messages);
  f(a.remote_bytes, b.remote_bytes);
  f(a.wire_offered, b.wire_offered);
  f(a.wire_messages, b.wire_messages);
  f(a.wire_bytes, b.wire_bytes);
  f(a.fault_streams, b.fault_streams);
  f(a.pool_hits, b.pool_hits);
  f(a.pool_misses, b.pool_misses);
  f(a.leftover_packets, b.leftover_packets);
  f(a.busy_per_thread, b.busy_per_thread);
  f(a.proxy_busy_per_node, b.proxy_busy_per_node);
  f(a.faults.dropped, b.faults.dropped);
  f(a.faults.duplicated, b.faults.duplicated);
  f(a.faults.delayed, b.faults.delayed);
  f(a.faults.reordered, b.faults.reordered);
  f(a.retransmits, b.retransmits);
  f(a.duplicates_suppressed, b.duplicates_suppressed);
  f(a.acks_sent, b.acks_sent);
  f(a.replayed_frames, b.replayed_frames);
}

void put(net::wire::Blob& b, long long v) { b.i64(v); }
void put(net::wire::Blob& b, const std::vector<double>& v) {
  b.u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) b.f64(x);
}
void get(net::wire::BlobReader& br, long long& v) { v = br.i64(); }
void get(net::wire::BlobReader& br, int& v) {
  v = static_cast<int>(br.i64());
}
void get(net::wire::BlobReader& br, std::vector<double>& v) {
  v.resize(br.u32());
  for (double& x : v) x = br.f64();
}
void add(long long& a, long long b) { a += b; }
void add(int& a, int b) { a += b; }
void add(std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "run: node stats span different arrays");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void encode_stats(net::wire::Blob& b, const Vsa::RunStats& s) {
  zip_counters(s, s, [&](const auto& x, const auto&) { put(b, x); });
}

Vsa::RunStats decode_stats(net::wire::BlobReader& br) {
  Vsa::RunStats s;
  zip_counters(s, s, [&](auto& x, auto&) { get(br, x); });
  return s;
}

/// Element-wise sum of one node set's stats into the whole run's.
void merge_stats(Vsa::RunStats& into, const Vsa::RunStats& part) {
  zip_counters(into, part, [](auto& x, const auto& y) { add(x, y); });
}


}  // namespace

void Vsa::child_main(int rank, std::vector<int> peer_fds, int control_fd,
                     std::uint32_t incarnation,
                     std::vector<std::uint32_t> peer_epochs) {
  auto sock_comm = std::make_unique<net::SocketComm>(
      cfg_.nodes, rank, std::move(peer_fds), incarnation,
      std::move(peer_epochs));
  net::SocketComm* sock = sock_comm.get();
  sock_comm_ = sock;
  comm_ = std::move(sock_comm);

  // Dispatch one pending control byte. Returns 0 when handled ('R'
  // rejoin, stray bytes), 1 on cancel ('C', EOF, parent death), 2 on 'G'.
  auto handle_ctl = [&]() -> int {
    char c = 0;
    int rfd = -1;
    const int k = ctl_read_byte(control_fd, &c, &rfd);
    if (k <= 0) {
      if (rfd >= 0) ::close(rfd);
      return 1;
    }
    if (c == 'R') {
      // Peer rejoin: the fresh socket fd rides the first byte of the
      // handshake (see wire::RejoinHdr). Queue it for the proxy thread.
      std::byte rest[net::wire::kRejoinBodyBytes];
      if (!fd_read_exact(control_fd, rest, sizeof rest)) {
        if (rfd >= 0) ::close(rfd);
        return 1;
      }
      const net::wire::RejoinHdr rj = net::wire::get_rejoin_body(rest);
      if (rfd >= 0 && rj.rank >= 0 && rj.rank < cfg_.nodes &&
          rj.rank != rank) {
        sock->rejoin_peer(rj.rank, rfd, rj.epoch);
      } else if (rfd >= 0) {
        ::close(rfd);
      }
      return 0;
    }
    if (rfd >= 0) ::close(rfd);
    if (c == 'G') return 2;
    return 1;  // 'C' or garbage: the run is over
  };
  // Liveness heartbeat to the parent (~5/s): its control plane SIGKILLs a
  // child it has not heard from in heartbeat_timeout_seconds.
  auto last_hb_sent = std::chrono::steady_clock::now();
  auto send_heartbeat = [&] {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_hb_sent < 200ms) return;
    last_hb_sent = now;
    const char h = 'H';
    (void)fd_send_all(control_fd, &h, 1);
  };

  NodeHooks hooks;
  long long last_rx = -1;
  hooks.tick = [&] {
    pollfd pfd{control_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0 &&
        (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        handle_ctl() == 1) {
      cancel();  // the parent called the run off
    }
    send_heartbeat();
    if (incarnation == 0 && cfg_.fault_plan.kill() &&
        cfg_.fault_plan.kill_rank == rank &&
        fires_.load(std::memory_order_relaxed) >= cfg_.fault_plan.kill_after) {
      // Injected crash: die exactly as a real segfault/OOM-kill would —
      // no unwinding, no 'F' report, sockets torn down by the kernel.
      // Only the first incarnation self-destructs, or the respawn loop
      // would never converge.
      ::kill(::getpid(), SIGKILL);
    }
    // A frame accepted off the wire is progress: a node whose VDPs all
    // wait on remote input is not deadlocked while its peers talk to it.
    const long long rx = sock->frames_received();
    const bool progress = rx != last_rx;
    last_rx = rx;
    return progress;
  };
  bool ok = false;
  hooks.settle = [&] {
    // Local workers done. Keep the proxy alive (late acks, retransmits for
    // peers still running) until the parent declares the whole run over.
    ok = !cancelled_.load(std::memory_order_acquire);
    if (ok) {
      const char d = 'D';
      ok = fd_send_all(control_fd, &d, 1);
    }
    while (ok) {
      if (cancelled_.load(std::memory_order_acquire)) {
        // Transport failure surfaced while waiting (exhausted retransmits
        // to a peer): downgrade to the failure path.
        ok = false;
        break;
      }
      send_heartbeat();
      pollfd pfd{control_fd, POLLIN, 0};
      const int pn = ::poll(&pfd, 1, /*ms=*/10);
      if (pn < 0 && errno != EINTR) {
        ok = false;
        break;
      }
      if (pn <= 0) continue;
      const int verdict = handle_ctl();
      if (verdict == 1) {
        ok = false;
        cancelled_.store(true, std::memory_order_release);
        break;
      }
      if (verdict == 2) break;  // 'G': every node is done
    }
  };
  const RunStats stats = run_nodes({rank}, hooks);

  if (!ok) {
    // Always ship the local report — even when the parent initiated the
    // cancel. When a sibling process crashed, the survivors' link gaps
    // (who was mid-flight to the dead rank, and how far behind) are the
    // most useful part of the final diagnostic; the parent merges them.
    net::wire::Blob b;
    serialize_report(b, make_run_report(rank));
    (void)ctl_send_blob(control_fd, 'F', b);
    comm_.reset();  // join the receiver thread before exiting
    ::_exit(1);
  }

  // Success epilogue: this node's stats, the application blob (collect
  // hook) for the parent to merge, which incarnation finished, and (when
  // tracing) the local events with this process's clock epoch so the
  // parent can offset-align them onto one timeline.
  net::wire::Blob b;
  encode_stats(b, stats);
  if (collect_hook_) {
    const Packet app = collect_hook_();
    b.u64(app.size());
    if (app.size() > 0) b.bytes(app.bytes(), app.size());
  } else {
    b.u64(0);
  }
  b.u32(incarnation);
  b.i64(recorder_->epoch_ns());
  const std::vector<trace::Event> events =
      cfg_.trace ? recorder_->collect() : std::vector<trace::Event>{};
  b.u64(events.size());
  for (const trace::Event& ev : events) {
    b.i32(ev.thread);
    b.i32(ev.color);
    b.u32(static_cast<std::uint32_t>(ev.tuple.size()));
    for (int x : ev.tuple.values()) b.i32(x);
    b.f64(ev.t0);
    b.f64(ev.t1);
  }
  (void)ctl_send_blob(control_fd, 'E', b);
  comm_.reset();  // join the receiver thread before exiting
  ::_exit(0);
}

Vsa::RunStats Vsa::run_socket() {
  const int N = cfg_.nodes;
  // The parent's recorder is purely a merge target: children ship their
  // events home in the 'E' epilogue together with their clock epoch, and
  // the parent offset-aligns them onto this recorder's timeline (Linux
  // CLOCK_MONOTONIC is machine-wide, so epochs are directly comparable).
  recorder_ = std::make_unique<trace::Recorder>(total_threads(), cfg_.trace,
                                                cfg_.nodes);
  recorder_->start_clock();
  auto mesh = net::SocketComm::socketpair_mesh(N);
  std::vector<int> ctl_parent(N, -1), ctl_child(N, -1);
  for (int r = 0; r < N; ++r) {
    int sv[2];
    require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
            "run: control socketpair failed: " +
                std::string(std::strerror(errno)));
    ctl_parent[r] = sv[0];
    ctl_child[r] = sv[1];
  }

  const auto t_start = std::chrono::steady_clock::now();
  std::vector<pid_t> pids(N, -1);
  std::vector<std::uint32_t> incarnation(N, 0);
  for (int r = 0; r < N; ++r) {
    const pid_t pid = ::fork();
    require(pid >= 0,
            "run: fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      // Node process r: drop every inherited fd that is not ours (other
      // ranks' mesh rows, their control ends, all parent control ends).
      for (int a = 0; a < N; ++a) {
        if (a == r) continue;
        for (int bfd : mesh[a]) {
          if (bfd >= 0) ::close(bfd);
        }
      }
      for (int s = 0; s < N; ++s) {
        if (ctl_parent[s] >= 0) ::close(ctl_parent[s]);
        if (s != r && ctl_child[s] >= 0) ::close(ctl_child[s]);
      }
      child_main(r, std::move(mesh[r]), ctl_child[r], /*incarnation=*/0,
                 std::vector<std::uint32_t>(N, 0));  // never returns
    }
    pids[r] = pid;
  }
  for (auto& row : mesh) {
    for (int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }
  for (int r = 0; r < N; ++r) ::close(ctl_child[r]);

  // Control plane: collect 'D' from everyone, broadcast 'G', collect
  // epilogues. A child that dies without a report (EOF, SIGKILL,
  // heartbeat silence) is respawned from this process's pristine
  // pre-thread image while the respawn budget lasts; otherwise — and on
  // any 'F' — broadcast 'C' and re-throw the merged failure after
  // reaping every child.
  enum ChildState { kRunning, kDone, kEnded, kFailed };
  std::vector<int> state(N, kRunning);
  std::vector<std::vector<std::byte>> epilogue(N);
  std::vector<char> reaped(N, 0);
  bool go_sent = false, cancel_sent = false, failed = false;
  int respawns_used = 0;
  RunReport fail_report;
  const bool bounded = cfg_.watchdog_seconds > 0;
  // Generous backstop over the children's own watchdogs: if it trips,
  // a child is wedged beyond reporting (SIGKILL is all that is left).
  const auto kill_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cfg_.watchdog_seconds + 120.0));
  // Per-child liveness: children heartbeat ('H') about five times a
  // second; silence past this deadline means a wedged (not merely slow —
  // the heartbeat loop runs regardless of kernel durations) process and
  // is escalated to SIGKILL, which then takes the dead-child path below.
  const bool hb_bounded = cfg_.heartbeat_timeout_seconds > 0;
  const auto hb_timeout =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              hb_bounded ? cfg_.heartbeat_timeout_seconds : 0.0));
  std::vector<std::chrono::steady_clock::time_point> last_heard(
      N, std::chrono::steady_clock::now());
  auto fail_with = [&](RunReport r) {
    if (!failed) {
      failed = true;
      fail_report = std::move(r);
      return;
    }
    // Later reports refine rather than replace the first: survivors' link
    // gaps and any additional dead ranks accumulate onto it.
    for (auto& g : r.links) fail_report.links.push_back(std::move(g));
    for (int d : r.dead_ranks) {
      if (std::find(fail_report.dead_ranks.begin(),
                    fail_report.dead_ranks.end(),
                    d) == fail_report.dead_ranks.end()) {
        fail_report.dead_ranks.push_back(d);
      }
    }
  };
  auto read_blob = [&](int fd, std::vector<std::byte>& out) {
    // Bounded: a child wedged mid-blob must not hang the control plane
    // past the liveness deadline it would otherwise be judged by.
    const auto deadline =
        std::chrono::steady_clock::now() +
        (hb_bounded ? hb_timeout
                    : std::chrono::steady_clock::duration(
                          std::chrono::hours(24)));
    std::byte len8[8];
    if (!fd_read_deadline(fd, len8, 8, deadline)) return false;
    const std::uint64_t len = net::wire::get_u64(len8);
    out.resize(len);
    return len == 0 || fd_read_deadline(fd, out.data(), len, deadline);
  };

  auto respawn = [&](int r) {
    ++respawns_used;
    ++incarnation[r];
    // Fresh socketpairs replacement <-> every survivor plus a new control
    // pair; the old descriptors died with the old process.
    std::vector<int> child_row(N, -1);
    std::vector<int> surv_fd(N, -1);
    for (int s = 0; s < N; ++s) {
      if (s == r) continue;
      int sv[2];
      require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
              "run: respawn socketpair failed: " +
                  std::string(std::strerror(errno)));
      child_row[s] = sv[0];
      surv_fd[s] = sv[1];
    }
    int ctl[2];
    require(::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl) == 0,
            "run: respawn control socketpair failed: " +
                std::string(std::strerror(errno)));
    // The parent runs no threads, so fork here is as safe as the initial
    // fork loop: the replacement inherits the same pristine
    // copy-on-write image of the unrun graph (VDPs, channels, feeds) and
    // will re-fire its node from the start.
    const pid_t pid = ::fork();
    require(pid >= 0,
            "run: respawn fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      for (int s = 0; s < N; ++s) {
        if (surv_fd[s] >= 0) ::close(surv_fd[s]);
        if (ctl_parent[s] >= 0) ::close(ctl_parent[s]);
      }
      ::close(ctl[0]);
      child_main(r, std::move(child_row), ctl[1], incarnation[r],
                 incarnation);  // never returns
    }
    pids[r] = pid;
    reaped[r] = 0;
    ctl_parent[r] = ctl[0];
    ::close(ctl[1]);
    for (int s = 0; s < N; ++s) {
      if (child_row[s] >= 0) ::close(child_row[s]);
    }
    // Hand every survivor its end of the fresh link: a wire::RejoinHdr
    // with the descriptor riding the first byte (SCM_RIGHTS duplicates
    // it into the survivor at delivery, so our copy closes).
    for (int s = 0; s < N; ++s) {
      if (surv_fd[s] < 0) continue;
      std::byte hdr[net::wire::kRejoinHdrBytes];
      net::wire::put_rejoin_hdr(
          hdr, net::wire::RejoinHdr{r, incarnation[r]});
      if (state[s] != kFailed && ctl_parent[s] >= 0) {
        (void)ctl_send_fd(ctl_parent[s], hdr, sizeof hdr, surv_fd[s]);
      }
      ::close(surv_fd[s]);
    }
    // The replacement must re-finish its node: re-gate 'G' on it.
    state[r] = kRunning;
    last_heard[r] = std::chrono::steady_clock::now();
  };

  auto handle_child_death = [&](int r) {
    if (!reaped[r]) {
      int st = 0;
      ::waitpid(pids[r], &st, 0);
      reaped[r] = 1;
    }
    if (ctl_parent[r] >= 0) {
      ::close(ctl_parent[r]);
      ctl_parent[r] = -1;
    }
    if (state[r] == kEnded) return;  // epilogue already delivered
    if (!failed && !go_sent && respawns_used < cfg_.max_respawns) {
      respawn(r);
      return;
    }
    // No budget left, or the run is past the point of recovery (once 'G'
    // is out, survivors tear their protocol state down and the dead
    // rank's epilogue may be gone with it): structured failure naming
    // the dead rank and — from this process's pristine image — the VDP
    // tuples that died with it.
    state[r] = kFailed;
    RunReport rep = make_run_report(r);
    rep.reason = "process";
    rep.dead_ranks.push_back(r);
    fail_with(std::move(rep));
  };

  for (;;) {
    int terminal = 0;
    bool all_past_running = true;
    for (int r = 0; r < N; ++r) {
      if (state[r] == kEnded || state[r] == kFailed) ++terminal;
      if (state[r] == kRunning) all_past_running = false;
    }
    if (terminal == N) break;
    if (failed && !cancel_sent) {
      const char c = 'C';
      for (int r = 0; r < N; ++r) {
        if (state[r] == kRunning || state[r] == kDone) {
          (void)fd_send_all(ctl_parent[r], &c, 1);
        }
      }
      cancel_sent = true;
    }
    if (!go_sent && !failed && all_past_running) {
      const char g = 'G';
      for (int r = 0; r < N; ++r) (void)fd_send_all(ctl_parent[r], &g, 1);
      go_sent = true;
    }

    std::vector<pollfd> pfds;
    std::vector<int> owners;
    for (int r = 0; r < N; ++r) {
      if (state[r] == kEnded || state[r] == kFailed) continue;
      pfds.push_back({ctl_parent[r], POLLIN, 0});
      owners.push_back(r);
    }
    const int pn = ::poll(pfds.data(), pfds.size(), /*ms=*/100);
    const auto now = std::chrono::steady_clock::now();
    if (bounded && now > kill_deadline) {
      for (int r = 0; r < N; ++r) {
        if (!reaped[r]) ::kill(pids[r], SIGKILL);
      }
      for (int r = 0; r < N; ++r) {
        if (!reaped[r]) {
          int st = 0;
          ::waitpid(pids[r], &st, 0);
        }
        if (ctl_parent[r] >= 0) ::close(ctl_parent[r]);
      }
      throw RunError(
          "PRT socket transport: node processes stopped responding; "
          "killed.\n",
          make_run_report());
    }
    // Heartbeat deadline: a child silent past the timeout is wedged.
    // SIGKILL it and take the normal dead-child path (respawn or fail).
    if (hb_bounded) {
      for (int r = 0; r < N; ++r) {
        if (state[r] == kEnded || state[r] == kFailed) continue;
        if (now - last_heard[r] > hb_timeout) {
          ::kill(pids[r], SIGKILL);
          handle_child_death(r);
        }
      }
    }
    if (pn <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int r = owners[i];
      // Skip entries whose fd was closed or replaced since the poll (a
      // heartbeat kill or an earlier death in this same sweep respawned
      // the rank): the snapshot no longer describes this child.
      if (ctl_parent[r] != pfds[i].fd) continue;
      char t = 0;
      if (!fd_read_exact(pfds[i].fd, &t, 1)) {
        handle_child_death(r);  // EOF without 'E'/'F': crashed outright
        continue;
      }
      last_heard[r] = std::chrono::steady_clock::now();
      if (t == 'H') {
        // Liveness heartbeat only.
      } else if (t == 'D') {
        state[r] = kDone;
      } else if (t == 'E') {
        if (read_blob(pfds[i].fd, epilogue[r])) {
          state[r] = kEnded;
        } else {
          ::kill(pids[r], SIGKILL);
          handle_child_death(r);
        }
      } else if (t == 'F') {
        std::vector<std::byte> blob;
        state[r] = kFailed;
        if (read_blob(pfds[i].fd, blob)) {
          fail_with(deserialize_report(blob.data(), blob.size()));
        } else {
          RunReport rep;
          rep.reason = "process";
          fail_with(std::move(rep));
        }
      } else {
        // Protocol violation: treat it as a crash of the child.
        ::kill(pids[r], SIGKILL);
        handle_child_death(r);
      }
    }
  }

  for (int r = 0; r < N; ++r) {
    if (!reaped[r]) {
      int st = 0;
      ::waitpid(pids[r], &st, 0);
    }
    if (ctl_parent[r] >= 0) ::close(ctl_parent[r]);
  }
  if (failed) {
    // Header first: argument evaluation is unsequenced, so reading
    // fail_report.reason inline could see the already-moved-from report.
    std::string header = failure_header(fail_report.reason, cfg_);
    throw RunError(std::move(header), std::move(fail_report));
  }

  RunStats stats;
  stats.respawns = respawns_used;
  stats.busy_per_thread.assign(total_threads(), 0.0);
  stats.proxy_busy_per_node.assign(N, 0.0);
  const std::int64_t parent_epoch_ns = recorder_->epoch_ns();
  for (int r = 0; r < N; ++r) {
    net::wire::BlobReader br(epilogue[r].data(), epilogue[r].size());
    const RunStats part = decode_stats(br);
    merge_stats(stats, part);
    const std::uint64_t app_len = br.u64();
    Packet app;
    if (app_len > 0) {
      app = Packet::make(app_len);
      std::memcpy(app.bytes(), br.take(app_len), app_len);
    }
    if (merge_hook_) merge_hook_(r, app);
    if (br.u32() > 0) stats.refired_fires += part.fires;  // a respawn
    // The child's events, offset-aligned onto the parent's clock so the
    // merged timeline is coherent across processes.
    const std::int64_t child_epoch_ns = br.i64();
    const double off =
        static_cast<double>(child_epoch_ns - parent_epoch_ns) * 1e-9;
    const std::uint64_t nev = br.u64();
    for (std::uint64_t e = 0; e < nev; ++e) {
      trace::Event ev;
      ev.thread = br.i32();
      ev.color = br.i32();
      const std::uint32_t tn = br.u32();
      std::vector<int> vals(tn);
      for (std::uint32_t x = 0; x < tn; ++x) vals[x] = br.i32();
      ev.tuple = Tuple(std::move(vals));
      ev.t0 = br.f64() + off;
      ev.t1 = br.f64() + off;
      recorder_->inject(ev);
    }
  }
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return stats;
}

Vsa::RunReport Vsa::make_run_report(int only_node) const {
  RunReport r;
  r.reason = transport_failed_.load(std::memory_order_acquire) ? "transport"
                                                               : "watchdog";
  int shown = 0;
  for (const Vdp* v : creation_order_) {
    if (only_node >= 0 &&
        v->global_thread_ / cfg_.workers_per_node != only_node) {
      continue;
    }
    if (v->dead()) continue;
    ++r.vdps_alive;
    if (shown >= 20) continue;
    ++shown;
    r.stuck_vdps.push_back("VDP " + v->tuple_.to_string() +
                           " counter=" + std::to_string(v->counter_) +
                           " inputs=" + describe_input_slots(*v));
  }
  // comm_ is null in the socket-transport parent (the control plane never
  // opens a communicator); its report carries no fault totals.
  if (comm_) r.faults = comm_->fault_counters();
  r.retransmits = total_retransmits_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(fail_mu_);
    for (const auto& g : link_gaps_) {
      // Keep only links with something actually in flight or broken —
      // naming every idle link would bury the culprit.
      const bool sender_stuck = g.next_seq >= 0 && (g.unacked > 0 || g.exhausted);
      const bool receiver_stuck = g.expected >= 0 && g.buffered_out_of_order > 0;
      if (sender_stuck || receiver_stuck) r.links.push_back(g);
    }
  }
  return r;
}

std::string Vsa::RunReport::to_string() const {
  std::ostringstream os;
  if (!dead_ranks.empty()) {
    os << "  dead node processes:";
    for (int r : dead_ranks) os << ' ' << r;
    os << '\n';
  }
  for (const std::string& line : stuck_vdps) os << "  " << line << '\n';
  os << "  (" << vdps_alive << " VDPs still alive)";
  for (const auto& g : links) os << "\n  " << g.to_string();
  if (faults.total() > 0) {
    os << "\n  injected faults: dropped=" << faults.dropped
       << " duplicated=" << faults.duplicated << " delayed=" << faults.delayed
       << " reordered=" << faults.reordered;
  }
  if (retransmits > 0) os << "\n  retransmits=" << retransmits;
  return os.str();
}

}  // namespace pulsarqr::prt
