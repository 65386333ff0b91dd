// Virtual Systolic Array + the PULSAR Runtime (PRT) execution engine
// (Section IV of the paper).
//
// The VSA is built once (VDPs + channels + an optional feed of initial
// packets), then run() maps VDPs onto virtual nodes and worker threads,
// spawns one proxy thread per node for inter-node traffic (served by the
// prt::net loopback transport — the MPI substitution), and executes until
// every VDP's counter reaches zero.
#pragma once

#include <any>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "prt/packet_pool.hpp"
#include "prt/trace.hpp"
#include "prt/transport.hpp"
#include "prt/vdp.hpp"

namespace pulsarqr::prt {

namespace net {
class SocketComm;
}

/// Lazy fires a ready VDP once then moves on (encourages lookahead; the
/// paper's best scheme for tree QR); Aggressive re-fires while ready.
enum class Scheduling { Lazy, Aggressive };

/// Which transport backend carries inter-node traffic (paper §IV-B).
/// InProcess: every node is a thread group in this process and frames
/// move through per-rank mailboxes (net::MailboxComm). Socket: run()
/// forks one real OS process per node and frames cross Unix-domain
/// stream sockets (net::SocketComm) — real address-space isolation,
/// selectable per run with no change to the VSA graph.
enum class Transport { InProcess, Socket };

class Vsa {
 public:
  /// Runtime options shared by every front-end: the algorithm drivers'
  /// option structs derive from this and add only their own fields.
  struct Config {
    int nodes = 1;
    int workers_per_node = 2;
    Scheduling scheduling = Scheduling::Lazy;
    /// Placement domain of the worker sweep (Section II of the paper
    /// invites comparing runtimes). Off: each worker sweeps only the VDPs
    /// bound to it (the paper's static VDP->thread binding). On: a node's
    /// workers all sweep one list of every VDP on the node, and a
    /// per-VDP claim keeps each VDP's firings serial. The VDP->node
    /// placement (and hence all inter-node channels) is unchanged —
    /// stealing cannot cross address spaces.
    bool work_stealing = false;
    bool trace = false;
    /// Abort the run (with a stuck-VDP diagnostic) if no VDP fires for
    /// this long. 0 disables the watchdog.
    double watchdog_seconds = 60.0;
    /// Microseconds an idle worker spins on its atomic wake flag before
    /// parking on the condition variable (adaptive spin-then-park). The
    /// spin keeps fine-grained small-nb pipelines out of the kernel; the
    /// park keeps idle workers off the CPU. 0 parks immediately; negative
    /// selects automatically — 50 when the machine has a hardware thread
    /// per worker, 0 when oversubscribed (spinning on a shared core only
    /// steals time from the worker holding the packet).
    int spin_us = -1;
    /// Run prt::GraphCheck over the constructed graph at the top of
    /// run() and throw (before spawning any thread) if it finds an
    /// error-severity diagnostic — turning wiring and packet-balance bugs
    /// from watchdog timeouts into immediate, named failures. Opt out for
    /// graphs that intentionally violate the static model (e.g. VDPs
    /// whose packet flow cannot be declared).
    bool graph_check = true;
    /// Layer the sequence-numbered ack/retransmit protocol over the
    /// inter-node transport (per-(src,dst) monotone sequence numbers,
    /// cumulative acks piggybacked on traffic, retransmit with exponential
    /// backoff, duplicate suppression). Off by default: the fast path is
    /// untouched when disabled — proxies send raw frames exactly as
    /// before. Required for correct completion under a lossy fault_plan.
    /// Retransmit timers are armed only where a frame can be lost: when
    /// fault_plan.drop > 0 or crash recovery is active (max_respawns > 0).
    /// Both backends are ordered, reliable streams, and dup, delay and
    /// reorder never lose a frame, so elsewhere the protocol only
    /// sequences, acks and deduplicates.
    bool reliable_transport = false;
    /// Deterministic fault injection applied to every inter-node frame
    /// (including protocol acks and retransmissions). A default
    /// (all-zero) plan leaves the transport untouched.
    net::FaultPlan fault_plan;
    /// Initial retransmit timeout of the reliable protocol; doubles per
    /// retry (exponential backoff). Only read where retransmit timers are
    /// armed (see reliable_transport).
    int retransmit_timeout_us = 2000;
    /// Retransmissions per frame before the link is declared failed and
    /// the run torn down with a RunError.
    int max_retransmits = 10;
    /// Transport backend for inter-node traffic (see prt::Transport).
    /// Socket mode forks one process per node at run(); for results to
    /// reach the parent it needs process hooks (set_process_hooks) or
    /// side effects written to files. With trace on, each child ships
    /// its events home in the run epilogue and the parent merges them
    /// into one clock-aligned timeline.
    Transport transport = Transport::InProcess;
    /// Crash recovery (Socket transport only; requires
    /// reliable_transport). How many dead node processes the parent may
    /// replace over the whole run: a dead child (EOF, SIGKILL, heartbeat
    /// timeout) is respawned from the pristine pre-fork image with a
    /// bumped incarnation epoch, survivors replay their retained frame
    /// history to it, and it re-fires its VDPs from scratch. 0 (the
    /// default) keeps today's behavior — any child death fails the run
    /// with a structured RunError naming the dead rank.
    int max_respawns = 0;
    /// Per-destination byte budget of acked frames each survivor retains
    /// for crash replay (only when max_respawns > 0). An eviction that a
    /// later replay would have needed fails the run instead of silently
    /// losing frames.
    std::size_t replay_log_bytes = 64 * 1024 * 1024;
    /// Parent-side liveness deadline: a child that sends neither a
    /// heartbeat nor a control byte for this long is declared dead
    /// (SIGKILLed and, budget permitting, respawned). Also bounds every
    /// parent control-plane read — a child hung before its first
    /// heartbeat can no longer stall the parent forever.
    double heartbeat_timeout_seconds = 10.0;

    /// Throw Error naming the first field with an invalid value (Vsa's
    /// constructor calls this; front-ends may call it before any work).
    void validate() const;
  };

  struct RunStats {
    double seconds = 0.0;
    long long fires = 0;
    /// Application frames crossing node boundaries (counted by the sending
    /// proxies) and their payload bytes.
    long long remote_messages = 0;
    long long remote_bytes = 0;
    /// What actually hit the wire: every application frame is its own
    /// wire message, so wire_messages == remote_messages plus protocol
    /// acks and retransmissions. wire_offered counts isend calls accepted
    /// from callers BEFORE the fault plan decided their fate; under chaos
    /// the accounting invariant wire_messages == wire_offered -
    /// faults.dropped + faults.duplicated holds (absent cancels).
    long long wire_offered = 0;
    long long wire_messages = 0;
    long long wire_bytes = 0;
    /// Distinct (src, dst, tag) fault streams tracked by the oracle under
    /// the current plan — bounded by the run's topology and reset per
    /// plan install (debug visibility for the stream-counter map).
    long long fault_streams = 0;
    /// Always 0: every inter-node frame is its own wire message. Kept
    /// only because the perfbench layer harness still reads it; it is
    /// neither carried in the node stats codec nor merged.
    long long coalesced_frames = 0;
    // Packet-pool health for this run (steady state: misses stop growing).
    long long pool_hits = 0;
    long long pool_misses = 0;
    int leftover_packets = 0;
    std::vector<double> busy_per_thread;
    /// Seconds each node's proxy spent doing transport work (sending,
    /// draining, routing) — the runtime's communication cost.
    std::vector<double> proxy_busy_per_node;
    // Transport health (all zero on a clean, fault-free run).
    net::FaultCounters faults;           ///< injected by Config::fault_plan
    long long retransmits = 0;           ///< frames re-sent by the protocol
    long long duplicates_suppressed = 0; ///< frames deduplicated on receive
    long long acks_sent = 0;             ///< pure (non-piggybacked) acks
    // Crash recovery (all zero on a run with no process deaths).
    long long respawns = 0;          ///< node processes replaced mid-run
    long long replayed_frames = 0;   ///< frames survivors requeued for replay
    long long refired_fires = 0;     ///< VDP firings of respawned incarnations
  };

  /// Structured diagnosis attached to a RunError: what was stuck and why,
  /// in machine-readable form (the what() string renders the same data).
  struct RunReport {
    std::string reason;  ///< "watchdog", "transport" or "process"
    std::vector<std::string> stuck_vdps;  ///< tuple/counter/input-slot lines
    int vdps_alive = 0;
    std::vector<net::LinkGap> links;  ///< in-flight sequence gaps per link
    net::FaultCounters faults;
    long long retransmits = 0;
    /// Socket transport: ranks whose process died without a clean exit
    /// (and, with recovery off or exhausted, killed the run).
    std::vector<int> dead_ranks;
    std::string to_string() const;
  };

  /// Thrown by run() on watchdog expiry or reliable-transport failure
  /// AFTER workers and proxies have been joined — the process is left
  /// clean (no detached threads, no leaked packets), and report() names
  /// the stuck VDPs, the affected (src,dst,tag) streams, and the injected
  /// fault totals.
  class RunError : public Error {
   public:
    RunError(const std::string& header, RunReport report)
        : Error(header + report.to_string()), report_(std::move(report)) {}
    const RunReport& report() const { return report_; }

   private:
    RunReport report_;
  };

  explicit Vsa(Config cfg);
  ~Vsa();

  Vsa(const Vsa&) = delete;
  Vsa& operator=(const Vsa&) = delete;

  const Config& config() const { return cfg_; }
  int total_threads() const { return cfg_.nodes * cfg_.workers_per_node; }

  /// prt_vdp_new + prt_vsa_vdp_insert: register a VDP. `color` classifies
  /// firings for tracing (QR: 0 = flat factor, 1 = update, 2 = binary).
  /// `outputs_per_fire` is a packet-balance hint for GraphCheck: how many
  /// packets each connected output slot emits per firing (uniform across
  /// slots; use declare_output_packets for per-slot totals).
  Vdp& add_vdp(Tuple tuple, int counter, VdpFn fn, int num_inputs,
               int num_outputs, int color = 0, int outputs_per_fire = 1);

  /// GraphCheck balance declarations for VDPs whose packet flow is not
  /// one-per-firing: the total number of packets the VDP will push on
  /// `out_slot` (resp. pop from `in_slot`) over its whole lifetime.
  void declare_output_packets(const Tuple& vdp, int out_slot,
                              long long total_packets);
  void declare_input_packets(const Tuple& vdp, int in_slot,
                             long long total_packets);

  /// prt_channel_new + channel_insert on both endpoints: connect output
  /// slot `out_slot` of `src` to input slot `in_slot` of `dst`. Channels
  /// may start disabled and be enabled from VDP code at runtime.
  ///
  /// `capacity` bounds the channel's resident packets (0 = unbounded, the
  /// default). A bounded intra-node channel backpressures its producer:
  /// the producer's firing rule stalls while the channel is full and
  /// resumes when the consumer pops. GraphCheck's flow analysis verifies
  /// statically that declared bounds cannot deadlock the graph (and that
  /// feeds never prefill past them); an inter-node bound is analyzed
  /// statically but not enforced at runtime (the proxy decouples the
  /// endpoints).
  void connect(const Tuple& src, int out_slot, const Tuple& dst, int in_slot,
               std::size_t max_bytes, bool enabled = true, int capacity = 0);

  /// A source channel: an input channel with no producer VDP, prefilled
  /// with `initial` packets before the run starts. `capacity` as in
  /// connect(); a feed larger than its own bound is a GraphCheck error.
  void feed(const Tuple& dst, int in_slot, std::size_t max_bytes,
            std::vector<Packet> initial, bool enabled = true,
            int capacity = 0);

  /// Explicit VDP -> global worker thread mapping (thread / workers_per_node
  /// is the node). Unmapped VDPs fall back to the default mapping.
  void map_vdp(const Tuple& tuple, int global_thread);

  /// Default mapping function; if unset, VDPs are assigned round-robin in
  /// creation order.
  void set_default_mapping(std::function<int(const Tuple&)> fn);

  /// Read-only global parameters (paper: "read-only global parameters").
  template <class T>
  void set_global(std::shared_ptr<T> g) {
    global_ = std::move(g);
  }

  template <class T>
  T& global() const {
    auto p = std::any_cast<std::shared_ptr<T>>(&global_);
    PQR_ASSERT(p != nullptr, "global: type mismatch or not set");
    return **p;
  }

  /// Socket-transport result plumbing. Each node process runs with a
  /// copy-on-write copy of the whole application state; whatever its
  /// VDPs computed dies with it unless shipped back. `collect` runs in
  /// each child after a clean local finish and returns an opaque blob
  /// (the child's contribution — e.g. serialized result tiles); `merge`
  /// runs in the parent once per child, with the child's rank and blob.
  /// Unused (and unnecessary) under the in-process transport.
  void set_process_hooks(std::function<Packet()> collect,
                         std::function<void(int, const Packet&)> merge) {
    collect_hook_ = std::move(collect);
    merge_hook_ = std::move(merge);
  }

  /// Execute the VSA to completion. Throws pulsarqr::Error on watchdog
  /// expiry (deadlocked VSA) or invalid wiring.
  RunStats run();

  /// Available after run() when Config::trace is set.
  const trace::Recorder& recorder() const { return *recorder_; }

  /// Internal: route a packet from a firing VDP (used by VdpContext).
  void push_from(VdpContext& ctx, int slot, Packet p);

  struct Domain;  ///< implementation detail (vsa.cpp)
  struct Worker;  ///< implementation detail (vsa.cpp)
  struct Node;    ///< implementation detail (vsa.cpp)

 private:
  friend class GraphCheck;  ///< read-only static analysis of the graph

  void validate_and_wire();
  void worker_loop(Worker& w);
  void proxy_loop(Node& n);
  void fire(Vdp& v, Worker& w);
  /// Transport-specific parts of run_nodes: the socket node process's
  /// control plane. The in-process transport passes none.
  struct NodeHooks {
    /// Called after every watchdog tick (about 1 ms, and once more when
    /// the workers finish); returns true on progress the firing counters
    /// cannot see (frames arriving off the wire).
    std::function<bool()> tick;
    /// Called once the local workers have joined, while the proxies still
    /// serve the wire (a node process's done/go handshake).
    std::function<void()> settle;
  };
  /// The node loop shared by both transports: spawn the workers and
  /// proxies of `ranks`, watch them to completion, shut them down and
  /// return their RunStats (empty when the run was cancelled; the caller
  /// reports that). The in-process run() passes every rank; a forked node
  /// process passes its own.
  RunStats run_nodes(const std::vector<int>& ranks,
                     const NodeHooks& hooks = {});
  /// RunStats of the nodes run_nodes ran (called after it joined them):
  /// per-thread and per-node vectors span the whole array, zero outside
  /// the node set, so node processes' stats merge element-wise.
  RunStats node_stats(double seconds, const PacketPool::Stats& pool0);
  /// Wake every worker and proxy of the running node set so each
  /// re-checks cancelled_ / done_.
  void wake_nodes();
  /// Stop the running node set: mark the run cancelled and wake it.
  void cancel();
  /// `only_node` >= 0 restricts the stuck-VDP census to that node — a
  /// forked node process reports only what it was responsible for.
  RunReport make_run_report(int only_node = -1) const;
  /// Socket transport: fork one process per node, run the control plane
  /// (heartbeats, death detection, respawn + rejoin orchestration), merge
  /// child epilogues into RunStats (or re-throw a child failure).
  RunStats run_socket();
  /// Body of one forked node process; never returns (always _exit).
  /// `incarnation` is 0 for the original fork, bumped per respawn;
  /// `peer_epochs` the incarnation table of every rank at fork time.
  [[noreturn]] void child_main(int rank, std::vector<int> peer_fds,
                               int control_fd, std::uint32_t incarnation,
                               std::vector<std::uint32_t> peer_epochs);
  /// First-failure path (called from a proxy): mark the run failed and
  /// cancel it, so the shutdown join in run_nodes() completes.
  void cancel_run_from_transport();

  Config cfg_;
  std::unordered_map<Tuple, std::unique_ptr<Vdp>, TupleHash> vdps_;
  std::vector<Vdp*> creation_order_;

  struct PendingEdge {
    Tuple src;
    int out_slot;
    Tuple dst;
    int in_slot;
    std::size_t max_bytes;
    bool enabled;
    int capacity;  ///< resident-packet bound; 0 = unbounded
  };
  struct PendingFeed {
    Tuple dst;
    int in_slot;
    std::size_t max_bytes;
    std::vector<Packet> initial;
    bool enabled;
    int capacity;  ///< resident-packet bound; 0 = unbounded
  };
  std::vector<PendingEdge> edges_;
  std::vector<PendingFeed> feeds_;
  std::unordered_map<Tuple, int, TupleHash> explicit_map_;
  std::function<int(const Tuple&)> default_map_;
  std::any global_;

  // Runtime state (valid during run()).
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::unique_ptr<net::Comm> comm_;
  std::unique_ptr<trace::Recorder> recorder_;
  std::vector<Node*> local_nodes_;  ///< the node set run_nodes is running
  std::atomic<long long> fires_{0};
  std::atomic<int> workers_running_{0};
  /// The last worker to finish signals loop_cv_, so the node loop's
  /// watchdog wait ends at once instead of at its next tick.
  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> done_{false};
  bool ran_ = false;
  int spin_us_ = 0;  ///< Config::spin_us with the auto default resolved

  // Transport-health state, published by proxies (Reliable endpoints are
  // proxy-local; gaps and totals are deposited here at detection/exit so
  // run() can build the RunReport after joining them).
  std::atomic<bool> transport_failed_{false};
  // Egress accounting, published by proxies at exit: application frames
  // and payload bytes sent.
  std::atomic<long long> total_remote_msgs_{0};
  std::atomic<long long> total_remote_bytes_{0};
  std::atomic<long long> total_retransmits_{0};
  std::atomic<long long> total_dups_suppressed_{0};
  std::atomic<long long> total_acks_sent_{0};
  /// Frames this process requeued from the replay log when a crashed
  /// peer's replacement rejoined (published by the proxy at exit).
  std::atomic<long long> total_replayed_{0};
  mutable std::mutex fail_mu_;
  std::vector<net::LinkGap> link_gaps_;  ///< guarded by fail_mu_

  /// Non-owning view of comm_ as the socket backend. Set only inside
  /// socket node processes (child_main) so the proxy can fence frames
  /// from dead incarnations, poll queued peer rejoins and probe peer
  /// liveness. Null on the in-process path and in the parent.
  net::SocketComm* sock_comm_ = nullptr;

  // Socket-transport result plumbing (set_process_hooks).
  std::function<Packet()> collect_hook_;
  std::function<void(int, const Packet&)> merge_hook_;
};

template <class T>
T& VdpContext::global() const {
  return vsa.global<T>();
}

}  // namespace pulsarqr::prt
