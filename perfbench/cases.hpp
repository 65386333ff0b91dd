// A workload's inputs, its public call and its correctness oracle.
//
// QR workloads call vsaqr::tree_qr and compare the factors bitwise with
// the sequential reference executor ref::tree_qr on the same input. The
// batch workload calls vsaqr::qr_batch and compares bitwise with a
// sequential kernels::geqrt loop. Inputs come from the seed only.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "prt/trace.hpp"
#include "prt/vsa.hpp"
#include "vsaqr/tree_qr.hpp"

namespace perfbench {

/// What one public call returned, besides its result.
struct CallOutcome {
  double wall = 0.0;  ///< seconds spent inside the public call
  prt::Vsa::RunStats stats;
  long long expected_fires = 0;            ///< plan ops or batch chunks
  bool forked = false;  ///< node processes were forked (socket transport)
  std::vector<prt::trace::Event> events;   ///< tree_qr with trace on
  std::vector<double> matrix_seconds;      ///< qr_batch with record_latency
};

class Case {
 public:
  explicit Case(const Workload& w) : w_(w) {}
  virtual ~Case() = default;
  Case(const Case&) = delete;
  Case& operator=(const Case&) = delete;

  /// Convert (tree_qr: TileMatrix::from_dense) or refill (qr_batch, which
  /// factors in place) the input.
  virtual void prepare() = 0;
  /// One call into the public entry point; only the call itself is timed.
  /// `traced` turns on the program's own recording (TreeQrOptions::trace
  /// or BatchOptions::record_latency).
  virtual CallOutcome call(bool traced) = 0;
  /// Compute the oracle's result; returns the seconds the sequential
  /// executor itself took (input conversion excluded).
  virtual double compute_reference() = 0;
  /// Compare the last call's result bitwise with the oracle; empty when
  /// equal, else what differs.
  virtual std::string check_result() const = 0;
  /// Drop the last call's result (kept out of timed regions).
  virtual void release() = 0;

 protected:
  const Workload& w_;
};

std::unique_ptr<Case> make_case(const Workload& w, unsigned long long seed);

/// The dense input and the tree_qr options of a Kind::Tree workload (the
/// same ones its Case uses), for timing single layers on them.
pulsarqr::Matrix tree_input(const Workload& w, unsigned long long seed);
pulsarqr::vsaqr::TreeQrOptions tree_options(const Workload& w);

/// RunStats invariants of a successful call: every planned firing ran, no
/// packet was left behind, and, once warm, in-process calls draw their
/// packets from the pool. The last is the pool's own steady-state contract:
/// fresh worker threads start with empty magazines, so a stray miss is
/// allowed but misses stay under 5% of hits. Forked node processes start
/// from the parent's pool on every call and are not held to it; their
/// misses are reported as prt.pool_misses. Empty when the invariants hold.
std::string check_stats(const CallOutcome& c, bool warm);

}  // namespace perfbench
