// pqr — command-line driver for the pulsarqr library.
//
//   pqr factor   --m 4096 --n 512 [--nb 128 --ib 32 --tree hier --h 6
//                 --boundary shifted --trace trace.csv --check --seed 1
//                 RUNTIME]
//   pqr solve    --m 4096 --n 512 [--nrhs 1 ... same as factor]
//   pqr chol     --n 1024 [--nb 128 --seed 1 RUNTIME]
//   pqr lu       --n 1024 [--nb 128 --seed 1 RUNTIME]
//   pqr batch    --batch 1024 --m 64 --n 16 [--ib 32 --chunk 0 --f32
//                 --seed 1 --check RUNTIME]
//   pqr simulate --m 368640 --n 4608 [--nb 192 --ib 48 --tree hier --h 6
//                 --nodes 768 --algo qr|chol|lu]
//
// RUNTIME is the one set of prt::Vsa::Config flags every runtime command
// reads (runtime_options below):
//                 --nodes 1 --workers 2 --sched lazy|aggressive
//                 --graph-check 1 --spin-us -1|0|50
//                 --transport inproc|socket
//                 --chaos-seed 42 --drop 0.05 --dup 0.05 --reorder 0.1
//                 --delay 0.1 --delay-us 200 --reliable
//                 --rto-us 2000 --max-retransmits 10
//                 --max-respawns 0 --replay-log-mb 64 --hb-timeout 10
//                 --kill-node -1 --kill-after 0
// and every command also takes --kernel-isa auto|avx512|avx2|neon|scalar.
//
// The chaos flags install a deterministic FaultPlan on the inter-node
// transport (same seed => same fault schedule); --reliable layers the
// ack/retransmit protocol on top so the run still completes correctly.
// Every inter-node frame is its own wire message; --reliable arms its
// retransmit timers (--rto-us) only where a frame can be lost: with
// --drop > 0 or --max-respawns > 0.
// Under --transport socket, --kill-node R --kill-after F SIGKILLs rank R's
// node process after F firings and --max-respawns N lets the run absorb up
// to N such deaths by respawning (requires --reliable). `batch` runs
// in-process only.
//
// `batch` factors N independent small matrices through ONE fused VSA plan
// (see src/vsaqr/qr_batch.hpp) and reports jobs/sec plus per-matrix latency
// percentiles; --check verifies each result is bitwise identical to a
// sequential geqrt loop.
//
// `factor`, `solve`, `chol`, `lu` and `batch` run the real PULSAR runtime
// on this host; `simulate` replays a task graph on the Kraken machine
// model. Every command exits 2, naming the flag, on a flag it does not
// read or a value it does not accept (a malformed number, an unknown
// choice, a size below 1, a runtime value prt::Vsa::Config rejects),
// before doing any work.

// GCC 12's -Wrestrict emits a known false positive on inlined std::string
// copies under -O3 (GCC PR105651); the flag-map code trips it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "blas/simd.hpp"
#include "chol/vsa_chol.hpp"
#include "kernels/tile_kernels.hpp"
#include "vsaqr/qr_batch.hpp"
#include "common/rng.hpp"
#include "lu/vsa_lu.hpp"
#include "lapack/solve.hpp"
#include "ref/apply_q.hpp"
#include "sim/chol_sim.hpp"
#include "sim/lu_sim.hpp"
#include "sim/scalapack_model.hpp"
#include "sim/simulator.hpp"
#include "vsaqr/tree_qr.hpp"

using namespace pulsarqr;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  // Every key a getter has looked up; reject_unread() compares against it.
  mutable std::set<std::string> read;

  bool has(const std::string& k) const {
    read.insert(k);
    return kv.count(k) > 0;
  }
  std::string gets(const std::string& k, const std::string& dflt) const {
    read.insert(k);
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  /// An integer flag of at least `min`.
  int geti(const std::string& k, int dflt,
           int min = std::numeric_limits<int>::min()) const {
    if (!has(k)) return dflt;
    const std::string& v = kv.at(k);
    char* end = nullptr;
    errno = 0;
    const long x = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno != 0 ||
        x < std::numeric_limits<int>::min() ||
        x > std::numeric_limits<int>::max()) {
      bad_value(k, "expected an integer");
    }
    if (x < min) bad_value(k, "must be >= " + std::to_string(min));
    return static_cast<int>(x);
  }
  /// A size or count flag: an integer >= 1.
  int getpos(const std::string& k, int dflt) const { return geti(k, dflt, 1); }
  double getd(const std::string& k, double dflt) const {
    if (!has(k)) return dflt;
    const std::string& v = kv.at(k);
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0') bad_value(k, "expected a number");
    return x;
  }
  /// An enumerated flag: its value must be one of `accepted`.
  std::string choice(const std::string& k, const std::string& dflt,
                     std::initializer_list<const char*> accepted) const {
    const std::string v = gets(k, dflt);
    std::string list;
    for (const char* c : accepted) {
      if (v == c) return v;
      list += list.empty() ? c : std::string("|") + c;
    }
    bad_value(k, "expected " + list);
  }

  [[noreturn]] void bad_value(const std::string& k,
                              const std::string& why) const {
    auto it = kv.find(k);
    std::fprintf(stderr, "bad value for pqr %s --%s: '%s' (%s)\n",
                 command.c_str(), k.c_str(),
                 it == kv.end() ? "" : it->second.c_str(), why.c_str());
    std::exit(2);
  }

  /// Exit with status 2, naming every such flag, if the command line
  /// carries keys the command has not read. Each command calls this once
  /// it has read all of its options and before it does any work.
  void reject_unread() const {
    std::string unread;
    for (const auto& [key, value] : kv) {
      if (read.count(key) == 0) unread += " --" + key;
    }
    if (unread.empty()) return;
    std::fprintf(stderr, "unknown flag(s) for pqr %s:%s\n", command.c_str(),
                 unread.c_str());
    std::exit(2);
  }
};

Args parse(int argc, char** argv, int first) {
  Args a;
  a.command = argv[first - 1];
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-' || arg[1] != '-') {
      std::fprintf(stderr, "unexpected argument: %s\n", arg);
      std::exit(2);
    }
    const std::string key(arg + 2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key] = "1";  // boolean flag
    }
  }
  return a;
}

plan::PlanConfig tree_config(const Args& a) {
  plan::PlanConfig cfg;
  const std::string tree =
      a.choice("tree", "hier", {"flat", "binary", "hier", "binary-on-flat"});
  if (tree == "flat") {
    cfg.tree = plan::TreeKind::Flat;
  } else if (tree == "binary") {
    cfg.tree = plan::TreeKind::Binary;
  } else {
    cfg.tree = plan::TreeKind::BinaryOnFlat;
  }
  cfg.domain_size = a.geti("h", 6);
  cfg.boundary = a.choice("boundary", "shifted", {"shifted", "fixed"}) ==
                         "fixed"
                     ? plan::BoundaryMode::Fixed
                     : plan::BoundaryMode::Shifted;
  return cfg;
}

/// The runtime flags every runtime command shares: one flag per
/// prt::Vsa::Config field (factor reads --trace itself, as it also names
/// the output file). Exits 2 on a value the Config rejects.
void runtime_options(prt::Vsa::Config& opt, const Args& a) {
  opt.nodes = a.getpos("nodes", opt.nodes);
  opt.workers_per_node = a.getpos("workers", opt.workers_per_node);
  opt.scheduling = a.choice("sched", "lazy", {"lazy", "aggressive"}) ==
                           "aggressive"
                       ? prt::Scheduling::Aggressive
                       : prt::Scheduling::Lazy;
  opt.graph_check = a.geti("graph-check", 1) != 0;
  opt.spin_us = a.geti("spin-us", opt.spin_us);
  // Transport backend: in-process mailbox threads (default) or one forked
  // OS process per node over Unix-domain sockets.
  if (a.choice("transport", "inproc", {"inproc", "socket"}) == "socket") {
    opt.transport = prt::Transport::Socket;
  }
  // Chaos engineering: a seeded deterministic fault schedule plus the
  // reliable-delivery protocol that tolerates it.
  opt.fault_plan.seed = static_cast<std::uint64_t>(a.geti("chaos-seed", 0));
  opt.fault_plan.drop = a.getd("drop", 0.0);
  opt.fault_plan.dup = a.getd("dup", 0.0);
  opt.fault_plan.delay = a.getd("delay", 0.0);
  opt.fault_plan.reorder = a.getd("reorder", 0.0);
  opt.fault_plan.delay_us = a.geti("delay-us", opt.fault_plan.delay_us);
  // Process-level fault + the recovery budget that absorbs it.
  opt.fault_plan.kill_rank = a.geti("kill-node", opt.fault_plan.kill_rank);
  opt.fault_plan.kill_after = a.geti("kill-after", 0);
  opt.reliable_transport = a.geti("reliable", 0) != 0;
  opt.retransmit_timeout_us = a.geti("rto-us", opt.retransmit_timeout_us);
  opt.max_retransmits = a.geti("max-retransmits", opt.max_retransmits);
  opt.max_respawns = a.geti("max-respawns", opt.max_respawns);
  opt.replay_log_bytes =
      static_cast<std::size_t>(a.geti(
          "replay-log-mb", static_cast<int>(opt.replay_log_bytes >> 20), 0))
      << 20;
  opt.heartbeat_timeout_seconds =
      a.getd("hb-timeout", opt.heartbeat_timeout_seconds);
  try {
    opt.validate();
  } catch (const Error& e) {
    std::fprintf(stderr, "bad runtime flag value for pqr %s: %s\n",
                 a.command.c_str(), e.what());
    std::exit(2);
  }
  if (opt.fault_plan.any() && !opt.reliable_transport) {
    std::fprintf(stderr,
                 "warning: fault injection without --reliable; expect a "
                 "watchdog RunError on lossy schedules\n");
  }
}

/// One line of crash-recovery accounting, printed when recovery was armed
/// or actually exercised.
void print_recovery(const prt::Vsa::RunStats& stats, int max_respawns) {
  if (max_respawns <= 0 && stats.respawns == 0) return;
  std::printf("recovery: respawns=%lld replayed_frames=%lld "
              "refired_fires=%lld\n",
              stats.respawns, stats.replayed_frames, stats.refired_fires);
}

vsaqr::TreeQrOptions qr_options(const Args& a) {
  vsaqr::TreeQrOptions opt;
  opt.tree = tree_config(a);
  opt.ib = a.getpos("ib", 32);
  opt.trace = a.has("trace");
  runtime_options(opt, a);
  return opt;
}

int cmd_factor(const Args& a) {
  const int m = a.getpos("m", 4096);
  const int n = a.getpos("n", 512);
  const int nb = a.getpos("nb", 128);
  const int seed = a.geti("seed", 1);
  auto opt = qr_options(a);
  const std::string trace_file =
      a.has("trace") ? a.gets("trace", "trace.csv") : "";
  const bool check = a.has("check");
  a.reject_unread();
  Matrix a0(m, n);
  fill_random(a0.view(), seed);
  TileMatrix tiled = TileMatrix::from_dense(a0.view(), nb);
  auto run = vsaqr::tree_qr(tiled, opt);
  std::printf("factor %dx%d nb=%d ib=%d tree=%s kernels=%s/f64: %.3fs wall, "
              "%lld firings, %d VDPs, %d channels, %lld inter-node msgs "
              "(%.1f MB)\n",
              m, n, nb, opt.ib, a.gets("tree", "hier").c_str(),
              blas::simd::isa_name(blas::simd::active_isa()),
              run.stats.seconds, run.stats.fires, run.vdp_count,
              run.channel_count, run.stats.remote_messages,
              run.stats.remote_bytes / 1e6);
  if (run.stats.remote_messages > 0) {
    std::printf("datapath: wire_msgs=%lld (%.1f MB) | pool hits=%lld "
                "misses=%lld\n",
                run.stats.wire_messages, run.stats.wire_bytes / 1e6,
                run.stats.pool_hits, run.stats.pool_misses);
  }
  if (opt.fault_plan.any() || opt.reliable_transport) {
    std::printf("transport: dropped=%lld duplicated=%lld delayed=%lld "
                "reordered=%lld streams=%lld | retransmits=%lld "
                "dups_suppressed=%lld acks=%lld\n",
                run.stats.faults.dropped, run.stats.faults.duplicated,
                run.stats.faults.delayed, run.stats.faults.reordered,
                run.stats.fault_streams, run.stats.retransmits,
                run.stats.duplicates_suppressed, run.stats.acks_sent);
  }
  print_recovery(run.stats, opt.max_respawns);
  if (!trace_file.empty()) {
    std::ofstream os(trace_file);
    prt::trace::write_csv(os, run.events);
    std::printf("trace written to %s (%zu events)\n", trace_file.c_str(),
                run.events.size());
  }
  if (check) {
    TileMatrix b = TileMatrix::from_dense(a0.view(), nb);
    ref::apply_q(blas::Trans::Yes, run.factors, b);
    double below = 0.0;
    Matrix qta = b.to_dense();
    for (int j = 0; j < n; ++j) {
      for (int i = j + 1; i < m; ++i) {
        below = std::max(below, std::abs(qta(i, j)));
      }
    }
    std::printf("check: max |(Q^T A)_below-diagonal| = %.3e\n", below);
    if (below > 1e-9 * m) return 1;
  }
  return 0;
}

/// Nearest-rank percentile of an already-sorted latency vector, in
/// microseconds.
double pct_us(const std::vector<double>& sorted, int p) {
  const std::size_t n = sorted.size();
  const std::size_t rank =
      std::max<std::size_t>(1, (n * p + 99) / 100);  // ceil(p/100 * n)
  return sorted[std::min(rank, n) - 1] * 1e6;
}

template <class T>
int run_batch(const Args& a, const char* prec) {
  const int batch = a.getpos("batch", 1024);
  const int m = a.getpos("m", 64);
  const int n = a.getpos("n", 16);
  const int k = std::min(m, n);
  vsaqr::BatchOptions opt;
  opt.ib = a.getpos("ib", 32);
  opt.chunk = a.geti("chunk", 0, 0);
  opt.record_latency = true;
  runtime_options(opt, a);
  const int seed = a.geti("seed", 1);
  const bool check = a.has("check");
  a.reject_unread();

  std::vector<MatrixT<T>> mats, tfac;
  std::vector<MatrixViewT<T>> av, tv;
  mats.reserve(batch);
  tfac.reserve(batch);
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int i = 0; i < batch; ++i) {
    mats.emplace_back(m, n);
    tfac.emplace_back(std::min(opt.ib, k), k);
    MatrixT<T>& mat = mats.back();
    for (int j = 0; j < n; ++j) {
      for (int r = 0; r < m; ++r) mat(r, j) = static_cast<T>(rng.next_symmetric());
    }
  }
  std::vector<MatrixT<T>> ref_a, ref_t;
  if (check) {
    ref_a = mats;
    ref_t = tfac;
  }
  for (int i = 0; i < batch; ++i) {
    av.push_back(mats[i].view());
    tv.push_back(tfac[i].view());
  }

  const auto run = vsaqr::qr_batch(std::span<const MatrixViewT<T>>(av),
                                   std::span<const MatrixViewT<T>>(tv), opt);
  std::vector<double> lat = run.matrix_seconds;
  std::sort(lat.begin(), lat.end());
  std::printf("batch %d of %dx%d ib=%d kernels=%s/%s: %.3fs wall, "
              "%.0f jobs/s, p50=%.2fus p99=%.2fus, %lld firings, %d VDPs, "
              "%lld chunks\n",
              batch, m, n, opt.ib,
              blas::simd::isa_name(blas::simd::active_isa()), prec,
              run.stats.seconds, batch / run.stats.seconds, pct_us(lat, 50),
              pct_us(lat, 99), run.stats.fires, run.vdp_count, run.chunks);
  if (check) {
    kernels::Workspace ws;
    long long mismatches = 0;
    for (int i = 0; i < batch; ++i) {
      kernels::geqrt(ref_a[i].view(), opt.ib, ref_t[i].view(), ws);
      const bool ok =
          std::memcmp(mats[i].data(), ref_a[i].data(),
                      sizeof(T) * static_cast<std::size_t>(m) * n) == 0 &&
          std::memcmp(tfac[i].data(), ref_t[i].data(),
                      sizeof(T) * static_cast<std::size_t>(ref_t[i].rows()) *
                          ref_t[i].cols()) == 0;
      if (!ok) ++mismatches;
    }
    std::printf("check: %lld of %d matrices differ from sequential geqrt "
                "(bitwise)\n",
                mismatches, batch);
    if (mismatches > 0) return 1;
  }
  return 0;
}

int cmd_batch(const Args& a) {
  return a.geti("f32", 0) != 0 ? run_batch<float>(a, "f32")
                               : run_batch<double>(a, "f64");
}

int cmd_solve(const Args& a) {
  const int m = a.getpos("m", 4096);
  const int n = a.getpos("n", 512);
  const int nb = a.getpos("nb", 128);
  const int nrhs = a.getpos("nrhs", 1);
  const int seed = a.geti("seed", 1);
  const auto opt = qr_options(a);
  a.reject_unread();
  Matrix a0(m, n);
  fill_random_well_conditioned(a0.view(), seed);
  Matrix b(m, nrhs);
  fill_random(b.view(), seed + 1);
  TileMatrix tiled = TileMatrix::from_dense(a0.view(), nb);
  Matrix x = vsaqr::tree_qr_solve(tiled, b.view(), opt);
  // Report residual orthogonality per rhs.
  double worst = 0.0;
  for (int r = 0; r < nrhs; ++r) {
    std::vector<double> rhs(m), xr(n);
    for (int i = 0; i < m; ++i) rhs[i] = b(i, r);
    for (int i = 0; i < n; ++i) xr[i] = x(i, r);
    std::vector<double> res = rhs;
    blas::gemv(blas::Trans::No, -1.0, a0.view(), xr.data(), 1.0, res.data());
    std::vector<double> atr(n, 0.0);
    blas::gemv(blas::Trans::Yes, 1.0, a0.view(), res.data(), 0.0, atr.data());
    worst = std::max(worst, blas::nrm2(n, atr.data()));
  }
  std::printf("solve %dx%d, %d rhs: done; max ||A^T (b - A x)|| = %.3e\n", m,
              n, nrhs, worst);
  return worst < 1e-7 * m ? 0 : 1;
}

int cmd_chol(const Args& a) {
  const int n = a.getpos("n", 1024);
  const int nb = a.getpos("nb", 128);
  const int seed = a.geti("seed", 1);
  chol::VsaCholOptions opt;
  runtime_options(opt, a);
  a.reject_unread();
  Matrix spd = chol::random_spd(n, seed);
  auto run = chol::vsa_cholesky(TileMatrix::from_dense(spd.view(), nb), opt);
  print_recovery(run.stats, opt.max_respawns);
  Matrix l = chol::extract_l(run.l);
  Matrix llt(n, n);
  blas::gemm(blas::Trans::No, blas::Trans::Yes, 1.0, l.view(), l.view(), 0.0,
             llt.view());
  double err = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      err = std::max(err, std::abs(llt(i, j) - spd(i, j)));
    }
  }
  std::printf("cholesky %dx%d nb=%d: %.3fs wall, %lld firings, "
              "||LL^T - A||_max / ||A||_max = %.3e\n",
              n, n, nb, run.stats.seconds, run.stats.fires,
              err / blas::norm_max(spd.view()));
  return err / blas::norm_max(spd.view()) < 1e-10 * n ? 0 : 1;
}

int cmd_lu(const Args& a) {
  const int n = a.getpos("n", 1024);
  const int nb = a.getpos("nb", 128);
  const int seed = a.geti("seed", 1);
  lu::VsaLuOptions opt;
  runtime_options(opt, a);
  a.reject_unread();
  Matrix m = lu::random_diag_dominant(n, n, seed);
  auto run = lu::vsa_lu(TileMatrix::from_dense(m.view(), nb), opt);
  print_recovery(run.stats, opt.max_respawns);
  // Verify by solving a planted system through the factors.
  Rng rng(seed + 7);
  std::vector<double> xtrue(n);
  for (auto& v : xtrue) v = rng.next_symmetric();
  std::vector<double> b(n, 0.0);
  blas::gemv(blas::Trans::No, 1.0, m.view(), xtrue.data(), 0.0, b.data());
  const auto x = lu::lu_solve(run.f, b);
  double err = 0.0;
  for (int i = 0; i < n; ++i) err = std::max(err, std::abs(x[i] - xtrue[i]));
  std::printf("lu %dx%d nb=%d: %.3fs wall, %lld firings, planted-solution "
              "max error %.3e\n",
              n, n, nb, run.stats.seconds, run.stats.fires, err);
  return err < 1e-9 * n ? 0 : 1;
}

int cmd_simulate(const Args& a) {
  const int m = a.getpos("m", 368640);
  const int n = a.getpos("n", 4608);
  const int nb = a.getpos("nb", 192);
  const int nodes = a.getpos("nodes", 768);
  const std::string algo = a.choice("algo", "qr", {"qr", "chol", "lu"});
  const sim::MachineModel mm = sim::MachineModel::kraken();
  // ib and the tree shape only exist for the QR plan.
  const int ib = algo == "qr" ? a.getpos("ib", 48) : 0;
  const plan::PlanConfig cfg =
      algo == "qr" ? tree_config(a) : plan::PlanConfig{};
  a.reject_unread();
  sim::SimResult r;
  if (algo == "qr") {
    r = sim::simulate_tree_qr(m, n, nb, ib, cfg, mm, nodes);
  } else if (algo == "chol") {
    r = sim::simulate_cholesky(n, nb, mm, nodes);
  } else {
    r = sim::simulate_lu(m, n, nb, mm, nodes);
  }
  std::printf("simulate %s %dx%d nb=%d on %d nodes (%d cores, kraken "
              "model):\n",
              algo.c_str(), algo == "chol" ? n : m, n, nb, nodes,
              nodes * mm.cores_per_node);
  std::printf("  makespan %.3f s | useful %.0f Gflop/s | actual %.0f "
              "Gflop/s | utilization %.1f%% | %lld tasks\n",
              r.seconds, r.useful_gflops, r.actual_gflops,
              r.busy_fraction * 100, r.tasks);
  if (algo == "qr") {
    const auto s = sim::scalapack_qr_model(m, n, 64, mm,
                                           nodes * mm.cores_per_node);
    std::printf("  ScaLAPACK model: %.3f s (%.2fx slower)\n", s.seconds,
                s.seconds / r.seconds);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pqr <factor|batch|solve|chol|lu|simulate> "
                 "[--key ...]\n"
                 "see the header of tools/pqr.cpp for the full flag list\n");
    return 2;
  }
  // Plain C-string dispatch (a GCC 12 -Wrestrict false positive fires on
  // the equivalent std::string comparisons under -O3).
  const char* cmd = argv[1];
  const Args a = parse(argc, argv, 2);
  // Kernel ISA selection. Unlike the PQR_KERNEL_ISA env override (which
  // warns and falls back), the CLI rejects bad or unsupported values.
  const std::string isa_arg = a.gets("kernel-isa", "");
  if (!isa_arg.empty()) {
    blas::simd::Isa isa;
    if (!blas::simd::parse_isa(isa_arg, &isa)) {
      std::fprintf(stderr,
                   "unknown --kernel-isa %s (auto|avx512|avx2|neon|scalar)\n",
                   isa_arg.c_str());
      return 2;
    }
    if (!blas::simd::set_isa(isa)) {
      std::fprintf(stderr,
                   "--kernel-isa %s is not usable here (compiled in: %s; "
                   "detected best: %s)\n",
                   isa_arg.c_str(),
                   blas::simd::isa_compiled(isa) ? "yes" : "no",
                   blas::simd::isa_name(blas::simd::detect_isa()));
      return 2;
    }
  }
  try {
    if (std::strcmp(cmd, "factor") == 0) return cmd_factor(a);
    if (std::strcmp(cmd, "batch") == 0) return cmd_batch(a);
    if (std::strcmp(cmd, "solve") == 0) return cmd_solve(a);
    if (std::strcmp(cmd, "chol") == 0) return cmd_chol(a);
    if (std::strcmp(cmd, "lu") == 0) return cmd_lu(a);
    if (std::strcmp(cmd, "simulate") == 0) return cmd_simulate(a);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd);
  return 2;
}
