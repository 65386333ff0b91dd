// The traced run: per-layer metrics. Single layers are timed from outside,
// through their public functions, as medians of hot repeated calls; the
// workload's own calls alternate tracing off and on, so the counters the
// program returns (RunStats, TreeQrRun::events, BatchRun::matrix_seconds)
// and the tracing overhead come from the same run. The batch rows come from
// batch_small's calls in every traced run. Metrics a workload has no layer
// for (the transport counters off the socket workload, the tree rows on
// qr_batch) read 0.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "blas/blas.hpp"
#include "cases.hpp"
#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"
#include "lapack/qr.hpp"
#include "plan/flops.hpp"
#include "plan/reduction_plan.hpp"
#include "prt/vsa.hpp"
#include "tile/tile_matrix.hpp"
#include "vsaqr/tree_qr.hpp"

namespace perfbench {

using namespace pulsarqr;

namespace {

// Every per-layer metric in output order, with its unit.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"blas.gemm128.gflops", "Gflop/s"},
    {"blas.gemm_small.gflops", "Gflop/s"},
    {"lapack.geqrt64x16.us", "us"},
    {"kernels.nb128.geqrt.gflops", "Gflop/s"},
    {"kernels.nb128.tsqrt.gflops", "Gflop/s"},
    {"kernels.nb128.ttqrt.gflops", "Gflop/s"},
    {"kernels.nb128.ormqr.gflops", "Gflop/s"},
    {"kernels.nb128.tsmqr.gflops", "Gflop/s"},
    {"kernels.nb128.ttmqr.gflops", "Gflop/s"},
    {"kernels.nb64.geqrt.gflops", "Gflop/s"},
    {"kernels.nb64.tsqrt.gflops", "Gflop/s"},
    {"kernels.nb64.ttqrt.gflops", "Gflop/s"},
    {"kernels.nb64.ormqr.gflops", "Gflop/s"},
    {"kernels.nb64.tsmqr.gflops", "Gflop/s"},
    {"kernels.nb64.ttmqr.gflops", "Gflop/s"},
    {"kernels.nb128.hot_mix_s", "s"},
    {"kernels.nb64.hot_mix_s", "s"},
    {"plan.build_ms", "ms"},
    {"vsaqr.lint_ms", "ms"},
    {"vsaqr.outside_run_ms", "ms"},
    {"tile.from_dense_ms", "ms"},
    {"prt.empty_run_ms", "ms"},
    {"prt.empty_run_socket_ms", "ms"},
    {"prt.fires", "count"},
    {"prt.busy_frac", "ratio"},
    {"prt.idle_s", "s"},
    {"prt.pool_misses", "count"},
    {"prt.leftover_packets", "count"},
    {"net.remote_mb", "MB"},
    {"net.wire_messages", "count"},
    {"net.wire_mb", "MB"},
    {"net.coalesced_frames", "count"},
    {"net.retransmits", "count"},
    {"net.duplicates_suppressed", "count"},
    {"net.acks_sent", "count"},
    {"net.proxy_busy_s", "s"},
    {"trace.factor_s", "s"},
    {"trace.update_s", "s"},
    {"trace.binary_s", "s"},
    {"trace.insitu_over_hot", "ratio"},
    {"trace.idle_s", "s"},
    {"trace.overhead_pct", "%"},
    {"batch.matrix_p50_us", "us"},
    {"batch.matrix_p99_us", "us"},
    {"batch.runtime_frac", "ratio"},
    {"ref.tree_qr_s", "s"},
    {"ref.speedup", "ratio"},
};

constexpr int kMinReps = 11;
constexpr int kMaxReps = 4000;
// The workload's calls stop here even short of 5 traced and 5 plain ones.
constexpr double kCallsCapSeconds = 90.0;

/// Median of `f()`'s return values over at least `min_reps` calls and then
/// as many more as fit in `budget_s`.
double median_of(double budget_s, int min_reps,
                 const std::function<double()>& f) {
  std::vector<double> v;
  const auto start = Clock::now();
  while (static_cast<int>(v.size()) < min_reps ||
         (seconds_since(start) < budget_s &&
          static_cast<int>(v.size()) < kMaxReps)) {
    v.push_back(f());
  }
  return median(v);
}

/// Median seconds of one `fn()` on hot caches: `reset()` restores the
/// operands, untimed, before every sample; `inner` calls share a sample.
template <class Reset, class Fn>
double hot_median(double budget_s, Reset reset, Fn fn, int inner = 1) {
  auto sample = [&] {
    reset();
    const auto t0 = Clock::now();
    for (int k = 0; k < inner; ++k) fn(k);
    return seconds_since(t0) / inner;
  };
  for (int i = 0; i < 3; ++i) sample();  // warm caches and buffers
  return median_of(budget_s, kMinReps, sample);
}

Matrix random_matrix(int m, int n, std::uint64_t seed) {
  Matrix a(m, n);
  fill_random(a.view(), seed);
  return a;
}

void copy_into(Matrix& dst, const Matrix& src) {
  std::memcpy(dst.data(), src.data(),
              sizeof(double) * static_cast<std::size_t>(src.rows()) *
                  src.cols());
}

/// Hot median seconds of the six tile kernels at one tile size, indexed by
/// plan::OpKind.
using KernelTimes = std::array<double, 6>;

KernelTimes time_tile_kernels(int nb, int ib, std::uint64_t seed,
                              double budget_s) {
  using blas::Trans;
  KernelTimes s{};
  const Matrix a0 = random_matrix(nb, nb, seed);
  const Matrix b0 = random_matrix(nb, nb, seed + 1);
  const Matrix c0 = random_matrix(nb, nb, seed + 2);
  const Matrix d0 = random_matrix(nb, nb, seed + 3);
  Matrix a = a0, b = b0, c = c0, d = d0, t(ib, nb);

  // Operands in the states the factorization hands each kernel.
  Matrix v = a0, tv(ib, nb);  // geqrt output: R over V
  kernels::geqrt(v.view(), ib, tv.view());
  Matrix r2 = b0, tr2(ib, nb);  // a second triangle
  kernels::geqrt(r2.view(), ib, tr2.view());
  Matrix ts1 = v, ts2 = b0, tts(ib, nb);  // tsqrt output
  kernels::tsqrt(ts1.view(), ts2.view(), ib, tts.view());
  Matrix tt1 = v, tt2 = r2, ttt(ib, nb);  // ttqrt output
  kernels::ttqrt(tt1.view(), tt2.view(), ib, ttt.view());

  const auto idx = [](plan::OpKind k) { return static_cast<int>(k); };
  s[idx(plan::OpKind::Geqrt)] = hot_median(
      budget_s, [&] { copy_into(a, a0); },
      [&](int) { kernels::geqrt(a.view(), ib, t.view()); });
  s[idx(plan::OpKind::Ormqr)] = hot_median(
      budget_s, [&] { copy_into(c, c0); },
      [&](int) { kernels::ormqr(Trans::Yes, v.view(), tv.view(), ib, c.view()); });
  s[idx(plan::OpKind::Tsqrt)] = hot_median(
      budget_s,
      [&] {
        copy_into(a, v);
        copy_into(b, b0);
      },
      [&](int) { kernels::tsqrt(a.view(), b.view(), ib, t.view()); });
  s[idx(plan::OpKind::Tsmqr)] = hot_median(
      budget_s,
      [&] {
        copy_into(c, c0);
        copy_into(d, d0);
      },
      [&](int) {
        kernels::tsmqr(Trans::Yes, ts2.view(), tts.view(), ib, c.view(),
                       d.view());
      });
  s[idx(plan::OpKind::Ttqrt)] = hot_median(
      budget_s,
      [&] {
        copy_into(a, v);
        copy_into(b, r2);
      },
      [&](int) { kernels::ttqrt(a.view(), b.view(), ib, t.view()); });
  s[idx(plan::OpKind::Ttmqr)] = hot_median(
      budget_s,
      [&] {
        copy_into(c, c0);
        copy_into(d, d0);
      },
      [&](int) {
        kernels::ttmqr(Trans::Yes, tt2.view(), ttt.view(), ib, c.view(),
                       d.view());
      });
  return s;
}

double kernel_flops(plan::OpKind k, int nb) {
  switch (k) {
    case plan::OpKind::Geqrt: return plan::flops_geqrt(nb, nb);
    case plan::OpKind::Ormqr: return plan::flops_ormqr(nb, nb, nb);
    case plan::OpKind::Tsqrt: return plan::flops_tsqrt(nb, nb);
    case plan::OpKind::Tsmqr: return plan::flops_tsmqr(nb, nb, nb);
    case plan::OpKind::Ttqrt: return plan::flops_ttqrt(nb);
    case plan::OpKind::Ttmqr: return plan::flops_ttmqr(nb, nb);
  }
  return 0.0;
}

/// Plan op count x hot median, summed over a workload's plan.
double hot_mix_s(const Workload& w, const KernelTimes& t) {
  const plan::ReductionPlan p(w.m / w.nb, w.n / w.nb, w.tree);
  double s = 0.0;
  for (const plan::Op& op : p.ops()) s += t[static_cast<int>(op.kind)];
  return s;
}

/// One Vsa::run of `nodes * workers` one-shot, zero-input VDPs.
double empty_run_s(int nodes, int workers, bool socket) {
  prt::Vsa::Config cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = workers;
  if (socket) cfg.transport = prt::Transport::Socket;
  prt::Vsa vsa(cfg);
  for (int v = 0; v < nodes * workers; ++v) {
    vsa.add_vdp(prt::Tuple{v}, 1, [](prt::VdpContext&) {}, 0, 0);
    vsa.map_vdp(prt::Tuple{v}, v);
  }
  const auto t0 = Clock::now();
  vsa.run();
  return seconds_since(t0);
}

}  // namespace

RunResult run_layers(const RunArgs& args) {
  const Workload& w = *args.workload;
  const double budget = args.seconds;
  RunResult r;
  std::string first_error;
  auto fail = [&](const std::string& why) {
    ++r.failed;
    if (first_error.empty()) first_error = why;
  };
  const bool tree = w.kind == Workload::Kind::Tree;
  std::map<std::string, double> m;  // every per-layer metric, by name

  std::unique_ptr<Case> c = make_case(w, args.seed);
  c->prepare();
  ++r.attempted;
  CallOutcome cold;
  std::string cold_error;
  try {
    cold = c->call(false);
  } catch (const std::exception& ex) {
    cold_error = std::string("threw: ") + ex.what();
  }

  // ref: the sequential executor on the same input, also the oracle.
  std::vector<double> refs{c->compute_reference()};
  if (cold_error.empty()) cold_error = c->check_result();
  if (cold_error.empty()) cold_error = check_stats(cold, false);
  if (!cold_error.empty()) fail("cold call: " + cold_error);
  c->release();
  const auto ref_start = Clock::now();
  while (refs.size() < 5 && seconds_since(ref_start) < 0.1 * budget) {
    refs.push_back(c->compute_reference());
  }

  // tile, plan, vsaqr: the layers tree_qr runs before the first firing.
  if (tree) {
    const Matrix dense = tree_input(w, args.seed);
    m["tile.from_dense_ms"] =
        1e3 * median_of(0.03 * budget, 3, [&] {
          const auto t0 = Clock::now();
          TileMatrix t = TileMatrix::from_dense(dense.view(), w.nb);
          return seconds_since(t0);
        });
    m["plan.build_ms"] = 1e3 * median_of(0.02 * budget, kMinReps, [&] {
      const auto t0 = Clock::now();
      plan::ReductionPlan p(w.m / w.nb, w.n / w.nb, w.tree);
      return seconds_since(t0);
    });
    const TileMatrix tiles = TileMatrix::from_dense(dense.view(), w.nb);
    const vsaqr::TreeQrOptions opt = tree_options(w);
    m["vsaqr.lint_ms"] = 1e3 * median_of(0.04 * budget, 3, [&] {
      const auto t0 = Clock::now();
      const prt::GraphReport rep = vsaqr::lint_tree_qr(tiles, opt);
      const double s = seconds_since(t0);
      if (!rep.ok()) fail("lint_tree_qr reported diagnostics");
      return s;
    });
  }

  // The workload's calls, tracing off and on in turn.
  std::vector<double> plain, traced;
  std::map<std::string, std::vector<double>> per_call;
  std::vector<double> matrix_s;
  auto add_batch = [&](const CallOutcome& out, int threads) {
    double kernel = 0.0;
    for (double x : out.matrix_seconds) kernel += x;
    matrix_s.insert(matrix_s.end(), out.matrix_seconds.begin(),
                    out.matrix_seconds.end());
    per_call["batch.runtime_frac"].push_back(1.0 -
                                             kernel / (threads * out.wall));
  };
  const auto calls_start = Clock::now();
  for (int i = 0; seconds_since(calls_start) < kCallsCapSeconds &&
                  (static_cast<int>(traced.size()) < 5 ||
                   static_cast<int>(plain.size()) < 5 ||
                   seconds_since(calls_start) < 0.45 * budget);
       ++i) {
    const bool on = i % 2 == 1;
    if (!tree) c->prepare();
    ++r.attempted;
    CallOutcome out;
    try {
      out = c->call(on);
    } catch (const std::exception& ex) {
      fail(std::string("call threw: ") + ex.what());
      continue;
    }
    std::string e = c->check_result();
    if (e.empty()) e = check_stats(out, i >= 2);
    c->release();
    if (!e.empty()) {
      fail(e);
      continue;
    }
    const prt::Vsa::RunStats& s = out.stats;
    const double threads = w.threads();
    auto add = [&](const char* k, double v) { per_call[k].push_back(v); };
    if (!on) {
      plain.push_back(out.wall);
      double busy = 0.0;
      for (double b : s.busy_per_thread) busy += b;
      double proxy = 0.0;
      for (double b : s.proxy_busy_per_node) proxy += b;
      add("vsaqr.outside_run_ms", 1e3 * (out.wall - s.seconds));
      add("prt.fires", static_cast<double>(s.fires));
      add("prt.busy_frac", busy / (threads * s.seconds));
      add("prt.idle_s", threads * s.seconds - busy);
      add("prt.pool_misses", static_cast<double>(s.pool_misses));
      add("prt.leftover_packets", s.leftover_packets);
      add("net.remote_mb", s.remote_bytes * 1e-6);
      add("net.wire_messages", static_cast<double>(s.wire_messages));
      add("net.wire_mb", s.wire_bytes * 1e-6);
      add("net.coalesced_frames", static_cast<double>(s.coalesced_frames));
      add("net.retransmits", static_cast<double>(s.retransmits));
      add("net.duplicates_suppressed",
          static_cast<double>(s.duplicates_suppressed));
      add("net.acks_sent", static_cast<double>(s.acks_sent));
      add("net.proxy_busy_s", proxy);
      continue;
    }
    traced.push_back(out.wall);
    if (tree) {
      std::array<double, 3> by_color{};
      double t0 = INFINITY, t1 = -INFINITY;
      for (const prt::trace::Event& ev : out.events) {
        if (ev.color < 0 || ev.color > 2) continue;  // proxy marks
        by_color[ev.color] += ev.t1 - ev.t0;
        t0 = std::min(t0, ev.t0);
        t1 = std::max(t1, ev.t1);
      }
      const double busy = by_color[0] + by_color[1] + by_color[2];
      add("trace.factor_s", by_color[vsaqr::kColorFactor]);
      add("trace.update_s", by_color[vsaqr::kColorUpdate]);
      add("trace.binary_s", by_color[vsaqr::kColorBinary]);
      add("trace.busy_s", busy);
      add("trace.idle_s", t1 > t0 ? threads * (t1 - t0) - busy : 0.0);
    } else {
      add_batch(out, w.threads());
    }
  }
  // The batch rows on a tree workload: batch_small's own calls with
  // record_latency, so every traced run measures the qr_batch layer.
  if (tree) {
    const Workload& bw = *find_workload("batch_small");
    std::unique_ptr<Case> b = make_case(bw, args.seed);
    b->compute_reference();
    const auto start = Clock::now();
    for (int i = 0; i < 3 || seconds_since(start) < 0.05 * budget; ++i) {
      b->prepare();
      ++r.attempted;
      try {
        const CallOutcome out = b->call(true);
        std::string e = b->check_result();
        if (e.empty()) e = check_stats(out, i >= 1);
        if (!e.empty()) {
          fail("batch_small: " + e);
        } else if (i >= 1) {
          add_batch(out, bw.threads());
        }
      } catch (const std::exception& ex) {
        fail(std::string("batch_small call threw: ") + ex.what());
      }
    }
  }
  for (const auto& [k, v] : per_call) m[k] = median(v);
  const double p50 = median(plain);
  m["trace.overhead_pct"] = 100.0 * (median(traced) / p50 - 1.0);
  m["ref.tree_qr_s"] = median(refs);
  m["ref.speedup"] = m["ref.tree_qr_s"] / p50;
  m["batch.matrix_p50_us"] = 1e6 * percentile(matrix_s, 0.50);
  m["batch.matrix_p99_us"] = 1e6 * percentile(matrix_s, 0.99);

  // blas and lapack on hot caches.
  {
    const Matrix a0 = random_matrix(128, 128, args.seed + 10);
    const Matrix b0 = random_matrix(128, 128, args.seed + 11);
    Matrix cm = random_matrix(128, 128, args.seed + 12);
    const double s = hot_median(0.04 * budget, [] {}, [&](int) {
      blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a0.view(), b0.view(),
                 1.0, cm.view());
    });
    m["blas.gemm128.gflops"] = 2.0 * 128 * 128 * 128 / s * 1e-9;
  }
  {
    const Matrix a0 = random_matrix(64, 16, args.seed + 13);
    const Matrix b0 = random_matrix(16, 16, args.seed + 14);
    Matrix cm = random_matrix(64, 16, args.seed + 15);
    const double s = hot_median(
        0.03 * budget, [] {},
        [&](int) {
          blas::gemm_small(blas::Trans::No, blas::Trans::No, 1.0, a0.view(),
                           b0.view(), 1.0, cm.view());
        },
        64);
    m["blas.gemm_small.gflops"] = 2.0 * 64 * 16 * 16 / s * 1e-9;
  }
  {
    constexpr int kCopies = 32;
    const Matrix a0 = random_matrix(64, 16, args.seed + 16);
    std::vector<Matrix> a(kCopies, a0), t(kCopies, Matrix(16, 16));
    const double s = hot_median(
        0.03 * budget,
        [&] {
          for (Matrix& x : a) copy_into(x, a0);
        },
        [&](int k) { lapack::geqrt(a[k].view(), 16, t[k].view()); }, kCopies);
    m["lapack.geqrt64x16.us"] = 1e6 * s;
  }

  // kernels: the six tile kernels at the two tile sizes the workloads use;
  // hot_mix_s over tall_qr's plan (nb 128) and small_qr's plan (nb 64).
  const Workload& tall = *find_workload("tall_qr");
  const Workload& small = *find_workload("small_qr");
  constexpr const char* kKernelNames[6] = {"geqrt", "ormqr", "tsqrt",
                                           "tsmqr", "ttqrt", "ttmqr"};
  KernelTimes kt128{}, kt64{};
  for (const Workload* kw : {&tall, &small}) {
    const KernelTimes kt =
        time_tile_kernels(kw->nb, kw->ib, args.seed + 20, 0.02 * budget);
    const std::string pre = "kernels.nb" + std::to_string(kw->nb) + ".";
    for (int k = 0; k < 6; ++k) {
      m[pre + kKernelNames[k] + ".gflops"] =
          kernel_flops(static_cast<plan::OpKind>(k), kw->nb) / kt[k] * 1e-9;
    }
    m[pre + "hot_mix_s"] = hot_mix_s(*kw, kt);
    (kw == &tall ? kt128 : kt64) = kt;
  }
  if (tree) {
    m["trace.insitu_over_hot"] =
        m["trace.busy_s"] / hot_mix_s(w, w.nb == 64 ? kt64 : kt128);
  }
  m.erase("trace.busy_s");

  // prt: the fixed cost of one run, in process and over sockets.
  const int threads = w.threads();
  auto empty_run_ms = [&](int nodes, bool socket) {
    return 1e3 * median_of(0.05 * budget, kMinReps, [&] {
      ++r.attempted;
      try {
        return empty_run_s(nodes, threads / nodes, socket);
      } catch (const std::exception& ex) {
        fail(std::string("empty run threw: ") + ex.what());
        return 0.0;
      }
    });
  };
  m["prt.empty_run_ms"] = empty_run_ms(1, false);
  m["prt.empty_run_socket_ms"] = empty_run_ms(2, true);

  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = m.find(lm.name);
    const double v = it == m.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) fail(std::string("non-finite ") + lm.name);
    r.metrics.push_back({lm.name, std::isfinite(v) ? v : 0.0, lm.unit});
  }
  r.correct = r.failed == 0;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"plain_calls\": %zu, "
                "\"traced_calls\": %zu, \"cold_call_s\": %.6f}",
                w.name, args.seed, plain.size(), traced.size(), cold.wall);
  r.info = buf;
  if (!first_error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %lld of %lld calls failed; first: %s\n",
                 w.name, r.failed, r.attempted, first_error.c_str());
  }
  return r;
}

}  // namespace perfbench
