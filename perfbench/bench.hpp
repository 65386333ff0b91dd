// Shared pieces of the perfbench program: the workload table, sample
// statistics, the metric list printed as JSON, and the host fingerprint.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "plan/domains.hpp"

namespace pulsarqr::prt {}

namespace perfbench {

namespace plan = pulsarqr::plan;
namespace prt = pulsarqr::prt;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One named workload. Kind::Tree calls vsaqr::tree_qr on an m-by-n
/// matrix; Kind::Batch calls vsaqr::qr_batch on `batch` m-by-n matrices.
struct Workload {
  enum class Kind { Tree, Batch };
  const char* name;
  Kind kind;
  int m, n, nb, ib;
  int nodes, workers_per_node;
  bool socket;
  int batch;
  plan::PlanConfig tree;  ///< hierarchical tree, h = 6, shifted (Tree only)

  int threads() const { return nodes * workers_per_node; }
  /// Useful flops of one call in the paper's 2n^2(m - n/3) convention.
  double call_flops() const;
};

/// The four workloads, by name; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::string workload_names();

/// Median and tail of a set of post-warm-up samples. The tail is the
/// highest percentile that leaves at least kTailBeyond samples above it:
/// the sorted value at index n - 1 - kTailBeyond.
inline constexpr int kTailBeyond = 10;
struct Summary {
  int n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< share of samples at or below `tail`, in %
};
Summary summarize(std::vector<double> v);
double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample set.
double percentile(std::vector<double> v, double q);

/// Metrics in output order: name, value, unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The host fingerprint as a one-line JSON object: active SIMD ISA, nproc,
/// CPU model, L2/L3 sizes, build type and the git SHA passed in.
std::string fingerprint_json(const std::string& git_sha);

/// Peak resident set of this process and of its waited-for children, MiB.
double peak_rss_mb();

/// Options the command line passes to both run modes.
struct RunArgs {
  const Workload* workload = nullptr;
  unsigned long long seed = 1;
  double seconds = 10.0;
};

/// The end-to-end run (tracing off): five metrics per workload.
struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  Metrics metrics;
  std::string info;  ///< one-line JSON object with sample counts etc.
};
RunResult run_end_to_end(const RunArgs& args);
/// The traced run: every per-layer metric.
RunResult run_layers(const RunArgs& args);

}  // namespace perfbench
