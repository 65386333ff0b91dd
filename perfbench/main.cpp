// perfbench: the repository's benchmark program.
//
//   perfbench --workload tall_qr|socket_qr|batch_small|small_qr
//             --seed N --seconds S --trace 0|1 [--git-sha SHA]
//
// --trace 0 runs the end-to-end loop and reports gflops, call_p50_ms,
// call_tail_ms, setup_s and peak_rss_mb; --trace 1 runs the traced layer
// run. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it give
// the host fingerprint and the run's sample counts.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA]\nworkloads: %s\n",
               why, perfbench::workload_names().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string git_sha = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = perfbench::find_workload(v);
      if (args.workload == nullptr) {
        return usage((std::string("unknown workload ") + v).c_str());
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 60.0) {
        return usage("--seconds must be in (0, 60]");
      }
    } else if (flag == "--trace") {
      trace = std::string(v) == "0" ? 0 : std::string(v) == "1" ? 1 : -2;
      if (trace < 0) return usage("--trace must be 0 or 1");
    } else if (flag == "--git-sha") {
      git_sha = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr) return usage("--workload is required");
  if (trace < 0) trace = 0;

  perfbench::RunResult r;
  try {
    r = trace == 1 ? perfbench::run_layers(args)
                   : perfbench::run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("fingerprint %s\n", perfbench::fingerprint_json(git_sha).c_str());
  std::printf("info %s\n", r.info.c_str());
  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false", r.attempted, r.failed,
              metrics.c_str());
  return 0;
}
