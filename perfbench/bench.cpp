#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "blas/simd.hpp"
#include "plan/flops.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr plan::PlanConfig kHier{plan::TreeKind::BinaryOnFlat, 6,
                                 plan::BoundaryMode::Shifted};

using K = Workload::Kind;
// name, kind, m, n, nb, ib, nodes, workers/node, socket, batch, tree
const Workload kWorkloads[] = {
    {"tall_qr", K::Tree, 8192, 1024, 128, 32, 1, 4, false, 1, kHier},
    {"socket_qr", K::Tree, 4096, 1024, 128, 32, 2, 2, true, 1, kHier},
    {"batch_small", K::Batch, 64, 16, 16, 16, 1, 4, false, 4096, kHier},
    {"small_qr", K::Tree, 512, 128, 64, 16, 1, 2, false, 1, kHier},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

}  // namespace

double Workload::call_flops() const {
  return plan::qr_useful_flops(m, n) * batch;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string s;
  for (const Workload& w : kWorkloads) {
    if (!s.empty()) s += ", ";
    s += w.name;
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int>(v.size());
  if (v.empty()) return s;
  s.p50 = median(v);
  if (s.n > kTailBeyond) {
    std::sort(v.begin(), v.end());
    const int idx = s.n - 1 - kTailBeyond;
    s.tail = v[idx];
    s.tail_pct = 100.0 * (idx + 1) / s.n;
  }
  return s;
}

std::string fingerprint_json(const std::string& git_sha) {
  namespace simd = pulsarqr::blas::simd;
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"isa\": \"%s\", \"nproc\": %ld, \"cpu\": \"%s\", "
                "\"l2_bytes\": %ld, \"l3_bytes\": %ld, \"build_type\": "
                "\"%s\", \"git_sha\": \"%s\"}",
                simd::isa_name(simd::active_isa()),
                sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
                l2, l3, PERFBENCH_BUILD_TYPE, json_escape(git_sha).c_str());
  return buf;
}

double peak_rss_mb() {
  // RUSAGE_SELF's ru_maxrss keeps the high-water mark of the image this
  // process exec'd from (for example a Python launcher); VmHWM does not.
  long self_kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kb) == 1) break;
    }
    std::fclose(f);
  }
  if (self_kb <= 0) {
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    self_kb = self.ru_maxrss;
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

}  // namespace perfbench
