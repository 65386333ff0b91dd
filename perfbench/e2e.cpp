// The end-to-end run: one caller, a closed loop, one public call at a
// time, tracing off. Every timing is a per-call sample; the metrics are
// order statistics of the post-warm-up samples of this run.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "cases.hpp"

namespace perfbench {

namespace {

// Cold set-ups per run: forked children until both the count and the time
// floor are met (or the cap is hit), plus this process.
constexpr int kMinSetupChildren = 4;
constexpr int kMaxSetupChildren = 24;
constexpr double kSetupShare = 0.1;  // of --seconds
// Calls that start before both limits are passed are warm-up.
constexpr int kWarmupCalls = 2;
constexpr double kWarmupSeconds = 0.5;
// Enough samples that the tail percentile lies at or above the median.
constexpr int kMinSamples = 2 * kTailBeyond + 1;
// Calls past this many keep a seeded uniform subsample (a reservoir) of
// this size. Every workload's tail is then read near p67 (the 20th of 30;
// tall_qr and socket_qr make 25-40 calls anyway), however fast its calls
// are: otherwise a faster program would make more calls and be judged at a
// more extreme percentile. Not higher: small_qr's calls end on the
// runtime's 1 ms completion poll, and the share that misses a tick moves
// with the host's load (3% to over 50%), flipping a p80-p95 tail between
// two modes from run to run. Every call is still checked.
constexpr int kMaxSamples = 30;
// The loop stops here even short of kMinSamples (then the run fails).
constexpr double kLoopCapSeconds = 120.0;

/// Input conversion plus the first, cold call.
double set_up(Case& c, CallOutcome* out) {
  const auto t0 = Clock::now();
  c.prepare();
  *out = c.call(false);
  return seconds_since(t0);
}

/// Time one cold set-up in a forked child, which starts from this
/// process's untouched state. Returns a negative value if it failed.
double set_up_in_child(Case& c) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    close(fds[0]);
    double s = -1.0;
    try {
      CallOutcome cold;
      const double t = set_up(c, &cold);
      if (check_stats(cold, false).empty()) s = t;
    } catch (...) {
    }
    const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double s = -1.0;
  if (read(fds[0], &s, sizeof s) != sizeof s) s = -1.0;
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) s = -1.0;
  return s;
}

}  // namespace

RunResult run_end_to_end(const RunArgs& args) {
  const Workload& w = *args.workload;
  RunResult r;
  std::string first_error;
  auto fail = [&](const std::string& why) {
    ++r.failed;
    if (first_error.empty()) first_error = why;
  };

  std::unique_ptr<Case> c = make_case(w, args.seed);

  // Set-up: the children first, while this process is still cold.
  std::vector<double> setups;
  const auto setup_start = Clock::now();
  for (int i = 0; i < kMaxSetupChildren; ++i) {
    if (i >= kMinSetupChildren &&
        seconds_since(setup_start) >= kSetupShare * args.seconds) {
      break;
    }
    ++r.attempted;
    const double s = set_up_in_child(*c);
    if (s < 0.0) {
      fail("set-up in a child process failed");
    } else {
      setups.push_back(s);
    }
  }
  ++r.attempted;
  CallOutcome cold;
  std::string cold_error;
  try {
    setups.push_back(set_up(*c, &cold));
  } catch (const std::exception& ex) {
    cold_error = std::string("threw: ") + ex.what();
  }
  c->compute_reference();  // after the set-up, which must find us cold
  if (cold_error.empty()) cold_error = c->check_result();
  if (cold_error.empty()) cold_error = check_stats(cold, false);
  if (!cold_error.empty()) fail("cold call: " + cold_error);
  c->release();

  // The closed loop.
  std::vector<double> samples;
  long long timed = 0;  // post-warm-up calls, sampled or not
  std::mt19937_64 pick(args.seed);
  int warmup = 0;
  const auto loop_start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(loop_start);
    const bool warm = warmup >= kWarmupCalls && elapsed >= kWarmupSeconds;
    if (elapsed >= kLoopCapSeconds ||
        (elapsed >= args.seconds && timed >= kMinSamples)) {
      break;
    }
    if (w.kind == Workload::Kind::Batch) c->prepare();  // in place: refill
    ++r.attempted;
    try {
      CallOutcome out = c->call(false);
      std::string e = c->check_result();
      if (e.empty()) e = check_stats(out, warm);
      c->release();
      if (!e.empty()) {
        fail(e);
        continue;
      }
      if (!warm) {
        ++warmup;
      } else if (timed++ < kMaxSamples) {
        samples.push_back(out.wall);
      } else if (const auto j = pick() % timed; j < kMaxSamples) {
        samples[j] = out.wall;
      }
    } catch (const std::exception& ex) {
      c->release();
      fail(std::string("call threw: ") + ex.what());
    }
  }

  const Summary s = summarize(samples);
  if (s.n < kMinSamples) {
    fail("only " + std::to_string(s.n) + " samples");
  }
  if (s.tail < s.p50) fail("call_tail_ms below call_p50_ms");
  const double setup_s = median(setups);
  r.metrics = {
      {"gflops", s.p50 > 0.0 ? w.call_flops() / s.p50 * 1e-9 : 0.0, "Gflop/s"},
      {"call_p50_ms", s.p50 * 1e3, "ms"},
      {"call_tail_ms", s.tail * 1e3, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  r.correct = r.failed == 0;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"samples\": %d, "
                "\"timed_calls\": %lld, \"warmup_calls\": %d, "
                "\"tail_percentile\": %.4f, "
                "\"tail_samples_beyond\": %d, \"setup_samples\": %zu, "
                "\"loop_s\": %.3f}",
                w.name, args.seed, s.n, timed, warmup, s.tail_pct, kTailBeyond,
                setups.size(), seconds_since(loop_start));
  r.info = buf;
  if (!first_error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %lld of %lld calls failed; first: %s\n",
                 w.name, r.failed, r.attempted, first_error.c_str());
  }
  return r;
}

}  // namespace perfbench
