#!/usr/bin/env python3
"""Build and run the perfbench program; see perfbench/README.md.

One run (from the repository root):
    python3 perfbench/run.py --workload tall_qr --seed 1 --seconds 20 --trace 0
prints the host fingerprint, the run's sample counts and, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}. --out FILE
also writes all of it to a result file.

Steadiness mode runs the workloads interleaved, alternating their order each
round, and prints each metric's median and quartile spread across runs:
    python3 perfbench/run.py --steadiness 10 --seconds 20 [--workloads a,b]
(the workloads default to those BENCHMARK.json names).

Compare mode refuses result files whose host fingerprints differ:
    python3 perfbench/run.py --compare base.json change.json
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
# Fingerprint keys that describe the host and build; the git SHA is what an
# A/B comparison varies, so it is shown but not required to match.
HOST_KEYS = ("isa", "nproc", "cpu", "l2_bytes", "l3_bytes", "build_type")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then bring the perfbench binary up to date; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_sha():
    """HEAD's SHA read from the checkout's own .git, or "none"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def run_once(exe, workload, seed, seconds, trace, echo=True):
    """Run the perfbench binary once; returns (exit code, fingerprint, info, result)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
    fingerprint = info = result = None
    for line in out.splitlines():
        if echo:
            print(line, flush=True)
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
        elif line.startswith("info "):
            info = json.loads(line[len("info "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return proc.returncode, fingerprint, info, result


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def steadiness(args, exe):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec.get("workloads", [])])
    if not workloads:
        fail("no workloads: pass --workloads or add BENCHMARK.json", 2)
    bounds = ({m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
              if args.trace == 0 else {})
    values = {}  # (workload, metric) -> [values]
    units = {}
    failed_runs = 0
    for rnd in range(args.steadiness):
        order = workloads if rnd % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed + rnd
            code, fp, info, res = run_once(exe, w, seed, args.seconds,
                                           args.trace, echo=False)
            ok = code == 0 and res is not None and res["correct"]
            if not ok:
                failed_runs += 1
            print("round %d %s seed %d: %s %s" % (
                rnd, w, seed, "ok" if ok else "FAILED",
                json.dumps(res["metrics"] if res else None)), flush=True)
            if res is None:
                continue
            for name, m in res["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
                units[name] = m["unit"]
    print()
    print("%-12s %-26s %14s %14s %14s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    for (w, name), v in values.items():
        if len(v) < 2:
            continue
        q1, med, q3, spread = quartile_spread(v)
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "median drift only"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        print("%-12s %-26s %14.6g %14.6g %14.6g %7.2f%% %6s  %s" % (
            w, name + " [" + units[name] + "]", med, q1, q3, 100 * spread,
            "" if bound is None else "%g" % bound, verdict))
    print("failed runs: %d" % failed_runs)
    return 1 if failed_runs else 0


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    diff = [k for k in HOST_KEYS
            if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if diff:
        for k in diff:
            print("  %s: %r vs %r" % (k, a["fingerprint"].get(k),
                                      b["fingerprint"].get(k)),
                  file=sys.stderr)
        fail("refusing to compare results from different hosts or builds", 3)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or run modes", 3)
    print("%s, git %s -> %s" % (a["workload"], a["fingerprint"]["git_sha"],
                                b["fingerprint"]["git_sha"]))
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        rel = "%+.2f%%" % (100 * (vb - va) / va) if va else "n/a"
        print("%-28s %14.6g %14.6g %9s %s" % (name, va, vb, rel,
                                               ma[name]["unit"]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--workloads", help="comma-separated; default: those in "
                   "BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the result to this JSON file")
    p.add_argument("--steadiness", type=int, metavar="ROUNDS")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    exe = build()
    if args.steadiness:
        return steadiness(args, exe)
    if not args.workload:
        fail("--workload is required", 2)
    code, fp, info, res = run_once(exe, args.workload, args.seed,
                                   args.seconds, args.trace)
    if code != 0 or res is None:
        fail("perfbench exited with code %d" % code)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "fingerprint": fp, "info": info, "result": res}, f,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
