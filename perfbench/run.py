#!/usr/bin/env python3
"""Build and run the gpustatic benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0
      one run; the last stdout line is the JSON result
  python3 perfbench/run.py --report [--seed N] [--seconds S]
      every workload untraced, then every end-to-end metric by name and unit
  python3 perfbench/run.py --self-check
      short runs: two untraced and two traced runs per workload must agree
      on tuned_regret, model_spearman and every *_per_op count

The library and the perfbench binary are built from source into $CARGO_TARGET_DIR
(default .bench_build) with CMake, Release, before the first run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["serve_warm", "serve_cold", "warp_profile", "retrain"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configure (once) and build the perfbench target; logs go to stderr."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def run_once(binary, out, workload, seed, seconds, trace, echo=True):
    """One benchmark run; returns (exit code, parsed stdout JSON lines)."""
    proc = subprocess.Popen(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--build-dir", out],
        stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass
    return proc.returncode, lines


def report(binary, out, seed, seconds):
    rows = []
    ok = True
    for w in WORKLOADS:
        rc, lines = run_once(binary, out, w, seed, seconds, 0, echo=False)
        if rc != 0 or not lines:
            print(f"{w}: run failed", file=sys.stderr)
            ok = False
            continue
        result = lines[-1]
        ok = ok and result["correct"]
        rows.append((w, "op_fail_count", result["failed"], "count"))
        for name, m in sorted(result["metrics"].items()):
            rows.append((w, name, m["value"], m["unit"]))
    print(f"{'workload':<14} {'metric':<16} {'value':>14}  unit")
    for w, name, value, unit in rows:
        print(f"{w:<14} {name:<16} {value:>14.6g}  {unit}")
    return 0 if ok else 1


def self_check(binary, out):
    """Counts and quality figures must repeat exactly across runs and
    between the traced and untraced run of one seed."""
    failures = []
    seed, seconds = 7, 1
    for w in WORKLOADS:
        quality = []
        counts = []
        for trace in (0, 0, 1, 1):
            rc, lines = run_once(binary, out, w, seed, seconds, trace,
                                 echo=False)
            if rc != 0 or len(lines) < 2 or not lines[-1]["correct"]:
                failures.append(f"{w}: trace={trace} run failed")
                break
            detail, result = lines[-2], lines[-1]
            quality.append((detail["tuned_regret"], detail["model_spearman"]))
            if trace:
                counts.append({k: v["value"] for k, v in
                               result["metrics"].items()
                               if k.endswith("_per_op") or k == "learn.rows"})
        if len(set(quality)) > 1:
            failures.append(f"{w}: quality figures differ {quality}")
        if len(counts) == 2 and counts[0] != counts[1]:
            failures.append(f"{w}: per-op counts differ {counts}")
        print(f"{w}: quality {quality[0] if quality else None} "
              f"counts {counts[0] if counts else None}")
    for f in failures:
        print("FAIL", f)
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.report or args.self_check):
        ap.error("give --workload, --report or --self-check")

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.report:
        return report(binary, out, args.seed, args.seconds)
    if args.self_check:
        return self_check(binary, out)
    rc, _ = run_once(binary, out, args.workload, args.seed, args.seconds,
                     args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
