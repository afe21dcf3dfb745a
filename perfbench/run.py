#!/usr/bin/env python3
"""End-to-end benchmark of the GPL engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the runner (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR (default .bench_build) on first use, runs one workload in
its own process, prints every metric by name with its unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones. Exits non-zero when the build fails or any query result differs from
its reference-checked digest.

    python3 perfbench/run.py --refresh-digests

re-checks every query class against the CPU reference executor at each
workload's scale factor and rewrites perfbench/digests.txt.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.txt"
SCALE_FACTORS = ("0.2", "0.5", "1")
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the runner; returns its path or None."""
    out = build_dir()
    runner = out / "perfbench_runner"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not runner.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("error: build step failed: %s\n" % " ".join(step))
            return None
    return runner


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def refresh_digests(runner):
    header = [line for line in DIGESTS.read_text().splitlines()
              if line.startswith("#")]
    body = []
    for sf in SCALE_FACTORS:
        done = subprocess.run([str(runner), "--write-digests", sf],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if done.returncode != 0:
            return 1
        body += done.stdout.splitlines()
    DIGESTS.write_text("\n".join(header + body) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record",
                        help="also write the runner's full record here")
    parser.add_argument("--refresh-digests", action="store_true")
    args = parser.parse_args()

    runner = build()
    if runner is None:
        return 1
    if args.refresh_digests:
        return refresh_digests(runner)
    if not args.workload:
        parser.error("--workload is required")

    command = [str(runner), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--digests", str(DIGESTS)]
    if args.trace:
        command += ["--spans", str(build_dir() / (
            "spans_%s_seed%d.json" % (args.workload, args.seed)))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: runner exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write("error: runner exited with %d\n" % done.returncode)
        return 1
    record = json.loads(lines[-1])
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")

    reported = record["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name in metric_names(args.trace):
        if name not in reported:
            sys.stderr.write("error: runner did not report %s\n" % name)
            return 1
        metrics[name] = reported[name]
    info = record["info"]
    print("workload %s  seed %d  trace %d  queries %s  window %.3f s" % (
        args.workload, args.seed, args.trace, info["samples"],
        info["window_s"]))
    if not args.trace:
        print("query_tail_ms is p%g of %s samples, %s beyond it" % (
            info["tail_percentile"], info["samples"],
            info["tail_samples_beyond"]))
    for name, m in metrics.items():
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
