#!/usr/bin/env python3
"""Determinism check of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/check_determinism.py [--seconds 5] [--workload NAME ...]

For each workload it runs perfbench/run.py three times: untraced and traced
with one seed, and untraced with the next seed. It asserts that

  * every query result matched its reference-checked digest in every run;
  * the traced run measures the same program: per query class the simulated
    ms, predicted ms, shard exchange bytes, stitched rows, simulated
    exchange and merge ms and cacheable-segment count are bit-identical,
    and so are model_error_pct and sim_ms_per_query over the common prefix
    of the two runs' query streams;
  * the same seed gives the same query stream, and another seed another
    order or draw over the same classes.

Subplan-cache hit and miss totals of serve_zipf_sf02 depend on timing and
are not compared. Exits 1 if any assertion fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("power_sf1", "serve_zipf_sf02", "sharded_x4_sf05")
EXACT_FIELDS = ("sim_ms", "predicted_ms", "exchange_bytes", "stitched_rows",
                "sim_exchange_ms", "sim_merge_ms", "cacheable_segments")


def run(workload, seed, trace, seconds, record):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--record", str(record)],
        stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    if done.returncode != 0:
        raise SystemExit("FAIL %s seed %d trace %d: run.py exited %d" %
                         (workload, seed, trace, done.returncode))
    return json.loads(record.read_text())


def prefix_sim_ms(record, n):
    per_class = record["info"]["per_class"]
    stream = record["info"]["stream"][:n]
    return sum(per_class[c]["sim_ms"] for c in stream) / len(stream)


def check(workload, seed, seconds, scratch):
    untraced = run(workload, seed, 0, seconds, scratch / "untraced.json")
    traced = run(workload, seed, 1, seconds, scratch / "traced.json")
    other = run(workload, seed + 1, 0, seconds, scratch / "other.json")
    failures = []
    for name, rec in (("untraced", untraced), ("traced", traced),
                      ("other seed", other)):
        if not rec["correct"] or rec["failed"]:
            failures.append("%s run: %d of %d queries failed" %
                            (name, rec["failed"], rec["attempted"]))
    a, b = untraced["info"]["per_class"], traced["info"]["per_class"]
    for cls in sorted(set(a) & set(b)):
        for field in EXACT_FIELDS:
            if a[cls][field] != b[cls][field]:
                failures.append("%s %s: %r untraced vs %r traced" %
                                (cls, field, a[cls][field], b[cls][field]))
    if set(a) != set(b):
        failures.append("classes differ: %s vs %s" % (sorted(a), sorted(b)))
    error_a = untraced["end_to_end"]["model_error_pct"]["value"]
    error_b = traced["end_to_end"]["model_error_pct"]["value"]
    if error_a != error_b:
        failures.append("model_error_pct %r vs %r" % (error_a, error_b))
    sa, sb = untraced["info"]["stream"], traced["info"]["stream"]
    n = min(len(sa), len(sb))
    if sa[:n] != sb[:n]:
        failures.append("same seed gave different query streams")
    elif prefix_sim_ms(untraced, n) != prefix_sim_ms(traced, n):
        failures.append("sim_ms_per_query over the first %d queries "
                        "differs" % n)
    so = other["info"]["stream"]
    m = min(len(sa), len(so))
    if sa[:m] == so[:m]:
        failures.append("seeds %d and %d gave the same stream" %
                        (seed, seed + 1))
    if set(other["info"]["per_class"]) != set(a):
        failures.append("seed %d drew another class set" % (seed + 1))
    for failure in failures:
        print("FAIL %s: %s" % (workload, failure))
    if not failures:
        print("ok   %s: %d untraced / %d traced queries, %d classes, "
              "model_error_pct %.6f" % (workload, len(sa), len(sb), len(a),
                                        error_a))
    return not failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    # Records go to the build directory run.py uses.
    scratch = HERE.parent / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    scratch.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workload or WORKLOADS:
        ok &= check(workload, args.seed, args.seconds, scratch)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
