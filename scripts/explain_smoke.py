#!/usr/bin/env python3
"""EXPLAIN ANALYZE smoke: the per-segment actuals agree with --metrics-json.

Runs gplcli twice, each invocation emitting an EXPLAIN ANALYZE report and
the --metrics-json of the same run, and checks:

  plain  (`--query=Q8 --mode=gpl`): every listed metrics field of the report
         equals the metrics-json entry, and the segments' actual cycles sum
         to elapsed_cycles;
  fused  (`--query=Q5 --mode=fused`): the fusion fields of the report equal
         the metrics-json entry, fusion fires (fused_segments >= 1, some
         segment reports engine=fused), and the per-segment launches_saved
         and fused_bytes_avoided sum to the run totals.

Writes explain.json, explain_metrics.json, fused_explain.json and
fused_metrics.json into <out-dir> (the caller validates their JSON).

Usage: scripts/explain_smoke.py <gplcli> <out-dir> [--sf=0.02]
Exits 1 with the first violation, 0 when both runs hold.
"""
import argparse
import json
import os
import subprocess
import sys

PLAIN_FIELDS = ("elapsed_cycles", "elapsed_ms", "predicted_ms",
                "channel_bytes", "materialized_bytes", "degraded_segments",
                "fused_segments", "fused_launches_saved",
                "fused_bytes_avoided",
                "tuning_cache_hits", "tuning_cache_misses",
                "subplan_cache_hits", "subplan_cache_misses")
FUSED_FIELDS = ("elapsed_cycles", "elapsed_ms", "fused_segments",
                "fused_launches_saved", "fused_bytes_avoided")


def run(gplcli, sf, query, mode, explain_json, metrics_json):
    """Runs one EXPLAIN ANALYZE invocation; returns (reports, entries) by
    query name."""
    subprocess.run([gplcli, f"--query={query}", f"--mode={mode}",
                    f"--sf={sf}", "--explain-analyze",
                    f"--explain-json={explain_json}",
                    f"--metrics-json={metrics_json}"],
                   check=True, stdout=subprocess.DEVNULL)
    with open(explain_json) as f:
        reports = {r["query"]: r for r in json.load(f)}
    with open(metrics_json) as f:
        entries = {e["query"]: e for e in json.load(f)}
    return reports, entries


def compare_fields(query, report, entry, fields):
    """Returns the first field where the report and metrics-json disagree."""
    for field in fields:
        if report["metrics"][field] != entry[field]:
            return (f"{query}.{field}: explain {report['metrics'][field]} "
                    f"!= metrics-json {entry[field]}")
    return None


def check_plain(reports, entries):
    """Returns (problem or None, number of fields compared)."""
    checked = 0
    for query, report in reports.items():
        entry = entries[query]
        problem = compare_fields(query, report, entry, PLAIN_FIELDS)
        if problem is not None:
            return problem, checked
        checked += len(PLAIN_FIELDS)
        seg_sum = sum(s["actual_cycles"] for s in report["segments"])
        total = entry["elapsed_cycles"]
        # %.9g serialization rounds each segment independently.
        if abs(seg_sum - total) > 1e-6 * max(total, 1.0):
            return f"{query}: segment cycles {seg_sum} != total {total}", checked
    return None, checked


def check_fused(reports, entries):
    """Returns the first violated fused-mode invariant, or None."""
    for query, report in reports.items():
        entry = entries[query]
        problem = compare_fields(query, report, entry, FUSED_FIELDS)
        if problem is not None:
            return problem
        if entry["fused_segments"] < 1:
            return f"{query}: fusion did not fire under --mode=fused"
        segments = report["segments"]
        if "fused" not in {s["engine"] for s in segments}:
            return f"{query}: no segment reports engine=fused"
        saved = sum(s["launches_saved"] for s in segments)
        if saved != entry["fused_launches_saved"]:
            return (f"{query}: segment launches_saved {saved} != total "
                    f"{entry['fused_launches_saved']}")
        avoided = sum(s["fused_bytes_avoided"] for s in segments)
        if avoided != entry["fused_bytes_avoided"]:
            return (f"{query}: segment fused_bytes_avoided {avoided} != total "
                    f"{entry['fused_bytes_avoided']}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("gplcli")
    parser.add_argument("out_dir")
    parser.add_argument("--sf", default="0.02")
    args = parser.parse_args()
    out = lambda name: os.path.join(args.out_dir, name)

    reports, entries = run(args.gplcli, args.sf, "Q8", "gpl",
                           out("explain.json"), out("explain_metrics.json"))
    problem, checked = check_plain(reports, entries)
    if problem is not None:
        sys.exit(f"explain smoke: {problem}")
    print(f"explain smoke: OK ({len(reports)} queries, {checked} fields match)")

    reports, entries = run(args.gplcli, args.sf, "Q5", "fused",
                           out("fused_explain.json"), out("fused_metrics.json"))
    problem = check_fused(reports, entries)
    if problem is not None:
        sys.exit(f"fused explain smoke: {problem}")
    print(f"fused explain smoke: OK ({len(reports)} queries, "
          f"{entries['Q5']['fused_launches_saved']} launches saved)")


if __name__ == "__main__":
    main()
