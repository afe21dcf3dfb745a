#!/usr/bin/env python3
"""Sharded EXPLAIN ANALYZE smoke: the exchanges EXPLAIN predicts are the
bytes Execute charges.

Runs `gplcli --query=all --shards=4 --explain-analyze --explain-json=<json>`
and checks, for every query of the report:

  * each non-gather exchange's predicted bytes equal its actual bytes;
  * those bytes sum to the run's broadcast_bytes;
  * the one gather's actual bytes equal the run's shuffle_bytes;
  * exchange_bytes equals broadcast_bytes + shuffle_bytes.

The first check holds by construction: the simulator ships no bytes, so a
relation exchange is charged from the very DistributedPlan record EXPLAIN
ANALYZE prints, and its actual_bytes is read from that record. The measured
checks are the second (the entries against what Execute charged) and the
third (the gather against what the shards really produced).

Usage: scripts/shard_explain_smoke.py <gplcli> <json-out> [--sf=0.02]
Exits 1 with the first violation, 0 when every query holds.
"""
import argparse
import json
import subprocess
import sys


def check(report):
    """Returns the first violated invariant of one query's report, or None."""
    query = report["query"]
    metrics = report["metrics"]
    relation_bytes = 0
    gathers = []
    for ex in report["exchanges"]:
        if ex["kind"] == "gather":
            gathers.append(ex)
            continue
        if ex["predicted_bytes"] != ex["actual_bytes"]:
            return (f"{query}: {ex['kind']} {ex['table']} predicted "
                    f"{ex['predicted_bytes']} != actual {ex['actual_bytes']}")
        relation_bytes += ex["predicted_bytes"]
    if relation_bytes != metrics["broadcast_bytes"]:
        return (f"{query}: relation exchanges predict {relation_bytes} bytes, "
                f"Execute charged broadcast_bytes={metrics['broadcast_bytes']}")
    if len(gathers) != 1:
        return f"{query}: {len(gathers)} gather exchanges (want 1)"
    if gathers[0]["actual_bytes"] != metrics["shuffle_bytes"]:
        return (f"{query}: gather actual {gathers[0]['actual_bytes']} != "
                f"shuffle_bytes {metrics['shuffle_bytes']}")
    if metrics["exchange_bytes"] != (metrics["broadcast_bytes"] +
                                     metrics["shuffle_bytes"]):
        return (f"{query}: exchange_bytes {metrics['exchange_bytes']} != "
                f"broadcast {metrics['broadcast_bytes']} + shuffle "
                f"{metrics['shuffle_bytes']}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("gplcli")
    parser.add_argument("json_out")
    parser.add_argument("--sf", default="0.02")
    args = parser.parse_args()
    subprocess.run([args.gplcli, "--query=all", f"--sf={args.sf}",
                    "--shards=4", "--explain-analyze",
                    f"--explain-json={args.json_out}"],
                   check=True, stdout=subprocess.DEVNULL)
    with open(args.json_out) as f:
        reports = json.load(f)
    if not reports:
        sys.exit("shard explain smoke: no reports")
    for report in reports:
        problem = check(report)
        if problem is not None:
            sys.exit(f"shard explain smoke: {problem}")
    exchanges = sum(len(r["exchanges"]) for r in reports)
    print(f"shard explain smoke: OK ({len(reports)} queries, {exchanges} "
          f"exchanges match the charged bytes)")


if __name__ == "__main__":
    main()
