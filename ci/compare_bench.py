#!/usr/bin/env python3
"""Exact byte gate.

Compares the `bytes` of each row of a BENCH_<group>.json a harness
experiment just wrote (`artsparse-bench <experiment> --out DIR`) with
the file recorded under `results/`, and exits nonzero on ANY difference,
in either direction. The counts are pure functions of seed and scale on
the in-memory backend, so they are equal or something changed: fewer
bytes fail exactly as more do, and the fix for a difference that is
meant is to re-record the baseline and say why (as
`tests/fragment_golden.rs` is re-pinned).

Usage:
    ci/compare_bench.py CURRENT BASELINE [--ids a,b]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {b["id"]: b["bytes"] for b in doc["benchmarks"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly produced BENCH_<group>.json")
    ap.add_argument("baseline", help="recorded results/BENCH_<group>.json")
    ap.add_argument(
        "--ids",
        default=None,
        help="comma-separated ids to compare (default: every id of the "
        "baseline, all of which must be present in CURRENT)",
    )
    args = ap.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    if args.ids:
        ids = [i.strip() for i in args.ids.split(",") if i.strip()]
    else:
        ids = list(baseline)
    missing = [i for i in ids if i not in current or i not in baseline]
    if missing or not ids:
        print(f"FAIL: id(s) not in both files: {', '.join(missing) or '(none given)'}")
        return 1

    failed = False
    for row_id in ids:
        cur, base = current[row_id], baseline[row_id]
        verdict = "ok" if cur == base else f"DIFFERS ({cur - base:+d})"
        failed |= cur != base
        print(f"{row_id:<24} bytes {base:>12} -> {cur:>12}  {verdict}")
    if failed:
        print(
            f"FAIL: {args.current} differs from {args.baseline}; "
            "if the change is meant, re-record the baseline and say why"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
