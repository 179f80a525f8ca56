#!/usr/bin/env python3
"""Guard against benchmark regressions.

Compares a BENCH_<group>.json emitted by the vendored criterion harness
(`BENCH_JSON_DIR=... cargo bench`) against the recorded baseline checked
into `results/`, and exits nonzero when a watched benchmark regresses
more than the threshold.

The default statistic is `bytes` (transferred bytes per read, recorded
from the benchmark's `Throughput::Bytes` annotation): on the simulated
device it is fully deterministic, so a tight threshold holds — a real
code regression in the read pipeline moves bytes or request counts,
while scheduler noise on a shared 1–2 core CI runner moves wall clocks
by tens of percent. Time statistics (`min_ns`/`mean_ns`/`max_ns`)
remain available as a coarse backstop with a generous threshold.

With `--ratio NUM/DEN` no baseline is read: the statistic of benchmark
NUM divided by that of DEN, both from CURRENT — the same run on the same
machine, so the runner's speed divides out — must not exceed
`--max-ratio`. This is how wall time is gated (ROADMAP 1c).

Usage:
    ci/compare_bench.py CURRENT BASELINE [--ids a,b] [--threshold 0.05]
                        [--stat bytes|min_ns|mean_ns|max_ns]
    ci/compare_bench.py CURRENT --ratio NUM/DEN --max-ratio 1.10
                        [--stat min_ns]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {b["id"]: b for b in doc["benchmarks"]}


def check_ratio(current, ratio, stat, max_ratio):
    num_id, _, den_id = ratio.partition("/")
    for bench_id in (num_id, den_id):
        if bench_id not in current or stat not in current[bench_id]:
            print(f"FAIL: {bench_id or ratio!r} has no '{stat}' statistic")
            return 1
    num, den = current[num_id][stat], current[den_id][stat]
    if not den:
        print(f"FAIL: {den_id} {stat} is zero")
        return 1
    value = num / den
    verdict = "ok" if value <= max_ratio else f"REGRESSION (> {max_ratio:.2f})"
    print(f"{num_id} / {den_id}  {stat} {num} / {den} = {value:.3f}  {verdict}")
    return 0 if value <= max_ratio else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly produced BENCH_<group>.json")
    ap.add_argument(
        "baseline",
        nargs="?",
        help="recorded baseline BENCH_<group>.json (not used with --ratio)",
    )
    ap.add_argument(
        "--ratio",
        default=None,
        metavar="NUM/DEN",
        help="gate CURRENT's NUM statistic over its DEN statistic instead "
        "of comparing with a baseline",
    )
    ap.add_argument(
        "--max-ratio",
        type=float,
        default=1.10,
        help="largest allowed --ratio (default 1.10)",
    )
    ap.add_argument(
        "--ids",
        default=None,
        help="comma-separated benchmark ids to compare (default: all ids "
        "present in both files)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="allowed fractional regression (default 0.05 = 5%%)",
    )
    ap.add_argument(
        "--stat",
        default="bytes",
        choices=["bytes", "min_ns", "mean_ns", "max_ns"],
        help="which statistic to compare (default bytes: transferred "
        "bytes per read are deterministic on the simulated device, so "
        "they hold a tight threshold that wall clocks on shared CI "
        "runners cannot)",
    )
    args = ap.parse_args()

    current = load(args.current)
    if args.ratio:
        return check_ratio(current, args.ratio, args.stat, args.max_ratio)
    if not args.baseline:
        ap.error("BASELINE is required unless --ratio is given")
    baseline = load(args.baseline)
    if args.ids:
        ids = [i.strip() for i in args.ids.split(",") if i.strip()]
        missing = [i for i in ids if i not in current or i not in baseline]
        if missing:
            print(f"FAIL: benchmark id(s) not found: {', '.join(missing)}")
            return 1
    else:
        ids = [i for i in baseline if i in current]
    if not ids:
        print("FAIL: no common benchmark ids to compare")
        return 1

    failed = False
    for bench_id in ids:
        if args.stat not in current[bench_id] or args.stat not in baseline[bench_id]:
            print(f"FAIL: {bench_id} has no '{args.stat}' statistic")
            return 1
        cur = current[bench_id][args.stat]
        base = baseline[bench_id][args.stat]
        if base:
            delta = cur / base - 1.0
        else:
            delta = 0.0 if cur == 0 else float("inf")
        verdict = "ok"
        if delta > args.threshold:
            verdict = f"REGRESSION (> {args.threshold:.0%})"
            failed = True
        print(
            f"{bench_id:<24} {args.stat} {base:>12} -> {cur:>12} "
            f"({delta:+.1%})  {verdict}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
