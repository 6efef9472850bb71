#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python benchmarks/e2e/compare.py A/ B/ [--claim METRIC@WORKLOAD]

``A/`` (the parent) and ``B/`` (the change) hold untraced result files
written by ``run.py --out``, one run per file or one all-workload run
per file.  For every workload and every ``end_to_end`` metric of
``BENCHMARK.json`` it prints each side's median and quartiles and a
verdict, judged by the metric's bound (a share of A's median):

- ``unresolved`` when either side's spread between runs (interquartile
  range over median) is wider than the bound, unless every B run beats
  every A run, which is ``improved``;
- otherwise ``regressed`` / ``improved`` when B's median is worse /
  better than A's by more than the bound, else ``unchanged``.

A digest that differs between the two sides at the same seed, a higher
``error_rate`` in B, or a B run whose checks failed is a ``FAILURE``.
The exit code is non-zero on any regression, unresolved metric or
failure.

``--claim`` applies the gain rule of a change that claims one: at least
10 pairs of runs at the same seed, alternating which side ran first, B
better in at least 9 of 10 pairs (ties count for neither), and B's
median better than A's by more than A's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory: Path) -> dict[str, list[dict]]:
    """Untraced results in ``directory`` by workload, oldest run first."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for result in data["results"].values() if "results" in data else [data]:
            if not result["trace"]:
                by_workload[result["workload"]].append(result)
    for results in by_workload.values():
        results.sort(key=lambda r: r["started"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a))
    if max(spread(a), spread(b)) > bound:
        b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
        return "improved" if b_beats_all else "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


def failures(a: list[dict], b: list[dict]) -> list[str]:
    """Digest mismatches at equal seeds, a higher error rate, failed checks."""
    found = []
    a_digests = {r["seed"]: r["digest"] for r in a}
    for result in b:
        expected = a_digests.get(result["seed"])
        if expected is not None and result["digest"] != expected:
            found.append(f"seed {result['seed']}: digest differs")
        if not result["correct"]:
            found.append(f"seed {result['seed']}: checks failed")
    a_errors = max(r["metrics"]["error_rate"] for r in a)
    b_errors = max(r["metrics"]["error_rate"] for r in b)
    if b_errors > a_errors:
        found.append(f"error_rate {b_errors:.3g} > {a_errors:.3g}")
    return found


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]],
            benchmark: dict) -> tuple[list[dict], list[str]]:
    """One row per (workload, metric) present on both sides, and failures."""
    rows, found = [], []
    for workload in sorted(set(a) & set(b)):
        found += [f"{workload}: {f}" for f in failures(a[workload], b[workload])]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a_values = [r["metrics"][name] for r in a[workload]]
            b_values = [r["metrics"][name] for r in b[workload]]
            rows.append({
                "workload": workload,
                "metric": name,
                "a": quartiles(a_values),
                "b": quartiles(b_values),
                "spread": max(spread(a_values), spread(b_values)),
                "bound": metric["bound"],
                "verdict": verdict(a_values, b_values, metric["bound"],
                                   metric["better"]),
            })
    for workload in sorted(set(a) ^ set(b)):
        found.append(f"{workload}: results on one side only")
    return rows, found


def claim(a: list[dict], b: list[dict], metric: str, better: str) -> list[str]:
    """Reasons the gain claim fails; empty when it holds."""
    a_by_seed = {r["seed"]: r for r in a}
    pairs = [(a_by_seed[r["seed"]], r) for r in b if r["seed"] in a_by_seed]
    pairs.sort(key=lambda pair: min(pair[0]["started"], pair[1]["started"]))
    reasons = []
    if len(pairs) < MIN_PAIRS:
        reasons.append(f"{len(pairs)} pairs at equal seeds, need {MIN_PAIRS}")
    firsts = [pa["started"] < pb["started"] for pa, pb in pairs]
    if any(x == y for x, y in zip(firsts, firsts[1:])):
        reasons.append("pairs do not alternate which side runs first")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(
        sign * (pb["metrics"][metric] - pa["metrics"][metric]) < 0
        for pa, pb in pairs
    )
    if wins < WIN_SHARE * len(pairs):
        reasons.append(f"B wins {wins} of {len(pairs)} pairs")
    a_values = [pa["metrics"][metric] for pa, _ in pairs] or [0.0]
    b_values = [pb["metrics"][metric] for _, pb in pairs] or [0.0]
    q1, a_median, q3 = quartiles(a_values)
    gain = sign * (a_median - statistics.median(b_values))
    if gain <= q3 - q1:
        reasons.append(
            f"median gain {gain:.4g} not above A's interquartile range {q3 - q1:.4g}"
        )
    return reasons


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent results")
    parser.add_argument("b", type=Path, help="change results")
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = load_results(args.a), load_results(args.b)
    rows, found = compare(a, b, benchmark)

    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        a_side, b_side = (f"{m:.5g} [{q1:.5g}, {q3:.5g}]"
                          for q1, m, q3 in (row["a"], row["b"]))
        a_median, b_median = row["a"][1], row["b"][1]
        change = (b_median - a_median) / abs(a_median) if a_median else float("inf")
        print(f"{row['workload']:<16} {row['metric']:<12} {a_side:>34} "
              f"{b_side:>34} {change:>+8.1%} {row['spread']:>7.1%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    for failure in found:
        print(f"FAILURE: {failure}")
    status = int(bool(found) or any(
        row["verdict"] in ("regressed", "unresolved") for row in rows
    ))

    if args.claim:
        metric, _, workload = args.claim.partition("@")
        declared = {m["name"]: m for m in benchmark["end_to_end"]}
        if metric not in declared or workload not in a or workload not in b:
            print(f"error: no {metric} results for {workload} on both sides",
                  file=sys.stderr)
            return 2
        reasons = claim(a[workload], b[workload], metric,
                        declared[metric]["better"])
        print(f"claim {args.claim}: " + ("holds" if not reasons
                                         else "not met: " + "; ".join(reasons)))
        status = status or int(bool(reasons))
    return status


if __name__ == "__main__":
    sys.exit(main())
