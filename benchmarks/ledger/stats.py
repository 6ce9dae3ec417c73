"""Percentiles, run-to-run spread and the A/B comparison rule of the ledger."""

from __future__ import annotations

import math
from statistics import median, quantiles
from typing import Iterable, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct`` %
    of the samples at or below it (an observed latency, never interpolated)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worsening(base: float, other: float, better: str) -> float:
    """By what share of ``base`` the ``other`` median is worse (negative =
    better), for a metric where ``better`` is 'lower' or 'higher'."""
    if not base:
        return 0.0
    delta = (other - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for runs ``b`` against base ``a``.

    ``unresolved`` when the run-to-run spread of either side is wider than
    the bound — unless every run of ``b`` reads better than every run of
    ``a``, which no amount of spread can explain away.
    """
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "ok" if all_better else "unresolved"
    return "worse" if worsening(median(a), median(b), better) > bound else "ok"


def compare_rows(
    runs_a: Iterable[dict], runs_b: Iterable[dict], declared: Sequence[dict]
) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides.

    ``runs_*`` are untraced run records ``{"workload", "metrics": {name:
    {"value", "unit"}}}``; ``declared`` is ``BENCHMARK.json``'s
    ``end_to_end`` list (name, unit, better, bound).
    """

    def collect(runs: Iterable[dict]) -> dict[tuple[str, str], list[float]]:
        table: dict[tuple[str, str], list[float]] = {}
        for run in runs:
            for name, cell in run["metrics"].items():
                table.setdefault((run["workload"], name), []).append(cell["value"])
        return table

    side_a, side_b = collect(runs_a), collect(runs_b)
    by_name = {metric["name"]: metric for metric in declared}
    rows = []
    for key in sorted(side_a.keys() & side_b.keys()):
        workload, name = key
        metric = by_name.get(name)
        if metric is None:
            continue
        a, b = side_a[key], side_b[key]
        mid_a, mid_b = median(a), median(b)
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": metric["unit"],
            "median_a": mid_a,
            "median_b": mid_b,
            "ratio_b_over_a": mid_b / mid_a if mid_a else float("nan"),
            "spread_a": spread(a),
            "spread_b": spread(b),
            "bound": metric["bound"],
            "verdict": verdict(a, b, metric["better"], metric["bound"]),
        })
    return rows


def format_rows(rows: Sequence[dict]) -> str:
    """The compare table as GitHub-flavoured markdown."""
    lines = [
        "| workload | metric | unit | median A | median B | B/A (base A) "
        "| spread A | spread B | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['unit']} "
            f"| {row['median_a']:.4g} | {row['median_b']:.4g} "
            f"| {row['ratio_b_over_a']:.3f} "
            f"| {row['spread_a']:.3f} | {row['spread_b']:.3f} "
            f"| {row['bound']:.2f} | {row['verdict']} |"
        )
    return "\n".join(lines)
