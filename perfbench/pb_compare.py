"""Compare two result sets of the benchmark, metric by metric.

Usage::

    python3 perfbench/pb_compare.py BASE_DIR CHANGE_DIR

Each directory holds one captured standard output per run (any file name).
A run is identified by its ``stamp`` line (workload and seed) and its
metrics by the final JSON line.  Runs of the two sets are paired by
workload and seed.  For every workload and metric the helper reports each
side's median and quartiles, Hedges' g with a 95% confidence interval, the
pairs the change won, and a verdict:

* ``gain`` / ``loss``: the change won (lost) at least 9 of 10 pairs, ties
  counting for neither, and the medians differ by more than the distance
  between the base's own quartiles;
* ``within bound``: the change's median is no worse than the base's by more
  than the metric's bound in BENCHMARK.json;
* ``worse than bound``: it is;
* ``unresolved``: the base's own spread is wider than the bound and the
  change does not beat every base run.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from statistics import NormalDist, mean, median, quantiles, stdev

HERE = Path(__file__).resolve().parent


def load(directory: Path) -> dict:
    """``{workload: {metric: {seed: value}}}`` from captured runs."""
    runs: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        stamps = [line for line in lines if line.startswith("stamp ")]
        if not lines or not stamps:
            continue
        stamp = json.loads(stamps[-1][len("stamp "):])
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            runs[stamp["workload"]][metric][stamp["seed"]] = entry["value"]
    return runs


def t_quantile(probability: float, degrees: int) -> float:
    """Student's t quantile (Cornish-Fisher expansion around the normal;
    within 0.5% of the exact value from 5 degrees of freedom on)."""
    z = NormalDist().inv_cdf(probability)
    return (
        z
        + (z**3 + z) / (4 * degrees)
        + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * degrees**2)
        + (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / (384 * degrees**3)
    )


def hedges_g(treatment: list, control: list, confidence: float = 0.95):
    """Hedges' g of ``treatment - control`` with its confidence interval:
    pooled standard deviation, small-sample correction, normal-theory
    variance (effsize's ``cohen.d``)."""
    n1, n2 = len(treatment), len(control)
    if n1 < 2 or n2 < 2:
        return math.nan, (math.nan, math.nan)
    pooled = math.sqrt(
        ((n1 - 1) * stdev(treatment) ** 2 + (n2 - 1) * stdev(control) ** 2) / (n1 + n2 - 2)
    )
    if pooled == 0:
        return math.nan, (math.nan, math.nan)
    correction = 1 - 3 / (4 * (n1 + n2) - 9)
    g = (mean(treatment) - mean(control)) / pooled * correction
    spread = math.sqrt((n1 + n2) / (n1 * n2) + 0.5 * g**2 / (n1 + n2)) * correction
    z = t_quantile(1 - (1 - confidence) / 2, n1 + n2 - 2)
    return g, (g - z * spread, g + z * spread)


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = quantiles(values, n=4)
    return first, third


def verdict(base: list, change: list, paired: list, lower_is_better: bool, bound) -> str:
    sign = 1 if lower_is_better else -1
    wins = sum(1 for b, c in paired if sign * (b - c) > 0)
    losses = sum(1 for b, c in paired if sign * (c - b) > 0)
    base_q1, base_q3 = quartiles(base)
    gap = median(change) - median(base)
    if paired and abs(gap) > base_q3 - base_q1:
        if wins >= 0.9 * len(paired):
            return "gain"
        if losses >= 0.9 * len(paired):
            return "loss"
    if bound is None:
        return "no bound"
    every_run_better = max(change) < min(base) if lower_is_better else min(change) > max(base)
    if (base_q3 - base_q1) / median(base) > bound and not every_run_better:
        return "unresolved"
    return "worse than bound" if sign * gap / median(base) > bound else "within bound"


def compare(base_dir: Path, change_dir: Path, spec_path: Path) -> list[str]:
    spec = json.loads(spec_path.read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(base_dir), load(change_dir)
    lines = [
        f"{'workload':<18} {'metric':<30} {'base median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'g [95% CI]':>24} {'won':>6}  verdict"
    ]
    for workload in sorted(set(base) & set(change)):
        for metric in sorted(set(base[workload]) & set(change[workload])):
            by_seed_base, by_seed_change = base[workload][metric], change[workload][metric]
            a, b = list(by_seed_base.values()), list(by_seed_change.values())
            paired = [
                (by_seed_base[seed], by_seed_change[seed])
                for seed in sorted(set(by_seed_base) & set(by_seed_change))
            ]
            entry = metrics.get(metric, {})
            lower = entry.get("better", "lower") == "lower"
            g, (low, high) = hedges_g(b, a)
            wins = sum(1 for x, y in paired if (x - y if lower else y - x) > 0)
            a1, a3 = quartiles(a)
            b1, b3 = quartiles(b)
            lines.append(
                f"{workload:<18} {metric:<30} "
                f"{median(a):>12.5g} [{a1:.4g}, {a3:.4g}] "
                f"{median(b):>12.5g} [{b1:.4g}, {b3:.4g}] "
                f"{g:>7.2f} [{low:.2f}, {high:.2f}] {wins:>3}/{len(paired):<3} "
                f"{verdict(a, b, paired, lower, entry.get('bound'))}"
            )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = HERE.parent / "BENCHMARK.json"
    for line in compare(Path(argv[0]), Path(argv[1]), spec):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
