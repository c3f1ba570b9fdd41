"""Turning a run's raw samples into metrics, the report and the JSON line."""

from __future__ import annotations

import math
import os
import platform
import sys
from statistics import median

from pb_trace import LAYER_FUNCTIONS, ROOT

#: The end-to-end metrics every workload reports (BENCHMARK.json order).
#: ``stageN_s`` is the workload's N-th timed phase, per ``Workload.stages``.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("stage1_s", "s"),
    ("stage2_s", "s"),
    ("stage3_s", "s"),
    ("stage4_s", "s"),
)

#: Registry counters reported per round (from the server's ``/metrics`` on
#: ``served_store``).
COUNTERS: tuple[str, ...] = (
    "engine.kernel.compiles",
    "engine.kernel.hits",
    "engine.store.builds",
    "engine.store.hits",
    "engine.dispatch.vector",
    "engine.dispatch.loop",
    "sweep.subsets.examined",
    "sweep.subsets.skipped",
    "sweep.orderings.examined",
    "sweep.identities.checked",
    "session.verdict_cache.hits",
    "session.verdict_cache.misses",
    "session.store.hits",
    "store.canon.hits",
    "store.canon.misses",
    "store.canon.tie_bailouts",
    "store.disk.hits",
    "store.disk.writes",
    "store.witness.revalidated",
    "store.witness.stale",
    "parallel.pool.forks",
    "worker.engine.kernel.compiles",
    "service.requests",
    "service.errors",
)

#: Client-side routes of ``served_store``.
ROUTES: tuple[str, ...] = ("add", "post_equivalences", "get_explain")

RATIOS: tuple[str, ...] = (
    "engine.kernel.hit_rate",
    "store.canon.hit_rate",
    "sweep.subsets.skip_ratio",
)


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)`` (BENCHMARK.json order)."""
    spec: list[tuple[str, str]] = []
    for function in LAYER_FUNCTIONS:
        spec += [(f"{function}.calls", "count"), (f"{function}.self_s", "s")]
    spec += [(name, "count") for name in COUNTERS]
    for route in ROUTES:
        spec += [(f"route.{route}.p50_ms", "ms"), (f"route.{route}.count", "count")]
    spec += [(name, "ratio") for name in RATIOS]
    spec += [
        ("parallel.efficiency", "ratio"),
        ("trace.overhead", "ratio"),
        ("trace.unattributed_s", "s"),
    ]
    return spec


def quantile(values, share: float) -> float:
    """The nearest-rank quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def tail_percentile(values) -> tuple[float, float]:
    """``(percentile, value)`` for the highest of p99.9/p99/p95/p90/p75/p50
    that has at least ten samples beyond it."""
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1 - percentile / 100) >= 10:
            return percentile, quantile(values, percentile / 100)
    return 50.0, quantile(values, 0.5)


def named_metrics(workload, raw: dict, setup_s: float, peak_rss_mb: float) -> dict:
    """``{name: (value, unit, samples)}`` under the workload's own names;
    ``samples`` is the list a median was taken over, when there is one."""
    samples = raw["samples"]
    named = {"setup_s": (setup_s, "s", None), "peak_rss_mb": (peak_rss_mb, "MB", None)}
    for metric, values in samples.items():
        if metric.endswith("_s") and metric != "read_s":
            named[metric] = (median(values), "s", values)
    for metric, value in workload.derived(samples).items():
        named[metric] = (value, "s", None)
    reads = samples.get("read_s")
    if reads:
        named["read_p50_s"] = (quantile(reads, 0.5), "s", None)
        named["read_p90_s"] = (quantile(reads, 0.9), "s", None)
        named["read_p50_ms"] = (quantile(reads, 0.5) * 1000, "ms", None)
        percentile, value = tail_percentile(reads)
        named[f"read_p{percentile:g}_ms"] = (value * 1000, "ms", None)
        named["reads"] = (len(reads), "count", None)
    return named


def end_to_end_metrics(workload, raw: dict, named: dict, scale: float) -> dict:
    """The BENCHMARK.json metrics, with times in nominal seconds
    (:mod:`pb_reference`): each phase sample is scaled by the host speed
    sampled around it; set-up and read latencies, which are not timed
    phases, by the run's median host speed."""
    metrics = {}
    stage_of = {f"stage{index}_s": stage for index, stage in enumerate(workload.stages, 1)}
    for name, unit in END_TO_END:
        source = stage_of.get(name, name)
        if source in raw["nominal"]:
            value = median(raw["nominal"][source])
        else:
            value = named[source][0] * (scale if unit == "s" else 1)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def merge_tables(tables: list) -> dict[str, dict]:
    """The traced rounds' span tables summed per span name."""
    merged: dict[str, dict] = {}
    for table in tables:
        for name, entry in table.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
    return merged


def per_layer_metrics(raw: dict, named: dict) -> dict:
    """The BENCHMARK.json per-layer metrics, per round."""
    values: dict[str, float] = {}
    traced_rounds = max(1, len(raw["tables"]))
    merged = merge_tables(raw["tables"])
    for function in LAYER_FUNCTIONS:
        entry = merged.get(function, {"calls": 0, "self_s": 0.0})
        values[f"{function}.calls"] = entry["calls"] / traced_rounds
        values[f"{function}.self_s"] = entry["self_s"] / traced_rounds
    counting_rounds = max(1, raw["counting_rounds"])
    counters = raw["counters"]
    for name in COUNTERS:
        values[name] = counters.get(name, 0) / counting_rounds
    for route in ROUTES:
        latencies = raw["samples"].get(f"route.{route}", [])
        values[f"route.{route}.p50_ms"] = quantile(latencies, 0.5) * 1000 if latencies else 0.0
        values[f"route.{route}.count"] = len(latencies) / counting_rounds
    values["engine.kernel.hit_rate"] = _rate(
        counters.get("engine.kernel.hits", 0) + counters.get("worker.engine.kernel.hits", 0),
        counters.get("engine.kernel.compiles", 0) + counters.get("worker.engine.kernel.compiles", 0),
    )
    values["store.canon.hit_rate"] = _rate(
        counters.get("store.canon.hits", 0), counters.get("store.canon.misses", 0)
    )
    values["sweep.subsets.skip_ratio"] = _rate(
        counters.get("sweep.subsets.skipped", 0), counters.get("sweep.subsets.examined", 0)
    )
    serial, parallel = named.get("decide_s"), named.get("decide_w2_s")
    values["parallel.efficiency"] = serial[0] / (2 * parallel[0]) if serial and parallel else 0.0
    traced_walls = [table[ROOT]["total_s"] for table in raw["tables"] if ROOT in table]
    untraced = raw["untraced_walls"]
    values["trace.overhead"] = (
        median(traced_walls) / median(untraced) if traced_walls and untraced else 0.0
    )
    values["trace.unattributed_s"] = merged.get(ROOT, {"self_s": 0.0})["self_s"] / traced_rounds
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_spec()}


def _rate(useful: float, other: float) -> float:
    return useful / (useful + other) if useful + other else 0.0


def stamp(arguments, workload) -> dict:
    """The environment a result was measured in."""
    from repro.engine import active_engine

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload.name,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "scale": "tiny" if arguments.tiny else "full",
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "engine": active_engine(),
        "host": platform.machine(),
    }


def print_report(arguments, workload, named: dict, raw: dict, tally, reference) -> None:
    import json

    print(f"perfbench {workload.name}: {raw['rounds']} rounds in {arguments.seconds:g} s"
          f" (trace={arguments.trace})")
    print("stamp " + json.dumps(stamp(arguments, workload)))
    print(f"  host speed: reference loop median {median(reference.samples):.6g} s"
          f" (n={len(reference.samples)}, run scale {reference.scale():.6g});"
          f" times below are measured seconds, the JSON line's are nominal")
    for name, (value, unit, values) in sorted(named.items()):
        spread = ""
        if values:
            spread = (f"  [q1 {quantile(values, 0.25):.6g}, q3 {quantile(values, 0.75):.6g}]"
                      f" (n={len(values)}) mean {sum(values)/len(values):.6g}")
        print(f"  {name:<22} {value:.6g} {unit}{spread}")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':<22} {rate:.6g} ratio  ({tally.failed} failed / {tally.attempted} attempted)")
    if raw["tables"]:
        print_layer_table(raw["tables"])


def print_layer_table(tables: list) -> None:
    """Per-layer calls, total and self seconds per traced round, by self time."""
    rounds = len(tables)
    merged = merge_tables(tables)
    wall = merged.get(ROOT, {"total_s": 0.0})["total_s"] / rounds
    print(f"  layer table (per traced round, {rounds} rounds, wall {wall:.4f} s):")
    print(f"    {'span':<40} {'calls':>10} {'total_s':>10} {'self_s':>10} {'self%':>6}")
    for name, entry in sorted(merged.items(), key=lambda item: -item[1]["self_s"]):
        own = entry["self_s"] / rounds
        share = 100 * own / wall if wall else 0.0
        print(f"    {name:<40} {entry['calls'] / rounds:>10.1f} {entry['total_s'] / rounds:>10.4f}"
              f" {own:>10.4f} {share:>6.1f}")
    sys.stdout.flush()
