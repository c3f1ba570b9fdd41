"""Experiment E9 — the engine ladder at warehouse scale.

Two acceptance claims share this workload (a scaled :func:`build_warehouse`,
default ``stores=50, sales_per_store=200``, ~8k facts, evaluated over the
analyst catalog):

* **naive -> planned** (PR 1): the planned, index-probing engine is >= 5x
  faster than the nested-loop reference, measured *cold* — a fresh
  ``Database`` with plan and Γ caches cleared, so the timing includes
  planning and lazy index construction.

* **planned -> compiled** (the columnar-engine PR): the code-generated
  columnar kernels are >= 5x faster than the planned interpreter at the
  ``evaluate()`` level, measured *warm* — stores interned, kernels compiled,
  memoized Γ dropped between repetitions.  Warm is the representative regime:
  the counterexample sweep evaluates thousands of (subset, ordering) cells
  through the same per-plan kernels, so interning and compilation amortize to
  noise while the per-evaluation cost is paid every cell.  The ratio is the
  median over interleaved planned/compiled passes, so one slow pass on a
  shared host cannot decide the gate.

The residual gap on aggregate-heavy queries is dominated by exact
``Fraction`` arithmetic inside the aggregate functions — α-application cost
both engines share — so the per-query floor is asserted only on the
kernel-dominated queries while the catalog-wide total must clear the floor.

Run under pytest (``pytest benchmarks/bench_evaluator_scaling.py``) or
standalone (``python benchmarks/bench_evaluator_scaling.py [--quick]
[--json PATH]``).  Set ``REPRO_BENCH_QUICK=1`` for the CI smoke
configuration (a smaller warehouse and relaxed speedup floors, so slow
shared runners do not flake).
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.engine import (
    clear_evaluation_caches,
    clear_plan_cache,
    engine_scope,
    evaluate,
    naive_satisfying_assignments,
    satisfying_assignments,
)
from repro.engine.evaluator import _satisfying_assignments_cached
from repro.workloads import build_warehouse

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Scaled warehouse configuration (quick mode shrinks it for CI smoke runs).
SCALE = (
    dict(stores=10, products=8, sales_per_store=40, seed=7)
    if QUICK
    else dict(stores=50, products=8, sales_per_store=200, seed=7)
)

#: Queries whose shape (joins on bound columns, pushed filters) the planner
#: accelerates; the aggregate speedup is measured over the whole catalog.
JOIN_HEAVY = ["large_sales_count", "premium_returned_revenue", "premium_kept_products"]

#: Queries where the compiled kernels dominate end-to-end time (small answer
#: sets, cheap or absent α-application); each must clear KERNEL_FLOOR
#: individually at full scale.  The aggregate-heavy rest of the catalog is
#: held only to the catalog-wide COMPILED_FLOOR.
KERNEL_WINS = ["premium_kept_products", "revenue_per_store", "revenue_per_store_alt"]

#: Acceptance floor for the whole-catalog naive->planned speedup (ISSUE 1
#: demands >= 5x at full scale; quick mode keeps a smaller cushion for noisy
#: CI runners).
SPEEDUP_FLOOR = 2.0 if QUICK else 5.0

#: Acceptance floor for the whole-catalog planned->compiled speedup at the
#: evaluate() level (>= 5x warm at full scale; measured 5.5-6.1x on a 2-CPU
#: host, with the shared Fraction-arithmetic α cost bounding the total).
COMPILED_FLOOR = 1.5 if QUICK else 5.0

#: Per-query floor for the kernel-dominated queries (measured 14-23x).
KERNEL_FLOOR = 10.0

#: Interleaved planned/compiled passes whose median ratio the gate reads.
WARM_PASSES = 5


def _best_of(callable_, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(warehouse) -> dict[str, tuple[float, float]]:
    """Per-query ``(naive_seconds, planned_seconds)``, fully cold each run.

    The planned run is timed against a freshly rebuilt ``Database`` with the
    plan and Γ caches cleared, so the measurement includes planning and lazy
    index construction — not just probing warm indexes.
    """
    from repro.datalog.database import Database

    timings: dict[str, tuple[float, float]] = {}
    for name, query in sorted(warehouse.queries.items()):
        naive = _best_of(lambda: naive_satisfying_assignments(query, warehouse.database))

        planned = float("inf")
        for _ in range(3):
            fresh_database = Database(warehouse.database.facts)  # no warm indexes
            clear_evaluation_caches()
            clear_plan_cache()
            with engine_scope("planned"):
                start = time.perf_counter()
                satisfying_assignments(query, fresh_database)
            planned = min(planned, time.perf_counter() - start)
        timings[name] = (naive, planned)
    return timings


def _measure_warm(warehouse, repeats: int = 5) -> tuple[dict[str, float], dict[str, float]]:
    """Per-query warm ``evaluate()`` seconds of the planned and the compiled
    engine, ``(planned, compiled)``.

    A first untimed call per engine interns the store, compiles the kernels,
    plans the conditions and builds the indexes; each timed repetition then
    drops only the memoized Γ results so both engines recompute the
    evaluation proper.  The two engines' repetitions alternate, so a burst
    of load on a shared host slows both sides of the ratio alike.
    """
    database = warehouse.database
    timings: dict[str, dict[str, float]] = {"planned": {}, "compiled": {}}
    for name, query in sorted(warehouse.queries.items()):
        for mode in timings:
            with engine_scope(mode):
                evaluate(query, database)  # warm kernels, store, plans, indexes
            timings[mode][name] = float("inf")
        for _ in range(repeats):
            for mode, seconds in timings.items():
                with engine_scope(mode):
                    _satisfying_assignments_cached.cache_clear()
                    start = time.perf_counter()
                    evaluate(query, database)
                    seconds[name] = min(seconds[name], time.perf_counter() - start)
    return timings["planned"], timings["compiled"]


def _median_warm(warehouse):
    """``(planned, compiled, overall)``: per-query median warm seconds of
    each engine and the median catalog-wide planned/compiled ratio over
    ``WARM_PASSES`` runs of :func:`_measure_warm`."""
    runs = [_measure_warm(warehouse) for _ in range(WARM_PASSES)]
    overall = statistics.median(
        sum(planned.values()) / sum(compiled.values()) for planned, compiled in runs
    )

    def per_query(side: int) -> dict[str, float]:
        return {
            name: statistics.median(run[side][name] for run in runs) for name in runs[0][side]
        }

    return per_query(0), per_query(1), overall


@pytest.mark.paper_artifact("Engine substrate — indexed/planned join evaluation")
def test_planned_engine_speedup(report_lines):
    warehouse = build_warehouse(**SCALE)
    mode = "quick" if QUICK else "full"

    # The two engines must agree before their timings mean anything.
    with engine_scope("planned"):
        for name, query in sorted(warehouse.queries.items()):
            naive = naive_satisfying_assignments(query, warehouse.database)
            planned = satisfying_assignments(query, warehouse.database)
            assert sorted(naive, key=repr) == sorted(planned, key=repr), name

    timings = _measure(warehouse)
    total_naive = sum(naive for naive, _ in timings.values())
    total_planned = sum(planned for _, planned in timings.values())
    overall = total_naive / total_planned

    for name, (naive, planned) in sorted(timings.items()):
        report_lines.append(
            f"[E9] {name:26s} ({mode}, {warehouse.fact_count} facts): "
            f"naive {naive * 1000:8.2f} ms, planned {planned * 1000:7.2f} ms, "
            f"speedup {naive / planned:6.1f}x"
        )
    report_lines.append(
        f"[E9] {'TOTAL':26s} ({mode}, {warehouse.fact_count} facts): "
        f"naive {total_naive * 1000:8.2f} ms, planned {total_planned * 1000:7.2f} ms, "
        f"speedup {overall:6.1f}x (floor {SPEEDUP_FLOOR}x)"
    )

    assert overall >= SPEEDUP_FLOOR, (
        f"planned engine only {overall:.1f}x faster than the naive reference "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    # The join-heavy queries are where the indexes matter most; each must
    # individually clear the floor at full scale.
    if not QUICK:
        for name in JOIN_HEAVY:
            naive, planned = timings[name]
            assert naive / planned >= SPEEDUP_FLOOR, (
                f"{name}: {naive / planned:.1f}x < {SPEEDUP_FLOOR}x"
            )


@pytest.mark.paper_artifact("Engine substrate — columnar compiled evaluation")
def test_compiled_engine_speedup(report_lines):
    warehouse = build_warehouse(**SCALE)
    mode = "quick" if QUICK else "full"

    # Agreement first: evaluate() must be engine-invariant on the catalog.
    for name, query in sorted(warehouse.queries.items()):
        with engine_scope("planned"):
            planned_result = evaluate(query, warehouse.database)
        with engine_scope("compiled"):
            compiled_result = evaluate(query, warehouse.database)
        assert planned_result == compiled_result, name

    planned, compiled, overall = _median_warm(warehouse)
    total_planned = sum(planned.values())
    total_compiled = sum(compiled.values())

    for name in sorted(planned):
        report_lines.append(
            f"[E9c] {name:26s} ({mode}, {warehouse.fact_count} facts): "
            f"planned {planned[name] * 1000:7.2f} ms, "
            f"compiled {compiled[name] * 1000:7.2f} ms, "
            f"speedup {planned[name] / compiled[name]:6.1f}x"
        )
    report_lines.append(
        f"[E9c] {'TOTAL':26s} ({mode}, {warehouse.fact_count} facts): "
        f"planned {total_planned * 1000:7.2f} ms, "
        f"compiled {total_compiled * 1000:7.2f} ms, "
        f"speedup {overall:6.1f}x (median of {WARM_PASSES} passes, floor {COMPILED_FLOOR}x)"
    )

    assert overall >= COMPILED_FLOOR, (
        f"compiled engine only {overall:.1f}x faster than the planned engine "
        f"(floor {COMPILED_FLOOR}x)"
    )
    if not QUICK:
        for name in KERNEL_WINS:
            ratio = planned[name] / compiled[name]
            assert ratio >= KERNEL_FLOOR, f"{name}: {ratio:.1f}x < {KERNEL_FLOOR}x"


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small warehouse + relaxed floors (CI smoke)"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write {name, wall_s, speedup, engine} records to PATH"
    )
    arguments = parser.parse_args()
    quick = arguments.quick or QUICK
    scale = (
        dict(stores=10, products=8, sales_per_store=40, seed=7)
        if quick
        else dict(stores=50, products=8, sales_per_store=200, seed=7)
    )
    warehouse = build_warehouse(**scale)
    print(f"warehouse: {warehouse.fact_count} facts ({scale})")

    timings = _measure(warehouse)
    total_naive = sum(naive for naive, _ in timings.values())
    total_planned_cold = sum(planned for _, planned in timings.values())
    for name, (naive, planned) in sorted(timings.items()):
        print(
            f"{name:26s} naive {naive * 1000:8.2f} ms  planned {planned * 1000:7.2f} ms  "
            f"speedup {naive / planned:6.1f}x"
        )
    print(f"{'TOTAL':26s} naive {total_naive * 1000:8.2f} ms  planned "
          f"{total_planned_cold * 1000:7.2f} ms  speedup "
          f"{total_naive / total_planned_cold:6.1f}x")

    planned_warm, compiled_warm, overall = _median_warm(warehouse)
    total_planned = sum(planned_warm.values())
    total_compiled = sum(compiled_warm.values())
    print()
    for name in sorted(planned_warm):
        print(
            f"{name:26s} planned {planned_warm[name] * 1000:7.2f} ms  "
            f"compiled {compiled_warm[name] * 1000:7.2f} ms  "
            f"speedup {planned_warm[name] / compiled_warm[name]:6.1f}x"
        )
    print(f"{'TOTAL':26s} planned {total_planned * 1000:7.2f} ms  compiled "
          f"{total_compiled * 1000:7.2f} ms  speedup "
          f"{overall:6.1f}x (median of {WARM_PASSES} passes)")

    if arguments.json:
        from _jsonlog import json_record, write_json_records

        write_json_records(
            arguments.json,
            [
                json_record("evaluator_scaling.naive_total", total_naive, 1.0, engine="naive"),
                json_record(
                    "evaluator_scaling.planned_total_cold",
                    total_planned_cold,
                    total_naive / total_planned_cold,
                    engine="planned",
                ),
                json_record(
                    "evaluator_scaling.planned_total_warm", total_planned, 1.0, engine="planned"
                ),
                json_record(
                    "evaluator_scaling.compiled_total_warm",
                    total_compiled,
                    overall,
                    engine="compiled",
                ),
            ],
        )
        print(f"(json records written to {arguments.json})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
