"""Differential tests of the columnar compiled engine (ISSUE 6).

The compiled engine — interned columnar stores plus per-plan code-generated
kernels — must be observationally identical to the planned interpreter and
to the naive nested-loop reference on every semantics the package exposes:
``evaluate_set`` / ``evaluate_bag_set`` / ``evaluate_aggregate``, Γ(q, D) as
a multiset, the symbolic sweep verdicts, and the counterexample witnesses the
sweep path reports.  The tests here pin that three-way agreement on the
deterministic scenario catalogs (one with 836 ``sales`` rows) and on
adversarial random instances, and check the cache-hygiene contract of
``clear_evaluation_caches``.
"""

from __future__ import annotations

import zlib
from collections import Counter

import pytest

from repro import Domain
from repro.datalog.database import Database
from repro.engine import (
    clear_evaluation_caches,
    clear_symbolic_caches,
    engine_scope,
    evaluate,
    kernel_cache_stats,
    naive_satisfying_assignments,
    satisfying_assignments,
    store_cache_stats,
)
from repro.parallel.tasks import pair_check_tasks
from repro.workloads import (
    build_view_scenario,
    build_warehouse,
    decide_pairs,
    random_warehouse_database,
)

ENGINES = ("naive", "planned", "compiled")


def _clean() -> None:
    clear_evaluation_caches()
    clear_symbolic_caches()


def _evaluate_under(mode: str, query, database):
    with engine_scope(mode):
        return evaluate(query, database)


def _scenario_catalogs():
    """Every deterministic scenario catalog: (label, queries, database).
    ``warehouse-836-sales`` holds the loop kernels to the oracle at the
    scale of concrete reports, where the other instances stay at tens of
    rows."""
    warehouse = build_warehouse(stores=4, products=5, sales_per_store=10, seed=7)
    large = build_warehouse(stores=8, products=8, sales_per_store=120, seed=7)
    views = build_view_scenario(stores=3, products=4, sales_per_store=8, seed=11)
    return [
        ("warehouse", warehouse.queries, warehouse.database),
        ("warehouse-836-sales", large.queries, large.database),
        ("views", views.queries, views.database),
        ("views-materialized", views.queries, views.materialized()),
    ]


@pytest.mark.parametrize(
    "label, queries, database",
    _scenario_catalogs(),
    ids=[label for label, _, _ in _scenario_catalogs()],
)
def test_scenario_catalogs_agree_across_engines(label, queries, database):
    _clean()
    for name, query in sorted(queries.items()):
        results = {mode: _evaluate_under(mode, query, database) for mode in ENGINES}
        assert results["naive"] == results["planned"], (label, name)
        assert results["naive"] == results["compiled"], (label, name)


def test_random_instances_agree_across_engines():
    """Adversarial random instances (empty relations, dangling returns,
    repeated and negative amounts): identical Γ multisets and identical
    derived semantics across all three engines."""
    _clean()
    queries = sorted(build_warehouse(stores=3, products=4, sales_per_store=6).queries.items())
    for seed in range(30):
        database = random_warehouse_database(seed)
        for name, query in queries:
            with engine_scope("naive"):
                naive_gamma = Counter(naive_satisfying_assignments(query, database))
            with engine_scope("planned"):
                planned_gamma = Counter(satisfying_assignments(query, database))
            with engine_scope("compiled"):
                compiled_gamma = Counter(satisfying_assignments(query, database))
            assert naive_gamma == planned_gamma, (seed, name)
            assert naive_gamma == compiled_gamma, (seed, name)
            results = {mode: _evaluate_under(mode, query, database) for mode in ENGINES}
            assert results["naive"] == results["planned"], (seed, name)
            assert results["naive"] == results["compiled"], (seed, name)


def _catalog_for_sweep() -> dict:
    """A catalog that exercises equivalent cells (full sweep), non-equivalent
    cells with concrete witnesses, and incomparable shapes."""
    from repro import parse_query
    from repro.workloads import renamed_copy

    audit = parse_query(
        "audit(s, count()) :- returns(s, p), premium_store(s) ; "
        "returns(s, p), discontinued(p)"
    )
    queries = {
        "audit": audit,
        "audit_renamed": renamed_copy(audit),
        "audit_weaker": parse_query(
            "audit(s, count()) :- returns(s, p), premium_store(s) ; returns(s, p)"
        ),
        "revenue_sum": parse_query("r(s, sum(a)) :- sales(s, p, a)"),
        "revenue_kept": parse_query(
            "r(s, sum(a)) :- sales(s, p, a), not returns(s, p)"
        ),
    }
    return queries


def _summarize(results) -> dict:
    return {
        pair: (cell.verdict, cell.method, cell.counterexample is not None)
        for pair, cell in results.items()
    }


def test_decide_pairs_parity_across_engines_and_workers():
    """The sweep path must produce identical verdicts, methods, and witness
    presence under the planned interpreter, the compiled engine, and the
    compiled engine sharded over two workers."""
    queries = _catalog_for_sweep()

    _clean()
    planned = decide_pairs(queries, seed=11, engine="planned")
    _clean()
    compiled = decide_pairs(queries, seed=11, engine="compiled")
    _clean()
    compiled_parallel = decide_pairs(queries, seed=11, workers=2, engine="compiled")

    assert _summarize(planned) == _summarize(compiled)
    assert _summarize(planned) == _summarize(compiled_parallel)

    # Witness exactness: every concrete witness the compiled sweep reports
    # must be confirmed by the naive oracle — the queries really differ on it.
    witnessed = 0
    for pair, cell in compiled.items():
        counterexample = cell.counterexample
        if counterexample is None or counterexample.database is None:
            continue
        witnessed += 1
        with engine_scope("naive"):
            left = evaluate(queries[pair[0]], counterexample.database)
            right = evaluate(queries[pair[1]], counterexample.database)
        assert left != right, pair
        assert left == counterexample.left_result, pair
        assert right == counterexample.right_result, pair
    assert witnessed > 0  # the catalog is built to produce concrete witnesses


def test_clear_evaluation_caches_drops_kernels_and_stores():
    """Cache hygiene (ISSUE 6 satellite): ``clear_evaluation_caches`` must
    drop the compiled kernels and the columnar stores, observable as fresh
    compiles and store builds afterwards — otherwise long sessions leak."""
    warehouse = build_warehouse(stores=3, products=4, sales_per_store=6, seed=7)
    query = warehouse.queries["premium_kept_products"]

    _clean()
    baseline_kernels = kernel_cache_stats()["compiles"]
    baseline_stores = store_cache_stats()["builds"]

    with engine_scope("compiled"):
        evaluate(query, warehouse.database)
    after_first = kernel_cache_stats()
    assert after_first["compiles"] > baseline_kernels
    assert store_cache_stats()["builds"] > baseline_stores

    # A second evaluation reuses both caches: hits move, compiles do not.
    with engine_scope("compiled"):
        evaluate(query, warehouse.database)
    after_second = kernel_cache_stats()
    assert after_second["compiles"] == after_first["compiles"]

    # Clearing must force a re-compile and a store rebuild on the next call.
    clear_evaluation_caches()
    assert kernel_cache_stats()["entries"] == 0
    recompile_baseline = kernel_cache_stats()["compiles"]
    rebuild_baseline = store_cache_stats()["builds"]
    with engine_scope("compiled"):
        evaluate(query, warehouse.database)
    assert kernel_cache_stats()["compiles"] > recompile_baseline
    assert store_cache_stats()["builds"] > rebuild_baseline


def test_task_builders_capture_active_engine():
    """Parallel task builders snapshot the engine mode at build time so
    worker processes replay the exact engine the driver ran under."""
    queries = {
        name: query
        for name, query in list(
            sorted(build_warehouse(stores=2, products=3, sales_per_store=4).queries.items())
        )[:2]
    }
    for mode in ("planned", "compiled"):
        with engine_scope(mode):
            tasks = pair_check_tasks(
                queries,
                domain=Domain.RATIONALS,
                counterexample_trials=5,
                max_subsets=100,
                unknown_bound=None,
                normalize=True,
                seed=3,
                context=None,
            )
        assert tasks, mode
        assert all(task.engine == mode for task in tasks)


# ----------------------------------------------------------------------
# The dispatch table: one (condition, statistics) -> (plan, kernel) lookup
# ----------------------------------------------------------------------
def _symbolic_databases(count: int) -> tuple[list, tuple]:
    """``count`` seeded random ``S_L`` over the BASE of a small negation
    pair, and the pair."""
    import random

    from repro.core.bounded import build_base
    from repro.datalog import parse_query
    from repro.engine import SymbolicDatabase
    from repro.orderings.complete_orderings import enumerate_complete_orderings

    first = parse_query("q(s, count()) :- returns(s, p), premium(s), not gone(p)")
    second = parse_query("q(s, count()) :- returns(s, p), gone(p), s < 3")
    terms, base, _fresh = build_base(first, second, 2)
    orderings = list(enumerate_complete_orderings(terms, Domain.RATIONALS))
    rng = random.Random(zlib.crc32(b"dispatch-table"))
    return [
        SymbolicDatabase(
            frozenset(atom for atom in base if rng.random() < 0.5), rng.choice(orderings)
        )
        for _ in range(count)
    ], (first, second)


def _dispatch_cases():
    """``(condition, database, output_terms)`` over random warehouse
    databases and random symbolic ``S_L``."""
    warehouse = build_warehouse(stores=3, products=4, sales_per_store=6, seed=7)
    for seed in range(6):
        database = random_warehouse_database(seed)
        for _name, query in sorted(warehouse.queries.items()):
            for disjunct in query.disjuncts:
                yield disjunct, database, tuple(query.head_terms)
    databases, queries = _symbolic_databases(24)
    for database in databases:
        for query in queries:
            for disjunct in query.disjuncts:
                yield disjunct, database, tuple(query.head_terms)


def test_dispatched_plan_equals_direct_plan():
    """The table serves exactly the plan ``plan_condition`` computes from the
    store's statistics, and the kernel ``get_kernel`` compiles for it."""
    from repro.engine import get_kernel, plan_condition, store_for
    from repro.engine.compile import dispatch

    _clean()
    checked = Counter()
    for condition, database, output_terms in _dispatch_cases():
        store = store_for(database)
        for _ in range(2):  # the miss, then the hit
            plan, kernel = dispatch(condition, store, output_terms)
            assert plan == plan_condition(condition, store.size, store.distinct)
            assert kernel is get_kernel(plan, output_terms)
        checked[store.symbolic] += 1
    assert checked[False] >= 40 and checked[True] >= 40
    _clean()


def test_stores_with_different_statistics_get_their_own_plan_and_kernel():
    from repro.datalog import parse_query
    from repro.engine import store_for
    from repro.engine.compile import _DISPATCH, dispatch

    condition = parse_query("q(x, y) :- p(x, z), r(z, y)").disjuncts[0]
    output_terms = tuple(parse_query("q(x, y) :- p(x, z), r(z, y)").head_terms)
    big_p = Database([("p", (i, i)) for i in range(9)] + [("r", (1, 2))])
    big_r = Database([("p", (1, 2))] + [("r", (i, i)) for i in range(9)])
    # Same statistics as big_p, different contents.
    big_p_again = Database([("p", (i, i + 1)) for i in range(9)] + [("r", (5, 6))])

    _clean()
    first = dispatch(condition, store_for(big_p), output_terms)
    second = dispatch(condition, store_for(big_r), output_terms)
    assert len(_DISPATCH) == 2
    first_atoms = [s.atom.predicate for s in first[0].steps if hasattr(s, "bound_columns")]
    second_atoms = [s.atom.predicate for s in second[0].steps if hasattr(s, "bound_columns")]
    assert first_atoms == ["r", "p"] and second_atoms == ["p", "r"]
    assert first[1] is not second[1]
    assert dispatch(condition, store_for(big_p_again), output_terms) is first
    assert len(_DISPATCH) == 2
    _clean()


def test_dispatch_counters_keep_their_meaning():
    """Every evaluation is one kernel compile or hit and one plan build or
    hit — table hits included."""
    from repro.obs import REGISTRY

    from repro.engine.compile import compiled_satisfying_assignments, compiled_symbolic_groups

    _clean()
    warehouse = build_warehouse(stores=3, products=4, sales_per_store=6, seed=7)
    databases, queries = _symbolic_databases(12)
    for _ in range(2):  # the compiled_* entry points are not memoized: every call dispatches
        for query in warehouse.queries.values():
            compiled_satisfying_assignments(query, warehouse.database)
        for database in databases:
            for query in queries:
                compiled_symbolic_groups(query, database)
    loop = REGISTRY.get("engine.dispatch.loop")
    kernel_lookups = REGISTRY.get("engine.kernel.compiles") + REGISTRY.get("engine.kernel.hits")
    plan_lookups = REGISTRY.get("engine.plan.builds") + REGISTRY.get("engine.plan.hits")
    assert loop > 0
    assert kernel_lookups == loop
    assert plan_lookups == loop
    assert REGISTRY.get("engine.plan.builds") < plan_lookups
    _clean()


def test_retired_backend_switches_change_nothing(monkeypatch):
    """``REPRO_VECTOR_THRESHOLD`` and ``REPRO_NO_NUMPY`` are read by nothing:
    on relations far above the old 512-row threshold, setting them leaves
    every result, every dispatch-table entry and every counter as it was, and
    every evaluation runs on the loop kernels."""
    from repro.engine import store_for
    from repro.engine.compile import _DISPATCH, compiled_satisfying_assignments
    from repro.obs import REGISTRY

    warehouse = build_warehouse(stores=8, products=8, sales_per_store=120, seed=7)
    database = warehouse.database
    queries = sorted(warehouse.queries.items())

    def run() -> tuple[dict, dict, dict]:
        _clean()
        assert store_for(database).size("sales") > 512
        results = {
            name: Counter(compiled_satisfying_assignments(query, database))
            for name, query in queries
        }
        counters = {
            name: REGISTRY.get(name)
            for name in (
                "engine.dispatch.loop",
                "engine.dispatch.vector",
                "engine.kernel.compiles",
                "engine.kernel.hits",
                "engine.plan.builds",
                "engine.plan.hits",
            )
        }
        assert all(len(entry) == 2 for entry in _DISPATCH.values())  # (plan, kernel)
        plans = {key: plan for key, (plan, _kernel) in _DISPATCH.items()}
        return results, plans, counters

    try:
        monkeypatch.delenv("REPRO_VECTOR_THRESHOLD", raising=False)
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
        baseline = run()
        for threshold, no_numpy in (("0", None), ("0", "1"), (str(10**9), None)):
            monkeypatch.setenv("REPRO_VECTOR_THRESHOLD", threshold)
            if no_numpy is None:
                monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
            else:
                monkeypatch.setenv("REPRO_NO_NUMPY", no_numpy)
            assert run() == baseline, (threshold, no_numpy)
        counters = baseline[2]
        assert counters["engine.dispatch.vector"] == 0
        assert counters["engine.dispatch.loop"] == (
            counters["engine.plan.builds"] + counters["engine.plan.hits"]
        )
    finally:
        monkeypatch.undo()
        _clean()


def test_clear_evaluation_caches_empties_the_dispatch_table():
    """Leak check: a repeated workload stops growing the table, and
    ``clear_evaluation_caches`` empties it along with the plan counters."""
    from repro.engine import plan_cache_stats
    from repro.engine.compile import _DISPATCH, compiled_satisfying_assignments

    warehouse = build_warehouse(stores=3, products=4, sales_per_store=6, seed=7)
    _clean()
    for query in warehouse.queries.values():
        compiled_satisfying_assignments(query, warehouse.database)
    entries = len(_DISPATCH)
    builds = plan_cache_stats()["builds"]
    for query in warehouse.queries.values():
        compiled_satisfying_assignments(query, Database(warehouse.database.facts))
    assert entries > 0
    assert len(_DISPATCH) == entries
    assert plan_cache_stats()["builds"] == builds
    assert plan_cache_stats()["hits"] >= entries
    clear_evaluation_caches()
    assert len(_DISPATCH) == 0
    assert plan_cache_stats() == {"entries": 0, "builds": 0, "hits": 0}
