"""Tests for the session-first public API (`repro.session.Workspace`).

The load-bearing property is the *incremental/from-scratch differential*:
adding queries to a workspace over several calls and asking for
``equivalences()`` must yield the same matrix a one-shot
``equivalence_matrix`` computes over the final catalog — cell for cell, on
every scenario catalog, serially and through the multiprocessing executor.

Verdicts and methods are always byte-identical.  Witness databases are
byte-identical whenever the shared BASE recipe of the session matches the
one-shot run's (the held-out variants below arrange exactly that); when the
context *grows* between calls, a cell settled early may carry a witness
found under the smaller BASE, so the staged variants check witnesses
semantically: present iff present, and genuinely distinguishing.
"""

from __future__ import annotations

import pytest

from repro import Verdict, View, Workspace, parse_query
from repro.core.bounded import SharedBaseContext
from repro.datalog.database import Database
from repro.engine import evaluate
from repro.errors import QuerySyntaxError, ReproError, RewritingError
from repro.workloads import build_view_scenario, build_warehouse, equivalence_matrix


def scenario_catalogs() -> dict[str, dict]:
    return {
        "warehouse": build_warehouse().queries,
        "views": build_view_scenario().queries,
    }


def assert_cells_match(incremental, scratch, queries, *, strict_witnesses: bool):
    __tracebackhide__ = True
    assert incremental.keys() == scratch.keys()
    for pair, result in incremental.items():
        expected = scratch[pair]
        assert result.verdict is expected.verdict, pair
        assert result.method == expected.method, pair
        assert (result.counterexample is None) == (expected.counterexample is None), pair
        if result.counterexample is None:
            continue
        witness = result.counterexample.database
        assert (witness is None) == (expected.counterexample.database is None), pair
        if strict_witnesses:
            assert witness == expected.counterexample.database, pair
        elif witness is not None:
            assert evaluate(queries[pair[0]], witness) != evaluate(
                queries[pair[1]], witness
            ), pair


def context_preserving_holdout(catalog) -> str:
    """A query whose removal leaves the catalog's shared BASE recipe intact —
    held out so the strict differential compares identical enumerations."""
    full = SharedBaseContext.from_catalog(catalog.values())
    for name in sorted(catalog):
        rest = [query for other, query in catalog.items() if other != name]
        if SharedBaseContext.from_catalog(rest) == full:
            return name
    pytest.skip("catalog has no context-preserving holdout")


class TestFrontDoor:
    def test_add_accepts_datalog_query_and_sql(self):
        ws = Workspace(schema={"sales": ["store", "product", "amount"]})
        assert ws.add("q(x, sum(y)) :- p(x, y)") == "q"
        assert ws.add(parse_query("r(x) :- p(x, y)")) == "r"
        name = ws.add("SELECT store, SUM(amount) FROM sales GROUP BY store", name="rev")
        assert name == "rev"
        assert ws["rev"].is_aggregate
        assert len(ws) == 3

    def test_names_deduplicate_and_explicit_duplicates_raise(self):
        ws = Workspace()
        assert ws.add("q(x) :- p(x, y)") == "q"
        assert ws.add("q(x) :- p(x, y), r(x)") == "q_2"
        ws.add("q(x) :- r(x)", name="named")
        with pytest.raises(ReproError, match="already has a query named"):
            ws.add("q(x) :- r(x)", name="named")

    def test_add_rejects_junk(self):
        with pytest.raises(ReproError, match="expects a Query"):
            Workspace().add(42)  # type: ignore[arg-type]

    def test_discard_drops_query_and_cells(self):
        ws = Workspace()
        ws.add("q(x) :- p(x, y)", name="a")
        ws.add("q(x) :- p(x, z)", name="b")
        assert len(ws.equivalences()) == 1
        ws.discard("b")
        assert ws.equivalences() == {}
        with pytest.raises(ReproError, match="no query named"):
            ws.discard("b")

    def test_register_view_three_forms(self):
        ws = Workspace(schema={"sales": ["store", "product", "amount"]})
        ws.register_view(View("sold", parse_query("v(s, p) :- sales(s, p, a)")))
        ws.register_view("kept", "v(s, p, a) :- sales(s, p, a), not returns(s, p)")
        ws.register_view(
            "CREATE VIEW by_store (store, total) AS "
            "SELECT store, SUM(amount) FROM sales GROUP BY store"
        )
        assert set(ws.views.names) == {"sold", "kept", "by_store"}

    def test_datalog_view_is_readable_from_sql(self):
        ws = Workspace(schema={"sales": ["store", "product", "amount"]})
        ws.register_view(
            View("sales_by_sp", parse_query("v(s, p, sum(a)) :- sales(s, p, a)"))
        )
        # Columns derive from the view head: s, p, sum_a.
        query = ws.add("SELECT s, SUM(sum_a) FROM sales_by_sp GROUP BY s")
        assert ws[query].predicates() == {"sales_by_sp"}

    def test_register_view_name_clash(self):
        ws = Workspace(schema={"sales": ["store", "product", "amount"]})
        ws.register_view(View("sold", parse_query("v(s, p) :- sales(s, p, a)")))
        with pytest.raises(RewritingError, match="duplicate view name"):
            ws.register_view(View("sold", parse_query("v(p) :- sales(s, p, a)")))
        with pytest.raises(QuerySyntaxError, match="collides"):
            # Clash with a schema base table is the SQL layer's verdict.
            ws.register_view(View("sales", parse_query("v(p) :- returns(s, p)")))

    def test_closed_workspace_refuses_work(self):
        with Workspace() as ws:
            ws.add("q(x) :- p(x, y)")
        assert ws.closed
        with pytest.raises(ReproError, match="closed"):
            ws.add("q(x) :- p(x, z)")
        with pytest.raises(ReproError, match="closed"):
            ws.equivalences()


class TestDeltaDifferential:
    @pytest.mark.parametrize("catalog_name", sorted(scenario_catalogs()))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_holdout_add_matches_scratch_exactly(self, catalog_name, workers):
        """Warm a workspace on all-but-one query, add the last, and demand
        the final matrix byte-matches a from-scratch run — witnesses
        included (the holdout preserves the shared BASE recipe)."""
        catalog = scenario_catalogs()[catalog_name]
        holdout = context_preserving_holdout(catalog)
        with Workspace(workers=workers, seed=7) as ws:
            for name, query in catalog.items():
                if name != holdout:
                    ws.add(query, name=name)
            warm = ws.equivalences()
            assert len(warm) == (len(catalog) - 1) * (len(catalog) - 2) // 2
            ws.add(catalog[holdout], name=holdout)
            final = ws.equivalences()
            delta_decided = ws.stats().decided_cells - len(warm)
            assert delta_decided <= len(catalog) - 1
        scratch = equivalence_matrix(catalog, workers=workers, seed=7)
        assert_cells_match(final, scratch, catalog, strict_witnesses=True)

    @pytest.mark.parametrize("catalog_name", sorted(scenario_catalogs()))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_at_a_time_matches_scratch(self, catalog_name, workers):
        """Grow the catalog one query per call; the final matrix matches the
        from-scratch run in verdicts and methods cell for cell, and every
        witness genuinely distinguishes its pair."""
        catalog = scenario_catalogs()[catalog_name]
        with Workspace(workers=workers, seed=7) as ws:
            for name, query in catalog.items():
                ws.add(query, name=name)
                ws.equivalences()
            final = ws.equivalences()
        scratch = equivalence_matrix(catalog, workers=workers, seed=7)
        assert_cells_match(final, scratch, catalog, strict_witnesses=False)

    def test_delta_only_decides_new_cells(self):
        catalog = scenario_catalogs()["views"]
        with Workspace(seed=3) as ws:
            for name, query in catalog.items():
                ws.add(query, name=name)
            first = ws.equivalences()
            decided = ws.stats().decided_cells
            assert decided == len(first)
            again = ws.equivalences()
            assert ws.stats().decided_cells == decided  # nothing re-decided
            assert again.keys() == first.keys()

    def test_structural_verdict_cache_serves_renamed_duplicates(self):
        with Workspace(seed=5) as ws:
            ws.add("q(x, sum(y)) :- p(x, y)", name="a")
            ws.add("q(x, sum(y)) :- p(x, y), not r(x)", name="b")
            ws.equivalences()
            # The same ASTs under fresh names: the (a2, b2) cell is the
            # structurally identical pair, served from the verdict cache.
            ws.add("q(x, sum(y)) :- p(x, y)", name="a2")
            ws.add("q(x, sum(y)) :- p(x, y), not r(x)", name="b2")
            results = ws.equivalences()
            assert ws.stats().verdict_cache_hits >= 1
            assert results[("a2", "b2")].verdict is results[("a", "b")].verdict
            assert results[("a2", "b2")].method == results[("a", "b")].method

    def test_verdict_cache_eviction_is_lru_not_insertion_order(self, monkeypatch):
        """Overflow must evict the least-recently-*used* entries: a pair the
        session keeps serving survives eviction no matter how early it was
        inserted (before the fix, the oldest-*inserted* quarter was dropped,
        so the hottest entries were exactly the ones lost)."""
        from repro.core.equivalence import EquivalenceResult
        from repro.domains import Domain
        from repro.session import workspace as workspace_module

        monkeypatch.setattr(workspace_module, "_VERDICT_CACHE_LIMIT", 4)
        with Workspace(workers=1, store=False) as ws:
            for index in range(5):
                ws.add(f"q(x) :- r{index}(x)", name=f"q{index}")
            fabricated = EquivalenceResult(Verdict.UNKNOWN, "fabricated", Domain.RATIONALS)
            filled = [("q0", "q1"), ("q0", "q2"), ("q0", "q3"), ("q1", "q2")]
            for pair in filled:
                ws._cache_verdict(pair, fabricated)
            # Settle every cell except (q0, q1), then ask for the matrix:
            # the one remaining cell is served from the structural cache —
            # a *hit*, which must refresh the entry's recency.
            names = sorted(ws.queries)
            for position, name_a in enumerate(names):
                for name_b in names[position + 1 :]:
                    if (name_a, name_b) != ("q0", "q1"):
                        ws._results[(name_a, name_b)] = fabricated
            ws.equivalences()
            assert ws.stats().verdict_cache_hits == 1
            # The next insertion overflows the (limit 4) cache.  LRU order
            # after the hit is (q0,q2), (q0,q3), (q1,q2), (q0,q1): the
            # refreshed oldest-inserted entry survives and (q0, q2) goes.
            ws._cache_verdict(("q1", "q3"), fabricated)
            assert (ws["q0"], ws["q1"]) in ws._verdict_cache
            assert (ws["q0"], ws["q2"]) not in ws._verdict_cache


class TestSessionRewriting:
    def test_report_matches_one_shot_rewrite(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        from repro import rewrite

        one_shot = rewrite(
            scenario.queries["total_revenue"],
            scenario.views,
            database=scenario.database,
            seed=3,
        )
        with Workspace(seed=3) as ws:
            for view in scenario.views:
                ws.register_view(view)
            session_report = ws.rewrite(
                scenario.queries["total_revenue"], database=scenario.database
            )
        assert [v.candidate.name for v in session_report.safe] == [
            v.candidate.name for v in one_shot.safe
        ]
        assert [v.estimated_cost for v in session_report.safe] == [
            v.estimated_cost for v in one_shot.safe
        ]
        assert session_report.direct_cost == one_shot.direct_cost
        for verified in session_report.safe:
            assert verified.result.verdict is Verdict.EQUIVALENT

    def test_repeated_rewrites_hit_the_cache(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        with Workspace(seed=3) as ws:
            for view in scenario.views:
                ws.register_view(view)
            first = ws.rewrite(scenario.queries["total_revenue"])
            assert ws.stats().rewrite_cache_hits == 0
            second = ws.rewrite(
                scenario.queries["total_revenue"], database=scenario.database
            )
            assert ws.stats().rewrite_cache_hits == 1
            assert {v.candidate.name for v in second.safe} == {
                v.candidate.name for v in first.safe
            }
            # The cached call still ranks: costs are filled and ascending.
            costs = [v.estimated_cost for v in second.safe]
            assert all(cost is not None for cost in costs)
            assert costs == sorted(costs)

    def test_registering_a_view_invalidates_rewrite_cache(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        with Workspace(seed=3) as ws:
            ws.register_view(
                View("sales_by_sp", parse_query("v(s, p, sum(a)) :- sales(s, p, a)"))
            )
            before = ws.rewrite(scenario.queries["total_revenue"])
            ws.register_view(
                View("sales_by_s", parse_query("v(s, sum(a)) :- sales(s, p, a)"))
            )
            after = ws.rewrite(scenario.queries["total_revenue"])
            assert ws.stats().rewrite_cache_hits == 0  # cache was dropped
            assert {v.candidate.name for v in after.safe} > {
                v.candidate.name for v in before.safe
            }

    def test_cached_reports_do_not_alias_across_databases(self):
        """Re-ranking against a second database must not rewrite the costs
        inside a report already handed out (the cache stores the verification
        outcomes; each report gets its own wrappers)."""
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        bigger = build_view_scenario(stores=5, products=8, sales_per_store=12, seed=7)
        with Workspace(seed=3) as ws:
            for view in scenario.views:
                ws.register_view(view)
            first = ws.rewrite(scenario.queries["total_revenue"], database=scenario.database)
            first_costs = [v.estimated_cost for v in first.safe]
            second = ws.rewrite(scenario.queries["total_revenue"], database=bigger.database)
            assert ws.stats().rewrite_cache_hits == 1
            assert [v.estimated_cost for v in first.safe] == first_costs
            assert [v.estimated_cost for v in second.safe] != first_costs

    def test_failed_view_registration_preserves_caches(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        with Workspace(seed=3) as ws:
            ws.register_view(
                View("sales_by_sp", parse_query("v(s, p, sum(a)) :- sales(s, p, a)"))
            )
            ws.rewrite(scenario.queries["total_revenue"])
            with pytest.raises(RewritingError, match="duplicate view name"):
                ws.register_view("sales_by_sp", "v(s) :- sales(s, p, a)")
            with pytest.raises(RewritingError, match="duplicate view name"):
                ws.register_view(View("sales_by_sp", parse_query("v(s) :- sales(s, p, a)")))
            ws.rewrite(scenario.queries["total_revenue"])
            assert ws.stats().rewrite_cache_hits == 1  # cache survived the failures

    def test_mixed_case_views_stay_rewriting_only(self):
        """PR 4 accepted any valid view name; the session keeps that for the
        rewriting catalog and only gates *SQL visibility* on lowercase names
        (the SQL parser lowercases every table reference)."""
        from repro import rewrite

        view = View("SoldPairs", parse_query("v(s, p) :- sales(s, p, a)"))
        query = parse_query("assortment(s, cntd(p)) :- sales(s, p, a)")
        report = rewrite(query, [view], seed=1)  # the one-shot shim path
        assert report.safe
        with Workspace(schema={"sales": ["store", "product", "amount"]}) as ws:
            ws.register_view(view)
            assert "SoldPairs" in ws.views.names
            assert ws.rewrite(query).safe
            with pytest.raises(QuerySyntaxError, match="unknown table"):
                ws.add("SELECT s FROM SoldPairs")  # not SQL-addressable

    def test_rewrite_honours_session_decision_settings(self):
        """The session's decision knobs reach rewrite verification too: with
        normalize=False, a candidate whose unfolding forms a pinned-sum /
        count pair must stay UNVERIFIED — exactly as the same session's
        equivalences() would leave that pair UNKNOWN."""
        view = View("unit_rows", parse_query("v(s, p, a, u) :- sales(s, p, a), u = 1"))
        query = parse_query("volume(s, count()) :- sales(s, p, a)")
        candidate = parse_query("volume(s, sum(u)) :- unit_rows(s, p, a, u)")

        def verify_with(normalize):
            with Workspace(seed=2, normalize=normalize) as ws:
                ws.register_view(view)
                engine = ws._rewriting_engine()
                (outcome,) = engine.verify(query, [engine.make_candidate(query, candidate)], seed=2)
                return outcome.result
        assert verify_with(True).verdict is Verdict.EQUIVALENT
        assert verify_with(False).verdict is Verdict.UNKNOWN

    def test_rewrite_rejects_view_queries(self):
        with Workspace() as ws:
            ws.register_view(View("sold", parse_query("v(s, p) :- sales(s, p, a)")))
            with pytest.raises(RewritingError, match="view predicate"):
                ws.rewrite("q(s, cntd(p)) :- sold(s, p)")


def _echo_task(task):
    return task


def _failing_task(task):
    raise RuntimeError(f"worker blew up on {task}")


class TestSessionViewExtents:
    """``Workspace.rewrite(q, database=D)`` materializes the view extents of
    ``D`` once and reuses them until the views or the database change."""

    @staticmethod
    def _scenario_workspace(scenario) -> Workspace:
        ws = Workspace(seed=3)
        for view in scenario.views:
            ws.register_view(view)
        return ws

    @staticmethod
    def _counting_materialize(monkeypatch) -> list:
        from repro.rewriting.views import ViewCatalog

        calls: list = []
        materialize = ViewCatalog.materialize

        def counted(self, database):
            calls.append(database)
            return materialize(self, database)

        monkeypatch.setattr(ViewCatalog, "materialize", counted)
        return calls

    @staticmethod
    def _extent_counters() -> tuple[int, int]:
        from repro.obs import REGISTRY

        return REGISTRY.get("session.extents.hits"), REGISTRY.get("session.extents.misses")

    @staticmethod
    def _ranking(report) -> tuple:
        return (
            [v.candidate.name for v in report.safe],
            [v.estimated_cost for v in report.safe],
            report.direct_cost,
        )

    def test_six_rewrites_materialize_once(self, monkeypatch):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        calls = self._counting_materialize(monkeypatch)
        hits, misses = self._extent_counters()
        queries = list(scenario.queries.values())
        with self._scenario_workspace(scenario) as ws:
            for position in range(6):
                ws.rewrite(queries[position % len(queries)], database=scenario.database)
            assert calls == [scenario.database]
            assert self._extent_counters() == (hits + 5, misses + 1)
            session = ws.stats().counters["session"]
            assert session["extents.hits"] >= 5 and session["extents.misses"] >= 1
            assert "extents.hits" in ws.stats().report()

    def test_rankings_without_a_database_never_materialize(self, monkeypatch):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        calls = self._counting_materialize(monkeypatch)
        before = self._extent_counters()
        with self._scenario_workspace(scenario) as ws:
            report = ws.rewrite(scenario.queries["total_revenue"])
            ws.rewrite(scenario.queries["total_revenue"])
        assert calls == []
        assert self._extent_counters() == before
        assert report.direct_cost is None

    def test_register_view_and_a_new_database_rebuild(self, monkeypatch):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        other = build_view_scenario(stores=4, products=3, sales_per_store=5, seed=2)
        calls = self._counting_materialize(monkeypatch)
        query = scenario.queries["total_revenue"]
        with self._scenario_workspace(scenario) as ws:
            ws.rewrite(query, database=scenario.database)
            ws.rewrite(query, database=scenario.database)
            assert len(calls) == 1
            ws.rewrite(query, database=other.database)
            assert calls[-1] == other.database and len(calls) == 2
            # One entry: going back to the first database rebuilds it.
            ws.rewrite(query, database=scenario.database)
            assert len(calls) == 3
            ws.register_view(
                View("sales_by_s", parse_query("v(s, sum(a)) :- sales(s, p, a)"))
            )
            report = ws.rewrite(query, database=scenario.database)
            assert len(calls) == 4
            assert "sales_by_s" in {
                name for v in report.safe for name in v.candidate.view_names
            }
            # An equal database built separately hits the kept extents.
            ws.rewrite(query, database=Database(scenario.database.facts))
            assert len(calls) == 4

    def test_reused_extents_rank_like_a_fresh_workspace(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        other = build_view_scenario(stores=4, products=3, sales_per_store=5, seed=2)
        plan = [
            (name, database)
            for database in (scenario.database, other.database, scenario.database)
            for name in scenario.queries
        ]
        with self._scenario_workspace(scenario) as ws:
            reports = [
                ws.rewrite(scenario.queries[name], database=database)
                for name, database in plan
            ]
            handed_out = [self._ranking(report) for report in reports]
        for (name, database), report, ranking in zip(plan, reports, handed_out):
            with self._scenario_workspace(scenario) as fresh:
                expected = fresh.rewrite(scenario.queries[name], database=database)
            assert self._ranking(expected) == ranking, name
            # Later calls did not mutate a report already handed out.
            assert self._ranking(report) == ranking, name

    def test_close_drops_the_extents(self):
        scenario = build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)
        ws = self._scenario_workspace(scenario)
        ws.rewrite(scenario.queries["total_revenue"], database=scenario.database)
        assert ws._rewriting_engine()._extents
        ws.close()
        # The extents live on the rewriting engine, which close() drops.
        assert ws._engine is None


class TestPersistentPool:
    def test_failed_drain_discards_the_pool(self):
        """A worker exception mid-run must not wedge the session: the broken
        pool is discarded and the next run forks a fresh one."""
        from repro.parallel import PersistentProcessExecutor

        executor = PersistentProcessExecutor(2)
        try:
            # imap_unordered: order may vary, compare as multisets.
            assert sorted(executor.run(_echo_task, [1, 2, 3, 4])) == [1, 2, 3, 4]
            assert sorted(executor.run(_echo_task, [5, 6, 7])) == [5, 6, 7]
            forks = executor.forks
            with pytest.raises(RuntimeError, match="blew up"):
                executor.run(_failing_task, [1, 2, 3, 4])
            assert not executor.alive  # broken pool was discarded
            assert sorted(executor.run(_echo_task, [8, 9, 10])) == [8, 9, 10]
            assert executor.forks == forks + 1  # healed by re-forking
        finally:
            executor.close()
    def test_pool_forks_once_across_calls(self):
        catalog = scenario_catalogs()["views"]
        with Workspace(workers=2, seed=7) as ws:
            for name, query in catalog.items():
                ws.add(query, name=name)
            ws.equivalences()
            forks_after_first = ws.stats().pool_forks
            assert forks_after_first <= 1
            ws.add("extra(s, sum(a)) :- sales(s, p, a), premium_store(s)")
            ws.equivalences()
            scenario = build_view_scenario()
            for view in scenario.views:
                ws.register_view(view)
            ws.rewrite(catalog["total_revenue"])
            ws.rewrite(catalog["kept_revenue"])
            # The pool forks lazily on the first call with shardable work and
            # is then reused: never more than one fork per session.
            assert ws.stats().pool_forks <= 1
            assert ws.stats().pool_forks >= forks_after_first
        executor = ws.executor
        assert executor is not None and not executor.alive

    def test_serial_workspace_has_no_pool(self):
        with Workspace(workers=1) as ws:
            assert ws.executor is None
            assert ws.stats().pool_forks == 0


class TestShims:
    def test_equivalence_matrix_shim_matches_workspace(self):
        queries = {
            "orig": parse_query("q(x, sum(y)) :- p(x, y), not r(x)"),
            "renamed": parse_query("q(x, sum(z)) :- p(x, z), not r(x)"),
            "weaker": parse_query("q(x, sum(y)) :- p(x, y)"),
        }
        shim = equivalence_matrix(queries, seed=11)
        with Workspace(seed=11) as ws:
            for name, query in queries.items():
                ws.add(query, name=name)
            direct = ws.equivalences()
        assert_cells_match(shim, direct, queries, strict_witnesses=True)

    def test_shim_docstrings_point_at_the_session(self):
        from repro import rewrite

        assert "Workspace" in equivalence_matrix.__doc__
        assert "Workspace" in rewrite.__doc__
