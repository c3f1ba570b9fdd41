"""Tests for the view-based rewriting subsystem (`repro.rewriting`)."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Verdict,
    View,
    ViewCatalog,
    parse_database,
    parse_query,
    rewrite,
    unfold_query,
)
from repro.datalog.atoms import GroundAtom
from repro.datalog.database import Database
from repro.engine.evaluator import evaluate
from repro.errors import RewritingError
from repro.rewriting import (
    RewritingEngine,
    generate_candidates,
    uses_views,
)
from repro.workloads import build_view_scenario, random_warehouse_database, warehouse_views


@pytest.fixture
def scenario():
    return build_view_scenario(stores=3, products=4, sales_per_store=6, seed=9)


@pytest.fixture
def views():
    return warehouse_views()


# ----------------------------------------------------------------------
# Views and materialization
# ----------------------------------------------------------------------
class TestViews:
    def test_shapes(self, views):
        from repro import Variable

        assert views["sales_by_sp"].is_aggregate
        assert views["sales_by_sp"].arity == 3
        assert not views["kept_sales"].is_aggregate
        assert views["kept_sales"].arity == 3
        assert not views["kept_sales"].is_duplicating
        assert views["sold"].is_duplicating
        assert views["sold"].duplicating_variables() == {Variable("a")}

    def test_aggregate_rows_append_value(self):
        view = View("v", parse_query("v(s, sum(a)) :- sales(s, p, a)"))
        database = parse_database("sales(1, 1, 10). sales(1, 2, 5). sales(2, 1, 3).")
        assert view.rows(database) == {(1, 15), (2, 3)}

    def test_materialize_keeps_base_facts(self, views):
        database = parse_database("sales(1, 1, 10). premium_store(1).")
        materialized = views.materialize(database)
        assert materialized.contains("premium_store", (1,))
        assert materialized.contains("sales_by_sp", (1, 1, 10))
        assert materialized.contains("count_by_sp", (1, 1, 1))

    def test_validation(self):
        with pytest.raises(RewritingError):
            View("sales", parse_query("v(s) :- sales(s, p, a)"))  # recursive name
        with pytest.raises(RewritingError):
            View("v", parse_query("v(s, top2(a)) :- sales(s, p, a)"))  # tuple values
        with pytest.raises(RewritingError):
            ViewCatalog(
                [
                    View("v", parse_query("v(s) :- sales(s, p, a)")),
                    View("v", parse_query("v(p) :- sales(s, p, a)")),
                ]
            )

    def test_materialize_rejects_predicate_clash(self):
        views = ViewCatalog([View("v", parse_query("v(s) :- sales(s, p, a)"))])
        with pytest.raises(RewritingError):
            views.materialize(parse_database("v(1). sales(1, 1, 1)."))


    def test_materialize_equals_the_union_database(self, views, scenario):
        """Extending the base with the extents equals building the union
        from scratch, on the seeded scenario and a random warehouse."""
        for database in (scenario.database, random_warehouse_database(5)):
            materialized = views.materialize(database)
            extents = {
                GroundAtom(view.name, row) for view in views for row in view.rows(database)
            }
            expected = Database(set(database.facts) | extents)
            assert materialized == expected
            assert materialized.to_relations() == expected.to_relations()
            assert materialized.carrier() == expected.carrier()


#: Values that normalize to one constant (``2`` / ``Fraction(2)`` / ``2.0``),
#: plus a proper fraction, so coercion of added facts is exercised.
_VALUES = st.sampled_from([0, 1, 2, Fraction(2), 2.0, Fraction(1, 3), -1])
_FACTS = st.lists(
    st.tuples(
        st.sampled_from(["p", "q", "r"]),
        st.lists(_VALUES, min_size=1, max_size=2).map(tuple),
    ),
    max_size=8,
)


def _normalized_arity(facts):
    """Keep one arity per predicate (the first seen), as a relation has."""
    arity: dict = {}
    return [
        (predicate, values)
        for predicate, values in facts
        if arity.setdefault(predicate, len(values)) == len(values)
    ]


class TestAddFacts:
    @settings(max_examples=150, deadline=None)
    @given(base=_FACTS, added=_FACTS)
    def test_add_facts_equals_the_rebuilt_union(self, base, added):
        facts = _normalized_arity(base + added)
        base_facts, added_facts = facts[: len(base)], facts[len(base):]
        database = Database(base_facts)
        # Warm the receiver's lazy memos: the result must not inherit them.
        database.sorted_carrier()
        for predicate in database.predicates():
            database.distinct_count(predicate, 0)
            database.index(predicate, (0,))
        extended = database.add_facts(added_facts + base_facts[:2])
        expected = Database(set(database.facts) | set(Database(added_facts).facts))
        assert extended.facts == expected.facts
        assert extended == expected and hash(extended) == hash(expected)
        assert extended.predicates() == expected.predicates()
        assert extended.carrier() == expected.carrier()
        assert extended.sorted_carrier() == expected.sorted_carrier()
        assert extended.to_relations() == expected.to_relations()
        for predicate in expected.predicates():
            assert extended.relation(predicate) == expected.relation(predicate)
            width = len(next(iter(expected.relation(predicate))))
            for column in range(width):
                assert extended.distinct_count(predicate, column) == expected.distinct_count(
                    predicate, column
                )
                # Buckets list their rows in set-iteration order; compare sets.
                assert {
                    key: set(rows) for key, rows in extended.index(predicate, (column,)).items()
                } == {
                    key: set(rows) for key, rows in expected.index(predicate, (column,)).items()
                }
        # The receiver is unchanged.
        assert database == Database(base_facts)

    def test_adding_nothing_new_returns_an_equal_database(self):
        database = Database([("p", (2,)), ("q", (1, 2))])
        assert database.add_facts([]) == database
        assert database.add_facts([("p", (Fraction(2),)), ("q", (1.0, 2))]) == database

    def test_added_values_are_normalized(self):
        extended = Database([("p", (1,))]).add_facts([("p", (Fraction(4, 2),)), ("q", (2.0,))])
        assert extended.carrier() == {1, 2}
        assert all(type(value) is int for value in extended.carrier())
        assert extended.relation("p") == {(1,), (2,)}
        assert extended.contains("q", (2,))


# ----------------------------------------------------------------------
# Unfolding: the faithfulness contract
# ----------------------------------------------------------------------
def _assert_faithful(candidate, views, databases):
    """eval(candidate, materialize(D)) == eval(unfold(candidate), D) on every D."""
    unfolded = unfold_query(candidate, views)
    assert not uses_views(unfolded, views)
    for database in databases:
        materialized = views.materialize(database)
        assert evaluate(candidate, materialized) == evaluate(unfolded, database), str(database)
    return unfolded


@pytest.fixture
def random_instances():
    return [random_warehouse_database(seed) for seed in range(12)]


class TestUnfoldFaithfulness:
    def test_sum_over_sum_view(self, views, random_instances):
        candidate = parse_query("rev(s, sum(t)) :- sales_by_sp(s, p, t)")
        _assert_faithful(candidate, views, random_instances)

    def test_sum_over_sum_view_with_residual_join(self, views, random_instances):
        candidate = parse_query(
            "rev(s, sum(t)) :- sales_by_sp(s, p, t), premium_store(s), not discontinued(p)"
        )
        _assert_faithful(candidate, views, random_instances)

    def test_sum_of_counts(self, views, random_instances):
        candidate = parse_query("volume(s, sum(t)) :- count_by_sp(s, p, t)")
        unfolded = _assert_faithful(candidate, views, random_instances)
        assert unfolded.aggregate.function == "count"

    def test_max_over_max_view(self, views, random_instances):
        candidate = parse_query("top(s, max(t)) :- max_by_sp(s, p, t)")
        _assert_faithful(candidate, views, random_instances)

    def test_count_rows_becomes_cntd(self, views, random_instances):
        candidate = parse_query("assortment(s, count()) :- sales_by_sp(s, p, t)")
        unfolded = _assert_faithful(candidate, views, random_instances)
        assert unfolded.aggregate.function == "cntd"

    def test_non_aggregate_over_duplicating_view(self, views, random_instances):
        # Set semantics collapses duplicates anyway, so `sold` is fine here.
        candidate = parse_query("sold_pairs(s, p) :- sold(s, p), not discontinued(p)")
        _assert_faithful(candidate, views, random_instances)

    def test_cntd_over_duplicating_view(self, views, random_instances):
        # Readmitted by the duplicate-tolerance trait: unfolding multiplies
        # assignments but preserves their projection, and cntd only sees the
        # underlying set.
        candidate = parse_query("assortment(s, cntd(p)) :- sold(s, p)")
        unfolded = _assert_faithful(candidate, views, random_instances)
        assert unfolded.aggregate.function == "cntd"

    def test_max_over_duplicating_view(self, random_instances):
        views = ViewCatalog(
            [View("amounts", parse_query("v(s, a) :- sales(s, p, a)"))]
        )
        candidate = parse_query("top(s, max(a)) :- amounts(s, a)")
        _assert_faithful(candidate, views, random_instances)

    def test_min_over_duplicating_view_with_residual(self, random_instances):
        views = ViewCatalog(
            [View("amounts", parse_query("v(s, a) :- sales(s, p, a)"))]
        )
        candidate = parse_query(
            "low(s, min(a)) :- amounts(s, a), premium_store(s)"
        )
        _assert_faithful(candidate, views, random_instances)

    def test_cntd_over_disjunctive_view(self, random_instances):
        # Overlapping disjuncts collapse in the stored union — harmless for a
        # duplicate-insensitive aggregate.
        views = ViewCatalog(
            [View("flagged", parse_query("v(s, p) :- returns(s, p) ; returns(s, p), discontinued(p)"))]
        )
        candidate = parse_query("audit(s, cntd(p)) :- flagged(s, p)")
        _assert_faithful(candidate, views, random_instances)

    def test_disjunctive_view_under_set_semantics(self, random_instances):
        views = ViewCatalog(
            [View("flagged", parse_query("v(s, p) :- returns(s, p) ; sales(s, p, a), discontinued(p)"))]
        )
        candidate = parse_query("audit(s, p) :- flagged(s, p)")
        _assert_faithful(candidate, views, random_instances)

    def test_queries_without_views_unchanged(self, views):
        query = parse_query("q(s, sum(a)) :- sales(s, p, a)")
        assert unfold_query(query, views) is query


class TestUnfoldRejections:
    def test_negated_view_atom(self, views):
        candidate = parse_query("q(s, p) :- returns(s, p), not sold(s, p)")
        with pytest.raises(RewritingError, match="negated view atom"):
            unfold_query(candidate, views)

    def test_count_over_duplicating_view(self, views):
        # The canonical unsoundness: count over `sold` counts distinct
        # (store, product) pairs, not sales rows.  Duplicate-sensitive
        # functions stay rejected by the tolerance trait.
        candidate = parse_query("volume(s, count()) :- sold(s, p)")
        with pytest.raises(RewritingError, match="duplicate-sensitive count"):
            unfold_query(candidate, views)

    def test_sum_over_duplicating_view(self, random_instances):
        views = ViewCatalog(
            [View("amounts", parse_query("v(s, a) :- sales(s, p, a)"))]
        )
        candidate = parse_query("rev(s, sum(a)) :- amounts(s, a)")
        with pytest.raises(RewritingError, match="duplicate-sensitive sum"):
            unfold_query(candidate, views)

    def test_aggregate_over_disjunctive_view(self):
        # Duplicate-free disjuncts, but their union still collapses the
        # per-disjunct labels Γ counts separately — fatal for count.
        views = ViewCatalog(
            [View("flagged", parse_query("v(s, p) :- returns(s, p) ; returns(s, p), discontinued(p)"))]
        )
        candidate = parse_query("audit(s, count()) :- flagged(s, p)")
        with pytest.raises(RewritingError, match="disjunctive view"):
            unfold_query(candidate, views)

    def test_filter_on_partial_aggregate(self, views):
        candidate = parse_query("rev(s, sum(t)) :- sales_by_sp(s, p, t), t > 10")
        with pytest.raises(RewritingError, match="partial aggregate"):
            unfold_query(candidate, views)

    def test_join_on_partial_aggregate(self, views):
        candidate = parse_query("rev(s, sum(t)) :- sales_by_sp(s, p, t), sales(s, p, t)")
        with pytest.raises(RewritingError, match="partial aggregate"):
            unfold_query(candidate, views)

    def test_unsupported_pairing(self, views):
        candidate = parse_query("top(s, max(t)) :- sales_by_sp(s, p, t)")
        with pytest.raises(RewritingError, match="unsupported aggregate pairing"):
            unfold_query(candidate, views)

    def test_non_aggregate_query_reads_aggregate_column(self, views):
        candidate = parse_query("rows(s, p, t) :- sales_by_sp(s, p, t)")
        with pytest.raises(RewritingError, match="aggregate column"):
            unfold_query(candidate, views)

    def test_two_aggregate_views_in_one_disjunct(self, views):
        candidate = parse_query(
            "rev(s, sum(t)) :- sales_by_sp(s, p, t), count_by_sp(s, p, c)"
        )
        with pytest.raises(RewritingError, match="two aggregate views"):
            unfold_query(candidate, views)

    def test_count_rows_with_extra_join_variables(self, views):
        candidate = parse_query(
            "assortment(s, count()) :- sales_by_sp(s, p, t), sales(s, q, a)"
        )
        with pytest.raises(RewritingError, match="no variables of their own"):
            unfold_query(candidate, views)

    def test_arity_mismatch(self, views):
        candidate = parse_query("q(s) :- sold(s)")
        with pytest.raises(RewritingError, match="arity"):
            unfold_query(candidate, views)


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
class TestCandidateGeneration:
    def test_scenario_queries_get_candidates(self, scenario):
        for name, query in scenario.queries.items():
            candidates, _rejected = generate_candidates(query, scenario.views)
            assert candidates, name
            for candidate in candidates:
                assert uses_views(candidate.query, scenario.views)
                assert not uses_views(candidate.unfolded, scenario.views)

    def test_cntd_query_gets_duplicating_view_candidate(self, views):
        # The duplicate-tolerance trait readmits `sold` for cntd: the
        # duplicating projection is no longer a rejection but a candidate.
        query = parse_query("assortment(s, cntd(p)) :- sales(s, p, a)")
        candidates, rejected = generate_candidates(query, views)
        assert any("sold" in c.view_names for c in candidates)
        assert not any(
            r.view_name == "sold" and "duplicating view" in r.reason for r in rejected
        )

    def test_count_query_rejects_duplicating_view(self, views):
        query = parse_query("volume(s, count()) :- sales(s, p, a)")
        _candidates, rejected = generate_candidates(query, views)
        assert any(
            r.view_name == "sold" and "duplicating view" in r.reason for r in rejected
        )

    def test_residual_literals_survive(self, views):
        query = parse_query(
            "rev(s, sum(a)) :- sales(s, p, a), premium_store(s), not discontinued(p)"
        )
        candidates, _ = generate_candidates(query, views)
        via_sum = [c for c in candidates if "sales_by_sp" in c.view_names]
        assert via_sum
        body = via_sum[0].query.disjuncts[0]
        assert any(atom.predicate == "premium_store" for atom in body.positive_atoms)
        assert any(atom.predicate == "discontinued" for atom in body.negated_atoms)


# ----------------------------------------------------------------------
# The engine: verification, ranking, and the property-based differential
# ----------------------------------------------------------------------
class TestRewritingEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_safe_rewritings_match_on_random_instances(self, scenario, workers):
        """Every rewriting the engine emits as SAFE, evaluated over the
        materialized views, matches the original query on randomized
        warehouse instances (the subsystem's end-to-end soundness claim)."""
        engine = RewritingEngine(scenario.views)
        databases = [random_warehouse_database(seed) for seed in range(8)]
        for name, query in scenario.queries.items():
            report = engine.rewrite(query, workers=workers, seed=31)
            assert report.safe, name
            for verified in report.safe:
                assert verified.result.verdict is Verdict.EQUIVALENT
                for database in databases:
                    materialized = scenario.views.materialize(database)
                    assert evaluate(verified.candidate.query, materialized) == evaluate(
                        query, database
                    ), (name, verified.candidate.name)

    def test_unsafe_candidate_gets_witness(self, scenario):
        """A hand-written wrong candidate is refuted with a concrete witness:
        reading total revenue from the returns-filtered view drops rows."""
        engine = RewritingEngine(scenario.views)
        query = parse_query("rev(s, sum(a)) :- sales(s, p, a)")
        candidate = engine.make_candidate(
            query, parse_query("rev(s, sum(a)) :- kept_sales(s, p, a)")
        )
        (verified,) = engine.verify(query, [candidate], seed=5)
        assert verified.result.verdict is Verdict.NOT_EQUIVALENT
        assert verified.result.counterexample is not None
        witness = verified.result.counterexample.database
        assert witness is not None
        assert evaluate(query, witness) != evaluate(candidate.unfolded, witness)

    def test_ranking_prefers_cheaper_view(self, scenario):
        report = rewrite(
            scenario.queries["total_revenue"],
            scenario.views,
            database=scenario.database,
            seed=3,
        )
        assert report.best is not None
        costs = [verified.estimated_cost for verified in report.safe]
        assert costs == sorted(costs)
        assert report.best.estimated_cost <= report.direct_cost

    def test_rejects_query_already_over_views(self, scenario):
        engine = RewritingEngine(scenario.views)
        with pytest.raises(RewritingError, match="view predicate"):
            engine.rewrite(parse_query("q(s, sum(t)) :- sales_by_sp(s, p, t)"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_disjunctive_rewritings_use_the_sweep_path(self, workers):
        """Union-view candidates land on the bounded local-equivalence path
        (not quasilinear), exercising the plan_catalog_sweep batching."""
        views = ViewCatalog(
            [
                View(
                    "activity",
                    parse_query(
                        "v(s, p) :- returns(s, p), premium_store(s) ; "
                        "returns(s, p), discontinued(p)"
                    ),
                ),
                View(
                    "activity2",
                    parse_query(
                        "v(p, s) :- returns(s, p), discontinued(p) ; "
                        "premium_store(s), returns(s, p)"
                    ),
                ),
            ]
        )
        query = parse_query(
            "audit(s, p) :- returns(s, p), premium_store(s) ; "
            "returns(s, p), discontinued(p)"
        )
        report = rewrite(query, views, workers=workers, seed=17)
        assert len(report.safe) == 2
        for verified in report.safe:
            assert verified.result.method == "local-equivalence (set semantics)"
        databases = [random_warehouse_database(seed) for seed in range(6)]
        for database in databases:
            materialized = views.materialize(database)
            for verified in report.safe:
                assert evaluate(verified.candidate.query, materialized) == evaluate(
                    query, database
                )

    def test_budget_blown_candidate_degrades_to_unverified(self):
        views = ViewCatalog(
            [View("w", parse_query("v(x, y, z, u) :- wide(x, y, z, u)"))]
        )
        engine = RewritingEngine(views, max_subsets=64)
        query = parse_query("q(count()) :- wide(x, y, z, u) ; wide(u, z, y, x)")
        candidate = engine.make_candidate(
            query, parse_query("q(count()) :- w(x, y, z, u) ; w(u, z, y, x)")
        )
        (verified,) = engine.verify(query, [candidate])
        assert verified.result.verdict is Verdict.UNKNOWN
        assert "budget" in verified.result.method

    def test_views_accepts_mapping_and_iterable(self):
        definition = parse_query("v(s, p, sum(a)) :- sales(s, p, a)")
        query = parse_query("rev(s, sum(a)) :- sales(s, p, a)")
        from_mapping = rewrite(query, {"v_sp": definition}, seed=1)
        from_list = rewrite(query, [View("v_sp", definition)], seed=1)
        assert [v.candidate.query for v in from_mapping.safe] == [
            v.candidate.query for v in from_list.safe
        ]


class TestCostModel:
    def test_distinct_count_estimate_splits_naive_ties(self):
        """Residual joins of equal naive size rank by join-column selectivity
        under the distinct-count estimator."""
        from repro import Database
        from repro.rewriting import estimated_cost, naive_estimated_cost

        facts = [("fact", (i % 10, i)) for i in range(20)]  # join col: 10 distinct
        facts += [("selective", (i, i % 2)) for i in range(10)]  # col 0: 10 distinct
        facts += [("skewed", (i % 2, i)) for i in range(10)]  # col 0: 2 distinct
        database = Database(facts)
        via_selective = parse_query("q(x, sum(y)) :- fact(x, y), selective(x, z)")
        via_skewed = parse_query("q(x, sum(y)) :- fact(x, y), skewed(x, z)")
        assert naive_estimated_cost(via_selective, database) == naive_estimated_cost(
            via_skewed, database
        )
        assert estimated_cost(via_selective, database) < estimated_cost(
            via_skewed, database
        )

    def test_supplied_extents_rank_like_materializing(self, scenario):
        """``assemble_report(..., materialized=)`` ranks exactly as the
        report that materializes the extents itself."""
        from dataclasses import replace

        from repro.rewriting import assemble_report

        engine = RewritingEngine(scenario.views)
        query = scenario.queries["total_revenue"]
        candidates, rejected = engine.candidates(query)
        verified = engine.verify(query, candidates, seed=1)
        reports = [
            assemble_report(
                query, [replace(v) for v in verified], rejected, engine.views,
                scenario.database, materialized,
            )
            for materialized in (None, scenario.views.materialize(scenario.database))
        ]
        rankings = [
            ([v.candidate.name for v in r.safe], [v.estimated_cost for v in r.safe], r.direct_cost)
            for r in reports
        ]
        assert rankings[0] == rankings[1]
        assert rankings[0][2] is not None and all(c is not None for c in rankings[0][1])

    def test_view_probe_still_beats_fact_scan(self, scenario):
        """The new estimator preserves the PR 4 headline ordering: the best
        safe rewriting reads the pre-aggregated extent below the direct
        fact-table cost."""
        report = rewrite(
            scenario.queries["total_revenue"],
            scenario.views,
            database=scenario.database,
            seed=3,
        )
        assert report.best is not None
        assert report.best.estimated_cost <= report.direct_cost


class TestReviewRegressions:
    """Pins for issues found in review."""

    def test_unfold_rejects_partial_aggregate_in_head(self, views):
        # Must raise the documented RewritingError, not MalformedQueryError.
        candidate = parse_query("rows(s, t, count()) :- sales_by_sp(s, p, t)")
        with pytest.raises(RewritingError, match="partial-aggregate column"):
            unfold_query(candidate, views)

    def test_verify_plans_only_the_target_row(self, scenario):
        """plan_catalog_sweep restricted to given pairs plans nothing else."""
        from repro.workloads import plan_catalog_sweep

        catalog = {name: query for name, query in scenario.queries.items()}
        wanted = [("assortment", "total_revenue"), ("sales_count", "total_revenue")]
        plan = plan_catalog_sweep(catalog, pairs=wanted)
        planned = set(plan.pair_path) | {
            pair for group in plan.groups for pair in group.pairs
        }
        assert planned == set(wanted)
        with pytest.raises(Exception, match="unknown query"):
            plan_catalog_sweep(catalog, pairs=[("total_revenue", "nope")])
