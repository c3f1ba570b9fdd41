"""Experiment E5 — throughput of the ordered-identity deciders (Section 4.2).

Deciding ``L → α(B) = α(B')`` is the inner loop of the bounded-equivalence
procedure; the paper notes that for functions like ``count`` this step is
linear while for ``sum``/``prod`` it requires the specialized procedures of
Propositions 4.5/4.7.  The benchmark measures the per-identity cost for every
aggregation function and runs the ablation of the generic single-witness
decider (Theorem 4.4) against the specialized cardinality decider for
``count``.
"""

from __future__ import annotations

import random

import pytest

from repro.aggregates import PAPER_FUNCTIONS, get_function
from repro.aggregates.functions import AggregationFunction
from repro.datalog import Constant, Variable
from repro.domains import Domain
from repro.orderings import enumerate_complete_orderings


def make_workload(function: AggregationFunction, instances: int = 60):
    rng = random.Random(7)
    terms = [Variable("u"), Variable("v"), Variable("w"), Constant(0), Constant(3)]
    orderings = list(enumerate_complete_orderings(terms, Domain.RATIONALS))
    arity = function.input_arity if function.input_arity is not None else 1
    workload = []
    for _ in range(instances):
        ordering = rng.choice(orderings)
        pool = list(ordering.terms())
        left = [tuple(rng.choice(pool) for _ in range(arity)) for _ in range(rng.randint(0, 5))]
        right = [tuple(rng.choice(pool) for _ in range(arity)) for _ in range(rng.randint(0, 5))]
        workload.append((ordering, left, right))
    return workload


@pytest.mark.paper_artifact("Section 4.2 — ordered identities")
@pytest.mark.parametrize("function_name", [f.name for f in PAPER_FUNCTIONS])
def test_ordered_identity_throughput(benchmark, function_name, report_lines):
    function = get_function(function_name)
    workload = make_workload(function)

    def run():
        return sum(
            1
            for ordering, left, right in workload
            if function.decide_ordered_identity(ordering, left, right)
        )

    valid = benchmark(run)
    per_identity_us = benchmark.stats.stats.mean / len(workload) * 1e6
    report_lines.append(
        f"[E5] {function_name:>6}: {per_identity_us:8.1f} µs per ordered identity "
        f"({valid}/{len(workload)} valid on the random workload)"
    )


@pytest.mark.paper_artifact("Specialized-decider ablation")
@pytest.mark.parametrize("decider", ["specialized-cardinality", "generic-shiftable"])
def test_count_decider_ablation(benchmark, decider, report_lines):
    function = get_function("count")
    workload = make_workload(function, instances=80)

    if decider == "specialized-cardinality":
        def decide(ordering, left, right):
            return function.decide_ordered_identity(ordering, left, right)
    else:
        # The generic Theorem 4.4 route: instantiate the ordering and compare.
        generic = AggregationFunction.decide_ordered_identity

        def decide(ordering, left, right):
            return generic(function, ordering, left, right)

    def run():
        return [decide(ordering, left, right) for ordering, left, right in workload]

    results = benchmark(run)
    report_lines.append(
        f"[E5 ablation] count decider ({decider}): "
        f"{benchmark.stats.stats.mean / len(workload) * 1e6:.1f} µs per identity, "
        f"{sum(results)} valid"
    )
