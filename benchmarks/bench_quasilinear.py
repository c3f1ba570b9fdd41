"""Experiment E2 — polynomial-time quasilinear equivalence (Corollary 7.5).

The paper's claim: for quasilinear queries, equivalence reduces to isomorphism
and is decidable in polynomial time.  The benchmark measures the quasilinear
procedure on linear chain queries of growing size (the time must grow
moderately, not explode), and contrasts it with the general local-equivalence
procedure, which is already far more expensive on the smallest instance —
the crossover the quasilinear fast path exists for.
"""

from __future__ import annotations

import time

import pytest

from repro.core import local_equivalence, quasilinear_equivalent
from repro.workloads import linear_chain_query, renamed_copy

CHAIN_LENGTHS = [2, 4, 6, 8]


@pytest.mark.paper_artifact("Corollary 7.5")
@pytest.mark.parametrize("length", CHAIN_LENGTHS)
def test_quasilinear_scaling(benchmark, length, report_lines):
    query = linear_chain_query(length, function="sum")
    copy = renamed_copy(query)

    def run():
        return quasilinear_equivalent(query, copy)

    verdict = benchmark(run)
    assert verdict.equivalent
    report_lines.append(
        f"[E2] quasilinear equivalence, chain length {length} "
        f"(τ = {query.term_size}): decided in {benchmark.stats.stats.mean * 1000:.2f} ms (mean)"
    )


@pytest.mark.paper_artifact("Corollary 7.5 — non-equivalent instances")
@pytest.mark.parametrize("length", CHAIN_LENGTHS)
def test_quasilinear_scaling_negative(benchmark, length, report_lines):
    query = linear_chain_query(length, function="sum", with_comparisons=True)
    other = linear_chain_query(length, function="sum", with_comparisons=False)

    def run():
        return quasilinear_equivalent(query, other)

    verdict = benchmark(run)
    assert not verdict.equivalent
    report_lines.append(
        f"[E2] quasilinear non-equivalence, chain length {length}: "
        f"{benchmark.stats.stats.mean * 1000:.2f} ms (mean)"
    )


@pytest.mark.paper_artifact("Quasilinear fast-path ablation")
def test_fast_path_vs_general_procedure(benchmark, report_lines):
    """On the smallest chain the general procedure is already orders of
    magnitude slower than the isomorphism test; this is the ablation for the
    dispatcher's quasilinear fast path."""
    query = linear_chain_query(1, function="max", with_comparisons=False)
    copy = renamed_copy(query)

    start = time.perf_counter()
    general = local_equivalence(query, copy)
    general_seconds = time.perf_counter() - start
    assert general.equivalent

    def fast():
        return quasilinear_equivalent(query, copy)

    verdict = benchmark(fast)
    assert verdict.equivalent
    fast_seconds = benchmark.stats.stats.mean
    ratio = general_seconds / fast_seconds if fast_seconds else float("inf")
    report_lines.append(
        f"[E2 ablation] chain length 1: general procedure {general_seconds*1000:.1f} ms vs "
        f"quasilinear fast path {fast_seconds*1000:.3f} ms  (speed-up ≈ {ratio:,.0f}×)"
    )
