"""Join planning for condition evaluation.

Both evaluation engines (the concrete engine in :mod:`repro.engine.evaluator`
and the symbolic engine in :mod:`repro.engine.symbolic`) enumerate the
satisfying assignments of a condition by extending partial assignments literal
by literal.  This module computes, once per condition, the *order* in which the
literals are processed; the engines then merely execute the resulting plan.

A plan is a sequence of four kinds of steps:

* :class:`AtomStep` — join a positive relational atom.  The step records which
  argument positions are already bound when the step runs (``bound_columns``),
  so the executor can probe a per-predicate hash index on exactly those
  columns instead of scanning the full relation.
* :class:`BindStep` — bind a variable through an equality comparison whose
  other side is already bound (safety allows variables defined only by
  equalities).
* :class:`CompareStep` — filter by a comparison whose two sides are bound.
* :class:`NegationStep` — filter by a negated atom all of whose variables are
  bound (an anti-join membership test).

The planner is greedy: at every point it first emits every binding, comparison
and negation step that has become runnable (filters are always cheaper than
joins, so they run as early as their variables allow), and only then picks the
next positive atom — the one with the most already-bound argument positions,
breaking ties towards the *estimated* smallest probe result.  This pushes
selections below the join and turns Cartesian products into index lookups
whenever the condition's join graph allows it.

The estimate uses join selectivity when the caller can supply it: with a
``distinct_count`` statistic (cheap to read off the columnar stores of
:mod:`repro.engine.columnar`), an atom probed on bound columns is costed at
``rows / max(distinct(column) for bound columns)`` — the classic uniform
equality-selectivity model — instead of its raw size, so a large relation with
a near-key bound column beats a smaller one probed on a low-cardinality
column.  Without the statistic the estimate degenerates to the raw size,
reproducing the original size-only tie-break exactly.

Plans depend on the condition and, through the tie-breaking rule, on the
relations' size/distinct *statistics* only — never on their contents — so
they are cached per ``(condition, statistics signature)`` pair.  The
signature (:func:`statistics_signature`) reads exactly the columns of the
condition's positive predicates (``Condition.predicate_arities``, memoized on
the condition).  A caller that already holds it — the columnar stores build
it once per store and condition shape, and the compiled engine's dispatch
table keys on it — passes it in prebuilt, and the planner reads no
statistics at all.  Builds and hits are mirrored into the metrics registry
as ``engine.plan.builds`` / ``engine.plan.hits``; the compiled engine counts
its dispatch-table hits as plan hits too, so the two add up to one per
planned evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..caches import register_cache
from ..datalog.atoms import Comparison, RelationalAtom
from ..datalog.conditions import Condition
from ..datalog.terms import Constant, Term, Variable
from ..obs import REGISTRY as _OBS


@dataclass(frozen=True)
class AtomStep:
    """Join a positive atom, probing an index on the bound columns."""

    atom: RelationalAtom
    #: Argument positions whose terms are bound before the step runs.  The
    #: executor probes ``index(atom.predicate, bound_columns)``; an empty tuple
    #: means a full scan of the relation (nothing bound yet).
    bound_columns: tuple[int, ...]


@dataclass(frozen=True)
class BindStep:
    """Bind ``variable`` to the value of ``source`` (an equality definition)."""

    variable: Variable
    source: Term


@dataclass(frozen=True)
class CompareStep:
    """Filter assignments by a fully bound comparison."""

    comparison: Comparison


@dataclass(frozen=True)
class NegationStep:
    """Filter assignments by a fully bound negated atom."""

    atom: RelationalAtom


Step = Union[AtomStep, BindStep, CompareStep, NegationStep]


@dataclass(frozen=True)
class Plan:
    """An ordered execution plan for one condition.

    ``resolvable`` is ``False`` when some variable can never become bound (the
    condition is unsafe); executing such a plan yields no assignments, matching
    the behaviour of the pre-planner engine.
    """

    condition: Condition
    steps: tuple[Step, ...]
    resolvable: bool = True


_PLAN_CACHE: dict = {}
_PLAN_CACHE_LIMIT = 4096

#: The planner's statistics signature: ``(predicate, rows, distinct counts
#: per column or None)`` per positive predicate, sorted by predicate.
Signature = tuple[tuple[str, int, Optional[tuple[int, ...]]], ...]


def statistics_signature(
    arities: tuple[tuple[str, int], ...],
    relation_size: Callable[[str], int],
    distinct_count: Optional[Callable[[str, int], int]] = None,
) -> Signature:
    """The statistics a plan over the predicates ``arities`` (a condition's
    :attr:`~repro.datalog.conditions.Condition.predicate_arities`) depends
    on — the plan cache's key besides the condition.  The columnar stores
    memoize it per store through this same function, so the compiled
    engine's dispatch key and the plan cache key cannot diverge."""
    return tuple(
        (
            predicate,
            relation_size(predicate),
            tuple(distinct_count(predicate, column) for column in range(arity))
            if distinct_count is not None
            else None,
        )
        for predicate, arity in arities
    )


def plan_condition(
    condition: Condition,
    relation_size: Callable[[str], int],
    distinct_count: Optional[Callable[[str, int], int]] = None,
    *,
    signature: Optional[Signature] = None,
) -> Plan:
    """Compute (or fetch from cache) the execution plan for ``condition``.

    ``relation_size`` maps a predicate name to the number of rows it currently
    holds; ``distinct_count`` (optional) maps ``(predicate, column)`` to the
    number of distinct values in that column.  Both only influence
    tie-breaking between equally-bound atoms: with distinct counts the
    planner estimates the probe result size as ``rows / distinct`` of the
    most selective bound column, without them it falls back to the raw size.
    A caller that already holds the :func:`statistics_signature` of the two
    passes it as ``signature`` and the statistics are not read again.
    """
    if signature is None:
        signature = statistics_signature(
            condition.predicate_arities, relation_size, distinct_count
        )
    key = (condition, signature)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        _OBS.inc("engine.plan.builds")
        plan = _build_plan(condition, signature)
        if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
            for stale in list(itertools.islice(iter(_PLAN_CACHE), _PLAN_CACHE_LIMIT // 4)):
                del _PLAN_CACHE[stale]
        _PLAN_CACHE[key] = plan
    else:
        _OBS.inc("engine.plan.hits")
    return plan


def _build_plan(condition: Condition, stats_signature: Signature) -> Plan:
    sizes = {predicate: size for predicate, size, _distincts in stats_signature}
    distincts = {predicate: entry for predicate, _size, entry in stats_signature}
    steps: list[Step] = []
    bound: set[Variable] = set()

    remaining_atoms = list(condition.positive_atoms)
    remaining_negated = list(condition.negated_atoms)
    # Equalities may either filter (both sides bound) or define a variable
    # (one side bound); other comparisons only filter.
    remaining_comparisons = list(condition.comparisons)

    def is_bound(term: Term) -> bool:
        return isinstance(term, Constant) or term in bound

    def emit_runnable_filters() -> None:
        """Emit every bind / compare / negation step that has become runnable,
        iterating to a fixed point (equality chains unlock one another)."""
        progress = True
        while progress:
            progress = False
            kept_comparisons = []
            for comparison in remaining_comparisons:
                left_bound = is_bound(comparison.left)
                right_bound = is_bound(comparison.right)
                if left_bound and right_bound:
                    steps.append(CompareStep(comparison))
                    progress = True
                elif comparison.is_equality and left_bound and isinstance(comparison.right, Variable):
                    steps.append(BindStep(comparison.right, comparison.left))
                    bound.add(comparison.right)
                    progress = True
                elif comparison.is_equality and right_bound and isinstance(comparison.left, Variable):
                    steps.append(BindStep(comparison.left, comparison.right))
                    bound.add(comparison.left)
                    progress = True
                else:
                    kept_comparisons.append(comparison)
            remaining_comparisons[:] = kept_comparisons
            kept_negated = []
            for atom in remaining_negated:
                if all(is_bound(argument) for argument in atom.arguments):
                    steps.append(NegationStep(atom))
                    progress = True
                else:
                    kept_negated.append(atom)
            remaining_negated[:] = kept_negated

    def estimated_rows(atom: RelationalAtom, bound_positions: list[int]) -> int:
        """The expected number of rows a probe on the bound columns returns:
        ``rows / distinct`` of the most selective bound column under the
        uniform-distribution model, or the raw size without statistics."""
        size = sizes.get(atom.predicate, 0)
        per_column = distincts.get(atom.predicate)
        if per_column is None or not bound_positions:
            return size
        selectivity = max(
            (per_column[position] for position in bound_positions if position < len(per_column)),
            default=0,
        )
        return size // max(1, selectivity)

    emit_runnable_filters()
    while remaining_atoms:
        best_index = 0
        best_key: tuple[int, int, int] | None = None
        for index, atom in enumerate(remaining_atoms):
            bound_positions = [
                position
                for position, argument in enumerate(atom.arguments)
                if is_bound(argument)
            ]
            # Maximise bound positions, then prefer the smallest estimated
            # probe result, then the smaller relation.
            key = (
                -len(bound_positions),
                estimated_rows(atom, bound_positions),
                sizes.get(atom.predicate, 0),
            )
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        atom = remaining_atoms.pop(best_index)
        bound_columns = tuple(
            position for position, argument in enumerate(atom.arguments) if is_bound(argument)
        )
        steps.append(AtomStep(atom, bound_columns))
        bound |= atom.variables()
        emit_runnable_filters()

    # Leftover literals mean some variable can never be bound (the condition
    # is unsafe); ``resolvable=False`` makes the executors yield nothing.
    resolvable = not remaining_comparisons and not remaining_negated
    return Plan(condition=condition, steps=tuple(steps), resolvable=resolvable)


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the ``engine.plan.*`` counters (used by
    benchmarks for cold-cache timings)."""
    _PLAN_CACHE.clear()
    _OBS.reset("engine.plan.")


register_cache("engine/planner.py:_PLAN_CACHE", "clear_evaluation_caches", clear_plan_cache)


def plan_cache_stats() -> dict[str, int]:
    """``{"entries", "builds", "hits"}`` for the plan cache.

    The counters live in the metrics registry (``engine.plan.*``), like the
    kernel cache's.  ``hits`` counts every evaluation that reused a plan,
    including the compiled engine's dispatch-table hits, which never call
    :func:`plan_condition`: ``builds + hits`` is one per planned evaluation,
    so it totals the same serially and under ``workers=N`` even though the
    split between the two is per process.
    """
    return {
        "entries": len(_PLAN_CACHE),
        "builds": _OBS.get("engine.plan.builds"),
        "hits": _OBS.get("engine.plan.hits"),
    }
