"""The known-answer oracle: expected verdicts from how each catalog is built.

Every answer the benchmark receives is checked here, and every mismatch is a
failed operation.  NOT_EQUIVALENT witnesses are re-checked with the ``naive``
engine, which shares no code path with the compiled engine under test.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.equivalence import Verdict
from repro.engine import engine_scope, evaluate

EQUIVALENT = Verdict.EQUIVALENT.value
NOT_EQUIVALENT = Verdict.NOT_EQUIVALENT.value


@dataclass
class Oracle:
    """Expected verdicts by equivalence class: two queries are equivalent
    exactly when their classes match.  ``flipped`` inverts the expectation
    of the listed cells (the benchmark's own tests use it to show that a
    wrong expectation is caught)."""

    classes: dict[str, str]
    flipped: frozenset = frozenset()

    def expected(self, first: str, second: str) -> str:
        same = self.classes[first] == self.classes[second]
        if tuple(sorted((first, second))) in self.flipped:
            same = not same
        return EQUIVALENT if same else NOT_EQUIVALENT

    def with_classes(self, extra: Mapping[str, str]) -> "Oracle":
        return Oracle({**self.classes, **extra}, self.flipped)


@dataclass
class Tally:
    """Attempted and failed operations; the first few failures are kept for
    the report."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(note)
        return ok

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 8:
            self.notes.append(note)
            print(f"perfbench: FAILED {note}", file=sys.stderr)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: 8 - len(self.notes)])


def check_matrix(matrix, queries, oracle: Oracle, tally: Tally, label: str) -> None:
    """Check every cell of a library matrix ``{(a, b): EquivalenceResult}``
    against the oracle, and re-check NOT_EQUIVALENT witnesses naively."""
    for (first, second), result in matrix.items():
        want = oracle.expected(first, second)
        if not tally.check(
            result.verdict.value == want,
            f"{label} {first}/{second}: {result.verdict.value}, expected {want}",
        ):
            continue
        if result.verdict.value == NOT_EQUIVALENT:
            witness_problem = recheck_witness(queries[first], queries[second], result)
            if witness_problem is not None:
                tally.fail(f"{label} {first}/{second}: {witness_problem}")


def recheck_witness(first, second, result) -> Optional[str]:
    """``None`` when the NOT_EQUIVALENT verdict is witness-backed under the
    naive engine, else what is wrong.  Queries whose answers live in
    different spaces (different head shapes) need no database."""
    if result.method == "incomparable shapes":
        return None
    counterexample = result.counterexample
    if counterexample is None or counterexample.database is None:
        return "no witness database"
    with engine_scope("naive"):
        if evaluate(first, counterexample.database) == evaluate(second, counterexample.database):
            return "witness does not distinguish the queries"
    return None


def check_served_cells(cells, oracle: Oracle, tally: Tally, label: str) -> None:
    """Check a served matrix payload (``{"cells": [...]}``) against the
    oracle."""
    for cell in cells:
        want = oracle.expected(cell["first"], cell["second"])
        tally.check(
            cell["verdict"] == want,
            f"{label} {cell['first']}/{cell['second']}: {cell['verdict']}, expected {want}",
        )
