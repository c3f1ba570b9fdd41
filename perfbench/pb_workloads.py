"""The three in-process workloads and the measurement loop they share.

Each workload is a closed loop of identical rounds run by a single caller:
the next round starts when the previous one returns.  A round times its
phases from cold evaluation caches (every phase is a first-time decision for
the session it runs in), checks every answer against :mod:`pb_oracle`
outside the timed region, and records one sample per phase.
"""

from __future__ import annotations

import gc
import random
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional

# Library entry points are called through their modules, so the tracer's
# rebound aliases see the benchmark's own calls too.
from repro import Workspace, engine, workloads
from repro.core import bounded
from repro.obs import REGISTRY

import pb_inputs
from pb_oracle import EQUIVALENT, Oracle, Tally, check_matrix
from pb_reference import SpeedReference
from pb_trace import ROOT, Tracer

#: Workers of the parallel variant of each decision phase.
PARALLEL_WORKERS = 2

#: The witness-search seed of every decision.  It is fixed, not derived from
#: the run's seed: how many random trials a counterexample search needs
#: depends on it, and that moves the analyst matrix's time by up to half
#: from one seed to the next, so runs on different seeds would not measure
#: the same work.
DECISION_SEED = 0


def cold() -> None:
    """Drop every evaluation-layer cache so the next phase decides from
    scratch (the engine.* counters reset with them, so counters are read as
    per-phase deltas by :class:`Meter`), and collect garbage so each phase
    starts from the same heap state."""
    engine.clear_symbolic_caches()
    engine.clear_evaluation_caches()
    engine.clear_plan_cache()
    gc.collect()


@dataclass
class Meter:
    """Times phases and keeps their samples per metric.

    With a speed reference, the host's speed is sampled right before and
    right after each phase, and :meth:`nominal` scales each phase's time by
    the speed sampled near it (:mod:`pb_reference`).  In a counting round
    the meter also accumulates each phase's registry deltas, and in a
    traced round it opens the root span around each phase."""

    tracer: Optional[Tracer] = None
    counting: bool = False
    reference: Optional[SpeedReference] = None
    counters: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    #: ``(metric, start, end)`` of every phase timed against the reference.
    spans: list = field(default_factory=list)

    def timed(self, metric: str, operation: Callable, *args, **kwargs):
        """Run one phase, record its time under ``metric``, return its result."""
        if self.reference is not None:
            self.reference.sample()
        before = REGISTRY.snapshot() if self.counting else None
        frame = self.tracer.root() if self.tracer is not None else None
        start = time.perf_counter()
        try:
            result = operation(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if frame is not None:
                self.tracer.exit(ROOT, frame)
            if before is not None:
                self.counters.update(REGISTRY.diff(before))
        self.samples[metric].append(elapsed)
        if self.reference is not None:
            self.reference.sample()
            self.spans.append((metric, start, start + elapsed))
        return result

    def nominal(self) -> dict:
        """``{metric: [nominal seconds, ...]}`` of the reference-timed phases."""
        nominal = defaultdict(list)
        for metric, start, end in self.spans:
            nominal[metric].append((end - start) * self.reference.scale_between(start, end))
        return dict(nominal)


class Workload:
    """A closed-loop workload: ``setup`` builds the seeded inputs once per
    repetition, ``round`` runs one round.  ``serial_only`` rounds (the traced
    ones) skip the parallel phases; the tracer follows one thread."""

    name = ""
    #: The workload's own metric names, in stage order (see README.md).
    stages: tuple[str, ...] = ()
    #: Whether the host's speed is sampled around each phase.  A workload
    #: whose phases keep other processes busy samples it itself, at quiet
    #: points, since the reference loop would time the contention instead.
    speed_per_phase = True

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, meter: Meter, tally: Tally, serial_only: bool) -> None:
        """Run one round, recording its phases on ``meter``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload still holds (processes, files)."""

    def derived(self, samples: dict) -> dict:
        """Metrics computed from the phase medians."""
        return {}

    def serial_phases(self) -> tuple[str, ...]:
        """The phases a traced (serial-only) round times."""
        return tuple(stage for stage in self.stages if "_w" not in stage)


def _parallel_modes(serial_only: bool) -> tuple[int, ...]:
    return (1,) if serial_only else (1, PARALLEL_WORKERS)


def _suffix(workers: int) -> str:
    return "" if workers == 1 else f"_w{workers}"


# ----------------------------------------------------------------------
# audit_sweep
# ----------------------------------------------------------------------
class AuditSweep(Workload):
    """The optimizer case: a mostly-equivalent 28-query catalog decided by
    one cold ``Workspace.equivalences()``, then 4 delta batches of 4 seeded
    renamed copies each, serially and with 2 workers."""

    name = "audit_sweep"
    stages = ("decide_s", "decide_w2_s", "deltas_s", "deltas_w2_s")
    batches = 4
    batch_size = 4

    def setup(self) -> None:
        self.catalog = pb_inputs.build_audit_catalog(self.tiny)
        self.oracle = Oracle(pb_inputs.audit_classes(self.catalog))

    def round(self, meter: Meter, tally: Tally, serial_only: bool) -> None:
        for workers in _parallel_modes(serial_only):
            suffix = _suffix(workers)
            cold()
            workspace = Workspace(workers=workers, seed=DECISION_SEED)
            try:
                for name, query in self.catalog.items():
                    workspace.add(query, name=name)
                matrix = meter.timed("decide" + suffix + "_s", workspace.equivalences)
                check_matrix(matrix, self.catalog, self.oracle, tally, f"{self.name} cold{suffix}")
                batches = pb_inputs.delta_batches(
                    self.catalog, self.rng, self.batches, self.batch_size
                )

                def deltas():
                    matrices = []
                    for copies in batches:
                        for copy in copies:
                            workspace.add(copy.query, name=copy.name)
                        matrices.append(workspace.equivalences())
                    return matrices

                matrices = meter.timed("deltas" + suffix + "_s", deltas)
                queries = dict(self.catalog)
                oracle = self.oracle
                for copies, matrix in zip(batches, matrices):
                    fresh = {copy.name for copy in copies}
                    queries.update((copy.name, copy.query) for copy in copies)
                    oracle = oracle.with_classes(
                        {copy.name: oracle.classes[copy.source] for copy in copies}
                    )
                    new_cells = {
                        pair: cell for pair, cell in matrix.items() if fresh & set(pair)
                    }
                    check_matrix(new_cells, queries, oracle, tally, f"{self.name} delta{suffix}")
            finally:
                workspace.close()


# ----------------------------------------------------------------------
# bounded_pair
# ----------------------------------------------------------------------
class BoundedPair(Workload):
    """The pair path the sweep bypasses: bounded equivalence of the
    returns-audit rewriting pair at N=3 and the 10-query analyst matrix
    (counterexample search and the quasilinear procedure), serially and
    with 2 workers."""

    name = "bounded_pair"
    stages = ("pair_s", "pair_w2_s", "matrix_s", "matrix_w2_s")
    #: The analyst matrix is ~20x cheaper than the pair; repeating it keeps
    #: its median as steady as the pair's.
    matrix_repeats = 5

    def setup(self) -> None:
        self.first, self.second, self.bound = pb_inputs.rewriting_audit_pair(self.tiny)
        self.catalog = pb_inputs.analyst_catalog(self.tiny)
        classes = {name: name for name in self.catalog}
        for left, right in pb_inputs.ANALYST_EQUIVALENT_PAIRS:
            classes[right] = left
        self.oracle = Oracle(classes)

    def round(self, meter: Meter, tally: Tally, serial_only: bool) -> None:
        second = workloads.renamed_copy(self.second, f"_r{self.rng.randrange(10_000)}")
        for workers in _parallel_modes(serial_only):
            suffix = _suffix(workers)
            cold()
            report = meter.timed(
                "pair" + suffix + "_s", bounded.bounded_equivalence, self.first, second,
                self.bound, workers=workers, seed=DECISION_SEED,
            )
            tally.check(report.equivalent, f"{self.name} pair{suffix}: not EQUIVALENT")
            for _ in range(self.matrix_repeats):
                cold()
                matrix = meter.timed(
                    "matrix" + suffix + "_s", workloads.equivalence_matrix, self.catalog,
                    workers=workers, seed=DECISION_SEED,
                )
                check_matrix(matrix, self.catalog, self.oracle, tally, f"{self.name} matrix{suffix}")

    def derived(self, samples: dict) -> dict:
        derived = {}
        for suffix in ("", "_w2"):
            pair, matrix = samples.get(f"pair{suffix}_s"), samples.get(f"matrix{suffix}_s")
            if pair and matrix:
                derived[f"decide{suffix}_s"] = median(pair) + median(matrix)
        return derived


# ----------------------------------------------------------------------
# warehouse_rewrite
# ----------------------------------------------------------------------
class WarehouseRewrite(Workload):
    """The concrete engine at scale: ``rewrite()`` of each of the 6 scenario
    reports over 5 views on a fresh Workspace, then the reports evaluated
    directly over the ~20k-fact warehouse and through their best rewritings
    over the pre-materialized extents, and the extents materialized again."""

    name = "warehouse_rewrite"
    stages = ("rewrite_s", "report_direct_s", "report_view_s", "materialize_s")
    #: Repetitions per round, so that every stage gets several samples in a
    #: run (reports through views are ~7x cheaper than direct ones).
    direct_repeats = 2
    view_repeats = 5
    materialize_repeats = 2

    def setup(self) -> None:
        self.scenario = pb_inputs.view_scenario(self.seed, self.tiny)
        self.materialized = self.scenario.materialized()

    def round(self, meter: Meter, tally: Tally, serial_only: bool) -> None:
        scenario = self.scenario
        cold()
        workspace = Workspace(workers=1, seed=DECISION_SEED)
        try:
            for view in scenario.views:
                workspace.register_view(view)
            reports = {
                name: meter.timed("rewrite_s", workspace.rewrite, query, database=scenario.database)
                for name, query in scenario.queries.items()
            }
        finally:
            workspace.close()
        for name, report in reports.items():
            if tally.check(report.best is not None, f"{self.name} {name}: no safe rewriting"):
                for verified in report.safe:
                    tally.check(
                        verified.result.verdict.value == EQUIVALENT,
                        f"{self.name} {name}: unsafe rewriting {verified.candidate.name} emitted",
                    )

        def report_all(queries, database):
            return {name: engine.evaluate(query, database) for name, query in queries.items()}

        for _ in range(self.direct_repeats):
            cold()
            direct = meter.timed("report_direct_s", report_all, scenario.queries, scenario.database)
        through_views = {
            name: report.best.candidate.query
            for name, report in reports.items()
            if report.best is not None
        }
        for _ in range(self.view_repeats):
            cold()
            viewed = meter.timed("report_view_s", report_all, through_views, self.materialized)
            for name, answer in viewed.items():
                tally.check(
                    answer == direct[name],
                    f"{self.name} {name}: report through views differs from the direct one",
                )
        for _ in range(self.materialize_repeats):
            cold()
            meter.timed("materialize_s", scenario.views.materialize, scenario.database)


IN_PROCESS = {workload.name: workload for workload in (AuditSweep, BoundedPair, WarehouseRewrite)}


def run_rounds(
    workload: Workload, seconds: float, trace: bool, tally: Tally, reference: SpeedReference
) -> dict:
    """Run a warm-up round, then rounds for ``seconds``.  With ``trace`` the
    rounds alternate untraced (counting) and traced; only untraced rounds
    sample the speed reference and give end-to-end samples.  Returns the
    raw and nominal samples, the counters and the trace tables."""
    from pb_trace import install

    untraced = Meter(counting=trace, reference=reference if workload.speed_per_phase else None)
    counting_rounds = 0
    untraced_walls = []
    tables = []
    # One untimed warm-up round fills lazy imports and module-level set-up.
    _guarded(workload, Meter(), tally, serial_only=True)
    deadline = time.perf_counter() + seconds
    rounds = 0
    # A traced run needs one untraced and one traced round at least.
    minimum = 2 if trace else 1
    while rounds < minimum or time.perf_counter() < deadline:
        if trace and rounds % 2 == 1:
            tracer = Tracer()
            uninstall = install(tracer)
            try:
                if _guarded(workload, Meter(tracer=tracer), tally, serial_only=True):
                    tables.append(tracer.table())
            finally:
                uninstall()
        else:
            wall_before = _serial_wall(workload, untraced)
            if _guarded(workload, untraced, tally, serial_only=False):
                counting_rounds += 1
                untraced_walls.append(_serial_wall(workload, untraced) - wall_before)
        rounds += 1
    return {
        "samples": dict(untraced.samples),
        "nominal": untraced.nominal(),
        "counters": untraced.counters,
        "counting_rounds": counting_rounds,
        "untraced_walls": untraced_walls,
        "tables": tables,
        "rounds": rounds,
    }


def _serial_wall(workload: Workload, meter: Meter) -> float:
    """The summed time of every serial phase the meter has recorded (what a
    traced round runs)."""
    return sum(sum(meter.samples.get(metric, ())) for metric in workload.serial_phases())


def _guarded(workload: Workload, meter: Meter, tally: Tally, serial_only: bool) -> bool:
    """One round; an exception is one failed operation, not an abort."""
    try:
        workload.round(meter, tally, serial_only)
    except Exception:  # noqa: BLE001 - the run must report, not crash
        tally.attempted += 1
        tally.fail(f"{workload.name}: round raised\n{traceback.format_exc()}")
        return False
    return True
