"""Parallel decision subsystem: sharded bounded equivalence, catalog sweeps,
and equivalence matrices.

The decision procedures of the paper enumerate huge but *independent* check
spaces — (subset, ordering) pairs for bounded equivalence, query pairs for an
equivalence matrix, and (subset, ordering-class) rows of a whole sub-catalog
for the single-sweep engine.  This package splits those spaces into picklable
shards (:mod:`repro.parallel.tasks`) and runs them through pluggable
executors (:mod:`repro.parallel.executor`): serial for reference and
debugging, or a multiprocessing pool with chunked dispatch, early exit via a
shared cancellation event, and deterministic merging of verdicts and
witnesses.  Pools are forked after a serial warm prefix — of the subset
stream for sweeps, of the pair tasks for matrix cells — so workers inherit
the parent's Γ / comparison / kernel caches copy-on-write.

Users normally reach this subsystem through ``workers=N`` on
:func:`repro.core.bounded.bounded_equivalence` or
:func:`repro.workloads.equivalence_matrix`; the ``REPRO_WORKERS`` environment
variable sets the default worker count process-wide (a malformed value warns
and falls back to serial).
"""

from .executor import (
    PersistentProcessExecutor,
    ProcessExecutor,
    SerialExecutor,
    cancellation_requested,
    default_workers,
    in_worker,
    resolve_executor,
)
from .tasks import (
    SHIP_RANGES,
    SHIP_ROWS,
    BoundedCheckOutcome,
    BoundedCheckTask,
    PairCheckTask,
    PairOutcome,
    SweepCheckOutcome,
    SweepCheckTask,
    SweepRangeCheckTask,
    block_cyclic_ranges,
    bounded_check_tasks,
    derive_pair_seed,
    merge_bounded_outcomes,
    pair_check_tasks,
    parallel_bounded_search,
    parallel_sweep_search,
    run_bounded_check_task,
    run_pair_task,
    run_sweep_check_task,
    run_sweep_range_task,
    sweep_check_tasks,
    sweep_range_tasks,
)

__all__ = [
    "BoundedCheckOutcome",
    "BoundedCheckTask",
    "PairCheckTask",
    "PairOutcome",
    "PersistentProcessExecutor",
    "ProcessExecutor",
    "SHIP_RANGES",
    "SHIP_ROWS",
    "SerialExecutor",
    "SweepCheckOutcome",
    "SweepCheckTask",
    "SweepRangeCheckTask",
    "block_cyclic_ranges",
    "bounded_check_tasks",
    "cancellation_requested",
    "default_workers",
    "derive_pair_seed",
    "in_worker",
    "merge_bounded_outcomes",
    "pair_check_tasks",
    "parallel_bounded_search",
    "parallel_sweep_search",
    "resolve_executor",
    "run_bounded_check_task",
    "run_pair_task",
    "run_sweep_check_task",
    "run_sweep_range_task",
    "sweep_check_tasks",
    "sweep_range_tasks",
]
