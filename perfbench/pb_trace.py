"""The outside-in tracer: per-layer calls, total and self time.

The tracer times calls into each layer's public functions from outside the
package.  :func:`install` wraps every target and rebinds *every* module-level
alias of it inside ``repro`` (callers bind names with ``from ... import``,
so patching the defining module alone would miss most calls), wraps the
methods on their classes, and wraps each kernel that ``get_kernel`` returns.

Spans are aggregated in memory as they close: a span's self time is its
duration minus the durations of its direct children on the same thread, so
the self times of all spans under a root sum to the root's duration.  The
root span is opened by the benchmark around each timed phase; its own self
time is the time no listed function accounts for (``trace.unattributed_s``).
Nothing is written out until the run ends and :meth:`Tracer.table` is read.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Optional

ROOT = "workload"

#: ``(layer.function, module, attribute path)`` of every traced target.  A
#: dotted attribute path names a method; methods defined on several
#: subclasses are wrapped on each class that defines them.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("session.equivalences", "repro.session.workspace", "Workspace.equivalences"),
    ("session.rewrite", "repro.session.workspace", "Workspace.rewrite"),
    ("workloads.plan_catalog_sweep", "repro.workloads.batch", "plan_catalog_sweep"),
    ("workloads.decide_pairs", "repro.workloads.batch", "decide_pairs"),
    ("core.sweep_equivalence", "repro.core.bounded", "sweep_equivalence"),
    ("core.check_subset_sweep", "repro.core.bounded", "check_subset_sweep"),
    ("core.bounded_equivalence", "repro.core.bounded", "bounded_equivalence"),
    ("core.check_subset", "repro.core.bounded", "check_subset"),
    ("core.are_equivalent", "repro.core.equivalence", "are_equivalent"),
    ("core.find_counterexample", "repro.core.counterexample", "find_counterexample"),
    ("core.quasilinear_equivalent", "repro.core.quasilinear", "quasilinear_equivalent"),
    ("aggregates.decide_ordered_identity", "repro.aggregates.functions",
     "AggregationFunction.decide_ordered_identity"),
    ("orderings.enumerate_complete_orderings", "repro.orderings.complete_orderings",
     "enumerate_complete_orderings"),
    ("engine.symbolic_group_index", "repro.engine.symbolic", "symbolic_group_index"),
    ("engine.symbolic_groups", "repro.engine.symbolic", "symbolic_groups"),
    ("engine.condition_rows", "repro.engine.compile", "condition_rows"),
    ("engine.plan_condition", "repro.engine.planner", "plan_condition"),
    ("engine.get_kernel", "repro.engine.compile", "get_kernel"),
    ("engine.store_for", "repro.engine.columnar", "store_for"),
    ("engine.evaluate", "repro.engine.evaluator", "evaluate"),
    ("rewriting.candidates", "repro.rewriting.engine", "RewritingEngine.candidates"),
    ("rewriting.verify", "repro.rewriting.engine", "RewritingEngine.verify"),
    ("rewriting.assemble_report", "repro.rewriting.engine", "assemble_report"),
    ("rewriting.materialize", "repro.rewriting.views", "ViewCatalog.materialize"),
    ("store.pair_key", "repro.store.canon", "pair_key"),
    ("store.serve", "repro.store.disk", "VerdictStore.serve"),
    ("store.record", "repro.store.disk", "VerdictStore.record"),
    ("store.realize_result", "repro.store.witness", "realize_result"),
    ("datalog.parse_query", "repro.datalog.parser", "parse_query"),
)

#: The callables ``get_kernel`` returns are traced under this name.
KERNEL = "engine.kernel"

#: Timed by the benchmark's HTTP client around each request it sends.
SERVICE_REQUEST = "service.request"

#: Every per-function name the tracer reports, in table order.
LAYER_FUNCTIONS: tuple[str, ...] = tuple(
    name for name, _module, _attribute in TARGETS
) + (KERNEL, SERVICE_REQUEST)


class Tracer:
    """Aggregated spans: ``{name: [calls, total_s, self_s]}`` per thread,
    merged on read.  Top-level spans (depth 0) also keep their intervals so
    a second process's spans can be nested under this one's by time.

    A ``rooted`` tracer records only inside root spans (:meth:`root`), so
    the benchmark's own checks between timed phases stay out of the table.
    """

    def __init__(self, rooted: bool = True) -> None:
        self.rooted = rooted
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list]] = []
        self._intervals: list[list[tuple[str, float, float]]] = []

    def _thread_state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.table = {}
            state.intervals = []
            with self._lock:
                self._tables.append(state.table)
                self._intervals.append(state.intervals)
        return state

    def enter(self, count: bool = True) -> Optional[list]:
        """Open a span on this thread; returns the frame :meth:`exit` closes,
        or ``None`` outside a root span of a rooted tracer."""
        state = self._thread_state()
        if self.rooted and not state.stack:
            return None
        frame = [time.perf_counter(), 0.0, count]
        state.stack.append(frame)
        return frame

    def root(self) -> list:
        """Open a root span (close it with ``exit(ROOT, frame)``)."""
        frame = [time.perf_counter(), 0.0, True]
        self._thread_state().stack.append(frame)
        return frame

    def exit(self, name: str, frame: Optional[list]) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        state = self._local
        stack = state.stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        else:
            state.intervals.append((name, frame[0], end))
        entry = state.table.get(name)
        if entry is None:
            entry = state.table[name] = [0, 0.0, 0.0]
        if frame[2]:
            entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` timed as ``name`` (generator functions are timed per
        resumption and counted once per call)."""
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(name, function)
        enter, leave = self.enter, self.exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = enter()
            try:
                return function(*args, **kwargs)
            finally:
                leave(name, frame)

        traced.__pb_traced__ = function
        return traced

    def _wrap_generator(self, name: str, function: Callable) -> Callable:
        enter, leave = self.enter, self.exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            leave(name, enter())  # the call itself
            iterator = function(*args, **kwargs)
            while True:
                frame = enter(count=False)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave(name, frame)
                yield item

        traced.__pb_traced__ = function
        return traced

    def table(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over every thread."""
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, own) in list(table.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in merged.items()
        }

    def absorb(self, table: dict[str, dict[str, float]]) -> None:
        """Add another tracer's :meth:`table` (a server process's) to this
        thread's aggregates."""
        own = self._thread_state().table
        for name, entry in table.items():
            merged = own.setdefault(name, [0, 0.0, 0.0])
            merged[0] += entry["calls"]
            merged[1] += entry["total_s"]
            merged[2] += entry["self_s"]

    def top_level(self) -> list[tuple[str, float, float]]:
        """Every depth-0 span as ``(name, start, end)`` (perf_counter)."""
        with self._lock:
            return sorted(interval for spans in self._intervals for interval in spans)


def _subclasses(base: type) -> list[type]:
    """``base`` and every class derived from it."""
    seen, pending = [], [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target and return the function that restores them."""
    restore: list[tuple[object, str, object]] = []
    wrapped_by_id: dict[int, Callable] = {}
    for name, module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:  # a method, wrapped on every class defining it
            class_name, method = attribute.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                if method in vars(cls):
                    original = vars(cls)[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, tracer.wrap(name, original))
            continue
        function = getattr(module, attribute)
        if name == "engine.get_kernel":
            wrapped_by_id[id(function)] = _kernel_wrapping(tracer, function)
        else:
            wrapped_by_id[id(function)] = tracer.wrap(name, function)
    # Rebind every module-level alias of each wrapped function.
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            wrapped = wrapped_by_id.get(id(value))
            if wrapped is not None and getattr(wrapped, "__pb_traced__", None) is value:
                restore.append((module, attribute, value))
                setattr(module, attribute, wrapped)

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


def _kernel_wrapping(tracer: Tracer, get_kernel: Callable) -> Callable:
    """``get_kernel`` traced, with every kernel it returns traced too."""
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(get_kernel)
    def traced(*args, **kwargs):
        frame = enter()
        try:
            kernel = get_kernel(*args, **kwargs)
        finally:
            leave("engine.get_kernel", frame)
        return tracer.wrap(KERNEL, kernel)

    traced.__pb_traced__ = get_kernel
    return traced
