"""Tests for the public API surface and the error hierarchy."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.errors import (
    DomainError,
    EvaluationError,
    MalformedQueryError,
    QuerySyntaxError,
    ReproError,
    UndecidableError,
    UnsafeQueryError,
    UnsatisfiableOrderingError,
    UnsupportedAggregateError,
)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.aggregates as aggregates
        import repro.core as core
        import repro.datalog as datalog
        import repro.engine as engine
        import repro.orderings as orderings
        import repro.parallel as parallel
        import repro.rewriting as rewriting
        import repro.session as session
        import repro.sql as sql
        import repro.workloads as workloads

        for module in (
            aggregates,
            core,
            datalog,
            engine,
            orderings,
            parallel,
            rewriting,
            session,
            sql,
            workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_top_level_convenience_functions(self):
        query = repro.parse_query("q(x, sum(y)) :- p(x, y)")
        database = repro.parse_database("p(1, 2).")
        assert repro.evaluate(query, database) == {(1,): 2}
        assert repro.are_equivalent(query, query).is_equivalent


class TestStdlibOnly:
    """The package runs on the standard library alone: evaluating a catalog
    and deciding its matrix must not import NumPy, even where it is
    installed.  A fresh interpreter keeps modules the test runner loaded
    out of the check."""

    SCRIPT = textwrap.dedent(
        """
        import sys

        import repro
        from repro.engine import evaluate
        from repro.workloads import build_warehouse

        warehouse = build_warehouse()
        for query in warehouse.queries.values():
            evaluate(query, warehouse.database)
        ws = repro.Workspace()
        for name, query in warehouse.queries.items():
            ws.add(query, name=name)
        assert len(ws.equivalences()) == 28
        ws.close()
        assert "numpy" not in sys.modules, "numpy was imported"
        """
    )

    def test_evaluation_and_decision_import_no_numpy(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            DomainError,
            EvaluationError,
            MalformedQueryError,
            QuerySyntaxError,
            UndecidableError,
            UnsafeQueryError,
            UnsatisfiableOrderingError,
            UnsupportedAggregateError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)
        assert issubclass(error_type, Exception)

    def test_syntax_error_message_includes_position(self):
        error = QuerySyntaxError("bad token", text="q(x) :-", position=5)
        assert "position 5" in str(error)

    def test_catching_the_base_class_is_sufficient(self):
        with pytest.raises(ReproError):
            repro.parse_query("q(x :- p(x)")
        with pytest.raises(ReproError):
            repro.get_function("median")
        with pytest.raises(ReproError):
            repro.parse_query("q(x) :- p(y)")


class TestDocstrings:
    def test_public_modules_have_docstrings(self):
        import repro.aggregates.functions
        import repro.core.bounded
        import repro.core.equivalence
        import repro.datalog.queries
        import repro.engine.symbolic
        import repro.orderings.complete_orderings

        for module in (
            repro,
            repro.aggregates.functions,
            repro.core.bounded,
            repro.core.equivalence,
            repro.datalog.queries,
            repro.engine.symbolic,
            repro.orderings.complete_orderings,
        ):
            assert module.__doc__ and module.__doc__.strip()

    def test_key_entry_points_have_docstrings(self):
        from repro.core import are_equivalent, bounded_equivalence, local_equivalence
        from repro.core.quasilinear import quasilinear_equivalent

        for function in (are_equivalent, bounded_equivalence, local_equivalence, quasilinear_equivalent):
            assert function.__doc__ and function.__doc__.strip()
