"""The benchmark's own tests, at a tiny size.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pb_compare  # noqa: E402
import pb_report  # noqa: E402
from pb_oracle import Tally  # noqa: E402
from pb_trace import ROOT as ROOT_SPAN  # noqa: E402
from pb_trace import Tracer, install  # noqa: E402
from pb_workloads import AuditSweep, Meter  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _run(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_names_what_the_benchmark_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(pb_report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == pb_report.per_layer_spec()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    completed = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny")
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    report = completed.stdout
    assert "stamp {" in report and "error_rate" in report


def test_every_per_layer_metric_is_emitted_with_its_unit():
    result = _result(
        _run("--workload", "audit_sweep", "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny")
    )
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in SPEC["per_layer"]
    }
    metrics = result["metrics"]
    assert metrics["session.equivalences.calls"]["value"] > 0
    assert metrics["engine.kernel.compiles"]["value"] > 0


def test_flipping_one_expected_verdict_is_a_failure():
    workload = AuditSweep(seed=3, tiny=True)
    workload.setup()
    honest = Tally()
    workload.round(Meter(), honest, serial_only=True)
    assert honest.failed == 0 and honest.attempted > 0

    workload.oracle.flipped = frozenset({("audit_01", "audit_02")})
    flipped = Tally()
    workload.round(Meter(), flipped, serial_only=True)
    assert flipped.failed == 1
    assert flipped.failed / flipped.attempted > 0


def test_self_times_sum_to_the_root_span():
    workload = AuditSweep(seed=3, tiny=True)
    workload.setup()
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        workload.round(Meter(tracer=tracer), Tally(), serial_only=True)
    finally:
        uninstall()
    table = tracer.table()
    assert table["session.equivalences"]["calls"] == 1 + workload.batches
    assert table["engine.kernel"]["calls"] > 0
    total_self = sum(entry["self_s"] for entry in table.values())
    assert total_self == pytest.approx(table[ROOT_SPAN]["total_s"], abs=1e-6)


def test_uninstall_restores_every_alias():
    from repro import engine
    from repro.engine import evaluator

    original = evaluator.evaluate
    uninstall = install(Tracer())
    try:
        assert engine.evaluate is not original
    finally:
        uninstall()
    assert engine.evaluate is original and evaluator.evaluate is original


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_hedges_g_matches_a_hand_computed_value():
    g, (low, high) = pb_compare.hedges_g([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    # d = 1 / pooled sd 1; J = 1 - 3 / (4 * 6 - 9) = 0.8.
    assert g == pytest.approx(0.8)
    assert low < g < high


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    faster = [value * 0.8 for value in base]
    assert pb_compare.verdict(base, faster, list(zip(base, faster)), True, 0.1) == "gain"
    slower = [value * 1.2 for value in base]
    assert pb_compare.verdict(base, slower, list(zip(base, slower)), True, 0.1) == "loss"
    same = list(reversed(base))
    assert pb_compare.verdict(base, same, list(zip(base, same)), True, 0.1) == "within bound"
