"""The layered benchmark of the decision stack.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a checkout.  ``NAME`` is one of ``audit_sweep``,
``bounded_pair``, ``warehouse_rewrite``, ``served_store``, or ``all`` (each
workload in its own process, one after the other).  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Everything before it is the
human-readable report: the environment stamp and every metric under the
workload's own names, with units and sample counts.  README.md maps the
generic ``stage`` metrics to those names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit_sweep", "bounded_pair", "warehouse_rewrite", "served_store")
#: Set-up repetitions of the in-process workloads (``setup_s`` is their median).
SETUP_REPEATS = 3
#: Inherited settings that change what the program does; every workload
#: starts without them and sets only what it needs.
PINNED_PREFIX = "REPRO_"


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description="layered benchmark of the decision stack")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs (the benchmark's own tests)"
    )
    return parser.parse_args(argv)


def pinned_environment() -> dict:
    """The environment every workload runs under: no inherited ``REPRO_*``
    setting, a fixed hash seed, and temporary files inside the checkout."""
    env = {key: value for key, value in os.environ.items() if not key.startswith(PINNED_PREFIX)}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def main(argv) -> int:
    arguments = parse_arguments(argv)
    # The service is stopped with SIGINT.  Background jobs of a
    # non-interactive shell start with SIGINT ignored, and an ignored signal
    # stays ignored across fork and exec, so restore the default handler
    # before any server is started.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    env = pinned_environment()
    if any(os.environ.get(key) != value for key, value in env.items()) or any(
        key.startswith(PINNED_PREFIX) for key in os.environ
    ):
        # Re-run under the pinned environment (hash seed and REPRO_* are
        # read at interpreter start or import time).
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if arguments.workload == "all":
        return run_all(arguments, env)
    scratch = ROOT / ".perfbench_run" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    try:
        return run_one(arguments, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def run_one(arguments, env: dict, scratch: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    import pb_workloads
    from pb_oracle import Tally
    from pb_reference import SpeedReference
    from pb_served import ServedStore

    import_s = time.perf_counter() - import_start
    tally = Tally()
    reference = SpeedReference()
    try:
        if arguments.workload == "served_store":
            workload = ServedStore(arguments.seed, arguments.tiny, ROOT, env, scratch, reference)
            workload.setup()
        else:
            workload = pb_workloads.IN_PROCESS[arguments.workload](arguments.seed, arguments.tiny)
            setups = []
            for _ in range(SETUP_REPEATS):
                reference.sample()
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
        try:
            raw = pb_workloads.run_rounds(
                workload, arguments.seconds, bool(arguments.trace), tally, reference
            )
        finally:
            workload.close()
    finally:
        reference.close()
    if arguments.workload == "served_store":
        # Boots of traced servers run through the launcher; time plain ones.
        setup_s = median(workload.boots)
        peak_rss_mb = median(workload.peak_rss)
        raw["counters"] = workload.server_counters
    else:
        setup_s = import_s + median(setups)
        import resource

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import pb_report

    named = pb_report.named_metrics(workload, raw, setup_s, peak_rss_mb)
    scale = reference.scale()
    pb_report.print_report(arguments, workload, named, raw, tally, reference)
    if arguments.trace:
        metrics = pb_report.per_layer_metrics(raw, named)
    else:
        metrics = pb_report.end_to_end_metrics(workload, raw, named, scale)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(arguments, env: dict) -> int:
    """Every workload in its own process; prints each one's report, then one
    combined JSON line whose metrics are keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
            "--trace", str(arguments.trace),
        ] + (["--tiny"] if arguments.tiny else [])
        completed = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main(sys.argv[1:]))
