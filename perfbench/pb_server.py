"""Run ``python -m repro.service`` with the benchmark's tracer installed.

Usage: ``python pb_server.py --trace-out PATH [repro.service arguments]``.
The tracer's table and top-level span intervals are written to ``PATH`` as
JSON once, when the server exits (SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: pb_server.py --trace-out PATH [service arguments]", file=sys.stderr)
        return 2
    out, service_args = Path(argv[1]), argv[2:]

    from repro.service.__main__ import main as serve

    from pb_trace import Tracer, install

    tracer = Tracer(rooted=False)
    install(tracer)
    try:
        return serve(service_args)
    finally:
        out.write_text(json.dumps({"table": tracer.table(), "top_level": tracer.top_level()}))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
