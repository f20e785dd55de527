"""Run ``python -m repro ...`` with a workload's entry points traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python benchmarks/e2e/traced_server.py WORKLOAD OUT.json REPRO-ARGS...

The wrappers go in before the CLI starts, the CLI runs exactly as
``python -m repro REPRO-ARGS...`` would, and when it returns (the serve
workloads stop it with the ``stop`` op) the span summary is written to
``OUT.json``.
"""

from __future__ import annotations

import json
import runpy
import sys

from layers import TRACE_MAPS
from spans import Tracer


def main(argv: list[str]) -> None:
    workload, out, cli = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install(TRACE_MAPS[workload])
    sys.argv = ["repro", *cli]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    main(sys.argv[1:])
