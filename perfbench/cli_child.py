"""Run one optbench CLI command in-process under a Tracer.

    python3 cli_child.py TRACE_JSON COMMAND [ARGS...]

Behaves like `python3 -m optbench.cli COMMAND ARGS...` (same exit code)
and also writes the layer totals plus the wall time of `main()` itself
to TRACE_JSON, so the parent can subtract it from the subprocess wall
time to get interpreter start-up plus imports.
"""

import json
import sys
import time

from tracer import Tracer

import optbench.cli


def run(trace_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        code = optbench.cli.main(argv)
        main_seconds = time.perf_counter() - start
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"main_seconds": main_seconds, "trace": tracer.to_dict()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
