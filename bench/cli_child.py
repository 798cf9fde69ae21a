"""Traced launcher for one heisenmod.cli process.

    python3 bench/cli_child.py TRACE_FILE ARGS...

Times `import heisenmod.cli`, installs the benchmark's wrappers, runs
heisenmod.cli.main(ARGS) and writes its counters, self times and spans to
TRACE_FILE as JSON.  The exit code is main's.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

t0 = time.perf_counter()
import heisenmod.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def run(trace_file: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.begin_task("cli")
    try:
        return heisenmod.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.end_task(1.0)
        Path(trace_file).write_text(json.dumps({
            "import_s": import_s,
            "counts": dict(tracer.counts),
            "self_s": dict(tracer.self_s),
            "spans": tracer.spans,
        }), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
