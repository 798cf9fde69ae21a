"""heisenmod benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are taken from
this file).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Details of the run go to
bench/out/.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("classify", "structure", "search", "cli")
# Every run completes whole rounds and at least this many checked tasks, so
# that the 80th percentile has ten tasks beyond it.
MIN_SUCCEEDED = 50
TAIL_QUANTILE = 0.8
SETUP_SAMPLES = 5
RUN_CAP_S = 120.0


# -- host speed ------------------------------------------------------------------
#
# The speed of this kind of host wanders by up to 1.8x within minutes (the
# CPU time of a task tracks its wall time, so it is the host, not the
# scheduler).  Each task is bracketed by a short probe of the same kind of
# work as the workload's, and its wall time is rescaled to a host on which
# the probe takes its reference time: seconds x reference / probe.


def _python_kernel(n=12, p=7):
    """A pure-Python product of two n x n matrices mod p through closures,
    the shape of work heisenmod's kernels do; it shares no code with them."""
    add = lambda a, b: (a + b) % p  # noqa: E731
    mul = lambda a, b: a * b % p  # noqa: E731
    a = [(i * 5 + 3) % p for i in range(n * n)]
    b = [(i * 3 + 1) % p for i in range(n * n)]
    out = [0] * (n * n)
    for _ in range(2):
        for i in range(n):
            row = a[i * n:(i + 1) * n]
            for t, x in enumerate(row):
                if x:
                    col = b[t * n:(t + 1) * n]
                    for j in range(n):
                        y = col[j]
                        if y:
                            out[i * n + j] = add(out[i * n + j], mul(x, y))
    return out


def _numpy_kernel():
    """Commutators of 125 x 125 pairs of 2 x 2 int16 matrices mod 5 with
    einsum, the shape of the exhaustive search's blocks at d = 2."""
    import numpy as np

    a = (np.arange(125 * 4) % 5).astype(np.int16).reshape(125, 2, 2)
    ab = np.einsum("aij,bjk->abik", a, a)
    ba = np.einsum("bij,ajk->abik", a, a)
    return ((ab - ba) % 5).any(axis=(2, 3))


def _median_of_three(kernel) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def _process_start() -> float:
    """Start and end of an interpreter that does nothing."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


# workload -> (probe, its reference seconds on this host)
_PYTHON_PROBE = (lambda: _median_of_three(_python_kernel), 0.001)
PROBES = {
    "classify": _PYTHON_PROBE,
    "structure": _PYTHON_PROBE,
    "search": (lambda: _median_of_three(_numpy_kernel), 0.011),
    "cli": (_process_start, 0.075),
}
# The set-up of search is Python work, and a numpy probe before its clock
# would load numpy, whose import that set-up counts.
SETUP_PROBES = {**PROBES, "search": _PYTHON_PROBE}


class Host:
    """The workload's probe and the factor that rescales wall time."""

    def __init__(self, workload: str, probes=PROBES):
        self.probe, self.ref = probes[workload]

    def factor(self, before: float, after: float) -> float:
        return self.ref / ((before + after) / 2)


def pin_cpu():
    """Keep this process and its children on one CPU, so that the probe
    measures the CPU the work runs on."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
    except (AttributeError, OSError):
        pass


# -- set-up ------------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path, launcher):
    """Import heisenmod, build the round's inputs from the seed, warm up.
    Returns (tasks, host-normalised seconds, raw seconds).  The import of
    the checker is not counted; numpy's is, on search only, where heisenmod
    itself loads it."""
    host = Host(workload, SETUP_PROBES)
    before = host.probe()
    t0 = time.perf_counter()
    import heisenmod as hm

    if workload == "search":
        import numpy  # noqa: F401  search_min_faithful's first call loads it
    raw = time.perf_counter() - t0
    import workloads as wl

    t0 = time.perf_counter()
    if workload == "cli":
        tasks = wl.setup_cli(hm, seed, workdir, launcher)
    else:
        tasks = wl.SETUPS[workload](hm, seed)
    raw += time.perf_counter() - t0
    return tasks, raw * host.factor(before, host.probe()), raw


def setup_sample(workload: str, seed: int) -> float:
    """One set-up in a fresh process; returns its normalised seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-sample"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- the timed loop ------------------------------------------------------------------


class Loop:
    """Runs whole rounds, one task at a time; times and checks each task."""

    def __init__(self, tasks, host: Host, tracer=None, child_traces=None):
        self.tasks = tasks
        self.host = host
        self.tracer = tracer
        self.child_traces = child_traces
        self.latencies: list[float] = []  # normalised, succeeded tasks only
        self.raw: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.unexpected = 0
        self.rounds = 0

    def run_round(self, last_probe: float) -> float:
        import workloads as wl

        for i, task in enumerate(self.tasks):
            task_id = f"r{self.rounds}.t{i}.{task.kind}"
            if self.tracer is not None:
                self.tracer.begin_task(task_id)
            error = None
            t0 = time.perf_counter()
            try:
                out = task.run()
            except Exception as exc:  # a failed task is counted, not timed
                error = exc
            dt = time.perf_counter() - t0
            now = self.host.probe()
            factor = self.host.factor(last_probe, now)
            last_probe = now
            if self.tracer is not None:
                fold_trace(self.tracer, self.child_traces, factor)
            if error is None:
                try:
                    task.check(out)
                except Exception as exc:  # a malformed output fails its check
                    error = exc
            self.attempted += 1
            if error is not None:
                fault = wl.known_fault(error)
                if fault is None or fault != task.fault:
                    self.unexpected += 1
                self.failures.append({"task": task_id, "fault": fault,
                                      "error": f"{type(error).__name__}: {error}"})
                continue
            self.latencies.append(dt * factor)
            self.raw.append(dt)
            self.by_kind.setdefault(task.kind, []).append(dt * factor)
        self.rounds += 1
        return last_probe


def fold_trace(tracer, child_traces, factor: float):
    """End the current task's trace: its own self times and those of any
    cli processes it ran, all scaled by the task's host-speed factor."""
    tracer.end_task(factor)
    for child in child_traces:
        tracer.merge(child["counts"], child["self_s"], factor)
        tracer.spans.extend(
            (f"{tracer.task}/{s[0]}", *s[1:5], tracer.task) for s in child["spans"])
        tracer.import_s.append(child["import_s"] * factor)
    child_traces.clear()


def quantile(values, q: float):
    """Linear interpolation between order statistics at q * (n - 1); None
    when there are no values."""
    if not values:
        return None
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- cli launchers -------------------------------------------------------------------


class Peak:
    """Largest resident set seen among the cli processes."""

    def __init__(self):
        self.kb = 0

    def run(self, cmd, env):
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        # reap the child here to read its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.kb = max(self.kb, usage.ru_maxrss)
        return proc.returncode, out


def launchers(peak: Peak, workdir: Path, traced: bool, child_traces: list):
    import workloads as wl

    env = wl.cli_env()
    counter = [0]

    def plain(argv):
        return peak.run([sys.executable, "-m", "heisenmod.cli", *argv], env)

    def traced_launch(argv):
        counter[0] += 1
        path = workdir / f"child-trace-{counter[0]}.json"
        code, out = peak.run(
            [sys.executable, str(HERE / "cli_child.py"), str(path), *argv], env)
        child_traces.append(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
        return code, out

    return traced_launch if traced else plain


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "heisenmod" / "__init__.py").is_file():
        print(f"error: heisenmod sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    pin_cpu()

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    peak = Peak()
    child_traces: list = []
    launcher = None
    if args.workload == "cli":
        launcher = launchers(peak, workdir, bool(args.trace), child_traces)
    try:
        if args.setup_sample:
            _, setup_s, _ = setup(args.workload, args.seed, workdir, launcher)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workdir, peak, launcher, child_traces)
    finally:
        if workdir.is_dir():
            for f in workdir.iterdir():
                f.unlink()
            workdir.rmdir()


def measure(args, workdir, peak, launcher, child_traces) -> int:
    OUT.mkdir(exist_ok=True)
    tracer = None
    samples = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        samples = [setup_sample(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
    tasks, setup_s, setup_raw = setup(args.workload, args.seed, workdir, launcher)
    samples.append(setup_s)
    if tracer is not None:
        fold_trace(tracer, child_traces, setup_s / setup_raw)

    loop = Loop(tasks, Host(args.workload), tracer, child_traces)
    start = time.perf_counter()
    last = loop.host.probe()
    while True:
        last = loop.run_round(last)
        elapsed = time.perf_counter() - start
        if args.trace or loop.unexpected:
            # a traced run is one round: exact, repeatable totals; a round
            # with an unexpected failure already makes the run incorrect
            break
        if elapsed >= RUN_CAP_S or (
            elapsed >= args.seconds and len(loop.latencies) >= MIN_SUCCEEDED
        ):
            break

    failed = len(loop.failures)
    timed = sum(loop.latencies)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": loop.rounds, "tasks_per_round": len(tasks),
        "attempted": loop.attempted, "failed": failed,
        "failures": loop.failures[: len(tasks)],
        "setup_samples_s": samples, "elapsed_s": time.perf_counter() - start,
        "raw_latency_p50_s": quantile(loop.raw, 0.5),
        "kinds": {k: {"n": len(v), "p50_s": quantile(v, 0.5)}
                  for k, v in sorted(loop.by_kind.items())},
        "tasks_per_s": len(loop.latencies) / timed if timed else 0.0,
    }
    if args.trace:
        import tracing

        if args.workload == "cli":
            import_s = statistics.median(tracer.import_s)
        else:
            import_s = statistics.median(cli_import_samples())
        metrics = tracing.layer_metrics(tracer, import_s)
        tracer.write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz")
    else:
        if args.workload == "cli":
            rss_kb = peak.kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "tasks_per_s": {"value": detail["tasks_per_s"], "unit": "1/s"},
            "latency_p50_s": {"value": quantile(loop.latencies, 0.5), "unit": "s"},
            "latency_tail_s": {"value": quantile(loop.latencies, TAIL_QUANTILE),
                               "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    detail["metrics"] = metrics
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": loop.unexpected == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def cli_import_samples(k: int = 3) -> list[float]:
    """Normalised seconds of `import heisenmod.cli` in fresh processes."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import heisenmod.cli; "
            "print(time.perf_counter() - t)")
    host = Host("cli")
    out = []
    for _ in range(k):
        before = host.probe()
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        out.append(float(proc.stdout) * host.factor(before, host.probe()))
    return out


if __name__ == "__main__":
    sys.exit(main())
