"""Opt-in tracing of heisenmod from outside: wrappers, spans and counters.

install() replaces the public functions of heisenmod's modules (fields,
matrices, heisenberg, modules, serialize, suites, cli) and the kernel
methods of Matrix and Echelon with wrappers that record one span per call:
name, start, end, parent span and task id.  Field arithmetic is too fine
for spans, so each field's per-operation closures (add, sub, mul, neg,
inv) are wrapped with a bare counter; div and pow are counted through the
mul and inv calls they make.  No file of heisenmod changes: the wrappers
are swapped into every module namespace that holds the original object.

Spans stay in memory and are written out by the caller when the run ends.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

MODULES = ("fields", "matrices", "heisenberg", "modules", "serialize",
           "suites", "cli")

# span name -> per-layer metric that accumulates its self time
SELF_TIME_GROUPS = {
    "matrices.Matrix.__mul__": "matrices.mul",
    "matrices.Matrix.__rmul__": "matrices.mul",
    "matrices.Matrix.__pow__": "matrices.mul",
    "matrices.Matrix.apply": "matrices.apply",
    "matrices.Echelon.insert": "matrices.echelon",
    "matrices.Echelon.reduce": "matrices.echelon",
    "matrices.Echelon.contains": "matrices.echelon",
    "heisenberg.classify": "heisenberg.classify",
    "heisenberg.invariants": "heisenberg.classify",
    "heisenberg.validate_rep": "heisenberg.validate_rep",
    "heisenberg.build_V": "heisenberg.build",
    "heisenberg.build_companion_rep": "heisenberg.build",
    "heisenberg.direct_sum_reps": "heisenberg.build",
    "heisenberg.conjugate_rep": "heisenberg.build",
    "modules.spin": "modules.spin",
    "modules.is_irreducible": "modules.is_irreducible",
    "modules.composition_series": "modules.composition_series",
    "modules.hom_space": "modules.hom_space",
    "modules.search_min_faithful": "modules.search",
    "suites.run_suite": "suites.run_suite",
    "cli.main": "cli.main",
}
for _name in ("rref", "rank", "det", "inv", "solve", "kernel_basis"):
    SELF_TIME_GROUPS[f"matrices.Matrix.{_name}"] = "matrices.elim"

COUNT_METRICS = (
    "fields.ops", "matrices.mul.calls", "matrices.mul.madds",
    "matrices.apply.calls", "matrices.elim.calls", "matrices.echelon.inserts",
    "modules.spin.calls", "modules.search.pairs",
)
TIME_METRICS = (
    "matrices.mul", "matrices.apply", "matrices.elim", "matrices.echelon",
    "heisenberg.classify", "heisenberg.validate_rep", "heisenberg.build",
    "modules.spin", "modules.is_irreducible", "modules.composition_series",
    "modules.hom_space", "modules.search", "serialize.decode",
    "serialize.encode", "cli.main", "suites.run_suite",
)


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        # self time of the current task, by group; folded into totals with
        # the task's host-speed factor by end_task()
        self.pending: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []
        self.task = "setup"
        self.next_id = 0
        # normalised seconds of `import heisenmod.cli` in cli processes
        self.import_s: list[float] = []

    def begin_task(self, task: str):
        self.task = task

    def end_task(self, factor: float):
        for group, secs in self.pending.items():
            self.self_s[group] += secs * factor
        self.pending.clear()

    def merge(self, counts: dict, self_s: dict, factor: float):
        """Fold in a child process's totals, scaled by its host factor."""
        for k, v in counts.items():
            self.counts[k] += v
        for k, v in self_s.items():
            self.self_s[k] += v * factor

    def wrap(self, name: str, func, on_return=None):
        group = SELF_TIME_GROUPS.get(name)
        if group is None:
            parts = name.split(".")
            if parts[0] == "serialize" and parts[-1].startswith("decode_"):
                group = "serialize.decode"
            elif parts[0] == "serialize" and parts[-1].startswith("encode_"):
                group = "serialize.encode"
        stack, spans, pending = self.stack, self.spans, self.pending
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                if group is not None:
                    pending[group] += dur - frame[1]
                spans.append((sid, name, t0, t1, parent, self.task))
            if on_return is not None:
                on_return(args, out)
            return out

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def write_spans(self, path):
        """One JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, name, t0, t1, parent, task in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "task": task,
                }) + "\n")


def install(tracer: Tracer):
    """Swap wrappers into heisenmod; call before any field is created."""
    import importlib
    import types

    pkg = importlib.import_module("heisenmod")
    mods = {name: importlib.import_module(f"heisenmod.{name}") for name in MODULES}
    counts = tracer.counts

    # -- field operation counters ----------------------------------------
    fields = mods["fields"]
    orig_init = fields.Field.__init__

    def counted(op):
        def inner(*args):
            counts["fields.ops"] += 1
            return op(*args)
        return inner

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        for attr in ("add", "sub", "mul", "neg", "inv"):
            setattr(self, attr, counted(getattr(self, attr)))

    fields.Field.__init__ = init
    fields._cached_field.cache_clear()

    # -- kernel methods ------------------------------------------------------
    Matrix = mods["matrices"].Matrix
    Echelon = mods["matrices"].Echelon

    def on_mul(args, out):
        a, b = args
        if isinstance(b, Matrix):
            counts["matrices.mul.calls"] += 1
            counts["matrices.mul.madds"] += a.rows * a.cols * b.cols

    def on_apply(args, out):
        counts["matrices.apply.calls"] += 1

    def on_elim(args, out):
        counts["matrices.elim.calls"] += 1

    def on_insert(args, out):
        counts["matrices.echelon.inserts"] += 1
        if out is not None:
            counts["matrices.echelon.grew"] += 1

    hooks = {"__mul__": on_mul, "apply": on_apply, "insert": on_insert}
    for name in ("rref", "rank", "det", "inv", "solve", "kernel_basis"):
        hooks[name] = on_elim
    for cls, names in (
        (Matrix, ("__mul__", "__rmul__", "__pow__", "apply", "rref", "rank",
                  "det", "inv", "solve", "kernel_basis")),
        (Echelon, ("insert", "reduce", "contains")),
    ):
        for name in names:
            setattr(cls, name, tracer.wrap(
                f"matrices.{cls.__name__}.{name}", getattr(cls, name),
                hooks.get(name)))

    # -- public module-level functions ---------------------------------------
    def on_spin(args, out):
        counts["modules.spin.calls"] += 1

    def on_search(args, out):
        counts["modules.search.pairs"] += out.pairs_tested

    hooks = {"modules.spin": on_spin, "modules.search_min_faithful": on_search}
    replaced = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                key = f"{mname}.{attr}"
                replaced[id(obj)] = tracer.wrap(key, obj, hooks.get(key))
    for mod in [pkg, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])


def layer_metrics(tracer: Tracer, import_s: float) -> dict:
    """The per-layer metrics of one traced run, with their units."""
    c = tracer.counts
    out = {}
    for key in COUNT_METRICS:
        out[key] = {"value": c.get(key, 0), "unit": "count"}
    inserts = c.get("matrices.echelon.inserts", 0)
    out["matrices.echelon.useful_ratio"] = {
        "value": c.get("matrices.echelon.grew", 0) / inserts if inserts else 0.0,
        "unit": "ratio",
    }
    for group in TIME_METRICS:
        out[f"{group}.self_s"] = {
            "value": tracer.self_s.get(group, 0.0), "unit": "s"}
    out["cli.import_s"] = {"value": import_s, "unit": "s"}
    return out
