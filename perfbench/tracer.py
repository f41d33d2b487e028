"""Per-layer tracing of noethops from outside the package.

`install(trace, modules)` replaces the public functions listed in `SPANS` and
`COUNTERS` by wrappers, in every module namespace that binds the same object
(``uniformity`` imports ``operator_kernel`` by name, ``closures`` imports
``saturate``, and so on), and methods on their class.  Nothing under ``src/``
changes.  The wrappers are installed on a freshly imported copy of the package
for each traced pass, so an untraced pass never runs through them.

A span records (name, start, end, parent).  Spans stay in memory and are
written out once, by `write_spans`, when the run ends.  A layer's self time is
its spans' durations minus the part covered by nested wrapped spans, so
row reduction inside ``operator_kernel`` is counted once, under ``linalg``.
Counting work done inside a wrapper (matrix cells, repeat keys), and the
host-speed samples taken during a traced pass, are timed as bookkeeping and
subtracted from the enclosing span, so they inflate no layer.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

clock = time.perf_counter

# (module, attribute, layer).  "Class.method" attributes are patched on the
# class.  buchberger's own reductions call the module-level normal_form and
# stay inside buchberger; "groebner.normal_form" is the ideal-handle method
# every other layer calls.
SPANS = [
    ("linalg", "rref", "linalg.rref"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "IdealHandle.normal_form", "groebner.normal_form"),
    ("groebner", "saturate", "groebner.saturate"),
    ("diffops", "operator_kernel", "diffops.operator_kernel"),
    ("noetherian", "noetherian_ops_primary", "noetherian.ops_primary"),
    ("noetherian", "dual_space", "noetherian.dual_space"),
    ("noetherian", "verify_noetherian_ops", "noetherian.verify"),
    ("noetherian", "combine_components", "noetherian.combine"),
    ("uniformity", "find_min_c", "uniformity.find_min_c"),
    ("uniformity", "subspace_in_ideal", "uniformity.subspace_in_ideal"),
    ("uniformity", "check_reverse", "uniformity.check_reverse"),
    ("closures", "monomial_integral_closure", "closures.integral_closure"),
    ("configs", "load_experiment_config", "configs.load"),
]

# Counted but not timed: their time belongs to the caller's layer (operator
# application is part of building the kernel matrix).
COUNTERS = [
    ("diffops", "DiffOp.apply", "diffops.apply"),
    ("uniformity", "diff_colon_of_ideal", "uniformity.diff_colon"),
]

# Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "linalg.rref_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.rref_nnz_frac": "ratio",
    "linalg.rref_per_colon": "ratio",
    "groebner.buchberger_s": "s",
    "groebner.buchberger_calls": "count",
    "groebner.buchberger_repeat_frac": "ratio",
    "groebner.normal_form_s": "s",
    "groebner.normal_form_calls": "count",
    "groebner.saturate_s": "s",
    "diffops.operator_kernel_s": "s",
    "diffops.apply_calls": "count",
    "diffops.apply_repeat_frac": "ratio",
    "noetherian.ops_primary_s": "s",
    "noetherian.dual_space_s": "s",
    "noetherian.verify_s": "s",
    "noetherian.combine_s": "s",
    "uniformity.find_min_c_s": "s",
    "uniformity.subspace_in_ideal_s": "s",
    "uniformity.check_reverse_s": "s",
    "uniformity.colon_tests": "count",
    "uniformity.colon_dim_sum": "count",
    "closures.integral_closure_s": "s",
    "configs.load_s": "s",
    "unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


class PassTrace:
    """Spans, self times and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self.seen: dict[str, set] = {}
        self.cells = 0
        self.nonzeros = 0
        self.colon_dim_sum = 0
        self.bookkeeping = 0.0
        self.keep_alive: dict = {}  # operators whose id() is part of a key
        # open spans: [layer, start, time covered by children, span index]
        self._stack: list[list] = []
        self._start = clock()
        self.elapsed = 0.0

    def finish(self) -> None:
        self.elapsed = clock() - self._start

    def open(self, layer: str) -> None:
        self._stack.append([layer, clock(), 0.0, len(self.spans)])
        self.spans.append((layer, 0.0, 0.0, self._stack[-2][3] if len(self._stack) > 1 else -1))

    def close(self) -> None:
        end = clock()
        layer, start, child, index = self._stack.pop()
        duration = end - start
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child
        self.spans[index] = (layer, start - self._start, end - self._start, self.spans[index][3])
        if self._stack:
            self._stack[-1][2] += duration

    def charge_bookkeeping(self, seconds: float) -> None:
        self.bookkeeping += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, layer: str, key=None) -> None:
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if key is not None:
            seen = self.seen.setdefault(layer, set())
            if key in seen:
                self.repeats[layer] = self.repeats.get(layer, 0) + 1
            else:
                seen.add(key)

    def metrics(self) -> dict[str, float]:
        def frac(a, b):
            return a / b if b else 0.0

        calls, repeats = self.calls, self.repeats
        out = {f"{layer}_s": self.self_time.get(layer, 0.0) for _, _, layer in SPANS}
        out.update({
            "linalg.rref_calls": calls.get("linalg.rref", 0),
            "linalg.rref_cells": self.cells,
            "linalg.rref_nnz_frac": frac(self.nonzeros, self.cells),
            "linalg.rref_per_colon": frac(calls.get("linalg.rref", 0), calls.get("uniformity.diff_colon", 0)),
            "groebner.buchberger_calls": calls.get("groebner.buchberger", 0),
            "groebner.buchberger_repeat_frac": frac(
                repeats.get("groebner.buchberger", 0), calls.get("groebner.buchberger", 0)
            ),
            "groebner.normal_form_calls": calls.get("groebner.normal_form", 0),
            "diffops.apply_calls": calls.get("diffops.apply", 0),
            "diffops.apply_repeat_frac": frac(repeats.get("diffops.apply", 0), calls.get("diffops.apply", 0)),
            "uniformity.colon_tests": calls.get("uniformity.subspace_in_ideal", 0),
            "uniformity.colon_dim_sum": self.colon_dim_sum,
            "unattributed_s": self.elapsed - sum(self.self_time.values()) - self.bookkeeping,
        })
        return out


# Per-call bookkeeping hooks: (trace, args, kwargs) -> (args, kwargs, key).
# A key not None marks a call as a repeat when an equal key was seen before.


def _poly_key(f):
    """Hashable identity of a polynomial; those with rational-function
    coefficients are not hashable, so they are keyed by their text."""
    try:
        hash(f)
        return f
    except TypeError:
        return repr(f)


def _rref_hook(trace: PassTrace, args, kwargs):
    rows, ncols = args[0], args[1] if len(args) > 1 else kwargs["ncols"]
    trace.cells += len(rows) * ncols
    trace.nonzeros += sum(1 for row in rows for x in row if x)
    return args, kwargs, None


def _buchberger_hook(trace: PassTrace, args, kwargs):
    # Keyed by the generator set, as a cache of ideal handles would be: the
    # same ideal under other generators is no repeat, so the share depends
    # on the seed's scaling (and is exact for any one seed and pass).
    gens = list(args[0])  # may be a one-shot iterable
    order = args[1] if len(args) > 1 else kwargs.get("order")
    return (gens,) + tuple(args[1:]), kwargs, (repr(order), frozenset(map(_poly_key, gens)))


def _subspace_hook(trace: PassTrace, args, kwargs):
    trace.colon_dim_sum += args[0].dim
    return args, kwargs, None


def _apply_hook(trace: PassTrace, args, kwargs):
    op, f = args[0], args[1]
    trace.keep_alive[id(op)] = op
    return args, kwargs, (id(op), _poly_key(f))


HOOKS = {
    "linalg.rref": _rref_hook,
    "groebner.buchberger": _buchberger_hook,
    "uniformity.subspace_in_ideal": _subspace_hook,
    "diffops.apply": _apply_hook,
}


def _wrap(trace: PassTrace, layer: str, fn, timed: bool):
    hook = HOOKS.get(layer)

    def wrapper(*args, **kwargs):
        key = None
        if hook is not None:
            t0 = clock()
            args, kwargs, key = hook(trace, args, kwargs)
            trace.charge_bookkeeping(clock() - t0)
        trace.count(layer, key)
        if not timed:
            return fn(*args, **kwargs)
        trace.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            trace.close()

    wrapper.__wrapped__ = fn
    return wrapper


def install(trace: PassTrace, modules: dict) -> None:
    """Wrap every listed function of a freshly imported package copy.

    `modules` maps short module names ("linalg", ...) to module objects of
    one import; each function is replaced wherever any of them binds it.
    """
    for table, timed in ((SPANS, True), (COUNTERS, False)):
        for module_name, attr, layer in table:
            module = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, _wrap(trace, layer, getattr(cls, method), timed))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(trace, layer, original, timed)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)


def summarize(
    traces: list[PassTrace], speeds: list[float], traced_wall: list[float], untraced_wall: list[float]
) -> dict[str, float]:
    """Median over traced passes of each per-layer metric, with times scaled
    by each pass's host speed, plus the tracing overhead (traced over
    untraced median wall time, minus 1)."""
    per_pass = []
    for trace, speed in zip(traces, speeds):
        metrics = trace.metrics()
        per_pass.append({k: v * speed if LAYER_METRICS[k] == "s" else v for k, v in metrics.items()})
    # median_low: the value of one pass, so counts stay whole numbers
    out = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_frac"] = statistics.median(traced_wall) / statistics.median(untraced_wall) - 1
    return out


def write_spans(path: Path, traces: list[PassTrace]) -> None:
    """One JSON line per span: pass, span id, parent id, layer, start and end
    in microseconds from the start of that pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for p, trace in enumerate(traces):
            for i, (layer, start, end, parent) in enumerate(trace.spans):
                fh.write(json.dumps([p, i, parent, layer, round(start * 1e6), round(end * 1e6)]) + "\n")
