"""Outside-in tracing of nijcalc for the benchmark's traced run.

The tracer wraps the package's functions and methods from outside the
library, so the library itself stays untouched:

* every public module-level function of each layer module, plus the few
  private helpers a counter needs (``PRIVATE``);
* the public methods of the classes each module defines, and the
  arithmetic operators of ``QuadExt``;
* every module-level alias of a wrapped function in any nijcalc module
  (``jets.post_compose``, ``classify.nijenhuis_tensor``, ...), because
  ``from .x import f`` copies the binding.  The number of rebound aliases is
  reported, so a binding that stops being rebound shows as a drop.

A call from one layer into another opens a span (name, start, end, parent,
task); calls inside a layer open none.  A call of a function named in
``HOOKS`` also increments that function's counter, at any depth.  Spans are kept in memory and
written out by ``write_spans``.  ``uninstall`` restores every binding, so an
untraced run after a traced one runs the original code.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("poly", "linalg", "quadext", "tensor", "structures", "invariants",
          "forms", "genpos", "jets", "classify")

# private helpers wrapped because a counter is defined on them
PRIVATE = {"genpos": ("_symbolic_alpha_vanishes",)}

QUADEXT_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

# functions whose own inclusive time is a metric, even for calls made from
# inside their layer (e.g. higher_nijenhuis -> higher_nijenhuis_bracket)
TIMED = {
    "invariants.higher_nijenhuis_bracket": "invariants.route_bracket.busy_s",
    "invariants.higher_nijenhuis_differential": "invariants.route_differential.busy_s",
    "jets.build_P_k": "jets.build_P_k.busy_s",
    "jets.symmetrize": "jets.symmetrize.busy_s",
    "structures.linear_membership_violation":
        "structures.linear_membership_violation.busy_s",
    "classify.tanaka_forms": "classify.tanaka_forms.busy_s",
    "classify.lie_check": "classify.lie_check.busy_s",
}

HYPOTHESIS_STAGES = ("torsion", "derived", "second_derived")


def _nnz(v) -> int:
    return sum(1 for c in v if c != 0)


def _apply_hook(counts, args, result):
    self, vecs = args[0], args[1]
    counts["tensor.apply.entries_scanned"] += len(self.entries)
    useful = 1
    for v in vecs:
        useful *= _nnz(v)
    counts["tensor.apply.useful_entries"] += useful


def _from_function_hook(counts, args, result):
    counts["tensor.from_function.entries"] += len(result.entries)


def _mul_hook(counts, args, result):
    counts["poly.mul.terms"] += len(args[0]) * len(args[1])


def _rref_hook(counts, args, result):
    m = args[0]
    counts["linalg.rref.cells"] += len(m) * (len(m[0]) if m else 0)


def _genpos_hook(counts, args, result):
    counts["genpos.samples"] += result.samples_tested


# the counter each call increments and a hook counting the work it did, keyed
# by the qualified name "<layer>.<function>" or "<layer>.<Class>.<method>";
# other functions are counted only in their layer's totals
HOOKS: Dict[str, Tuple[Optional[str], Optional[Callable]]] = {
    "tensor.PointTensor.apply": ("tensor.apply.calls", _apply_hook),
    "tensor.PointTensor.from_function": (None, _from_function_hook),
    "tensor.post_compose": ("tensor.compose.calls", None),
    "tensor.slot_compose": ("tensor.compose.calls", None),
    "tensor.precompose_all": ("tensor.compose.calls", None),
    "linalg.rref": ("linalg.rref.calls", _rref_hook),
    "linalg.det": ("linalg.det.calls", None),
    "linalg.nullspace": ("linalg.nullspace.calls", None),
    "linalg.mat_vec": ("linalg.mat_vec.calls", None),
    "structures.StructureField.at_point": ("structures.at_point.calls", None),
    "poly.mul": ("poly.mul.calls", _mul_hook),
    "poly.lie_bracket": ("poly.lie_bracket.calls", None),
    "poly.diff": ("poly.diff.calls", None),
    "poly.eval_poly": ("poly.eval_poly.calls", None),
    "poly.substitute": ("poly.substitute.calls", None),
    "quadext.sqrt_exact": ("quadext.sqrt_exact.calls", None),
    "invariants.nijenhuis_tensor": ("invariants.torsion.calls", None),
    "invariants.PolyTensorField.differential": ("invariants.differential.calls",
                                                None),
    "jets.lift": ("jets.lift.calls", None),
    "jets.cr_residual": ("jets.cr_residual.calls", None),
    "genpos.general_position_test": (None, _genpos_hook),
    "genpos._symbolic_alpha_vanishes": ("genpos.symbolic_fallbacks", None),
    "genpos.alpha_N": ("genpos.alpha_N.calls", None),
    "forms.fn_bracket": ("forms.fn_bracket.calls", None),
}


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.layer_busy: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.depth: Counter = Counter()
        self.timed_depth: Counter = Counter()
        self.names: List[str] = []
        self.name_index: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_task = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # open frames: [layer, start, child_seconds, span_id]
        self.stack: List[list] = [["bench", 0.0, 0.0, -1]]
        self.task = -1
        self.rebound_aliases = 0
        self._restore: List[Tuple[object, str, object]] = []
        self._hypothesis_error = None

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules():
        prefix = "nijcalc."
        return {name[len(prefix):]: mod for name, mod in sys.modules.items()
                if name.startswith(prefix) and mod is not None}

    def install(self) -> None:
        mods = self._modules()
        missing = [layer for layer in LAYERS if layer not in mods]
        if missing:
            raise RuntimeError(f"layers not imported: {missing}")
        self._hypothesis_error = mods["classify"].HypothesisError
        wrapped: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                wrapper = self._wrap(obj, layer, f"{layer}.{name}")
                wrapped[id(obj)] = wrapper
                self._set(mod, name, wrapper)
        # rebind aliases made by "from .module import name"
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._set(mod, name, wrapper)
                    self.rebound_aliases += 1

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (cls.__name__ == "QuadExt"
                                             and name in QUADEXT_OPS):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, layer, qual)))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(attr.__func__, layer, qual)))
            elif callable(attr) and not isinstance(attr, type):
                self._set(cls, name, self._wrap(attr, layer, qual))

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, qual: str) -> Callable:
        counter, hook = HOOKS.get(qual, (None, None))
        if qual.startswith("quadext.QuadExt.__"):
            counter = "quadext.ops"
        timed = TIMED.get(qual)
        tracer = self
        counts = self.counts
        stack = self.stack
        clock = time.perf_counter

        def call(args, kwargs):
            if counter is not None:
                counts[counter] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(fn, layer, qual, args, kwargs)
            if hook is not None:
                hook(counts, args, result)
            return result

        if timed is None:
            def traced(*args, **kwargs):
                return call(args, kwargs)
        else:
            def traced(*args, **kwargs):
                if tracer.timed_depth[timed]:
                    return call(args, kwargs)
                tracer.timed_depth[timed] += 1
                start = clock()
                try:
                    return call(args, kwargs)
                finally:
                    counts[timed] += clock() - start
                    tracer.timed_depth[timed] -= 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qual)
        return traced

    def _span(self, fn, layer, qual, args, kwargs):
        idx = self.name_index.get(qual)
        if idx is None:
            idx = self.name_index[qual] = len(self.names)
            self.names.append(qual)
        span_id = len(self.span_start)
        parent = self.stack[-1]
        self.span_name.append(idx)
        self.span_parent.append(parent[3])
        self.span_task.append(self.task)
        self.depth[layer] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [layer, start, 0.0, span_id]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except self._hypothesis_error as err:
            if layer == "classify":
                self.counts["classify.hypothesis_failures"] += 1
                self.counts[f"classify.hypothesis_failures.{err.stage}"] += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.span_end[span_id] = end
            parent[2] += duration
            self.depth[layer] -= 1
            self.layer_calls[layer] += 1
            self.layer_self[layer] += duration - frame[2]
            if self.depth[layer] == 0:
                self.layer_busy[layer] += duration

    # -- results ---------------------------------------------------------------

    def metrics(self, tasks: int) -> Dict[str, float]:
        """Per-task counters and times; ratios are not divided."""
        c = self.counts
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer] / tasks
            out[f"{layer}.busy_s"] = self.layer_busy[layer] / tasks
            out[f"{layer}.self_s"] = self.layer_self[layer] / tasks
        per_task = [
            "tensor.apply.calls", "tensor.apply.entries_scanned",
            "tensor.from_function.entries", "tensor.compose.calls",
            "linalg.rref.calls", "linalg.rref.cells", "linalg.det.calls",
            "linalg.nullspace.calls", "linalg.mat_vec.calls",
            "structures.linear_membership_violation.busy_s",
            "structures.at_point.calls",
            "poly.mul.calls", "poly.mul.terms", "poly.lie_bracket.calls",
            "poly.diff.calls", "poly.eval_poly.calls", "poly.substitute.calls",
            "quadext.ops", "quadext.sqrt_exact.calls",
            "invariants.torsion.calls", "invariants.route_bracket.busy_s",
            "invariants.route_differential.busy_s",
            "invariants.differential.calls",
            "jets.lift.calls", "jets.cr_residual.calls",
            "jets.build_P_k.busy_s", "jets.symmetrize.busy_s",
            "genpos.samples", "genpos.symbolic_fallbacks", "genpos.alpha_N.calls",
            "classify.hypothesis_failures",
            *(f"classify.hypothesis_failures.{s}" for s in HYPOTHESIS_STAGES),
            "classify.tanaka_forms.busy_s", "classify.lie_check.busy_s",
            "forms.fn_bracket.calls",
        ]
        for name in per_task:
            out[name] = c[name] / tasks
        scanned = c["tensor.apply.entries_scanned"]
        out["tensor.apply.useful_ratio"] = (
            c["tensor.apply.useful_entries"] / scanned if scanned else 0.0)
        lifts = c["jets.lift.calls"]
        out["jets.reverify_ratio"] = c["jets.cr_residual.calls"] / lifts if lifts else 0.0
        out["trace.rebound_aliases"] = float(self.rebound_aliases)
        return out

    def write_spans(self, path) -> int:
        """Write the spans as gzipped JSON lines; returns the span count."""
        names = [json.dumps(n) for n in self.names]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.writelines(
                f'{{"id":{i},"parent":{p},"task":{t},"name":{names[n]},'
                f'"start":{s!r},"end":{e!r}}}\n'
                for i, (p, t, n, s, e) in enumerate(zip(
                    self.span_parent, self.span_task, self.span_name,
                    self.span_start, self.span_end)))
        return len(self.span_start)
