"""Outside-in tracer for the traced benchmark run.

It wraps the listed functions of `flatlie` from outside: each function is
rebound in every loaded `flatlie.*` namespace that holds it, methods are
replaced on their class, and a class is traced through its `__init__`.
Every call records a span (name, start, end, parent span, op id) in flat
arrays that live until the run ends.  A listed function that no longer
exists is reported as absent, so renames in the program never break the
benchmark.
"""

from __future__ import annotations

import sys
import time
from array import array

#: (module, qualified name) of every traced callable
TARGETS = (
    ("inputdoc", "parse_document"),
    ("lie", "LieAlgebra"),
    ("lie", "LieAlgebra.change_basis"),
    ("metric", "MetricLieAlgebra"),
    ("metric", "levi_civita"),
    ("metric", "is_flat"),
    ("metric", "curvature"),
    ("metric", "left_mult"),
    ("metric", "killing_subalgebra"),
    ("metric", "has_timelike_vector"),
    ("metric", "verify_killing_triple_identity"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "inverse"),
    ("linalg", "det"),
    ("linalg", "symmetric_diagonalize"),
    ("linalg", "mat_mul"),
    ("linalg", "adjoint"),
    ("theorems", "theorem1_check"),
    ("theorems", "riemannian_flat_check"),
    ("theorems", "verify_eq2"),
    ("theorems", "riemannian_companion"),
    ("theorems", "same_connection"),
    ("classc", "detect"),
    ("classc", "theorem2_check"),
    ("classc", "construct_witness"),
    ("classc", "transport_product"),
    ("classc", "incompleteness_verdict"),
    ("report", "analysis_report"),
    ("report", "to_json"),
    ("geodesics", "integrate"),
    ("geodesics", "euler_arnold_rhs"),
    ("geodesics", "product_as_floats"),
    ("sweeps", "sweep_connection_axioms"),
    ("sweeps", "sweep_theorem1"),
    ("sweeps", "sweep_theorem2"),
    ("sweeps", "sweep_gram_scaling"),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)

#: functions whose first argument is a metric; distinct metrics per op are counted
DISTINCT = ("metric.is_flat", "metric.levi_civita", "metric.killing_subalgebra",
            "theorems.theorem1_check")

PACKAGE = "flatlie"


class Tracer:
    def __init__(self):
        self.name_idx = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        #: first arguments of this op's calls, kept unhashed until end_op so
        #: that hashing a metric is never charged to a span
        self._seen: dict[str, list] = {name: [] for name in DISTINCT}
        #: distinct first arguments summed over ops, per DISTINCT name
        self.distinct: dict[str, int] = {name: 0 for name in DISTINCT}
        self.absent: list[str] = []

    # -- ops ---------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self.end_op()
        self.op_id = op_id

    def end_op(self) -> None:
        for name, seen in self._seen.items():
            self.distinct[name] += len(set(seen))
            seen.clear()

    # -- installation ------------------------------------------------------
    def _modules(self):
        prefix = PACKAGE + "."
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(prefix))]

    def _wrap(self, idx: int, fn):
        name = NAMES[idx]
        seen = self._seen.get(name)
        stack = self._stack
        name_idx, start, end, parent, op = self.name_idx, self.start, self.end, self.parent, self.op
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if seen is not None and args:
                seen.append(args[0])
            i = len(start)
            name_idx.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every target; returns the names that could not be found."""
        modules = self._modules()
        for idx, (mod_name, qual) in enumerate(TARGETS):
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            parts = qual.split(".")
            obj = module
            for part in parts:
                obj = getattr(obj, part, None) if obj is not None else None
            if obj is None or not callable(obj):
                self.absent.append(NAMES[idx])
                continue
            if isinstance(obj, type):
                self._set(obj, "__init__", self._wrap(idx, obj.__init__))
            elif len(parts) > 1:
                owner = getattr(module, parts[0])
                self._set(owner, parts[-1], self._wrap(idx, vars(owner)[parts[-1]]))
            else:
                wrapper = self._wrap(idx, obj)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is obj:
                            self._set(m, attr, wrapper)
        return list(self.absent)

    def uninstall(self) -> None:
        self.end_op()
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------
    def summary(self) -> dict:
        """Per traced name: [calls, self ns, inclusive ns], over all spans."""
        n = len(self.start)
        child = [0] * n
        dur = [0] * n
        for i in range(n):
            d = self.end[i] - self.start[i]
            dur[i] = d
            p = self.parent[i]
            if p >= 0:
                child[p] += d
        out = {name: [0, 0, 0] for name in NAMES}
        for i in range(n):
            row = out[NAMES[self.name_idx[i]]]
            row[0] += 1
            row[1] += dur[i] - child[i]
            row[2] += dur[i]
        return out

    def calls_by_op(self, name: str) -> dict[int, int]:
        """Calls of one traced name, per op id."""
        idx = NAMES.index(name)
        out: dict[int, int] = {}
        for i, k in enumerate(self.name_idx):
            if k == idx:
                out[self.op[i]] = out.get(self.op[i], 0) + 1
        return out
