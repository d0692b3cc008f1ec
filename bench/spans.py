"""Spans at the cross-module boundaries of spinpair, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules,
wherever a spinpair module namespace holds it, by a wrapper. A wrapper
records a span only when its caller lives in another module (the
benchmark itself included), so a module's self time is its span time
minus the spans it caused in other modules. Two functions are also
counted on every call, including calls from their own module: the
entanglement gap (one evaluation per bisection step) and
``threshold_beta`` (one per bisection); calls to ``sweep`` also add
their grid length to ``sweep_points``. Spans stay in memory, tagged
with the current op id, until ``save`` writes them out.

Nothing in the package is edited; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("model", "thermo", "entangle", "oracle", "critical", "spectrum", "observe", "cli")

# Nonzero entries of an X-structured 4x4 matrix: diagonal and anti-diagonal.
_X_MASK = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


PACKAGE = "spinpair"


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.funcs: list[tuple[str, str]] = []  # (module, function) per func id
        self.all_calls: list[int] = []           # every call, own module included
        self.span_id = array("q")
        self.parent_id = array("q")
        self.op = array("q")
        self.func = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.child_s = array("d")
        self.error = array("b")
        self.oracle_path = {"x": array("d"), "dense": array("d")}
        self.sweep_points = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next = 0
        self._restore: list[tuple[dict, str, object]] = []

    # -------------------------------------------------------- installation

    def install(self) -> None:
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
        namespaces = [vars(sys.modules[PACKAGE])] + [vars(m) for m in modules.values()]
        wrappers = {}
        for mod_name, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[obj] = self._wrap(mod_name, name, obj)
        for ns in namespaces:
            for name, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((ns, name, obj))
                    ns[name] = wrappers[obj]

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._restore):
            ns[name] = obj
        self._restore.clear()

    def _wrap(self, mod_name: str, name: str, func):
        fid = len(self.funcs)
        self.funcs.append((mod_name, name))
        self.all_calls.append(0)
        home = func.__globals__
        getframe = sys._getframe
        all_calls = self.all_calls
        span = self._span
        classify = mod_name == "oracle" and name == "wootters_concurrence"
        is_sweep = mod_name == "entangle" and name == "sweep"
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            all_calls[fid] += 1
            if is_sweep:
                tracer.sweep_points += len(args[1])
            if getframe(1).f_globals is home:
                return func(*args, **kwargs)
            return span(fid, func, args, kwargs, classify)

        return wrapper

    # ----------------------------------------------------------- recording

    def _span(self, fid, func, args, kwargs, classify):
        sid = self._next
        self._next += 1
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [sid, 0.0]
        stack.append(frame)
        error = 0
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        except BaseException:
            error = 1
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent[1] += t1 - t0
            self.span_id.append(sid)
            self.parent_id.append(-1 if parent is None else parent[0])
            self.op.append(self.op_id)
            self.func.append(fid)
            self.t0.append(t0)
            self.t1.append(t1)
            self.child_s.append(frame[1])
            self.error.append(error)
            if classify and not error:
                dense = bool(np.any(np.asarray(args[0])[_X_MASK] != 0.0))
                self.oracle_path["dense" if dense else "x"].append(t1 - t0 - frame[1])

    # ------------------------------------------------------------- results

    def calls_of(self, module: str, name: str) -> int:
        return self.all_calls[self.funcs.index((module, name))]

    def module_summary(self) -> dict[str, dict[str, float]]:
        """calls (spans entering the module), self seconds and errors."""
        out = {m: {"calls": 0, "self_s": 0.0, "errors": 0} for m in MODULES}
        if not len(self.func):
            return out
        fids = np.frombuffer(self.func, dtype=np.int64)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        self_s = dur - np.frombuffer(self.child_s)
        err = np.frombuffer(self.error, dtype=np.int8)
        mod_of = np.array([MODULES.index(m) for m, _ in self.funcs])[fids]
        for i, m in enumerate(MODULES):
            sel = mod_of == i
            out[m] = {"calls": int(sel.sum()), "self_s": float(self_s[sel].sum()),
                      "errors": int(err[sel].sum())}
        return out

    def save(self, path) -> None:
        """Write the spans (one row each, times in perf_counter seconds)."""
        np.savez(
            path,
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent_id=np.frombuffer(self.parent_id, dtype=np.int64),
            op_id=np.frombuffer(self.op, dtype=np.int64),
            func_id=np.frombuffer(self.func, dtype=np.int64),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
            error=np.frombuffer(self.error, dtype=np.int8),
            func_names=np.array([f"{m}.{n}" for m, n in self.funcs]),
        )
