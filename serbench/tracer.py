"""Span tracing of serlab from outside: wrappers installed over its public functions.

Every function named in the ``__all__`` of ``cli``, ``inference``,
``measurement``, ``hilbert``, ``spin`` and ``states`` is wrapped, together
with ``cli.report_payload`` and ``cli.dumps`` (JSON emission), the
constructors of ``Observable`` and ``OutcomeAssignment``, and
``Observable.spectral``.  ``hilbert._spectral_decomposition`` is wrapped too:
it runs exactly when a ``spectral()`` call misses the per-instance cache.

A wrapper replaces the original in every serlab namespace that holds it
(``inference`` imports ``sample_counts`` by name, so ``serlab.inference``
gets the wrapper as well as ``serlab.measurement``).  Nothing under
``src/`` is edited.  Spans (name, start, end, parent, op) are kept in flat
arrays, which the garbage collector does not scan, and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

MODULES = ("cli", "inference", "measurement", "hilbert", "spin", "states")
EXTRA = {
    "cli": ("report_payload", "dumps"),
    "hilbert": ("_spectral_decomposition",),
}
METHODS = {
    "hilbert": {"Observable": ("__init__", "spectral")},
    "measurement": {"OutcomeAssignment": ("__init__",)},
}
ROOT = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.current_op = -1
        # per-call (op, trials) and (op, records)
        self.sample_counts_calls: list[tuple[int, int]] = []
        self.sample_joint_calls: list[tuple[int, int]] = []
        self._peak_call = None

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, op_index: int):
        """The root span of one op; every layer span inside it carries ``op_index``."""
        self.current_op = op_index
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.current_op = -1

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _wrap_sample_counts(self, name: str, fn):
        inner = self._wrap(name, fn)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if self._peak_call is None and self.current_op >= 0:
                self._peak_call = (fn, bound)
            self.sample_counts_calls.append((self.current_op, int(bound.arguments["trials"])))
            return inner(*args, **kwargs)

        return wrapper

    def sample_counts_peak(self) -> int:
        """tracemalloc peak in bytes inside a repeat of the first timed sample_counts call.

        Run after the timed loop, because tracemalloc slows every allocation
        made while it is on.
        """
        if self._peak_call is None:
            return 0
        fn, bound = self._peak_call
        tracemalloc.start()
        try:
            fn(*bound.args, **bound.kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _wrap_sample_joint(self, name: str, fn):
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            records = inner(*args, **kwargs)
            self.sample_joint_calls.append((self.current_op, len(records)))
            return records

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions and methods in every serlab namespace."""
        replaced = {}
        for short in MODULES:
            module = sys.modules[f"serlab.{short}"]
            names = [n for n in getattr(module, "__all__", ()) if inspect.isfunction(getattr(module, n, None))]
            names += [n for n in EXTRA.get(short, ()) if inspect.isfunction(getattr(module, n, None))]
            for attr in names:
                fn = getattr(module, attr)
                label = f"{short}.{attr}"
                if label == "measurement.sample_counts":
                    replaced[fn] = self._wrap_sample_counts(label, fn)
                elif label == "measurement.sample_joint":
                    replaced[fn] = self._wrap_sample_joint(label, fn)
                else:
                    replaced[fn] = self._wrap(label, fn)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    fn = cls.__dict__.get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "serlab" or mod_name.startswith("serlab."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in replaced:
                        setattr(module, attr, replaced[value])

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Per-name calls, inclusive and self nanoseconds over spans of timed ops (op >= 0)."""
        peak = self.sample_counts_peak()  # records spans of its own, so before the views below
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        timed = op >= 0
        k = len(self.names)
        calls = np.bincount(nid[timed], minlength=k)
        incl = np.bincount(nid[timed], weights=dur[timed], minlength=k)
        selfs = np.bincount(nid[timed], weights=self_ns[timed], minlength=k)
        per_name = {
            name: [int(calls[i]), int(incl[i]), int(selfs[i])] for i, name in enumerate(self.names) if calls[i]
        }
        # a spectral() call whose child is _spectral_decomposition missed the cache
        miss_name = "hilbert._spectral_decomposition"
        miss_id = self.names.index(miss_name) if miss_name in self.names else -1
        misses = timed & (nid == miss_id) & has_parent
        miss_parents = parent[misses]
        timed_sc = [c for c in self.sample_counts_calls if c[0] >= 0]
        timed_sj = [c for c in self.sample_joint_calls if c[0] >= 0]
        return {
            "names": per_name,
            "spans": int(timed.sum()),
            "spectral_misses": int(len(miss_parents)),
            "spectral_miss_ns": int(dur[miss_parents].sum()),
            "sample_counts_trials": sum(c[1] for c in timed_sc),
            "sample_counts_peak_bytes": peak,
            "sample_joint_records": sum(c[1] for c in timed_sj),
        }

    def write(self, path) -> None:
        """Spans as an .npz of parallel arrays: name_id, start_ns, end_ns, parent, op, and names."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
        )
