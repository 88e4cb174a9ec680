"""Outside-in tracing of steerbound's public functions.

The tracer replaces each function named in ``TRACED`` with a wrapper that
records a span: name, parent span, start and end. Some modules import a
function by name (``selftest.min_eigval``, ``fidelity.min_eigval``,
``cli.validate``, ...), so the wrapper is bound in every loaded steerbound
module whose namespace holds the original function, not only in the module
that defines it. Spans live in flat arrays in memory and are written out
once, at the end of the run.

A name that no longer exists in the package is reported as absent rather
than raising: later versions of the library delete some of these functions.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array

import numpy as np

# Module -> functions traced in it. "Class.method" names a method; its span
# is named after the module and the method alone (assemblage.from_json).
TRACED = {
    "numsearch": (
        "sandwich_sweep",
        "min_extractability_at_beta",
        "best_channel",
        "fidelity_after_kraus",
    ),
    "selftest": (
        "coefficient_search",
        "inequality_margin",
        "t_constraints",
        "certified_lower_bound",
        "extractability_with_channel",
        "dephasing_channel",
    ),
    "steering": ("t_operators", "chsh_functional", "max_violation_over_theta"),
    "assemblage": (
        "Assemblage.from_json",
        "Assemblage.to_json",
        "Assemblage.mix",
        "validate",
        "from_classical",
        "chsh_reference",
    ),
    "fidelity": ("assemblage_fidelity", "state_fidelity"),
    "matkernel": ("min_eigval",),
}

_ROOT = -1


class Tracer:
    """Span recorder for one process. Use ``install`` / ``uninstall`` around
    the traced work, or ``span`` for the harness's own spans."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [_ROOT]
        self._undo: list = []
        self.absent: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, func):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. around one CLI command."""
        nid = self._id(name)
        span = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[span] = time.perf_counter()
            self._stack.pop()

    def install(self, package: str = "steerbound") -> None:
        loaded = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for module_name, functions in TRACED.items():
            module = sys.modules.get(f"{package}.{module_name}")
            for qualname in functions:
                owner_name, _, attr = qualname.rpartition(".")
                full = f"{module_name}.{attr}"
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.absent.append(full)
                    continue
                if owner_name:
                    func = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapper = self._wrap(full, func)
                    new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                    setattr(owner, attr, new)
                    self._undo.append((owner, attr, raw))
                    continue
                wrapper = self._wrap(full, raw)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return nid, parent, dur

    def summary(self) -> dict:
        """Per traced name: calls, busy seconds (inclusive, counting a span
        nested directly in a span of the same name only once), self seconds
        (busy minus the spans its calls made), and calls by parent name."""
        nid, parent, dur = self._arrays()
        k = len(self.names)
        has_parent = parent >= 0
        parent_nid = np.full(len(nid), -1, dtype=np.int64)
        parent_nid[has_parent] = nid[parent[has_parent]]
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(nid))
        outer = parent_nid != nid
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(nid, weights=dur - child_time, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            by_parent = {}
            for p, n in zip(*np.unique(parent_nid[mine], return_counts=True)):
                by_parent["<root>" if p < 0 else self.names[p]] = int(n)
            out[name] = {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(self_s[i]),
                "calls_by_parent": by_parent,
            }
        return out

    def child_time(self, name: str, child: str) -> float:
        """Seconds spent in ``child`` spans whose parent is a ``name`` span."""
        if name not in self._ids or child not in self._ids:
            return 0.0
        nid, parent, dur = self._arrays()
        mine = (nid == self._ids[child]) & (parent >= 0)
        mine[mine] = nid[parent[mine]] == self._ids[name]
        return float(dur[mine].sum())

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, parent, name, start and duration in ns
        from the first span."""
        nid, parent, dur = self._arrays()
        start = np.frombuffer(self.start, dtype=np.float64)
        t0 = start[0] if len(start) else 0.0
        with gzip.open(path, "wt", compresslevel=3) as handle:
            handle.write("id\tparent\tname\tstart_ns\tdur_ns\n")
            for i in range(len(nid)):
                handle.write(
                    f"{i}\t{parent[i]}\t{self.names[nid[i]]}\t"
                    f"{round((start[i] - t0) * 1e9)}\t{round(dur[i] * 1e9)}\n"
                )
