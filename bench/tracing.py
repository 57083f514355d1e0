"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request).  The benchmark opens spans
around its own calls into the package, and ``Tracer.install`` wraps the
functions below at the module attribute the package calls them through, in
this process only.  ``Tracer.restore`` puts the original objects back.
Spans stay in memory until ``save`` writes them at exit.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (module, attribute, span name).  norm_sq is wrapped where conversion and
# bounds_analysis import it; the inner_product_with_status it calls inside
# hilbert_space stays unwrapped, so a norm_sq span is never counted twice.
WRAPPED = (
    ("apscast.conversion", "inner_product_with_status", "hilbert_space.inner_product"),
    ("apscast.conversion", "norm_sq", "hilbert_space.norm_sq"),
    ("apscast.bounds_analysis", "norm_sq", "hilbert_space.norm_sq"),
    ("apscast.conversion", "pinv_psd", "numerics.pinv_psd"),
    ("apscast.hilbert_space", "integrate", "numerics.integrate"),
    ("apscast.hilbert_space", "bessel_j0", "numerics.bessel_j0"),
)


class Tracer:
    def __init__(self, modules: dict) -> None:
        self._modules = modules            # dotted name -> module object
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self._stack: list[int] = []
        self.current_request = -1
        # Counts taken where the work happens, keyed by request id.
        self.panels: dict[int, int] = {}
        self.unconverged: dict[int, int] = {}
        self.j0_args: dict[int, set] = {}
        self.kept_ratios: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, nid: int, duration_ns: int) -> None:
        """A span measured elsewhere, such as a child process's wall time."""
        end = time.perf_counter_ns()
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.start.append(end - duration_ns)
        self.end.append(end)

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        if name == "numerics.integrate":
            def wrapper(*args, **kwargs):
                i = begin(nid)
                try:
                    res = fn(*args, **kwargs)
                finally:
                    finish(i)
                req = self.current_request
                self.panels[req] = self.panels.get(req, 0) + res.panels
                if not res.converged:
                    self.unconverged[req] = self.unconverged.get(req, 0) + 1
                return res
        elif name == "numerics.bessel_j0":
            def wrapper(x):
                i = begin(nid)
                try:
                    return fn(x)
                finally:
                    finish(i)
                    self.j0_args.setdefault(self.current_request, set()).add(abs(float(x)))
        elif name == "numerics.pinv_psd":
            def wrapper(G, *args, **kwargs):
                i = begin(nid)
                try:
                    res = fn(G, *args, **kwargs)
                finally:
                    finish(i)
                self.kept_ratios.append(res.rank / max(1, len(G)))
                return res
        else:
            def wrapper(*args, **kwargs):
                i = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(i)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in WRAPPED:
            mod = self._modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

    def restore(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive ns, self ns (inclusive minus the
        time covered by direct children, which never overlap)."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"count": int(sel.sum()), "ns": float(dur[sel].sum()),
                         "self_ns": float(self_ns[sel].sum()),
                         "durations": dur[sel]}
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
