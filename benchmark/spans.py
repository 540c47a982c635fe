"""In-memory span tracer wrapped around liestoch's public layer functions.

The library modules bind each other's functions by name
(``from .linalg import mat_exp``), so a wrapper on ``linalg.mat_exp`` alone
would record nothing: the call sites in ``explog`` and ``campbell`` hold
their own reference. ``Tracer.install`` therefore scans every loaded
``liestoch`` module and replaces each global that *is* the original
function, which covers every binding site without a hand-kept list.
``uninstall`` puts the originals back, so untraced passes in the same
process run the plain library.

A span is (name, start, end, parent). A layer's self time is its span's
duration minus the part of that interval its child spans cover. Worker
threads (``--workers`` in the CLI) have no span of their own open, so their
spans take as parent the span open on the thread that installed the tracer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


def _leading(arr):
    """Number of matrices in a (..., d, d) stack."""
    shape = getattr(arr, "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= int(n)
    return count


def _matrices(index):
    return lambda args, kwargs, out: {"matrices": _leading(args[index])}


def _replica_steps(args, kwargs, out):
    return {"replica_steps": out.replicas * out.grid.steps}


def _steplog_served(args, kwargs, out):
    return {"steplog_calls": int(getattr(args[0], "step_logs", None) is not None)}


def _csv_bytes(args, kwargs, out):
    # the CLI opens a fresh file right before the dump, so the position
    # after it is the number of bytes the dump wrote
    return {"bytes": args[1].tell()}


# (module, function, counter); the layer name is "<module>.<function>".
# Every layer also counts its calls.
LAYERS = (
    ("linalg", "mat_exp", _matrices(0)),
    ("linalg", "mat_log", _matrices(0)),
    ("groups", "membership_defect", _matrices(1)),
    ("groups", "group_inverse", None),
    ("groups", "from_matrix_coords", None),
    ("groups", "to_matrix_coords", None),
    ("groups", "adjoint_matrices", _matrices(1)),
    ("explog", "ito_exponential", None),
    ("explog", "strat_exponential", None),
    ("explog", "ito_logarithm", None),
    ("calculus", "mc_increments", _steplog_served),
    ("paths", "brownian_ensemble", _replica_steps),
    ("paths", "null_qv_check", None),
    ("paths", "dump_group_csv", _csv_bytes),
    ("martingale", "drift_test", None),
    ("martingale", "martingale_verdict", None),
    ("campbell", "ad_integral", None),
    ("campbell", "product_path", None),
    ("campbell", "ch_residual", None),
    ("campbell", "log_product_residual", None),
    ("cli", "main", None),
)

ROOT_SPAN = "pass"


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []                       # [name, start, end, parent]
        self.counts = defaultdict(int)
        self.sites = {}                       # layer -> ["module.global", ...]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        home = self._home_stack
        if stack:
            parent = stack[-1]
        elif home is not stack and home:
            parent = home[-1]
        else:
            parent = None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def add(self, layer, counts):
        with self._lock:
            for key, value in counts.items():
                self.counts[f"{layer}.{key}"] += value

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            extra = counter(args, kwargs, out) if counter else {}
            tracer.add(layer, {"calls": 1, **extra})
            return out

        return traced

    def install(self):
        """Replace every liestoch global bound to a layer function."""
        self._home_stack = self._stack()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "liestoch" or name.startswith("liestoch."))]
        for modname, fname, counter in LAYERS:
            layer = f"{modname}.{fname}"
            original = getattr(importlib.import_module(f"liestoch.{modname}"), fname)
            wrapper = self._wrap(layer, original, counter)
            sites = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
                        sites.append(f"{module.__name__.removeprefix('liestoch.')}.{key}")
            self.sites[layer] = sorted(sites)
        return self

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def traced_call(self, fn, *args):
        """Run ``fn`` inside the root span; returns its result."""
        idx = self.begin(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self.end(idx)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per-name sum of self time over the spans."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - _covered(children[idx], start, end)
    return dict(out)
