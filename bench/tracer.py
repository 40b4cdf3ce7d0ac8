"""Layer tracing from outside the program.

While installed, a Tracer replaces the public functions of each hostguest
module, and the module-level ``solve_ivp`` and ``quad`` names, by wrappers
that record a span (name, start, end, parent, job) per call. It also counts
calls of ``numpy.linalg.eigh`` without a span, since ``crot`` makes about
10^5 of them. Spans stay in memory until the run ends. ``restore`` puts every
original back; ``unchanged`` confirms it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("scenarios", "spin", "vibronic", "dynamics", "protocols", "relaxation", "screening")
SOLVERS = (("dynamics", "solve_ivp"), ("protocols", "solve_ivp"), ("vibronic", "quad"), ("relaxation", "quad"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: Counter = Counter()  # (job, counter name) -> count
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn, nfev_counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.job]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if nfev_counter:
                self.counts[self.job, nfev_counter] += result.nfev
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.job, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for owner, attr, name in targets():
            fn = getattr(owner, attr)
            if owner is np.linalg:
                wrapper = self._counter(name, fn)
            else:
                nfev = f"{name}.nfev" if attr == "solve_ivp" else None
                wrapper = self._span(name, fn, nfev)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, float]:
        """Per span name: .calls, .s (total) and .self_s (total minus the
        time covered by child spans); plus every counter, summed over jobs."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += end - start - child_time[i]
        for (_, counter), n in self.counts.items():
            totals[counter] += n
        return dict(totals)

    def job_counts(self) -> dict[str, dict[str, int]]:
        """Per job: call count of every span name and every counter."""
        per_job: dict[str, Counter] = defaultdict(Counter)
        for name, _, _, _, job in self.spans:
            per_job[job][f"{name}.calls"] += 1
        for (job, counter), n in self.counts.items():
            per_job[job][counter] += n
        return {job: dict(c) for job, c in per_job.items()}


def targets():
    """(owner, attribute, metric name) of everything a Tracer wraps."""
    for layer in LAYERS:
        module = importlib.import_module(f"hostguest.{layer}")
        for attr, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                yield module, attr, f"{layer}.{attr}"
    for layer, attr in SOLVERS:
        yield importlib.import_module(f"hostguest.{layer}"), attr, f"{layer}.{attr}"
    yield np.linalg, "eigh", "kernel.eigh.calls"


def snapshot() -> list:
    """The object currently behind every attribute a Tracer wraps."""
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets()]


def unchanged(snap: list) -> bool:
    """True when every attribute in the snapshot holds the same object again."""
    return all(getattr(owner, attr) is fn for owner, attr, fn in snap)
