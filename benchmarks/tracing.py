"""Spans and counters recorded around the calls one oseq module makes into another.

Nothing in the program changes: while a traced sequence runs, the names a
calling module imported (for example ``oseq.enumerator.growth_bound`` or
``oseq.analysis.exhaustive_count``) are replaced by timing wrappers, and the
originals are put back afterwards.  A call within one module is never
wrapped, so each layer's self time includes its own internals.

Every wrapped call opens a frame on one stack.  When it returns, its
duration is added to its parent's child time, and its self time is the
duration minus that child time.  Calls at the coarse boundaries (``cli.run``,
``count_table``, ``load_cache`` ...) are also kept as spans
``(id, parent_id, name, start_ns, end_ns)``.  Leaf functions called up to
millions of times per operation (``growth_bound``, ``binomial``,
``is_o_sequence``) and generator steps are kept only as per-name totals of
calls, total time and self time, so memory stays flat.
"""
from __future__ import annotations

import itertools
import time
import tracemalloc
from types import ModuleType
from typing import Callable

_now = time.perf_counter_ns
_END = object()

# (calling module, name it imported, span name, kind).  "call" keeps every
# span, "hot" keeps totals only, "iter" times each step of a returned iterator.
BOUNDARIES: tuple[tuple[str, str, str, str], ...] = (
    ("cli", "run", "cli.run", "call"),
    ("cli", "count_table", "enumerator.count_table", "call"),
    ("cli", "iter_all", "enumerator.iter_all", "iter"),
    ("cli", "count_via_formula", "counting.count_via_formula", "call"),
    ("cli", "count_restricted", "counting.count_restricted", "call"),
    ("cli", "load_cache", "counting.load_cache", "call"),
    ("cli", "save_cache", "counting.save_cache", "call"),
    ("analysis", "check_oracle_grid", "analysis.check_oracle_grid", "call"),
    ("analysis", "check_window_bijection", "analysis.check_window_bijection", "call"),
    ("analysis", "count_restricted", "counting.count_restricted", "call"),
    ("analysis", "exhaustive_count", "lexseg.exhaustive_count", "call"),
    ("analysis", "_iter_buckets", "enumerator.iter_buckets", "iter"),
    ("analysis", "is_o_sequence", "macaulay.is_o_sequence", "hot"),
    ("enumerator", "growth_bound", "macaulay.growth_bound", "hot"),
    ("counting", "binomial", "macaulay.binomial", "hot"),
    ("lexseg", "binomial", "macaulay.binomial", "hot"),
    ("lexseg", "is_o_sequence", "macaulay.is_o_sequence", "hot"),
)

# Boundaries whose peak allocation the alloc pass measures with tracemalloc.
ALLOC_TARGETS = tuple(b for b in BOUNDARIES
                      if b[2] in ("enumerator.count_table", "enumerator.iter_all"))


class Patches:
    """Replaces module attributes and restores them on exit.

    A name that a later version of the program no longer has is skipped, so
    its metrics read 0 instead of the benchmark failing.
    """

    def __init__(self, modules: dict[str, ModuleType]):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner = self._modules.get(module)
        if owner is None or not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> Patches:
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """Spans, per-name call totals and counters of one traced sequence."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self._stack: list[list[int]] = [[0, 0]]  # open frames: [span_id, child_ns]
        self._ids = itertools.count(1)

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def peak(self, counter: str, value: int) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e9

    def wrap(self, fn: Callable, name: str, keep_span: bool,
             on_result: Callable[[object], None] | None = None) -> Callable:
        stack, spans, ids = self._stack, self.spans, self._ids
        totals = self.totals.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                parent[1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if keep_span:
                    spans.append((frame[0], parent[0], name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            return self._steps(fn(*args, **kwargs), name)

        return traced

    def _steps(self, inner, name: str):
        """Times each step of ``inner``; one span covers the whole iteration."""
        stack, totals = self._stack, self.totals.setdefault(name, [0, 0, 0])
        span_id, parent_id, begin = next(self._ids), self._stack[-1][0], _now()
        self.add(name + ".streams", 1)
        items = 0
        while True:
            parent = stack[-1]
            frame = [span_id, 0]
            stack.append(frame)
            start = _now()
            try:
                item = next(inner, _END)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                parent[1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
            if items == 0:
                self.add(name + ".first_ns", end - begin)
            if item is _END:
                break
            items += 1
            yield item
        self.add(name + ".items", items)
        self.spans.append((span_id, parent_id, name, begin, end))

    def install(self, patches: Patches, on_result: dict[str, Callable[[object], None]]) -> None:
        """Wraps every boundary in BOUNDARIES; ``on_result`` maps span names
        to callbacks that read counters off a returned value."""
        for module, attr, name, kind in BOUNDARIES:
            if kind == "iter":
                patches.replace(module, attr, lambda fn, n=name: self.wrap_iter(fn, n))
            else:
                patches.replace(module, attr, lambda fn, n=name, k=kind: self.wrap(
                    fn, n, keep_span=k == "call", on_result=on_result.get(n)))

    def to_json(self) -> dict:
        return {
            "spans": [list(span) for span in self.spans],
            "totals": {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                       for name, (c, t, s) in sorted(self.totals.items())},
            "counters": dict(sorted(self.counters.items())),
        }


def install_alloc_probes(patches: Patches, peaks: dict[str, int]) -> None:
    """Measures the peak traced allocation of each ALLOC_TARGETS call.

    tracemalloc runs only inside the probed call, and makes it several times
    slower, so the alloc pass is kept apart from the timed sequences.
    """

    def probe_call(fn: Callable, name: str) -> Callable:
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _record_peak(peaks, name)

        return probed

    def probe_iter(fn: Callable, name: str) -> Callable:
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                yield from fn(*args, **kwargs)
            finally:
                _record_peak(peaks, name)

        return probed

    for module, attr, name, kind in ALLOC_TARGETS:
        probe = probe_iter if kind == "iter" else probe_call
        patches.replace(module, attr, lambda fn, n=name, p=probe: p(fn, n))


def _record_peak(peaks: dict[str, int], name: str) -> None:
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    peaks[name] = max(peaks.get(name, 0), peak)
