"""In-memory spans for the benchmark's traced runs.

A :class:`Tracer` records one span per wrapped call: its name, start, end
and the index of the span that was open when it started (its parent).  The
spans stay in memory while the workload runs and are written out once, when
the pass ends.  Names are ``<layer>.<what>``; a layer's time is the *self*
time of its spans, so a ``gpu.run_graph`` span that contains a
``trace.decode`` span is charged only for the time the decode did not cover.

Wrappers are installed from outside the package, by replacing a function in
every module that imported it (:func:`replace_function`) or a method on its
class (:func:`replace_method`).  Nothing here knows about the simulator; the
layer table lives in ``layers.py``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: One recorded span: ``[name, start, end, parent_index]`` (``-1`` = root).
Span = List


class Tracer:
    """Records nested spans and named counts for one process.

    Wrappers record only inside a :meth:`phase` (the benchmark's own root
    spans: setup, timed call, warm call), so the output checks that run
    between phases leave no trace.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.active = False
        #: Depth of open spans whose callee's inner calls must not be
        #: recorded one by one (``GPU.run_graph`` drives ~10^5 ``run_cycles``).
        self.opaque = 0
        self._stack: List[int] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A root span ``bench.<name>``; wrappers record while it is open."""
        if self._stack:
            raise RuntimeError("phases do not nest")
        index = self.open(f"bench.{name}")
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.close(index)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: Path) -> None:
        """Write every span and count as JSON (called once, at the end)."""
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable,
    after: Optional[Callable[[tuple, object], None]] = None,
    opaque: bool = False,
) -> Callable:
    """Wrap ``fn`` in a span; ``after(args, result)`` records counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        tracer.opaque += opaque
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.opaque -= opaque
            tracer.close(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def counted(tracer: Tracer, fn: Callable, after: Callable[[tuple, object], None]) -> Callable:
    """Wrap ``fn`` without a span: only ``after(args, result)`` runs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.active:
            after(args, result)
        return result

    return wrapper


def replace_function(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace ``module.attr`` with ``make(original)`` in every loaded module
    that holds the original under any name.  Returns False when absent."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return False
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
    return True


def replace_method(
    module_name: str, class_name: str, attr: str, make: Callable[[Callable], Callable]
) -> bool:
    """Replace a method defined on the class itself.  False when absent."""
    cls = getattr(importlib.import_module(module_name), class_name, None)
    original = vars(cls).get(attr) if isinstance(cls, type) else None
    if original is None or getattr(original, "__isabstractmethod__", False):
        return False
    setattr(cls, attr, make(original))
    return True


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(index, ()), start, end)
        for index, (name, start, end, parent) in enumerate(spans)
    ]


def time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def calls_by_name(spans: Sequence[Span]) -> Dict[str, int]:
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return calls
