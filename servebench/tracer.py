"""An in-memory span tracer and the arithmetic that turns spans into
per-layer self times.

A span is ``(name, start, end, parent, value)``: ``parent`` is the index
of the span that was open when this one started (``-1`` for a root),
``value`` an optional small JSON-able fact about the call (events
produced, tenant served, ...).  Spans are kept in memory and written out
once, when the run ends.  A layer's self time is its span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class Tracer:
    """Collects spans around wrapped callables (single-threaded use)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.values: Dict[int, Any] = {}
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        value: Optional[Callable[[Any, tuple], Any]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``value(result, args)``
        attaches a fact about the call to the span."""
        name_id = self._name_id(name)
        clock = self._clock
        stack = self._stack
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        values = self.values

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if value is not None:
                values[index] = value(result, args)
            return result

        return traced

    def to_dict(self) -> Dict[str, Any]:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "values": {str(k): v for k, v in self.values.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)


class Spans:
    """Columnar spans (from a :class:`Tracer` or its dump) with self times."""

    def __init__(self, payload: Dict[str, Any]):
        self.names: List[str] = list(payload["names"])
        self.name = np.asarray(payload["name"], dtype=np.int64)
        self.start = np.asarray(payload["start"], dtype=float)
        self.end = np.asarray(payload["end"], dtype=float)
        self.parent = np.asarray(payload["parent"], dtype=np.int64)
        self.values = {int(k): v for k, v in payload["values"].items()}
        self.self_time = self_times(self.start, self.end, self.parent)

    @classmethod
    def load(cls, path: str) -> "Spans":
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def in_windows(self, windows: Sequence[Tuple[float, float]]) -> np.ndarray:
        """Mask of spans whose root span lies inside one of ``windows``
        (sorted, disjoint ``(start, end)`` intervals)."""
        roots = root_of(self.parent)
        if not windows or roots.size == 0:
            return np.zeros(roots.size, dtype=bool)
        lo = np.asarray([w[0] for w in windows])
        hi = np.asarray([w[1] for w in windows])
        root_start = self.start[roots]
        slot = np.searchsorted(lo, root_start, side="right") - 1
        inside = slot >= 0
        inside[inside] &= self.end[roots][inside] <= hi[slot[inside]]
        return inside

    def select(self, name: str, mask: np.ndarray) -> np.ndarray:
        """Indices of spans called ``name`` under ``mask``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(mask & (self.name == self.names.index(name)))

    def value_list(self, indices: np.ndarray) -> List[Any]:
        return [self.values.get(int(i)) for i in indices]


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (single-threaded nesting), so the
    sum of their durations is the part of the parent they cover.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent],
        weights=duration[has_parent],
        minlength=duration.size,
    )
    return duration - covered[: duration.size]


def root_of(parent: np.ndarray) -> np.ndarray:
    """Index of each span's root ancestor (one step per nesting level)."""
    parent = np.asarray(parent, dtype=np.int64)
    roots = np.arange(parent.size)
    while True:
        up = parent[roots]
        climbing = up >= 0
        if not climbing.any():
            return roots
        roots = np.where(climbing, up, roots)
