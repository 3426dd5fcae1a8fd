"""In-memory span recorder and the per-layer table built from it.

A span is one call into a layer: ``name``, ``start``, ``end`` (seconds on
:func:`time.perf_counter`) and the index of its ``parent`` span.  Spans
come from two sources:

* wrappers the benchmark puts around public functions and methods
  (:meth:`SpanRecorder.wrap`), which open a span on entry and close it on
  exit, so they nest through an explicit stack;
* the program's own ``repro.sim.perf`` stage counters, which report a
  section only once it has ended (``counters.add(name, seconds)``).
  :meth:`SpanRecorder.closed` turns such a report into a span after the
  fact and adopts, as its children, the spans already closed under the
  same parent that started inside it.

A layer's self time is its span's duration minus the time its children
cover.  Summed over every span, plus the root's own remainder
(``unattributed``), self times add up to the root's wall time exactly.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from typing import Callable, Dict, List

#: A retroactive span starts ``seconds`` before it is reported; the
#: report itself lags the section's real end by a fraction of a
#: microsecond, so children that started within this slack of the
#: reconstructed start still count as inside it.
ADOPT_SLACK_S = 2e-6

ROOT = -1


class SpanRecorder:
    """Collects spans in memory; :meth:`dump` writes them out at exit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.notes: Dict[int, dict] = {}
        self._child_sum: List[float] = []
        # Open spans, innermost last, and the closed direct children of
        # each open span (the root included) that a retroactive span may
        # still adopt.
        self._stack: List[int] = []
        self._closed_children: Dict[int, List[int]] = {ROOT: []}
        self._open_by_name: Dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def _new(self, name: str, start: float, parent: int) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(parent)
        self._child_sum.append(0.0)
        return idx

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else ROOT
        idx = self._new(name, self.clock(), parent)
        self._stack.append(idx)
        self._closed_children[idx] = []
        self._open_by_name[name] = self._open_by_name.get(name, 0) + 1
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(
                f"span {self.names[idx]!r} closed out of order "
                f"(innermost open span is {self.names[popped]!r})"
            )
        self.ends[idx] = end
        del self._closed_children[idx]
        self._open_by_name[self.names[idx]] -= 1
        self._attach(idx, self.parents[idx])

    def closed(self, name: str, seconds: float) -> int:
        """Record a section of ``seconds`` that has just ended."""
        end = self.clock()
        start = end - seconds
        parent = self._stack[-1] if self._stack else ROOT
        idx = self._new(name, start, parent)
        self.ends[idx] = end
        siblings = self._closed_children[parent]
        while siblings and self.starts[siblings[-1]] >= start - ADOPT_SLACK_S:
            child = siblings.pop()
            duration = self.ends[child] - self.starts[child]
            if parent != ROOT:
                self._child_sum[parent] -= duration
            self._child_sum[idx] += duration
            self.parents[child] = idx
        self._attach(idx, parent)
        return idx

    def _attach(self, idx: int, parent: int) -> None:
        self._closed_children[parent].append(idx)
        if parent != ROOT:
            self._child_sum[parent] += self.ends[idx] - self.starts[idx]

    def note(self, idx: int, **values) -> None:
        self.notes.setdefault(idx, {}).update(values)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return self._open_by_name.get(name, 0) > 0

    def wrap(self, fn: Callable, name, on_exit=None) -> Callable:
        """``fn`` timed as a span.  ``name`` is a string or a callable of
        the call's arguments; ``on_exit(recorder, idx, result, *args)``
        may attach notes once the call has returned."""
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(namer(*args) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_exit is not None:
                on_exit(self, idx, result, *args)
            return result

        return traced

    # -- reading -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_time(self, idx: int) -> float:
        return self.duration(idx) - self._child_sum[idx]

    def ancestors(self, idx: int):
        parent = self.parents[idx]
        while parent != ROOT:
            yield parent
            parent = self.parents[parent]

    def has_ancestor(self, idx: int, name: str) -> bool:
        return any(self.names[a] == name for a in self.ancestors(idx))

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``self_s`` (summed self time), ``s`` (time of
        the outermost spans of that name, so recursion is not counted
        twice) and ``calls``."""
        table: Dict[str, Dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = table.setdefault(name, {"self_s": 0.0, "s": 0.0, "calls": 0})
            row["self_s"] += self.self_time(idx)
            row["calls"] += 1
            if not self.has_ancestor(idx, name):
                row["s"] += self.duration(idx)
        return table

    def dump(self, path) -> None:
        rows = [
            {
                "name": self.names[i],
                "start": self.starts[i],
                "end": self.ends[i],
                "parent": self.parents[i],
                **({"notes": self.notes[i]} if i in self.notes else {}),
            }
            for i in range(len(self.names))
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(rows, fh)


def root_table(recorder: SpanRecorder, root: int) -> Dict[str, float]:
    """Self time per layer under ``root`` plus ``unattributed`` (the
    root's own self time); the values add up to the root's duration."""
    out: Dict[str, float] = {}
    for idx, name in enumerate(recorder.names):
        if idx != root and root in recorder.ancestors(idx):
            out[name] = out.get(name, 0.0) + recorder.self_time(idx)
    out["unattributed"] = recorder.self_time(root)
    return out

