"""Outside-in spans: the benchmark's own wrappers around public calls.

A traced run replaces a handful of public functions and methods of the
program with wrappers that time each call (:class:`Patches` undoes
every replacement, so the untraced reference pass in the same process
runs the original code).  Spans live in memory as parallel arrays and
are written once, when the run ends.

Each span has a name, start, end, parent and a request id: the engine
tick or the serve request it belongs to.  A layer's *self time* is its
span's duration minus the part of that interval its children cover
(:func:`union_length`), which stays right when children overlap, as
the concurrent spans of an asyncio client do.
"""

from __future__ import annotations

import gzip
import time
from array import array
from typing import Callable, Iterable, Optional

__all__ = ["SpanLog", "Patches", "union_length", "layer_table", "share", "busy"]

_MISSING = object()


def union_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


class SpanLog:
    """Spans of one process, kept in memory until the run ends.

    :meth:`wrap` makes a timing wrapper for a synchronous callable; its
    spans nest through a stack, which is exact because a synchronous
    call finishes before its caller does.  :meth:`record` adds a span
    whose bounds and parent the caller measured itself (asyncio work).
    :meth:`counter` makes a wrapper that only counts calls, and
    :meth:`tally` one that counts and times them without a span, for
    calls too frequent to give each a span.  Times and parents sit in typed arrays, so a
    million spans cost tens of megabytes, not hundreds.
    """

    def __init__(self, process: str) -> None:
        self.process = process
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.rids: list = []
        self.counts: dict[str, int] = {}
        self.tallies: dict[str, list] = {}
        self.rid = None
        self._next_rid = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def record(self, name: str, start: float, end: float,
               parent: int = -1, rid=None) -> int:
        """Add one span measured by the caller; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.rids.append(rid)
        return len(self.names) - 1

    def wrap(self, name: str, fn: Callable, root: bool = False) -> Callable:
        """``fn`` timed as span ``name``; ``root`` starts a new request id."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, rids, stack = self.parents, self.rids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if root:
                self.rid = self._next_rid
                self._next_rid += 1
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            rids.append(self.rid)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn: Callable,
                within: Optional[str] = None) -> Callable:
        """``fn`` with its calls counted under ``name``.

        With ``within``, only calls made while the innermost open span
        is named ``within`` count.
        """
        counts, names, stack = self.counts, self.names, self._stack
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            if within is None or (stack and names[stack[-1]] == within):
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def tally(self, name: str, fn: Callable,
              seen: Optional[set] = None) -> Callable:
        """``fn`` with its calls counted and timed under ``name``, no span.

        For leaf calls made about a million times a window, where a
        span each would cost more than the call: only the call count
        and the summed duration are kept (:attr:`tallies`).  With
        ``seen``, the first argument of every call is added to it.
        """
        tallies = self.tallies
        tallies.setdefault(name, [0, 0.0])
        row = tallies[name]
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[1] += clock() - start
                row[0] += 1
                if seen is not None:
                    seen.add(args[0])

        return timed

    def durations(self, name: str) -> list[float]:
        """Every duration recorded under ``name``, in seconds."""
        return [
            self.ends[i] - self.starts[i]
            for i, span_name in enumerate(self.names)
            if span_name == name
        ]

    def write_csv(self, path) -> int:
        """Write every span as gzip'd CSV; returns the span count.

        Columns: process, span id, name, start and end (perf_counter
        seconds of that process), parent span id (-1 for none) and the
        request id (engine tick or serve request; empty if unknown).
        """
        starts, ends, parents, rids = self.starts, self.ends, self.parents, self.rids
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("proc,id,name,start,end,parent,rid\n")
            for i, name in enumerate(self.names):
                rid = rids[i]
                handle.write(
                    f"{self.process},{i},{name},{starts[i]:.9f},{ends[i]:.9f},"
                    f"{parents[i]},{'' if rid is None else rid}\n"
                )
        return len(self.names)


def layer_table(log: SpanLog) -> dict[str, dict]:
    """Per span or tally name: calls, busy seconds and self seconds."""
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(log.parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    table: dict[str, dict] = {}
    starts, ends = log.starts, log.ends
    for index, name in enumerate(log.names):
        start, end = starts[index], ends[index]
        duration = end - start
        kids = children.get(index)
        covered = (
            union_length(((starts[k], ends[k]) for k in kids), start, end)
            if kids else 0.0
        )
        row = table.get(name)
        if row is None:
            row = table[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        row["calls"] += 1
        row["busy_s"] += duration
        row["self_s"] += duration - covered
    # Tallied calls are leaves; their time stays in their caller's self time.
    for name, (calls, seconds) in log.tallies.items():
        table[name] = {"calls": calls, "busy_s": seconds, "self_s": seconds}
    return table


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(current value)``.

        ``owner`` may be a module, a class (the replacement then applies
        to every instance) or one instance (an instance attribute that
        shadows the class's method until undone).
        """
        previous = vars(owner).get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        current = getattr(owner, attr)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, make(current))

    def undo(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.undo()


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when there is no whole."""
    return part / whole if whole else 0.0


def busy(table: dict, name: str, key: str = "busy_s") -> float:
    """One figure of one layer from :func:`layer_table` (0 if absent)."""
    row: Optional[dict] = table.get(name)
    return row[key] if row is not None else 0.0
