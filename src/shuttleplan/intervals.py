"""Per-component reservation table with safe-interval queries.

Every interval is a plain ``(start, end)`` pair, half-open [start, end), so
a departure at t and an arrival at t on the same component never conflict.
The table keeps each component's occupied pairs in one list, sorted and
disjoint; pairs sort as tuples, by start and then by end. Safe intervals
are the complement of the occupied set over [0, inf); the last one is
unbounded.

``safe_bounds`` computes a component's safe intervals from its occupancy
as two parallel tuples of starts and ends. Safe intervals are disjoint and
in start order, so both tuples ascend and the interval live at time t (the
first one ending after t) is found by bisecting on the ends.

``bounds_by_id`` lays the same tuples out in a list by position in a fixed
component list (the planner's dense ids). The table keeps that list across
calls and refreshes only the entries of the components a ``reserve`` or
``release`` touched since the last call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Hashable, Optional, Sequence

INF = float("inf")


class ReservationError(ValueError):
    """An overlapping reservation: always a scheduler bug, never retried."""


class ReservationTable:
    """Occupied (start, end) pairs per component, kept sorted and disjoint."""

    def __init__(self):
        self._occupied: dict[Hashable, list[tuple[int, float]]] = {}
        # the last bounds_by_id result: (components, position of each, bounds
        # by position), and the components reserved or released since
        self._by_id: Optional[tuple[Sequence, dict, list]] = None
        self._touched: set = set()

    def components(self) -> list[Hashable]:
        return list(self._occupied)

    def occupied(self, comp: Hashable) -> list[tuple[int, float]]:
        return list(self._occupied.get(comp, ()))

    def reserve(self, comp: Hashable, start: int, end: float) -> None:
        """Occupy [start, end); ValueError if it is empty, ReservationError
        if it overlaps a reservation."""
        if not start < end:
            raise ValueError(f"empty interval [{start}, {end})")
        spans = self._occupied.setdefault(comp, [])
        pos = bisect_left(spans, (start, end))
        for s, e in spans[max(0, pos - 1):pos + 1]:
            if s < end and start < e:
                raise ReservationError(f"{comp}: [{start}, {end}) overlaps "
                                       f"existing [{s}, {e})")
        spans.insert(pos, (start, end))
        self._touched.add(comp)

    def release(self, comp: Hashable, start: int, end: float) -> None:
        """Free a pair previously passed to reserve (exact match)."""
        spans = self._occupied.get(comp, [])
        pos = bisect_left(spans, (start, end))
        if pos == len(spans) or spans[pos] != (start, end):
            raise ReservationError(f"{comp}: [{start}, {end}) not reserved")
        del spans[pos]
        self._touched.add(comp)

    def safe_bounds(self, comp: Hashable) -> tuple[tuple[int, ...], tuple]:
        """Starts and ends of the safe intervals, as two parallel tuples.

        Entry i of both is safe interval i of ``safe_intervals``; the last
        end is ``INF`` unless a reservation runs to infinity.
        """
        starts: list[int] = []
        ends: list = []
        cursor = 0
        for start, end in self._occupied.get(comp, ()):
            if start > cursor:
                starts.append(cursor)
                ends.append(start)
            cursor = end
        # a reservation to infinity leaves no final interval
        if cursor < INF:
            starts.append(cursor)
            ends.append(INF)
        return tuple(starts), tuple(ends)

    def bounds_by_id(self, comps: Sequence) -> list:
        """``safe_bounds(comps[i])`` at position i, for every i.

        Called again with the same ``comps`` object, the table returns the
        same list with only the entries of components reserved or released
        since brought up to date; another object gets a new list. The list
        is the table's own, valid until the next reserve or release, and
        must not be altered by the caller.
        """
        view = self._by_id
        if view is None or view[0] is not comps:
            bounds = list(map(self.safe_bounds, comps))
            self._by_id = (comps, {c: i for i, c in enumerate(comps)}, bounds)
        else:
            _, position, bounds = view
            for comp in self._touched:
                i = position.get(comp)
                if i is not None:
                    bounds[i] = self.safe_bounds(comp)
        self._touched.clear()
        return bounds

    def safe_intervals(self, comp: Hashable) -> list[tuple[int, float]]:
        """Complement of the occupied set over [0, inf), in start order."""
        return list(zip(*self.safe_bounds(comp)))

    def interval_containing(self, comp: Hashable, t: int) -> Optional[int]:
        """Index of the safe interval that holds time t, or None if t is
        occupied; index 0 is an interval, so test the result with ``is``."""
        starts, ends = self.safe_bounds(comp)
        i = bisect_right(ends, t)  # first interval still live at t
        if i < len(ends) and starts[i] <= t:
            return i
        return None

    def is_free(self, comp: Hashable, start: int, end: float) -> bool:
        return not any(s < end and start < e
                       for s, e in self._occupied.get(comp, ()))

    def copy(self) -> "ReservationTable":
        dup = ReservationTable()
        dup._occupied = {comp: list(spans) for comp, spans in self._occupied.items()}
        return dup
