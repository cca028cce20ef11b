"""Per-component reservation table with safe-interval queries.

Occupied intervals are half-open [start, end) so a departure at t and an
arrival at t on the same component never conflict. Safe intervals are the
complement of the occupied set over [0, inf); the last one is unbounded.

The table caches each component's complement as two parallel tuples of
starts and ends (``safe_bounds``) and keeps it until the next ``reserve``
or ``release`` on that component, which drops only that component's entry.
Safe intervals are disjoint and in start order, so both tuples ascend and
the interval live at time t (the first one ending after t) is found by
bisecting on the ends.

``bounds_by_id`` lays the same tuples out in a list by position in a fixed
component list (the planner's dense ids). The table keeps that list across
calls and refreshes only the entries of the components a ``reserve`` or
``release`` touched since the last call.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

INF = float("inf")


@dataclass(frozen=True, order=True)
class TimeInterval:
    start: int
    end: float  # int ns or math.inf

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"empty interval [{self.start}, {self.end})")

    def overlaps(self, other: "TimeInterval") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class SafeInterval:
    comp: Hashable
    index: int
    span: TimeInterval


class ReservationError(ValueError):
    """An overlapping reservation: always a scheduler bug, never retried."""


class ReservationTable:
    """Occupied time intervals per component, kept sorted and disjoint."""

    def __init__(self):
        self._occupied: dict[Hashable, list[TimeInterval]] = {}
        # comp -> (starts, ends) of its safe intervals; immutable tuples, so
        # callers and copies may share an entry but never alter it
        self._safe: dict[Hashable, tuple[tuple[int, ...], tuple]] = {}
        # the last bounds_by_id result: (components, position of each, bounds
        # by position), and the components reserved or released since
        self._by_id: Optional[tuple[Sequence, dict, list]] = None
        self._touched: set = set()

    def components(self) -> list[Hashable]:
        return list(self._occupied)

    def occupied(self, comp: Hashable) -> list[TimeInterval]:
        return list(self._occupied.get(comp, []))

    def reserve(self, comp: Hashable, interval: TimeInterval) -> None:
        """Insert an occupied interval; overlap raises ReservationError."""
        spans = self._occupied.setdefault(comp, [])
        pos = bisect.bisect_left(spans, interval)
        for neighbor in spans[max(0, pos - 1):pos + 1]:
            if neighbor.overlaps(interval):
                raise ReservationError(
                    f"{comp}: [{interval.start}, {interval.end}) overlaps "
                    f"existing [{neighbor.start}, {neighbor.end})")
        spans.insert(pos, interval)
        self._safe.pop(comp, None)
        self._touched.add(comp)

    def release(self, comp: Hashable, interval: TimeInterval) -> None:
        """Remove an interval previously passed to reserve (exact match)."""
        spans = self._occupied.get(comp, [])
        try:
            spans.remove(interval)
        except ValueError:
            raise ReservationError(
                f"{comp}: [{interval.start}, {interval.end}) not reserved") from None
        self._safe.pop(comp, None)
        self._touched.add(comp)

    def safe_bounds(self, comp: Hashable) -> tuple[tuple[int, ...], tuple]:
        """Starts and ends of the safe intervals, as two parallel tuples.

        Entry i of both is safe interval i of ``safe_intervals``; the last
        end is ``INF`` unless a reservation runs to infinity.
        """
        bounds = self._safe.get(comp)
        if bounds is None:
            starts: list[int] = []
            ends: list = []
            cursor = 0
            for occ in self._occupied.get(comp, []):
                if occ.start > cursor:
                    starts.append(cursor)
                    ends.append(occ.start)
                cursor = max(cursor, occ.end)
            # a reservation to infinity leaves no final interval
            if cursor < INF:
                starts.append(cursor)
                ends.append(INF)
            bounds = self._safe[comp] = (tuple(starts), tuple(ends))
        return bounds

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

    def safe_intervals(self, comp: Hashable) -> list[SafeInterval]:
        """Complement of the occupied set over [0, inf), in start order."""
        starts, ends = self.safe_bounds(comp)
        return [SafeInterval(comp, i, TimeInterval(start, end))
                for i, (start, end) in enumerate(zip(starts, ends))]

    def interval_containing(self, comp: Hashable, t: int) -> SafeInterval | None:
        starts, ends = self.safe_bounds(comp)
        i = bisect.bisect_right(ends, t)  # first interval still live at t
        if i < len(ends) and starts[i] <= t:
            return SafeInterval(comp, i, TimeInterval(starts[i], ends[i]))
        return None

    def is_free(self, comp: Hashable, interval: TimeInterval) -> bool:
        return not any(occ.overlaps(interval)
                       for occ in self._occupied.get(comp, []))

    def copy(self) -> "ReservationTable":
        dup = ReservationTable()
        dup._occupied = {comp: list(spans) for comp, spans in self._occupied.items()}
        dup._safe = dict(self._safe)
        return dup
