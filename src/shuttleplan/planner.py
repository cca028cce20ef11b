"""Time-optimal single-ancilla route search over safe intervals.

States are (component, safe-interval index, done-mask); time is tracked as
the earliest known arrival g per state, so waiting never has to be encoded
as an explicit transition. Transitions are

  * shuttle: intersection -> adjacent intersection, feasible only when the
    connecting channel has a safe interval covering the whole traversal and
    the destination interval contains the arrival, one successor per
    reachable destination interval;
  * displace: between the component layers of one cell, occupying both
    endpoints for the full displace duration;
  * gate: in an interaction zone that is a pending target, when the current
    interval still admits the full gate time.

The goal is a readout state with all targets done whose interval admits the
terminal pad (measurement and any trailing basis-change gate). The search is
A* re-expanding any state reached by a strictly earlier arrival. Its
heuristic charges the pending gates and displaces plus the shuttle time of
``tsp.OpenPathTable``'s remaining-travel bound, which never overestimates
(an exact open path, or a spanning-tree bound past ``tsp.EXACT_LIMIT``
unordered targets). It reads the layout, the timing and the request, never
the reservations, so it is admissible under any of them and the returned
route is time-optimal for the reservations it was planned against.

A route is a list of ``Event`` records, the package's one record of a timed
ancilla action: WAIT, SHUTTLE, DISPLACE, and GATE with the target index as
``partner``. The compiler keeps them as they are and expands each GATE.

Components are searched as dense int ids. ``layout_index`` ranks a layout's
components in tuple sort order, so id order is component order and the heap
entries (f, h, (id, interval, mask)) tie-break exactly as they would on
component tuples. The index also holds each id's kind, cell number, (channel
id, neighbour id) links and other-layer ids. It is built once per layout and
kept in a ``WeakKeyDictionary`` keyed by the layout, so it lives as long as
the layout does and refers to no search. Ids become component tuples again
only in the returned ``PlanResult`` and in ``route_successors`` and
``route_heuristic``.

The request carries the check's target cells, their order flag and their
remaining-travel bound as one ``tsp.OpenPathTable`` (``PlanRequest.tours``),
which ``compiler.build_request`` builds once per check. The compiler's
``longest`` ordering bound (``route_heuristic``) and the route search
(``plan_route``) both read that table and build none.

The remaining-travel term of the heuristic depends on the cell and the
pending mask alone. A search computes it for every cell of the chip the
first time it meets a pending mask, as one numpy row from
``OpenPathTable.min_distances``, whatever the kind of table, so the
heuristic is a list lookup plus the gate and displace charges of the
state's own layer.

Reservations are plain (start, end) pairs per component, and a safe
interval is named by its index alone: the start state's is the index
``ReservationTable.interval_containing`` returns. Safe intervals are read
as parallel tuples of starts and ends from
``ReservationTable.bounds_by_id``, a list by id that the table keeps for the
layout's component list across searches: the first search on a table fills
it, and each later one recomputes only the components that a reserve or
release touched since the search before, so planning a route costs
``safe_bounds`` calls for what the routes before it reserved, not for the
whole chip. Successor generation skips intervals by bisection. No move from
time g arrives before g + t (t the shuttle or displace duration), so every
destination interval ending at or before that arrival is dead, and so is
every channel interval ending before g + t_shuttle. Departures only grow
with the destination interval's start, so the destination scan stops once
the earliest departure passes the end of the current interval. Intervals
skipped this way yield nothing, so the successors and their order are
those of a scan from index 0.
"""

from __future__ import annotations

import heapq
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from .chip import (CHANNEL, INTERSECTION, Cell, ChipLayout, ComponentId,
                   TimingConfig, channel_id, interaction_id, intersection_id,
                   readout_id)
from .intervals import INF, ReservationTable
from .tsp import OpenPathTable

_LAYER_BUILDERS = (intersection_id, interaction_id, readout_id)


class PlanFailure(RuntimeError):
    """No collision-free route exists under the given reservations."""


class SearchState(NamedTuple):
    """A search state as the public API shows it, with a component tuple."""

    comp: ComponentId
    interval: int
    mask: int  # bit j set once target j has been gated


@dataclass(frozen=True, slots=True)
class Event:
    """One timed action of an ancilla; the ancilla keys its event list."""

    kind: str  # INIT H CX MEASURE WAIT SHUTTLE DISPLACE, or GATE in a route
    t: int
    duration: int
    comp: ComponentId            # channel / source layer / zone / resting spot
    dest: Optional[ComponentId] = None  # displace destination layer
    partner: Optional[int] = None       # GATE: target index; CX: data index

    @property
    def end(self) -> int:
        return self.t + self.duration


@dataclass
class PlanRequest:
    start_cell: Cell             # the route starts at this cell's readout
    start_time: int
    tours: OpenPathTable         # target cells in canonical order, their
                                 # order flag and remaining-travel bound
    gate_duration: int           # t_cx, or t_cx + 2 t_h under tailoring
    terminal_pad: int            # readout time needed after parking
    # earliest allowed gate start per target cell; used to keep every data
    # qubit's X-check gates ahead of its Z-check gates within a round, the
    # interleaving rule that keeps detectors deterministic
    gate_windows: dict[Cell, int] = field(default_factory=dict)


@dataclass
class PlanStats:
    """Search effort of one route; heuristic calls = pushes + 1 (the start)."""

    pops: int = 0            # heap pops, stale ones included
    pushes: int = 0
    stale_pops: int = 0      # pops superseded by an earlier arrival
    h_cache_hits: int = 0
    h_cache_misses: int = 0  # heuristic evaluations actually computed
    seconds: float = 0.0     # wall time of plan_route


@dataclass
class PlanResult:
    steps: list[Event]           # WAIT, SHUTTLE, DISPLACE and GATE
    parked: ComponentId          # terminal readout
    parked_time: int             # g at the goal (terminal pad not included)
    stats: PlanStats = field(default_factory=PlanStats)


class LayoutIndex:
    """Dense ids for the components of one layout, in tuple sort order.

    Per id i: ``comps[i]`` is the component, ``kinds[i]`` its kind string,
    ``cell_no[i]`` the position of its cell in ``layout.cells()`` (None for
    a channel), ``links[i]`` the (channel id, neighbour intersection id) pairs
    of an intersection in ``layout.neighbors`` order, and ``layers[i]`` the
    ids of the other layers of its cell in intersection, interaction,
    readout order. ``xs`` and ``ys`` hold the cell coordinates by position.
    """

    def __init__(self, layout: ChipLayout):
        self.comps = sorted(layout.components())
        self.id_of = {comp: i for i, comp in enumerate(self.comps)}
        cells = list(layout.cells())
        self.cell_number = {cell: k for k, cell in enumerate(cells)}
        self.xs = np.array([x for x, _ in cells], dtype=np.int64)
        self.ys = np.array([y for _, y in cells], dtype=np.int64)
        self.kinds = [comp[0] for comp in self.comps]
        self.cell_no: list[Optional[int]] = []
        self.links: list[tuple] = []
        self.layers: list[tuple] = []
        id_of = self.id_of
        for comp in self.comps:
            if comp[0] == CHANNEL:
                self.cell_no.append(None)
                self.links.append(())
                self.layers.append(())
                continue
            cell = (comp[1], comp[2])
            self.cell_no.append(self.cell_number[cell])
            links = ()
            if comp[0] == INTERSECTION:
                links = tuple((id_of[channel_id(cell, nb)],
                               id_of[intersection_id(nb)])
                              for nb in layout.neighbors(cell))
            self.links.append(links)
            self.layers.append(tuple(id_of[dest] for dest in
                                     (b(cell) for b in _LAYER_BUILDERS)
                                     if dest != comp))

    def id(self, comp: ComponentId) -> int:
        try:
            return self.id_of[comp]
        except KeyError:
            raise ValueError(f"{comp} is not a component of the layout") from None


_INDEXES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def layout_index(layout: ChipLayout) -> LayoutIndex:
    """The layout's ``LayoutIndex``, built on first use and kept with it."""
    index = _INDEXES.get(layout)
    if index is None:
        index = _INDEXES[layout] = LayoutIndex(layout)
    return index


class _Memo(dict):
    """A dict that fills a missing key with ``build(key)``."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Search:
    def __init__(self, layout: ChipLayout, timing: TimingConfig,
                 req: PlanRequest):
        targets = req.tours.targets
        for cell in (req.start_cell, *targets):
            layout.require_in_bounds(cell)
        target_of = {cell: j for j, cell in enumerate(targets)}
        if len(target_of) != len(targets):
            raise ValueError("duplicate target cells in one task")
        self.index = index = layout_index(layout)
        self.timing = timing
        self.req = req
        self.full = (1 << len(targets)) - 1
        # target index by cell number, and by the id of its interaction zone
        self.target_at = {index.cell_number[c]: j for c, j in target_of.items()}
        self.gate_at = {index.id_of[interaction_id(c)]: j
                        for c, j in target_of.items()}
        self.windows = [req.gate_windows.get(c, 0) for c in targets]
        # per-search memos, read by subscript in the hot loop (cheaper than a
        # method call); their builders must not hold self, or each search
        # would linger in a reference cycle until the next collection
        size = len(index.comps)
        self.h_rows = _Memo(lambda mask: [None] * size)  # mask -> h per id
        self.travel = _Memo(_travel_rows(index, timing, req))

    def _gate_target(self, j: Optional[int], mask: int) -> Optional[int]:
        """j if target j may be gated next under mask, else None."""
        if j is None or mask >> j & 1:
            return None
        if self.req.tours.ordered and j != mask.bit_count():
            return None
        return j

    # -- heuristic -----------------------------------------------------------

    def heuristic(self, sid: int, mask: int) -> int:
        t = self.timing
        kind = self.index.kinds[sid]
        pending = self.full & ~mask
        if pending == 0:
            return 0 if kind == "readout" else t.t_displace
        k = self.index.cell_no[sid]
        cost = 0
        j = self._gate_target(self.target_at.get(k), mask)
        if kind == "interaction" and j is not None:
            cost += self.req.gate_duration + t.t_displace
            pending &= ~(1 << j)
            if pending == 0:
                return cost
        elif kind == "readout" and j is None:
            cost += t.t_displace
        return cost + self.travel[pending][k]

    # -- A* ------------------------------------------------------------------

    def run(self, table: ReservationTable) -> PlanResult:
        req = self.req
        start_comp = readout_id(req.start_cell)
        interval = table.interval_containing(start_comp, req.start_time)
        if interval is None:
            raise PlanFailure(f"start {start_comp} occupied at t={req.start_time}")
        start = (self.index.id_of[start_comp], interval, 0)
        goal, g_best, parents, stats = self.search(table, start,
                                                   req.start_time)
        if goal is None:
            raise PlanFailure(
                f"no route from {start_comp} over {len(req.tours.targets)} "
                f"targets")
        result = self._extract(goal, parents, g_best)
        result.stats = stats
        return result

    def search(self, table: ReservationTable, start: tuple, g0: int,
               expand_only: bool = False):
        """A* from start at time g0: (goal or None, g_best, parents, stats).

        Successors avoid ``table``'s reservations and are generated inline,
        as (dest id, interval, mask) with their earliest arrival; ``parents``
        maps each reached state to the state it was reached from. With
        ``expand_only`` the start is expanded, never tested as a goal, and
        the search stops, so ``parents`` lists the start's successors in
        generation order.
        """
        full = self.full
        pad = self.req.terminal_pad
        gate = self.req.gate_duration
        t_shuttle = self.timing.t_shuttle
        t_displace = self.timing.t_displace
        kinds, links, layers = self.index.kinds, self.index.links, self.index.layers
        # the table does not change during a search
        bounds = table.bounds_by_id(self.index.comps)
        gate_at_get = self.gate_at.get
        gate_target = self._gate_target
        windows = self.windows
        heuristic = self.heuristic
        h_rows = self.h_rows
        heappush, heappop = heapq.heappush, heapq.heappop
        g_best: dict[tuple, int] = {start: g0}
        g_best_get = g_best.get
        parents: dict[tuple, tuple] = {}
        h0 = h_rows[start[2]][start[0]] = heuristic(start[0], start[2])
        open_heap: list[tuple] = [(g0 + h0, h0, start)]
        pops = pushes = stale = 0
        misses = 1
        goal = None
        while open_heap:
            f, h, state = heappop(open_heap)
            pops += 1
            g = g_best[state]
            if f - h != g:
                stale += 1
                continue  # stale entry, a cheaper arrival was queued later
            sid, interval, mask = state
            hi = bounds[sid][1][interval]
            if (mask == full and kinds[sid] == "readout" and g + pad <= hi
                    and not expand_only):
                goal = state
                break
            row = h_rows[mask]

            arr_min = g + t_shuttle
            for ch, dest in links[sid]:
                starts, ends = bounds[dest]
                ch_starts, ch_ends = bounds[ch]
                first_ch = bisect_left(ch_ends, arr_min)
                for dj in range(bisect_right(ends, arr_min), len(ends)):
                    lo_dep = starts[dj] - t_shuttle
                    if lo_dep < g:
                        lo_dep = g
                    if lo_dep > hi:
                        break  # later destination intervals depart later still
                    end = ends[dj]
                    for ci in range(first_ch, len(ch_ends)):
                        dep = ch_starts[ci]
                        if dep < lo_dep:
                            dep = lo_dep
                        arr = dep + t_shuttle
                        if dep > hi or arr >= end:
                            break  # later channel intervals only delay further
                        if arr > ch_ends[ci]:
                            continue  # channel window too short, try the next
                        nxt = (dest, dj, mask)
                        if arr < g_best_get(nxt, INF):
                            g_best[nxt] = arr
                            parents[nxt] = state
                            nh = row[dest]
                            if nh is None:
                                nh = row[dest] = heuristic(dest, mask)
                                misses += 1
                            heappush(open_heap, (arr + nh, nh, nxt))
                            pushes += 1
                        break

            arr_min = g + t_displace
            for dest in layers[sid]:
                starts, ends = bounds[dest]
                for dj in range(bisect_right(ends, arr_min), len(ends)):
                    dep = starts[dj]
                    if dep < g:
                        dep = g
                    arr = dep + t_displace
                    if arr > hi:
                        break  # source must stay safe through the displace
                    if arr >= ends[dj]:
                        continue  # interval too short to arrive inside it
                    nxt = (dest, dj, mask)
                    if arr < g_best_get(nxt, INF):
                        g_best[nxt] = arr
                        parents[nxt] = state
                        nh = row[dest]
                        if nh is None:
                            nh = row[dest] = heuristic(dest, mask)
                            misses += 1
                        heappush(open_heap, (arr + nh, nh, nxt))
                        pushes += 1

            j = gate_at_get(sid)
            if j is not None and gate_target(j, mask) is not None:
                done = (g if g > windows[j] else windows[j]) + gate
                if done <= hi:
                    nmask = mask | (1 << j)
                    nxt = (sid, interval, nmask)
                    if done < g_best_get(nxt, INF):
                        g_best[nxt] = done
                        parents[nxt] = state
                        nrow = h_rows[nmask]
                        nh = nrow[sid]
                        if nh is None:
                            nh = nrow[sid] = heuristic(sid, nmask)
                            misses += 1
                        heappush(open_heap, (done + nh, nh, nxt))
                        pushes += 1
            if expand_only:
                break
        stats = PlanStats(pops=pops, pushes=pushes, stale_pops=stale,
                          h_cache_hits=pushes + 1 - misses,
                          h_cache_misses=misses)
        return goal, g_best, parents, stats

    def _extract(self, goal: tuple, parents, g_best) -> PlanResult:
        """Events on the parent chain; each move is read off its two ends."""
        t = self.timing
        index = self.index
        comps = index.comps
        chain = []
        state = goal
        while state in parents:
            chain.append(state)
            state = parents[state]
        chain.reverse()

        steps: list[Event] = []
        prev = state
        cursor = self.req.start_time
        for state in chain:
            arrival = g_best[state]
            (pid, _, pmask), (sid, _, mask) = prev, state
            if mask != pmask:
                step = Event("GATE", arrival - self.req.gate_duration,
                             self.req.gate_duration, comps[sid],
                             partner=(mask ^ pmask).bit_length() - 1)
            elif sid in index.layers[pid]:
                step = Event("DISPLACE", arrival - t.t_displace,
                             t.t_displace, comps[pid], dest=comps[sid])
            else:
                ch = next(c for c, dest in index.links[pid] if dest == sid)
                step = Event("SHUTTLE", arrival - t.t_shuttle, t.t_shuttle,
                             comps[ch])
            if step.t > cursor:
                steps.append(Event("WAIT", cursor, step.t - cursor, comps[pid]))
            steps.append(step)
            cursor = arrival
            prev = state
        return PlanResult(steps=steps, parked=comps[goal[0]],
                          parked_time=cursor)


def _travel_rows(index: LayoutIndex, timing: TimingConfig, req: PlanRequest):
    """Builder of the pending mask -> per-cell travel-plus-stops row."""
    tours = req.tours
    stop_cost = req.gate_duration + 2 * timing.t_displace
    t_shuttle = timing.t_shuttle
    xs, ys = index.xs, index.ys

    def row(pending: int) -> list[int]:
        dist = tours.min_distances(xs, ys, pending)
        return (dist * t_shuttle + pending.bit_count() * stop_cost).tolist()
    return row


def plan_route(layout: ChipLayout, table: ReservationTable,
               timing: TimingConfig, request: PlanRequest) -> PlanResult:
    """Search a time-optimal route for one ancilla; raises PlanFailure."""
    began = perf_counter()
    result = _Search(layout, timing, request).run(table)
    result.stats.seconds = perf_counter() - began
    return result


def route_successors(layout: ChipLayout, table: ReservationTable,
                     timing: TimingConfig, request: PlanRequest,
                     state: SearchState, g: int):
    """Successor states with earliest arrivals, exposed for inspection."""
    search = _Search(layout, timing, request)
    comps = search.index.comps
    start = (search.index.id(state.comp), state.interval, state.mask)
    _, g_best, parents, _ = search.search(table, start, g, expand_only=True)
    return [(SearchState(comps[nxt[0]], nxt[1], nxt[2]), g_best[nxt])
            for nxt in parents]


def route_heuristic(layout: ChipLayout, timing: TimingConfig,
                    request: PlanRequest, state: SearchState) -> int:
    """Admissible remaining-cost estimate for a search state; it reads no
    reservations, so it is the same under every reservation table."""
    search = _Search(layout, timing, request)
    return search.heuristic(search.index.id(state.comp), state.mask)
