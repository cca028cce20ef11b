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
unordered targets). The heuristic is therefore admissible and the returned
route is time-optimal for the reservations it was planned against.

Safe intervals are read as parallel tuples of starts and ends from
``ReservationTable.safe_bounds``, which the table caches per component until
its next reserve or release there. Successor generation skips intervals by
bisection. No move from time g arrives before g + t (t the shuttle or
displace duration), so every destination interval ending at or before that
arrival is dead, and so is every channel interval ending before
g + t_shuttle. Departures only grow with the destination interval's start,
so the destination scan stops once the earliest departure passes the end of
the current interval. Intervals skipped this way yield nothing, so the
successors and their order are those of a scan from index 0.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

from .chip import (Cell, ChipLayout, ComponentId, Kind, TimingConfig,
                   channel_id, interaction_id, intersection_id, readout_id)
from .intervals import ReservationTable
from .tsp import OpenPathTable

_LAYER_BUILDERS = (intersection_id, interaction_id, readout_id)


class PlanFailure(RuntimeError):
    """No collision-free route exists under the given reservations."""


class SearchState(NamedTuple):
    """Search key; tuple order makes heap tie-breaks deterministic."""

    comp: ComponentId
    interval: int
    mask: int  # bit j set once target j has been gated


@dataclass(frozen=True)
class PathStep:
    kind: str  # SHUTTLE | DISPLACE | GATE | WAIT
    start: int
    duration: int
    comp: ComponentId            # channel / source layer / zone / wait spot
    dest: Optional[ComponentId] = None  # displace destination layer
    target: Optional[int] = None        # gated target index into task.targets

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass
class PlanRequest:
    start_cell: Cell
    start_kind: Kind
    start_time: int
    targets: list[Cell]          # task target cells, canonical order
    ordered: bool
    gate_duration: int           # t_cx, or t_cx + 2 t_h under tailoring
    terminal_pad: int            # readout time needed after parking
    # earliest allowed gate start per target cell; used to keep every data
    # qubit's X-check gates ahead of its Z-check gates within a round, the
    # interleaving rule that keeps detectors deterministic
    gate_windows: dict[Cell, int] = None

    def __post_init__(self):
        if self.gate_windows is None:
            self.gate_windows = {}


@dataclass
class PlanStats:
    """Search effort of one route; heuristic calls = pushes + 1 (the start)."""

    pops: int = 0            # heap pops, stale ones included
    pushes: int = 0
    stale_pops: int = 0      # pops superseded by an earlier arrival
    h_cache_hits: int = 0
    h_cache_misses: int = 0  # heuristic evaluations actually computed


@dataclass
class PlanResult:
    steps: list[PathStep]
    parked: ComponentId          # terminal readout
    parked_time: int             # g at the goal (terminal pad not included)
    start_comp: ComponentId
    stats: PlanStats = field(default_factory=PlanStats)


class _Memo(dict):
    """A dict that fills a missing key with ``build(key)``."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Search:
    def __init__(self, layout: ChipLayout, table: ReservationTable,
                 timing: TimingConfig, req: PlanRequest):
        self.table = table
        self.timing = timing
        self.req = req
        self.full = (1 << len(req.targets)) - 1
        self.cell_of = {cell: j for j, cell in enumerate(req.targets)}
        if len(self.cell_of) != len(req.targets):
            raise ValueError("duplicate target cells in one task")
        # per-search memos, read by subscript in the hot loop (cheaper than a
        # method call); their builders must not hold self, or each search
        # would linger in a reference cycle until the next collection
        self.bounds = _Memo(table.safe_bounds)
        self.moves = _Memo(partial(_cell_moves, layout))
        self._tours = OpenPathTable(req.targets, req.ordered)

    # -- successor generation ------------------------------------------------

    def successors(self, state: tuple, g: int):
        """Yield (state, arrival, action) for all reachable transitions."""
        comp, interval, mask = state
        t_shuttle = self.timing.t_shuttle
        t_displace = self.timing.t_displace
        bounds = self.bounds
        hi = bounds[comp][1][interval]
        cell, links, layers = self.moves[comp]

        arr_min = g + t_shuttle
        for ch, dest in links:
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
                    yield (dest, dj, mask), arr, ("shuttle", ch, dep)
                    break

        arr_min = g + t_displace
        for dest in layers:
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
                yield (dest, dj, mask), arr, ("displace", comp, dest, dep)

        if comp[0] == "interaction":
            j = self._gate_target(cell, mask)
            if j is not None:
                start = max(g, self.req.gate_windows.get(cell, 0))
                done = start + self.req.gate_duration
                if done <= hi:
                    yield ((comp, interval, mask | (1 << j)), done,
                           ("gate", comp, start, j))

    def _gate_target(self, cell: Cell, mask: int) -> Optional[int]:
        """Target index gateable at cell under mask, or None."""
        j = self.cell_of.get(cell)
        if j is None or mask & (1 << j):
            return None
        if self.req.ordered and j != bin(mask).count("1"):
            return None
        return j

    # -- heuristic -----------------------------------------------------------

    def heuristic(self, comp: ComponentId, mask: int) -> int:
        t = self.timing
        kind = comp[0]
        pending = self.full & ~mask
        if pending == 0:
            return 0 if kind == "readout" else t.t_displace
        cell = (comp[1], comp[2])
        stop_cost = self.req.gate_duration + 2 * t.t_displace
        cost = 0
        j = self._gate_target(cell, mask)
        if kind == "interaction" and j is not None:
            cost += self.req.gate_duration + t.t_displace
            pending &= ~(1 << j)
            if pending == 0:
                return cost
        elif kind == "readout" and j is None:
            cost += t.t_displace
        cost += self._tours.min_distance(cell, pending) * t.t_shuttle
        cost += bin(pending).count("1") * stop_cost
        return cost

    # -- A* ------------------------------------------------------------------

    def run(self) -> PlanResult:
        req = self.req
        builder = {Kind.INTERSECTION: intersection_id,
                   Kind.INTERACTION: interaction_id,
                   Kind.READOUT: readout_id}[req.start_kind]
        start_comp = builder(req.start_cell)
        start_si = self.table.interval_containing(start_comp, req.start_time)
        if start_si is None:
            raise PlanFailure(f"start {start_comp} occupied at t={req.start_time}")
        start = (start_comp, start_si.index, 0)

        full = self.full
        pad = req.terminal_pad
        bounds = self.bounds
        successors = self.successors
        heuristic = self.heuristic
        h_cache: dict[tuple[ComponentId, int], int] = {}
        heappush, heappop = heapq.heappush, heapq.heappop
        g_best: dict[tuple, int] = {start: req.start_time}
        parents: dict[tuple, tuple[tuple, tuple]] = {}
        h0 = h_cache[start_comp, 0] = heuristic(start_comp, 0)
        open_heap: list[tuple] = [(req.start_time + h0, h0, start)]
        pops = pushes = stale = 0
        while open_heap:
            f, h, state = heappop(open_heap)
            pops += 1
            g = g_best[state]
            if f - h != g:
                stale += 1
                continue  # stale entry, a cheaper arrival was queued later
            comp, interval, mask = state
            if (mask == full and comp[0] == "readout"
                    and g + pad <= bounds[comp][1][interval]):
                result = self._extract(state, parents, g_best)
                misses = len(h_cache)
                result.stats = PlanStats(
                    pops=pops, pushes=pushes, stale_pops=stale,
                    h_cache_hits=pushes + 1 - misses, h_cache_misses=misses)
                return result
            for nxt, arr, action in successors(state, g):
                if arr < g_best.get(nxt, _INFINITE):
                    g_best[nxt] = arr
                    parents[nxt] = (state, action)
                    key = (nxt[0], nxt[2])
                    nh = h_cache.get(key)
                    if nh is None:
                        nh = h_cache[key] = heuristic(*key)
                    heappush(open_heap, (arr + nh, nh, nxt))
                    pushes += 1
        raise PlanFailure(
            f"no route from {start_comp} over {len(req.targets)} targets")

    def _extract(self, goal: tuple, parents, g_best) -> PlanResult:
        t = self.timing
        chain = []
        state = goal
        while state in parents:
            prev, action = parents[state]
            chain.append((action, g_best[state]))
            state = prev
        chain.reverse()

        steps: list[PathStep] = []
        rest_comp = state[0]  # where the ancilla is resting between actions
        cursor = self.req.start_time
        for action, arrival in chain:
            if action[0] == "shuttle":
                _, ch, dep = action
                if dep > cursor:
                    steps.append(PathStep("WAIT", cursor, dep - cursor, rest_comp))
                steps.append(PathStep("SHUTTLE", dep, t.t_shuttle, ch))
                dest_cell = _other_end(ch, (rest_comp[1], rest_comp[2]))
                rest_comp = intersection_id(dest_cell)
            elif action[0] == "displace":
                _, src, dst, dep = action
                if dep > cursor:
                    steps.append(PathStep("WAIT", cursor, dep - cursor, rest_comp))
                steps.append(PathStep("DISPLACE", dep, t.t_displace, src, dest=dst))
                rest_comp = dst
            else:
                _, comp, start, j = action
                if start > cursor:
                    steps.append(PathStep("WAIT", cursor, start - cursor, rest_comp))
                steps.append(PathStep("GATE", start, self.req.gate_duration,
                                      comp, target=j))
            cursor = arrival
        return PlanResult(steps=steps, parked=goal[0], parked_time=cursor,
                          start_comp=state[0])


_INFINITE = float("inf")


def _cell_moves(layout: ChipLayout, comp: ComponentId) -> tuple:
    """(cell, (channel, neighbour intersection) pairs, other layers)."""
    cell = (comp[1], comp[2])
    links = ()
    if comp[0] == "intersection":
        links = tuple((channel_id(cell, nb), intersection_id(nb))
                      for nb in layout.neighbors(cell))
    layers = tuple(dest for dest in (b(cell) for b in _LAYER_BUILDERS)
                   if dest != comp)
    return cell, links, layers


def _other_end(channel: ComponentId, cell: Cell) -> Cell:
    a = (channel[1], channel[2])
    b = (channel[3], channel[4])
    if cell == a:
        return b
    if cell == b:
        return a
    raise ValueError(f"{cell} is not an endpoint of {channel}")


def plan_route(layout: ChipLayout, table: ReservationTable,
               timing: TimingConfig, request: PlanRequest) -> PlanResult:
    """Search a time-optimal route for one ancilla; raises PlanFailure."""
    return _Search(layout, table, timing, request).run()


def route_successors(layout: ChipLayout, table: ReservationTable,
                     timing: TimingConfig, request: PlanRequest,
                     state: SearchState, g: int):
    """Successor states with earliest arrivals, exposed for inspection."""
    search = _Search(layout, table, timing, request)
    return [(SearchState(*nxt), arr)
            for nxt, arr, _ in search.successors(state, g)]


def route_heuristic(layout: ChipLayout, table: ReservationTable,
                    timing: TimingConfig, request: PlanRequest,
                    state: SearchState) -> int:
    """Admissible remaining-cost estimate for a search state."""
    search = _Search(layout, table, timing, request)
    return search.heuristic(state.comp, state.mask)
