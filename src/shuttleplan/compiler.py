"""Full syndrome-extraction scheduling for one CSS code on one chip.

Ancillae are planned one at a time in a configurable priority order; each
committed route becomes a reservation the remaining searches must avoid.
Unplanned ancillae block their home readout for all time so nobody routes
through a qubit that has not moved yet; the block is released the moment
that ancilla is planned.

A schedule stores round 0 only: one list of the planner's ``Event`` records
per ancilla, keyed by the ancilla, with a route's WAIT, SHUTTLE and DISPLACE
events as they are and each GATE as a CX (an H-CX-H sandwich on a tailored
Z ancilla). Round r is that stored round shifted by r times the round
makespan M, which stays collision-free because every occupancy of round r
lies inside [r*M, (r+1)*M). Each writer lowers the stored round once: the
text form names each stored event once and prints its row at t + r*M in
every round, the JSON form writes the stored round alone with the round
count and M, and the emitter builds each stored event's instructions once
and places the same objects at t + r*M. No shifted ``Event`` is built.

Where an ancilla rests is decided by `ancilla_occupancy` alone, for both
planning and validation; its docstring states the residency model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .chip import (CHANNEL, INTERACTION, READOUT, Cell,
                   ChipLayout, ComponentId, TimingConfig, build_grid,
                   component_cell, intersection_id, is_component_id,
                   readout_id)
from .css import CheckTask, CssCode, DataLayout, tasks_from_code
from .intervals import INF, ReservationTable
from .planner import (Event, PlanFailure, PlanRequest, PlanResult,
                      SearchState, plan_route, route_heuristic)
from .tsp import OpenPathTable

ORDER_POLICIES = ("longest", "index", "random")


class CompileError(RuntimeError):
    """The code, layout or options cannot be scheduled on the chip."""


@dataclass
class Schedule:
    # ancilla -> time-ordered events of round 0; round r's are these at
    # t + r * round_makespan
    events: dict[int, list[Event]]
    tasks: list[CheckTask]
    data_cells: dict[int, Cell]     # chip coordinates (margin applied)
    homes: dict[int, Cell]
    timing: TimingConfig
    tailored: bool
    ordered: bool                   # every check visits its targets in order
    rounds: int
    round_makespan: int
    provenance: dict = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        return self.rounds * self.round_makespan

    # -- serialization -------------------------------------------------------

    def header_lines(self) -> list[str]:
        lines = ["shuttleplan schedule v1"]
        for key in sorted(self.provenance):
            lines.append(f"{key} = {self.provenance[key]}")
        lines.append(f"rounds = {self.rounds}")
        lines.append(f"round_makespan_ns = {self.round_makespan}")
        lines.append(f"makespan_ns = {self.makespan}")
        return lines

    def _round_rows(self) -> list[tuple[int, int, Event, str, Optional[str]]]:
        """(time, ancilla, event, comp text, dest text or None) for every
        event of the stored round, ordered by time, ancilla and kind; each
        event is named once, from its own component objects."""
        rows = [(ev.t, a, ev, comp_str(ev.comp),
                 None if ev.dest is None else comp_str(ev.dest))
                for a, evs in self.events.items() for ev in evs]
        rows.sort(key=lambda row: (row[0], row[1], row[2].kind))
        return rows

    def _rows(self) -> Iterator[tuple[int, int, Event, str, Optional[str]]]:
        """`_round_rows` for every round, in time order: round r repeats
        the stored round's rows at their time plus r * round_makespan.
        Round after round is in time order because every stored event lies
        in [0, round_makespan), which ``validate_schedule`` checks."""
        pattern = self._round_rows()
        for r in range(self.rounds):
            offset = r * self.round_makespan
            for t, a, ev, comp, dest in pattern:
                yield t + offset, a, ev, comp, dest

    def to_text(self) -> str:
        def lines() -> Iterator[str]:
            for line in self.header_lines():
                yield f"# {line}"
            for t, a, ev, comp, dest in self._rows():
                if dest is not None:
                    comp = f"{comp}>{dest}"
                line = f"a{a} {ev.kind} {t} {ev.duration} {comp}"
                if ev.partner is not None:
                    line = f"{line} d{ev.partner}"
                yield line

        return join_lines(lines())

    def to_json(self) -> str:
        """The schedule as JSON: format, provenance, ``rounds``,
        ``round_makespan_ns``, ``makespan_ns`` and ``events``, the stored
        round's events as `to_text` prints round 0, one object each. Round
        r is those events shifted by r * round_makespan_ns, so the JSON does
        not grow with the round count."""
        events = [{"qubit": f"a{a}", "kind": ev.kind, "t": t,
                   "duration": ev.duration, "comp": comp, "dest": dest,
                   "partner": ev.partner}
                  for t, a, ev, comp, dest in self._round_rows()]
        doc = {
            "format": "shuttleplan schedule v1",
            "provenance": self.provenance,
            "rounds": self.rounds,
            "round_makespan_ns": self.round_makespan,
            "makespan_ns": self.makespan,
            "events": events,
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# lines a text writer holds at a time
TEXT_CHUNK = 256


def join_lines(lines: Iterable[str]) -> str:
    """The lines, each ended by a newline, as one string ("\n" for no
    lines). They are joined TEXT_CHUNK at a time, so only one chunk's line
    objects are alive besides the joined chunks."""
    lines = iter(lines)
    chunks = []
    while batch := list(islice(lines, TEXT_CHUNK)):
        batch.append("")  # ends the chunk's last line
        chunks.append("\n".join(batch))
    return "".join(chunks) or "\n"


def comp_str(comp: ComponentId) -> str:
    if comp[0] == CHANNEL:
        return f"channel:{comp[1]},{comp[2]}-{comp[3]},{comp[4]}"
    return f"{comp[0]}:{comp[1]},{comp[2]}"


# ---------------------------------------------------------------------------
# home assignment and planning order


def assign_homes(tasks: list[CheckTask], chip: ChipLayout,
                 data_cells: dict[int, Cell]) -> dict[int, Cell]:
    """Distinct home cells, greedily nearest each task's target centroid."""
    cells = list(chip.cells())
    if len(tasks) > len(cells):
        raise CompileError(
            f"{len(tasks)} ancillae need homes but the chip has {len(cells)} cells")
    taken: set[Cell] = set()
    homes: dict[int, Cell] = {}
    for task in sorted(tasks, key=lambda t: t.ancilla):
        pts = [data_cells[i] for i in task.targets]
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        best = min((c for c in cells if c not in taken),
                   key=lambda c: ((c[0] - cx) ** 2 + (c[1] - cy) ** 2, c))
        homes[task.ancilla] = best
        taken.add(best)
    return homes


def planning_order(ids: list[int], bound: Callable[[int], int],
                   policy: str, rng) -> list[int]:
    """The ids in planning order under one of ``ORDER_POLICIES``, which
    ``schedule_round`` checks before it plans anything. ``bound`` gives an
    id's route bound; only ``longest`` calls it, once per id."""
    ids = sorted(ids)
    if policy == "longest":
        ids.sort(key=lambda a: (-bound(a), a))
    elif policy == "random":
        rng.shuffle(ids)
    return ids


# ---------------------------------------------------------------------------
# per-ancilla circuit shape


def _sandwiched(task: CheckTask, tailored: bool) -> bool:
    """Whether every CX of the ancilla sits between two H gates."""
    return task.basis == "Z" and tailored


def _flanked(task: CheckTask, tailored: bool) -> bool:
    """Whether the ancilla circuit opens and closes with an H at the readout."""
    return task.basis == "X" or _sandwiched(task, tailored)


def _gate_duration(task: CheckTask, timing: TimingConfig, tailored: bool) -> int:
    if _sandwiched(task, tailored):
        return timing.t_cx + 2 * timing.t_h
    return timing.t_cx


def build_request(task: CheckTask, home: Cell, data_cells: dict[int, Cell],
                  timing: TimingConfig, tailored: bool, ordered: bool,
                  gate_windows: Optional[dict[Cell, int]] = None) -> PlanRequest:
    start_time = timing.t_init + (timing.t_h if _flanked(task, tailored) else 0)
    pad = timing.t_meas + (timing.t_h if _flanked(task, tailored) else 0)
    return PlanRequest(
        start_cell=home, start_time=start_time,
        tours=OpenPathTable([data_cells[i] for i in task.targets], ordered),
        gate_duration=_gate_duration(task, timing, tailored), terminal_pad=pad,
        gate_windows=gate_windows or {})


def _events_for(task: CheckTask, home: Cell, result: PlanResult,
                timing: TimingConfig, tailored: bool) -> list[Event]:
    flank = _flanked(task, tailored)
    sandwich = _sandwiched(task, tailored)
    home_ro = readout_id(home)
    events = [Event("INIT", 0, timing.t_init, home_ro)]
    cursor = timing.t_init
    if flank:
        events.append(Event("H", cursor, timing.t_h, home_ro))
        cursor += timing.t_h
    for step in result.steps:
        if step.kind != "GATE":  # WAIT, SHUTTLE or DISPLACE
            events.append(step)
            continue
        t, zone = step.t, step.comp
        data = task.targets[step.partner]
        if sandwich:
            events.append(Event("H", t, timing.t_h, zone))
            t += timing.t_h
        events.append(Event("CX", t, timing.t_cx, zone, partner=data))
        if sandwich:
            events.append(Event("H", t + timing.t_cx, timing.t_h, zone))
    cursor = result.parked_time
    if flank:
        events.append(Event("H", cursor, timing.t_h, result.parked))
        cursor += timing.t_h
    events.append(Event("MEASURE", cursor, timing.t_meas, result.parked))
    return events


def ancilla_occupancy(events: list[Event]
                      ) -> tuple[list[tuple[ComponentId, int, float]],
                                 list[str]]:
    """The residency model: where one ancilla rests, event by event.

    The ancilla starts where its first event acts. A SHUTTLE carries it
    between the intersections at the two ends of its channel, a DISPLACE
    from ``comp`` to ``dest``; every other event acts where it rests. It
    holds a resting component from arrival until departure, a channel for
    the traversal and both layers for a displace's duration.

    Returns ``(spans, faults)``: the occupancies in event order, each a
    ``(component, start, end)`` with start < end, and one message per event
    that does not act where the ancilla rests (a SHUTTLE off a channel
    among them) or starts before the previous one ends. After a fault the
    ancilla stays where it was; the empty spans of overlapping events are
    skipped.
    """
    spans: list[tuple[ComponentId, int, float]] = []
    faults: list[str] = []

    def hold(comp: ComponentId, start: int, end: int) -> None:
        if start < end:
            spans.append((comp, start, end))

    here, since, cursor = events[0].comp, events[0].t, events[0].t
    for ev in events:
        if ev.t < cursor:
            faults.append(f"{ev.kind} at {ev.t} overlaps previous event")
        cursor = max(cursor, ev.end)
        if ev.kind == "SHUTTLE":
            if ev.comp[0] != CHANNEL:
                faults.append(f"SHUTTLE on {comp_str(ev.comp)}, which is not "
                              f"a channel")
                continue
            ends = (intersection_id(ev.comp[1:3]),
                    intersection_id(ev.comp[3:5]))
            if here not in ends:
                faults.append(f"shuttle on {comp_str(ev.comp)} does not leave "
                              f"{comp_str(here)}")
                continue
            hold(here, since, ev.t)
            hold(ev.comp, ev.t, ev.end)
            here = ends[1] if here == ends[0] else ends[0]
            since = ev.end
        elif ev.comp != here:
            faults.append(f"{ev.kind} at {comp_str(ev.comp)} but ancilla "
                          f"rests at {comp_str(here)}")
        elif ev.kind == "DISPLACE" and ev.dest is not None:
            hold(here, since, ev.end)
            here, since = ev.dest, ev.t
    hold(here, since, events[-1].end)
    return spans, faults


# ---------------------------------------------------------------------------
# compilation


def place_on_chip(data_layout: DataLayout, margin: int) -> tuple[ChipLayout, dict[int, Cell]]:
    """Chip sized to the data bounding box plus margin; shifted placement."""
    if type(margin) is not int or margin < 0:
        raise CompileError(f"margin must be an int >= 0, got {margin!r}")
    xs = [c[0] for c in data_layout.values()]
    ys = [c[1] for c in data_layout.values()]
    dx, dy = margin - min(xs), margin - min(ys)
    width = max(xs) - min(xs) + 1 + 2 * margin
    height = max(ys) - min(ys) + 1 + 2 * margin
    chip = build_grid(width, height)
    return chip, {i: (c[0] + dx, c[1] + dy) for i, c in data_layout.items()}


def _shared_cells(data_cells: dict[int, Cell]) -> list[str]:
    """One message per data qubit placed on a cell a lower one holds."""
    holder: dict[Cell, int] = {}
    return [f"d{i} and d{holder[cell]} share cell {cell}"
            for i, cell in sorted(data_cells.items())
            if holder.setdefault(cell, i) != i]


def schedule_round(code: CssCode, data_layout: DataLayout,
                   timing: TimingConfig, *, margin: int = 1,
                   order_policy: str = "longest", tailored: bool = True,
                   seed: int = 0) -> Schedule:
    """Plan one syndrome-extraction round for every check of the code.

    A data layout cell must be a tuple of two ints and the margin an int
    >= 0; anything else raises CompileError.

    Planning runs in two phases, all X checks before all Z checks, and each
    Z ancilla may gate a data qubit only after that qubit's last X-check
    gate. Every data qubit therefore sees its X CNOTs strictly before its Z
    CNOTs, which keeps every overlapping X/Z check pair's shared-qubit
    crossing count even; an odd crossing leaks an ancilla Pauli into the
    other check's measured operator and randomizes its outcome. Within each
    phase the configured priority order applies.
    """
    import random as _random

    if order_policy not in ORDER_POLICIES:
        raise CompileError(f"order policy must be one of {ORDER_POLICIES}, "
                           f"got {order_policy!r}")
    tasks = tasks_from_code(code, data_layout)
    if not tasks:
        raise CompileError(f"code {code.name} has no checks to schedule")
    extra = sorted(set(data_layout) - set(range(code.n)), key=str)
    if extra:
        raise CompileError(f"data layout places qubits {extra} outside "
                           f"0..{code.n - 1}")
    for i, cell in sorted(data_layout.items()):
        if not (type(cell) is tuple and len(cell) == 2
                and all([type(v) is int for v in cell])):
            raise CompileError(f"data layout places d{i} at {cell!r}, which "
                               f"is not a pair of ints")
    shared = _shared_cells(data_layout)
    if shared:
        raise CompileError(f"data layout: {shared[0]}")
    chip, data_cells = place_on_chip(data_layout, margin)
    homes = assign_homes(tasks, chip, data_cells)
    rng = _random.Random(seed)

    table = ReservationTable()
    for task in tasks:
        table.reserve(readout_id(homes[task.ancilla]), 0, INF)

    events: dict[int, list[Event]] = {}
    order: list[int] = []
    gate_windows: dict[Cell, int] = {}
    for basis in ("X", "Z"):
        ids = [t.ancilla for t in tasks if t.basis == basis]
        windows = gate_windows if basis == "Z" else None
        requests = {a: build_request(tasks[a], homes[a], data_cells, timing,
                                     tailored, code.ordered, windows)
                    for a in ids}

        def bound(a: int) -> int:
            return route_heuristic(chip, timing, requests[a], SearchState(
                readout_id(homes[a]), 0, 0))

        for aid in planning_order(ids, bound, order_policy, rng):
            order.append(aid)
            table.release(readout_id(homes[aid]), 0, INF)
            try:
                result = plan_route(chip, table, timing, requests[aid])
            except PlanFailure as exc:
                raise CompileError(f"ancilla a{aid}: {exc}") from exc
            evs = _events_for(tasks[aid], homes[aid], result, timing, tailored)
            for span in ancilla_occupancy(evs)[0]:
                table.reserve(*span)
            events[aid] = evs
            if basis == "X":
                for ev in evs:
                    if ev.kind == "CX":
                        cell = data_cells[ev.partner]
                        gate_windows[cell] = max(gate_windows.get(cell, 0),
                                                 ev.end)

    makespan = max(ev.end for evs in events.values() for ev in evs)
    provenance = {
        "code": code.name, "params": code.params(),
        "chip": f"{chip.width}x{chip.height}", "margin": margin,
        "order_policy": order_policy, "seed": seed, "tailored": tailored,
        "ancilla_order": ",".join(f"a{a}" for a in order),
        "timing": ",".join(f"{k}={v}" for k, v in
                           sorted(vars(timing).items())),
    }
    return Schedule(events=events, tasks=tasks, data_cells=data_cells,
                    homes=homes, timing=timing, tailored=tailored,
                    ordered=code.ordered, rounds=1, round_makespan=makespan,
                    provenance=provenance)


def replicate_rounds(schedule: Schedule, rounds: int) -> Schedule:
    """Repeat the round back to back, one period per round: the stored
    round, shared with the input, under a new round count."""
    if type(rounds) is not int or rounds < 1:
        raise CompileError(f"rounds must be an int >= 1, got {rounds!r}")
    if schedule.rounds != 1:
        raise CompileError("replicate_rounds expects a single-round schedule")
    if rounds == 1:
        return schedule
    return replace(schedule, rounds=rounds)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def validate_schedule(schedule: Schedule) -> ValidationReport:
    """Independent sweep: round count, data placement, collisions,
    completion, order, contiguity, timing.

    The round count must be an int >= 1 and the round makespan M a positive
    int; a malformed one is reported, never raised on. Every check task
    needs events under its ancilla key, and every key of ``schedule.events``
    needs a task. Every stored event must lie in the round window [0, M);
    one outside it is reported.

    The stored round is checked once, and its reports name round 0. That is
    exact for every round. Round r is the stored round shifted by r * M,
    so every span of round r lies in [r * M, (r + 1) * M) and spans of
    different rounds never meet: no collision crosses a round boundary.
    Every other check reads one ancilla-round or one round's gates, and
    gives the same verdict on the shifted copy.
    """
    report = ValidationReport()
    period, rounds = schedule.round_makespan, schedule.rounds
    if type(rounds) is not int:
        report.add(f"round count {rounds!r} is not an int")
    elif rounds < 1:
        report.add(f"round count {rounds} is not positive")
    if type(period) is not int:
        report.add(f"round makespan {period!r} is not an int")
        return report
    if period <= 0:
        report.add(f"round makespan {period} is not positive")
        return report
    for message in _shared_cells(schedule.data_cells):
        report.add(message)
    # component -> (start, end, owner) of every span held there
    occupancies: dict[ComponentId, list[tuple[int, float, str]]] = {}
    # per data qubit: the end of its last X-check CX and the start of its
    # first Z-check CX
    last_x: dict[int, int] = {}
    first_z: dict[int, int] = {}

    # id() of every component object found well formed: is_component_id
    # runs once per object, and a malformed one is reported at every use
    # (by id, not value, since 1 == 1.0; the schedule holds the objects)
    well_formed: set[int] = set()

    def admit(comp) -> bool:
        if is_component_id(comp):
            well_formed.add(id(comp))
            return True
        return False

    for task in schedule.tasks:
        q = f"a{task.ancilla}"
        events = schedule.events.get(task.ancilla)
        if not events:
            report.add(f"{q}: no events")
            continue
        inside: list[Event] = []
        for ev in events:
            if not (0 <= ev.t < period and ev.end <= period):
                report.add(f"{q}: {ev.kind} [{ev.t},{ev.end}) lies outside "
                           f"the round windows")
                continue
            inside.append(ev)
            if ev.kind == "CX":
                if task.basis == "X":
                    last_x[ev.partner] = max(last_x.get(ev.partner, 0),
                                             ev.end)
                else:
                    first_z[ev.partner] = min(first_z.get(ev.partner, ev.t),
                                              ev.t)
        where = f"{q} round 0"
        # comp_str and every position check need well-formed ids
        ids = [(ev, ev.comp) for ev in inside]
        ids += [(ev, ev.dest) for ev in inside if ev.dest is not None]
        malformed = [(ev, comp) for ev, comp in ids
                     if id(comp) not in well_formed and not admit(comp)]
        for ev, comp in malformed:
            report.add(f"{where}: {ev.kind} at {ev.t} names malformed "
                       f"component {comp!r}")
        _check_round(report, schedule, task, inside, placed=not malformed)
        if not inside or malformed:
            continue
        spans, faults = ancilla_occupancy(inside)
        for fault in faults:
            report.add(f"{where}: {fault}")
        for comp, start, end in spans:
            occupancies.setdefault(comp, []).append((start, end, where))
    for aid in sorted(set(schedule.events)
                      - {task.ancilla for task in schedule.tasks}):
        report.add(f"a{aid}: events for an ancilla with no check task")

    for comp, spans in occupancies.items():
        spans.sort(key=itemgetter(0, 1))
        for (a0, a1, owner_a), (b0, b1, owner_b) in zip(spans, spans[1:]):
            if b0 < a1:  # sorted by start, so b starts inside a
                report.add(f"collision on {comp_str(comp)}: {owner_a} "
                           f"[{a0},{a1}) vs {owner_b} [{b0},{b1})")

    # Per data qubit, every X-check CX must precede every Z CX. A Z gate
    # landing between two X gates of an overlapping check (or vice versa)
    # injects the other ancilla's Pauli into the measured operator and makes
    # the outcome non-deterministic.
    for data, t_z in first_z.items():
        if t_z < last_x.get(data, 0):
            report.add(f"round 0: d{data} receives a Z-check CX at {t_z} "
                       f"before its last X-check CX ends at {last_x[data]}")
    return report


def _check_round(report: ValidationReport, schedule: Schedule, task: CheckTask,
                 events: list[Event], placed: bool) -> None:
    """One ancilla's own checks on the stored round; positions are read
    only if placed."""
    where = f"a{task.ancilla} round 0"
    timing = schedule.timing
    if not events:
        report.add(f"{where}: empty round")
        return
    if events[0].kind != "INIT" or events[-1].kind != "MEASURE":
        report.add(f"{where}: round must run INIT..MEASURE")
        return
    if events[0].t != 0:
        report.add(f"{where}: INIT at {events[0].t}, expected 0")

    gated: list[int] = []
    for ev in events:
        if ev.kind == "SHUTTLE":
            if ev.duration != timing.t_shuttle:
                report.add(f"{where}: shuttle duration {ev.duration}")
            # a SHUTTLE off a channel is reported by ancilla_occupancy
            if placed and ev.comp[0] == CHANNEL:
                _, x0, y0, x1, y1 = ev.comp
                if abs(x0 - x1) + abs(y0 - y1) != 1:
                    report.add(f"{where}: channel {comp_str(ev.comp)} spans "
                               f"more than one edge")
        elif ev.kind == "DISPLACE":
            if ev.duration != timing.t_displace:
                report.add(f"{where}: displace duration {ev.duration}")
            if ev.dest is None or placed and (
                    CHANNEL in (ev.comp[0], ev.dest[0])
                    or component_cell(ev.dest) != component_cell(ev.comp)):
                report.add(f"{where}: displace must stay within one cell")
        elif ev.kind == "CX":
            if placed and ev.comp[0] != INTERACTION:
                report.add(f"{where}: CX outside the interaction zone")
            elif ev.partner is None:
                report.add(f"{where}: CX without a data partner")
            else:
                cell = schedule.data_cells.get(ev.partner)
                if placed and cell != component_cell(ev.comp):
                    report.add(f"{where}: CX with d{ev.partner} at "
                               f"{cell}, ancilla at {component_cell(ev.comp)}")
                gated.append(ev.partner)
        elif ev.kind in ("INIT", "MEASURE"):
            if placed and ev.comp[0] != READOUT:
                report.add(f"{where}: {ev.kind} outside a readout zone")
        elif ev.kind not in ("H", "WAIT"):
            report.add(f"{where}: unknown event kind {ev.kind}")

    if sorted(gated) != sorted(task.targets):
        missing = set(task.targets) - set(gated)
        extra = set(gated) - set(task.targets)
        report.add(f"{where}: incomplete check, missing={sorted(missing)} "
                   f"extra={sorted(extra)}")
    elif schedule.ordered and gated != list(task.targets):
        report.add(f"{where}: CX order {gated} != required {list(task.targets)}")

    if schedule.tailored and task.basis == "Z":
        _check_tailoring(report, where, events)


def _check_tailoring(report: ValidationReport, where: str,
                     events: list[Event]) -> None:
    """Every movement period of a tailored Z ancilla is flanked by H gates.

    One pass: ``prev`` is the last non-movement kind seen and ``run`` the
    index of the first movement since it; the end of the events closes a
    run as a next kind of None. The first unflanked run is reported.
    """
    prev = run = None
    for i, kind in enumerate([*(ev.kind for ev in events), None]):
        if kind in _MOVES:
            if run is None:
                run = i
            continue
        if run is not None and (prev != "H" or kind != "H"):
            report.add(f"{where}: movement at index {run} not flanked by H "
                       f"(prev={prev}, next={kind})")
            return
        prev, run = kind, None


_MOVES = frozenset({"SHUTTLE", "DISPLACE", "WAIT"})
