"""Full syndrome-extraction scheduling for one CSS code on one chip.

Ancillae are planned one at a time in a configurable priority order; each
committed route becomes a reservation the remaining searches must avoid.
Unplanned ancillae block their home readout for all time so nobody routes
through a qubit that has not moved yet; the block is released the moment
that ancilla is planned.

The one-round schedule is replicated by pure time translation: round r is
round 0 shifted by r times the round makespan, which stays collision-free
because every occupancy of round r lies inside [r*M, (r+1)*M).

A schedule keeps one list of the planner's ``Event`` records per ancilla,
keyed by the ancilla: a route's WAIT, SHUTTLE and DISPLACE events as they
are, each GATE as a CX (an H-CX-H sandwich on a tailored Z ancilla).

Where an ancilla rests is decided by `ancilla_occupancy` alone, for both
planning and validation; its docstring states the residency model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

from .chip import (CHANNEL, INTERACTION, READOUT, Cell,
                   ChipLayout, ComponentId, TimingConfig, build_grid,
                   component_cell, intersection_id, is_component_id,
                   readout_id)
from .css import CheckTask, CssCode, DataLayout, tasks_from_code
from .intervals import INF, ReservationTable, TimeInterval
from .planner import (Event, PlanFailure, PlanRequest, PlanResult,
                      SearchState, plan_route, route_heuristic)

ORDER_POLICIES = ("longest", "index", "random")


class CompileError(RuntimeError):
    """The code, layout or options cannot be scheduled on the chip."""


@dataclass
class Schedule:
    events: dict[int, list[Event]]  # ancilla -> time-ordered events
    tasks: list[CheckTask]
    data_cells: dict[int, Cell]     # chip coordinates (margin applied)
    homes: dict[int, Cell]
    timing: TimingConfig
    tailored: bool
    rounds: int
    round_makespan: int
    provenance: dict = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        return self.rounds * self.round_makespan

    def all_events(self) -> list[tuple[int, Event]]:
        """(ancilla, event) pairs ordered by time, ancilla and kind."""
        merged = [(a, ev) for a, evs in self.events.items() for ev in evs]
        merged.sort(key=lambda pair: (pair[1].t, pair[0], pair[1].kind))
        return merged

    # -- serialization -------------------------------------------------------

    def header_lines(self) -> list[str]:
        lines = ["shuttleplan schedule v1"]
        for key in sorted(self.provenance):
            lines.append(f"{key} = {self.provenance[key]}")
        lines.append(f"rounds = {self.rounds}")
        lines.append(f"round_makespan_ns = {self.round_makespan}")
        lines.append(f"makespan_ns = {self.makespan}")
        return lines

    def to_text(self) -> str:
        out = [f"# {line}" for line in self.header_lines()]
        for a, ev in self.all_events():
            comp = comp_str(ev.comp)
            if ev.dest is not None:
                comp = f"{comp}>{comp_str(ev.dest)}"
            fields = [f"a{a}", ev.kind, str(ev.t), str(ev.duration), comp]
            if ev.partner is not None:
                fields.append(f"d{ev.partner}")
            out.append(" ".join(fields))
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        events = []
        for a, ev in self.all_events():
            events.append({
                "qubit": f"a{a}", "kind": ev.kind, "t": ev.t,
                "duration": ev.duration, "comp": comp_str(ev.comp),
                "dest": comp_str(ev.dest) if ev.dest is not None else None,
                "partner": ev.partner,
            })
        doc = {
            "format": "shuttleplan schedule v1",
            "provenance": self.provenance,
            "rounds": self.rounds,
            "round_makespan_ns": self.round_makespan,
            "makespan_ns": self.makespan,
            "events": events,
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"


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


def planning_order(ids: list[int], bounds: dict[int, int],
                   policy: str, rng) -> list[int]:
    ids = sorted(ids)
    if policy == "index":
        return ids
    if policy == "longest":
        return sorted(ids, key=lambda a: (-bounds[a], a))
    if policy == "random":
        rng.shuffle(ids)
        return ids
    raise CompileError(f"unknown order policy {policy!r}")


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
                  timing: TimingConfig, tailored: bool,
                  gate_windows: Optional[dict[Cell, int]] = None) -> PlanRequest:
    start_time = timing.t_init + (timing.t_h if _flanked(task, tailored) else 0)
    pad = timing.t_meas + (timing.t_h if _flanked(task, tailored) else 0)
    return PlanRequest(
        start_cell=home, start_time=start_time,
        targets=[data_cells[i] for i in task.targets], ordered=task.ordered,
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
                      ) -> tuple[list[tuple[ComponentId, TimeInterval]],
                                 list[str]]:
    """The residency model: where one ancilla rests, event by event.

    The ancilla starts where its first event acts. A SHUTTLE carries it
    between the intersections at the two ends of its channel, a DISPLACE
    from ``comp`` to ``dest``; every other event acts where it rests. It
    holds a resting component from arrival until departure, a channel for
    the traversal and both layers for a displace's duration.

    Returns ``(spans, faults)``: the occupancies in event order, and one
    message per event that does not act where the ancilla rests (a SHUTTLE
    off a channel among them) or starts before the previous one ends.
    After a fault the ancilla stays where it was; the empty spans of
    overlapping events are skipped.
    """
    spans: list[tuple[ComponentId, TimeInterval]] = []
    faults: list[str] = []

    def hold(comp: ComponentId, start: int, end: int) -> None:
        if start < end:
            spans.append((comp, TimeInterval(start, end)))

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
    if margin < 0:
        raise CompileError("margin must be >= 0")
    xs = [c[0] for c in data_layout.values()]
    ys = [c[1] for c in data_layout.values()]
    dx, dy = margin - min(xs), margin - min(ys)
    width = max(xs) - min(xs) + 1 + 2 * margin
    height = max(ys) - min(ys) + 1 + 2 * margin
    chip = build_grid(width, height)
    return chip, {i: (c[0] + dx, c[1] + dy) for i, c in data_layout.items()}


def schedule_round(code: CssCode, data_layout: DataLayout,
                   timing: TimingConfig, *, margin: int = 1,
                   order_policy: str = "longest", tailored: bool = True,
                   seed: int = 0) -> Schedule:
    """Plan one syndrome-extraction round for every check of the code.

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
        raise CompileError(f"order policy must be one of {ORDER_POLICIES}")
    tasks = tasks_from_code(code, data_layout)
    chip, data_cells = place_on_chip(data_layout, margin)
    homes = assign_homes(tasks, chip, data_cells)
    rng = _random.Random(seed)

    table = ReservationTable()
    home_block = TimeInterval(0, INF)
    for task in tasks:
        table.reserve(readout_id(homes[task.ancilla]), home_block)

    events: dict[int, list[Event]] = {}
    order: list[int] = []
    gate_windows: dict[Cell, int] = {}
    for basis in ("X", "Z"):
        ids = [t.ancilla for t in tasks if t.basis == basis]
        windows = gate_windows if basis == "Z" else None
        requests = {a: build_request(tasks[a], homes[a], data_cells, timing,
                                     tailored, windows) for a in ids}
        bounds = {a: route_heuristic(chip, timing, requests[a], SearchState(
                      readout_id(homes[a]), 0, 0)) for a in ids}
        for aid in planning_order(ids, bounds, order_policy, rng):
            order.append(aid)
            table.release(readout_id(homes[aid]), home_block)
            try:
                result = plan_route(chip, table, timing, requests[aid])
            except PlanFailure as exc:
                raise CompileError(f"ancilla a{aid}: {exc}") from exc
            evs = _events_for(tasks[aid], homes[aid], result, timing, tailored)
            for comp, span in ancilla_occupancy(evs)[0]:
                table.reserve(comp, span)
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
                    rounds=1, round_makespan=makespan, provenance=provenance)


def replicate_rounds(schedule: Schedule, rounds: int) -> Schedule:
    """Repeat the round pattern back to back, one period per round."""
    if rounds < 1:
        raise CompileError("rounds must be >= 1")
    if schedule.rounds != 1:
        raise CompileError("replicate_rounds expects a single-round schedule")
    if rounds == 1:
        return schedule
    period = schedule.round_makespan
    events: dict[int, list[Event]] = {}
    for aid, evs in schedule.events.items():
        shifted = list(evs)  # events are frozen, so round 0 shares them
        for r in range(1, rounds):
            offset = r * period
            shifted.extend(Event(ev.kind, ev.t + offset, ev.duration, ev.comp,
                                 ev.dest, ev.partner) for ev in evs)
        events[aid] = shifted
    return replace(schedule, events=events, rounds=rounds)


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
    """Independent sweep: collisions, completion, order, contiguity, timing.

    Every check task needs events under its ancilla key, and every key of
    ``schedule.events`` needs a task. Event e belongs to round
    ``e.t // round_makespan`` and must end by the end of that round; an
    event outside every round window is reported.
    """
    report = ValidationReport()
    period, rounds = schedule.round_makespan, schedule.rounds
    if period <= 0:
        report.add(f"round makespan {period} is not positive")
        return report
    occupancies: dict[ComponentId, list[tuple[TimeInterval, str]]] = {}
    # per (round, data qubit): end of the last X-check CX, start of the first
    # Z-check CX
    last_x: dict[tuple[int, int], int] = {}
    first_z: dict[tuple[int, int], int] = {}

    for task in schedule.tasks:
        q = f"a{task.ancilla}"
        events = schedule.events.get(task.ancilla)
        if not events:
            report.add(f"{q}: no events")
            continue
        by_round: list[list[Event]] = [[] for _ in range(rounds)]
        for ev in events:
            rnd = ev.t // period
            if not (0 <= rnd < rounds and ev.end <= (rnd + 1) * period):
                report.add(f"{q}: {ev.kind} [{ev.t},{ev.end}) lies outside "
                           f"the round windows")
                continue
            by_round[rnd].append(ev)
            if ev.kind == "CX":
                key = (rnd, ev.partner)
                if task.basis == "X":
                    last_x[key] = max(last_x.get(key, 0), ev.end)
                else:
                    first_z[key] = min(first_z.get(key, ev.t), ev.t)
        for rnd, round_events in enumerate(by_round):
            where = f"{q} round {rnd}"
            # comp_str and every position check need well-formed ids
            ids = [(ev, ev.comp) for ev in round_events]
            ids += [(ev, ev.dest) for ev in round_events
                    if ev.dest is not None]
            malformed = [(ev, comp) for ev, comp in ids
                         if not is_component_id(comp)]
            for ev, comp in malformed:
                report.add(f"{where}: {ev.kind} at {ev.t} names malformed "
                           f"component {comp!r}")
            _check_round(report, schedule, task, round_events, rnd,
                         placed=not malformed)
            if not round_events or malformed:
                continue
            # occupancy built per round so residencies never span a round
            # boundary
            spans, faults = ancilla_occupancy(round_events)
            for fault in faults:
                report.add(f"{where}: {fault}")
            for comp, span in spans:
                occupancies.setdefault(comp, []).append((span, where))
    for aid in sorted(set(schedule.events)
                      - {task.ancilla for task in schedule.tasks}):
        report.add(f"a{aid}: events for an ancilla with no check task")

    for comp, spans in occupancies.items():
        spans.sort(key=lambda item: (item[0].start, item[0].end))
        for (a, owner_a), (b, owner_b) in zip(spans, spans[1:]):
            if a.overlaps(b):
                report.add(
                    f"collision on {comp_str(comp)}: {owner_a} "
                    f"[{a.start},{a.end}) vs {owner_b} [{b.start},{b.end})")

    # Per data qubit and round, every X-check CX must precede every Z CX. A Z
    # gate landing between two X gates of an overlapping check (or vice
    # versa) injects the other ancilla's Pauli into the measured operator and
    # makes the outcome non-deterministic.
    for (rnd, data), t_z in sorted(first_z.items(), key=lambda kv: kv[0][0]):
        if t_z < last_x.get((rnd, data), 0):
            report.add(f"round {rnd}: d{data} receives a Z-check CX at "
                       f"{t_z} before its last X-check CX ends at "
                       f"{last_x[rnd, data]}")
    return report


def _check_round(report: ValidationReport, schedule: Schedule, task: CheckTask,
                 events: list[Event], rnd: int, placed: bool) -> None:
    """One ancilla-round's own checks; positions are read only if placed."""
    where = f"a{task.ancilla} round {rnd}"
    t0 = rnd * schedule.round_makespan
    timing = schedule.timing
    if not events:
        report.add(f"{where}: empty round")
        return
    if events[0].kind != "INIT" or events[-1].kind != "MEASURE":
        report.add(f"{where}: round must run INIT..MEASURE")
        return
    if events[0].t != t0:
        report.add(f"{where}: INIT at {events[0].t}, expected {t0}")

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
    elif task.ordered and gated != list(task.targets):
        report.add(f"{where}: CX order {gated} != required {list(task.targets)}")

    if schedule.tailored and task.basis == "Z":
        _check_tailoring(report, where, events)


def _check_tailoring(report: ValidationReport, where: str,
                     events: list[Event]) -> None:
    """Every movement period of a tailored Z ancilla is flanked by H gates."""
    kinds = [ev.kind for ev in events]
    moves = {"SHUTTLE", "DISPLACE", "WAIT"}
    for i, kind in enumerate(kinds):
        if kind not in moves:
            continue
        prev = next((k for k in reversed(kinds[:i]) if k not in moves), None)
        nxt = next((k for k in kinds[i + 1:] if k not in moves), None)
        if prev not in ("H",) or nxt not in ("H",):
            report.add(f"{where}: movement at index {i} not flanked by H "
                       f"(prev={prev}, next={nxt})")
            return
