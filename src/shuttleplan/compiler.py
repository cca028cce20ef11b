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

`_template`, the one tailoring rule, alone states an ancilla's gates, for
the request, the events and the validator, and `ancilla_occupancy` alone
where it rests; their docstrings state the rule and the residency model.

`schedule_round` keeps its last plan, since a memory experiment compiles
one round for both bases and across noise sweeps. Planning is `_plan`,
which takes exactly the inputs it reads, as hashable values, and returns
immutable facts; its one `functools.lru_cache` entry is the only plan kept,
and every call builds fresh containers over the plan's frozen events.
Inputs equal by value share a plan, a translated layout or a renamed code
among them. A None seed draws the order from the system and is never kept.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate, islice
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
        return ["shuttleplan schedule v1",
                *(f"{key} = {self.provenance[key]}"
                  for key in sorted(self.provenance)),
                f"rounds = {self.rounds}",
                f"round_makespan_ns = {self.round_makespan}",
                f"makespan_ns = {self.makespan}"]

    def _round_rows(self) -> list[tuple[int, int, Event, str, Optional[str]]]:
        """(time, ancilla, event, comp text, dest text or None) for every
        event of the stored round, ordered by time, ancilla and kind; each
        event is named once, from its own component objects."""
        rows = [(ev.t, a, ev, comp_str(ev.comp),
                 None if ev.dest is None else comp_str(ev.dest))
                for a, evs in self.events.items() for ev in evs]
        rows.sort(key=lambda row: (row[0], row[1], row[2].kind))
        return rows

    def to_text(self) -> str:
        """The header, then one line per event of every round in time
        order. Each stored event's text either side of its time is built
        once, and round r's line adds r * round_makespan to the time. Round
        after round is in time order because every stored event lies in
        [0, round_makespan), which ``validate_schedule`` checks."""
        def lines() -> Iterator[str]:
            for line in self.header_lines():
                yield f"# {line}"
            rows = [(t, f"a{a} {ev.kind} ", f" {ev.duration} {comp}"
                     + ("" if dest is None else f">{dest}")
                     + ("" if ev.partner is None else f" d{ev.partner}"))
                    for t, a, ev, comp, dest in self._round_rows()]
            for r in range(self.rounds):
                offset = r * self.round_makespan
                for t, head, tail in rows:
                    yield f"{head}{t + offset}{tail}"

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


def _template(task: CheckTask, tailored: bool
              ) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The tailoring rule: an ancilla's gate kinds as ``(opening,
    per_target, closing)``, each group laid out back to back, at the home
    readout from 0, at each GATE's zone and at the parked readout. X checks
    change basis at the readout; tailored Z checks also wrap every CX in H
    gates, so dephasing while the ancilla moves stays off the data."""
    if task.basis == "X":
        return ("INIT", "H"), ("CX",), ("H", "MEASURE")
    if tailored:
        return ("INIT", "H"), ("H", "CX", "H"), ("H", "MEASURE")
    return ("INIT",), ("CX",), ("MEASURE",)


def build_request(task: CheckTask, home: Cell, data_cells: dict[int, Cell],
                  timing: TimingConfig, tailored: bool, ordered: bool,
                  gate_windows: Optional[dict[Cell, int]] = None) -> PlanRequest:
    opening, per_target, closing = (
        sum(getattr(timing, _DURATIONS[kind]) for kind in group)
        for group in _template(task, tailored))
    return PlanRequest(
        start_cell=home, start_time=opening,
        tours=OpenPathTable([data_cells[i] for i in task.targets], ordered),
        gate_duration=per_target, terminal_pad=closing,
        gate_windows=gate_windows or {})


def _group(kinds: tuple[str, ...], t: int, comp: ComponentId,
           timing: TimingConfig, partner: Optional[int] = None) -> list[Event]:
    """The kinds as events back to back from t at comp, a CX's with partner."""
    events = []
    for kind in kinds:
        duration = getattr(timing, _DURATIONS[kind])
        events.append(Event(kind, t, duration, comp,
                            partner=partner if kind == "CX" else None))
        t += duration
    return events


def _events_for(task: CheckTask, home: Cell, result: PlanResult,
                timing: TimingConfig, tailored: bool) -> list[Event]:
    opening, per_target, closing = _template(task, tailored)
    events = _group(opening, 0, readout_id(home), timing)
    for step in result.steps:
        if step.kind == "GATE":
            events += _group(per_target, step.t, step.comp, timing,
                             task.targets[step.partner])
        else:  # WAIT, SHUTTLE or DISPLACE
            events.append(step)
    events += _group(closing, result.parked_time, result.parked, timing)
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


@lru_cache(maxsize=1)
def _plan(checks: tuple[tuple[int, str, tuple[int, ...]], ...],
          grid: tuple[int, int], cells: tuple[tuple[int, Cell], ...],
          timing: TimingConfig, tailored: bool, ordered: bool,
          order_policy: str, seed: Optional[int]) -> tuple:
    """The plan from exactly the inputs planning reads: the checks as
    ``(ancilla, basis, targets)``, the grid's ``(width, height)`` and the
    placed data cells as items. Returns the homes as items, each ancilla's
    frozen events in planning order and the round makespan."""
    tasks = [CheckTask(a, basis, list(targets))
             for a, basis, targets in checks]
    chip, data_cells = build_grid(*grid), dict(cells)
    homes = assign_homes(tasks, chip, data_cells)
    rng = random.Random(seed)

    table = ReservationTable()
    for task in tasks:
        table.reserve(readout_id(homes[task.ancilla]), 0, INF)

    planned: list[tuple[int, tuple[Event, ...]]] = []
    gate_windows: dict[Cell, int] = {}
    for basis in ("X", "Z"):
        ids = [t.ancilla for t in tasks if t.basis == basis]
        windows = gate_windows if basis == "Z" else None
        requests = {a: build_request(tasks[a], homes[a], data_cells, timing,
                                     tailored, ordered, windows)
                    for a in ids}

        def bound(a: int) -> int:
            return route_heuristic(chip, timing, requests[a], SearchState(
                readout_id(homes[a]), 0, 0))

        for aid in planning_order(ids, bound, order_policy, rng):
            table.release(readout_id(homes[aid]), 0, INF)
            try:
                result = plan_route(chip, table, timing, requests[aid])
            except PlanFailure as exc:
                raise CompileError(f"ancilla a{aid}: {exc}") from exc
            evs = _events_for(tasks[aid], homes[aid], result, timing, tailored)
            for span in ancilla_occupancy(evs)[0]:
                table.reserve(*span)
            planned.append((aid, tuple(evs)))
            if basis == "X":
                for ev in evs:
                    if ev.kind == "CX":
                        cell = data_cells[ev.partner]
                        gate_windows[cell] = max(gate_windows.get(cell, 0),
                                                 ev.end)

    makespan = max(ev.end for _, evs in planned for ev in evs)
    return tuple(homes.items()), tuple(planned), makespan


def schedule_round(code: CssCode, data_layout: DataLayout,
                   timing: TimingConfig, *, margin: int = 1,
                   order_policy: str = "longest", tailored: bool = True,
                   seed: int = 0) -> Schedule:
    """Plan one syndrome-extraction round for every check of the code.

    The data layout must place exactly qubits 0..n-1, each on a tuple of two
    ints, the timing be a TimingConfig, the margin an int >= 0, tailored a
    bool and the seed None or an int (a bool is not one); anything else
    raises CompileError.

    Planning runs in two phases, all X checks before all Z checks, and each
    Z ancilla may gate a data qubit only after that qubit's last X-check
    gate. Every data qubit therefore sees its X CNOTs strictly before its Z
    CNOTs, which keeps every overlapping X/Z check pair's shared-qubit
    crossing count even; an odd crossing leaks an ancilla Pauli into the
    other check's measured operator and randomizes its outcome. Within each
    phase the configured priority order applies.

    A call whose planning inputs equal the last call's, by `_plan`'s own
    parameters, plans nothing: it builds its schedule from that plan.
    """
    if not isinstance(timing, TimingConfig):
        raise CompileError(f"timing must be a TimingConfig, got {timing!r}")
    if seed is not None and type(seed) is not int:
        raise CompileError(f"seed must be None or an int, got {seed!r}")
    if order_policy not in ORDER_POLICIES:
        raise CompileError(f"order policy must be one of {ORDER_POLICIES}, "
                           f"got {order_policy!r}")
    if type(tailored) is not bool:
        raise CompileError(f"tailored must be a bool, got {tailored!r}")
    tasks = tasks_from_code(code)
    if not tasks:
        raise CompileError(f"code {code.name} has no checks to schedule")
    extra = sorted(set(data_layout) - set(range(code.n)), key=str)
    if extra:
        raise CompileError(f"data layout places qubits {extra} outside "
                           f"0..{code.n - 1}")
    missing = [i for i in range(code.n) if i not in data_layout]
    if missing:
        raise CompileError(f"data qubit {missing[0]} missing from layout")
    for i, cell in sorted(data_layout.items()):
        if not (type(cell) is tuple and len(cell) == 2
                and all([type(v) is int for v in cell])):
            raise CompileError(f"data layout places d{i} at {cell!r}, which "
                               f"is not a pair of ints")
    shared = _shared_cells(data_layout)
    if shared:
        raise CompileError(f"data layout: {shared[0]}")
    chip, data_cells = place_on_chip(data_layout, margin)
    plan = _plan if seed is not None else _plan.__wrapped__
    homes, planned, makespan = plan(
        tuple((task.ancilla, task.basis, tuple(task.targets))
              for task in tasks),
        (chip.width, chip.height), tuple(data_cells.items()), timing,
        tailored, code.ordered, order_policy, seed)
    provenance = {
        "code": code.name, "params": code.params(),
        "chip": f"{chip.width}x{chip.height}", "margin": margin,
        "order_policy": order_policy, "seed": seed, "tailored": tailored,
        "ancilla_order": ",".join(f"a{a}" for a, _ in planned),
        "timing": ",".join(f"{k}={v}" for k, v in
                           sorted(vars(timing).items())),
    }
    return Schedule(events={a: list(evs) for a, evs in planned},
                    tasks=tasks, data_cells=data_cells, homes=dict(homes),
                    timing=timing, tailored=tailored, ordered=code.ordered,
                    rounds=1, round_makespan=makespan, provenance=provenance)


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
    completion, order, each round's gates against ``_template``,
    contiguity, timing, and the duration of every INIT, H, CX, MEASURE,
    SHUTTLE and DISPLACE (``_DURATIONS``; a WAIT may last any time).

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
    report.violations += _shared_cells(schedule.data_cells)
    # component -> (start, end, owner) of every span held there
    occupancies: dict[ComponentId, list[tuple[int, float, str]]] = {}
    # per data qubit, the int partner of a CX: the end of its last X-check
    # CX and the start of its first Z-check CX
    last_x: dict[int, int] = {}
    first_z: dict[int, int] = {}

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
            if ev.kind == "CX" and type(ev.partner) is int:
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
                     if not is_component_id(comp)]
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
        fixed = _DURATIONS.get(ev.kind)
        if fixed is not None and ev.duration != getattr(timing, fixed):
            report.add(f"{where}: {ev.kind.lower()} duration {ev.duration}")
        if ev.kind == "SHUTTLE":
            # a SHUTTLE off a channel is reported by ancilla_occupancy
            if placed and ev.comp[0] == CHANNEL:
                _, x0, y0, x1, y1 = ev.comp
                if abs(x0 - x1) + abs(y0 - y1) != 1:
                    report.add(f"{where}: channel {comp_str(ev.comp)} spans "
                               f"more than one edge")
        elif ev.kind == "DISPLACE":
            if ev.dest is None or placed and (
                    CHANNEL in (ev.comp[0], ev.dest[0])
                    or component_cell(ev.dest) != component_cell(ev.comp)):
                report.add(f"{where}: displace must stay within one cell")
        elif ev.kind == "CX":
            if placed and ev.comp[0] != INTERACTION:
                report.add(f"{where}: CX outside the interaction zone")
            elif ev.partner is None:
                report.add(f"{where}: CX without a data partner")
            elif type(ev.partner) is not int:
                report.add(f"{where}: CX partner {ev.partner!r} is not a "
                           f"data qubit index")
            else:
                cell = schedule.data_cells.get(ev.partner)
                if placed and cell != component_cell(ev.comp):
                    report.add(f"{where}: CX with d{ev.partner} at "
                               f"{cell}, ancilla at {component_cell(ev.comp)}")
                gated.append(ev.partner)
        elif ev.kind in ("INIT", "MEASURE"):
            if placed and ev.comp[0] != READOUT:
                report.add(f"{where}: {ev.kind} outside a readout zone")
        elif ev.kind not in _DURATIONS and ev.kind != "WAIT":
            report.add(f"{where}: unknown event kind {ev.kind}")

    if sorted(gated) != sorted(task.targets):
        missing = set(task.targets) - set(gated)
        extra = set(gated) - set(task.targets)
        report.add(f"{where}: incomplete check, missing={sorted(missing)} "
                   f"extra={sorted(extra)}")
    elif schedule.ordered and gated != list(task.targets):
        report.add(f"{where}: CX order {gated} != required {list(task.targets)}")

    # without its movements, the round runs the template's opening, one
    # group per target and the closing; no movement falls inside a group
    opening, per_target, closing = _template(task, schedule.tailored)
    groups = [opening, *[per_target] * len(task.targets), closing]
    expected = [kind for group in groups for kind in group]
    gates = [ev.kind for ev in events if ev.kind not in _MOVES]
    if gates != expected:
        report.add(f"{where}: gates {' '.join(gates)}, expected "
                   f"{' '.join(expected)}")
        return
    bounds = {0, *accumulate(map(len, groups))}
    done = 0
    for ev in events:
        if ev.kind not in _MOVES:
            done += 1
        elif done not in bounds:
            report.add(f"{where}: {ev.kind} at {ev.t} splits a gate group")


_MOVES = frozenset({"SHUTTLE", "DISPLACE", "WAIT"})
# timed event kind -> the TimingConfig field its duration must equal
_DURATIONS = {"INIT": "t_init", "H": "t_h", "CX": "t_cx", "MEASURE": "t_meas",
              "SHUTTLE": "t_shuttle", "DISPLACE": "t_displace"}
