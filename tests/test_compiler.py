import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import expand_rounds, sweep_rounds
from shuttleplan import tsp
from shuttleplan.chip import TimingConfig, build_grid, readout_id
from shuttleplan.compiler import (CompileError, Event, assign_homes,
                                  comp_str, replicate_rounds, schedule_round,
                                  validate_schedule)
from shuttleplan.css import (CheckTask, CssCode, load_css, parse_css,
                             surface_code)
from shuttleplan.css import default_layout

TIMING = TimingConfig()


def compile_surface(d=3, **kwargs):
    code, layout = surface_code(d)
    return code, schedule_round(code, layout, TIMING, **kwargs)


def test_assign_homes_centroid():
    tasks = [CheckTask(0, "Z", [0, 1, 2, 3])]
    chip = build_grid(4, 4)
    cells = {0: (1, 1), 1: (2, 1), 2: (1, 2), 3: (2, 2)}
    homes = assign_homes(tasks, chip, cells)
    assert homes[0] in {(1, 1), (2, 1), (1, 2), (2, 2)}


def test_assign_homes_tie_break_by_index():
    tasks = [CheckTask(0, "Z", [0, 1]), CheckTask(1, "Z", [0, 1])]
    chip = build_grid(3, 1)
    cells = {0: (0, 0), 1: (2, 0)}
    homes = assign_homes(tasks, chip, cells)
    assert homes[0] == (1, 0)          # nearest to the shared centroid
    assert homes[1] != homes[0]        # later index takes the next cell


def test_assign_homes_distinct_surface():
    code, layout = surface_code(3)
    from shuttleplan.compiler import place_on_chip
    from shuttleplan.css import tasks_from_code
    chip, cells = place_on_chip(layout, 1)
    tasks = tasks_from_code(code, layout)
    remapped = {i: cells[i] for i in cells}
    homes = assign_homes(tasks, chip, remapped)
    assert len(homes) == 8
    assert len(set(homes.values())) == 8


def test_assign_homes_insufficient_cells():
    tasks = [CheckTask(i, "Z", [0]) for i in range(3)]
    with pytest.raises(CompileError, match="homes"):
        assign_homes(tasks, build_grid(2, 1), {0: (0, 0)})


def test_surface_d3_schedule_valid():
    code, schedule = compile_surface(3)
    report = validate_schedule(schedule)
    assert report.ok, report.violations
    assert len(schedule.events) == 8
    edges = [sum(1 for ev in evs if ev.kind == "SHUTTLE")
             for evs in schedule.events.values()]
    assert sum(edges) / len(edges) <= 4.0


def test_surface_d3_tailoring_structure():
    _, schedule = compile_surface(3, tailored=True)
    for aid, events in schedule.events.items():
        task = schedule.tasks[aid]
        kinds = [ev.kind for ev in events]
        n_h = kinds.count("H")
        n_cx = kinds.count("CX")
        if task.basis == "Z":
            assert n_h == 2 * (n_cx + 1)
            for i, kind in enumerate(kinds):
                if kind == "CX":
                    assert kinds[i - 1] == "H" and kinds[i + 1] == "H"
        else:
            assert n_h == 2  # basis change only


def test_untailored_has_no_z_ancilla_h():
    _, schedule = compile_surface(3, tailored=False)
    for aid, events in schedule.events.items():
        task = schedule.tasks[aid]
        n_h = sum(1 for ev in events if ev.kind == "H")
        assert n_h == (2 if task.basis == "X" else 0)


def test_determinism_byte_identical():
    _, first = compile_surface(3, seed=5)
    _, second = compile_surface(3, seed=5)
    assert first.to_text() == second.to_text()
    assert first.to_json() == second.to_json()


def test_order_policies_differ_but_validate():
    code, layout = surface_code(3)
    for policy in ("longest", "index", "random"):
        schedule = schedule_round(code, layout, TIMING, order_policy=policy,
                                  seed=3)
        assert validate_schedule(schedule).ok
        assert schedule.provenance["order_policy"] == policy


def test_bb72_schedule(bb72_path):
    code = load_css(str(bb72_path))
    layout = default_layout(code, build_grid(9, 8))
    schedule = schedule_round(code, layout, TIMING)
    assert len(schedule.events) == 72
    report = validate_schedule(schedule)
    assert report.ok, report.violations[:5]


@pytest.mark.parametrize("which", ["surface_d3", "bb72"])
def test_one_travel_table_per_check(which, bb72_path, monkeypatch):
    """The ordering bound and the route search share each check's table."""
    if which == "bb72":
        code = load_css(str(bb72_path))
        layout = default_layout(code, build_grid(9, 8))
    else:
        code, layout = surface_code(3)
    builds = []
    init = tsp.OpenPathTable.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tsp.OpenPathTable, "__init__", counted)
    schedule = schedule_round(code, layout, TIMING)
    assert len(builds) == len(schedule.tasks) == len(code.hx) + len(code.hz)


def test_second_route_reads_only_the_bounds_reservations_touched(
        monkeypatch):
    """The first search reads every component's safe bounds; the second
    reads only those of components reserved or released since the first
    began (the first route's spans and the second ancilla's home)."""
    from shuttleplan import compiler
    from shuttleplan.intervals import ReservationTable

    log = []

    def logged(name, original):
        def call(*args):
            log.append((name, args[1] if name != "route" else None))
            return original(*args)
        return call

    for name in ("reserve", "release", "safe_bounds"):
        monkeypatch.setattr(ReservationTable, name,
                            logged(name, getattr(ReservationTable, name)))
    monkeypatch.setattr(compiler, "plan_route",
                        logged("route", compiler.plan_route))
    compile_surface(3)
    routes = [i for i, (name, _) in enumerate(log) if name == "route"]
    first = {c for n, c in log[routes[0]:routes[1]] if n == "safe_bounds"}
    touched = {c for n, c in log[routes[0]:routes[1]] if n != "safe_bounds"}
    second = {c for n, c in log[routes[1]:routes[2]] if n == "safe_bounds"}
    width = height = 5  # d3 data on 3x3 cells, plus a margin of 1
    assert len(first) == 3 * width * height + 2 * width * (height - 1)
    assert second and second <= touched


def test_unknown_order_policy_is_rejected_before_any_route(monkeypatch):
    from shuttleplan import compiler

    routes = []
    monkeypatch.setattr(compiler, "plan_route",
                        lambda *args: routes.append(args))
    with pytest.raises(CompileError, match="order policy must be one of"):
        compile_surface(3, order_policy="fastest")
    assert routes == []


def test_layout_with_two_qubits_on_one_cell_is_rejected():
    code, layout = surface_code(3)
    layout[2] = layout[0]
    with pytest.raises(CompileError, match="d2 and d0 share cell"):
        schedule_round(code, layout, TIMING)


def test_layout_with_a_key_outside_the_code_is_rejected():
    code, layout = surface_code(3)
    layout[99] = (5, 5)
    with pytest.raises(CompileError, match=r"\[99\] outside 0..8"):
        schedule_round(code, layout, TIMING)


@pytest.mark.parametrize("cell", [(0.5, 0), (0, 0, 0), (0,), [0, 0],
                                  (np.int64(0), 0), (True, 0)],
                         ids=["float", "three", "one", "list", "numpy",
                              "bool"])
def test_layout_cell_that_is_not_a_pair_of_ints_is_rejected(cell):
    """A float cell used to raise a bare KeyError from the planner, and a
    third coordinate was silently dropped."""
    code, layout = surface_code(3)
    layout[4] = cell
    with pytest.raises(CompileError,
                       match=r"places d4 at .*, which is not a pair of ints"):
        schedule_round(code, layout, TIMING)


@pytest.mark.parametrize("margin", [True, False, 1.5, 1.0, "1", -1])
def test_margin_that_is_not_a_nonnegative_int_is_rejected(margin):
    code, layout = surface_code(3)
    with pytest.raises(CompileError, match="margin must be an int >= 0"):
        schedule_round(code, layout, TIMING, margin=margin)


@pytest.mark.parametrize("code", [
    parse_css(["2 2 - x", "HX", "HZ"]),
    CssCode(hx=np.zeros((0, 0), dtype=np.uint8),
            hz=np.zeros((0, 0), dtype=np.uint8)),
], ids=["n2", "n0"])
def test_code_without_checks_is_rejected(code):
    layout = {i: (i, 0) for i in range(code.n)}
    with pytest.raises(CompileError, match="no checks"):
        schedule_round(code, layout, TIMING)


def test_validator_reports_two_data_qubits_on_one_cell():
    _, schedule = compile_surface(3)
    cells = {**schedule.data_cells, 2: schedule.data_cells[0]}
    report = validate_schedule(replace(schedule, data_cells=cells))
    assert f"d2 and d0 share cell {cells[0]}" in report.violations


def test_replicate_identity():
    _, schedule = compile_surface(3)
    assert replicate_rounds(schedule, 1) is schedule


def test_replicate_three_rounds():
    """The stored round is shared, and it expands to three rounds."""
    _, schedule = compile_surface(3)
    tripled = replicate_rounds(schedule, 3)
    assert tripled.makespan == 3 * schedule.round_makespan
    assert tripled.events is schedule.events
    for aid, rounds in expand_rounds(tripled).items():
        assert sum(map(len, rounds)) == 3 * len(schedule.events[aid])
    assert validate_schedule(tripled).ok


def test_replicate_rejects_bad_rounds():
    _, schedule = compile_surface(3)
    with pytest.raises(CompileError):
        replicate_rounds(schedule, 0)


@pytest.mark.parametrize("rounds", [True, False, 2.5, 2.0, "2", None])
def test_replicate_rejects_rounds_that_are_not_an_int(rounds):
    """A bool is not a round count, and a float, a string or None gets a
    named error, not a bare TypeError."""
    _, schedule = compile_surface(3)
    with pytest.raises(CompileError, match="rounds must be an int >= 1"):
        replicate_rounds(schedule, rounds)


def test_validator_reports_injected_collision():
    _, schedule = compile_surface(3)
    # a1 walks a0's route: each walk is valid, so only collisions remain
    a0, a1 = 0, 1
    tasks = list(schedule.tasks)
    tasks[a1] = replace(tasks[a0], ancilla=a1)
    corrupted = replace(schedule, tasks=tasks,
                        events={**schedule.events, a1: schedule.events[a0]})
    report = validate_schedule(corrupted)
    assert report.violations
    for v in report.violations:
        assert v.startswith("collision on ")
        assert f"a{a0} round 0" in v and f"a{a1} round 0" in v


def test_validator_reports_missing_ancilla():
    _, schedule = compile_surface(3)
    events = dict(schedule.events)
    del events[3]
    report = validate_schedule(replace(schedule, events=events))
    assert report.violations == ["a3: no events"]


def test_validator_reports_events_without_a_task():
    _, schedule = compile_surface(3)
    events = {**schedule.events, 8: schedule.events[0]}
    report = validate_schedule(replace(schedule, events=events))
    assert report.violations == ["a8: events for an ancilla with no check task"]


def test_validator_reports_z_before_x():
    """Relabelling every check's basis puts Z-check CXs before X-check ones."""
    _, schedule = compile_surface(3, tailored=False)
    tasks = [replace(t, basis="X" if t.basis == "Z" else "Z")
             for t in schedule.tasks]
    report = validate_schedule(replace(schedule, tasks=tasks))
    assert report.violations
    assert all("receives a Z-check CX" in v for v in report.violations)


def test_validator_reports_unflanked_tailored_movement():
    _, schedule = compile_surface(3, tailored=True)
    aid = next(t.ancilla for t in schedule.tasks if t.basis == "Z")
    events = [ev for ev in schedule.events[aid] if ev.kind != "H"]
    corrupted = replace(schedule, events={**schedule.events, aid: events})
    report = validate_schedule(corrupted)
    assert report.violations
    assert all(v.startswith(f"a{aid} round 0: movement at index")
               and "not flanked by H" in v for v in report.violations)
    # trailing movement: the parking leg loses the H before MEASURE
    events = list(schedule.events[aid])
    assert [ev.kind for ev in events[-2:]] == ["H", "MEASURE"]
    del events[-2]
    last = max(i for i, ev in enumerate(events)
               if ev.kind not in ("SHUTTLE", "DISPLACE", "WAIT", "MEASURE"))
    report = validate_schedule(
        replace(schedule, events={**schedule.events, aid: events}))
    assert report.violations == [
        f"a{aid} round 0: movement at index {last + 1} not flanked by H "
        f"(prev={events[last].kind}, next=MEASURE)"]


def _outside_violations(schedule, aid, events):
    """Out-of-window reports after ancilla aid's events are replaced."""
    report = validate_schedule(replace(schedule,
                                       events={**schedule.events, aid: events}))
    return [v for v in report.violations
            if v.startswith(f"a{aid}: ") and "outside the round windows" in v]


def test_validator_reports_event_after_last_round():
    schedule = replicate_rounds(compile_surface(3)[1], 2)
    events = schedule.events[0]
    shuttle = next(ev for ev in events if ev.kind == "SHUTTLE")
    late = replace(shuttle, t=schedule.makespan + 5000)
    assert _outside_violations(schedule, 0, [*events, late])


def test_validator_reports_event_before_zero():
    _, schedule = compile_surface(3)
    events = schedule.events[0]
    cx = next(ev for ev in events if ev.kind == "CX")
    early = replace(cx, t=-3000, partner=99)  # d99 does not exist
    assert _outside_violations(schedule, 0, [early, *events])


def test_validator_reports_event_ending_after_its_round():
    schedule = replicate_rounds(compile_surface(3)[1], 2)
    events = list(schedule.events[0])
    last = max(i for i, ev in enumerate(events)
               if ev.t < schedule.round_makespan)
    events[last] = replace(events[last], duration=schedule.round_makespan)
    found = _outside_violations(schedule, 0, events)
    assert any(v.startswith(f"a0: {events[last].kind} ") for v in found)


def test_validator_reports_nonpositive_round_makespan():
    _, schedule = compile_surface(3)
    report = validate_schedule(replace(schedule, round_makespan=0))
    assert report.violations == ["round makespan 0 is not positive"]


def test_validator_reports_missing_cx():
    _, schedule = compile_surface(3)
    aid = 0
    events = [ev for ev in schedule.events[aid] if ev.kind != "CX"]
    corrupted = replace(schedule, events={**schedule.events, aid: events})
    report = validate_schedule(corrupted)
    assert any("incomplete" in v and f"a{aid}" in v for v in report.violations)


def test_validator_reports_order_violation():
    _, schedule = compile_surface(3)
    aid = next(a for a, t in enumerate(schedule.tasks) if len(t.targets) == 4)
    events = list(schedule.events[aid])
    cx = [i for i, ev in enumerate(events) if ev.kind == "CX"]
    i, j = cx[0], cx[1]
    events[i] = replace(events[i], partner=schedule.events[aid][j].partner)
    events[j] = replace(events[j], partner=schedule.events[aid][i].partner)
    corrupted = replace(schedule, events={**schedule.events, aid: events})
    report = validate_schedule(corrupted)
    assert any("order" in v for v in report.violations)


def _set(i, **changes):
    """Edit replacing event i of the list with a copy under `changes`."""
    def edit(events):
        events[i] = replace(events[i], **changes)
    return edit


def _drop(*indices):
    def edit(events):
        for i in sorted(indices, reverse=True):
            del events[i]
    return edit


def _both(first, second):
    def edit(events):
        first(events)
        second(events)
    return edit


# a0 (X, targets d0 d1) runs INIT H DISPLACE CX DISPLACE SHUTTLE DISPLACE CX
# DISPLACE H MEASURE from readout (1,1); a5 (tailored Z) waits at index 2
CORRUPTIONS = [
    ("shuttle-duration", 0, _set(5, duration=999), "shuttle duration 999"),
    ("channel-two-edges", 0, _set(5, comp=("channel", 1, 1, 3, 1)),
     "channel channel:1,1-3,1 spans more than one edge"),
    ("shuttle-off-intersection", 0, _drop(4),
     "shuttle on channel:1,1-2,1 does not leave interaction:1,1"),
    ("shuttle-not-touching", 0, _set(5, comp=("channel", 2, 1, 3, 1)),
     "shuttle on channel:2,1-3,1 does not leave intersection:1,1"),
    ("shuttle-on-intersection", 0, _set(5, comp=("intersection", 1, 1)),
     "SHUTTLE on intersection:1,1, which is not a channel"),
    ("shuttle-on-readout", 0, _set(5, comp=("readout", 1, 1)),
     "SHUTTLE on readout:1,1, which is not a channel"),
    ("displace-duration", 0, _set(2, duration=150), "displace duration 150"),
    ("displace-not-from-rest", 0, _set(2, comp=("intersection", 1, 1)),
     "DISPLACE at intersection:1,1 but ancilla rests at readout:1,1"),
    ("displace-across-cells", 0, _set(2, dest=("interaction", 2, 1)),
     "displace must stay within one cell"),
    ("displace-without-dest", 0, _set(2, dest=None),
     "displace must stay within one cell"),
    ("displace-from-channel", 0, _set(4, comp=("channel", 1, 1, 2, 1)),
     "displace must stay within one cell"),
    ("displace-to-channel", 0, _set(4, dest=("channel", 1, 1, 2, 1)),
     "displace must stay within one cell"),
    ("cx-outside-interaction", 0, _set(3, comp=("readout", 1, 1)),
     "CX outside the interaction zone"),
    ("cx-without-partner", 0, _set(3, partner=None),
     "CX without a data partner"),
    ("cx-partner-elsewhere", 0, _set(3, partner=1),
     "CX with d1 at (2, 1), ancilla at (1, 1)"),
    ("init-outside-readout", 0, _set(0, comp=("intersection", 1, 1)),
     "INIT outside a readout zone"),
    ("measure-outside-readout", 0,
     _both(_drop(8, 9), _set(8, comp=("interaction", 2, 1))),
     "MEASURE outside a readout zone"),
    ("h-away", 0, _set(1, comp=("interaction", 1, 1)),
     "H at interaction:1,1 but ancilla rests at readout:1,1"),
    ("wait-away", 5, _set(2, comp=("intersection", 3, 1)),
     "WAIT at intersection:3,1 but ancilla rests at readout:3,1"),
    ("overlap", 0, _set(1, t=400), "H at 400 overlaps previous event"),
    ("unknown-kind", 0, _set(1, kind="NOP"), "unknown event kind NOP"),
    ("init-late", 0, _set(0, t=1), "INIT at 1, expected 0"),
    ("no-measure", 0, _drop(10), "round must run INIT..MEASURE"),
    # malformed ids: the right kind with too few or too many fields
    ("shuttle-short-channel-id", 0, _set(5, comp=("channel", 1, 1)),
     "SHUTTLE at 1100 names malformed component ('channel', 1, 1)"),
    ("shuttle-long-channel-id", 0, _set(5, comp=("channel", 1, 1, 2, 1, 0)),
     "SHUTTLE at 1100 names malformed component ('channel', 1, 1, 2, 1, 0)"),
    ("displace-short-dest", 0, _set(2, dest=("readout", 1)),
     "DISPLACE at 600 names malformed component ('readout', 1)"),
    ("displace-short-comp", 0, _set(4, comp=("interaction", 1)),
     "DISPLACE at 900 names malformed component ('interaction', 1)"),
    ("cx-short-comp", 0, _set(3, comp=("interaction", 1)),
     "CX at 800 names malformed component ('interaction', 1)"),
]


@pytest.mark.parametrize("aid,edit,expected",
                         [case[1:] for case in CORRUPTIONS],
                         ids=[case[0] for case in CORRUPTIONS])
def test_validator_reports_corrupted_event(aid, edit, expected):
    _, schedule = compile_surface(3, tailored=True)
    events = list(schedule.events[aid])
    edit(events)
    report = validate_schedule(replace(schedule,
                                       events={**schedule.events, aid: events}))
    assert f"a{aid} round 0: {expected}" in report.violations


def test_validator_reports_a_malformed_id_at_every_use():
    """One malformed id object shared by two events of the stored round is
    reported once per event, whatever the round count; a float coordinate
    equal to a well-formed id is reported too."""
    schedule = replicate_rounds(compile_surface(3, tailored=True)[1], 2)
    bad = ("interaction", 1)
    events = [replace(ev, comp=bad) if i in (3, 4) else ev
              for i, ev in enumerate(schedule.events[0])]
    events[1] = replace(events[1], comp=("readout", 1.0, 1))
    report = validate_schedule(replace(schedule,
                                       events={**schedule.events, 0: events}))
    malformed = [v for v in report.violations if "malformed" in v]
    assert malformed == [
        "a0 round 0: H at 500 names malformed component ('readout', 1.0, 1)",
        "a0 round 0: CX at 800 names malformed component ('interaction', 1)",
        "a0 round 0: DISPLACE at 900 names malformed component "
        "('interaction', 1)"]


def test_schedule_text_names_each_component_object_by_its_own_value():
    """Equal ids of different types (1 == 1.0) keep their own text."""
    _, schedule = compile_surface(3)
    events = list(schedule.events[0])
    events[1] = replace(events[1], comp=("readout", 1.0, 1))
    lines = replace(schedule, events={**schedule.events, 0: events}
                    ).to_text().splitlines()
    assert "a0 INIT 0 500 readout:1,1" in lines
    assert "a0 H 500 100 readout:1.0,1" in lines


def test_validator_reports_empty_round():
    """Every round runs the stored one, so a round is empty only when the
    stored round is: an ancilla with no events, or with every event past
    the round window."""
    schedule = replicate_rounds(compile_surface(3)[1], 2)
    period = schedule.round_makespan
    report = validate_schedule(replace(schedule,
                                       events={**schedule.events, 0: []}))
    assert report.violations == ["a0: no events"]
    late = [replace(ev, t=ev.t + period) for ev in schedule.events[0]]
    report = validate_schedule(replace(schedule,
                                       events={**schedule.events, 0: late}))
    assert report.violations == [
        *(f"a0: {ev.kind} [{ev.t},{ev.end}) lies outside the round windows"
          for ev in late), "a0 round 0: empty round"]


@pytest.mark.parametrize("field,value,expected", [
    ("rounds", 2.0, "round count 2.0 is not an int"),
    ("rounds", "2", "round count '2' is not an int"),
    ("rounds", None, "round count None is not an int"),
    ("rounds", True, "round count True is not an int"),
    ("rounds", 0, "round count 0 is not positive"),
    ("round_makespan", None, "round makespan None is not an int"),
    ("round_makespan", 13.3, "round makespan 13.3 is not an int"),
    ("round_makespan", True, "round makespan True is not an int"),
])
def test_validator_reports_a_malformed_round_count(field, value, expected):
    """The round count and the round makespan are the only record of the
    rounds; a malformed one is a named violation, never an exception."""
    _, schedule = compile_surface(3)
    report = validate_schedule(replace(schedule, **{field: value}))
    assert report.violations == [expected]


def test_schedule_json_matches_events_and_text():
    schedule = replicate_rounds(compile_surface(3)[1], 2)
    doc = json.loads(schedule.to_json())
    triples = sorted(((ev.t, a, ev) for a, rounds
                      in expand_rounds(schedule).items()
                      for events in rounds for ev in events),
                     key=lambda row: (row[0], row[1], row[2].kind))
    lines = [ln.split() for ln in schedule.to_text().splitlines()
             if not ln.startswith("#")]
    # the JSON holds the stored round, the text's first half
    stored = len(doc["events"])
    assert stored == sum(map(len, schedule.events.values()))
    assert len(triples) == len(lines) == 2 * stored
    assert triples[stored - 1][0] < schedule.round_makespan
    assert triples[stored][0] >= schedule.round_makespan
    for row, (t, a, ev), fields in zip(doc["events"], triples, lines):
        assert (row["qubit"], row["kind"], row["t"], row["duration"],
                row["partner"]) == (f"a{a}", ev.kind, t, ev.duration,
                                    ev.partner)
        assert (row["dest"] is None) == (ev.dest is None)
        dest = "" if row["dest"] is None else f">{row['dest']}"
        assert fields[4] == row["comp"] + dest
    assert doc["rounds"] == schedule.rounds == 2
    assert doc["round_makespan_ns"] == schedule.round_makespan
    assert doc["makespan_ns"] == schedule.makespan
    assert doc["provenance"] == schedule.provenance


# (stored round, round count) pairs checked against the expanded rounds
EXPANDED = [(name, rounds) for name in ("surface-d3", "surface-d5", "bb72")
            for rounds in (1, 2, 6)]


@pytest.fixture(scope="module")
def stored_rounds(bb72_path):
    rounds = {f"surface-d{d}": compile_surface(d)[1] for d in (3, 5)}
    code = load_css(str(bb72_path))
    rounds["bb72"] = schedule_round(
        code, default_layout(code, build_grid(9, 8)), TIMING)
    return rounds


def _printed(schedule) -> list[str]:
    """The expanded rounds' events, sorted by time, ancilla and kind and
    printed one line each as the text form prints them."""
    pairs = [(a, ev) for a, rounds in expand_rounds(schedule).items()
             for events in rounds for ev in events]
    pairs.sort(key=lambda pair: (pair[1].t, pair[0], pair[1].kind))
    return [_line(f"a{a}", ev.kind, ev.t, ev.duration, comp_str(ev.comp),
                  None if ev.dest is None else comp_str(ev.dest), ev.partner)
            for a, ev in pairs]


def _line(qubit, kind, t, duration, comp, dest, partner) -> str:
    dest = "" if dest is None else f">{dest}"
    partner = "" if partner is None else f" d{partner}"
    return f"{qubit} {kind} {t} {duration} {comp}{dest}{partner}"


@pytest.mark.parametrize("name,rounds", EXPANDED,
                         ids=[f"{n}-{r}" for n, r in EXPANDED])
def test_text_and_json_print_the_expanded_rounds(stored_rounds, name, rounds):
    """The text prints every expanded round; the JSON prints round 0 alone,
    as the text does, and the round count."""
    one = stored_rounds[name]
    schedule = replicate_rounds(one, rounds)
    assert schedule.events is one.events
    expected = _printed(schedule)
    assert [ln for ln in schedule.to_text().splitlines()
            if not ln.startswith("#")] == expected
    round0 = _printed(replicate_rounds(one, 1))
    assert expected[:len(round0)] == round0
    doc = json.loads(schedule.to_json())
    assert [_line(r["qubit"], r["kind"], r["t"], r["duration"], r["comp"],
                  r["dest"], r["partner"]) for r in doc["events"]] == round0
    assert doc["rounds"] == rounds


@pytest.mark.parametrize("name,rounds", EXPANDED,
                         ids=[f"{n}-{r}" for n, r in EXPANDED])
def test_validator_agrees_with_a_sweep_of_the_expanded_rounds(
        stored_rounds, name, rounds):
    """Checking the stored round once gives the verdict of a window and
    collision sweep over every event of every round: on the valid round,
    with a shuttle moved to end past, start at or start past the round
    makespan, and with a1 walking a0's route, whose collisions the sweep
    finds within rounds, never between two."""
    schedule = replicate_rounds(stored_rounds[name], rounds)
    assert validate_schedule(schedule).ok
    assert sweep_rounds(schedule) == []
    period = schedule.round_makespan
    events = schedule.events[0]
    i = next(i for i, ev in enumerate(events) if ev.kind == "SHUTTLE")
    duration = events[i].duration
    for t in (period - duration + 1, period, period + 300):
        moved = [*events[:i], replace(events[i], t=t), *events[i + 1:]]
        corrupted = replace(schedule, events={**schedule.events, 0: moved})
        report = validate_schedule(corrupted)
        swept = sweep_rounds(corrupted)
        assert not report.ok and swept
        assert [v for v in report.violations if "round windows" in v] == [
            f"a0: SHUTTLE [{t},{t + duration}) lies outside the round "
            f"windows"]
        assert len([f for f in swept if " outside " in f]) == rounds
    tasks = list(schedule.tasks)
    tasks[1] = replace(tasks[0], ancilla=1)
    walked = replace(schedule, tasks=tasks,
                     events={**schedule.events, 1: events})
    assert not validate_schedule(walked).ok
    collided = [re.fullmatch(r"collision on .*: a[01] round (\d+) vs "
                             r"a[01] round \1", f) for f in sweep_rounds(walked)]
    assert collided and all(collided)
    assert {int(m[1]) for m in collided} == set(range(rounds))


def test_schedule_text_roundtrip_shape():
    _, schedule = compile_surface(3)
    text = schedule.to_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines, "schedule body must not be empty"
    for line in lines:
        parts = line.split()
        assert parts[1] in ("INIT", "DISPLACE", "SHUTTLE", "H", "CX", "WAIT",
                            "MEASURE")
        int(parts[2]), int(parts[3])
    # events sorted by (time, qubit)
    times = [int(ln.split()[2]) for ln in lines]
    assert times == sorted(times)


def test_margin_growth_never_slows_ancillae():
    code, layout = surface_code(3)
    base = schedule_round(code, layout, TIMING, margin=1)
    wide = schedule_round(code, layout, TIMING, margin=2)
    for aid in base.events:
        t0 = max(ev.end for ev in base.events[aid])
        t1 = max(ev.end for ev in wide.events[aid])
        assert t1 <= t0


def _random_hgp_code(rng) -> CssCode:
    """Hypergraph product of two small random classical codes."""
    while True:
        n1, n2 = rng.randint(2, 3), rng.randint(2, 3)
        r1, r2 = rng.randint(1, 2), rng.randint(1, 2)
        h1 = np.array([[rng.randint(0, 1) for _ in range(n1)] for _ in range(r1)])
        h2 = np.array([[rng.randint(0, 1) for _ in range(n2)] for _ in range(r2)])
        hx = np.hstack([np.kron(h1, np.eye(n2, dtype=int)),
                        np.kron(np.eye(r1, dtype=int), h2.T)])
        hz = np.hstack([np.kron(np.eye(n1, dtype=int), h2),
                        np.kron(h1.T, np.eye(r2, dtype=int))])
        hx = hx[hx.any(axis=1)]
        hz = hz[hz.any(axis=1)]
        if hx.shape[0] and hz.shape[0]:
            return CssCode(hx=hx, hz=hz, name=f"hgp_{n1}{n2}{r1}{r2}")


def test_fuzz_random_codes_compile_and_validate():
    rng = random.Random(2024)
    for trial in range(12):
        code = _random_hgp_code(rng)
        n = code.n
        side = 1
        while side * side < n:
            side += 1
        layout = default_layout(code, build_grid(side, side))
        schedule = schedule_round(code, layout, TIMING,
                                  seed=trial, order_policy="longest")
        report = validate_schedule(schedule)
        assert report.ok, (code.name, report.violations[:3])
