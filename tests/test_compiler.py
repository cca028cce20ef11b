import json
import random
from dataclasses import replace

import numpy as np
import pytest

from shuttleplan.chip import TimingConfig, build_grid, readout_id
from shuttleplan.compiler import (CompileError, Event, assign_homes,
                                  replicate_rounds, schedule_round,
                                  validate_schedule)
from shuttleplan.css import CheckTask, CssCode, load_css, surface_code
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


def test_replicate_identity():
    _, schedule = compile_surface(3)
    assert replicate_rounds(schedule, 1) is schedule


def test_replicate_three_rounds():
    _, schedule = compile_surface(3)
    tripled = replicate_rounds(schedule, 3)
    assert tripled.makespan == 3 * schedule.round_makespan
    for aid, evs in tripled.events.items():
        assert len(evs) == 3 * len(schedule.events[aid])
    assert validate_schedule(tripled).ok


def test_replicate_rejects_bad_rounds():
    _, schedule = compile_surface(3)
    with pytest.raises(CompileError):
        replicate_rounds(schedule, 0)


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


def test_validator_reports_empty_round():
    schedule = replicate_rounds(compile_surface(3)[1], 2)
    round0 = [ev for ev in schedule.events[0] if ev.t < schedule.round_makespan]
    report = validate_schedule(replace(schedule,
                                       events={**schedule.events, 0: round0}))
    assert report.violations == ["a0 round 1: empty round"]


def test_schedule_json_matches_events_and_text():
    schedule = replicate_rounds(compile_surface(3)[1], 2)
    doc = json.loads(schedule.to_json())
    pairs = schedule.all_events()
    lines = [ln.split() for ln in schedule.to_text().splitlines()
             if not ln.startswith("#")]
    assert len(doc["events"]) == len(pairs) == len(lines)
    for row, (a, ev), fields in zip(doc["events"], pairs, lines):
        assert (row["qubit"], row["kind"], row["t"], row["duration"],
                row["partner"]) == (f"a{a}", ev.kind, ev.t, ev.duration,
                                    ev.partner)
        assert (row["dest"] is None) == (ev.dest is None)
        dest = "" if row["dest"] is None else f">{row['dest']}"
        assert fields[4] == row["comp"] + dest
    assert doc["rounds"] == schedule.rounds == 2
    assert doc["round_makespan_ns"] == schedule.round_makespan
    assert doc["makespan_ns"] == schedule.makespan
    assert doc["provenance"] == schedule.provenance


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
