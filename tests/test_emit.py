import hashlib
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CODES, NOISELESS
from oracles import detector_targets, noise_ledger
from shuttleplan.chip import NoiseConfig, TimingConfig, build_grid
from shuttleplan.compiler import replicate_rounds, schedule_round
from shuttleplan.css import (CodeError, CssCode, LogicalOperators,
                             compute_logicals, default_layout, load_css,
                             surface_code)
from shuttleplan.emit import (NOISE_CHANNELS, Instruction, StabCircuit,
                              add_detectors, compose_phase_flips,
                              emit_memory_circuit)
from shuttleplan.pauli import (fault_scan, simulate_noiseless,
                              sites_from_noise)

TIMING = TimingConfig()


def surface_schedule(d=3, rounds=1, tailored=True):
    code, layout = surface_code(d)
    schedule = schedule_round(code, layout, TIMING, tailored=tailored)
    return code, replicate_rounds(schedule, rounds)


def surface_circuit(d=3, rounds=1, basis="z", tailored=True, noise=None):
    code, schedule = surface_schedule(d, rounds, tailored)
    noise = noise if noise is not None else NoiseConfig()
    logicals = compute_logicals(code)
    return code, emit_memory_circuit(schedule, code, logicals, noise, basis)


def test_zero_noise_has_no_error_instructions():
    _, circuit = surface_circuit(noise=NOISELESS)
    counts = Counter(i.name for i in circuit.instructions)
    for name in ("X_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2"):
        assert counts.get(name, 0) == 0


def test_compose_phase_flips_odd_parity():
    # odd number of flips over 3 edges; identical to three independent flips
    p = 1e-3
    composed = compose_phase_flips(p, 3)
    direct = 3 * p * (1 - p) ** 2 + p ** 3
    assert math.isclose(composed, direct, rel_tol=1e-12)
    assert compose_phase_flips(p, 1) == pytest.approx(p)
    assert compose_phase_flips(0.0, 5) == 0.0


def test_shuttle_segments_collapse_to_one_instruction():
    """One Z_ERROR per shuttle run, composed over its edges, covers every
    SHUTTLE event of the schedule exactly once."""
    code, schedule = surface_schedule()
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), "z")
    segs = [instr for instr in circuit.instructions
            if instr.name in NOISE_CHANNELS and instr.meta["kind"] == "shuttle"]
    assert segs, "expected composed shuttle noise"
    multi = [s for s in segs if s.meta["edges"] > 1]
    assert multi, "expected a run of more than one edge"
    for seg in multi:
        expected = compose_phase_flips(1e-3, seg.meta["edges"])
        assert seg.arg[0] == pytest.approx(expected)
    shuttles = sum(ev.kind == "SHUTTLE" for evs in schedule.events.values()
                   for ev in evs)
    assert sum(s.meta["edges"] for s in segs) == shuttles


def test_idle_gap_probability_closed_form():
    nc = NoiseConfig()
    assert nc.idle_pz(1_000_000) == pytest.approx(1 - math.exp(-0.1))
    _, circuit = surface_circuit(noise=NoiseConfig())
    idles = [instr for instr in circuit.instructions
             if instr.name in NOISE_CHANNELS and instr.meta["kind"] == "idle"]
    assert idles, "data qubits must accumulate idle noise between visits"


def test_displace_noise_per_event():
    _, circuit = surface_circuit(noise=NoiseConfig())
    code, layout = surface_code(3)
    schedule = schedule_round(code, layout, TIMING, tailored=True)
    displaces = sum(1 for evs in schedule.events.values()
                    for ev in evs if ev.kind == "DISPLACE")
    assert displaces == sum(instr.name in NOISE_CHANNELS
                            and instr.meta["kind"] == "displace"
                            for instr in circuit.instructions)


def _bb72_random_schedule(rounds=3, seed=1):
    code = load_css(str(CODES / "bb_72_12_6.code"))
    layout = default_layout(code, build_grid(9, 8))
    schedule = schedule_round(code, layout, TIMING, order_policy="random",
                              seed=seed)
    return code, replicate_rounds(schedule, rounds)


LEDGER_CASES = {  # id -> ((code, schedule), memory basis)
    "d3-Z-tailored": (lambda: surface_schedule(3, 3, tailored=True), "Z"),
    "d3-X-untailored": (lambda: surface_schedule(3, 3, tailored=False), "X"),
    "d5-X": (lambda: surface_schedule(5, 5), "X"),
    "bb72-random-1": (_bb72_random_schedule, "Z"),
}


@pytest.mark.parametrize("case", LEDGER_CASES)
def test_noise_ledger_matches_the_schedule(case):
    """The circuit's phase flips, turned back into time and edges, are the
    schedule's: each data qubit idles the makespan less its reset and its
    CXs, each ancilla exactly its WAITs, and each ancilla's shuttle flips
    stand for its SHUTTLE events, in every round."""
    build, basis = LEDGER_CASES[case]
    code, schedule = build()
    noise = NoiseConfig()
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  noise, basis)
    cx_ns, wait_ns, shuttles = Counter(), Counter(), Counter()
    for a, evs in schedule.events.items():  # the stored round
        for ev in evs:
            if ev.kind == "CX":
                cx_ns[ev.partner] += ev.duration
            elif ev.kind == "WAIT":
                wait_ns[code.n + a] += ev.duration
            elif ev.kind == "SHUTTLE":
                shuttles[code.n + a] += 1
    rounds, span = schedule.rounds, schedule.makespan - schedule.timing.t_init
    idle_ns, edges = noise_ledger(circuit, noise)
    assert wait_ns and shuttles
    assert idle_ns == pytest.approx(
        {**{i: span - rounds * cx_ns[i] for i in range(code.n)},
         **{q: rounds * ns for q, ns in wait_ns.items()}})
    assert edges == pytest.approx({q: rounds * m for q, m in shuttles.items()})


def test_detector_counts_surface_d3_three_rounds():
    _, circuit = surface_circuit(d=3, rounds=3, basis="z")
    # 4 first-round Z detectors + 8 checks x 2 comparison rounds + 4 final
    assert len(detector_targets(circuit)) == 4 + 16 + 4
    assert len(circuit.observables()) == 1


def test_detector_counts_single_round():
    _, circuit = surface_circuit(d=3, rounds=1, basis="z")
    assert len(detector_targets(circuit)) == 4 + 4
    assert len(circuit.observables()) == 1


def test_x_basis_detector_counts():
    _, circuit = surface_circuit(d=3, rounds=2, basis="x")
    assert len(detector_targets(circuit)) == 4 + 8 + 4
    assert len(circuit.observables()) == 1


def test_bb72_twelve_observables(bb72_path):
    code = load_css(str(bb72_path))
    layout = default_layout(code, build_grid(9, 8))
    schedule = schedule_round(code, layout, TIMING)
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NOISELESS, "z")
    assert len(circuit.observables()) == 12
    report = simulate_noiseless(circuit)
    assert report.all_detectors_deterministic_zero
    assert report.all_observables_deterministic


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("tailored", [True, False])
@pytest.mark.parametrize("rounds", [1, 2])
def test_noiseless_determinism_d3(basis, tailored, rounds):
    _, circuit = surface_circuit(d=3, rounds=rounds, basis=basis,
                                 tailored=tailored, noise=NOISELESS)
    report = simulate_noiseless(circuit)
    assert report.all_detectors_deterministic_zero
    assert report.all_observables_deterministic
    assert set(report.observables.values()) == {0}


def test_tailored_h_excess_matches_movement_periods():
    code, layout = surface_code(3)
    plain = schedule_round(code, layout, TIMING, tailored=False)
    tail = schedule_round(code, layout, TIMING, tailored=True)
    logicals = compute_logicals(code)
    noise = NOISELESS
    h_plain, h_tail = (sum(i.name == "H" for i in emit_memory_circuit(
        schedule, code, logicals, noise, "z").instructions)
        for schedule in (plain, tail))
    z_weights = [len(t.targets) for t in tail.tasks if t.basis == "Z"]
    assert h_tail - h_plain == sum(2 * (w + 1) for w in z_weights)


def test_per_round_measurement_counts():
    code, circuit = surface_circuit(d=3, rounds=3, basis="z")
    # a measurement's qubit says what it reads: qubits from n are ancillae
    anc_measurements = [i for i in circuit.instructions
                        if i.name == "M" and i.targets[0] >= code.n]
    assert len(anc_measurements) == 8 * 3
    # only noise instructions carry metadata, and all do
    assert all((i.meta is not None) == (i.name in NOISE_CHANNELS)
               for i in circuit.instructions)
    cx = sum(i.name == "CX" for i in circuit.instructions)
    weights = int(code.hx.sum() + code.hz.sum())
    assert cx == weights * 3


def test_text_format_renders():
    _, circuit = surface_circuit(d=3, rounds=1, basis="z")
    text = circuit.to_text()
    lines = text.splitlines()
    assert any(line.startswith("QUBIT_COORDS") for line in lines)
    assert any(line.startswith("DETECTOR") for line in lines)
    assert any(line.startswith("OBSERVABLE_INCLUDE(0)") for line in lines)
    # every rec reference must stay within the record produced so far
    seen = 0
    for line in lines:
        head = line.split(" ", 1)[0]
        if head in ("M", "MX"):
            seen += len(line.split()) - 1
        for token in line.split():
            if token.startswith("rec["):
                offset = int(token[4:-1])
                assert -seen <= offset <= -1


def test_emit_rejects_bad_basis():
    code, layout = surface_code(3)
    schedule = schedule_round(code, layout, TIMING)
    with pytest.raises(CodeError):
        emit_memory_circuit(schedule, code, compute_logicals(code),
                            NOISELESS, "y")


@pytest.mark.parametrize("basis", [None, 1, "", "XZ"])
def test_basis_that_is_not_a_letter_raises_code_error(basis):
    """Both entry points raise CodeError for anything but one X or Z
    letter, also for a basis with no ``.upper()`` (None, 1)."""
    code, schedule = surface_schedule()
    logicals = compute_logicals(code)
    with pytest.raises(CodeError, match="basis must be X or Z"):
        emit_memory_circuit(schedule, code, logicals, NOISELESS, basis)
    _, circuit = surface_circuit()
    with pytest.raises(CodeError, match="basis must be X or Z"):
        add_detectors(circuit, code, basis, logicals=logicals,
                      schedule=schedule)


def test_add_detectors_requires_measurements():
    code, schedule = surface_schedule()
    with pytest.raises(CodeError):
        add_detectors(StabCircuit(9), code, "z",
                      logicals=compute_logicals(code), schedule=schedule)


def test_emit_deterministic_output():
    _, a = surface_circuit(d=3, rounds=2, basis="z")
    _, b = surface_circuit(d=3, rounds=2, basis="z")
    assert a.to_text() == b.to_text()


@pytest.mark.parametrize("name", ["CX", "DEPOLARIZE2"])
def test_append_rejects_odd_pair_targets(name):
    c = StabCircuit(3)
    arg = (0.1,) if name == "DEPOLARIZE2" else None
    with pytest.raises(ValueError, match="target pairs"):
        c.extend([Instruction(name, (0, 1, 2), arg)])
    assert c.instructions == []


@pytest.mark.parametrize("name", ["CX", "DEPOLARIZE2"])
@pytest.mark.parametrize("targets", [(0, 0), (0, 1, 2, 2)])
def test_append_rejects_a_pair_of_equal_targets(name, targets):
    c = StabCircuit(3)
    arg = (0.1,) if name == "DEPOLARIZE2" else None
    with pytest.raises(ValueError, match=re.escape(
            f"{name} needs target pairs of two distinct qubits, "
            f"got {targets}")):
        c.extend([Instruction(name, targets, arg)])
    assert c.instructions == []


@pytest.mark.parametrize("name", ["H", "CX", "R", "RX", "M", "MX", "X_ERROR",
                                  "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2",
                                  "QUBIT_COORDS"])
@pytest.mark.parametrize("bad", [-1, 3, 1.7])
def test_append_rejects_qubit_out_of_range(name, bad):
    """A float target is refused, not truncated to the qubit below it."""
    c = StabCircuit(3)
    error, match = ((TypeError, "integer") if isinstance(bad, float)
                    else (ValueError, "outside qubits 0..2"))
    with pytest.raises(error, match=match):
        c.extend([Instruction(name, (0, bad))])
    assert c.instructions == [] and c.num_measurements == 0


def test_append_accepts_numpy_integer_targets():
    c = StabCircuit(3)
    c.extend([Instruction("CX", (np.int64(0), np.uint8(2)))])
    assert c.to_text() == "CX 0 2\n"


def test_append_accepts_measurement_record_targets():
    """DETECTOR and OBSERVABLE_INCLUDE targets index measurements, not
    qubits, so they are not range checked against num_qubits."""
    c = StabCircuit(1)
    c.extend([Instruction("R", (0,)), *[Instruction("M", (0,))] * 3,
              Instruction("DETECTOR", (1, 2)),
              Instruction("OBSERVABLE_INCLUDE", (2,), (0,)),
              Instruction("TICK")])
    assert c.num_measurements == 3 and len(c.instructions) == 7


@pytest.mark.parametrize("name", ["CZ", "m", "SHIFT_COORDS", ""])
def test_append_rejects_unknown_instruction(name):
    """An instruction the simulators do not know would be skipped by them."""
    c = StabCircuit(2)
    with pytest.raises(ValueError, match="unknown instruction"):
        c.extend([Instruction(name, (0, 1))])
    assert c.instructions == []


@pytest.mark.parametrize("name", ["DETECTOR", "OBSERVABLE_INCLUDE"])
@pytest.mark.parametrize("bad", [-1, 2, 5, 0.5])
def test_append_rejects_record_out_of_range(name, bad):
    """Records index the measurements made so far: rec[-k] must exist, and a
    float record is refused, not truncated."""
    c = StabCircuit(2)
    c.extend([Instruction("M", (0, 1))])
    arg = (0,) if name == "OBSERVABLE_INCLUDE" else None
    error, match = ((TypeError, "integer") if isinstance(bad, float)
                    else (ValueError, "outside the 2 measurements"))
    with pytest.raises(error, match=match):
        c.extend([Instruction(name, (0, bad), arg)])
    assert len(c.instructions) == 1


# -- one batch against batches of one ----------------------------------------


@pytest.fixture(scope="module")
def pinned_circuits(bb72_path):
    """The memory circuits whose hashes tests/test_fingerprints.py pins."""
    from test_fingerprints import SURFACE_CIRCUITS

    jobs = []
    for d, basis, _ in SURFACE_CIRCUITS:
        code, layout = surface_code(d)
        jobs.append((code, schedule_round(code, layout, TIMING,
                                          order_policy="longest", seed=3),
                     d, basis))
    code = load_css(str(bb72_path))
    jobs.append((code, schedule_round(code, default_layout(
        code, build_grid(9, 8)), TIMING, order_policy="longest", seed=0),
                 2, "Z"))
    return [emit_memory_circuit(replicate_rounds(schedule, rounds), code,
                                compute_logicals(code), NoiseConfig(), basis)
            for code, schedule, rounds, basis in jobs]


def test_extend_matches_append_on_pinned_circuits(pinned_circuits):
    """Replayed one by one, in one batch and in random batches, the
    instructions give the same circuit."""
    rng = np.random.default_rng(5)
    for circuit in pinned_circuits:
        instrs = circuit.instructions
        one_by_one = StabCircuit(circuit.num_qubits)
        for instr in instrs:
            one_by_one.extend([instr])
        whole = StabCircuit(circuit.num_qubits)
        whole.extend(instrs)
        chunked = StabCircuit(circuit.num_qubits)
        cuts = sorted(rng.choice(len(instrs), size=20, replace=False))
        for lo, hi in zip([0, *cuts], [*cuts, len(instrs)]):
            chunked.extend(instrs[lo:hi])
        for built in (one_by_one, whole, chunked):
            assert built.instructions == instrs
            assert built.num_measurements == circuit.num_measurements
        assert whole.to_text() == circuit.to_text()


def test_pinned_bb72_circuit_shares_each_idle_meta(pinned_circuits):
    """Noise args are one-tuples of a float; the X_ERROR and Z_ERROR of one
    idle gap share their meta, and an ancilla's idle pair shares it with
    the same pair of every round (the pinned bb72 circuit has 2). A data
    qubit's idle instructions share one meta."""
    noise = [i for i in pinned_circuits[-1].instructions
             if i.name in NOISE_CHANNELS]
    assert {type(i.arg[0]) for i in noise} == {float}
    idle = [i for i in noise if i.meta["kind"] == "idle"]
    holders = Counter(id(i.meta) for i in idle)
    assert {holders[id(i.meta)] for i in idle if "ancilla" in i.meta} == {4}
    data_idle = [i for i in idle if "qubit" in i.meta]
    metas = {(i.meta["qubit"], id(i.meta)) for i in data_idle}
    assert len(metas) == len({q for q, _ in metas}) == 72


def test_pinned_bb72_rounds_repeat_the_lowered_round(pinned_circuits):
    """Every ancilla instruction of round r >= 1 is the object at the same
    place in round 0, and lies between TICK r and TICK r + 1; no ancilla
    instruction follows the last TICK."""
    circuit = pinned_circuits[-1]
    n = 72  # bb72's data qubits; qubits 72..143 are its ancillae
    ticks = 0
    # (ancilla qubit, TICKs before) -> its instructions in circuit order
    placed: dict[tuple[int, int], list[Instruction]] = {}
    for instr in circuit.instructions:
        ticks += instr.name == "TICK"
        ancillae = {q for q in instr.targets if q >= n}
        if ancillae and instr.name not in ("DETECTOR", "OBSERVABLE_INCLUDE",
                                           "QUBIT_COORDS"):
            (q,) = ancillae
            placed.setdefault((q, ticks), []).append(instr)
    assert ticks == 2
    assert set(placed) == {(q, r) for q in range(n, 2 * n) for r in (0, 1)}
    for q in range(n, 2 * n):
        first, second = placed[q, 0], placed[q, 1]
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))


def _mismatched_pairs():
    """(schedule, the code it was compiled for, another code, the mismatch
    the check must name)."""
    d3, layout3 = surface_code(3)
    d5, layout5 = surface_code(5)
    for_d3 = replicate_rounds(schedule_round(d3, layout3, TIMING), 2)
    for_d5 = replicate_rounds(schedule_round(d5, layout5, TIMING), 2)
    swapped = CssCode(hx=d3.hz, hz=d3.hx, name="swapped")
    one_check = CssCode(hx=np.zeros((0, 9), dtype=np.uint8),
                        hz=[[1, 1, 0, 0, 0, 0, 0, 0, 0]], name="one")
    return [
        (for_d3, d3, d5, "has 9 data qubits and 8 checks, code surface_d5 "
                         "25 and 24"),
        (for_d5, d5, d3, "has 25 data qubits and 24 checks, code surface_d3 "
                         "9 and 8"),
        (for_d3, d3, one_check, "has 9 data qubits and 8 checks, code one 9 "
                                "and 1"),
        (for_d3, d3, swapped, r"\(ancilla, basis, support\) \(0, 'X', "
                              r"\[0, 1\]\) != \(0, 'X', \[[0-9, ]+\]\) in "
                              r"code swapped"),
    ]


def _without_records(circuit: StabCircuit) -> StabCircuit:
    """The circuit built again without its detectors and observables."""
    bare = StabCircuit(circuit.num_qubits)
    bare.extend(i for i in circuit.instructions
                if i.name not in ("DETECTOR", "OBSERVABLE_INCLUDE"))
    return bare


@pytest.mark.parametrize("case", range(4),
                         ids=["d3-for-d5", "d5-for-d3", "fewer-checks",
                              "other-supports"])
def test_schedule_for_another_code_is_refused(case):
    """A schedule compiled for another code raises CodeError naming the
    first mismatch, from both entry points."""
    schedule, own, code, match = _mismatched_pairs()[case]
    logicals = compute_logicals(code)
    with pytest.raises(CodeError, match=match):
        emit_memory_circuit(schedule, code, logicals, NOISELESS, "z")
    circuit = _without_records(emit_memory_circuit(
        schedule, own, compute_logicals(own), NOISELESS, "z"))
    with pytest.raises(CodeError, match=match):
        add_detectors(circuit, code, "z", logicals=logicals,
                      schedule=schedule)


def test_extend_normalises_targets_as_append_does():
    c = StabCircuit(3)
    c.extend([Instruction("CX", [np.int64(0), np.uint8(2)])])
    batch = StabCircuit(3)
    batch.extend([Instruction("CX", [np.int64(0), np.uint8(2)]),
                  Instruction("M", (x for x in (1,)), None, {})])
    assert batch.instructions[0] == c.instructions[0]
    targets = [t for i in batch.instructions for t in i.targets]
    assert [type(t) for t in targets] == [int] * 3
    assert batch.num_measurements == 1


# (name, targets, arg) rejected on its own, on a 3-qubit circuit after M 0 1
REJECTED = [
    *((name, targets, (0.1,) if name == "DEPOLARIZE2" else None)
      for name in ("CX", "DEPOLARIZE2")
      for targets in ((0, 1, 2), (1, 1), (0, 1, 2, 2))),
    *((name, (0, bad), None) for name in ("H", "CX", "R", "RX", "M", "MX",
                                          "X_ERROR", "Z_ERROR", "DEPOLARIZE1",
                                          "DEPOLARIZE2", "QUBIT_COORDS")
      for bad in (-1, 3, 1.7)),
    *((name, (0, 1), None) for name in ("CZ", "m", "SHIFT_COORDS", "")),
    ("H", (True,), None),  # a bool is no qubit, though index(True) == 1
    ("TICK", (0, 5), None),
    *((name, (0, bad), (0,) if name == "OBSERVABLE_INCLUDE" else None)
      for name in ("DETECTOR", "OBSERVABLE_INCLUDE")
      for bad in (-1, 2, 5, 0.5)),
]
# malformed args: a noise channel takes a one-tuple of a probability in
# [0, 1], OBSERVABLE_INCLUDE a one-tuple of an int >= 0; a bool is neither
BAD_ARGS = [
    *(("OBSERVABLE_INCLUDE", (0,), arg)
      for arg in (None, (), (-1,), (0.5,), (True,), (0, 1), ("0",), [0])),
    *(("Z_ERROR", (0,), arg)
      for arg in (None, (), (1.5,), (-0.1,), (float("nan"),), (True,),
                  (0.1, 0.2), ("0.1",), ([0.1],))),
    *((name, (0, 1), None) for name in ("X_ERROR", "DEPOLARIZE1",
                                        "DEPOLARIZE2")),
    # gates, resets, measurements and TICK take no arg: M(0.1) is a noisy
    # measurement, which the fault scan would read as noiseless
    *((name, (0,), (0.1,)) for name in ("H", "R", "RX", "M", "MX")),
    ("CX", (0, 1), (0.1,)),
    ("TICK", (), (0.1,)),
]


def _after_measuring():
    c = StabCircuit(3)
    c.extend([Instruction("M", (0, 1))])
    return c


@pytest.mark.parametrize("name,targets,arg", REJECTED + BAD_ARGS,
                         ids=[f"{n or 'empty'}-{t}" for n, t, _ in REJECTED]
                         + [f"{n}-{t}-arg{a}" for n, t, a in BAD_ARGS])
def test_extend_rejects_what_append_rejects(name, targets, arg):
    """An instruction rejected on its own raises the same exception from a
    batch, wherever it sits, and the batch adds nothing."""
    with pytest.raises((TypeError, ValueError)) as appended:
        _after_measuring().extend([Instruction(name, targets, arg)])
    # valid around it; none measures, so the records in range stay the same
    good = [Instruction("H", (2,)), Instruction("X_ERROR", (2,), (0.1,), {}),
            Instruction("DETECTOR", (1,))]
    bad = Instruction(name, targets, arg)
    for batch in ([bad], [*good, bad], [bad, *good], [good[0], bad, good[1]]):
        c = _after_measuring()
        before = (list(c.instructions), c.num_measurements)
        with pytest.raises(type(appended.value)):
            c.extend(batch)
        assert (c.instructions, c.num_measurements) == before


def test_extend_records_index_only_earlier_measurements():
    c = StabCircuit(2)
    c.extend([Instruction("M", (0, 1), None, {}),
              Instruction("DETECTOR", (0, 1))])
    assert c.num_measurements == 2
    with pytest.raises(ValueError, match="outside the 2 measurements"):
        c.extend([Instruction("DETECTOR", (2,)),
                  Instruction("M", (0,), None, {})])
    assert len(c.instructions) == 2 and c.num_measurements == 2


@pytest.mark.parametrize("shift", [-1, 0])
def test_round_outside_its_period_is_refused(shift):
    """Rounds are emitted one period at a time, so a stored round that
    does not fit in [0, round_makespan) raises CodeError: here the period
    ends at the last MEASURE, or the events start before 0."""
    code, schedule = surface_schedule(rounds=2)
    if shift:
        events = {a: [replace(ev, t=ev.t + shift) for ev in evs]
                  for a, evs in schedule.events.items()}
        schedule = replace(schedule, events=events)
    else:
        last = max(evs[-1].t for evs in schedule.events.values())
        schedule = replace(schedule, round_makespan=last)
    with pytest.raises(CodeError, match="outside the round"):
        emit_memory_circuit(schedule, code, compute_logicals(code),
                            NoiseConfig(), "Z")


def _emit_with_short_logicals():
    code, schedule = surface_schedule()
    short = np.zeros((1, code.n - 1), dtype=np.uint8)
    emit_memory_circuit(schedule, code, LogicalOperators(x=short, z=short),
                        NOISELESS, "Z")


def _emit_unknown_event():
    code, schedule = surface_schedule()
    first, *rest = schedule.events[0]
    events = {**schedule.events, 0: [replace(first, kind="JUMP"), *rest]}
    emit_memory_circuit(replace(schedule, events=events), code,
                        compute_logicals(code), NOISELESS, "Z")


def _detect_with_a_check_unmeasured():
    """Ancilla 0's second measurement is gone from a two-round circuit."""
    code, schedule = surface_schedule(rounds=2)
    logicals = compute_logicals(code)
    circuit = emit_memory_circuit(schedule, code, logicals, NOISELESS, "Z")
    kept = [i for i in circuit.instructions
            if i.name not in ("DETECTOR", "OBSERVABLE_INCLUDE")]
    last = max(k for k, i in enumerate(kept)
               if i.name == "M" and i.targets == (code.n,))
    circuit = StabCircuit(circuit.num_qubits)
    circuit.extend(kept[:last] + kept[last + 1:])
    add_detectors(circuit, code, "Z", logicals=logicals, schedule=schedule)


EMIT_ERRORS = [  # (id, call, message)
    ("logicals-length", _emit_with_short_logicals,
     r"^logical operators do not match the code length$"),
    ("unknown-event", _emit_unknown_event, r"^unknown schedule event JUMP$"),
    ("check-missing-from-round", _detect_with_a_check_unmeasured,
     r"^round 1: 7 of 8 checks measured$"),
]


@pytest.mark.parametrize("call,match", [case[1:] for case in EMIT_ERRORS],
                         ids=[case[0] for case in EMIT_ERRORS])
def test_emit_named_errors(call, match):
    with pytest.raises(CodeError, match=match):
        call()


@pytest.mark.parametrize("x_shape, z_shape, match", [
    ((1, 9), (1, 12), "code length"),  # the Z basis reads data record 9
    ((1, 9), (1, 5), "code length"),   # the Z basis would read records 0..4
    ((1, 12), (1, 9), "code length"),
    ((1, 9), (2, 9), "1 X rows and 2 Z rows"),
    ((9,), (9,), "code length"),
], ids=["z-wide", "z-narrow", "x-wide", "k-differs", "one-dimensional"])
def test_logicals_of_the_wrong_shape_are_refused(x_shape, z_shape, match):
    """Both entry points refuse logicals unless X and Z are both (k, n)
    with one k, whichever of them the memory basis reads."""
    code, schedule = surface_schedule()
    logicals = LogicalOperators(x=np.ones(x_shape, dtype=np.uint8),
                                z=np.ones(z_shape, dtype=np.uint8))
    with pytest.raises(CodeError, match=match):
        emit_memory_circuit(schedule, code, logicals, NOISELESS, "Z")
    circuit = _without_records(emit_memory_circuit(
        schedule, code, compute_logicals(code), NOISELESS, "Z"))
    with pytest.raises(CodeError, match=match):
        add_detectors(circuit, code, "Z", logicals=logicals,
                      schedule=schedule)


# -- a batch added several times over ----------------------------------------


@st.composite
def batches(draw):
    """A valid batch on 3 qubits after M 0 1: gates, measurements, noise,
    detectors and observables whose records index measurements made before
    them."""
    qubit = st.integers(0, 2)
    measured, batch = 2, []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(["H", "CX", "M", "X_ERROR", "DETECTOR",
                                     "OBSERVABLE_INCLUDE", "TICK"]))
        arg = None
        if name == "CX":
            targets = draw(st.lists(qubit, min_size=2, max_size=2,
                                    unique=True))
        elif name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
            targets = draw(st.lists(st.integers(0, measured - 1),
                                    max_size=3))
            if name == "OBSERVABLE_INCLUDE":
                arg = (draw(st.integers(0, 1)),)
        elif name == "TICK":
            targets = []
        else:
            targets = draw(st.lists(qubit, min_size=1, max_size=2))
            if name == "X_ERROR":
                arg = (0.1,)
        measured += len(targets) if name == "M" else 0
        batch.append(Instruction(name, tuple(targets), arg))
    return batch


@given(batches(), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_a_batch_repeated_is_the_batch_added_that_many_times(batch, k):
    """One batch of k copies and k batches of one copy are the same
    circuit to every pass over it: text, fault sites, scan rows, noiseless
    verdicts and observables."""
    once, each = _after_measuring(), _after_measuring()
    once.extend(batch, repeat=k)
    for _ in range(k):
        each.extend(batch)
    assert once.instructions == each.instructions
    assert once.num_measurements == each.num_measurements
    assert once.to_text() == each.to_text()
    sites = sites_from_noise(once)
    assert np.array_equal(sites, sites_from_noise(each))
    assert np.array_equal(fault_scan(once, sites).rows,
                          fault_scan(each, sites).rows)
    assert simulate_noiseless(once) == simulate_noiseless(each)
    assert once.observables() == each.observables()


def test_instructions_is_a_read_only_view():
    """The flattened view is rebuilt from the batches on each read; it
    cannot be assigned, so extend stays the only way in."""
    c = _after_measuring()
    c.extend([Instruction("H", (2,))], repeat=3)
    view = c.instructions
    view.clear()
    assert c.instructions == [Instruction("M", (0, 1)),
                              *[Instruction("H", (2,))] * 3]
    with pytest.raises(AttributeError):
        c.instructions = []


@pytest.mark.parametrize("repeat", [1, 3])
@pytest.mark.parametrize("bad", [
    Instruction("CX", (1, 1)),            # an equal pair
    Instruction("H", (3,)),               # a qubit out of range
    Instruction("DETECTOR", (2,)),        # a record past the measurements
], ids=["equal-pair", "qubit-out-of-range", "record-past-measurements"])
def test_a_bad_batch_repeated_raises_as_once_and_adds_nothing(bad, repeat):
    """The record is refused although later copies would follow the
    batch's own measurement: one check covers the first copy."""
    batch = [bad, Instruction("M", (0,))]
    with pytest.raises(ValueError) as once:
        _after_measuring().extend(batch)
    c = _after_measuring()
    with pytest.raises(ValueError) as repeated:
        c.extend(batch, repeat=repeat)
    assert str(repeated.value) == str(once.value)
    assert (c.instructions, c.num_measurements) == (
        [Instruction("M", (0, 1))], 2)


@pytest.mark.parametrize("repeat", [0, -1, True, 2.0])
def test_repeat_must_be_a_positive_int(repeat):
    c = _after_measuring()
    with pytest.raises(ValueError, match="repeat must be an int >= 1"):
        c.extend([Instruction("M", (0,))], repeat=repeat)
    assert len(c.instructions) == 1 and c.num_measurements == 2


def _logged_batches(monkeypatch) -> list[tuple[int, int]]:
    """(batch length, repeat) of every extend from here on."""
    log = []
    extend = StabCircuit.extend

    def logged(self, instructions, repeat=1):
        batch = list(instructions)
        log.append((len(batch), repeat))
        extend(self, batch, repeat)

    monkeypatch.setattr(StabCircuit, "extend", logged)
    return log


def test_rounds_one_on_are_one_checked_batch(monkeypatch):
    """Round 0, round 1 added for rounds 1..3, the readout, the detectors;
    rounds 1..3 are the same objects between their TICKs."""
    log = _logged_batches(monkeypatch)
    _, circuit = surface_circuit(d=3, rounds=4)
    assert [repeat for _, repeat in log] == [1, 3, 1, 1]
    ticks = [k for k, i in enumerate(circuit.instructions) if i.name == "TICK"]
    blocks = [circuit.instructions[a:b] for a, b in zip(ticks, ticks[1:])]
    assert len(blocks) == 3 and len(blocks[0]) == log[1][0]
    assert all(a is b for block in blocks[1:]
               for a, b in zip(blocks[0], block))


def test_a_round_that_starts_otherwise_is_its_own_batch(monkeypatch):
    """With a data preparation as long as the round, every data qubit
    enters round 1 at its start and round 2 after its last CX of round 1,
    so round 1 is a batch of its own and round 2 is added for rounds 2..3.
    The circuit is pinned from the emitter that built every round on its
    own."""
    code, schedule = surface_schedule(rounds=4)
    late = replace(schedule, timing=replace(
        schedule.timing, t_init=schedule.round_makespan))
    log = _logged_batches(monkeypatch)
    circuit = emit_memory_circuit(late, code, compute_logicals(code),
                                  NoiseConfig(), "Z")
    assert [repeat for _, repeat in log] == [1, 1, 2, 1, 1]
    assert hashlib.sha256(circuit.to_text().encode()).hexdigest() == (
        "fd6b8afae9f6d8dc2290866c53aec86b0e388db117a0acefa1e76adace22f1a9")
