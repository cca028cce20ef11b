import math

import numpy as np
import pytest

from shuttleplan.chip import NoiseConfig, TimingConfig, build_grid
from shuttleplan.compiler import replicate_rounds, schedule_round
from shuttleplan.css import (CodeError, compute_logicals, default_layout,
                             load_css, surface_code)
from shuttleplan.emit import (NOISE_CHANNELS, StabCircuit, add_detectors,
                              compose_phase_flips, emit_memory_circuit)
from shuttleplan.pauli import simulate_noiseless

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
    _, circuit = surface_circuit(noise=NoiseConfig.zero())
    counts = circuit.counts()
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
    segs = [circuit.instructions[i] for i in circuit.noise_sites(kind="shuttle")]
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
    idles = circuit.noise_sites(kind="idle")
    assert idles, "data qubits must accumulate idle noise between visits"


def test_displace_noise_per_event():
    _, circuit = surface_circuit(noise=NoiseConfig())
    code, layout = surface_code(3)
    schedule = schedule_round(code, layout, TIMING, tailored=True)
    displaces = sum(1 for evs in schedule.events.values()
                    for ev in evs if ev.kind == "DISPLACE")
    assert len(circuit.noise_sites(kind="displace")) == displaces


def test_detector_counts_surface_d3_three_rounds():
    _, circuit = surface_circuit(d=3, rounds=3, basis="z")
    # 4 first-round Z detectors + 8 checks x 2 comparison rounds + 4 final
    assert len(circuit.detectors()) == 4 + 16 + 4
    assert len(circuit.observables()) == 1


def test_detector_counts_single_round():
    _, circuit = surface_circuit(d=3, rounds=1, basis="z")
    assert len(circuit.detectors()) == 4 + 4
    assert len(circuit.observables()) == 1


def test_x_basis_detector_counts():
    _, circuit = surface_circuit(d=3, rounds=2, basis="x")
    assert len(circuit.detectors()) == 4 + 8 + 4
    assert len(circuit.observables()) == 1


def test_bb72_twelve_observables(bb72_path):
    code = load_css(str(bb72_path))
    layout = default_layout(code, build_grid(9, 8))
    schedule = schedule_round(code, layout, TIMING)
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig.zero(), "z")
    assert len(circuit.observables()) == 12
    report = simulate_noiseless(circuit)
    assert report.all_detectors_deterministic_zero
    assert report.all_observables_deterministic


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("tailored", [True, False])
@pytest.mark.parametrize("rounds", [1, 2])
def test_noiseless_determinism_d3(basis, tailored, rounds):
    _, circuit = surface_circuit(d=3, rounds=rounds, basis=basis,
                                 tailored=tailored, noise=NoiseConfig.zero())
    report = simulate_noiseless(circuit)
    assert report.all_detectors_deterministic_zero
    assert report.all_observables_deterministic
    for obs in report.observables.values():
        assert obs.const == 0


def test_tailored_h_excess_matches_movement_periods():
    code, layout = surface_code(3)
    plain = schedule_round(code, layout, TIMING, tailored=False)
    tail = schedule_round(code, layout, TIMING, tailored=True)
    logicals = compute_logicals(code)
    noise = NoiseConfig.zero()
    h_plain = emit_memory_circuit(plain, code, logicals, noise, "z").counts()["H"]
    h_tail = emit_memory_circuit(tail, code, logicals, noise, "z").counts()["H"]
    z_weights = [len(t.targets) for t in tail.tasks if t.basis == "Z"]
    assert h_tail - h_plain == sum(2 * (w + 1) for w in z_weights)


def test_per_round_measurement_counts():
    code, circuit = surface_circuit(d=3, rounds=3, basis="z")
    anc_measurements = [i for i in circuit.instructions
                        if i.name == "M" and i.meta
                        and i.meta.get("kind") == "anc_measure"]
    assert len(anc_measurements) == 8 * 3
    # a record index follows from instruction order and is stored nowhere
    assert not any(i.meta and "m_index" in i.meta for i in circuit.instructions)
    # only noise and measurement instructions carry metadata, and all do
    read = {*NOISE_CHANNELS, "M", "MX"}
    assert all((i.meta is not None) == (i.name in read)
               for i in circuit.instructions)
    cx = circuit.counts()["CX"]
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
                            NoiseConfig.zero(), "y")


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
        c.append(name, (0, 1, 2), arg=arg)
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
        c.append(name, (0, bad))
    assert c.instructions == [] and c.num_measurements == 0


def test_append_accepts_numpy_integer_targets():
    c = StabCircuit(3)
    c.append("CX", (np.int64(0), np.uint8(2)))
    assert c.to_text() == "CX 0 2\n"


def test_append_accepts_measurement_record_targets():
    """DETECTOR and OBSERVABLE_INCLUDE targets index measurements, not
    qubits, so they are not range checked against num_qubits."""
    c = StabCircuit(1)
    c.append("R", (0,))
    for _ in range(3):
        c.append("M", (0,))
    c.append("DETECTOR", (1, 2))
    c.append("OBSERVABLE_INCLUDE", (2,), arg=(0,))
    c.append("TICK")
    assert c.num_measurements == 3 and len(c.instructions) == 7


@pytest.mark.parametrize("name", ["CZ", "m", "SHIFT_COORDS", ""])
def test_append_rejects_unknown_instruction(name):
    """An instruction the simulators do not know would be skipped by them."""
    c = StabCircuit(2)
    with pytest.raises(ValueError, match="unknown instruction"):
        c.append(name, (0, 1))
    assert c.instructions == []


@pytest.mark.parametrize("name", ["DETECTOR", "OBSERVABLE_INCLUDE"])
@pytest.mark.parametrize("bad", [-1, 2, 5, 0.5])
def test_append_rejects_record_out_of_range(name, bad):
    """Records index the measurements made so far: rec[-k] must exist, and a
    float record is refused, not truncated."""
    c = StabCircuit(2)
    c.append("M", (0, 1))
    arg = (0,) if name == "OBSERVABLE_INCLUDE" else None
    error, match = ((TypeError, "integer") if isinstance(bad, float)
                    else (ValueError, "outside the 2 measurements"))
    with pytest.raises(error, match=match):
        c.append(name, (0, bad), arg=arg)
    assert len(c.instructions) == 1
