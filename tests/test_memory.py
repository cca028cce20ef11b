"""Memory of the verify path: text writers, emission, fault sites and scan.

Each stage keeps at most one round, one text chunk or one run of signature
rows alive besides what it returns. The guard runs every stage on the pinned
bb72 memory circuit (longest order, seed 0, 2 rounds, Z basis, as
tests/test_fingerprints.py pins it), on the same schedule at 4 rounds,
whose repeated round is one batch, and on surface d5 at 5 rounds, under
tracemalloc, and bounds the stage's peak by a stated multiple of the bytes
still allocated when it returns, which are its result's. A writer that
held every line as an object, or a scan that held every signature as a
Python int, exceeds its bound. The chunked writers must also equal the
one-list references of tests/oracles.py at every chunk boundary.
"""

import tracemalloc
from dataclasses import replace

import pytest

from oracles import circuit_text, schedule_text
from shuttleplan import compiler
from shuttleplan.chip import NoiseConfig, TimingConfig, build_grid
from shuttleplan.compiler import replicate_rounds, schedule_round
from shuttleplan.css import (compute_logicals, default_layout, load_css,
                             surface_code)
from shuttleplan.emit import StabCircuit, emit_memory_circuit
from shuttleplan.pauli import fault_scan, sites_from_noise

# stage -> the most traced peak bytes per byte the stage returns
BOUNDS = {"schedule text": 2.5, "emit": 2.0, "circuit text": 2.5,
          "sites": 3.0, "scan": 2.5}


@pytest.fixture(scope="module")
def bb72_round(bb72_path):
    code = load_css(str(bb72_path))
    return code, schedule_round(code, default_layout(code, build_grid(9, 8)),
                                TimingConfig(), order_policy="longest", seed=0)


@pytest.fixture(scope="module")
def bb72(bb72_round):
    code, schedule = bb72_round
    return code, replicate_rounds(schedule, 2)


def traced(fn, *args):
    """fn's result, the traced bytes still allocated when it returns and
    the traced peak during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def stage_ratios(code, schedule):
    """The circuit, and each stage's peak ratio."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    ratios = {}
    _, kept, peak = traced(schedule.to_text)
    ratios["schedule text"] = peak / kept
    circuit, kept, peak = traced(emit_memory_circuit, schedule, code,
                                 compute_logicals(code), NoiseConfig(), "Z")
    ratios["emit"] = peak / kept
    _, kept, peak = traced(circuit.to_text)
    ratios["circuit text"] = peak / kept
    sites, kept, peak = traced(sites_from_noise, circuit)
    ratios["sites"] = peak / kept
    scan, kept, peak = traced(fault_scan, circuit, sites)
    assert kept >= scan.rows.nbytes
    ratios["scan"] = peak / kept
    return circuit, ratios


def over_bounds(ratios):
    """Each stage whose peak ratio exceeds its bound, to two places."""
    return {stage: round(ratio, 2) for stage, ratio in ratios.items()
            if ratio > BOUNDS[stage]}


def test_verify_path_peaks_stay_within_bounds(bb72):
    _, ratios = stage_ratios(*bb72)
    assert over_bounds(ratios) == {}


def test_surface_memory_peaks_stay_within_bounds():
    """Surface d5 at 5 rounds, the benchmark's mid-size memory circuit.
    The scan holds the given site index and no second one through the
    walk: with a second it read 2.46, with one 2.21."""
    code, layout = surface_code(5)
    schedule = replicate_rounds(schedule_round(code, layout, TimingConfig()), 5)
    _, ratios = stage_ratios(code, schedule)
    assert over_bounds(ratios) == {}
    assert ratios["scan"] < 2.35


def test_repeated_round_peaks_stay_within_bounds(bb72_round):
    """bb72 at 4 rounds, whose round 1 is one batch of 3 copies: the text
    made once per repeated batch and the site index filled a copy at a
    time stay within the same bounds, and the text is the one-list
    writer's."""
    code, schedule = bb72_round
    circuit, ratios = stage_ratios(code, replicate_rounds(schedule, 4))
    assert over_bounds(ratios) == {}
    assert [copies for _, copies in circuit.batches] == [1, 3, 1, 1]
    assert circuit.to_text() == circuit_text(circuit)


CHUNK = 8
# line counts around the chunk: none, one, and each side of one chunk
AROUND = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1)


@pytest.mark.parametrize("lines", AROUND)
def test_circuit_text_equals_one_list_writer(monkeypatch, lines):
    monkeypatch.setattr(compiler, "TEXT_CHUNK", CHUNK)
    code, layout = surface_code(3)
    schedule = schedule_round(code, layout, TimingConfig())
    whole = emit_memory_circuit(schedule, code, compute_logicals(code),
                                NoiseConfig(), "Z")
    circuit = StabCircuit(whole.num_qubits)
    circuit.extend(whole.instructions[:lines])
    text = circuit.to_text()
    assert text == circuit_text(circuit)
    assert text.count("\n") == max(lines, 1)
    assert whole.to_text() == circuit_text(whole)


@pytest.mark.parametrize("events", AROUND)
def test_schedule_text_equals_one_list_writer(monkeypatch, events):
    """The header is always written, so the chunk is set to hold the
    header and CHUNK event lines."""
    code, layout = surface_code(3)
    schedule = schedule_round(code, layout, TimingConfig())
    header = len(schedule.header_lines())
    monkeypatch.setattr(compiler, "TEXT_CHUNK", header + CHUNK)
    kept, left = {}, events
    for a, evs in schedule.events.items():
        kept[a], left = evs[:left], left - len(evs[:left])
    cut = replace(schedule, events=kept)
    text = cut.to_text()
    assert text == schedule_text(cut)
    assert text.count("\n") == header + events
    assert schedule.to_text() == schedule_text(schedule)


def test_pinned_bb72_texts_equal_one_list_writers(bb72):
    """Many chunks at the default chunk size."""
    code, schedule = bb72
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), "Z")
    assert circuit.to_text() == circuit_text(circuit)
    assert schedule.to_text() == schedule_text(schedule)
    assert len(circuit.instructions) > 4 * compiler.TEXT_CHUNK
