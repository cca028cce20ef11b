import random

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from conftest import NOISELESS
from oracles import (DenseTableau, detector_targets, expand_noise,
                     noiseless_outcomes, propagate_frame)
from shuttleplan import pauli
from shuttleplan.chip import NoiseConfig, TimingConfig, build_grid
from shuttleplan.compiler import replicate_rounds, schedule_round
from shuttleplan.css import (compute_logicals, default_layout, load_css,
                             surface_code)
from shuttleplan.emit import (_QUBIT_OPS, NOISE_CHANNELS, Instruction,
                              StabCircuit, emit_memory_circuit)
from shuttleplan.pauli import (NoiselessReport, fault_scan,
                               simulate_noiseless, sites_from_noise)


def z_check_circuit(tailored: bool) -> StabCircuit:
    """One Z ancilla (qubit 4) visiting data 0..3; noise markers per hop."""
    h = [Instruction("H", (4,))] if tailored else []
    batch = [Instruction("R", (4,), meta={"kind": "anc_init"}), *h]
    for i in range(4):
        batch += [Instruction("Z_ERROR", (4,), (1e-3,),
                              {"kind": "shuttle", "hop": i}),
                  *h, Instruction("CX", (i, 4)), *h]
    batch += [Instruction("Z_ERROR", (4,), (1e-3,),
                          {"kind": "shuttle", "hop": 4}),
              *h, Instruction("M", (4,), None,
                              {"kind": "anc_measure", "check": 0})]
    c = StabCircuit(5)
    c.extend(batch)
    return c


def hop_index(circuit, hop):
    (idx,) = [i for i, instr in enumerate(circuit.instructions)
              if instr.meta == {"kind": "shuttle", "hop": hop}]
    return idx


def x_check_circuit() -> StabCircuit:
    """One X ancilla (qubit 4) driving CXs onto data 0..3 between its
    basis-change Hs; noise markers per hop."""
    batch = [Instruction("R", (4,)), Instruction("H", (4,))]
    for i in range(4):
        batch += [Instruction("Z_ERROR", (4,), (1e-3,),
                              {"kind": "shuttle", "hop": i}),
                  Instruction("CX", (4, i))]  # X ancilla drives the CX
    batch += [Instruction("Z_ERROR", (4,), (1e-3,),
                          {"kind": "shuttle", "hop": 4}),
              Instruction("H", (4,)), Instruction("M", (4,))]
    c = StabCircuit(5)
    c.extend(batch)
    return c


DATA = set(range(4))


def test_untailored_fault_after_second_cx_hits_later_data():
    c = z_check_circuit(tailored=False)
    xs, zs, flips = propagate_frame(c, hop_index(c, 2), [(4, "Z")])
    assert not xs
    assert zs & DATA == {2, 3}  # Z lands on data 2 and 3
    assert flips == []          # Z on ancilla: measurement intact


def test_tailored_fault_flips_only_the_measurement():
    c = z_check_circuit(tailored=True)
    for hop in range(5):
        xs, zs, flips = propagate_frame(c, hop_index(c, hop), [(4, "Z")])
        assert not (xs | zs) & DATA
        assert flips == [0]


def test_identity_fault_is_silent():
    c = z_check_circuit(tailored=False)
    assert propagate_frame(c, 0, []) == (set(), set(), [])


def test_x_ancilla_dephasing_never_reaches_data():
    """Z faults anywhere between the basis-change Hs leave data untouched."""
    c = x_check_circuit()
    for hop in range(5):
        xs, zs, flips = propagate_frame(c, hop_index(c, hop), [(4, "Z")])
        assert not (xs | zs) & DATA
        assert flips == [0]


def test_sites_from_noise_expansion():
    c = StabCircuit(2)
    c.extend([Instruction("X_ERROR", (0,), (0.1,)),
              Instruction("DEPOLARIZE1", (1,), (0.1,)),
              Instruction("DEPOLARIZE2", (0, 1), (0.1,))])
    sites = sites_from_noise(c)
    assert len(sites) == 1 + 3 + 15


def assert_index_equal(sites: np.ndarray, faults) -> None:
    """`sites` is an int32 vector of the instruction of every fault."""
    assert (sites.dtype, sites.ndim) == (np.int32, 1)
    assert sites.tolist() == [index for index, _ in faults]


def every_channel_circuit() -> StabCircuit:
    c = StabCircuit(4)
    c.extend([Instruction("R", (0, 1, 2, 3)),
              Instruction("X_ERROR", (0, 3), (0.1,)),
              Instruction("DEPOLARIZE2", (0, 1, 3, 2), (0.1,)),
              Instruction("CX", (0, 1)),
              Instruction("Z_ERROR", (2,), (0.1,)),
              Instruction("DEPOLARIZE1", (1, 2, 0), (0.1,)),
              Instruction("H", (3,)),
              Instruction("DEPOLARIZE2", (2, 3), (0.1,)),
              Instruction("M", (0, 1, 2, 3))])
    return c


@pytest.mark.parametrize("indices", [None, [7, 1, 4], [5], []])
def test_sites_match_noise_oracle_on_every_channel(indices):
    """The whole circuit, or one made of the listed instructions of it."""
    c = every_channel_circuit()
    if indices is not None:
        whole, c = c, StabCircuit(c.num_qubits)
        c.extend([whole.instructions[i] for i in indices])
    sites = sites_from_noise(c)
    faults = expand_noise(c)
    assert len(sites) == len(faults)
    assert_index_equal(sites, faults)
    if indices is None:
        assert len(sites) == 2 + 2 * 15 + 1 + 3 * 3 + 15


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_sites_match_noise_oracle_on_surface_d3(basis):
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, basis)
    assert_index_equal(sites_from_noise(circuit), expand_noise(circuit))


def test_sites_match_noise_oracle_on_bb72(bb72_schedule):
    code, schedule = bb72_schedule
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), "Z")
    assert_index_equal(sites_from_noise(circuit), expand_noise(circuit))


def test_fault_sites_memory_is_flat():
    """The sites hold 4 bytes each and nothing per site beyond that (no
    objects, no per-term columns, no metadata copies)."""
    code, layout = surface_code(3)
    sites = sites_from_noise(memory_circuit(code, layout, 2, "Z"))
    assert len(sites) > 1000
    assert sites.nbytes == 4 * len(sites)


def record_flips(circuit: StabCircuit):
    """Scan the sites of `circuit`'s noise on a copy of it (it has no
    detectors or observables) with one DETECTOR per measurement record and
    one OBSERVABLE_INCLUDE of every record. Returns, per site, the records
    `fault_scan` says it flips, and the observable's flip; checks that the
    padding bits of every row are zero."""
    c = StabCircuit(circuit.num_qubits)
    records = tuple(range(circuit.num_measurements))
    c.extend([*circuit.instructions,
              *(Instruction("DETECTOR", (m,)) for m in records),
              Instruction("OBSERVABLE_INCLUDE", records, (0,))])
    result = fault_scan(c, sites_from_noise(c))
    split = 8 * -(-len(records) // 8)  # the observable's bit
    bits = np.unpackbits(result.rows, axis=1, bitorder="little")
    assert not bits[:, len(records):split].any()
    assert not bits[:, split + 1:].any()
    flipped = [np.flatnonzero(row).tolist()
               for row in result.detector_flips(c)]
    return flipped, result.observable_flips(c)[:, 0].tolist()


def test_fault_scan_takes_cx_pairs_in_order():
    """A CX's pairs act in order (CX 0 1 1 2 is CX 0 1, then CX 1 2), as
    the frame oracle takes them: every single-qubit fault before the two
    chained CXs flips the measurements the oracle gives."""
    c = parse("R 0 1 2; DEPOLARIZE1 0 1 2; CX 0 1 1 2; CX 2 1 1 0; M 0 1 2; "
              "MX 0 1 2", 3)
    faults = expand_noise(c)
    flipped, _ = record_flips(c)
    assert len(flipped) == 9
    assert flipped == [propagate_frame(c, index, paulis)[2]
                       for index, paulis in faults]


def test_fault_scan_matches_single_propagation():
    """Every hop fault of the check circuits flips the measurement in the
    scan exactly when it does in the frame oracle."""
    for c in (z_check_circuit(True), z_check_circuit(False),
              x_check_circuit()):
        faults = expand_noise(c)
        flipped, parity = record_flips(c)
        assert len(faults) == len(flipped) == 5
        assert flipped == [propagate_frame(c, index, paulis)[2]
                           for index, paulis in faults]
        assert parity == [len(f) % 2 for f in flipped]


def verdicts(circuit: StabCircuit, *parities) -> list:
    """`simulate_noiseless`'s detector verdicts on `circuit` with one
    DETECTOR per measurement record, then one per tuple in `parities`."""
    c = StabCircuit(circuit.num_qubits)
    c.extend([*circuit.instructions,
              *(Instruction("DETECTOR", (m,))
                for m in range(circuit.num_measurements)),
              *(Instruction("DETECTOR", records) for records in parities)])
    return simulate_noiseless(c).detectors


def parse(text: str, num_qubits: int = 2) -> StabCircuit:
    """A circuit from ``"NAME t t; NAME t; ..."``; a noise channel gets
    the probability 0.1."""
    c = StabCircuit(num_qubits)
    c.extend([Instruction(name, tuple(map(int, targets)),
                          (0.1,) if name in NOISE_CHANNELS else None)
              for name, *targets in map(str.split, text.split(";"))])
    return c


def test_simulate_reset_measure_deterministic_zero():
    assert verdicts(parse("R 0; M 0", 1)) == [0]


def test_simulate_hadamard_gives_random_flag():
    assert verdicts(parse("R 0; H 0; M 0", 1)) == [None]


def test_repeated_random_measurement_is_correlated():
    """Same stabilizer measured twice: detector parity is deterministic 0."""
    # measure X0 X1 twice via an ancilla-free trick: H, CX, M chains
    c = parse("R 0; R 1" + "; H 0; CX 0 1; M 1; CX 0 1; H 0" * 2)
    assert verdicts(c, (0, 1)) == [None, None, 0]


def test_reset_clears_entanglement():
    # reset one half of a Bell pair
    assert verdicts(parse("R 0; R 1; H 0; CX 0 1; R 1; M 1")) == [0]


def test_bell_pair_parity_deterministic():
    c = parse("R 0; R 1; H 0; CX 0 1; M 0; M 1")
    assert verdicts(c, (0, 1)) == [None, None, 0]


def test_h_sign_gives_value_one():
    """Stepping back from Z0 Z1, the middle H meets an X and a Z on qubit 0
    and flips the sign, the only rule that does: the parity of M 0 1 is
    deterministic 1, as the oracle says."""
    c = parse("R 0 1; H 0; CX 0 1; H 0; CX 0 1; H 0; M 0 1; DETECTOR 0 1")
    assert assert_noiseless_matches_oracle(c).detectors == [1]


@pytest.mark.parametrize("text, want", [
    ("H 0; M 0 1", [None, 0]),                # X against the initial |0>
    ("RX 0; M 0 1", [None, 0]),               # Z against RX
    ("MX 0; M 0 1", [None, None, 0]),         # Z against MX
    ("R 0; H 0; M 0 1", [None, 0]),           # X against R
    ("H 0; M 0; H 0; M 0 1", [None, None, 0]),  # X against M
])
def test_anticommuting_with_a_reset_or_measurement_is_random(text, want):
    assert verdicts(parse(text)) == want


def noise_instruction(rng, n: int) -> Instruction:
    """One of the four noise channels on a random qubit, or on a random
    pair for DEPOLARIZE2 (never drawn on one qubit)."""
    name = rng.choice([c for c in NOISE_CHANNELS
                       if n > 1 or c != "DEPOLARIZE2"])
    width = 2 if name == "DEPOLARIZE2" else 1
    return Instruction(name, tuple(rng.sample(range(n), width)), (0.01,))


def random_circuit(rng, n=8, length=50, noise=None) -> StabCircuit:
    """R on every qubit, `length` random gates and M on every qubit, with
    `noise` noise instructions (length // 5 unless given) at random places
    among them: the first and the last instruction are noise when there are
    two or more."""
    batch = [Instruction("R", (q,)) for q in range(n)]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35:
            batch.append(Instruction("H", (rng.randrange(n),)))
        elif roll < 0.7 and n > 1:
            a = rng.randrange(n)
            b = rng.randrange(n)
            while b == a:
                b = rng.randrange(n)
            batch.append(Instruction("CX", (a, b)))
        elif roll < 0.8:
            batch.append(Instruction("R" if rng.random() < 0.5 else "RX",
                                     (rng.randrange(n),)))
        elif roll < 0.95:
            batch.append(Instruction("M", (rng.randrange(n),)))
        else:
            batch.append(Instruction("MX", (rng.randrange(n),)))
    batch += [Instruction("M", (q,)) for q in range(n)]
    count = length // 5 if noise is None else noise
    places = sorted(rng.randint(0, len(batch)) for _ in range(count))
    if count >= 2:
        places[0], places[-1] = 0, len(batch)
    for place in reversed(places):
        batch.insert(place, noise_instruction(rng, n))
    c = StabCircuit(n)
    c.extend(batch)
    return c


def tableau_run(circuit: StabCircuit, inject=None):
    """(const, mask, random) of every measurement of a noiseless dense
    tableau run, with an optional Pauli injected mid-circuit."""
    tab = DenseTableau(circuit.num_qubits)
    outcomes = []
    for idx, instr in enumerate(circuit.instructions):
        if instr.name == "R":
            for q in instr.targets:
                tab.reset(q)
        elif instr.name == "RX":
            for q in instr.targets:
                tab.reset(q)
                tab.h(q)
        elif instr.name == "H":
            for q in instr.targets:
                tab.h(q)
        elif instr.name == "CX":
            tab.cx(*instr.targets)
        elif instr.name == "M":
            outcomes.append(tab.measure(instr.targets[0]))
        elif instr.name == "MX":
            q = instr.targets[0]
            tab.h(q)
            outcomes.append(tab.measure(q))
            tab.h(q)
        if inject is not None and inject[0] == idx:
            # a Pauli flips the sign of every row it anticommutes with:
            # X_q those with a Z on q, Z_q those with an X on q
            for q, p in inject[1]:
                if p in ("X", "Y"):
                    tab.sign ^= tab.z[:, q]
                if p in ("Z", "Y"):
                    tab.sign ^= tab.x[:, q]
    return outcomes


def test_frame_agrees_with_tableau_on_random_circuits():
    """Frame flips match tableau sign differences on deterministic quantities.

    A fault's flip of an individually random outcome is only defined up to a
    relabeling of the fresh random bits, so the comparison uses the
    coupling-invariant observables: deterministic measurements and parities
    of measurements whose symbolic outcomes share the same random-bit mask.
    """
    rng = random.Random(99)
    compared = 0
    for trial in range(500):
        circuit = random_circuit(rng)
        faults = expand_noise(circuit)
        site = rng.randrange(len(faults))
        idx, paulis = faults[site]

        clean = tableau_run(circuit)
        dirty = tableau_run(circuit, inject=(idx, paulis))
        assert len(clean) == len(dirty) == circuit.num_measurements
        for (_, a, _), (_, b, _) in zip(clean, dirty):
            assert a == b, "fault changed the randomness structure"

        flipped, _ = record_flips(circuit)
        frame_flips = set(flipped[site])

        for i, ((a, mask, _), (b, _, _)) in enumerate(zip(clean, dirty)):
            if mask == 0:
                compared += 1
                assert (a != b) == (i in frame_flips), (
                    f"trial {trial}: deterministic measurement {i}")
        for i in range(len(clean)):
            for j in range(i + 1, len(clean)):
                if clean[i][1] and clean[i][1] == clean[j][1]:
                    compared += 1
                    tab = (clean[i][0] ^ clean[j][0]
                           ^ dirty[i][0] ^ dirty[j][0])
                    frm = (i in frame_flips) ^ (j in frame_flips)
                    assert tab == frm, (
                        f"trial {trial}: parity of measurements {i},{j}")
    assert compared > 3000, "too few comparable observables across the corpus"


def memory_circuit(code, layout, rounds, basis, tailored=True):
    schedule = schedule_round(code, layout, TimingConfig(), tailored=tailored)
    return emit_memory_circuit(replicate_rounds(schedule, rounds), code,
                               compute_logicals(code), NoiseConfig(), basis)


@pytest.mark.parametrize("num_noise", [0, 1, 63, 64, 65, 130])
def test_fault_scan_matches_frame_oracle(num_noise):
    """Every site of `num_noise` noise instructions of all four channels,
    the first and last instruction among them, flips the measurements of
    a one-fault set propagation; the padding bits of each row stay zero."""
    rng = random.Random(num_noise)
    for _ in range(3):
        circuit = random_circuit(rng, noise=num_noise)
        faults = expand_noise(circuit)
        flipped, parity = record_flips(circuit)
        assert len(flipped) == len(faults) >= num_noise
        assert flipped == [propagate_frame(circuit, index, paulis)[2]
                           for index, paulis in faults]
        assert parity == [len(f) % 2 for f in flipped]


def parities(flipped: set, groups) -> list[int]:
    """Per group of records, the parity of its flipped ones; a record
    repeated in a group counts each time, as the circuit XORs it in."""
    return [sum(m in flipped for m in targets) % 2 for targets in groups]


def oracle_flips(circuit, faults) -> tuple[list, list]:
    """Per fault, the frame oracle's detector and observable flips: the
    parities of the measurements it flips, observables by index."""
    dets = detector_targets(circuit)
    obs = [targets for _, targets in sorted(circuit.observables().items())]
    expect_det, expect_obs = [], []
    for index, paulis in faults:
        flipped = set(propagate_frame(circuit, index, paulis)[2])
        expect_det.append(parities(flipped, dets))
        expect_obs.append(parities(flipped, obs))
    return expect_det, expect_obs


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_detector_and_observable_flips_match_frame_oracle(basis):
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, basis)
    result = fault_scan(circuit, sites_from_noise(circuit))
    expect_det, expect_obs = oracle_flips(circuit, expand_noise(circuit))
    det_flips = result.detector_flips(circuit)
    assert det_flips.dtype == np.uint8
    assert det_flips.tolist() == expect_det
    assert result.observable_flips(circuit).tolist() == expect_obs
    assert det_flips.any() and np.array(expect_obs).any()


def undetected_logical(circuit) -> int:
    """Single faults that flip an observable and no detector."""
    result = fault_scan(circuit, sites_from_noise(circuit))
    detected = result.detector_flips(circuit).any(axis=1)
    logical = result.observable_flips(circuit).any(axis=1)
    return int((logical & ~detected).sum())


@pytest.mark.parametrize("tailored", [True, False])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("d", [3, 5])
def test_no_undetected_logical_single_fault_surface(d, basis, tailored):
    code, layout = surface_code(d)
    assert undetected_logical(
        memory_circuit(code, layout, 2, basis, tailored)) == 0


def observables_by_detectors(circuit) -> dict[bytes, set[bytes]]:
    """The single-fault signatures grouped by their detector bytes: each
    group's set of distinct observable byte strings. Two sites in one group
    with different observables make an undetected logical of weight 2; a
    nonzero observable in the all-zero group, one of weight 1."""
    result = fault_scan(circuit, sites_from_noise(circuit))
    split = -(-len(detector_targets(circuit)) // 8)
    groups: dict[bytes, set[bytes]] = {}
    for row in result.rows:
        groups.setdefault(row[:split].tobytes(), set()).add(
            row[split:].tobytes())
    return groups


def assert_no_undetected_logical_pair(circuit) -> None:
    groups = observables_by_detectors(circuit)
    assert [obs for obs in groups.values() if len(obs) > 1] == []
    split = -(-len(detector_targets(circuit)) // 8)
    nobs = -(-len(circuit.observables()) // 8)
    assert groups.get(bytes(split), {bytes(nobs)}) == {bytes(nobs)}


@pytest.mark.parametrize("tailored", [True, False])
@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("d", [3, 5])
def test_no_undetected_logical_fault_pair_surface(d, basis, tailored):
    code, layout = surface_code(d)
    assert_no_undetected_logical_pair(
        memory_circuit(code, layout, 2, basis, tailored))


@pytest.fixture(scope="module")
def bb72_schedule(bb72_path):
    code = load_css(str(bb72_path))
    layout = default_layout(code, build_grid(9, 8))
    return code, replicate_rounds(schedule_round(code, layout, TimingConfig()), 2)


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_no_undetected_logical_single_fault_bb72(bb72_schedule, basis):
    code, schedule = bb72_schedule
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), basis)
    assert len(circuit.observables()) == 12
    assert undetected_logical(circuit) == 0


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_no_undetected_logical_fault_pair_bb72(bb72_schedule, basis):
    code, schedule = bb72_schedule
    assert_no_undetected_logical_pair(emit_memory_circuit(
        schedule, code, compute_logicals(code), NoiseConfig(), basis))


def test_bb72_sample_matches_frame_oracle(bb72_schedule):
    """A seeded sample of bb72 sites flips the detectors and observables
    the frame oracle gives."""
    code, schedule = bb72_schedule
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), "Z")
    faults = expand_noise(circuit)
    sample = random.Random(72).sample(range(len(faults)), 64)
    result = fault_scan(circuit, sites_from_noise(circuit))
    expect_det, expect_obs = oracle_flips(circuit, [faults[r] for r in sample])
    assert result.detector_flips(circuit)[sample].tolist() == expect_det
    assert result.observable_flips(circuit)[sample].tolist() == expect_obs
    assert np.array(expect_det).any()


def test_scan_rows_equal_for_wide_and_narrow_sites(bb72_schedule):
    """The noise oracle's sites as int64 and sites_from_noise's int32 ones
    give byte-identical rows."""
    code, schedule = bb72_schedule
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), "Z")
    narrow = sites_from_noise(circuit)
    wide = np.array([index for index, _ in expand_noise(circuit)],
                    dtype=np.int64)
    assert narrow.dtype == np.int32
    rows = fault_scan(circuit, narrow).rows
    assert rows.tobytes() == fault_scan(circuit, wide).rows.tobytes()
    assert rows.shape == (len(narrow),
                          -(-len(detector_targets(circuit)) // 8) + 2)


@pytest.mark.parametrize("run_rows", [1, 2, 7])
def test_scan_rows_do_not_depend_on_the_run_length(monkeypatch, run_rows):
    """Finished signatures are written in runs of at most _RUN_ROWS
    consecutive sites; any run length gives the same rows."""
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, "X")
    sites = sites_from_noise(circuit)
    want = fault_scan(circuit, sites).rows.tobytes()
    monkeypatch.setattr(pauli, "_RUN_ROWS", run_rows)
    assert fault_scan(circuit, sites).rows.tobytes() == want


def test_flips_read_the_counts_the_scan_kept(monkeypatch):
    """The scan walks the circuit once for its detectors and observables,
    and the flips walk it not at all."""
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, "Z")
    detectors, observables = detector_targets(circuit), circuit.observables()

    def walk(self):
        raise AssertionError("the circuit was walked again")

    monkeypatch.setattr(StabCircuit, "observables", walk)
    result = fault_scan(circuit, sites_from_noise(circuit))
    # the flips must read neither the instructions nor the batches
    monkeypatch.setattr(StabCircuit, "instructions", property(walk))
    circuit.batches = None
    assert (result.num_detectors, result.num_observables) == (
        len(detectors), len(observables))
    assert result.detector_flips(circuit).shape == (len(result.sites),
                                                    len(detectors))
    assert result.observable_flips(circuit).shape == (len(result.sites), 1)


def test_flips_refuse_another_circuit():
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, "Z")
    result = fault_scan(circuit, sites_from_noise(circuit))
    wider = StabCircuit(circuit.num_qubits + 1)
    wider.extend(circuit.instructions)
    longer = StabCircuit(circuit.num_qubits)
    longer.extend([*circuit.instructions, Instruction("M", (0,))])
    for other in (wider, longer, memory_circuit(code, layout, 3, "Z")):
        for flips in (result.detector_flips, result.observable_flips):
            with pytest.raises(ValueError, match="the scanned one"):
                flips(other)


def test_scan_memory_is_bit_packed():
    """The result holds one row of ceil(ndet / 8) + ceil(nobs / 8) bytes per
    site, not a byte per (site, detector)."""
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, "Z")
    sites = sites_from_noise(circuit)
    result = fault_scan(circuit, sites)
    row = (-(-len(detector_targets(circuit)) // 8)
           + -(-len(circuit.observables()) // 8))
    assert len(sites) > 1000
    assert result.rows.nbytes <= len(sites) * row + 1024


@pytest.mark.parametrize("index", [3, 99, -1])
def test_fault_scan_rejects_instruction_out_of_range(index):
    c = parse("X_ERROR 0; Z_ERROR 1; M 0 1")
    with pytest.raises(ValueError, match="2 fault sites given, not the 2 "):
        fault_scan(c, np.array([0, index]))


def test_fault_scan_refuses_sites_of_another_circuit():
    """Sites with another count, or with the same count after other
    instructions, are not this circuit's."""
    code, layout = surface_code(3)
    two, three = (memory_circuit(code, layout, rounds, "Z")
                  for rounds in (2, 3))
    with pytest.raises(ValueError, match="not the"):
        fault_scan(three, sites_from_noise(two))
    late, early = parse("H 0; X_ERROR 0; M 0", 1), parse("X_ERROR 0; H 0; M 0", 1)
    assert len(sites_from_noise(late)) == len(sites_from_noise(early)) == 1
    with pytest.raises(ValueError, match="1 fault sites given, not the 1 "):
        fault_scan(early, sites_from_noise(late))


def assert_noiseless_matches_oracle(circuit: StabCircuit) -> NoiselessReport:
    """Every detector and observable verdict equals the dense tableau
    oracle's: random where its outcome mask is nonzero, else its value."""
    report = simulate_noiseless(circuit)
    verdict = lambda out: None if out[1] else out[0]
    _, detectors, observables = noiseless_outcomes(circuit)
    assert report.detectors == list(map(verdict, detectors))
    assert report.observables == {k: verdict(out)
                                  for k, out in observables.items()}
    return report


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31, 64, 70])
def test_tableau_matches_dense_oracle_on_random_circuits(n):
    """R, RX, H, CX, M and MX at random on 1 to 70 qubits, then random
    record parities as detectors and observables."""
    rng = random.Random(n)
    for _ in range(40 if n < 64 else 2):
        circuit = random_circuit(rng, n=n, length=rng.randint(n, 8 * n))
        records = range(circuit.num_measurements)
        pick = lambda most: rng.sample(records,
                                       rng.randint(1, min(most, len(records))))
        circuit.extend([
            *(Instruction("DETECTOR", pick(3)) for _ in range(5)),
            *(Instruction("OBSERVABLE_INCLUDE", pick(4), (obs,))
              for obs in range(2))])
        assert_noiseless_matches_oracle(circuit)


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("d", [3, 5])
def test_tableau_matches_dense_oracle_on_surface(d, basis):
    code, layout = surface_code(d)
    report = assert_noiseless_matches_oracle(
        memory_circuit(code, layout, 2, basis))
    assert report.all_detectors_deterministic_zero
    assert report.all_observables_deterministic


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_tableau_matches_dense_oracle_on_bb72(bb72_schedule, basis):
    code, schedule = bb72_schedule
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), basis)
    report = assert_noiseless_matches_oracle(circuit)
    assert report.all_detectors_deterministic_zero
    assert len(report.observables) == 12


# the gates the walk has a rule for, and the noise channels it reads
GATES = ("H", "R", "RX", "M", "MX", "CX")
NOISE = tuple(NOISE_CHANNELS)


def test_the_random_circuits_draw_every_emitted_gate():
    """Every qubit instruction the emitter knows, other than QUBIT_COORDS,
    is a gate or noise channel the random circuits draw: a new one fails
    here until the walk has a rule for it and the strategy draws it."""
    assert set(GATES) | set(NOISE_CHANNELS) == _QUBIT_OPS - {"QUBIT_COORDS"}


# one-target H, R, RX, M and MX, one-pair CX and one-qubit or one-pair
# noise, as in random_circuit, and their wider forms: several targets, a
# qubit repeated in M, MX and the one-qubit noise channels, chained CX and
# DEPOLARIZE2 pairs
@st.composite
def multi_target_circuits(draw):
    n = draw(st.integers(1, 5))
    qubit = st.integers(0, n - 1)

    def instruction(name: str) -> list[Instruction]:
        """One `name` instruction on drawn targets; none for a pair
        instruction on one qubit."""
        if name in ("CX", "DEPOLARIZE2"):
            if n == 1:
                return []
            pairs = draw(st.lists(st.lists(qubit, min_size=2, max_size=2,
                                           unique=True),
                                  min_size=1, max_size=4))
            targets = [q for pair in pairs for q in pair]
        else:
            targets = draw(st.lists(qubit, min_size=1, max_size=4,
                                    unique=name in ("H", "R", "RX")))
        arg = (0.1,) if name in NOISE_CHANNELS else None
        return [Instruction(name, targets, arg)]

    gates = []
    for _ in range(draw(st.integers(0, 14))):
        gates += instruction(draw(st.sampled_from(GATES + NOISE)))
    gates.append(Instruction("M", draw(st.lists(qubit, min_size=1,
                                                max_size=n))))
    c = StabCircuit(n)
    c.extend(gates)
    record = st.integers(0, c.num_measurements - 1)
    records = [Instruction("DETECTOR", draw(st.lists(record, max_size=4)))
               for _ in range(draw(st.integers(1, 6)))]
    records += [Instruction("OBSERVABLE_INCLUDE",
                            draw(st.lists(record, max_size=4)),
                            (draw(st.integers(0, 2)),))
                for _ in range(draw(st.integers(0, 3)))]
    # noise may also be the last instruction
    for name in draw(st.lists(st.sampled_from(NOISE), max_size=1)):
        records += instruction(name)
    c.extend(records)
    return c


@given(multi_target_circuits())
@example(parse("H 0; CX 0 1 1 2; M 2; DETECTOR 0", 3))  # random, not 0
@settings(max_examples=300, deadline=None)
def test_walk_matches_dense_oracle_on_multi_target_circuits(circuit):
    """Records across multi-target M and MX and CX pairs taken in reverse
    give the oracle's verdicts."""
    assert_noiseless_matches_oracle(circuit)


@given(multi_target_circuits())
@settings(max_examples=300, deadline=None)
def test_scan_matches_frame_oracle_on_multi_target_circuits(circuit):
    """Every site of the noise instructions of multi-target circuits flips
    the detectors and observables whose records the frame oracle flips an
    odd number of times."""
    result = fault_scan(circuit, sites_from_noise(circuit))
    expect_det, expect_obs = oracle_flips(circuit, expand_noise(circuit))
    assert result.detector_flips(circuit).tolist() == expect_det
    assert result.observable_flips(circuit).tolist() == expect_obs


def ends_circuit(noise: str = "", after: int = 0) -> StabCircuit:
    """A Bell pair from |00> without resets: H 0 is the first instruction,
    and the observable of both records the last; `noise`, a noise
    instruction in `parse`'s text, if any, comes right after instruction
    `after`."""
    batch = [*parse("H 0; CX 0 1; M 0 1; DETECTOR 0; DETECTOR 1").instructions,
             Instruction("OBSERVABLE_INCLUDE", (0, 1), (0,))]
    if noise:
        batch.insert(after + 1, *parse(noise).instructions)
    c = StabCircuit(2)
    c.extend(batch)
    return c


@pytest.mark.parametrize("noise, after, site, paulis, detectors, observable", [
    ("X_ERROR 0", 0, 0, ((0, "X"),), [1, 1], 0),  # X0 spreads to X0 X1
    ("X_ERROR 1", 0, 0, ((1, "X"),), [0, 1], 1),
    ("Z_ERROR 0", 0, 0, ((0, "Z"),), [0, 0], 0),  # before H 0 an X
    ("DEPOLARIZE1 0", 2, 1, ((0, "Y"),), [0, 0], 0),  # after M 0 1
    ("DEPOLARIZE2 1 0", 5, 5, ((1, "X"), (0, "Y")), [0, 0], 0),
], ids=["first-X0", "first-X1", "first-Z0", "measured-Y0", "last-X1Y0"])
def test_sites_at_the_ends_of_the_walk(noise, after, site, paulis, detectors,
                                       observable):
    """Noise right after the first instruction is read before the walk
    steps back over that instruction, and noise that is the last
    instruction before the walk steps over anything else."""
    c = ends_circuit(noise, after)
    faults = expand_noise(c)
    assert faults[site] == (after + 1, paulis)
    result = fault_scan(c, sites_from_noise(c))
    assert result.detector_flips(c)[site].tolist() == detectors
    assert result.observable_flips(c)[site].tolist() == [observable]
    assert oracle_flips(c, [faults[site]]) == ([detectors], [[observable]])


def test_walk_steps_back_over_the_first_instruction():
    """The H before any reset makes both records random; their parity is
    deterministic 0."""
    report = assert_noiseless_matches_oracle(ends_circuit())
    assert (report.detectors, report.observables) == ([None, None], {0: 0})


def test_empty_circuit():
    c = StabCircuit(2)
    result = fault_scan(c, sites_from_noise(c))
    assert result.rows.shape == (0, 0)
    assert result.detector_flips(c).shape == (0, 0)
    assert result.observable_flips(c).shape == (0, 0)
    report = simulate_noiseless(c)
    assert (report.detectors, report.observables) == ([], {})
    with pytest.raises(ValueError, match="1 fault sites given, not the 0 "):
        fault_scan(c, np.array([0]))


def test_circuit_with_no_noise():
    """No noise means no sites and a row width of its own detectors and
    observables; the verdicts are those of the noisy circuit."""
    code, layout = surface_code(3)
    schedule = replicate_rounds(schedule_round(code, layout, TimingConfig()),
                                2)
    logicals = compute_logicals(code)
    quiet = emit_memory_circuit(schedule, code, logicals, NOISELESS, "Z")
    noisy = emit_memory_circuit(schedule, code, logicals, NoiseConfig(), "Z")
    sites = sites_from_noise(quiet)
    assert len(sites) == 0
    result = fault_scan(quiet, sites)
    ndet = len(detector_targets(quiet))
    assert result.rows.shape == (0, -(-ndet // 8) + 1)
    assert result.detector_flips(quiet).shape == (0, ndet)
    report = simulate_noiseless(quiet)
    assert report == simulate_noiseless(noisy)
    assert report.detectors == [0] * ndet and report.observables == {0: 0}
