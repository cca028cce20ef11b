import random

import numpy as np
import pytest

from oracles import (expand_noise, noiseless_outcomes, propagate_fault,
                     propagate_frame)
from shuttleplan.chip import NoiseConfig, TimingConfig, build_grid
from shuttleplan.compiler import replicate_rounds, schedule_round
from shuttleplan.css import (compute_logicals, default_layout, load_css,
                             surface_code)
from shuttleplan.emit import StabCircuit, emit_memory_circuit
from shuttleplan.pauli import (FaultSites, NoiselessReport, Outcome, Tableau,
                               TableauError, fault_scan, simulate_noiseless,
                               sites_from_noise)


def z_check_circuit(tailored: bool) -> StabCircuit:
    """One Z ancilla (qubit 4) visiting data 0..3; noise markers per hop."""
    c = StabCircuit(5)
    c.append("R", (4,), meta={"kind": "anc_init"})
    if tailored:
        c.append("H", (4,))
    for i in range(4):
        c.append("Z_ERROR", (4,), arg=(1e-3,),
                 meta={"kind": "shuttle", "hop": i})
        if tailored:
            c.append("H", (4,))
        c.append("CX", (i, 4))
        if tailored:
            c.append("H", (4,))
    c.append("Z_ERROR", (4,), arg=(1e-3,), meta={"kind": "shuttle", "hop": 4})
    if tailored:
        c.append("H", (4,))
    c.append("M", (4,), meta={"kind": "anc_measure", "check": 0})
    return c


def hop_index(circuit, hop):
    (idx,) = circuit.noise_sites(kind="shuttle", hop=hop)
    return idx


def test_untailored_fault_after_second_cx_hits_later_data():
    c = z_check_circuit(tailored=False)
    fx, fz, flips = propagate_fault(c, hop_index(c, 2), [(4, "Z")])
    assert not fx.any()
    assert fz[:4].tolist() == [0, 0, 1, 1]  # Z lands on data 2 and 3
    assert flips == []                       # Z on ancilla: measurement intact


def test_tailored_fault_flips_only_the_measurement():
    c = z_check_circuit(tailored=True)
    for hop in range(5):
        fx, fz, flips = propagate_fault(c, hop_index(c, hop), [(4, "Z")])
        assert not fx[:4].any() and not fz[:4].any()
        assert flips == [0]


def test_identity_fault_is_silent():
    c = z_check_circuit(tailored=False)
    fx, fz, flips = propagate_fault(c, 0, [])
    assert not fx.any() and not fz.any() and flips == []


def test_propagate_fault_index_range():
    c = z_check_circuit(tailored=False)
    with pytest.raises(IndexError):
        propagate_fault(c, 999, [(4, "Z")])


def test_x_ancilla_dephasing_never_reaches_data():
    """Z faults anywhere between the basis-change Hs leave data untouched."""
    c = StabCircuit(5)
    c.append("R", (4,))
    c.append("H", (4,))
    for i in range(4):
        c.append("Z_ERROR", (4,), arg=(1e-3,), meta={"kind": "shuttle", "hop": i})
        c.append("CX", (4, i))  # X ancilla drives the CX
    c.append("Z_ERROR", (4,), arg=(1e-3,), meta={"kind": "shuttle", "hop": 4})
    c.append("H", (4,))
    c.append("M", (4,))
    for hop in range(5):
        fx, fz, flips = propagate_fault(c, hop_index(c, hop), [(4, "Z")])
        assert not fx[:4].any() and not fz[:4].any()
        assert flips == [0]


def test_sites_from_noise_expansion():
    c = StabCircuit(2)
    c.append("X_ERROR", (0,), arg=(0.1,))
    c.append("DEPOLARIZE1", (1,), arg=(0.1,))
    c.append("DEPOLARIZE2", (0, 1), arg=(0.1,))
    sites = sites_from_noise(c)
    assert len(sites) == 1 + 3 + 15


def columns(faults):
    """(index, term_site, term_qubit, term_bits) lists of (index, paulis)."""
    bits = {"X": 1, "Z": 2, "Y": 3}
    terms = [(row, q, bits[p]) for row, (_, paulis) in enumerate(faults)
             for q, p in paulis]
    return ([index for index, _ in faults], [t[0] for t in terms],
            [t[1] for t in terms], [t[2] for t in terms])


def assert_columns_equal(sites: FaultSites, faults) -> None:
    got = (sites.index, sites.term_site, sites.term_qubit, sites.term_bits)
    for col in got:
        assert col.dtype == np.int64 and col.ndim == 1
    assert tuple(col.tolist() for col in got) == columns(faults)


def every_channel_circuit() -> StabCircuit:
    c = StabCircuit(4)
    c.append("R", (0, 1, 2, 3))
    c.append("X_ERROR", (0, 3), arg=(0.1,))
    c.append("DEPOLARIZE2", (0, 1, 3, 2), arg=(0.1,))
    c.append("CX", (0, 1))
    c.append("Z_ERROR", (2,), arg=(0.1,))
    c.append("DEPOLARIZE1", (1, 2, 0), arg=(0.1,))
    c.append("H", (3,))
    c.append("DEPOLARIZE2", (2, 3), arg=(0.1,))
    c.append("M", (0, 1, 2, 3))
    return c


@pytest.mark.parametrize("indices", [None, [7, 1, 4], [5], []])
def test_sites_match_noise_oracle_on_every_channel(indices):
    """The whole circuit, or one made of the listed instructions of it."""
    c = every_channel_circuit()
    if indices is not None:
        whole, c = c, StabCircuit(c.num_qubits)
        for i in indices:
            name, targets, arg, meta = whole.instructions[i]
            c.append(name, targets, arg=arg, meta=meta)
    sites = sites_from_noise(c)
    faults = expand_noise(c)
    assert len(sites) == len(faults)
    assert_columns_equal(sites, faults)
    if indices is None:
        assert len(sites) == 2 + 2 * 15 + 1 + 3 * 3 + 15


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_sites_match_noise_oracle_on_surface_d3(basis):
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, basis)
    assert_columns_equal(sites_from_noise(circuit), expand_noise(circuit))


def test_sites_match_noise_oracle_on_bb72(bb72_schedule):
    code, schedule = bb72_schedule
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), "Z")
    assert_columns_equal(sites_from_noise(circuit), expand_noise(circuit))


def test_fault_sites_memory_is_flat():
    """Columns hold 8 bytes per site and 3 x 8 per Pauli term, nothing per
    site beyond that (no objects, no metadata copies)."""
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, "Z")
    sites = sites_from_noise(circuit)
    terms = len(sites.term_site)
    held = sum(col.nbytes for col in (sites.index, sites.term_site,
                                      sites.term_qubit, sites.term_bits))
    assert len(sites) > 1000 and terms >= len(sites)
    assert held <= 8 * (len(sites) + 3 * terms) + 1024


def test_from_paulis_matches_columns():
    faults = [(0, ((1, "Z"),)), (2, ()), (1, ((0, "X"), (3, "Y"), (0, "Z")))]
    assert_columns_equal(FaultSites.from_paulis(faults), faults)
    assert len(FaultSites.from_paulis([])) == 0


def test_fault_scan_matches_single_propagation():
    c = z_check_circuit(tailored=True)
    sites = sites_from_noise(c)
    result = fault_scan(c, sites)
    faults = expand_noise(c)
    assert len(faults) == len(sites) == 5
    for row, (index, paulis) in enumerate(faults):
        fx, fz, flips = propagate_fault(c, index, paulis)
        assert np.array_equal(result.final_frame(row)[0], fx)
        assert np.array_equal(result.final_frame(row)[1], fz)
        assert result.flipped_measurements(row) == flips


def test_simulate_reset_measure_deterministic_zero():
    c = StabCircuit(1)
    c.append("R", (0,))
    c.append("M", (0,))
    report = simulate_noiseless(c)
    out = report.measurements[0]
    assert out.deterministic and out.const == 0 and not out.random


def test_simulate_hadamard_gives_random_flag():
    c = StabCircuit(1)
    c.append("R", (0,))
    c.append("H", (0,))
    c.append("M", (0,))
    out = simulate_noiseless(c).measurements[0]
    assert out.random and not out.deterministic


def test_repeated_random_measurement_is_correlated():
    """Same stabilizer measured twice: detector parity is deterministic 0."""
    c = StabCircuit(2)
    c.append("R", (0,))
    c.append("R", (1,))
    # measure X0 X1 twice via an ancilla-free trick: H, CX, M chains
    for _ in range(2):
        c.append("H", (0,))
        c.append("CX", (0, 1))
        c.append("M", (1,))
        c.append("CX", (0, 1))
        c.append("H", (0,))
    c.append("DETECTOR", (0, 1))
    report = simulate_noiseless(c)
    m0, m1 = report.measurements
    assert m0.random
    assert not m0.deterministic and not m1.deterministic
    det = report.detectors[0]
    assert det.deterministic and det.const == 0


def test_reset_clears_entanglement():
    c = StabCircuit(2)
    c.append("R", (0,))
    c.append("R", (1,))
    c.append("H", (0,))
    c.append("CX", (0, 1))
    c.append("R", (1,))   # reset one half of a Bell pair
    c.append("M", (1,))
    out = simulate_noiseless(c).measurements[0]
    assert out.deterministic and out.const == 0


def test_bell_pair_parity_deterministic():
    c = StabCircuit(2)
    c.append("R", (0,))
    c.append("R", (1,))
    c.append("H", (0,))
    c.append("CX", (0, 1))
    c.append("M", (0,))
    c.append("M", (1,))
    c.append("DETECTOR", (0, 1))
    report = simulate_noiseless(c)
    assert [m.random for m in report.measurements] == [True, False]
    det = report.detectors[0]
    assert det.deterministic and det.const == 0


def random_circuit(rng, n=8, length=50) -> StabCircuit:
    c = StabCircuit(n)
    for q in range(n):
        c.append("R", (q,))
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35:
            c.append("H", (rng.randrange(n),))
        elif roll < 0.7 and n > 1:
            a = rng.randrange(n)
            b = rng.randrange(n)
            while b == a:
                b = rng.randrange(n)
            c.append("CX", (a, b))
        elif roll < 0.8:
            c.append("R" if rng.random() < 0.5 else "RX", (rng.randrange(n),))
        elif roll < 0.95:
            c.append("M", (rng.randrange(n),))
        else:
            c.append("MX", (rng.randrange(n),))
    for q in range(n):
        c.append("M", (q,))
    return c


def tableau_run(circuit: StabCircuit, inject=None):
    """Noiseless tableau run with an optional Pauli injected mid-circuit."""
    tab = Tableau(circuit.num_qubits)
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
            for q, p in inject[1]:
                if p in ("X", "Y"):
                    tab.apply_x(q)
                if p in ("Z", "Y"):
                    tab.apply_z(q)
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
        n_instr = len(circuit.instructions)
        idx = rng.randrange(n_instr)
        qubits = rng.sample(range(circuit.num_qubits), rng.randint(1, 2))
        paulis = tuple((q, rng.choice("XYZ")) for q in qubits)

        clean = tableau_run(circuit)
        dirty = tableau_run(circuit, inject=(idx, paulis))
        assert len(clean) == len(dirty) == circuit.num_measurements
        for a, b in zip(clean, dirty):
            assert a.mask == b.mask, "fault changed the randomness structure"

        _, _, frame_list = propagate_fault(circuit, idx, paulis)
        frame_flips = set(frame_list)

        for i, (a, b) in enumerate(zip(clean, dirty)):
            if a.mask == 0:
                compared += 1
                assert (a.const != b.const) == (i in frame_flips), (
                    f"trial {trial}: deterministic measurement {i}")
        for i in range(len(clean)):
            for j in range(i + 1, len(clean)):
                if clean[i].mask and clean[i].mask == clean[j].mask:
                    compared += 1
                    tab = (clean[i].const ^ clean[j].const
                           ^ dirty[i].const ^ dirty[j].const)
                    frm = (i in frame_flips) ^ (j in frame_flips)
                    assert tab == frm, (
                        f"trial {trial}: parity of measurements {i},{j}")
    assert compared > 3000, "too few comparable observables across the corpus"


def memory_circuit(code, layout, rounds, basis, tailored=True):
    schedule = schedule_round(code, layout, TimingConfig(), tailored=tailored)
    return emit_memory_circuit(replicate_rounds(schedule, rounds), code,
                               compute_logicals(code), NoiseConfig(), basis)


def random_faults(rng, circuit, count):
    """Faults of 0-3 Paulis; a qubit may repeat (X then Z on it acts as Y)."""
    n = circuit.num_qubits
    return [(rng.randrange(len(circuit.instructions)),
             tuple((rng.randrange(n), rng.choice("XYZ"))
                   for _ in range(rng.randint(0, 3))))
            for _ in range(count)]


@pytest.mark.parametrize("num_sites", [0, 1, 63, 64, 65, 130])
def test_fault_scan_matches_frame_oracle(num_sites):
    """Every site's flips and final frame equal a one-fault set propagation,
    across the word boundaries of the packed layout."""
    rng = random.Random(num_sites)
    for _ in range(3):
        circuit = random_circuit(rng)
        faults = random_faults(rng, circuit, num_sites)
        result = fault_scan(circuit, FaultSites.from_paulis(faults))
        for row, (index, paulis) in enumerate(faults):
            xs, zs, flipped = propagate_frame(circuit, index, paulis)
            fx, fz = result.final_frame(row)
            assert set(np.flatnonzero(fx).tolist()) == xs
            assert set(np.flatnonzero(fz).tolist()) == zs
            assert result.flipped_measurements(row) == flipped
        for packed in (result.x, result.z, result.flips):
            tail = np.unpackbits(packed.astype("<u8").view(np.uint8), axis=1,
                                 bitorder="little")[:, num_sites:]
            assert not tail.any(), "bits past the last site must stay zero"


def parities(flipped: set, groups) -> list[int]:
    return [len(flipped.intersection(targets)) % 2 for targets in groups]


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_detector_and_observable_flips_match_frame_oracle(basis):
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, basis)
    sites = sites_from_noise(circuit)
    result = fault_scan(circuit, sites)
    dets = [targets for targets, _ in circuit.detectors()]
    obs = [targets for _, targets in sorted(circuit.observables().items())]
    expect_det, expect_obs = [], []
    for index, paulis in expand_noise(circuit):
        flipped = set(propagate_frame(circuit, index, paulis)[2])
        expect_det.append(parities(flipped, dets))
        expect_obs.append(parities(flipped, obs))
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


def test_scan_memory_is_bit_packed():
    """Result arrays hold 8 * ceil(ns / 64) * (2 nq + nm) bytes, not per-site
    bytes."""
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, "Z")
    sites = sites_from_noise(circuit)
    result = fault_scan(circuit, sites)
    words = -(-len(sites) // 64)
    packed = 8 * words * (2 * circuit.num_qubits + circuit.num_measurements)
    held = result.x.nbytes + result.z.nbytes + result.flips.nbytes
    assert len(sites) > 1000
    assert held <= packed + 1024


@pytest.mark.parametrize("index", [3, 99, -1])
def test_fault_scan_rejects_instruction_out_of_range(index):
    c = StabCircuit(2)
    for q in range(2):
        c.append("R", (q,))
    c.append("M", (0, 1))
    sites = FaultSites.from_paulis([(0, ((0, "X"),)), (index, ((1, "Z"),))])
    with pytest.raises(IndexError, match="fault site 1: no instruction"):
        fault_scan(c, sites)


@pytest.mark.parametrize("qubit", [2, -1])
def test_fault_scan_rejects_qubit_out_of_range(qubit):
    c = StabCircuit(2)
    c.append("M", (0, 1))
    sites = FaultSites.from_paulis([(0, ((1, "Z"),)),
                                    (0, ((0, "X"), (qubit, "Y")))])
    with pytest.raises(IndexError, match="fault site 1: qubit"):
        fault_scan(c, sites)


@pytest.mark.parametrize("letter", ["x", "I", "XZ", ""])
def test_fault_scan_rejects_unknown_pauli_letter(letter):
    c = StabCircuit(2)
    c.append("M", (0, 1))
    with pytest.raises(ValueError, match="fault site 1: Pauli"):
        fault_scan(c, FaultSites.from_paulis([(0, ((1, "Z"),)),
                                              (0, ((0, letter),))]))


@pytest.mark.parametrize("site, bits", [(2, 1), (-1, 2), (0, 0), (1, 4)])
def test_fault_scan_rejects_malformed_term_columns(site, bits):
    c = StabCircuit(2)
    c.append("M", (0, 1))
    col = lambda *v: np.array(v, dtype=np.int64)
    sites = FaultSites(col(0, 0), col(0, site), col(1, 0), col(2, bits))
    with pytest.raises(ValueError, match="Pauli term 1"):
        fault_scan(c, sites)


def assert_noiseless_matches_oracle(circuit: StabCircuit) -> NoiselessReport:
    """Measurement, detector and observable Outcomes equal the dense
    tableau oracle's, exactly."""
    report = simulate_noiseless(circuit)
    triple = lambda o: (o.const, o.mask, o.random)
    measurements, detectors, observables = noiseless_outcomes(circuit)
    assert [triple(o) for o in report.measurements] == measurements
    assert [triple(o) for o in report.detectors] == detectors
    assert {k: triple(o) for k, o in report.observables.items()} == observables
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
        for _ in range(5):
            circuit.append("DETECTOR", pick(3))
        for obs in range(2):
            circuit.append("OBSERVABLE_INCLUDE", pick(4), arg=(obs,))
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


def test_tableau_rejects_anticommuting_stabilizers_in_random_measurement():
    """Stabilizers X0 and Y0 Z1 both anticommute with Z0 and with each
    other, so multiplying one into the other cannot keep a real sign."""
    tab = Tableau(2)
    tab.xc[0] |= 0b1100            # rows 2 and 3 get an X on qubit 0
    tab.zc[0] ^= 0b1100            # row 2 loses its Z0, row 3 gains one
    with pytest.raises(TableauError, match="anticommuting"):
        tab.measure(0)


def test_tableau_rejects_non_hermitian_deterministic_product():
    """Z0 is deterministic, but the two stabilizers it is built from,
    Z0 X1 and Z1, anticommute, so their product has an imaginary phase."""
    tab = Tableau(2)
    tab.xc[0] |= 0b10              # destabilizer 1 also anticommutes with Z0
    tab.xc[1] |= 0b100             # stabilizer row 2 becomes Z0 X1
    with pytest.raises(TableauError, match="deterministic outcome"):
        tab.measure(0)
