import random

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from conftest import NOISELESS
from oracles import (DenseTableau, expand_noise, fault_sites,
                     noiseless_outcomes, propagate_frame)
from shuttleplan import pauli
from shuttleplan.chip import NoiseConfig, TimingConfig, build_grid
from shuttleplan.compiler import replicate_rounds, schedule_round
from shuttleplan.css import (compute_logicals, default_layout, load_css,
                             surface_code)
from shuttleplan.emit import (_QUBIT_OPS, NOISE_CHANNELS, Instruction,
                              StabCircuit, emit_memory_circuit)
from shuttleplan.pauli import (FaultSites, NoiselessReport, fault_scan,
                               simulate_noiseless, sites_from_noise)


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
    (idx,) = [i for i, instr in enumerate(circuit.instructions)
              if instr.meta == {"kind": "shuttle", "hop": hop}]
    return idx


def x_check_circuit() -> StabCircuit:
    """One X ancilla (qubit 4) driving CXs onto data 0..3 between its
    basis-change Hs; noise markers per hop."""
    c = StabCircuit(5)
    c.append("R", (4,))
    c.append("H", (4,))
    for i in range(4):
        c.append("Z_ERROR", (4,), arg=(1e-3,), meta={"kind": "shuttle", "hop": i})
        c.append("CX", (4, i))  # X ancilla drives the CX
    c.append("Z_ERROR", (4,), arg=(1e-3,), meta={"kind": "shuttle", "hop": 4})
    c.append("H", (4,))
    c.append("M", (4,))
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
    (flips,), _ = record_flips(c, fault_sites([(0, ())]))
    assert flips == []


def test_x_ancilla_dephasing_never_reaches_data():
    """Z faults anywhere between the basis-change Hs leave data untouched."""
    c = x_check_circuit()
    for hop in range(5):
        xs, zs, flips = propagate_frame(c, hop_index(c, hop), [(4, "Z")])
        assert not (xs | zs) & DATA
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


# the column dtypes of sites_from_noise, and of the oracle's fault_sites
NARROW = (np.int32, np.int32, np.int32, np.uint8)
WIDE = (np.int64,) * 4


def assert_columns_equal(sites: FaultSites, faults, dtypes=NARROW) -> None:
    got = (sites.index, sites.term_site, sites.term_qubit, sites.term_bits)
    assert tuple(col.dtype for col in got) == dtypes
    assert all(col.ndim == 1 for col in got)
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
    """Columns hold 4 bytes per site and 4 + 4 + 1 per Pauli term, nothing
    per site beyond that (no objects, no metadata copies)."""
    code, layout = surface_code(3)
    circuit = memory_circuit(code, layout, 2, "Z")
    sites = sites_from_noise(circuit)
    terms = len(sites.term_site)
    held = sum(col.nbytes for col in (sites.index, sites.term_site,
                                      sites.term_qubit, sites.term_bits))
    assert len(sites) > 1000 and terms >= len(sites)
    assert held <= 4 * len(sites) + 9 * terms + 1024


def test_from_paulis_matches_columns():
    faults = [(0, ((1, "Z"),)), (2, ()), (1, ((0, "X"), (3, "Y"), (0, "Z")))]
    assert_columns_equal(fault_sites(faults), faults, WIDE)
    assert len(fault_sites([])) == 0


def record_flips(circuit: StabCircuit, sites: FaultSites):
    """Scan `sites` on a copy of `circuit` (which has no detectors or
    observables) with one DETECTOR per measurement record and one
    OBSERVABLE_INCLUDE of every record. Returns, per site, the records
    `fault_scan` says it flips, and the observable's flip; checks that the
    padding bits of every row are zero."""
    c = StabCircuit(circuit.num_qubits)
    records = tuple(range(circuit.num_measurements))
    c.extend([*circuit.instructions,
              *(Instruction("DETECTOR", (m,)) for m in records),
              Instruction("OBSERVABLE_INCLUDE", records, (0,))])
    result = fault_scan(c, sites)
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
    c = StabCircuit(3)
    c.append("R", (0, 1, 2))
    c.append("CX", (0, 1, 1, 2))
    c.append("CX", (2, 1, 1, 0))
    c.append("M", (0, 1, 2))
    c.append("MX", (0, 1, 2))
    faults = [(0, ((q, p),)) for q in range(3) for p in "XYZ"]
    flipped, _ = record_flips(c, fault_sites(faults))
    assert flipped == [propagate_frame(c, index, paulis)[2]
                       for index, paulis in faults]


def test_fault_scan_matches_single_propagation():
    """Every hop fault of the check circuits flips the measurement in the
    scan exactly when it does in the frame oracle."""
    for c in (z_check_circuit(True), z_check_circuit(False),
              x_check_circuit()):
        faults = expand_noise(c)
        flipped, parity = record_flips(c, sites_from_noise(c))
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
    """A circuit from ``"NAME t t; NAME t; ..."``."""
    c = StabCircuit(num_qubits)
    for line in text.split(";"):
        name, *targets = line.split()
        c.append(name, map(int, targets))
    return c


def test_simulate_reset_measure_deterministic_zero():
    assert verdicts(parse("R 0; M 0", 1)) == [0]


def test_simulate_hadamard_gives_random_flag():
    assert verdicts(parse("R 0; H 0; M 0", 1)) == [None]


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
        n_instr = len(circuit.instructions)
        idx = rng.randrange(n_instr)
        qubits = rng.sample(range(circuit.num_qubits), rng.randint(1, 2))
        paulis = tuple((q, rng.choice("XYZ")) for q in qubits)

        clean = tableau_run(circuit)
        dirty = tableau_run(circuit, inject=(idx, paulis))
        assert len(clean) == len(dirty) == circuit.num_measurements
        for (_, a, _), (_, b, _) in zip(clean, dirty):
            assert a == b, "fault changed the randomness structure"

        (frame_list,), _ = record_flips(circuit, fault_sites([(idx, paulis)]))
        frame_flips = set(frame_list)

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


def random_faults(rng, circuit, count):
    """Faults of 0-3 Paulis; a qubit may repeat (X then Z on it acts as Y)."""
    n = circuit.num_qubits
    return [(rng.randrange(len(circuit.instructions)),
             tuple((rng.randrange(n), rng.choice("XYZ"))
                   for _ in range(rng.randint(0, 3))))
            for _ in range(count)]


@pytest.mark.parametrize("num_sites", [0, 1, 63, 64, 65, 130])
def test_fault_scan_matches_frame_oracle(num_sites):
    """Every site's measurement flips equal a one-fault set propagation,
    for sites in any order, with Y terms and repeated qubits; the padding
    bits of each row stay zero."""
    rng = random.Random(num_sites)
    for _ in range(3):
        circuit = random_circuit(rng)
        faults = random_faults(rng, circuit, num_sites)
        flipped, parity = record_flips(circuit, fault_sites(faults))
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
    dets = [targets for targets, _ in circuit.detectors()]
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
    split = -(-len(circuit.detectors()) // 8)
    groups: dict[bytes, set[bytes]] = {}
    for row in result.rows:
        groups.setdefault(row[:split].tobytes(), set()).add(
            row[split:].tobytes())
    return groups


def assert_no_undetected_logical_pair(circuit) -> None:
    groups = observables_by_detectors(circuit)
    assert [obs for obs in groups.values() if len(obs) > 1] == []
    split = -(-len(circuit.detectors()) // 8)
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
    """A seeded sample of bb72 sites, scanned on their own and out of
    circuit order, flips the detectors and observables the frame oracle
    gives."""
    code, schedule = bb72_schedule
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), "Z")
    faults = random.Random(72).sample(expand_noise(circuit), 64)
    result = fault_scan(circuit, fault_sites(faults))
    expect_det, expect_obs = oracle_flips(circuit, faults)
    assert result.detector_flips(circuit).tolist() == expect_det
    assert result.observable_flips(circuit).tolist() == expect_obs
    assert np.array(expect_det).any()


def test_scan_rows_equal_for_wide_and_narrow_sites(bb72_schedule):
    """The oracle's int64 columns and sites_from_noise's int32 and uint8
    ones give byte-identical rows."""
    code, schedule = bb72_schedule
    circuit = emit_memory_circuit(schedule, code, compute_logicals(code),
                                  NoiseConfig(), "Z")
    narrow = sites_from_noise(circuit)
    wide = fault_sites(expand_noise(circuit))
    assert (wide.index.dtype, wide.term_bits.dtype) == (np.int64, np.int64)
    assert (narrow.index.dtype, narrow.term_bits.dtype) == (np.int32, np.uint8)
    rows = fault_scan(circuit, narrow).rows
    assert rows.tobytes() == fault_scan(circuit, wide).rows.tobytes()
    assert rows.shape == (len(narrow), -(-len(circuit.detectors()) // 8) + 2)


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
    detectors, observables = circuit.detectors(), circuit.observables()

    def walk(self):
        raise AssertionError("the circuit was walked again")

    monkeypatch.setattr(StabCircuit, "detectors", walk)
    monkeypatch.setattr(StabCircuit, "observables", walk)
    result = fault_scan(circuit, sites_from_noise(circuit))
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
    row = (-(-len(circuit.detectors()) // 8)
           + -(-len(circuit.observables()) // 8))
    assert len(sites) > 1000
    assert result.rows.nbytes <= len(sites) * row + 1024


@pytest.mark.parametrize("index", [3, 99, -1])
def test_fault_scan_rejects_instruction_out_of_range(index):
    c = StabCircuit(2)
    for q in range(2):
        c.append("R", (q,))
    c.append("M", (0, 1))
    sites = fault_sites([(0, ((0, "X"),)), (index, ((1, "Z"),))])
    with pytest.raises(IndexError, match="fault site 1: no instruction"):
        fault_scan(c, sites)


@pytest.mark.parametrize("qubit", [2, -1])
def test_fault_scan_rejects_qubit_out_of_range(qubit):
    c = StabCircuit(2)
    c.append("M", (0, 1))
    sites = fault_sites([(0, ((1, "Z"),)),
                                    (0, ((0, "X"), (qubit, "Y")))])
    with pytest.raises(IndexError, match="fault site 1: qubit"):
        fault_scan(c, sites)


@pytest.mark.parametrize("letter", ["x", "I", "XZ", ""])
def test_fault_scan_rejects_unknown_pauli_letter(letter):
    c = StabCircuit(2)
    c.append("M", (0, 1))
    with pytest.raises(ValueError, match="fault site 1: Pauli"):
        fault_scan(c, fault_sites([(0, ((1, "Z"),)),
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


# the gates the walk has a rule for
GATES = ("H", "R", "RX", "M", "MX", "CX")


def test_the_random_circuits_draw_every_emitted_gate():
    """Every qubit instruction the emitter knows, other than a noise
    channel or QUBIT_COORDS, is a gate the random circuits draw: a new gate
    fails here until the walk has a rule for it and the strategy draws it."""
    assert set(GATES) == _QUBIT_OPS - set(NOISE_CHANNELS) - {"QUBIT_COORDS"}


# one-target H, R, RX, M and MX and one-pair CX, as in random_circuit, and
# their wider forms: several targets, a qubit repeated in M and MX, chained
# CX pairs
@st.composite
def multi_target_circuits(draw):
    n = draw(st.integers(1, 5))
    qubit = st.integers(0, n - 1)
    c = StabCircuit(n)
    for _ in range(draw(st.integers(0, 14))):
        name = draw(st.sampled_from(GATES))
        if name == "CX":
            if n == 1:
                continue
            pairs = draw(st.lists(st.lists(qubit, min_size=2, max_size=2,
                                           unique=True),
                                  min_size=1, max_size=4))
            c.append(name, [q for pair in pairs for q in pair])
        else:
            c.append(name, draw(st.lists(qubit, min_size=1, max_size=4,
                                         unique=name not in ("M", "MX"))))
    c.append("M", draw(st.lists(qubit, min_size=1, max_size=n)))
    record = st.integers(0, c.num_measurements - 1)
    for _ in range(draw(st.integers(1, 6))):
        c.append("DETECTOR", draw(st.lists(record, max_size=4)))
    for _ in range(draw(st.integers(0, 3))):
        c.append("OBSERVABLE_INCLUDE", draw(st.lists(record, max_size=4)),
                 arg=(draw(st.integers(0, 2)),))
    return c


@given(multi_target_circuits())
@example(parse("H 0; CX 0 1 1 2; M 2; DETECTOR 0", 3))  # random, not 0
@settings(max_examples=300, deadline=None)
def test_walk_matches_dense_oracle_on_multi_target_circuits(circuit):
    """Records across multi-target M and MX and CX pairs taken in reverse
    give the oracle's verdicts."""
    assert_noiseless_matches_oracle(circuit)


@given(multi_target_circuits(), st.data())
@settings(max_examples=300, deadline=None)
def test_scan_matches_frame_oracle_on_multi_target_circuits(circuit, data):
    """X, Z or Y sites after random instructions of multi-target circuits,
    in any order, flip the detectors and observables whose records the
    frame oracle flips an odd number of times."""
    site = st.tuples(st.integers(0, len(circuit.instructions) - 1),
                     st.tuples(st.tuples(
                         st.integers(0, circuit.num_qubits - 1),
                         st.sampled_from("XZY"))))
    faults = data.draw(st.lists(site, max_size=8))
    result = fault_scan(circuit, fault_sites(faults))
    expect_det, expect_obs = oracle_flips(circuit, faults)
    assert result.detector_flips(circuit).tolist() == expect_det
    assert result.observable_flips(circuit).tolist() == expect_obs


def ends_circuit() -> StabCircuit:
    """A Bell pair from |00> without resets: H 0 is the first instruction,
    and the observable of both records the last."""
    c = parse("H 0; CX 0 1; M 0 1; DETECTOR 0; DETECTOR 1")
    c.append("OBSERVABLE_INCLUDE", (0, 1), arg=(0,))
    return c


@pytest.mark.parametrize("index, paulis, detectors, observable", [
    (0, ((0, "X"),), [1, 1], 0),  # after H 0: X0 spreads to X0 X1
    (0, ((1, "X"),), [0, 1], 1),
    (0, ((0, "Z"),), [0, 0], 0),  # before the H it would be an X
    (2, ((0, "Y"),), [0, 0], 0),  # after the measurements
    (5, ((1, "X"), (0, "Y")), [0, 0], 0),  # after the last instruction
], ids=["first-X0", "first-X1", "first-Z0", "measured-Y0", "last-X1Y0"])
def test_sites_at_the_ends_of_the_walk(index, paulis, detectors, observable):
    """A site after the first instruction is read before the walk steps
    back over it, and one after the last before it steps over anything."""
    c = ends_circuit()
    result = fault_scan(c, fault_sites([(index, paulis)]))
    assert result.detector_flips(c).tolist() == [detectors]
    assert result.observable_flips(c).tolist() == [[observable]]
    assert oracle_flips(c, [(index, paulis)]) == ([detectors], [[observable]])


def test_walk_steps_back_over_the_first_instruction():
    """The H before any reset makes both records random; their parity is
    deterministic 0."""
    report = assert_noiseless_matches_oracle(ends_circuit())
    assert (report.detectors, report.observables) == ([None, None], {0: 0})


def test_empty_circuit():
    c = StabCircuit(2)
    result = fault_scan(c, fault_sites([]))
    assert result.rows.shape == (0, 0)
    assert result.detector_flips(c).shape == (0, 0)
    assert result.observable_flips(c).shape == (0, 0)
    report = simulate_noiseless(c)
    assert (report.detectors, report.observables) == ([], {})
    with pytest.raises(IndexError, match="fault site 0: no instruction at 0"):
        fault_scan(c, fault_sites([(0, ((0, "X"),))]))


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
    ndet = len(quiet.detectors())
    assert result.rows.shape == (0, -(-ndet // 8) + 1)
    assert result.detector_flips(quiet).shape == (0, ndet)
    report = simulate_noiseless(quiet)
    assert report == simulate_noiseless(noisy)
    assert report.detectors == [0] * ndet and report.observables == {0: 0}
