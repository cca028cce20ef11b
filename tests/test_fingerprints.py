"""Pinned schedule and circuit fingerprints.

Each schedule sha256 is of ``Schedule.to_text()`` as produced by the
full-rescan planner these schedules were first recorded with; each circuit
sha256 is of ``StabCircuit.to_text()`` of a memory experiment under the
default ``NoiseConfig``, and each scan sha256 is of the rows
``fault_scan(circuit, sites_from_noise(circuit))`` gives for such a
circuit. Speed-ups must leave every schedule, circuit and scan
byte-identical; a change that alters one fails here even when every other
test passes, and must be argued as a behaviour change.
"""

import hashlib

import pytest

from shuttleplan.chip import NoiseConfig, TimingConfig, build_grid
from shuttleplan.compiler import replicate_rounds, schedule_round
from shuttleplan.css import (compute_logicals, default_layout, load_css,
                             surface_code)
from shuttleplan.emit import emit_memory_circuit
from shuttleplan.pauli import fault_scan, sites_from_noise

SURFACE = [  # (distance, order policy, tailored, sha256), all at seed 3
    (3, "longest", True, "6b42f3c08adcdd3859ad7695c2b915df7357c9651c39a7e06ec2cf73356fd092"),
    (3, "longest", False, "e8216163a91d0a4fece11606551c55b2a073cb59cd2b89ea4b00d0424d7a0f4d"),
    (3, "index", True, "8693e8ec885a9be0b90c954c0f2403cddeb4434c65552ef92e99c9f8ef430e18"),
    (3, "index", False, "bac3b3787b2afe65066abe2ad11d9e37f407e41160bf2a64ea48e81bcf3e2568"),
    (3, "random", True, "1c38022e2ff255d8c2eab309301aea79727b0bacb6e9b86dc56379add7003a80"),
    (3, "random", False, "f17736a96441eaa507e6ec346c51aaa1660a9140b99602c536184e833717904e"),
    (5, "longest", True, "0aaa72d60c41fe96c3caada747ce94db2688ae7d2cb1f7027868514858b0086a"),
    (5, "longest", False, "81ab218e700abccfba13bb7c19e9251acb09b1b6f71778f21e837a8dfbf2abdd"),
    (5, "index", True, "1c87175c945d225609b2d48fd71dfaede6ea6ef9daae2655c534a8b1733cdd54"),
    (5, "index", False, "144a10cc63b364ab772c944eb6f48c8fb309bb5b178477375f81a90d5a159787"),
    (5, "random", True, "d302dad569a2920f0fd0ebe14499a6aae96949bdcc18b014e924d31b4efa9d5c"),
    (5, "random", False, "502f437281f7c1eae5ce624d93fba6d0a71c240f625de37a7a87973522a6e407"),
]

BB72_LONGEST = "4f6754c16e8af5121cd1a966989b9f92a3fb8c28db255e32928688500c2da7de"

# (distance, basis, sha256) of a d-round memory circuit, longest order, seed 3
SURFACE_CIRCUITS = [
    (3, "Z", "e78fa86ccc8a3b6c6d1755a77515b7051a1145867a89793cfdff9e53a365a15b"),
    (3, "X", "d03778ef75e2d48c3deb3dfc4ea3bea54ed589387d008de501002c742adf8037"),
    (5, "Z", "defb9df7d8c26bd0d775ca170fd90ccd7c833a01e5b595a4239a64bce2d7612f"),
    (5, "X", "2423fae8cb9a011e2648f0b5cb30381dae75172a056d9f35068ee9531d6931c1"),
]

BB72_LONGEST_CIRCUIT = (  # 2 rounds, Z basis
    "fdf34d5fbfed4a0cf08e62255cfff11b141ebe206825a990b7d090083cc0cb2b")

# (basis, sha256) of a 3-round surface d3 memory circuit, longest order,
# untailored, seed 3
SURFACE_PLAIN_CIRCUITS = [
    ("Z", "b96c17deef2ce7de943e2bb63517396eda09c582da8a36d184c197d1145d2acb"),
    ("X", "38a5ad40e7b13acc248ee6ea452e31a59fd1b4557042a1f62a2606451be7ac09"),
]

BB72_RANDOM_CIRCUIT = (  # random order, seed 1, 3 rounds, Z basis
    "8b95180931dc1888846713a154be6164c21276d9d67bc193b031cdf572beb1e6")

# (basis, site count, scan sha256) of a 3-round surface d3 memory circuit,
# longest order, seed 3
SURFACE_SCANS = [
    ("Z", 1929, "9ec8b37c87ec2cbf2b7bd192b859b30a5c93b4706d330689cda7f7acf61bab34"),
    ("X", 1929, "3fa180d208bb4f8708c18669e3bd8c011b48fdac93bfe28f9abee405cec0c3d2"),
]

BB72_RANDOM_SCAN = (  # random order, seed 1, 3 rounds, Z basis
    33720, "0a5aa9704f39ec9f32c590d9cfbc198e3327ac0ed2c21c32affe089de60e7c14")


def fingerprint(schedule) -> str:
    return hashlib.sha256(schedule.to_text().encode()).hexdigest()


@pytest.mark.parametrize(
    "d,policy,tailored,expected", SURFACE,
    ids=[f"d{d}-{p}-{'tailored' if t else 'plain'}" for d, p, t, _ in SURFACE])
def test_surface_schedule_fingerprint(d, policy, tailored, expected):
    code, layout = surface_code(d)
    schedule = schedule_round(code, layout, TimingConfig(),
                              order_policy=policy, tailored=tailored, seed=3)
    assert fingerprint(schedule) == expected


def test_bb72_longest_schedule_fingerprint(bb72_path):
    code = load_css(str(bb72_path))
    layout = default_layout(code, build_grid(9, 8))
    schedule = schedule_round(code, layout, TimingConfig(),
                              order_policy="longest", seed=0)
    assert fingerprint(schedule) == BB72_LONGEST


def circuit_fingerprint(code, schedule, rounds: int, basis: str) -> str:
    circuit = emit_memory_circuit(replicate_rounds(schedule, rounds), code,
                                  compute_logicals(code), NoiseConfig(), basis)
    return hashlib.sha256(circuit.to_text().encode()).hexdigest()


@pytest.mark.parametrize("d,basis,expected", SURFACE_CIRCUITS,
                         ids=[f"d{d}-{b}" for d, b, _ in SURFACE_CIRCUITS])
def test_surface_circuit_fingerprint(d, basis, expected):
    code, layout = surface_code(d)
    schedule = schedule_round(code, layout, TimingConfig(),
                              order_policy="longest", seed=3)
    assert circuit_fingerprint(code, schedule, d, basis) == expected


def test_bb72_longest_circuit_fingerprint(bb72_path):
    code = load_css(str(bb72_path))
    layout = default_layout(code, build_grid(9, 8))
    schedule = schedule_round(code, layout, TimingConfig(),
                              order_policy="longest", seed=0)
    assert circuit_fingerprint(code, schedule, 2, "Z") == BB72_LONGEST_CIRCUIT


@pytest.mark.parametrize("basis,expected", SURFACE_PLAIN_CIRCUITS,
                         ids=[b for b, _ in SURFACE_PLAIN_CIRCUITS])
def test_surface_plain_circuit_fingerprint(basis, expected):
    code, layout = surface_code(3)
    schedule = schedule_round(code, layout, TimingConfig(),
                              order_policy="longest", tailored=False, seed=3)
    assert circuit_fingerprint(code, schedule, 3, basis) == expected


def test_bb72_random_circuit_fingerprint(bb72_path):
    code = load_css(str(bb72_path))
    layout = default_layout(code, build_grid(9, 8))
    schedule = schedule_round(code, layout, TimingConfig(),
                              order_policy="random", seed=1)
    assert circuit_fingerprint(code, schedule, 3, "Z") == BB72_RANDOM_CIRCUIT


def scan_fingerprint(code, schedule, rounds: int, basis: str
                     ) -> tuple[int, str]:
    circuit = emit_memory_circuit(replicate_rounds(schedule, rounds), code,
                                  compute_logicals(code), NoiseConfig(), basis)
    sites = sites_from_noise(circuit)
    rows = fault_scan(circuit, sites).rows
    return len(sites), hashlib.sha256(rows.tobytes()).hexdigest()


@pytest.mark.parametrize("basis,sites,expected", SURFACE_SCANS,
                         ids=[b for b, _, _ in SURFACE_SCANS])
def test_surface_scan_fingerprint(basis, sites, expected):
    code, layout = surface_code(3)
    schedule = schedule_round(code, layout, TimingConfig(),
                              order_policy="longest", seed=3)
    assert scan_fingerprint(code, schedule, 3, basis) == (sites, expected)


def test_bb72_random_scan_fingerprint(bb72_path):
    code = load_css(str(bb72_path))
    layout = default_layout(code, build_grid(9, 8))
    schedule = schedule_round(code, layout, TimingConfig(),
                              order_policy="random", seed=1)
    assert scan_fingerprint(code, schedule, 3, "Z") == BB72_RANDOM_SCAN
