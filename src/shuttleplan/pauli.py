"""Fault signatures and noiseless determinism from one backward Pauli walk.

`_walk` steps back once over a circuit, as Stim's error analyzer does
(Gidney, Quantum 5, 497, 2021); its docstring holds the rule of every
gate, measurement, reset and noise channel. `fault_scan` takes from it the
detector and observable signature of every single fault of the circuit's
noise instructions, as the rows of a uint8 matrix. `simulate_noiseless`
walks past the noise and takes which detectors and observables are
deterministic without noise, and their values.

A noise instruction's sites are the Paulis of `emit.NOISE_CHANNELS`, one
per Pauli word of its channel for each target (each target pair for
DEPOLARIZE2): X_ERROR and Z_ERROR 1 per target, DEPOLARIZE1 3 and
DEPOLARIZE2 15 per pair. The walk reads them off the instruction as it
steps back over it, so no per-term array is built; the one per-site array
is `sites_from_noise`'s, the instruction index of each site, and a site's
provenance is the ``meta`` of that instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import floordiv, itemgetter, mul
from typing import Iterator

import numpy as np

from .emit import NOISE_CHANNELS, StabCircuit


# ---------------------------------------------------------------------------
# fault sites and their detector signatures


# noise channel -> its site count per two targets: a one-qubit channel's
# Paulis for each of two targets, a DEPOLARIZE2 word's for its one pair
_SITES_PER_TWO = {name: 2 * len(words) // len(words[0])
                  for name, words in NOISE_CHANNELS.items()}


def sites_from_noise(circuit: StabCircuit) -> np.ndarray:
    """The int32 instruction index of every single-fault site, in scan order.

    Sites follow the instructions, then each instruction's targets (pairs
    for DEPOLARIZE2), then the channel's Paulis: X_ERROR gives X, Z_ERROR
    gives Z, DEPOLARIZE1 gives X, Y, Z and DEPOLARIZE2 the 15 non-identity
    products of IXYZ x IXYZ in that order. Entry r is the instruction that
    site r's fault follows, its place in ``circuit.instructions``; that
    instruction's ``meta`` says what made it. `_walk` reads the Paulis off
    the instruction, so this index is all `fault_scan` takes.
    """
    return _site_index(circuit)


def _site_counts(batch) -> Iterator[int]:
    """The site count of each instruction of a batch, 0 for one that is no
    noise."""
    per_two = map(_SITES_PER_TWO.get, map(itemgetter(0), batch), repeat(0))
    twice = map(mul, per_two, map(len, map(itemgetter(1), batch)))
    return map(floordiv, twice, repeat(2))


def _site_index(circuit: StabCircuit) -> np.ndarray:
    """`sites_from_noise`, built a batch at a time. A distinct batch's site
    counts are summed once for the size of the index and taken once more
    for its copies, so that one batch's counts and one copy's index are
    all that is held besides the result."""
    sizes = [sum(_site_counts(batch)) for batch, _ in circuit.batches]
    index = np.empty(sum(size * copies for size, (_, copies)
                         in zip(sizes, circuit.batches)), dtype=np.int32)
    at = first = 0  # index entries and instructions before the copy
    for size, (batch, copies) in zip(sizes, circuit.batches):
        count = np.fromiter(_site_counts(batch), dtype=np.intp,
                            count=len(batch))
        for _ in range(copies):
            index[at:at + size] = np.repeat(
                np.arange(first, first + len(batch), dtype=np.int32), count)
            at += size
            first += len(batch)
    return index


@dataclass
class ScanResult:
    """Outcome of `fault_scan`: row r of ``rows`` is site r's signature.

    Each row is a little-endian bit string of uint8: bit d is detector d,
    and the observables, in index order, start at the first byte after the
    detectors, byte ceil(num_detectors / 8). The counts and the scanned
    circuit's qubit and measurement counts are kept, so reading the flips
    walks no circuit.
    """

    sites: np.ndarray
    rows: np.ndarray
    num_detectors: int
    num_observables: int
    num_qubits: int
    num_measurements: int

    def _check_circuit(self, circuit: StabCircuit) -> None:
        """Raise ValueError unless `circuit` has the scanned circuit's
        qubit and measurement counts."""
        have = (circuit.num_qubits, circuit.num_measurements)
        want = (self.num_qubits, self.num_measurements)
        if have != want:
            raise ValueError(f"circuit has (qubits, measurements) {have}, "
                             f"the scanned one {want}")

    def detector_flips(self, circuit: StabCircuit) -> np.ndarray:
        """(num_sites, num_detectors) matrix of the scanned circuit's
        detector parity flips; `circuit` must be the scanned one."""
        self._check_circuit(circuit)
        count = self.num_detectors
        return np.unpackbits(self.rows[:, :-(-count // 8)], axis=1,
                             count=count, bitorder="little")

    def observable_flips(self, circuit: StabCircuit) -> np.ndarray:
        """(num_sites, num_observables) matrix, columns by observable index;
        `circuit` must be the scanned one."""
        self._check_circuit(circuit)
        start = -(-self.num_detectors // 8)
        return np.unpackbits(self.rows[:, start:], axis=1,
                             count=self.num_observables, bitorder="little")


def _record_masks(circuit: StabCircuit
                  ) -> tuple[list[int], int, dict[int, int]]:
    """The row layout of `ScanResult`, as one int per measurement record:
    the bits of the detectors and observables holding it. Detector d is
    bit d; the observable k-th by index is bit 8 * ceil(num_detectors / 8)
    + k. Returns the masks, the detector count and each observable's bit,
    by ascending index."""
    mask = [0] * circuit.num_measurements
    num_detectors = 0
    observables: dict[int, list[tuple[int, ...]]] = {}
    for batch, copies in circuit.batches:
        records = [(name, targets, arg) for name, targets, arg, _ in batch
                   if name in ("DETECTOR", "OBSERVABLE_INCLUDE")]
        for _ in range(copies):
            for name, targets, arg in records:
                if name == "DETECTOR":
                    for m in targets:
                        mask[m] ^= 1 << num_detectors
                    num_detectors += 1
                else:
                    observables.setdefault(int(arg[0]), []).append(targets)
    bits = {obs: bit for bit, obs in enumerate(sorted(observables),
                                               8 * -(-num_detectors // 8))}
    for obs, bit in bits.items():
        for records in observables[obs]:
            for m in records:
                mask[m] ^= 1 << bit
    return mask, num_detectors, bits


# ---------------------------------------------------------------------------
# the backward walk


# noise channel -> its Pauli words in reverse site order, each word one
# letter per slot: 0 I, 1 X, 2 Y, 3 Z, the place of the slot's signature in
# (0, sz[q], sx[q] ^ sz[q], sx[q])
_WORDS = {name: [tuple(map("IXYZ".index, word)) for word in reversed(words)]
          for name, words in NOISE_CHANNELS.items()}

# the most finished signatures the walk holds before writing them, besides
# those of one noise instruction
_RUN_ROWS = 1024


def _write_run(written: memoryview, site: int, size: int,
               run: list[int]) -> None:
    """Write the signatures of sites site + len(run) - 1 down to site, in
    that order in `run`, as rows of `size` bytes, and empty `run`."""
    written[site * size:(site + len(run)) * size] = b"".join(
        map(int.to_bytes, reversed(run), repeat(size), repeat("little")))
    run.clear()


def _walk(circuit: StabCircuit, num_sites: int
          ) -> tuple[np.ndarray, int, dict[int, int], int, int]:
    """Walk `circuit` back once, from its last instruction to its first.

    `_record_masks` gives each measurement record the bits, in the row
    layout of `ScanResult`, of the detectors and observables holding it.
    Bit b of ``sx[q]`` and of ``sz[q]`` says whether parity b's backward
    Pauli, -1^sign X^x Z^z with no factor of i, has an X and a Z on q at
    the current point: ``sz[q]`` is the signature of an X error on q there,
    ``sx[q]`` that of a Z error. Bit b of ``sign`` is parity b's sign and
    bit b of ``random`` is set once its Pauli anticommutes with a reset, a
    measurement or the |0> every qubit starts in. Stepping back over

    - CX(c, t), its pairs in reverse: ``sx[c]`` XORed into ``sx[t]`` and
      ``sz[t]`` into ``sz[c]``. It maps X_c to X_c X_t and Z_t to Z_c Z_t,
      so it moves no Z past an X on one qubit and leaves every sign alone;
    - H on q: ``sign ^= sx[q] & sz[q]``, as H X^x Z^z H = -1^(xz) X^z Z^x,
      then the swap of ``sx[q]`` and ``sz[q]``; H is the only sign rule;
    - R on q: ``random |= sx[q]``, then both cleared; RX: ``random |=
      sz[q]``, then both cleared;
    - M on q with record m: ``random |= sx[q]``, then ``sz[q] ^= mask[m]``;
      MX: ``random |= sz[q]``, then ``sx[q] ^= mask[m]``;
    - X_ERROR, Z_ERROR, DEPOLARIZE1 or DEPOLARIZE2, which changes no
      Pauli: the signatures of its sites, read in reverse site order. A
      site's Pauli word gives ``sz[q]`` for an X on q, ``sx[q]`` for a Z
      and both for a Y, and a DEPOLARIZE2 word the XOR of its two slots.

    The walk steps over the circuit's batches from the last, and over each
    batch once per copy, from the batch's last instruction. It so reads
    the sites from the last down to the first, and `num_sites` must be
    their count. With 0 it walks past the noise: each distinct batch's
    other instructions are picked out once, about 30% of a memory
    circuit's, and only they are stepped over in every copy. Past
    the first instruction, ``random |= sx[q]`` for every q, and what
    remains of a parity that is not random is -1^sign times a product of
    Zs on |0>, so its value is its sign bit.

    Finished signatures are joined into rows and written into the
    preallocated rows once _RUN_ROWS or more are held, after a noise
    instruction; a row per site written on its own made the scan a fifth
    slower on the 7-round surface d7 circuit. The walk so holds at most
    _RUN_ROWS signatures and those of one instruction besides the
    ceil(num_detectors / 8) + ceil(num_observables / 8) bytes per site of
    the rows.

    Returns the (sites, row bytes) uint8 rows, the detector count, each
    observable's bit by ascending index, ``sign`` and ``random``.
    """
    nq = circuit.num_qubits
    mask, num_detectors, observables = _record_masks(circuit)
    size = -(-num_detectors // 8) + -(-len(observables) // 8)
    out = np.zeros(num_sites * size, dtype=np.uint8)
    written = memoryview(out)  # site r's row is [r * size, (r + 1) * size)
    sx, sz = [0] * nq, [0] * nq
    sign = random = 0
    measured = circuit.num_measurements  # records before the instruction
    # finished signatures of the sites just below `site`, the highest first
    run: list[int] = []
    add = run.append
    site = num_sites
    # every copy of every batch, from the last; past the noise, a distinct
    # batch's other instructions are picked out once
    backward = chain.from_iterable(
        map(reversed, repeat(batch if num_sites else
                             [i for i in batch if i.name not in _WORDS],
                             copies))
        for batch, copies in reversed(circuit.batches))
    for name, targets, _, _ in chain.from_iterable(backward):
        if name in _WORDS:
            words = _WORDS[name]
            if len(words[0]) == 1:
                for q in reversed(targets):
                    x, z = sx[q], sz[q]
                    read = (0, z, x ^ z, x)
                    for p, in words:
                        add(read[p])
            else:
                for k in range(len(targets) - 2, -1, -2):
                    a, b = targets[k], targets[k + 1]
                    read_a = (0, sz[a], sx[a] ^ sz[a], sx[a])
                    read_b = (0, sz[b], sx[b] ^ sz[b], sx[b])
                    for p, r in words:
                        add(read_a[p] ^ read_b[r])
            if len(run) >= _RUN_ROWS:
                site -= len(run)
                _write_run(written, site, size, run)
        elif name == "CX":
            for k in range(len(targets) - 2, -1, -2):
                c, t = targets[k], targets[k + 1]
                sx[t] ^= sx[c]
                sz[c] ^= sz[t]
        elif name == "H":
            for q in targets:
                sign ^= sx[q] & sz[q]
                sz[q], sx[q] = sx[q], sz[q]
        elif name in ("R", "RX"):
            anti = sx if name == "R" else sz
            for q in targets:
                random |= anti[q]
                sz[q] = sx[q] = 0
        elif name in ("M", "MX"):
            measured -= len(targets)
            anti, sens = (sx, sz) if name == "M" else (sz, sx)
            for m, q in enumerate(targets, measured):
                random |= anti[q]
                sens[q] ^= mask[m]
    if run:
        _write_run(written, 0, size, run)
    for x in sx:
        random |= x
    return (out.reshape(num_sites, size), num_detectors, observables,
            sign, random)


def fault_scan(circuit: StabCircuit, sites: np.ndarray) -> ScanResult:
    """Every site's detector and observable signature: the rows `_walk`
    writes, ceil(num_detectors / 8) + ceil(num_observables / 8) bytes per
    site, the only memory the result holds.

    `sites` must be `sites_from_noise(circuit)`, in any integer dtype: the
    walk reads the sites off the noise instructions, and sites of another
    circuit, with another count or index, raise ValueError.
    """
    own = _site_index(circuit)
    if not np.array_equal(sites, own):
        raise ValueError(f"{len(sites)} fault sites given, not the "
                         f"{len(own)} of this circuit's noise instructions")
    del own  # equal to sites, so only one index stays alive through the walk
    out, num_detectors, observables, _, _ = _walk(circuit, len(sites))
    return ScanResult(sites=sites, rows=out, num_detectors=num_detectors,
                      num_observables=len(observables),
                      num_qubits=circuit.num_qubits,
                      num_measurements=circuit.num_measurements)


# ---------------------------------------------------------------------------
# noiseless determinism


@dataclass
class NoiselessReport:
    """Noiseless verdicts of `simulate_noiseless`: per detector, in circuit
    order, and per observable index, the value 0 or 1 of a deterministic
    parity, or None for a random one."""

    detectors: list[int | None]
    observables: dict[int, int | None]

    @property
    def all_detectors_deterministic_zero(self) -> bool:
        return all(d == 0 for d in self.detectors)

    @property
    def all_observables_deterministic(self) -> bool:
        return None not in self.observables.values()


def simulate_noiseless(circuit: StabCircuit) -> NoiselessReport:
    """Decide each detector and observable of a noiseless run from `_walk`
    past the noise: a parity whose bit is set in the walk's ``random`` is
    random, any other has the value of its ``sign`` bit."""
    _, num_detectors, observables, sign, random = _walk(circuit, 0)

    def value(bit: int) -> int | None:
        return None if random >> bit & 1 else sign >> bit & 1

    return NoiselessReport(
        detectors=list(map(value, range(num_detectors))),
        observables={obs: value(bit) for obs, bit in observables.items()})
