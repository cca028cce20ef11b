"""Fault signatures and noiseless determinism from one backward Pauli walk.

`_walk` steps back once over a circuit, as Stim's error analyzer does
(Gidney, Quantum 5, 497, 2021); its docstring holds the rule of every
gate, measurement and reset. `fault_scan` takes from it each single
fault's detector and observable signature, as the rows of a uint8 matrix.
`simulate_noiseless` walks over no sites and takes which detectors and
observables are deterministic without noise, and their values.

Fault sites are flat integer columns (`FaultSites`), never per-site
objects: ``index`` has one entry per site, the instruction it follows; each
Pauli term of a site has one entry in ``term_site`` (the site's row,
ascending), ``term_qubit`` and ``term_bits`` (X 1, Z 2, Y 3).
`sites_from_noise` builds them in one pass over the noise instructions
into numpy arrays, from the per-channel templates of `emit.NOISE_CHANNELS`
(X_ERROR and Z_ERROR 1 site, DEPOLARIZE1 3, DEPOLARIZE2 15), and returns
int32 columns and uint8 bits; the walk sorts the terms with numpy alone
when they are not already in instruction order. A site's provenance is the
``meta`` of the instruction it follows.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, repeat

import numpy as np

from .emit import NOISE_CHANNELS, StabCircuit


# ---------------------------------------------------------------------------
# fault sites and their detector signatures


# Pauli letter -> bit 0 (X component) | bit 1 (Z component)
_PAULI_BITS = {"X": 1, "Y": 3, "Z": 2}


_KIND = {name: k for k, name in enumerate(NOISE_CHANNELS)}


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums, in the dtype of `counts`: where each run of
    `counts` starts."""
    return np.cumsum(counts, dtype=counts.dtype) - counts


def _templates() -> tuple[np.ndarray, ...]:
    """Per channel kind: arity (its Pauli word length), site count, term
    count and first template term; then the template terms of every kind,
    concatenated in kind order: site within one application, slot, X/Z bits."""
    arity, sites, terms, rows = [], [], [], []
    for paulis in NOISE_CHANNELS.values():
        kind_rows = [(s, slot, _PAULI_BITS[p]) for s, word in enumerate(paulis)
                     for slot, p in enumerate(word) if p != "I"]
        arity.append(len(paulis[0]))
        sites.append(len(paulis))
        terms.append(len(kind_rows))
        rows.extend(kind_rows)
    terms = np.array(terms, dtype=np.int32)
    site, slot, bits = np.array(rows, dtype=np.int32).T
    return (np.array(arity, dtype=np.int32), np.array(sites, dtype=np.int32),
            terms, _offsets(terms), site, slot, bits.astype(np.uint8))


(_ARITY, _SITES, _TERMS, _TERM_START,
 _T_SITE, _T_SLOT, _T_BITS) = _templates()


@dataclass(frozen=True)
class FaultSites:
    """Single-fault sites as flat integer columns, in scan order.

    Site r is injected right after instruction ``index[r]``. Its Pauli terms
    are the entries t with ``term_site[t] == r`` (contiguous, ascending r):
    ``term_qubit[t]`` is the qubit and ``term_bits[t]`` the X/Z bits (X 1,
    Z 2, Y 3). A site's provenance is ``circuit.instructions[index[r]].meta``.
    `sites_from_noise` gives int32 ``index``, ``term_site`` and
    ``term_qubit`` and uint8 ``term_bits``; `fault_scan` takes any integer
    dtype.
    """

    index: np.ndarray
    term_site: np.ndarray
    term_qubit: np.ndarray
    term_bits: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def sites_from_noise(circuit: StabCircuit) -> FaultSites:
    """Expand noise instructions into their possible single-fault Paulis.

    Sites follow the instructions, then each instruction's targets (pairs
    for DEPOLARIZE2), then the channel's Paulis: X_ERROR gives X, Z_ERROR
    gives Z, DEPOLARIZE1 gives X, Y, Z and DEPOLARIZE2 the 15 non-identity
    products of IXYZ x IXYZ in that order. The circuit is read by
    ``np.fromiter`` over iterators, so no list of Python ints is built, and
    every column is int32 (uint8 for the bits): instruction indices, qubits
    and term counts stay below 2**31.
    """
    instructions = circuit.instructions
    name_of = operator.attrgetter("name")
    targets_of = operator.attrgetter("targets")
    kind_of = defaultdict(lambda: -1, _KIND)  # -1: not a noise channel
    kinds = np.fromiter(map(kind_of.__getitem__, map(name_of, instructions)),
                        dtype=np.int8, count=len(instructions))
    noisy = kinds >= 0
    noise = list(compress(instructions, noisy))
    kind = kinds[noisy]
    width = np.fromiter(map(len, map(targets_of, noise)), dtype=np.int32,
                        count=len(noise))
    flat = np.fromiter(chain.from_iterable(map(targets_of, noise)),
                       dtype=np.int32, count=int(width.sum()))
    # one application per target, or per target pair for DEPOLARIZE2
    # (StabCircuit.append rejects an odd count, so applications tile `flat`)
    uses = width // _ARITY[kind]
    use_kind = np.repeat(kind, uses)
    use_sites, use_terms = _SITES[use_kind], _TERMS[use_kind]
    term_use = np.repeat(np.arange(len(use_kind), dtype=np.int32), use_terms)
    entry = (_TERM_START[use_kind] - _offsets(use_terms))[term_use]
    entry += np.arange(len(term_use), dtype=np.int32)
    # each term's site row and the place of its qubit in `flat`, summed in
    # place, and `term_use` dropped first: fewer term-long temporaries
    term_site = _offsets(use_sites)[term_use]
    place = _offsets(_ARITY[use_kind])[term_use]
    del term_use
    term_site += _T_SITE[entry]
    place += _T_SLOT[entry]
    return FaultSites(
        index=np.repeat(np.repeat(np.flatnonzero(noisy).astype(np.int32),
                                  uses), use_sites),
        term_site=term_site,
        term_qubit=flat[place],
        term_bits=_T_BITS[entry])


@dataclass
class ScanResult:
    """Outcome of `fault_scan`: row r of ``rows`` is site r's signature.

    Each row is a little-endian bit string of uint8: bit d is detector d,
    and the observables, in index order, start at the first byte after the
    detectors, byte ceil(num_detectors / 8). The counts and the scanned
    circuit's qubit and measurement counts are kept, so reading the flips
    walks no circuit.
    """

    sites: FaultSites
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
    for name, targets, arg, _ in circuit.instructions:
        if name == "DETECTOR":
            for m in targets:
                mask[m] ^= 1 << num_detectors
            num_detectors += 1
        elif name == "OBSERVABLE_INCLUDE":
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


# the most finished signatures the walk holds before writing them
_RUN_ROWS = 1024


def _write_run(written: memoryview, site: int, size: int,
               run: list[int]) -> None:
    """Write the signatures of sites site + len(run) - 1 down to site, in
    that order in `run`, as rows of `size` bytes, and empty `run`."""
    written[site * size:(site + len(run)) * size] = b"".join(
        map(int.to_bytes, reversed(run), repeat(size), repeat("little")))
    run.clear()


def _walk(circuit: StabCircuit, sites: FaultSites
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
      MX: ``random |= sz[q]``, then ``sx[q] ^= mask[m]``.

    A site injected after instruction i is read before the walk steps back
    over i: the XOR over its terms of ``sz[q]`` for X, ``sx[q]`` for Z and
    both for Y. Sites may come in any order; their terms are sorted by
    instruction, the terms of one site kept together. Past the first
    instruction, ``random |= sx[q]`` for every q, and what remains of a
    parity that is not random is -1^sign times a product of Zs on |0>, so
    its value is its sign bit.

    Finished signatures of consecutive sites, read one below the other as
    `sites_from_noise` gives them, are joined into rows and written into
    the preallocated rows when the run breaks or reaches _RUN_ROWS sites;
    a row per site written on its own made the scan a fifth slower on the
    7-round surface d7 circuit. The walk so holds at most _RUN_ROWS
    signatures besides the ceil(num_detectors / 8) +
    ceil(num_observables / 8) bytes per site of the rows.

    Returns the (sites, row bytes) uint8 rows, the detector count, each
    observable's bit by ascending index, ``sign`` and ``random``.
    """
    nq, instructions = circuit.num_qubits, circuit.instructions
    mask, num_detectors, observables = _record_masks(circuit)
    size = -(-num_detectors // 8) + -(-len(observables) // 8)
    out = np.zeros(len(sites) * size, dtype=np.uint8)
    written = memoryview(out)  # site r's row is [r * size, (r + 1) * size)

    # terms by instruction, read from the last through memoryviews, which
    # hand out one int at a time
    at = sites.index[sites.term_site]
    columns = [at, sites.term_site, sites.term_qubit, sites.term_bits]
    if (at[1:] < at[:-1]).any():
        order = np.argsort(at, kind="stable")
        columns = [col[order] for col in columns]
    terms = zip(*(reversed(memoryview(np.ascontiguousarray(col)))
                  for col in columns))
    done = (-1, 0, 0, 0)  # after the last term: no instruction has index -1
    at, row, target, pauli = next(terms, done)
    sx, sz = [0] * nq, [0] * nq
    sign = random = 0
    measured = circuit.num_measurements  # records before instruction i
    # finished signatures of the sites just above `site`, the highest first
    run: list[int] = []
    site, signature = row, 0
    i = len(instructions)
    for name, targets, _, _ in reversed(instructions):
        i -= 1
        while at == i:  # a term of a site injected after instruction i
            if row != site:  # the terms of `site` are done
                run.append(signature)
                if row != site - 1 or len(run) == _RUN_ROWS:
                    _write_run(written, site, size, run)
                site, signature = row, 0
            if pauli & 1:
                signature ^= sz[target]
            if pauli & 2:
                signature ^= sx[target]
            at, row, target, pauli = next(terms, done)
        if name == "CX":
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
    if len(sites.term_site):
        run.append(signature)
        _write_run(written, site, size, run)
    for x in sx:
        random |= x
    return (out.reshape(len(sites), size), num_detectors, observables,
            sign, random)


def fault_scan(circuit: StabCircuit, sites: FaultSites) -> ScanResult:
    """Every site's detector and observable signature: the rows `_walk`
    writes, ceil(num_detectors / 8) + ceil(num_observables / 8) bytes per
    site, the only memory the result holds.

    Raises IndexError for a site whose instruction index or qubit is out of
    range, naming the site's row, and ValueError for a term whose site row
    or X/Z bits are out of range or whose site row is below the one before.
    """
    nq, index = circuit.num_qubits, sites.index
    bad = np.flatnonzero((index < 0) | (index >= len(circuit.instructions)))
    if bad.size:
        row = int(bad[0])
        raise IndexError(f"fault site {row}: no instruction at {index[row]}")
    rows, qubit, bits = sites.term_site, sites.term_qubit, sites.term_bits
    bad = np.flatnonzero((qubit < 0) | (qubit >= nq))
    if bad.size:
        t = int(bad[0])
        raise IndexError(f"fault site {rows[t]}: qubit {qubit[t]} out of range "
                         f"for {nq} qubits")
    bad = np.flatnonzero((rows < 0) | (rows >= len(index)) | (bits < 1)
                         | (bits > 3) | np.append(False, rows[1:] < rows[:-1]))
    if bad.size:
        t = int(bad[0])
        raise ValueError(f"Pauli term {t}: site {rows[t]}, bits {bits[t]}; "
                         f"need ascending sites in [0, {len(index)}) and "
                         f"bits X 1, Z 2 or Y 3")
    out, num_detectors, observables, _, _ = _walk(circuit, sites)
    return ScanResult(sites=sites, rows=out, num_detectors=num_detectors,
                      num_observables=len(observables), num_qubits=nq,
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
    over no fault sites: a parity whose bit is set in the walk's ``random``
    is random, any other has the value of its ``sign`` bit."""
    none = np.zeros(0, dtype=np.int32)
    _, num_detectors, observables, sign, random = _walk(
        circuit, FaultSites(none, none, none, none))

    def value(bit: int) -> int | None:
        return None if random >> bit & 1 else sign >> bit & 1

    return NoiselessReport(
        detectors=list(map(value, range(num_detectors))),
        observables={obs: value(bit) for obs, bit in observables.items()})
