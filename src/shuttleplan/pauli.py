"""Fault signatures by a backward detector pass, and a stabilizer tableau.

`fault_scan` finds the detectors and observables that every single fault
flips in one reverse walk over the circuit, as Stim's error analyzer does
(Gidney, Quantum 5, 497, 2021). It keeps, per qubit, the signature of an X
and of a Z error at the current point as Python ints, updates them at each
measurement, reset and gate it steps back over, and reads a site when it
reaches the instruction the site follows. The signatures are written into
the rows of a preallocated uint8 matrix, a run of at most 1,024
consecutive sites at a time: ceil(num_detectors / 8) +
ceil(num_observables / 8) bytes per site, the only memory the result
holds.

Fault sites are flat integer columns (`FaultSites`), never per-site
objects: ``index`` has one entry per site, the instruction it follows; each
Pauli term of a site has one entry in ``term_site`` (the site's row,
ascending), ``term_qubit`` and ``term_bits`` (X 1, Z 2, Y 3).
`sites_from_noise` builds them in one pass over the noise instructions
into numpy arrays, from the per-channel templates of `emit.NOISE_CHANNELS`
(X_ERROR and Z_ERROR 1 site, DEPOLARIZE1 3, DEPOLARIZE2 15), and returns
int32 columns and uint8 bits; the scan sorts the terms with numpy alone
when they are not already in instruction order. A site's provenance is the
``meta`` of the instruction it follows.

The tableau is the destabilizer/stabilizer pair of Aaronson and Gottesman
(PRA 70, 052328, 2004) with one twist: the sign of every stabilizer is an
affine GF(2) expression in the outcomes of the random measurements seen so
far, tracked as (constant bit, bitmask over outcome variables). A
measurement or detector is deterministic exactly when its bitmask is zero,
so determinism is decided algebraically instead of by repeated sampling.
The tableau is bit-packed by column in Python ints, as Stim packs its
tableau: bit r of ``xc[q]`` and ``zc[q]`` is row r's X and Z on qubit q,
and bit r of ``sign`` its sign. H is a swap and one AND/XOR, CX three int
operations. A random measurement multiplies the pivot row into every
anticommuting row at once, walking the pivot's columns with a bit-sliced
mod-4 phase counter. A deterministic one reads the sign of the single
stabilizer that is +-Z_q, or multiplies the few it is a product of. The
outcomes do not depend on the pivot: each deterministic one is the unique
affine function of the earlier random outcomes.
"""

from __future__ import annotations

import functools
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


# the most finished signatures `fault_scan` holds before writing them
_RUN_ROWS = 1024


def _write_run(written: memoryview, site: int, size: int,
               run: list[int]) -> None:
    """Write the signatures of sites site + len(run) - 1 down to site, in
    that order in `run`, as rows of `size` bytes, and empty `run`."""
    written[site * size:(site + len(run)) * size] = b"".join(
        map(int.to_bytes, reversed(run), repeat(size), repeat("little")))
    run.clear()


def fault_scan(circuit: StabCircuit, sites: FaultSites) -> ScanResult:
    """Every site's detector and observable signature, in one backward pass.

    One forward walk reads the detectors and observables into a mask per
    measurement record: the bits of the detectors and observables holding
    it. Walking back from the last instruction to the earliest site,
    ``sz[q]`` and ``sx[q]`` are the signatures of an X and a Z error on q
    at that point, as Python ints in the row layout of `ScanResult`.
    Passing back over M on q with record m XORs the record's mask into
    ``sz[q]``, over MX into ``sx[q]``; R and RX clear both, H swaps them,
    and CX(c, t), its pairs taken in reverse, does ``sx[t] ^= sx[c];
    sz[c] ^= sz[t]``. A site injected after instruction i is read before
    the walk steps back over i: the XOR over its terms of ``sz[q]`` for X,
    ``sx[q]`` for Z and both for Y. Sites may come in any order. Finished
    signatures of consecutive sites, read one below the other as
    `sites_from_noise` gives them, are joined into rows and written into
    the preallocated result when the run breaks or reaches _RUN_ROWS
    sites; a row per site written on its own made the scan a fifth slower
    on the 7-round surface d7 circuit.
    The scan so holds at most _RUN_ROWS signatures besides the
    ceil(num_detectors / 8) + ceil(num_observables / 8) bytes per site of
    the result.

    Raises IndexError for a site whose instruction index or qubit is out of
    range, naming the site's row, and ValueError for a term whose site row
    or X/Z bits are out of range or whose site row is below the one before.
    """
    nq, index = circuit.num_qubits, sites.index
    instructions = circuit.instructions
    bad = np.flatnonzero((index < 0) | (index >= len(instructions)))
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

    # record m -> the bits of the detectors and observables holding it
    mask = [0] * circuit.num_measurements
    num_detectors = 0
    observables: dict[int, list[tuple[int, ...]]] = {}
    for name, targets, arg, _ in instructions:
        if name == "DETECTOR":
            for m in targets:
                mask[m] ^= 1 << num_detectors
            num_detectors += 1
        elif name == "OBSERVABLE_INCLUDE":
            observables.setdefault(int(arg[0]), []).append(targets)
    shift = 8 * -(-num_detectors // 8)  # observable k is bit shift + k
    for bit, obs in enumerate(sorted(observables), shift):
        for records in observables[obs]:
            for m in records:
                mask[m] ^= 1 << bit
    size = shift // 8 + -(-len(observables) // 8)
    out = np.zeros(len(index) * size, dtype=np.uint8)
    written = memoryview(out)  # site r's row is [r * size, (r + 1) * size)

    # terms by instruction, read from the last; the terms of one site stay
    # together, and memoryviews hand out one int at a time. A term's walk
    # stops just after its site's instruction.
    stop = index[rows] + 1
    columns = [stop, rows, qubit, bits]
    if (stop[1:] < stop[:-1]).any():
        order = np.argsort(stop, kind="stable")
        columns = [col[order] for col in columns]
    columns = [memoryview(np.ascontiguousarray(col)) for col in columns]
    sz, sx = [0] * nq, [0] * nq
    measured = circuit.num_measurements  # records before instruction i
    i = len(instructions)  # instructions i and later are stepped back over
    # finished signatures of the sites just above `site`, the highest first
    run: list[int] = []
    site = columns[1][-1] if len(rows) else 0
    signature = 0
    for end, row, target, pauli in zip(*map(reversed, columns)):
        if row != site:  # the terms of `site` are done
            run.append(signature)
            if row != site - 1 or len(run) == _RUN_ROWS:
                _write_run(written, site, size, run)
            site, signature = row, 0
        while i > end:  # step back to just after the site
            i -= 1
            name, targets, _, _ = instructions[i]
            if name == "CX":
                for k in range(len(targets) - 2, -1, -2):
                    c, t = targets[k], targets[k + 1]
                    sx[t] ^= sx[c]
                    sz[c] ^= sz[t]
            elif name == "H":
                for q in targets:
                    sz[q], sx[q] = sx[q], sz[q]
            elif name in ("R", "RX"):
                for q in targets:
                    sz[q] = sx[q] = 0
            elif name in ("M", "MX"):
                measured -= len(targets)
                sens = sz if name == "M" else sx
                for m, q in enumerate(targets, measured):
                    sens[q] ^= mask[m]
        if pauli & 1:
            signature ^= sz[target]
        if pauli & 2:
            signature ^= sx[target]
    if len(rows):
        run.append(signature)
        _write_run(written, site, size, run)
    return ScanResult(sites=sites, rows=out.reshape(len(index), size),
                      num_detectors=num_detectors,
                      num_observables=len(observables),
                      num_qubits=nq, num_measurements=circuit.num_measurements)


# ---------------------------------------------------------------------------
# tableau simulation with symbolic measurement outcomes


@dataclass(frozen=True)
class Outcome:
    """Affine GF(2) expression: const XOR (bits named by the mask)."""

    const: int
    mask: int
    random: bool  # introduced a fresh outcome variable

    @property
    def deterministic(self) -> bool:
        return self.mask == 0

    def __xor__(self, other: "Outcome") -> "Outcome":
        return Outcome(self.const ^ other.const, self.mask ^ other.mask,
                       self.random or other.random)


class TableauError(RuntimeError):
    """A tableau invariant broke: rows that must commute anticommute."""


def _bits(value: int):
    """Indices of the set bits of a non-negative int, ascending."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


class Tableau:
    """Destabilizer/stabilizer tableau with affine symbolic signs.

    Column-major over Python ints: bit r of ``xc[q]`` and ``zc[q]`` is the X
    and Z component of row r on qubit q. Rows 0..n-1 are the destabilizers
    and rows n..2n-1 the stabilizers. Bit r of ``sign`` and ``mask[r]`` are
    the constant and outcome-variable mask of row r's sign; only the
    stabilizer rows' are kept up to date, since nothing reads a
    destabilizer's.
    """

    def __init__(self, n: int):
        self.n = n
        self.xc = [1 << q for q in range(n)]          # destabilizer X_q
        self.zc = [1 << (n + q) for q in range(n)]    # stabilizer Z_q
        self.sign = 0
        self.mask = [0] * (2 * n)
        self.num_random = 0

    def h(self, q: int) -> None:
        x, z = self.xc[q], self.zc[q]
        self.sign ^= x & z
        self.xc[q], self.zc[q] = z, x

    def cx(self, c: int, t: int) -> None:
        xc, zc = self.xc, self.zc
        x_c, z_t = xc[c], zc[t]
        self.sign ^= x_c & z_t & ~(xc[t] ^ zc[c])
        xc[t] ^= x_c
        zc[c] ^= z_t

    def measure(self, q: int) -> Outcome:
        """Measure Z_q.

        Raises TableauError if the stabilizer rows it multiplies do not
        commute, which a tableau built only through this API never does.
        """
        hits = self.xc[q]
        stab_hits = hits >> self.n
        if stab_hits:
            pivot = self.n + (stab_hits & -stab_hits).bit_length() - 1
            return self._measure_random(q, pivot, hits)
        if hits and not hits & (hits - 1):
            # one destabilizer anticommutes with Z_q: its stabilizer is +-Z_q
            row = self.n + hits.bit_length() - 1
            return Outcome(self.sign >> row & 1, self.mask[row], False)
        return self._measure_deterministic(hits)

    def _measure_random(self, q: int, p: int, hits: int) -> Outcome:
        """Multiply stabilizer p into every other row anticommuting with Z_q,
        make p the destabilizer of the new stabilizer Z_q."""
        n, xc, zc = self.n, self.xc, self.zc
        others = hits ^ (1 << p)
        d = p - n
        keep = ~((1 << p) | (1 << d))
        # per-row i-exponent of the product, mod 4, bit-sliced over rows:
        # bit r of `low` and `high` are the two bits of row r's counter
        low = high = 0
        touched = (1 << p) | (1 << d)
        for j, (xj, zj) in enumerate(zip(xc, zc)):
            if not (xj | zj) & touched:
                continue
            xp, zp = xj >> p & 1, zj >> p & 1
            if xp or zp:
                # g(pivot, row) is +1 or -1 where the two Paulis anticommute;
                # `neg` marks the -1 rows among them
                if xp and zp:            # Y: g = z - x
                    anti, neg = xj ^ zj, xj
                elif xp:                 # X: g = z (2x - 1)
                    anti, neg = zj, ~xj
                else:                    # Z: g = x (1 - 2z)
                    anti, neg = xj, zj
                anti &= others
                high ^= anti & (low ^ neg)
                low ^= anti
                if xp:
                    xj ^= others
                if zp:
                    zj ^= others
            # the old pivot row becomes destabilizer d; row p is cleared
            xc[j] = (xj & keep) | (xp << d)
            zc[j] = (zj & keep) | (zp << d)
        zc[q] |= 1 << p
        stab_others = others >> n << n
        if low & stab_others:
            raise TableauError("rowsum applied to anticommuting stabilizer "
                               "rows")
        # new sign = old sign + pivot sign + (sum of g) / 2, on every row
        flip = high ^ others if self.sign >> p & 1 else high
        self.sign = (self.sign ^ (flip & others)) & ~(1 << p)
        mask = self.mask
        if mask[p]:
            for r in _bits(stab_others):
                mask[r] ^= mask[p]
        bit = self.num_random
        self.num_random += 1
        mask[p] = 1 << bit
        return Outcome(const=0, mask=1 << bit, random=True)

    def _measure_deterministic(self, hits: int) -> Outcome:
        """Z_q is the product of the stabilizers whose destabilizers it
        anticommutes with; its sign is that product's phase.

        For rows i in ascending order, with x_i, z_i their bits and X, Z
        the XORs over the rows, the product of i^(x_i.z_i) X^x_i Z^z_i is
        i^e X^X Z^Z with e = sum x_i.z_i + 2 sum z_<i.x_i, and the phase of
        the product is e - X.Z (mod 4). A column adds to e only where it
        holds both an X and a Z of the selected rows.
        """
        n = self.n
        sel = hits << n
        phase = 2 * (self.sign & sel).bit_count()
        for xj, zj in zip(self.xc, self.zc):
            x = xj & sel
            if x:
                z = zj & sel
                if z:
                    phase += (x & z).bit_count() \
                        - (x.bit_count() & z.bit_count() & 1)
                    for r in _bits(z):
                        phase += 2 * (x >> (r + 1)).bit_count()
        if phase % 2:
            raise TableauError("deterministic outcome must be a +/- Z product")
        mask = 0
        for r in _bits(sel):
            mask ^= self.mask[r]
        return Outcome(const=phase >> 1 & 1, mask=mask, random=False)

    def reset(self, q: int) -> None:
        """Project q to |0>, conditionally flipping on the symbolic outcome."""
        out = self.measure(q)
        if out.const:
            self.sign ^= self.zc[q]
        if out.mask:
            for r in _bits(self.zc[q] >> self.n << self.n):
                self.mask[r] ^= out.mask


@dataclass
class NoiselessReport:
    measurements: list[Outcome]
    detectors: list[Outcome]
    observables: dict[int, Outcome]

    @property
    def all_detectors_deterministic_zero(self) -> bool:
        return all(d.deterministic and d.const == 0 for d in self.detectors)

    @property
    def all_observables_deterministic(self) -> bool:
        return all(o.deterministic for o in self.observables.values())


def simulate_noiseless(circuit: StabCircuit) -> NoiselessReport:
    """Run the tableau over gates only; evaluate detectors symbolically."""
    tab = Tableau(circuit.num_qubits)
    h, cx, measure, reset = tab.h, tab.cx, tab.measure, tab.reset
    outcomes: list[Outcome] = []
    record = outcomes.append
    for instr in circuit.instructions:
        name, targets = instr.name, instr.targets
        if name == "CX":
            for c, t in zip(targets[::2], targets[1::2]):
                cx(c, t)
        elif name == "H":
            for q in targets:
                h(q)
        elif name == "R":
            for q in targets:
                reset(q)
        elif name == "RX":
            for q in targets:
                reset(q)
                h(q)
        elif name == "M":
            for q in targets:
                record(measure(q))
        elif name == "MX":
            for q in targets:
                h(q)
                record(measure(q))
                h(q)
        # noise channels, ticks and annotations do not touch the tableau

    def parity(targets) -> Outcome:
        return functools.reduce(operator.xor, (outcomes[m] for m in targets),
                                Outcome(0, 0, False))

    detectors = [parity(targets) for targets, _ in circuit.detectors()]
    observables = {obs: parity(targets) for obs, targets
                   in sorted(circuit.observables().items())}
    return NoiselessReport(outcomes, detectors, observables)
