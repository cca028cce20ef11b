"""Fault signatures by a backward detector pass, and a stabilizer tableau.

`fault_scan` finds the detectors and observables that every single fault
flips in one reverse walk over the circuit, as Stim's error analyzer does
(Gidney, Quantum 5, 497, 2021). It keeps, per qubit, the signature of an X
and of a Z error at the current point as Python ints, updates them at each
measurement, reset and gate it steps back over, and reads a site when it
reaches the instruction the site follows. Each signature comes out
directly, as one bit row per site: ceil(num_detectors / 8) +
ceil(num_observables / 8) bytes, the only memory the result holds.

Fault sites are flat int64 columns (`FaultSites`), never per-site objects:
``index`` has one entry per site, the instruction it follows; each Pauli
term of a site has one entry in ``term_site`` (the site's row, ascending),
``term_qubit`` and ``term_bits`` (X 1, Z 2, Y 3). `sites_from_noise` builds
them in one pass over the noise instructions from the per-channel
templates of `emit.NOISE_CHANNELS` (X_ERROR and Z_ERROR 1 site, DEPOLARIZE1
3, DEPOLARIZE2 15), and the scan sorts the terms with numpy alone. A site's
provenance is the ``meta`` of the instruction it follows.

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
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .emit import NOISE_CHANNELS, StabCircuit


# ---------------------------------------------------------------------------
# fault sites and their detector signatures


# Pauli letter -> bit 0 (X component) | bit 1 (Z component)
_PAULI_BITS = {"X": 1, "Y": 3, "Z": 2}


_KIND = {name: k for k, name in enumerate(NOISE_CHANNELS)}


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each run of `counts` starts."""
    return np.cumsum(counts) - counts


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
    terms = np.array(terms, dtype=np.int64)
    return (np.array(arity, dtype=np.int64), np.array(sites, dtype=np.int64),
            terms, _offsets(terms), *np.array(rows, dtype=np.int64).T)


(_ARITY, _SITES, _TERMS, _TERM_START,
 _T_SITE, _T_SLOT, _T_BITS) = _templates()


@dataclass(frozen=True)
class FaultSites:
    """Single-fault sites as flat int64 columns, in scan order.

    Site r is injected right after instruction ``index[r]``. Its Pauli terms
    are the entries t with ``term_site[t] == r`` (contiguous, ascending r):
    ``term_qubit[t]`` is the qubit and ``term_bits[t]`` the X/Z bits (X 1,
    Z 2, Y 3). A site's provenance is ``circuit.instructions[index[r]].meta``.
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
    products of IXYZ x IXYZ in that order.
    """
    at, kind, width, flat = [], [], [], []
    for idx, instr in enumerate(circuit.instructions):
        k = _KIND.get(instr.name)
        if k is None:
            continue
        at.append(idx)
        kind.append(k)
        width.append(len(instr.targets))
        flat.extend(instr.targets)
    kind = np.array(kind, dtype=np.int64)
    # one application per target, or per target pair for DEPOLARIZE2
    # (StabCircuit.append rejects an odd count, so applications tile `flat`)
    uses = np.array(width, dtype=np.int64) // _ARITY[kind]
    use_kind = np.repeat(kind, uses)
    use_sites, use_terms = _SITES[use_kind], _TERMS[use_kind]
    term_use = np.repeat(np.arange(len(use_kind)), use_terms)
    entry = (_TERM_START[use_kind] - _offsets(use_terms))[term_use] \
        + np.arange(len(term_use))
    first_target = _offsets(_ARITY[use_kind])
    return FaultSites(
        index=np.repeat(np.repeat(np.array(at, dtype=np.int64), uses),
                        use_sites),
        term_site=_offsets(use_sites)[term_use] + _T_SITE[entry],
        term_qubit=np.array(flat, dtype=np.int64)[first_target[term_use]
                                                  + _T_SLOT[entry]],
        term_bits=_T_BITS[entry])


@dataclass
class ScanResult:
    """Outcome of `fault_scan`: row r of ``rows`` is site r's signature.

    Each row is a little-endian bit string of uint8: bit d is detector d,
    and the observables, in index order, start at the first byte after the
    detectors, byte ceil(num_detectors / 8).
    """

    sites: FaultSites
    rows: np.ndarray

    def detector_flips(self, circuit: StabCircuit) -> np.ndarray:
        """(num_sites, num_detectors) matrix of the scanned circuit's
        detector parity flips."""
        count = len(circuit.detectors())
        return np.unpackbits(self.rows[:, :-(-count // 8)], axis=1,
                             count=count, bitorder="little")

    def observable_flips(self, circuit: StabCircuit) -> np.ndarray:
        """(num_sites, num_observables) matrix, columns by observable index."""
        start = -(-len(circuit.detectors()) // 8)
        return np.unpackbits(self.rows[:, start:], axis=1,
                             count=len(circuit.observables()),
                             bitorder="little")


def fault_scan(circuit: StabCircuit, sites: FaultSites) -> ScanResult:
    """Every site's detector and observable signature, in one backward pass.

    Walking back from the last instruction to the earliest site, ``sz[q]``
    and ``sx[q]`` are the signatures of an X and a Z error on q at that
    point, as Python ints in the row layout of `ScanResult`. Passing back
    over M on q with record m XORs the record's mask (the detectors and
    observables holding m) into ``sz[q]``, over MX into ``sx[q]``; R and RX
    clear both, H swaps them, and CX(c, t), its pairs taken in reverse,
    does ``sx[t] ^= sx[c]; sz[c] ^= sz[t]``. A site injected after
    instruction i is read before the walk steps back over i: the XOR over
    its terms of ``sz[q]`` for X, ``sx[q]`` for Z and both for Y. Sites may
    come in any order. The result holds one row of ceil(num_detectors / 8)
    + ceil(num_observables / 8) bytes per site.

    Raises IndexError for a site whose instruction index or qubit is out of
    range, naming the site's row, and ValueError for a term whose site row
    or X/Z bits are out of range.
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
                         | (bits > 3))
    if bad.size:
        t = int(bad[0])
        raise ValueError(f"Pauli term {t}: site {rows[t]}, bits {bits[t]}; "
                         f"need a site in [0, {len(index)}) and bits X 1, "
                         f"Z 2 or Y 3")

    detectors = [targets for targets, _ in circuit.detectors()]
    observables = [targets for _, targets
                   in sorted(circuit.observables().items())]
    shift = 8 * -(-len(detectors) // 8)  # observable k is bit shift + k
    mask = [0] * circuit.num_measurements
    for bit, records in (*enumerate(detectors),
                         *enumerate(observables, shift)):
        for m in records:
            mask[m] ^= 1 << bit

    # terms by instruction, read from the last; stdlib arrays hand out one
    # int at a time instead of holding a list of them
    at = index[rows]
    order = np.argsort(at, kind="stable")
    columns = (array("q", col[order].tobytes())
               for col in (at, rows, qubit, bits))
    signatures = [0] * len(index)
    sz, sx = [0] * nq, [0] * nq
    measured = circuit.num_measurements  # records before instruction i
    i = len(instructions)  # instructions i and later are stepped back over
    for after, row, target, pauli in zip(*map(reversed, columns)):
        while i > after + 1:  # step back to just after the site
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
            signatures[row] ^= sz[target]
        if pauli & 2:
            signatures[row] ^= sx[target]
    # packed a chunk of rows at a time, so no list of all rows is held
    size = shift // 8 + -(-len(observables) // 8)
    packed = b"".join(
        b"".join(map(int.to_bytes, signatures[k:k + 4096], repeat(size),
                     repeat("little")))
        for k in range(0, len(signatures), 4096))
    return ScanResult(sites=sites, rows=np.frombuffer(
        packed, dtype=np.uint8).reshape(len(index), size))


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
