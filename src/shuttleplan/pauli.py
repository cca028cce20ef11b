"""Pauli-frame propagation and a stabilizer tableau simulator.

The frame engine pushes single Pauli faults through a circuit (H swaps the
X/Z components, CX copies X control->target and Z target->control, resets
clear, measurements record the anticommuting component) for many fault
sites at once. Its frames are qubit-major and bit-packed, the layout of
Stim's frame simulator (Gidney, Quantum 5, 497, 2021): fault site r is bit
r % 64 of word r // 64, so every qubit and every measurement is one row of
W = ceil(num_sites / 64) uint64 words, each gate is an XOR, swap or clear
of whole rows, and a scan holds 8 * W * (2 * num_qubits + num_measurements)
bytes. Detector and observable parities are XORs of packed measurement
rows, unpacked to one uint8 per (site, detector) only at the end.

Fault sites are flat int64 columns (`FaultSites`), never per-site objects:
``index`` has one entry per site, the instruction it follows; each Pauli
term of a site has one entry in ``term_site`` (the site's row, ascending),
``term_qubit`` and ``term_bits`` (X 1, Z 2, Y 3). `sites_from_noise` builds
them in one pass over the noise instructions from the per-channel
templates of `emit.NOISE_CHANNELS` (X_ERROR and Z_ERROR 1 site, DEPOLARIZE1
3, DEPOLARIZE2 15), and the scan groups the terms with numpy alone. A site's
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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .emit import NOISE_CHANNELS, StabCircuit


# ---------------------------------------------------------------------------
# Pauli frame propagation, vectorized over fault sites


# Pauli letter -> bit 0 (X component) | bit 1 (Z component)
_PAULI_BITS = {"X": 1, "Y": 3, "Z": 2}
# instructions that change a frame; everything else leaves it alone
_FRAME_GATES = ("H", "CX", "R", "RX", "M", "MX")


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

    @classmethod
    def from_paulis(cls, sites: Iterable[tuple[int, Iterable[tuple[int, str]]]]
                    ) -> "FaultSites":
        """Build from ``[(instruction index, ((qubit, "X"|"Y"|"Z"), ...)), ...]``.

        Raises ValueError naming the site's row for any other Pauli letter.
        """
        index, term_site, term_qubit, term_bits = [], [], [], []
        for row, (idx, paulis) in enumerate(sites):
            index.append(idx)
            for q, p in paulis:
                bits = _PAULI_BITS.get(p)
                if bits is None:
                    raise ValueError(f"fault site {row}: Pauli {p!r} is not "
                                     f"X, Y or Z")
                term_site.append(row)
                term_qubit.append(q)
                term_bits.append(bits)
        return cls(*(np.array(col, dtype=np.int64)
                     for col in (index, term_site, term_qubit, term_bits)))


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


def _column(packed: np.ndarray, row: int) -> np.ndarray:
    """Bit `row` of every packed row, as a uint8 vector."""
    word, bit = divmod(row, 64)
    return ((packed[:, word] >> np.uint64(bit)) & np.uint64(1)).astype(np.uint8)


def _unpack(packed: np.ndarray, num_sites: int) -> np.ndarray:
    """(n, W) packed rows -> (num_sites, n) uint8 matrix (a transposed view)."""
    as_bytes = packed.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=num_sites,
                         bitorder="little").T


def _xor_rows(packed: np.ndarray, groups) -> np.ndarray:
    """One packed row per group: the XOR of the packed rows it names."""
    out = np.zeros((len(groups), packed.shape[1]), dtype=np.uint64)
    for g, rows in enumerate(groups):
        if rows:
            np.bitwise_xor.reduce(packed[list(rows)], axis=0, out=out[g])
    return out


@dataclass
class ScanResult:
    """Packed outcome of `fault_scan`: site r is bit r % 64 of word r // 64.

    `x` and `z` are the residual frames, shape (num_qubits, W); `flips` holds
    the measurement flips, shape (num_measurements, W); all are uint64 with
    W = ceil(num_sites / 64).
    """

    sites: FaultSites
    x: np.ndarray
    z: np.ndarray
    flips: np.ndarray

    def _check_row(self, row: int) -> None:
        if not 0 <= row < len(self.sites):
            raise IndexError(f"no fault site {row} in a scan of "
                             f"{len(self.sites)}")

    def flipped_measurements(self, row: int) -> list[int]:
        self._check_row(row)
        return np.flatnonzero(_column(self.flips, row)).tolist()

    def final_frame(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, z) residual frame of one site, as uint8 vectors over qubits."""
        self._check_row(row)
        return _column(self.x, row), _column(self.z, row)

    def detector_flips(self, circuit: StabCircuit) -> np.ndarray:
        """(num_sites, num_detectors) matrix of detector parity flips."""
        groups = [targets for targets, _ in circuit.detectors()]
        return _unpack(_xor_rows(self.flips, groups), len(self.sites))

    def observable_flips(self, circuit: StabCircuit) -> np.ndarray:
        """(num_sites, num_observables) matrix, columns by observable index."""
        groups = [targets for _, targets in sorted(circuit.observables().items())]
        return _unpack(_xor_rows(self.flips, groups), len(self.sites))


def _activations(circuit: StabCircuit, sites: FaultSites,
                 gate_at: np.ndarray):
    """Validate every site; return its frame bits grouped by the next gate.

    Returns (frame row, word, bit mask, bounds): the terms of group k,
    ``bounds[k]:bounds[k + 1]``, are XORed in just before gate k runs, or
    after the last gate for k = len(gate_at). A fault injected after
    instruction i only has to be in the frame before the first gate past i.
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
                         | (bits > 3))
    if bad.size:
        t = int(bad[0])
        raise ValueError(f"Pauli term {t}: site {rows[t]}, bits {bits[t]}; "
                         f"need a site in [0, {len(index)}) and bits X 1, "
                         f"Z 2 or Y 3")
    has_x, has_z = (bits & 1).astype(bool), (bits & 2).astype(bool)
    frame_row = np.concatenate([qubit[has_x], nq + qubit[has_z]])
    site_row = np.concatenate([rows[has_x], rows[has_z]])
    group = np.searchsorted(gate_at, index[site_row], side="right")
    order = np.argsort(group, kind="stable")
    site_row = site_row[order]
    bounds = np.searchsorted(group[order], np.arange(len(gate_at) + 2))
    mask = np.left_shift(np.uint64(1), (site_row & 63).astype(np.uint64))
    return frame_row[order], site_row >> 6, mask, bounds.tolist()


def fault_scan(circuit: StabCircuit, sites: FaultSites) -> ScanResult:
    """Propagate every fault site through the circuit in one packed pass.

    The frames are qubit-major and bit-packed: site r is bit r % 64 of word
    r // 64, so each gate is one XOR, swap or clear of uint64 rows of
    W = ceil(num_sites / 64) words. The result holds
    8 * W * (2 * num_qubits + num_measurements) bytes. A site's bit stays
    zero until its fault is XORed in, which is sound because every update
    rule is linear.

    Raises IndexError for a site whose instruction index or qubit is out of
    range, naming the site's row, and ValueError for a term whose site row
    or X/Z bits are out of range.
    """
    ns, nq = len(sites), circuit.num_qubits
    words = -(-ns // 64)
    instructions = circuit.instructions
    gate_at = np.array([i for i, instr in enumerate(instructions)
                        if instr.name in _FRAME_GATES], dtype=np.int64)
    act_row, act_word, act_mask, bounds = _activations(circuit, sites, gate_at)
    frame = np.zeros((2 * nq, words), dtype=np.uint64)
    x, z = frame[:nq], frame[nq:]
    flips = np.zeros((circuit.num_measurements, words), dtype=np.uint64)
    measured = 0  # record index of the next measurement

    def activate(k: int) -> None:
        lo, hi = bounds[k], bounds[k + 1]
        if lo < hi:
            np.bitwise_xor.at(frame, (act_row[lo:hi], act_word[lo:hi]),
                              act_mask[lo:hi])

    for k, pos in enumerate(gate_at.tolist()):
        activate(k)
        instr = instructions[pos]
        name = instr.name
        if name == "H":
            for q in instr.targets:
                x[q], z[q] = z[q], x[q].copy()
        elif name == "CX":
            for c, t in zip(instr.targets[::2], instr.targets[1::2]):
                x[t] ^= x[c]
                z[c] ^= z[t]
        elif name in ("R", "RX"):
            for q in instr.targets:
                x[q] = 0
                z[q] = 0
        else:
            src = x if name == "M" else z
            for q in instr.targets:
                flips[measured] = src[q]
                measured += 1
    activate(len(gate_at))
    return ScanResult(sites=sites, x=x, z=z, flips=flips)


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

    def apply_x(self, q: int) -> None:
        """Deterministic X flip (used to inject faults)."""
        self.sign ^= self.zc[q]

    def apply_z(self, q: int) -> None:
        self.sign ^= self.xc[q]

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
