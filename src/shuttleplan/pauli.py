"""Pauli-frame propagation and a stabilizer tableau simulator.

The frame engine pushes sparse Pauli faults through a circuit (H swaps the
X/Z components, CX copies X control->target and Z target->control, resets
clear, measurements record the anticommuting component) and is vectorized
over many fault sites at once.

The tableau is the standard destabilizer/stabilizer pair with one twist:
the sign of every row is an affine GF(2) expression in the outcomes of the
random measurements seen so far, tracked as (constant bit, bitmask over
outcome variables). A measurement or detector is deterministic exactly when
its bitmask is zero, so determinism is decided algebraically instead of by
repeated sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .emit import StabCircuit

_NOISE_NAMES = ("X_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2")


# ---------------------------------------------------------------------------
# Pauli frame propagation, vectorized over fault sites


@dataclass
class FaultSite:
    """One Pauli error injected right after an instruction."""

    index: int                           # instruction index in the circuit
    paulis: tuple[tuple[int, str], ...]  # ((qubit, "X"|"Y"|"Z"), ...)
    meta: dict = field(default_factory=dict)


def sites_from_noise(circuit: StabCircuit,
                     indices: Optional[Iterable[int]] = None) -> list[FaultSite]:
    """Expand noise instructions into their possible single-fault Paulis."""
    if indices is None:
        indices = [i for i, instr in enumerate(circuit.instructions)
                   if instr.name in _NOISE_NAMES]
    sites: list[FaultSite] = []
    for idx in indices:
        instr = circuit.instructions[idx]
        meta = dict(instr.meta or {})
        if instr.name == "X_ERROR":
            for q in instr.targets:
                sites.append(FaultSite(idx, ((q, "X"),), meta))
        elif instr.name == "Z_ERROR":
            for q in instr.targets:
                sites.append(FaultSite(idx, ((q, "Z"),), meta))
        elif instr.name == "DEPOLARIZE1":
            for q in instr.targets:
                for p in "XYZ":
                    sites.append(FaultSite(idx, ((q, p),), meta))
        elif instr.name == "DEPOLARIZE2":
            pairs = zip(instr.targets[::2], instr.targets[1::2])
            for a, b in pairs:
                for two in (x + y for x in "IXYZ" for y in "IXYZ"):
                    if two == "II":
                        continue
                    paulis = tuple((q, p) for q, p in ((a, two[0]), (b, two[1]))
                                   if p != "I")
                    sites.append(FaultSite(idx, paulis, meta))
        else:
            raise ValueError(f"instruction {instr.name} is not a noise channel")
    return sites


@dataclass
class ScanResult:
    sites: list[FaultSite]
    flips: np.ndarray          # (num_sites, num_measurements) outcome flips
    final_x: np.ndarray        # (num_sites, num_qubits) residual frame
    final_z: np.ndarray

    def flipped_measurements(self, row: int) -> list[int]:
        return [int(m) for m in np.nonzero(self.flips[row])[0]]

    def detector_flips(self, circuit: StabCircuit) -> np.ndarray:
        """(num_sites, num_detectors) matrix of detector parity flips."""
        dets = circuit.detectors()
        out = np.zeros((len(self.sites), len(dets)), dtype=np.uint8)
        for d, (targets, _) in enumerate(dets):
            for m in targets:
                out[:, d] ^= self.flips[:, m]
        return out

    def observable_flips(self, circuit: StabCircuit) -> np.ndarray:
        obs = circuit.observables()
        out = np.zeros((len(self.sites), len(obs)), dtype=np.uint8)
        for o, targets in sorted(obs.items()):
            for m in targets:
                out[:, o] ^= self.flips[:, m]
        return out


def fault_scan(circuit: StabCircuit, sites: list[FaultSite]) -> ScanResult:
    """Propagate every fault site through the circuit in one vectorized pass.

    A fault's frame row stays identically zero until its instruction index is
    passed, which is sound because every update rule is linear.
    """
    ns = len(sites)
    nq = circuit.num_qubits
    fx = np.zeros((ns, nq), dtype=np.uint8)
    fz = np.zeros((ns, nq), dtype=np.uint8)
    flips = np.zeros((ns, circuit.num_measurements), dtype=np.uint8)

    activate: dict[int, list[int]] = {}
    for row, site in enumerate(sites):
        activate.setdefault(site.index, []).append(row)

    for idx, instr in enumerate(circuit.instructions):
        name = instr.name
        if name == "H":
            for q in instr.targets:
                fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
        elif name == "CX":
            for c, t in zip(instr.targets[::2], instr.targets[1::2]):
                fx[:, t] ^= fx[:, c]
                fz[:, c] ^= fz[:, t]
        elif name in ("R", "RX"):
            for q in instr.targets:
                fx[:, q] = 0
                fz[:, q] = 0
        elif name == "M":
            base = instr.meta["m_index"] if instr.meta else None
            for off, q in enumerate(instr.targets):
                flips[:, base + off] = fx[:, q]
        elif name == "MX":
            base = instr.meta["m_index"] if instr.meta else None
            for off, q in enumerate(instr.targets):
                flips[:, base + off] = fz[:, q]
        rows = activate.get(idx)
        if rows:
            for row in rows:
                for q, p in sites[row].paulis:
                    if p in ("X", "Y"):
                        fx[row, q] ^= 1
                    if p in ("Z", "Y"):
                        fz[row, q] ^= 1

    return ScanResult(sites=sites, flips=flips, final_x=fx, final_z=fz)


def propagate_fault(circuit: StabCircuit, index: int,
                    paulis: Iterable[tuple[int, str]]):
    """Push one fault through; returns (final_x, final_z, flipped ms)."""
    if not 0 <= index < len(circuit.instructions):
        raise IndexError(f"no instruction at {index}")
    site = FaultSite(index, tuple(paulis))
    result = fault_scan(circuit, [site])
    return (result.final_x[0], result.final_z[0],
            result.flipped_measurements(0))


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


class Tableau:
    """Destabilizer/stabilizer tableau with affine symbolic signs."""

    def __init__(self, n: int):
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1          # destabilizer X_i
            self.z[n + i, i] = 1      # stabilizer Z_i
        self.sign = np.zeros(2 * n, dtype=np.uint8)
        self.mask = [0] * (2 * n)
        self.num_random = 0

    def h(self, q: int) -> None:
        self.sign ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def cx(self, c: int, t: int) -> None:
        self.sign ^= (self.x[:, c] & self.z[:, t]
                      & (self.x[:, t] ^ self.z[:, c] ^ 1))
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def apply_x(self, q: int) -> None:
        """Deterministic X flip (used to inject faults)."""
        self.sign ^= self.z[:, q]

    def apply_z(self, q: int) -> None:
        self.sign ^= self.x[:, q]

    def _rowsum_many(self, rows: np.ndarray, src: int) -> None:
        """row_h <- row_src * row_h for every h in rows, with sign algebra."""
        xi, zi = self.x[src], self.z[src]
        xh, zh = self.x[rows], self.z[rows]
        xi_b = xi.astype(np.int16)
        zi_b = zi.astype(np.int16)
        xh_b = xh.astype(np.int16)
        zh_b = zh.astype(np.int16)
        g = (xi_b & zi_b) * (zh_b - xh_b) \
            + (xi_b & (1 - zi_b)) * (zh_b * (2 * xh_b - 1)) \
            + ((1 - xi_b) & zi_b) * (xh_b * (1 - 2 * zh_b))
        total = 2 * self.sign[rows].astype(np.int64) + 2 * int(self.sign[src]) \
            + g.sum(axis=1)
        # destabilizer phases are never read and may go imaginary; only the
        # stabilizer half must stay +/- 1
        assert not np.any(total[rows >= self.n] % 2), \
            "rowsum applied to anticommuting stabilizer rows"
        self.sign[rows] = ((total % 4) // 2).astype(np.uint8)
        src_mask = self.mask[src]
        if src_mask:
            for h in rows.tolist():
                self.mask[h] ^= src_mask
        self.x[rows] ^= xi
        self.z[rows] ^= zi

    def measure(self, q: int) -> Outcome:
        n = self.n
        stab_hits = np.nonzero(self.x[n:, q])[0]
        if stab_hits.size:
            p = n + int(stab_hits[0])
            others = np.nonzero(self.x[:, q])[0]
            others = others[others != p]
            if others.size:
                self._rowsum_many(others, p)
            # the old stabilizer becomes the destabilizer of the new Z_q
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.sign[p - n] = self.sign[p]
            self.mask[p - n] = self.mask[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            bit = self.num_random
            self.num_random += 1
            self.sign[p] = 0
            self.mask[p] = 1 << bit
            return Outcome(const=0, mask=1 << bit, random=True)
        # deterministic: accumulate stabilizer rows flagged by destabilizers
        const = 0
        mask = 0
        scratch_x = np.zeros(self.n, dtype=np.uint8)
        scratch_z = np.zeros(self.n, dtype=np.uint8)
        phase = 0  # exponent of i, mod 4
        for i in np.nonzero(self.x[:n, q])[0]:
            src = n + int(i)
            xi, zi = self.x[src].astype(np.int16), self.z[src].astype(np.int16)
            xh, zh = scratch_x.astype(np.int16), scratch_z.astype(np.int16)
            g = ((xi & zi) * (zh - xh)
                 + (xi & (1 - zi)) * (zh * (2 * xh - 1))
                 + ((1 - xi) & zi) * (xh * (1 - 2 * zh)))
            phase = (phase + 2 * int(self.sign[src]) + int(g.sum())) % 4
            mask ^= self.mask[src]
            scratch_x ^= self.x[src]
            scratch_z ^= self.z[src]
        assert phase in (0, 2), "deterministic outcome must be a +/- Z product"
        const = phase // 2
        return Outcome(const=const, mask=mask, random=False)

    def reset(self, q: int) -> None:
        """Project q to |0>, conditionally flipping on the symbolic outcome."""
        out = self.measure(q)
        if out.const or out.mask:
            flip_rows = np.nonzero(self.z[:, q])[0]
            if out.const:
                self.sign[flip_rows] ^= 1
            if out.mask:
                for h in flip_rows.tolist():
                    self.mask[h] ^= out.mask


@dataclass
class MeasurementRecord:
    outcome: Outcome
    meta: Optional[dict]


@dataclass
class NoiselessReport:
    measurements: list[MeasurementRecord]
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
    records: list[MeasurementRecord] = []
    for instr in circuit.instructions:
        name = instr.name
        if name == "R":
            for q in instr.targets:
                tab.reset(q)
        elif name == "RX":
            for q in instr.targets:
                tab.reset(q)
                tab.h(q)
        elif name == "H":
            for q in instr.targets:
                tab.h(q)
        elif name == "CX":
            for c, t in zip(instr.targets[::2], instr.targets[1::2]):
                tab.cx(c, t)
        elif name == "M":
            for q in instr.targets:
                records.append(MeasurementRecord(tab.measure(q), instr.meta))
        elif name == "MX":
            for q in instr.targets:
                tab.h(q)
                out = tab.measure(q)
                tab.h(q)
                records.append(MeasurementRecord(out, instr.meta))
        # noise channels, ticks and annotations do not touch the tableau

    detectors = []
    for targets, _ in circuit.detectors():
        acc = Outcome(0, 0, False)
        for m in targets:
            acc = acc ^ records[m].outcome
        detectors.append(acc)
    observables = {}
    for obs, targets in sorted(circuit.observables().items()):
        acc = Outcome(0, 0, False)
        for m in targets:
            acc = acc ^ records[m].outcome
        observables[obs] = acc
    return NoiselessReport(records, detectors, observables)
