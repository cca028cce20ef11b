"""Independent reference implementations the test suite checks against.

Everything here deliberately avoids the package's search machinery: the
route oracle walks a fully time-discretized graph at 100 ns grain, the
successor oracle scans every safe interval from index 0, the static oracle
is a plain Dijkstra over (component, done-mask) with no reservations, the
tour oracle enumerates permutations, the frame oracle pushes one fault
at a time through a circuit as sets of qubits, the noise oracle expands
each noise instruction into its faults one target at a time, and the
tableau oracle is a row-major uint8 destabilizer/stabilizer tableau that
updates every row of a column with numpy and multiplies rows one phase
term at a time.

Two helpers here are not independent: `propagate_fault` runs one fault
through the package's `fault_scan`, and `in_rowspace` compares two
`gf2.rank` values. Only the tests call them.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING

import numpy as np

from shuttleplan import gf2
from shuttleplan.chip import (INTERACTION, INTERSECTION, READOUT, ChipLayout,
                              TimingConfig, channel_id, interaction_id,
                              intersection_id, readout_id)
from shuttleplan.intervals import ReservationTable
from shuttleplan.pauli import FaultSites, fault_scan

if TYPE_CHECKING:
    from shuttleplan.planner import PlanRequest

GRAIN = 100

_LAYERS = (intersection_id, interaction_id, readout_id)


def bfs_hops(layout: ChipLayout, a, b) -> int:
    """Hop count between intersections by breadth-first search."""
    seen = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            return seen[cur]
        for nb in layout.neighbors(cur):
            if nb not in seen:
                seen[nb] = seen[cur] + 1
                queue.append(nb)
    raise AssertionError(f"{b} unreachable from {a}")


@lru_cache(maxsize=None)
def _visit_orders(n: int) -> np.ndarray:
    """Every visit order of n targets as rows of point indices, each row
    starting at the origin (index 0): shape (n!, n + 1)."""
    orders = np.array(list(permutations(range(1, n + 1))), dtype=np.intp)
    return np.hstack([np.zeros((len(orders), 1), dtype=np.intp),
                      orders.reshape(len(orders), n)])


def brute_force_open_path(origin, cells) -> int:
    """Minimum open-path Manhattan distance over all visit permutations."""
    points = np.array([origin, *cells], dtype=np.int64).reshape(-1, 2)
    dist = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    orders = _visit_orders(len(points) - 1)
    return int(dist[orders[:, :-1], orders[:, 1:]].sum(axis=1).min())


def bitmap_safe_intervals(reservations, horizon: int):
    """Safe intervals up to `horizon`, recovered from a 100 ns bitmap."""
    slots = horizon // GRAIN
    busy = [False] * slots
    for start, end in reservations:
        stop = slots if end == float("inf") else min(slots, int(end) // GRAIN)
        for s in range(int(start) // GRAIN, stop):
            busy[s] = True
    spans = []
    s = 0
    while s < slots:
        if busy[s]:
            s += 1
            continue
        e = s
        while e < slots and not busy[e]:
            e += 1
        spans.append((s * GRAIN, e * GRAIN))
        s = e
    return spans


class RouteOracle:
    """Time-discretized single-ancilla route search (Dijkstra at 100 ns).

    Mirrors the occupancy rules exactly: the qubit holds its component while
    waiting, a channel for a full traversal, and both layers of a displace
    for its whole duration; arrivals must land on a free slot.
    """

    def __init__(self, layout: ChipLayout, reservations: dict,
                 timing: TimingConfig, request: PlanRequest):
        for value in vars(timing).values():
            assert value % GRAIN == 0, "oracle needs 100 ns aligned timing"
        self.layout = layout
        self.res = {comp: sorted(spans) for comp, spans in reservations.items()}
        self.t = timing
        self.req = request
        self.full = (1 << len(request.targets)) - 1
        self.target_index = {c: j for j, c in enumerate(request.targets)}

    def free(self, comp, start: int, end: int) -> bool:
        for a, b in self.res.get(comp, ()):
            if a < end and start < b:
                return False
        return True

    def solve(self, horizon: int) -> int | None:
        """Earliest time parked in a readout with all targets done."""
        t = self.t
        req = self.req
        start_comp = readout_id(req.start_cell)
        start = (req.start_time, start_comp, 0)
        heap = [start]
        seen = {(start_comp, 0, req.start_time)}
        while heap:
            now, comp, mask = heapq.heappop(heap)
            if (mask == self.full and comp[0] == READOUT
                    and self.free(comp, now, now + req.terminal_pad)):
                return now
            if now > horizon:
                return None
            cell = (comp[1], comp[2])
            moves = []
            # wait one slot in place
            if self.free(comp, now, now + GRAIN):
                moves.append((now + GRAIN, comp, mask))
            # shuttle
            if comp[0] == INTERSECTION:
                for nb in self.layout.neighbors(cell):
                    ch = channel_id(cell, nb)
                    dest = intersection_id(nb)
                    arr = now + t.t_shuttle
                    if (self.free(ch, now, arr)
                            and self.free(dest, arr, arr + GRAIN)):
                        moves.append((arr, dest, mask))
            # displace between layers of this cell
            for build in _LAYERS:
                dest = build(cell)
                if dest == comp:
                    continue
                arr = now + t.t_displace
                if (self.free(comp, now, arr)
                        and self.free(dest, now, arr + GRAIN)):
                    moves.append((arr, dest, mask))
            # gate (waiting in place until any per-cell window opens)
            j = self.target_index.get(cell)
            if (comp[0] == INTERACTION and j is not None
                    and not mask & (1 << j)
                    and (not req.ordered or j == bin(mask).count("1"))
                    and now >= req.gate_windows.get(cell, 0)
                    and self.free(comp, now, now + req.gate_duration)):
                moves.append((now + req.gate_duration, comp, mask | (1 << j)))

            for arr, dest, nmask in moves:
                key = (dest, nmask, arr)
                if arr <= horizon + GRAIN and key not in seen:
                    seen.add(key)
                    heapq.heappush(heap, (arr, dest, nmask))
        return None


def scan_successors(layout: ChipLayout, table: ReservationTable,
                    timing: TimingConfig, request: PlanRequest,
                    comp, interval: int, mask: int, g: int) -> list:
    """((comp, interval, mask), arrival) out of a state reached at time g.

    Scans every safe interval of every destination and channel from index
    0 and keeps, per destination interval, the earliest feasible arrival:
    shuttles in ``layout.neighbors`` order, then displaces to the other
    layers in intersection, interaction, readout order, then the gate.
    """
    hi = table.safe_intervals(comp)[interval].span.end
    cell = (comp[1], comp[2])
    out = []
    if comp[0] == INTERSECTION:
        for nb in layout.neighbors(cell):
            channel = table.safe_intervals(channel_id(cell, nb))
            dest = intersection_id(nb)
            for dest_si in table.safe_intervals(dest):
                arrivals = []
                for ch_si in channel:
                    dep = max(g, ch_si.span.start,
                              dest_si.span.start - timing.t_shuttle)
                    arr = dep + timing.t_shuttle
                    if (dep <= hi and arr <= ch_si.span.end
                            and arr < dest_si.span.end):
                        arrivals.append(arr)
                if arrivals:
                    out.append(((dest, dest_si.index, mask), min(arrivals)))
    for build in _LAYERS:
        dest = build(cell)
        if dest == comp:
            continue
        for dest_si in table.safe_intervals(dest):
            arr = max(g, dest_si.span.start) + timing.t_displace
            if arr <= hi and arr < dest_si.span.end:
                out.append(((dest, dest_si.index, mask), arr))
    j = {c: j for j, c in enumerate(request.targets)}.get(cell)
    if (comp[0] == INTERACTION and j is not None
            and not mask & (1 << j)
            and (not request.ordered or j == bin(mask).count("1"))):
        done = max(g, request.gate_windows.get(cell, 0)) + request.gate_duration
        if done <= hi:
            out.append(((comp, interval, mask | (1 << j)), done))
    return out


def static_remaining_cost(layout: ChipLayout, timing: TimingConfig,
                          request: PlanRequest, start_comp, start_mask: int) -> int:
    """Exact cost-to-goal with no reservations (Dijkstra, no waiting)."""
    t = timing
    full = (1 << len(request.targets)) - 1
    target_index = {c: j for j, c in enumerate(request.targets)}
    dist = {(start_comp, start_mask): 0}
    heap = [(0, start_comp, start_mask)]
    while heap:
        d, comp, mask = heapq.heappop(heap)
        if d > dist.get((comp, mask), float("inf")):
            continue
        if mask == full and comp[0] == READOUT:
            return d
        cell = (comp[1], comp[2])
        steps = []
        if comp[0] == INTERSECTION:
            steps += [(intersection_id(nb), mask, t.t_shuttle)
                      for nb in layout.neighbors(cell)]
        for build in _LAYERS:
            dest = build(cell)
            if dest != comp:
                steps.append((dest, mask, t.t_displace))
        j = target_index.get(cell)
        if (comp[0] == INTERACTION and j is not None
                and not mask & (1 << j)
                and (not request.ordered or j == bin(mask).count("1"))):
            steps.append((comp, mask | (1 << j), request.gate_duration))
        for dest, nmask, cost in steps:
            nd = d + cost
            if nd < dist.get((dest, nmask), float("inf")):
                dist[(dest, nmask)] = nd
                heapq.heappush(heap, (nd, dest, nmask))
    raise AssertionError("goal unreachable in static oracle")


def propagate_frame(circuit, index: int, paulis):
    """One fault injected after instruction `index`, pushed to the end.

    Tracks the frame as the sets of qubits carrying an X and a Z component.
    Returns (x qubits, z qubits, indices of the flipped measurements).
    """
    xs: set[int] = set()
    zs: set[int] = set()
    for q, p in paulis:
        if p in ("X", "Y"):
            xs ^= {q}
        if p in ("Z", "Y"):
            zs ^= {q}
    measured = sum(len(instr.targets)
                   for instr in circuit.instructions[:index + 1]
                   if instr.name in ("M", "MX"))
    flipped = []
    for instr in circuit.instructions[index + 1:]:
        name, targets = instr.name, instr.targets
        if name == "H":
            for q in targets:
                in_x, in_z = q in xs, q in zs
                if in_x != in_z:
                    xs ^= {q}
                    zs ^= {q}
        elif name == "CX":
            for c, t in zip(targets[::2], targets[1::2]):
                if c in xs:
                    xs ^= {t}
                if t in zs:
                    zs ^= {c}
        elif name in ("R", "RX"):
            xs.difference_update(targets)
            zs.difference_update(targets)
        elif name in ("M", "MX"):
            anticommuting = xs if name == "M" else zs
            for q in targets:
                if q in anticommuting:
                    flipped.append(measured)
                measured += 1
    return xs, zs, flipped


def propagate_fault(circuit, index: int, paulis):
    """Push one fault through `fault_scan`; returns (final_x, final_z,
    flipped measurements)."""
    result = fault_scan(circuit, FaultSites.from_paulis([(index, paulis)]))
    return (*result.final_frame(0), result.flipped_measurements(0))


def in_rowspace(v, H) -> bool:
    """True iff v lies in the row space of H over GF(2)."""
    H = (np.atleast_2d(np.asarray(H)) & 1).astype(np.uint8)
    if H.size == 0:
        return not np.any(np.asarray(v) & 1)
    v = (np.asarray(v).reshape(1, -1) & 1).astype(np.uint8)
    return gf2.rank(H) == gf2.rank(np.vstack([H, v]))


def expand_noise(circuit):
    """Every single fault of the noise instructions, as (index, paulis).

    `paulis` is a tuple of (qubit, letter) pairs, identity letters dropped.
    Faults follow the instructions, then the targets, then the letters:
    X, Y, Z for DEPOLARIZE1 and the 15 products of IXYZ x IXYZ other than
    II for DEPOLARIZE2, first letter slowest.
    """
    faults = []
    for index, instr in enumerate(circuit.instructions):
        if instr.name == "X_ERROR":
            faults.extend((index, ((q, "X"),)) for q in instr.targets)
        elif instr.name == "Z_ERROR":
            faults.extend((index, ((q, "Z"),)) for q in instr.targets)
        elif instr.name == "DEPOLARIZE1":
            faults.extend((index, ((q, p),)) for q in instr.targets
                          for p in "XYZ")
        elif instr.name == "DEPOLARIZE2":
            for a, b in zip(instr.targets[::2], instr.targets[1::2]):
                for pa in "IXYZ":
                    for pb in "IXYZ":
                        paulis = tuple((q, p) for q, p in ((a, pa), (b, pb))
                                       if p != "I")
                        if paulis:
                            faults.append((index, paulis))
    return faults


class DenseTableau:
    """Row-major uint8 tableau (Aaronson & Gottesman, PRA 70, 052328, 2004)
    whose row signs are affine GF(2) expressions (const, mask) in the
    outcomes of the random measurements so far."""

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

    @staticmethod
    def _g(xi, zi, xh, zh) -> np.ndarray:
        """Exponent of i in (xi, zi) * (xh, zh), per qubit."""
        xi, zi, xh, zh = (v.astype(np.int16) for v in (xi, zi, xh, zh))
        return ((xi & zi) * (zh - xh)
                + (xi & (1 - zi)) * (zh * (2 * xh - 1))
                + ((1 - xi) & zi) * (xh * (1 - 2 * zh)))

    def _rowsum(self, h: int, src: int) -> None:
        """row_h <- row_src * row_h; only stabilizer phases must stay real."""
        total = 2 * int(self.sign[h]) + 2 * int(self.sign[src]) + int(
            self._g(self.x[src], self.z[src], self.x[h], self.z[h]).sum())
        assert h < self.n or total % 2 == 0, "anticommuting stabilizers"
        self.sign[h] = (total % 4) // 2
        self.mask[h] ^= self.mask[src]
        self.x[h] ^= self.x[src]
        self.z[h] ^= self.z[src]

    def measure(self, q: int) -> tuple[int, int, bool]:
        """(const, mask, random) of a Z_q measurement."""
        n = self.n
        stab_hits = np.nonzero(self.x[n:, q])[0]
        if stab_hits.size:
            p = n + int(stab_hits[0])
            for h in np.nonzero(self.x[:, q])[0].tolist():
                if h != p:
                    self._rowsum(h, p)
            self.x[p - n], self.z[p - n] = self.x[p], self.z[p]
            self.sign[p - n], self.mask[p - n] = self.sign[p], self.mask[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            self.sign[p] = 0
            self.mask[p] = 1 << self.num_random
            self.num_random += 1
            return 0, self.mask[p], True
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        phase, mask = 0, 0
        for i in np.nonzero(self.x[:n, q])[0].tolist():
            src = n + i
            phase += 2 * int(self.sign[src]) + int(self._g(
                self.x[src], self.z[src], scratch_x, scratch_z).sum())
            mask ^= self.mask[src]
            scratch_x ^= self.x[src]
            scratch_z ^= self.z[src]
        assert phase % 4 in (0, 2), "deterministic outcome is not +/- Z"
        assert not scratch_x.any() and scratch_z.tolist() == [
            int(j == q) for j in range(n)], "stabilizer product is not Z_q"
        return (phase % 4) // 2, mask, False

    def reset(self, q: int) -> None:
        const, mask, _ = self.measure(q)
        for h in np.nonzero(self.z[:, q])[0].tolist():
            self.sign[h] ^= const
            self.mask[h] ^= mask


def noiseless_outcomes(circuit):
    """(measurements, detectors, observables by index) of a noiseless run,
    each outcome a (const, mask, random) triple; parities XOR the consts
    and masks and are random if any term is."""
    tab = DenseTableau(circuit.num_qubits)
    outcomes = []
    for instr in circuit.instructions:
        name, targets = instr.name, instr.targets
        if name in ("R", "RX"):
            for q in targets:
                tab.reset(q)
                if name == "RX":
                    tab.h(q)
        elif name == "H":
            for q in targets:
                tab.h(q)
        elif name == "CX":
            for c, t in zip(targets[::2], targets[1::2]):
                tab.cx(c, t)
        elif name in ("M", "MX"):
            for q in targets:
                if name == "MX":
                    tab.h(q)
                outcomes.append(tab.measure(q))
                if name == "MX":
                    tab.h(q)

    def parity(records):
        const, mask, random = 0, 0, False
        for m in records:
            const ^= outcomes[m][0]
            mask ^= outcomes[m][1]
            random = random or outcomes[m][2]
        return const, mask, random

    detectors = [parity(targets) for targets, _ in circuit.detectors()]
    observables = {obs: parity(targets)
                   for obs, targets in circuit.observables().items()}
    return outcomes, detectors, observables
