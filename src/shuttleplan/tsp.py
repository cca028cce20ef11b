"""Least open-path travel over Manhattan grid distances.

``OpenPathTable`` owns the remaining-travel bound: the least Manhattan
distance from an origin through every pending target, with no return leg.
The route search scales it into its A* heuristic, and ``metrics`` reports it
from each ancilla's home as the ideal shuttle count.

* Ordered targets are visited in their fixed sequence, so the pending set is
  always a suffix and the table holds suffix sums of the consecutive legs.
* Unordered targets, up to ``EXACT_LIMIT`` of them, get an exact Held-Karp
  bitmask table.
* Beyond ``EXACT_LIMIT`` unordered targets the travel left after the first
  pending target is bounded by the weight of a minimum spanning tree over
  the pending cells, which every open path through them spans.

``min_distances`` answers all three for one pending set from many origins
at once: the least, over the pending targets j, of the leg to j plus the
travel left after j. ``min_distance`` is its one-origin case.
"""

from __future__ import annotations

import numpy as np

from .chip import Cell

EXACT_LIMIT = 12


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def solve_tsp(origin: Cell, targets: list[Cell], ordered: bool) -> int:
    """Least open-path distance from origin through all targets."""
    table = OpenPathTable(targets, ordered)
    return table.min_distance(origin, (1 << len(table.targets)) - 1)


class OpenPathTable:
    """Remaining-travel bound for one fixed target list.

    Route planning evaluates the bound for many (position, pending-subset)
    pairs of the same ancilla, so the per-subset work is done once here and
    each query is a single O(|pending|) minimization.

    Ordered: ``suffix[j]`` is the travel from target j through the last one.
    Unordered: ``best[mask][j]`` is the cheapest open path visiting exactly
    the targets in ``mask`` when entered at target j (j must be in mask).
    ``EXACT_LIMIT`` is read when the table is built; ``exact`` is False when
    it was exceeded and the bound rests on the spanning-tree weight.
    """

    def __init__(self, targets: list[Cell], ordered: bool):
        self.targets = list(targets)
        self._suffix = self._best = None
        m = len(targets)
        self.exact = ordered or m <= EXACT_LIMIT
        if ordered:
            suffix = [0] * m
            for j in range(m - 2, -1, -1):
                suffix[j] = suffix[j + 1] + manhattan(targets[j], targets[j + 1])
            self._suffix = suffix
            return
        if not self.exact:
            return
        dist = [[manhattan(a, b) for b in targets] for a in targets]
        best = [[None] * m for _ in range(1 << m)]
        for j in range(m):
            best[1 << j][j] = 0
        for mask in range(1, 1 << m):
            for j in range(m):
                if not mask & (1 << j):
                    continue
                rest = mask & ~(1 << j)
                if rest == 0:
                    continue
                acc = None
                sub = rest
                while sub:
                    t = (sub & -sub).bit_length() - 1
                    sub &= sub - 1
                    prev = best[rest][t]
                    if prev is None:
                        continue
                    cand = dist[j][t] + prev
                    if acc is None or cand < acc:
                        acc = cand
                best[mask][j] = acc
        self._best = best

    def min_distance(self, origin: Cell, mask: int) -> int:
        """Least open-path distance from origin over the masked targets.

        For ordered targets the mask must be a suffix of the sequence.
        """
        x, y = origin
        return int(self.min_distances(np.array([x]), np.array([y]), mask)[0])

    def min_distances(self, xs: np.ndarray, ys: np.ndarray,
                      mask: int) -> np.ndarray:
        """``min_distance((xs[k], ys[k]), mask)`` for every k, as int64."""
        if mask == 0:
            return np.zeros(len(xs), dtype=np.int64)
        pending = [j for j in range(len(self.targets)) if mask >> j & 1]
        if self._suffix is not None:
            first = pending[0]
            entries = [(*self.targets[first], self._suffix[first])]
        elif self._best is not None:
            entries = [(*self.targets[j], self._best[mask][j])
                       for j in pending]
        else:
            tree = _spanning_tree_weight([self.targets[j] for j in pending])
            entries = [(*self.targets[j], tree) for j in pending]
        tx, ty, rest = np.array(entries).T
        legs = (np.abs(xs - tx[:, None]) + np.abs(ys - ty[:, None])
                + rest[:, None])
        return legs.min(axis=0)


def _spanning_tree_weight(cells: list[Cell]) -> int:
    """Minimum spanning tree weight over cells (Prim, O(n^2))."""
    joined, *cells = cells
    reach = [manhattan(joined, c) for c in cells]
    total = 0
    while reach:
        k = min(range(len(reach)), key=reach.__getitem__)
        total += reach.pop(k)
        joined = cells.pop(k)
        reach = [min(r, manhattan(joined, c)) for r, c in zip(reach, cells)]
    return total
