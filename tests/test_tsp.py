import random

import numpy as np
import pytest

from shuttleplan import tsp
from shuttleplan.tsp import OpenPathTable, manhattan, solve_tsp
from oracles import brute_force_open_path


def random_targets(rng, count, side):
    targets = []
    while len(targets) < count:
        cell = (rng.randrange(side), rng.randrange(side))
        if cell not in targets:
            targets.append(cell)
    return targets


def leg_sum(origin, cells):
    return sum(manhattan(a, b) for a, b in zip([origin] + cells, cells))


def test_empty_pending():
    assert solve_tsp((0, 0), [], False) == 0
    assert solve_tsp((0, 0), [], True) == 0


def test_collinear_pair():
    assert solve_tsp((0, 0), [(0, 2), (0, 1)], False) == 2
    assert solve_tsp((0, 0), [(0, 2), (0, 1)], True) == 3


def test_square_block_from_corner():
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert solve_tsp((0, 0), cells, False) == 3


def test_matches_brute_force_on_8_targets():
    rng = random.Random(11)
    for _ in range(100):
        origin = (rng.randrange(10), rng.randrange(10))
        cells = [c for c in random_targets(rng, 8, 10) if c != origin]
        assert solve_tsp(origin, cells, False) == brute_force_open_path(
            origin, cells)


def test_unordered_table_matches_brute_force_on_partial_masks():
    rng = random.Random(5)
    for _ in range(25):
        targets = random_targets(rng, 6, 8)
        table = OpenPathTable(targets, False)
        for mask in (0b111111, 0b010101, 0b000011, 0b100000, 0):
            cells = [targets[j] for j in range(6) if mask & (1 << j)]
            origin = (rng.randrange(8), rng.randrange(8))
            assert table.min_distance(origin, mask) == brute_force_open_path(
                origin, cells)


def test_ordered_table_is_the_leg_sum_over_every_suffix():
    rng = random.Random(6)
    for _ in range(25):
        targets = random_targets(rng, rng.randint(1, 14), 8)
        table = OpenPathTable(targets, True)
        m = len(targets)
        for first in range(m + 1):
            mask = ((1 << m) - 1) & ~((1 << first) - 1)
            origin = (rng.randrange(8), rng.randrange(8))
            assert table.min_distance(origin, mask) == leg_sum(
                origin, targets[first:])


def test_min_distances_is_min_distance_per_origin():
    """The row query equals the one-shot query at every origin and mask."""
    rng = random.Random(8)
    origins = [(x, y) for y in range(-1, 7) for x in range(-1, 7)]
    xs = np.array([x for x, _ in origins], dtype=np.int64)
    ys = np.array([y for _, y in origins], dtype=np.int64)
    for ordered in (True, False):
        for _ in range(10):
            targets = random_targets(rng, rng.randint(1, 6), 6)
            table = OpenPathTable(targets, ordered)
            assert table.exact
            for mask in range(1 << len(targets)):
                row = table.min_distances(xs, ys, mask)
                assert row.tolist() == [table.min_distance(o, mask)
                                        for o in origins]


def test_min_distances_refused_past_exact_limit(monkeypatch):
    monkeypatch.setattr(tsp, "EXACT_LIMIT", 1)
    table = OpenPathTable([(0, 0), (2, 1)], False)
    assert not table.exact
    with pytest.raises(ValueError):
        table.min_distances(np.zeros(1, dtype=np.int64),
                            np.zeros(1, dtype=np.int64), 0b11)
    assert OpenPathTable([(0, 0), (2, 1)], True).exact


def test_spanning_tree_bound_is_admissible(monkeypatch):
    """Past EXACT_LIMIT the bound never exceeds the exact open path."""
    monkeypatch.setattr(tsp, "EXACT_LIMIT", 1)
    rng = random.Random(7)
    for _ in range(30):
        targets = random_targets(rng, rng.randint(6, 8), 8)
        origin = (rng.randrange(8), rng.randrange(8))
        bound = solve_tsp(origin, targets, False)
        assert bound <= brute_force_open_path(origin, targets)


def test_spanning_tree_bound_values(monkeypatch):
    monkeypatch.setattr(tsp, "EXACT_LIMIT", 1)
    # a star around the origin: the tree takes each spoke once, the path
    # has to come back through the origin
    star = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert solve_tsp((0, 0), star, False) == 4
    assert brute_force_open_path((0, 0), star) == 7
    # collinear cells: the tree is the path
    assert solve_tsp((0, 0), [(3, 0), (1, 0), (2, 0)], False) == 3


def test_fallback_beyond_exact_limit(monkeypatch):
    """13 targets: the spanning-tree bound never exceeds the exact optimum."""
    rng = random.Random(13)
    for _ in range(8):
        targets = random_targets(rng, tsp.EXACT_LIMIT + 1, 12)
        origin = (rng.randrange(12), rng.randrange(12))
        bound = solve_tsp(origin, targets, False)
        with monkeypatch.context() as patch:
            patch.setattr(tsp, "EXACT_LIMIT", len(targets))
            exact = solve_tsp(origin, targets, False)
        assert bound <= exact


def test_manhattan():
    assert manhattan((0, 0), (2, 3)) == 5
