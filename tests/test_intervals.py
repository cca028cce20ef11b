import random

import pytest
from hypothesis import given, settings, strategies as st

from shuttleplan.intervals import INF, ReservationError, ReservationTable
from oracles import bitmap_safe_intervals


def test_empty_component_is_one_unbounded_interval():
    table = ReservationTable()
    assert table.safe_intervals("c") == [(0, INF)]
    assert table.interval_containing("c", 12345) == 0


def test_complement_of_single_reservation():
    table = ReservationTable()
    table.reserve("c", 100, 200)
    assert table.safe_intervals("c") == [(0, 100), (200, INF)]


def test_adjacent_reservations_leave_no_gap():
    table = ReservationTable()
    table.reserve("c", 0, 50)
    table.reserve("c", 50, 80)
    assert table.safe_intervals("c") == [(80, INF)]


def test_double_reserve_is_an_error():
    table = ReservationTable()
    table.reserve("c", 0, 100)
    with pytest.raises(ReservationError, match=r"\[0, 100\)"):
        table.reserve("c", 0, 100)


def test_partial_overlap_is_an_error():
    table = ReservationTable()
    table.reserve("c", 0, 100)
    with pytest.raises(ReservationError):
        table.reserve("c", 99, 150)


@pytest.mark.parametrize("start, end", [(100, 100), (200, 100), (INF, INF)])
def test_empty_or_reversed_reservation_is_refused(start, end):
    """An empty pair raises ValueError and leaves the table as it was."""
    table = ReservationTable()
    table.reserve("c", 300, 400)
    comps = ["c", "d"]
    bounds = table.bounds_by_id(comps)
    before = list(bounds)
    with pytest.raises(ValueError, match="empty interval"):
        table.reserve("c", start, end)
    with pytest.raises(ValueError, match="empty interval"):
        table.reserve("d", start, end)
    assert table.components() == ["c"]
    assert table.occupied("c") == [(300, 400)]
    assert table.safe_intervals("c") == [(0, 300), (400, INF)]
    assert table.bounds_by_id(comps) is bounds
    assert bounds == before


def test_interval_containing_tells_index_zero_from_none():
    """Index 0 is a safe interval, so it is not the occupied answer None."""
    table = ReservationTable()
    table.reserve("c", 100, 200)
    assert table.interval_containing("c", 0) == 0
    assert table.interval_containing("c", 100) is None
    table.reserve("c", 0, 100)
    assert table.interval_containing("c", 0) is None
    assert table.interval_containing("c", 200) == 0


def test_reserve_to_infinity_blocks_tail():
    table = ReservationTable()
    table.reserve("c", 500, INF)
    assert table.safe_intervals("c") == [(0, 500)]
    assert table.interval_containing("c", 600) is None


def test_release_restores_infinite_interval():
    table = ReservationTable()
    table.reserve("c", 0, INF)
    assert table.safe_intervals("c") == []
    table.release("c", 0, INF)
    assert table.safe_intervals("c") == [(0, INF)]
    with pytest.raises(ReservationError):
        table.release("c", 0, INF)


def test_interval_containing_boundaries():
    table = ReservationTable()
    table.reserve("c", 100, 200)
    assert table.interval_containing("c", 50) == 0
    assert table.interval_containing("c", 100) is None  # inside occupancy
    assert table.interval_containing("c", 150) is None
    assert table.interval_containing("c", 200) == 1
    assert table.interval_containing("c", 10**9) == 1
    assert table.safe_intervals("c") == [(0, 100), (200, INF)]


def test_indices_enumerate_in_start_order():
    table = ReservationTable()
    table.reserve("c", 300, 400)
    table.reserve("c", 100, 200)
    intervals = table.safe_intervals("c")
    assert [table.interval_containing("c", start)
            for start, _ in intervals] == [0, 1, 2]
    starts = [start for start, _ in intervals]
    assert starts == sorted(starts)


def test_random_reservations_match_bitmap_oracle():
    rng = random.Random(7)
    table = ReservationTable()
    horizon = 2_000_000
    committed = []
    attempts = 0
    while len(committed) < 1000 and attempts < 20_000:
        attempts += 1
        start = rng.randrange(0, horizon - 100, 100)
        end = start + rng.randrange(100, 2000, 100)
        if table.is_free("c", start, end):
            table.reserve("c", start, end)
            committed.append((start, end))
    assert len(committed) == 1000

    expected = bitmap_safe_intervals(committed, horizon)
    got = []
    for start, end in table.safe_intervals("c"):
        if start < horizon:
            got.append((start, min(end, horizon)))
    assert got == expected


def _fresh_spans(table, comp):
    """Safe spans of comp rebuilt in a new table from its occupancy alone."""
    fresh = ReservationTable()
    for start, end in table.occupied(comp):
        fresh.reserve(comp, start, end)
    return fresh.safe_intervals(comp)


def test_cache_follows_reserve_release_and_copy():
    """Random reserve/release/copy interleavings never serve a stale answer."""
    rng = random.Random(11)
    comps = ["a", "b", "c", "d"]
    horizon = 20_000
    tables = [ReservationTable()]
    held = [{comp: [] for comp in comps}]  # intervals reserved per table
    for step in range(600):
        k = rng.randrange(len(tables))
        table, mine = tables[k], held[k]
        comp = rng.choice(comps)
        op = rng.random()
        if op < 0.1 and len(tables) < 6:
            tables.append(table.copy())
            held.append({c: list(v) for c, v in mine.items()})
        elif op < 0.45 and mine[comp]:
            victim = mine[comp].pop(rng.randrange(len(mine[comp])))
            others = [t.safe_intervals(comp) for t in tables if t is not table]
            table.release(comp, *victim)
            assert [t.safe_intervals(comp)
                    for t in tables if t is not table] == others
        else:
            start = rng.randrange(0, horizon - 100, 100)
            end = INF if rng.random() < 0.03 else (
                start + rng.randrange(100, 3000, 100))
            if table.is_free(comp, start, end):
                table.reserve(comp, start, end)
                mine[comp].append((start, end))
        for t, reserved in zip(tables, held):
            for c in comps:
                got = t.safe_intervals(c)
                assert got == _fresh_spans(t, c), f"step {step}: {c}"
                bounded = [(s, min(e, horizon)) for s, e in got if s < horizon]
                assert bounded == bitmap_safe_intervals(reserved[c], horizon)
                probe = rng.randrange(0, horizon + 500, 50)
                i = t.interval_containing(c, probe)
                live = [k for k, (s, e) in enumerate(got) if s <= probe < e]
                assert i == (live[0] if live else None)


def test_bounds_by_id_follow_reserve_and_release():
    """After random reserve and release sequences, the list by position
    equals every component's safe bounds, rebuilt with no cache; switching
    between two component lists rebuilds the list."""
    rng = random.Random(13)
    comps = [f"c{i}" for i in range(8)]
    other = comps[::-1]
    table = ReservationTable()
    held = {comp: [] for comp in comps}
    for step in range(800):
        comp = rng.choice(comps)
        if rng.random() < 0.4 and held[comp]:
            table.release(comp, *held[comp].pop(rng.randrange(len(held[comp]))))
        else:
            start = rng.randrange(0, 20_000, 100)
            end = INF if rng.random() < 0.03 else (
                start + rng.randrange(100, 3000, 100))
            if table.is_free(comp, start, end):
                table.reserve(comp, start, end)
                held[comp].append((start, end))
        if rng.random() < 0.3:
            order = other if rng.random() < 0.2 else comps
            got = table.bounds_by_id(order)
            assert got is table.bounds_by_id(order)
            for c, bounds in zip(order, got):
                fresh = ReservationTable()
                for start, end in held[c]:
                    fresh.reserve(c, start, end)
                assert bounds == fresh.safe_bounds(c), f"step {step}: {c}"


def test_safe_intervals_result_is_a_private_list():
    table = ReservationTable()
    table.reserve("c", 100, 200)
    table.safe_intervals("c").clear()
    assert table.safe_intervals("c") == [(0, 100), (200, INF)]


def test_partition_property():
    """Safe and occupied intervals partition [0, inf) with no gap or overlap."""
    rng = random.Random(3)
    table = ReservationTable()
    for _ in range(200):
        start = rng.randrange(0, 50_000, 100)
        end = start + rng.randrange(100, 900, 100)
        if table.is_free("c", start, end):
            table.reserve("c", start, end)
    pieces = table.safe_intervals("c") + table.occupied("c")
    pieces.sort()
    cursor = 0
    for start, end in pieces:
        assert start == cursor
        cursor = end
    assert cursor == INF


interval_sets = st.lists(
    st.integers(0, 40).flatmap(
        lambda s: st.tuples(st.just(s * 100), st.integers(1, 5).map(
            lambda w: s * 100 + w * 100))),
    min_size=1, max_size=12)


@given(interval_sets, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_reserve_order_independent(raw, rng):
    disjoint = []
    for start, end in sorted(set(raw)):
        if all(end <= s or e <= start for s, e in disjoint):
            disjoint.append((start, end))
    reference = None
    for _ in range(3):
        shuffled = list(disjoint)
        rng.shuffle(shuffled)
        table = ReservationTable()
        for start, end in shuffled:
            table.reserve("c", start, end)
        result = table.safe_intervals("c")
        if reference is None:
            reference = result
        assert result == reference
