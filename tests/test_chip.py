import math

import pytest
from hypothesis import given, strategies as st

from shuttleplan.chip import (CHANNEL, INTERACTION, INTERSECTION, READOUT,
                              NoiseConfig, TimingConfig, build_grid,
                              channel_id, component_cell)
from shuttleplan.tsp import manhattan
from conftest import NOISELESS
from oracles import bfs_hops


def test_single_cell_grid():
    grid = build_grid(1, 1)
    comps = grid.components()
    kinds = [c[0] for c in comps]
    assert kinds.count(INTERSECTION) == 1
    assert kinds.count(INTERACTION) == 1
    assert kinds.count(READOUT) == 1
    assert kinds.count(CHANNEL) == 0


def test_2x2_grid_counts():
    grid = build_grid(2, 2)
    assert len(list(grid.cells())) == 4
    assert len(grid.channels()) == 4


def test_3x3_channel_count_matches_enumeration():
    grid = build_grid(3, 3)
    expected = 2 * 3 * 3 - 3 - 3  # grid-edge count formula
    explicit = set()
    for a in grid.cells():
        for b in grid.neighbors(a):
            explicit.add(channel_id(a, b))
    assert len(grid.channels()) == expected == 12
    assert set(grid.channels()) == explicit


def test_grid_rejects_empty():
    with pytest.raises(ValueError):
        build_grid(0, 3)


@pytest.mark.parametrize("width,height", [(True, 2), (3.0, 2), (2, False),
                                          (2, "two"), (None, 2)])
def test_grid_rejects_non_int_dimensions(width, height):
    with pytest.raises(ValueError, match="grid dimensions must be ints"):
        build_grid(width, height)


def test_degrees():
    grid = build_grid(3, 3)
    degree = {cell: len(grid.neighbors(cell)) for cell in grid.cells()}
    assert degree[(1, 1)] == 4
    assert degree[(1, 0)] == 3
    assert degree[(0, 0)] == 2


def test_grid_distance_examples():
    assert manhattan((0, 0), (0, 0)) == 0
    assert manhattan((0, 0), (2, 3)) == 5


def test_grid_distance_matches_bfs():
    grid = build_grid(5, 4)
    cells = list(grid.cells())
    for a in cells[::3]:
        for b in cells[::4]:
            assert manhattan(a, b) == bfs_hops(grid, a, b)


coords = st.tuples(st.integers(0, 5), st.integers(0, 5))


@given(coords, coords, coords)
def test_grid_distance_is_a_metric(a, b, c):
    assert manhattan(a, b) == manhattan(b, a)
    assert manhattan(a, b) >= 0
    assert (manhattan(a, b) == 0) == (a == b)
    assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c)


def test_channels_connect_adjacent_intersections():
    grid = build_grid(4, 3)
    for ch in grid.channels():
        a = (ch[1], ch[2])
        b = (ch[3], ch[4])
        assert manhattan(a, b) == 1


def test_component_cell_rejects_channels():
    with pytest.raises(ValueError):
        component_cell(channel_id((0, 0), (0, 1)))


def test_timing_defaults_and_validation():
    t = TimingConfig()
    assert (t.t_cx, t.t_h, t.t_init, t.t_meas) == (100, 100, 500, 500)
    assert (t.t_shuttle, t.t_displace) == (1000, 200)
    with pytest.raises(ValueError):
        TimingConfig(t_cx=0)
    with pytest.raises(ValueError):
        TimingConfig(t_h=99.5)


def test_timing_rejects_bool_durations():
    with pytest.raises(ValueError, match="t_cx must be a positive integer"):
        TimingConfig(t_cx=True)


def test_noise_defaults_and_validation():
    nc = NoiseConfig()
    assert nc.t1 == 1e10 and nc.t2 == 1e7  # 10 s and 10 ms in ns
    with pytest.raises(ValueError):
        NoiseConfig(p_cx=0.8)
    with pytest.raises(ValueError):
        NoiseConfig(t2=0)


@pytest.mark.parametrize("name", ["p_cx", "p_h", "p_init", "p_meas",
                                  "p_shuttle", "p_displace", "t1", "t2"])
@pytest.mark.parametrize("value", [True, False, "0.1", "x", None, [1],
                                   0.1 + 0j])
def test_noise_rejects_bool_fields(name, value):
    """A bool or a value that is not a real number is refused by name:
    t1=True would otherwise be a 1 ns bit-flip time, and a string, None, a
    list or a complex would fail a comparison with a bare TypeError."""
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        NoiseConfig(**{name: value})


def test_zero_noise_config():
    nc = NOISELESS
    assert nc.p_shuttle == 0.0
    assert nc.idle_px(10_000) == 0.0
    assert nc.idle_pz(10_000) == 0.0


def test_idle_dephasing_closed_form():
    nc = NoiseConfig()
    # 1 ms of idling against t2 = 10 ms
    assert math.isclose(nc.idle_pz(1_000_000), 1 - math.exp(-0.1), rel_tol=1e-12)
