import pytest

from shuttleplan.chip import TimingConfig, build_grid
from shuttleplan.compiler import schedule_round
from shuttleplan.css import default_layout, load_css, surface_code
from shuttleplan.metrics import ShuttleStats, ideal_for_schedule, shuttle_stats
from oracles import brute_force_open_path

TIMING = TimingConfig()


@pytest.fixture(scope="module")
def surface_d3():
    code, layout = surface_code(3)
    return schedule_round(code, layout, TIMING)


@pytest.fixture(scope="module")
def bb72(bb72_path):
    code = load_css(str(bb72_path))
    return schedule_round(code, default_layout(code, build_grid(9, 8)), TIMING)


def from_home_optimum(schedule, task) -> int:
    """Least travel from home: the forced leg sum, or the best permutation."""
    home = schedule.homes[task.ancilla]
    cells = [schedule.data_cells[i] for i in task.targets]
    if not schedule.ordered:
        return brute_force_open_path(home, cells)
    stops = [home] + cells
    return sum(abs(a[0] - b[0]) + abs(a[1] - b[1])
               for a, b in zip(stops, stops[1:]))


@pytest.mark.parametrize("name, ordered, weight",
                         [("surface_d3", True, 4), ("bb72", False, 6)])
def test_ideal_matches_from_home_oracle(request, name, ordered, weight):
    schedule = request.getfixturevalue(name)
    ideal = ideal_for_schedule(schedule)
    assert sorted(ideal) == sorted(schedule.events)
    assert schedule.ordered == ordered
    assert max(len(t.targets) for t in schedule.tasks) == weight
    for task in schedule.tasks:
        assert ideal[task.ancilla] == from_home_optimum(schedule, task)


def test_shuttle_stats_surface_d3(surface_d3):
    stats = shuttle_stats(surface_d3, ideal_for_schedule(surface_d3))
    assert stats.mean == 3.25
    assert stats.overhead == pytest.approx(1.0833, abs=1e-4)
    assert stats.rounds == 1
    assert stats.makespan == surface_d3.makespan


def test_shuttle_stats_rejects_mean_above_max():
    with pytest.raises(ValueError, match="exceed the maximum"):
        ShuttleStats(per_ancilla={0: 1.0}, mean=9.0, max=1.0, makespan=1,
                     rounds=1)
