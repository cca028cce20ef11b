import gc
import heapq
import random

import pytest

from shuttleplan import tsp
from shuttleplan.chip import (TimingConfig, build_grid, channel_id,
                              interaction_id, intersection_id, readout_id)
from shuttleplan.intervals import ReservationTable, TimeInterval
from shuttleplan.planner import (PlanFailure, PlanRequest, SearchState,
                                 layout_index, plan_route, route_heuristic,
                                 route_successors)
from oracles import RouteOracle, scan_successors, static_remaining_cost

TIMING = TimingConfig()


def request(home, targets, *, start_time=0, ordered=False, gate=TIMING.t_cx,
            pad=TIMING.t_meas):
    return PlanRequest(start_cell=home, start_time=start_time,
                       targets=list(targets), ordered=ordered,
                       gate_duration=gate, terminal_pad=pad)


def reservations_of(table: ReservationTable) -> dict:
    return {comp: [(occ.start, occ.end) for occ in table.occupied(comp)]
            for comp in table.components()}


def test_no_tasks_already_parked():
    layout = build_grid(2, 1)
    result = plan_route(layout, ReservationTable(), TIMING,
                        request((0, 0), []))
    assert result.steps == []
    assert result.parked == readout_id((0, 0))
    assert result.parked_time == 0


def test_two_cell_line_single_target():
    """Route readout(0,0) -> gate at (1,0) -> park; cost equals h(start)."""
    layout = build_grid(2, 1)
    req = request((0, 0), [(1, 0)])
    result = plan_route(layout, ReservationTable(), TIMING, req)
    start = SearchState(readout_id((0, 0)), 0, 0)
    h0 = route_heuristic(layout, TIMING, req, start)
    assert result.parked_time == h0 == 1700
    kinds = [s.kind for s in result.steps]
    assert kinds == ["DISPLACE", "SHUTTLE", "DISPLACE", "GATE", "DISPLACE"]
    assert result.parked == readout_id((1, 0))
    oracle = RouteOracle(layout, {}, TIMING, req)
    assert oracle.solve(20_000) == 1700


def test_two_cell_line_with_blocked_channel():
    layout = build_grid(2, 1)
    req = request((0, 0), [(1, 0)])
    table = ReservationTable()
    table.reserve(channel_id((0, 0), (1, 0)), TimeInterval(0, 5000))
    result = plan_route(layout, table, TIMING, req)
    oracle = RouteOracle(layout, reservations_of(table), TIMING, req)
    expected = oracle.solve(40_000)
    assert expected is not None
    assert result.parked_time == expected == 6500
    waits = [s for s in result.steps if s.kind == "WAIT"]
    assert waits, "the route must wait out the blocked channel"


def test_search_counters_of_a_fixed_request():
    """Pops and pushes equal those of the full-rescan successor loop."""
    layout = build_grid(4, 3)
    table = ReservationTable()
    for comp, start, end in [
            (channel_id((1, 0), (2, 0)), 0, 3000),
            (intersection_id((2, 1)), 1000, 2500),
            (intersection_id((2, 1)), 2500, 2600),
            (interaction_id((3, 2)), 2000, 4000),
            (channel_id((0, 1), (1, 1)), 500, 1500),
            (channel_id((0, 1), (1, 1)), 2600, 5000),
            (readout_id((1, 2)), 0, 9000),
            (intersection_id((1, 1)), 3000, 3300)]:
        table.reserve(comp, TimeInterval(start, end))
    req = request((0, 0), [(3, 0), (1, 2), (3, 2)])
    req.gate_windows = {(1, 2): 4000}
    result = plan_route(layout, table, TIMING, req)
    assert result.parked_time == 9300
    stats = result.stats
    assert (stats.pops, stats.pushes) == (30, 52)
    assert stats.stale_pops == 1
    assert (stats.h_cache_hits, stats.h_cache_misses) == (4, 49)
    assert stats.h_cache_hits + stats.h_cache_misses == stats.pushes + 1


def test_search_leaves_no_reference_cycles():
    """Search memory is freed by reference counting as plan_route returns.

    A cycle through the search object would keep every search's memos alive
    until the cyclic collector runs, raising the peak memory of a compile.
    """
    layout = build_grid(3, 3)
    table = ReservationTable()
    table.reserve(channel_id((0, 0), (1, 0)), TimeInterval(0, 3000))
    req = request((0, 0), [(2, 0), (1, 2)])
    gc.collect()
    gc.disable()
    try:
        plan_route(layout, table, TIMING, req)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_plan_stats_record_wall_time():
    layout = build_grid(3, 3)
    result = plan_route(layout, ReservationTable(), TIMING,
                        request((0, 0), [(2, 2)]))
    assert 0 < result.stats.seconds < 60


def test_off_chip_start_is_rejected():
    layout = build_grid(3, 3)
    with pytest.raises(ValueError, match=r"\(-1, 0\)"):
        plan_route(layout, ReservationTable(), TIMING,
                   request((-1, 0), [(1, 1)]))


def test_off_chip_target_is_rejected():
    layout = build_grid(3, 3)
    with pytest.raises(ValueError, match=r"\(1, 3\)"):
        plan_route(layout, ReservationTable(), TIMING,
                   request((0, 0), [(1, 1), (1, 3)]))


def test_state_off_the_layout_is_rejected():
    layout = build_grid(3, 3)
    req = request((0, 0), [(1, 1)])
    state = SearchState(readout_id((3, 0)), 0, 0)
    with pytest.raises(ValueError, match="not a component"):
        route_heuristic(layout, TIMING, req, state)
    with pytest.raises(ValueError, match="not a component"):
        route_successors(layout, ReservationTable(), TIMING, req, state, 0)


def test_layout_ids_follow_component_order():
    """Dense ids rank components as tuples, so heap ties break alike."""
    for w, h in ((1, 1), (2, 1), (1, 3), (4, 3), (5, 5)):
        layout = build_grid(w, h)
        index = layout_index(layout)
        assert index.comps == sorted(layout.components())
        assert layout_index(layout) is index
        for i, comp in enumerate(index.comps):
            assert index.id_of[comp] == i
            assert index.kinds[i] == comp[0]


def test_failure_when_start_occupied():
    layout = build_grid(2, 1)
    table = ReservationTable()
    table.reserve(readout_id((0, 0)), TimeInterval(0, 100))
    with pytest.raises(PlanFailure):
        plan_route(layout, table, TIMING, request((0, 0), [(1, 0)]))


def test_successors_interior_intersection():
    layout = build_grid(3, 3)
    req = request((1, 1), [(0, 0)])
    state = SearchState(intersection_id((1, 1)), 0, 0)
    succ = route_successors(layout, ReservationTable(), TIMING, req, state, 0)
    kinds = [s.comp[0] for s, _ in succ]
    assert kinds.count("intersection") == 4  # degree-4 interior shuttles
    assert kinds.count("interaction") == 1
    assert kinds.count("readout") == 1
    arrivals = {s.comp: arr for s, arr in succ}
    assert arrivals[intersection_id((2, 1))] == TIMING.t_shuttle
    assert arrivals[interaction_id((1, 1))] == TIMING.t_displace


def test_gate_successor_updates_mask():
    layout = build_grid(2, 1)
    req = request((0, 0), [(1, 0)])
    state = SearchState(interaction_id((1, 0)), 0, 0)
    succ = route_successors(layout, ReservationTable(), TIMING, req, state, 1400)
    gates = [(s, arr) for s, arr in succ if s.mask == 1]
    assert len(gates) == 1
    gate_state, arr = gates[0]
    assert arr == 1400 + TIMING.t_cx
    assert gate_state.comp == interaction_id((1, 0))


def test_gate_blocked_by_short_interval():
    layout = build_grid(2, 1)
    req = request((0, 0), [(1, 0)])
    table = ReservationTable()
    # interaction zone becomes busy 50 ns after arrival: gate cannot fit
    table.reserve(interaction_id((1, 0)), TimeInterval(1450, 2000))
    state = SearchState(interaction_id((1, 0)), 0, 0)
    succ = route_successors(layout, table, TIMING, req, state, 1400)
    assert not [s for s, _ in succ if s.mask == 1]


def test_shuttle_successors_split_by_reservation():
    layout = build_grid(2, 1)
    req = request((0, 0), [(1, 0)])
    state = SearchState(intersection_id((0, 0)), 0, 0)

    table = ReservationTable()
    table.reserve(intersection_id((1, 0)), TimeInterval(1200, 2000))
    succ = [(s, arr) for s, arr in
            route_successors(layout, table, TIMING, req, state, 0)
            if s.comp == intersection_id((1, 0))]
    assert [(s.interval, arr) for s, arr in succ] == [(0, 1000), (1, 2000)]

    # arrival landing exactly on the occupancy start is not "before" it
    table = ReservationTable()
    table.reserve(intersection_id((1, 0)), TimeInterval(1000, 2000))
    succ = [(s, arr) for s, arr in
            route_successors(layout, table, TIMING, req, state, 0)
            if s.comp == intersection_id((1, 0))]
    assert [(s.interval, arr) for s, arr in succ] == [(1, 2000)]

    # a busy channel delays the departure so the arrival lands exactly on
    # the end of destination interval 0, which is too late for it
    table = ReservationTable()
    table.reserve(intersection_id((1, 0)), TimeInterval(1500, 2000))
    table.reserve(channel_id((0, 0), (1, 0)), TimeInterval(0, 500))
    succ = [(s, arr) for s, arr in
            route_successors(layout, table, TIMING, req, state, 0)
            if s.comp == intersection_id((1, 0))]
    assert [(s.interval, arr) for s, arr in succ] == [(1, 2000)]


def test_displace_reaches_every_later_interval():
    """One successor per reachable safe interval of the destination layer."""
    layout = build_grid(1, 1)
    req = request((0, 0), [])
    table = ReservationTable()
    ia = interaction_id((0, 0))
    table.reserve(ia, TimeInterval(800, 2000))
    table.reserve(ia, TimeInterval(2100, 2200))  # gap [2000, 2100) too short
    table.reserve(ia, TimeInterval(2400, 2500))  # gap of exactly t_displace
    state = SearchState(readout_id((0, 0)), 0, 0)
    succ = [(s.interval, arr) for s, arr in
            route_successors(layout, table, TIMING, req, state, 0)
            if s.comp == ia]
    assert (0, 200) in succ          # before the first reservation
    assert (3, 2700) in succ         # after the last reservation
    # neither gap fits: arriving as a gap closes is arriving too late
    assert all(i not in (1, 2) for i, _ in succ)


def test_heuristic_done_states():
    layout = build_grid(3, 3)
    req = request((0, 0), [(2, 2)])
    done = 1
    h_ro = route_heuristic(layout, TIMING, req,
                           SearchState(readout_id((1, 1)), 0, done))
    h_int = route_heuristic(layout, TIMING, req,
                            SearchState(intersection_id((1, 1)), 0, done))
    h_ia = route_heuristic(layout, TIMING, req,
                           SearchState(interaction_id((1, 1)), 0, done))
    assert h_ro == 0
    assert h_int == TIMING.t_displace
    assert h_ia == TIMING.t_displace


def test_heuristic_single_target_distance_three():
    layout = build_grid(4, 4)
    req = request((0, 0), [(3, 0)])
    state = SearchState(intersection_id((0, 0)), 0, 0)
    h = route_heuristic(layout, TIMING, req, state)
    assert h == 3 * 1000 + 100 + 2 * 200 == 3500


def test_heuristic_charges_readout_exit():
    layout = build_grid(4, 4)
    req = request((0, 0), [(3, 0)])
    state = SearchState(readout_id((0, 0)), 0, 0)
    h = route_heuristic(layout, TIMING, req, state)
    assert h == 3500 + TIMING.t_displace


def test_heuristic_gate_credit_at_pending_interaction():
    layout = build_grid(4, 1)
    req = request((0, 0), [(1, 0), (3, 0)])
    state = SearchState(interaction_id((1, 0)), 0, 0)
    h = route_heuristic(layout, TIMING, req, state)
    # immediate gate + its exit displace, then the (3,0) stop two edges away
    assert h == (100 + 200) + (2 * 1000 + 100 + 2 * 200)


def _random_request(rng, layout, cells, windows=False):
    n_targets = rng.randint(1, min(4, len(cells)))
    targets = rng.sample(cells, n_targets)
    ordered = rng.random() < 0.5
    gate = TIMING.t_cx + (2 * TIMING.t_h if rng.random() < 0.3 else 0)
    home = rng.choice(cells)
    req = request(home, targets, ordered=ordered, gate=gate)
    if windows and rng.random() < 0.5:
        req.gate_windows = {c: rng.randrange(0, 6000, 100)
                            for c in targets if rng.random() < 0.5}
    return req


def test_heuristic_admissible_on_random_states():
    """h never exceeds the exact no-obstacle cost-to-goal (1000 states)."""
    check_heuristic_admissible()


def test_heuristic_admissible_past_exact_limit(monkeypatch):
    """Every unordered task of 2+ targets takes the spanning-tree bound."""
    monkeypatch.setattr(tsp, "EXACT_LIMIT", 1)
    check_heuristic_admissible()


def scalar_heuristic(req, comp, mask) -> int:
    """The heuristic for one state, straight from ``min_distance``."""
    t = TIMING
    tours = tsp.OpenPathTable(req.targets, req.ordered)
    pending = ((1 << len(req.targets)) - 1) & ~mask
    if pending == 0:
        return 0 if comp[0] == "readout" else t.t_displace
    cell = (comp[1], comp[2])
    j = req.targets.index(cell) if cell in req.targets else None
    if j is not None and (mask & (1 << j) or (
            req.ordered and j != bin(mask).count("1"))):
        j = None
    cost = 0
    if comp[0] == "interaction" and j is not None:
        cost += req.gate_duration + t.t_displace
        pending &= ~(1 << j)
        if pending == 0:
            return cost
    elif comp[0] == "readout" and j is None:
        cost += t.t_displace
    stops = bin(pending).count("1") * (req.gate_duration + 2 * t.t_displace)
    return cost + tours.min_distance(cell, pending) * t.t_shuttle + stops


def check_heuristic_rows(ordered: bool, min_targets: int = 1) -> None:
    """route_heuristic equals the scalar formula on every cell, layer, mask."""
    rng = random.Random(7 + ordered)
    for _ in range(6):
        layout = build_grid(rng.randint(2, 4), rng.randint(2, 4))
        cells = list(layout.cells())
        targets = rng.sample(cells, rng.randint(min_targets, 4))
        gate = TIMING.t_cx + (2 * TIMING.t_h if rng.random() < 0.5 else 0)
        req = request(rng.choice(cells), targets, ordered=ordered, gate=gate)
        for comp in layout.components():
            if comp[0] == "channel":
                continue
            for mask in range(1 << len(targets)):
                state = SearchState(comp, 0, mask)
                assert route_heuristic(layout, TIMING, req, state) == \
                    scalar_heuristic(req, comp, mask), (state, req)


def test_heuristic_rows_ordered():
    check_heuristic_rows(ordered=True)


def test_heuristic_rows_unordered():
    check_heuristic_rows(ordered=False)


def test_heuristic_rows_past_exact_limit(monkeypatch):
    """Every task of 2+ unordered targets takes the spanning-tree row."""
    monkeypatch.setattr(tsp, "EXACT_LIMIT", 1)
    check_heuristic_rows(ordered=False, min_targets=2)


def check_heuristic_admissible():
    rng = random.Random(42)
    checked = 0
    while checked < 1000:
        w, h_dim = rng.randint(1, 4), rng.randint(1, 4)
        layout = build_grid(w, h_dim)
        cells = list(layout.cells())
        req = _random_request(rng, layout, cells)
        cell = rng.choice(cells)
        comp = rng.choice((intersection_id, interaction_id, readout_id))(cell)
        n = len(req.targets)
        mask = rng.randrange(1 << n)
        if req.ordered:
            mask = (1 << rng.randint(0, n)) - 1  # ordered tasks finish a prefix
        state = SearchState(comp, 0, mask)
        h_val = route_heuristic(layout, TIMING, req, state)
        oracle = static_remaining_cost(layout, TIMING, req, comp, mask)
        assert h_val <= oracle, (
            f"inadmissible: h={h_val} > oracle={oracle} at {state} of {req}")
        checked += 1


def random_instance(rng, max_reservations=3):
    """Small randomized routing instance with seeded reservations."""
    while True:
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        if w * h >= 2:
            break
    layout = build_grid(w, h)
    cells = list(layout.cells())
    req = _random_request(rng, layout, cells)
    table = ReservationTable()
    home_ro = readout_id(req.start_cell)
    comps = [c for c in layout.components() if c != home_ro]
    for _ in range(rng.randint(0, max_reservations)):
        comp = rng.choice(comps)
        start = rng.randrange(0, 8000, 100)
        interval = TimeInterval(start, start + rng.randrange(100, 4000, 100))
        if table.is_free(comp, interval):
            table.reserve(comp, interval)
    return layout, table, req


def dense_instance(rng):
    """Up to 12 reservations on channels and destination intersections.

    Half of them run back to back with the previous one on the same
    component, so arrivals land exactly on interval ends and bisection
    boundaries are exercised.
    """
    layout, table, req = random_instance(rng, max_reservations=0)
    home_ro = readout_id(req.start_cell)
    comps = layout.channels() + [intersection_id(x) for x in layout.cells()]
    comps += [interaction_id(x) for x in req.targets]
    comps += [readout_id(x) for x in layout.cells()
              if readout_id(x) != home_ro]
    last_end: dict = {}
    for _ in range(rng.randint(6, 12)):
        comp = rng.choice(comps)
        if comp in last_end and rng.random() < 0.5:
            start = last_end[comp]
        else:
            start = rng.randrange(0, 8000, 100)
        end = start + rng.randrange(100, 2500, 100)
        interval = TimeInterval(start, end)
        if table.is_free(comp, interval):
            table.reserve(comp, interval)
            last_end[comp] = end
    return layout, table, req


def run_optimality_trials(count: int, seed: int = 123,
                          instance=random_instance) -> None:
    rng = random.Random(seed)
    for trial in range(count):
        layout, table, req = instance(rng)
        result = plan_route(layout, table, TIMING, req)
        oracle = RouteOracle(layout, reservations_of(table), TIMING, req)
        expected = oracle.solve(result.parked_time + 100)
        assert expected is not None, f"trial {trial}: oracle found nothing"
        assert result.parked_time == expected, (
            f"trial {trial}: planner {result.parked_time} != oracle {expected}")


def test_route_matches_discretized_oracle():
    run_optimality_trials(8)


def test_route_matches_oracle_on_dense_tables():
    run_optimality_trials(30, seed=2024, instance=dense_instance)


def oracle_reached_states(layout, table, req) -> dict:
    """Earliest arrival of every state that a search reaches before its goal.

    A best-first search on arrival time expanded with ``scan_successors``,
    so the states it reaches do not depend on the planner.
    """
    start_comp = readout_id(req.start_cell)
    start = (start_comp,
             table.interval_containing(start_comp, req.start_time).index, 0)
    full = (1 << len(req.targets)) - 1
    g_best = {start: req.start_time}
    heap = [(req.start_time, start)]
    while heap:
        g, state = heapq.heappop(heap)
        if g > g_best[state]:
            continue
        comp, interval, mask = state
        end = table.safe_intervals(comp)[interval].span.end
        if mask == full and comp[0] == "readout" and g + req.terminal_pad <= end:
            break
        for nxt, arr in scan_successors(layout, table, TIMING, req, *state, g):
            if arr < g_best.get(nxt, float("inf")):
                g_best[nxt] = arr
                heapq.heappush(heap, (arr, nxt))
    return g_best


def gapped_instance(rng):
    """Reservations separated by gaps of about one shuttle or displace.

    Gaps of exactly t_displace or t_shuttle put arrivals on interval ends.
    """
    layout, table, req = random_instance(rng, max_reservations=0)
    home_ro = readout_id(req.start_cell)
    comps = [c for c in layout.components() if c != home_ro]
    last_end: dict = {}
    for _ in range(rng.randint(6, 12)):
        comp = rng.choice(comps)
        if comp in last_end:
            start = last_end[comp] + rng.choice((100, 200, 300, 1000, 1100))
        else:
            start = rng.randrange(0, 4000, 100)
        end = start + rng.randrange(100, 1500, 100)
        interval = TimeInterval(start, end)
        if table.is_free(comp, interval):
            table.reserve(comp, interval)
            last_end[comp] = end
    return layout, table, req


def test_successors_match_full_scan_oracle():
    """Bisected successors equal a scan from index 0, as sets and in order."""
    rng = random.Random(77)
    compared = 0
    for trial in range(64):
        instance = dense_instance if trial % 2 else gapped_instance
        layout, table, req = instance(rng)
        for state, g in oracle_reached_states(layout, table, req).items():
            expected = scan_successors(layout, table, TIMING, req, *state, g)
            got = route_successors(layout, table, TIMING, req,
                                   SearchState(*state), g)
            assert set(got) == set(expected), (state, g)
            assert got == expected, (state, g)
            compared += 1
    assert compared > 2000
