"""Schedule quality statistics: unit-edge shuttles per ancilla and round,
and their overhead over an ideal edge bound.

The ideal bound assumes ancillae pass freely through each other (no
reservations). It is each ancilla's least open-path edge count from its home
readout through its targets, in the forced sequence for ordered tasks, as
computed by ``tsp.OpenPathTable``. The final parking leg is not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compiler import Schedule
from .tsp import solve_tsp


@dataclass
class ShuttleStats:
    per_ancilla: dict[int, float]  # mean unit edges per round
    mean: float
    max: float
    makespan: int
    rounds: int
    overhead: float | None = None  # achieved mean / ideal mean, when known

    def __post_init__(self):
        if self.per_ancilla and self.mean > self.max + 1e-12:
            raise ValueError(f"mean shuttles {self.mean} exceed the maximum "
                             f"{self.max}")


def shuttle_stats(schedule: Schedule,
                  ideal: dict[int, float] | None = None) -> ShuttleStats:
    """Count unit-edge shuttles per ancilla per round: every round repeats
    the stored one, so its count is the mean."""
    per = {}
    for aid, events in schedule.events.items():
        per[aid] = float(sum(1 for ev in events if ev.kind == "SHUTTLE"))
    mean = sum(per.values()) / len(per) if per else 0.0
    peak = max(per.values()) if per else 0.0
    overhead = None
    if ideal is not None:
        ideal_mean = sum(ideal.values()) / len(ideal) if ideal else 0.0
        overhead = mean / ideal_mean if ideal_mean else math.inf
    return ShuttleStats(per_ancilla=per, mean=mean, max=peak,
                        makespan=schedule.makespan, rounds=schedule.rounds,
                        overhead=overhead)


def ideal_for_schedule(schedule: Schedule) -> dict[int, int]:
    """Collision-free minimal edge count per ancilla, from its home."""
    homes, cells = schedule.homes, schedule.data_cells
    return {task.ancilla: solve_tsp(homes[task.ancilla],
                                    [cells[i] for i in task.targets],
                                    schedule.ordered)
            for task in schedule.tasks}
