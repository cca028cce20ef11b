"""Schedule quality statistics: shuttle counts, ideal bounds, overheads.

The ideal bound assumes ancillae pass freely through each other (no
reservations). It is each ancilla's least open-path edge count from its home
readout through its targets, in the forced sequence for ordered tasks, as
computed by ``tsp.OpenPathTable``. The final parking leg is not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compiler import Schedule
from .css import CheckTask, CssCode
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
    """Count unit-edge shuttles per ancilla per round."""
    per = {}
    for aid, events in schedule.events.items():
        edges = sum(1 for ev in events if ev.kind == "SHUTTLE")
        per[aid] = edges / schedule.rounds
    mean = sum(per.values()) / len(per) if per else 0.0
    peak = max(per.values()) if per else 0.0
    overhead = None
    if ideal is not None:
        ideal_mean = sum(ideal.values()) / len(ideal) if ideal else 0.0
        overhead = mean / ideal_mean if ideal_mean else math.inf
    return ShuttleStats(per_ancilla=per, mean=mean, max=peak,
                        makespan=schedule.makespan, rounds=schedule.rounds,
                        overhead=overhead)


def ideal_lower_bound(tasks: list[CheckTask], data_cells: dict[int, tuple],
                      homes: dict[int, tuple]) -> dict[int, int]:
    """Collision-free minimal edge count per ancilla, from its home."""
    return {task.ancilla: solve_tsp(homes[task.ancilla],
                                    [data_cells[i] for i in task.targets],
                                    task.ordered)
            for task in tasks}


def ideal_for_schedule(schedule: Schedule) -> dict[int, int]:
    return ideal_lower_bound(schedule.tasks, schedule.data_cells,
                             schedule.homes)


@dataclass
class OverheadReport:
    per_code: dict[str, float]
    geomean: float


def overhead_report(entries: dict[str, tuple[ShuttleStats, dict[int, float]]]
                    ) -> OverheadReport:
    """Geometric mean of achieved/ideal mean-shuttle ratios across codes."""
    ratios: dict[str, float] = {}
    for name, (stats, ideal) in entries.items():
        ideal_mean = sum(ideal.values()) / len(ideal) if ideal else 0.0
        ratios[name] = stats.mean / ideal_mean if ideal_mean else math.inf
    finite = [r for r in ratios.values() if math.isfinite(r) and r > 0]
    if finite:
        geomean = math.exp(sum(math.log(r) for r in finite) / len(finite))
    else:
        geomean = math.nan
    return OverheadReport(per_code=ratios, geomean=geomean)


def efficiency_factor(code: CssCode) -> float:
    """k d^2 / n, the encoding-efficiency figure of merit (surface code: 1)."""
    if code.d_claimed is None:
        raise ValueError(f"{code.name}: no distance recorded")
    return code.k * code.d_claimed ** 2 / code.n


@dataclass
class CodeStats:
    name: str
    n: int
    k: int
    d: int | None
    check_weight: int
    mean_shuttles: float
    max_shuttles: float
    ideal_mean: float
    overhead: float
    efficiency: float | None
    makespan: int

    ROW_FIELDS = ("name", "n", "k", "d", "check_weight", "mean_shuttles",
                  "max_shuttles", "ideal_mean", "overhead", "efficiency",
                  "makespan")

    def row(self) -> list[str]:
        def fmt(v):
            if v is None:
                return "-"
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)
        return [fmt(getattr(self, f)) for f in self.ROW_FIELDS]


def code_stats(code: CssCode, schedule: Schedule) -> CodeStats:
    ideal = ideal_for_schedule(schedule)
    stats = shuttle_stats(schedule, ideal)
    ideal_mean = sum(ideal.values()) / len(ideal) if ideal else 0.0
    try:
        eff = efficiency_factor(code)
    except ValueError:
        eff = None
    return CodeStats(name=code.name, n=code.n, k=code.k, d=code.d_claimed,
                     check_weight=code.check_weight, mean_shuttles=stats.mean,
                     max_shuttles=stats.max, ideal_mean=ideal_mean,
                     overhead=stats.overhead, efficiency=eff,
                     makespan=schedule.makespan)


def stats_table(rows: list[CodeStats], fmt: str = "text") -> str:
    header = list(CodeStats.ROW_FIELDS)
    table = [header] + [r.row() for r in rows]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in table) + "\n"
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
             for row in table]
    return "\n".join(lines) + "\n"
