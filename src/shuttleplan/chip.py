"""Tiled unit-cell chip model: components, adjacency, timing and noise.

Every unit cell holds one intersection (where shuttling channels meet),
one interaction zone (gates) and one readout zone (init/measure).
Channels connect horizontally/vertically adjacent intersections. Component
ids are plain tuples so they can key dictionaries and sort deterministically:

    ("intersection", x, y) / ("interaction", x, y) / ("readout", x, y)
    ("channel", x1, y1, x2, y2)   with (x1, y1) < (x2, y2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterator

Cell = tuple[int, int]
ComponentId = tuple


# the component kinds, the first entry of every component id
INTERSECTION = "intersection"
CHANNEL = "channel"
INTERACTION = "interaction"
READOUT = "readout"


def intersection_id(cell: Cell) -> ComponentId:
    return (INTERSECTION, cell[0], cell[1])


def interaction_id(cell: Cell) -> ComponentId:
    return (INTERACTION, cell[0], cell[1])


def readout_id(cell: Cell) -> ComponentId:
    return (READOUT, cell[0], cell[1])


def channel_id(a: Cell, b: Cell) -> ComponentId:
    if b < a:
        a, b = b, a
    return (CHANNEL, a[0], a[1], b[0], b[1])


_ID_LENGTH = {INTERSECTION: 3, INTERACTION: 3, READOUT: 3, CHANNEL: 5}


def is_component_id(comp: object) -> bool:
    """Whether comp is a plain tuple of a known kind, 5 fields for a channel
    and 3 otherwise, with int coordinates; it may lie off any given chip."""
    return (type(comp) is tuple and len(comp) in (3, 5)
            and type(comp[0]) is str and _ID_LENGTH.get(comp[0]) == len(comp)
            and all([type(v) is int for v in comp[1:]]))


def component_cell(comp: ComponentId) -> Cell:
    """Cell of a cell-local component (not defined for channels)."""
    if comp[0] == CHANNEL:
        raise ValueError(f"channel {comp} spans two cells")
    return (comp[1], comp[2])


class ChipLayout:
    """Rectangular width x height grid of unit cells."""

    def __init__(self, width: int, height: int):
        if type(width) is not int or type(height) is not int:
            raise ValueError(f"grid dimensions must be ints, got "
                             f"{width!r} x {height!r}")
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be >= 1")
        self.width = width
        self.height = height

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def require_in_bounds(self, cell: Cell) -> None:
        if not self.in_bounds(cell):
            raise ValueError(f"cell {cell} outside {self.width}x{self.height} grid")

    def cells(self) -> Iterator[Cell]:
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def neighbors(self, cell: Cell) -> list[Cell]:
        x, y = cell
        return [nb for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                if self.in_bounds(nb)]

    def channels(self) -> list[ComponentId]:
        """Each cell's channel to its right, then down, in cell order."""
        return [channel_id((x, y), nb) for x, y in self.cells()
                for nb in ((x + 1, y), (x, y + 1)) if self.in_bounds(nb)]

    def components(self) -> list[ComponentId]:
        return [build(cell) for cell in self.cells() for build in
                (intersection_id, interaction_id, readout_id)] + self.channels()

    def __repr__(self) -> str:
        return f"ChipLayout({self.width}x{self.height})"


def build_grid(width: int, height: int) -> ChipLayout:
    return ChipLayout(width, height)


@dataclass(frozen=True)
class TimingConfig:
    """Operation durations in integer nanoseconds; a bool is not one.

    All times are kept integral; the defaults are multiples of 100 ns so a
    100 ns discretization reproduces the continuous schedule exactly.
    """

    t_cx: int = 100
    t_h: int = 100
    t_init: int = 500
    t_meas: int = 500
    t_shuttle: int = 1000  # per unit edge
    t_displace: int = 200

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if type(value) is not int or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """Error rates per operation plus idle decoherence times (ns), each a
    real number other than a bool."""

    p_cx: float = 1e-3        # depolarizing, two-qubit
    p_h: float = 1e-3         # depolarizing, single-qubit
    p_init: float = 1e-3      # flip to orthogonal state
    p_meas: float = 1e-3      # outcome flip
    p_shuttle: float = 1e-3   # phase flip per unit edge
    p_displace: float = 1e-3  # phase flip per displace
    t1: float = 1e10          # 10 s, bit-flip idle channel
    t2: float = 1e7           # 10 ms, phase-flip idle channel

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("p_cx", "p_h", "p_init", "p_meas", "p_shuttle", "p_displace"):
            p = getattr(self, name)
            if not 0.0 <= p <= 0.75:
                raise ValueError(f"{name} must be in [0, 0.75], got {p!r}")
        if not self.t1 > 0 or not self.t2 > 0:
            raise ValueError("t1 and t2 must be positive")

    def idle_px(self, dt: int) -> float:
        """Bit-flip probability accumulated while idling dt ns."""
        return -math.expm1(-dt / self.t1) if dt > 0 else 0.0

    def idle_pz(self, dt: int) -> float:
        """Phase-flip probability accumulated while idling dt ns."""
        return -math.expm1(-dt / self.t2) if dt > 0 else 0.0
