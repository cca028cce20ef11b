"""CSS code definitions, validation, logical operators and chip placement.

A code file is plain text: a header line ``n k d name`` (d may be '-' when
unknown), an ``HX`` section with one row of n space-separated bits per X
check, an ``HZ`` section likewise, an optional ``LAYOUT`` section with one
``x y`` line per data qubit and an optional ``ORDER`` section with one line
per check row (X rows first) listing that check's data indices in visit
order.

The checks of a code are the rows of ``[Hx; Hz]``, X rows first, and
``CssCode.orders`` keeps the ORDER section's rows in that order.
``tasks_from_code`` is the one place that turns a code into checks: check
a is row a, collected by ancilla a; every later stage reads them from the
schedule's tasks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gf2
from .chip import Cell, ChipLayout


class CodeError(ValueError):
    """Raised for malformed or inconsistent code definitions."""


@dataclass
class CssCode:
    """Checks ``hx`` and ``hz``; check a is row a of ``[hx; hz]``.

    Their entries are ints or bools equal to 0 or 1, in integer or bool
    arrays or nested lists. ``orders`` is None or one visit order per check
    row, in that row order (X rows first, as in the ORDER section), each a
    permutation of its row's support in ints, not bools; a code with them
    is ``ordered``. A CodeError names the field and row of a malformed
    entry. ``tasks_from_code`` turns the checks into tasks.
    """

    hx: np.ndarray
    hz: np.ndarray
    name: str = "unnamed"
    d_claimed: Optional[int] = None
    orders: Optional[list[list[int]]] = None
    # explicit data placement from the file's LAYOUT section
    file_layout: Optional[dict[int, Cell]] = None

    def __post_init__(self):
        self.hx, self.hz = _bits(self.hx, "Hx"), _bits(self.hz, "Hz")
        if self.hx.size == 0:
            self.hx = self.hx.reshape(0, self.hz.shape[1])
        if self.hz.size == 0:
            self.hz = self.hz.reshape(0, self.hx.shape[1])
        if self.hx.shape[1] != self.hz.shape[1]:
            raise CodeError("Hx and Hz must have the same number of columns")
        bad = np.nonzero(gf2.matmul(self.hx, self.hz.T))
        if bad[0].size:
            i, j = int(bad[0][0]), int(bad[1][0])
            raise CodeError(
                f"Hx row {i} anticommutes with Hz row {j} (odd overlap)")
        for mat, label in ((self.hx, "Hx"), (self.hz, "Hz")):
            empty = np.nonzero(~mat.any(axis=1))[0] if mat.shape[0] else []
            if len(empty):
                raise CodeError(f"{label} row {int(empty[0])} has no support")
        if self.orders is not None:
            checks = np.vstack([self.hx, self.hz])
            if len(self.orders) != checks.shape[0]:
                raise CodeError(f"orders: expected {checks.shape[0]} rows, "
                                f"got {len(self.orders)}")
            for row, seq in enumerate(self.orders):
                if any(type(q) is not int for q in seq):
                    raise CodeError(f"orders row {row}: entries must be ints")
                if sorted(seq) != np.nonzero(checks[row])[0].tolist():
                    raise CodeError(f"check row {row}: ORDER entries do not "
                                    f"match support")

    @property
    def ordered(self) -> bool:
        """Whether every check visits its data qubits in a fixed order."""
        return self.orders is not None

    @property
    def n(self) -> int:
        return self.hx.shape[1]

    @property
    def k(self) -> int:
        return self.n - gf2.rank(self.hx) - gf2.rank(self.hz)

    def params(self) -> str:
        d = self.d_claimed if self.d_claimed is not None else "?"
        return f"[[{self.n},{self.k},{d}]]"


def _bits(matrix, label: str) -> np.ndarray:
    """The check matrix as 2-D uint8; a CodeError names the first row with
    an entry that is not an int or bool equal to 0 or 1."""
    arr = np.atleast_2d(np.asarray(matrix))
    if arr.dtype.kind not in "biu" or ((arr != 0) & (arr != 1)).any():
        # the entries as given, since one float or string upcasts them all
        rows = np.atleast_2d(np.asarray(matrix, dtype=object))
        for row, v in ((r, v) for r, vs in enumerate(rows) for v in vs):
            if not (isinstance(v, (int, np.integer, np.bool_)) and v in (0, 1)):
                raise CodeError(f"{label} row {row}: entry {v!r} is not an "
                                f"int 0 or 1")
    return arr.astype(np.uint8)


DataLayout = dict[int, Cell]


@dataclass
class CheckTask:
    """One parity-check row to be collected by one mobile ancilla."""

    ancilla: int
    basis: str  # "X" or "Z"
    targets: list[int]  # data-qubit indices, in visit order if ordered

    def __post_init__(self):
        if self.basis not in ("X", "Z"):
            raise CodeError(f"bad basis {self.basis!r}")
        if not self.targets:
            raise CodeError(f"ancilla {self.ancilla}: empty target list")
        if len(set(self.targets)) != len(self.targets):
            raise CodeError(f"ancilla {self.ancilla}: duplicate targets")


@dataclass
class LogicalOperators:
    """k symplectic pairs of logical X/Z representatives (rows, length n)."""

    x: np.ndarray
    z: np.ndarray


def default_layout(code: CssCode, layout: ChipLayout) -> DataLayout:
    """Row-major square placement: qubit i at (i mod side, i // side)."""
    if code.n == 0:
        raise CodeError(f"code {code.name} has no data qubits to place")
    side = math.isqrt(code.n)
    if side * side < code.n:
        side += 1
    if layout.width < side or layout.height < math.ceil(code.n / side):
        raise CodeError(
            f"layout {layout.width}x{layout.height} too small for side {side}")
    return {i: (i % side, i // side) for i in range(code.n)}


def compute_logicals(code: CssCode) -> LogicalOperators:
    """Symplectic logical basis via GF(2) elimination.

    Logical X representatives span ker(Hz) modulo rowspace(Hx); logical Z
    likewise with the roles swapped. The two sets are then paired so that
    x[i] . z[j] = delta_ij. Raises CodeError if either basis falls short of
    k rows or the paired sets fail that check.
    """
    n = code.n
    k = code.k
    if k == 0:
        empty = np.zeros((0, n), dtype=np.uint8)
        return LogicalOperators(x=empty, z=empty)

    def quotient_basis(kernel_of: np.ndarray, modulo: np.ndarray) -> np.ndarray:
        """Each nullspace row of `kernel_of` outside the span of `modulo` and
        the rows before it: the pivot columns of one elimination."""
        stack = np.vstack([modulo, gf2.nullspace(kernel_of)])
        _, pivots = gf2.rref(stack.T)
        return stack[[p for p in pivots if p >= modulo.shape[0]]]

    lx = quotient_basis(code.hz, code.hx)
    lz = quotient_basis(code.hx, code.hz)
    if lx.shape[0] != k or lz.shape[0] != k:
        raise CodeError("failed to extract a full logical basis")

    # pairing matrix M[i, j] = lx_i . lz_j; transform lz so M becomes identity
    m = gf2.matmul(lx, lz.T)
    lz = gf2.matmul(gf2.inverse(m).T, lz).astype(np.uint8)
    if not np.array_equal(gf2.matmul(lx, lz.T), np.eye(k, dtype=np.int64)):
        raise CodeError("logical X and Z operators do not pair up")
    return LogicalOperators(x=lx, z=lz)


def tasks_from_code(code: CssCode) -> list[CheckTask]:
    """The code's checks, and the only derivation of them: task a is row a
    of ``[Hx; Hz]`` (X rows first), collected by ancilla a, whose targets
    are ``code.orders[a]`` when the code is ordered and the row's support in
    increasing order otherwise."""
    n_x = code.hx.shape[0]
    rows = np.vstack([code.hx, code.hz])
    return [CheckTask(ancilla=a, basis="X" if a < n_x else "Z",
                      targets=(list(code.orders[a]) if code.ordered
                               else np.nonzero(row)[0].tolist()))
            for a, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# rotated surface code family [[d^2, 1, d]]


def surface_code(d: int) -> tuple[CssCode, DataLayout]:
    """Rotated surface code with the hook-avoiding CNOT visit order.

    Data qubit r*d + c sits at cell (c, r). Plaquettes live on the (d+1)^2
    corner grid; the checkerboard puts X half-plaquettes on the top/bottom
    boundary and Z half-plaquettes on the left/right boundary. X checks
    visit NW, NE, SW, SE ("Z" sweep) and Z checks NW, SW, NE, SE ("N"
    sweep), the standard ordering that keeps hook errors off the logicals.
    A distance that ``operator.index`` refuses, or that is even or below 3,
    raises CodeError.
    """
    try:
        d = operator.index(d)
    except TypeError:
        raise CodeError(
            f"surface code distance must be an int, got {d!r}") from None
    if d < 3 or d % 2 == 0:
        raise CodeError(f"surface code distance must be odd and >= 3, got {d}")
    n = d * d

    def qubit(r: int, c: int) -> int:
        return r * d + c

    # check rows and visit orders, keyed by whether the check is X-type
    rows: dict[bool, list[np.ndarray]] = {True: [], False: []}
    orders: dict[bool, list[list[int]]] = {True: [], False: []}
    for i in range(d + 1):       # row boundary index
        for j in range(d + 1):   # column boundary index
            cells = [(r, c)
                     for r in (i - 1, i) for c in (j - 1, j)
                     if 0 <= r < d and 0 <= c < d]
            if len(cells) not in (2, 4):
                continue  # corners of the corner grid
            is_x = (i + j) % 2 == 1
            if len(cells) == 2 and is_x != (i in (0, d)):
                continue  # X halves on the top/bottom, Z halves at the sides
            nw, ne = (i - 1, j - 1), (i - 1, j)
            sw, se = (i, j - 1), (i, j)
            sweep = (nw, ne, sw, se) if is_x else (nw, sw, ne, se)
            order = [qubit(r, c) for r, c in sweep if (r, c) in cells]
            row = np.zeros(n, dtype=np.uint8)
            row[order] = 1
            rows[is_x].append(row)
            orders[is_x].append(order)

    code = CssCode(hx=np.array(rows[True]), hz=np.array(rows[False]),
                   name=f"surface_d{d}", d_claimed=d,
                   orders=orders[True] + orders[False])
    layout = {qubit(r, c): (c, r) for r in range(d) for c in range(d)}
    return code, layout


# ---------------------------------------------------------------------------
# file IO


def load_css(path: str) -> CssCode:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    return parse_css(lines, name_hint=path)


def parse_css(lines: list[str], name_hint: str = "<string>") -> CssCode:
    content = [ln.strip() for ln in lines
               if ln.strip() and not ln.lstrip().startswith("#")]
    if not content:
        raise CodeError(f"{name_hint}: empty code file")
    header = content[0].split()
    if len(header) < 4:
        raise CodeError(f"{name_hint}: header must be 'n k d name'")
    try:
        n, k_claim = int(header[0]), int(header[1])
        d_claimed = None if header[2] in ("-", "?") else int(header[2])
    except ValueError as exc:
        raise CodeError(f"{name_hint}: bad header numbers: {exc}") from exc
    if n < 1:
        raise CodeError(f"{name_hint}: header needs n >= 1, got {n}")
    name = " ".join(header[3:])

    sections: dict[str, list[str]] = {}
    current: Optional[str] = None
    for line in content[1:]:
        if line.upper() in ("HX", "HZ", "LAYOUT", "ORDER"):
            current = line.upper()
            if current in sections:
                raise CodeError(f"{name_hint}: repeated {current} section")
            sections[current] = []
        elif current is None:
            raise CodeError(f"{name_hint}: data before any section header")
        else:
            sections[current].append(line)
    if "HX" not in sections or "HZ" not in sections:
        raise CodeError(f"{name_hint}: HX and HZ sections are required")

    def parse_ints(line: str, label: str) -> list[int]:
        try:
            return [int(t) for t in line.split()]
        except ValueError as exc:
            raise CodeError(f"{name_hint}: {label} entries must be integers: "
                            f"{exc}") from exc

    def parse_matrix(rows: list[str], label: str) -> np.ndarray:
        """The rows as an int array; CssCode checks that they are bits."""
        parsed = [parse_ints(line, label) for line in rows]
        for row in parsed:
            if len(row) != n:
                raise CodeError(f"{name_hint}: {label} row has {len(row)} "
                                f"entries, expected {n}")
        try:
            return np.array(parsed, dtype=int).reshape(len(parsed), n)
        except OverflowError as exc:  # an entry past int64, so no bit
            raise CodeError(f"{name_hint}: {label} entries must be 0 or 1: "
                            f"{exc}") from exc

    hx = parse_matrix(sections["HX"], "HX")
    hz = parse_matrix(sections["HZ"], "HZ")
    orders = None
    if "ORDER" in sections:
        orders = [parse_ints(line, "ORDER") for line in sections["ORDER"]]
    try:
        code = CssCode(hx=hx, hz=hz, name=name, d_claimed=d_claimed,
                       orders=orders)
    except CodeError as exc:
        raise CodeError(f"{name_hint}: {exc}") from exc
    if code.k != k_claim:
        raise CodeError(f"{name_hint}: header claims k={k_claim} "
                        f"but rank computation gives k={code.k}")

    if "LAYOUT" in sections:
        rows = sections["LAYOUT"]
        if len(rows) != n:
            raise CodeError(f"{name_hint}: LAYOUT needs one line per data qubit")
        coords = []
        for line in rows:
            if len(line.split()) != 2:
                raise CodeError(f"{name_hint}: LAYOUT lines are 'x y'")
            coords.append(tuple(parse_ints(line, "LAYOUT")))
        if len(set(coords)) != n:
            raise CodeError(f"{name_hint}: LAYOUT coordinates must be distinct")
        code.file_layout = {i: coords[i] for i in range(n)}
    return code


def layout_for(code: CssCode, chip: ChipLayout) -> DataLayout:
    """The code file's LAYOUT section when present, else the row-major rule."""
    explicit = code.file_layout
    if explicit is not None:
        for i, cell in explicit.items():
            if not chip.in_bounds(cell):
                raise CodeError(f"layout places qubit {i} at {cell}, "
                                f"outside {chip.width}x{chip.height}")
        return dict(explicit)
    return default_layout(code, chip)
