"""Lower a compiled schedule into a noise-annotated stabilizer circuit.

The output is the de-facto stabilizer-circuit text format (R/RX, H, CX,
M/MX, X_ERROR, Z_ERROR, DEPOLARIZE1/2, DETECTOR, OBSERVABLE_INCLUDE, TICK,
QUBIT_COORDS). Qubit indices are data qubits first, then one ancilla per
check task. Only noise and measurement instructions carry metadata. A noise
instruction's names the schedule event that produced it, so the scanned
fault sites and the noise model coincide exactly; an M or MX names the check
and round, or the data qubit, it reads, for `add_detectors`.

Noise placement follows the operation table: depolarizing after CX and H,
a state flip after initialization and before measurement (in the basis of
the operation), one phase-flip per displace, one phase-flip per shuttle
segment with the odd-parity composed probability, and idle bit/phase flips
1-exp(-dt/T1), 1-exp(-dt/T2) for every gap in a qubit's activity.
"""

from __future__ import annotations

from operator import index, itemgetter
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .chip import NoiseConfig
from .compiler import Schedule
from .css import CodeError, CssCode, LogicalOperators


class Instruction(NamedTuple):
    name: str
    targets: tuple[int, ...] = ()
    arg: Optional[tuple] = None  # probability, coordinates or observable index
    meta: Optional[dict] = None

    def head(self) -> str:
        """The name, with the formatted arguments when there are any."""
        if self.arg is None:
            return self.name
        return f"{self.name}({', '.join(_fmt_num(a) for a in self.arg)})"


def _fmt_num(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


# noise channel -> the Paulis of its sites, in site order; a two-letter word
# acts on a target pair
NOISE_CHANNELS = {
    "X_ERROR": ("X",),
    "Z_ERROR": ("Z",),
    "DEPOLARIZE1": ("X", "Y", "Z"),
    "DEPOLARIZE2": tuple(a + b for a in "IXYZ" for b in "IXYZ")[1:],
}
# instructions whose targets are qubits, those taking qubit pairs, those
# whose targets are measurement records, and those with neither
_QUBIT_OPS = frozenset({"H", "CX", "R", "RX", "M", "MX", "QUBIT_COORDS",
                        *NOISE_CHANNELS})
_PAIR_OPS = ("CX", "DEPOLARIZE2")
_RECORD_OPS = ("DETECTOR", "OBSERVABLE_INCLUDE")
_OTHER_OPS = ("TICK",)


class StabCircuit:
    """Ordered instruction list; a measurement's record index is its place
    among the M and MX targets in that order, and is stored nowhere else."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.instructions: list[Instruction] = []
        self.num_measurements = 0

    def append(self, name: str, targets: Iterable[int] = (),
               arg: Optional[tuple] = None, meta: Optional[dict] = None) -> None:
        """Add one instruction; the only place an `Instruction` is built.

        Raises TypeError for a target that is not an integer, such as a
        float, and ValueError for a name outside the instruction set, for a
        CX or DEPOLARIZE2 with an odd number of targets, for a gate, reset,
        measure, noise or QUBIT_COORDS target outside [0, num_qubits) and
        for a DETECTOR or OBSERVABLE_INCLUDE record outside
        [0, num_measurements).
        """
        targets = tuple(map(index, targets))
        if name in _QUBIT_OPS:
            if name in _PAIR_OPS and len(targets) % 2:
                raise ValueError(f"{name} needs target pairs, got {targets}")
            if targets and not (0 <= min(targets)
                                and max(targets) < self.num_qubits):
                raise ValueError(f"{name} targets {targets} outside qubits "
                                 f"0..{self.num_qubits - 1}")
        elif name in _RECORD_OPS:
            if targets and not (0 <= min(targets)
                                and max(targets) < self.num_measurements):
                raise ValueError(f"{name} records {targets} outside the "
                                 f"{self.num_measurements} measurements so "
                                 f"far")
        elif name not in _OTHER_OPS:
            raise ValueError(f"unknown instruction {name!r}")
        if name in ("M", "MX"):
            self.num_measurements += len(targets)
        self.instructions.append(Instruction(name, targets, arg, meta))

    def detectors(self) -> list[tuple[tuple[int, ...], Optional[tuple]]]:
        return [(i.targets, i.arg) for i in self.instructions
                if i.name == "DETECTOR"]

    def observables(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for instr in self.instructions:
            if instr.name == "OBSERVABLE_INCLUDE":
                out.setdefault(int(instr.arg[0]), []).extend(instr.targets)
        return {k: tuple(v) for k, v in out.items()}

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for instr in self.instructions:
            tally[instr.name] = tally.get(instr.name, 0) + 1
        return tally

    def noise_sites(self, **query) -> list[int]:
        """Instruction indices of noise annotations matching the meta query."""
        out = []
        for idx, instr in enumerate(self.instructions):
            if instr.name not in NOISE_CHANNELS or instr.meta is None:
                continue
            if all(instr.meta.get(k) == v for k, v in query.items()):
                out.append(idx)
        return out

    def to_text(self) -> str:
        lines: list[str] = []
        heads: dict[tuple, str] = {}  # each distinct (name, arg) formatted once
        seen = 0
        for instr in self.instructions:
            name, targets, arg, _ = instr
            head = heads.get((name, arg))
            if head is None:
                head = heads[name, arg] = instr.head()
            if name in _RECORD_OPS:
                lines.append(" ".join([head, *(f"rec[{t - seen}]"
                                               for t in targets)]))
            else:
                if name in ("M", "MX"):
                    seen += len(targets)
                lines.append(" ".join([head, *map(str, targets)]))
        return "\n".join(lines) + "\n"


def compose_phase_flips(p: float, repeats: int) -> float:
    """Probability that an odd number of `repeats` flips of rate p occur."""
    return 0.5 * (1.0 - (1.0 - 2.0 * p) ** repeats)


def emit_memory_circuit(schedule: Schedule, code: CssCode,
                        logicals: LogicalOperators,
                        noise: NoiseConfig, basis: str) -> StabCircuit:
    """Memory experiment: transversal init, scheduled SE rounds, readout."""
    basis = basis.upper()
    if basis not in ("X", "Z"):
        raise CodeError(f"basis must be X or Z, got {basis!r}")
    if logicals.x.shape[1] != code.n:
        raise CodeError("logical operators do not match the code length")

    n = code.n
    tasks = schedule.tasks
    circuit = StabCircuit(num_qubits=n + len(tasks))
    period = schedule.round_makespan
    makespan = schedule.makespan

    def anc(a: int) -> int:
        return n + a

    # (time, qubit key, name, targets, arg, meta), sorted by time and qubit
    # key; ties keep insertion order
    emissions: list[tuple] = []

    def add(t: int, qkey: int, name: str, targets, arg=None, meta=None):
        emissions.append((t, qkey, name, targets, arg, meta))

    def add_noise(t, qkey, name, targets, p, meta):
        if p > 0.0:
            add(t, qkey, name, targets, arg=(float(p),), meta=meta)

    for i in range(n):
        x, y = schedule.data_cells[i]
        add(-2, i, "QUBIT_COORDS", (i,), arg=(x, y))
    for task in tasks:
        x, y = schedule.homes[task.ancilla]
        add(-2, anc(task.ancilla), "QUBIT_COORDS", (anc(task.ancilla),), arg=(x, y))

    # transversal data preparation, concurrent with the round-0 ancilla inits
    data_reset = "R" if basis == "Z" else "RX"
    flip_after_reset = "X_ERROR" if basis == "Z" else "Z_ERROR"
    for i in range(n):
        add(0, i, data_reset, (i,))
        add_noise(0, i, flip_after_reset, (i,), noise.p_init,
                  {"kind": "init", "qubit": i})

    cx_by_data: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}

    for task in tasks:
        a = task.ancilla
        q = anc(a)
        run_edges = 0
        run_end = 0

        def flush_shuttle(rnd: int):
            nonlocal run_edges, run_end
            if run_edges:
                p = compose_phase_flips(noise.p_shuttle, run_edges)
                add_noise(run_end, q, "Z_ERROR", (q,), p,
                          {"kind": "shuttle", "ancilla": a, "round": rnd,
                           "edges": run_edges})
            run_edges = 0

        for ev in schedule.events[a]:
            rnd = ev.t // period
            if ev.kind == "SHUTTLE":
                run_edges += 1
                run_end = ev.end
                continue
            if ev.kind == "WAIT":
                add_noise(ev.end, q, "X_ERROR", (q,), noise.idle_px(ev.duration),
                          {"kind": "idle", "ancilla": a, "round": rnd})
                add_noise(ev.end, q, "Z_ERROR", (q,), noise.idle_pz(ev.duration),
                          {"kind": "idle", "ancilla": a, "round": rnd})
                continue
            flush_shuttle(rnd)
            if ev.kind == "INIT":
                add(ev.t, q, "R", (q,))
                add_noise(ev.t, q, "X_ERROR", (q,), noise.p_init,
                          {"kind": "init", "ancilla": a, "round": rnd})
            elif ev.kind == "H":
                add(ev.t, q, "H", (q,))
                add_noise(ev.t, q, "DEPOLARIZE1", (q,), noise.p_h,
                          {"kind": "h", "ancilla": a, "round": rnd})
            elif ev.kind == "CX":
                data = ev.partner
                pair = (q, data) if task.basis == "X" else (data, q)
                add(ev.t, q, "CX", pair)
                add_noise(ev.t, q, "DEPOLARIZE2", pair, noise.p_cx,
                          {"kind": "cx", "ancilla": a, "round": rnd,
                           "data": data})
                cx_by_data[data].append((ev.t, ev.end))
            elif ev.kind == "DISPLACE":
                add_noise(ev.end, q, "Z_ERROR", (q,), noise.p_displace,
                          {"kind": "displace", "ancilla": a, "round": rnd})
            elif ev.kind == "MEASURE":
                add_noise(ev.t, q, "X_ERROR", (q,), noise.p_meas,
                          {"kind": "meas", "ancilla": a, "round": rnd})
                add(ev.t, q, "M", (q,), meta={"kind": "anc_measure",
                                              "check": a, "round": rnd})
            else:
                raise CodeError(f"unknown schedule event {ev.kind}")
        flush_shuttle(schedule.rounds - 1)

    # idle decoherence on data qubits between their operations
    for i in range(n):
        cursor = schedule.timing.t_init
        for start, end in sorted(cx_by_data[i]):
            if start > cursor:
                _data_idle(add_noise, noise, i, cursor, start)
            cursor = max(cursor, end)
        if makespan > cursor:
            _data_idle(add_noise, noise, i, cursor, makespan)

    # transversal data readout in the memory basis
    data_measure = "M" if basis == "Z" else "MX"
    flip_before_measure = "X_ERROR" if basis == "Z" else "Z_ERROR"
    for i in range(n):
        add_noise(makespan, i, flip_before_measure, (i,), noise.p_meas,
                  {"kind": "meas", "qubit": i})
        add(makespan, i, data_measure, (i,),
            meta={"kind": "data_measure", "data": i})

    for r in range(1, schedule.rounds + 1):
        add(r * period, -1, "TICK", ())

    # two stable sorts on int keys build no key tuples for the collector
    emissions.sort(key=itemgetter(1))
    emissions.sort(key=itemgetter(0))
    for _, _, name, targets, arg, meta in emissions:
        circuit.append(name, targets, arg, meta)

    add_detectors(circuit, code, basis, logicals=logicals, schedule=schedule)
    return circuit


def _data_idle(add_noise, noise: NoiseConfig, qubit: int, start: int, end: int):
    dt = end - start
    add_noise(end, qubit, "X_ERROR", (qubit,), noise.idle_px(dt),
              {"kind": "idle", "qubit": qubit})
    add_noise(end, qubit, "Z_ERROR", (qubit,), noise.idle_pz(dt),
              {"kind": "idle", "qubit": qubit})


def add_detectors(circuit: StabCircuit, code: CssCode, basis: str, *,
                  logicals: LogicalOperators,
                  schedule: Schedule) -> StabCircuit:
    """Standard memory-experiment detectors and logical observables.

    Round 0 gets detectors only for checks of the memory basis (the other
    type is random on the first round); later rounds compare consecutive
    measurements of every check; the final detectors compare the last check
    round against the transversal data readout.
    """
    basis = basis.upper()
    n_x = code.hx.shape[0]
    homes = schedule.homes  # detector coordinates: the check's home cell

    checks_by_round: dict[int, dict[int, int]] = {}
    data_m: dict[int, int] = {}
    measured = 0  # record index of the instruction's first measurement
    for instr in circuit.instructions:
        if instr.name not in ("M", "MX"):
            continue
        meta = instr.meta or {}
        if meta.get("kind") == "anc_measure":
            checks_by_round.setdefault(meta["round"], {})[meta["check"]] = \
                measured
        elif meta.get("kind") == "data_measure":
            data_m[meta["data"]] = measured
        measured += len(instr.targets)
    if not checks_by_round:
        raise CodeError("circuit has no check measurements")
    rounds = sorted(checks_by_round)

    def is_basis_check(a: int) -> bool:
        return (a < n_x) == (basis == "X")

    def check_row(a: int) -> np.ndarray:
        return code.hx[a] if a < n_x else code.hz[a - n_x]

    n_checks = n_x + code.hz.shape[0]
    for rnd in rounds:
        row = checks_by_round[rnd]
        if len(row) != n_checks:
            raise CodeError(f"round {rnd}: {len(row)} of {n_checks} checks measured")
        for a in range(n_checks):
            if rnd == rounds[0]:
                if is_basis_check(a):
                    circuit.append("DETECTOR", (row[a],), arg=(*homes[a], rnd))
            else:
                prev = checks_by_round[rnd - 1][a]
                circuit.append("DETECTOR", (row[a], prev), arg=(*homes[a], rnd))

    if data_m:
        last = rounds[-1]
        for a in range(n_checks):
            if not is_basis_check(a):
                continue
            support = [data_m[int(i)] for i in np.nonzero(check_row(a))[0]]
            circuit.append("DETECTOR",
                           tuple([checks_by_round[last][a]] + support),
                           arg=(*homes[a], last + 1))
        logical_rows = logicals.x if basis == "X" else logicals.z
        for obs, row in enumerate(logical_rows):
            recs = [data_m[int(i)] for i in np.nonzero(row)[0]]
            circuit.append("OBSERVABLE_INCLUDE", tuple(recs), arg=(obs,))
    return circuit
