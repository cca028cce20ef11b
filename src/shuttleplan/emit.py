"""Lower a compiled schedule into a noise-annotated stabilizer circuit.

The output is the de-facto stabilizer-circuit text format (R/RX, H, CX,
M/MX, X_ERROR, Z_ERROR, DEPOLARIZE1/2, DETECTOR, OBSERVABLE_INCLUDE, TICK,
QUBIT_COORDS). Qubit indices are data qubits first, then one ancilla per
check task. Only noise and measurement instructions carry metadata. A noise
instruction's names the schedule event that produced it, so the scanned
fault sites and the noise model coincide exactly; an M or MX names the check
and round, or the data qubit, it reads, for `add_detectors`.

Every instruction enters a `StabCircuit` through one checked batch method,
`StabCircuit.extend`, and `append` is a batch of one. A batch is checked
as a whole before anything is added, each rule once over all of it rather
than once per instruction: integer targets (numpy integers become plain
ints, a float or a bool is refused), known names, even target counts for
the pair instructions, qubit targets in range, args (each distinct one
checked once: a noise channel takes a one-tuple of a probability in [0, 1],
OBSERVABLE_INCLUDE a one-tuple of an int >= 0, and a bool is neither), and
measurement records that index only the measurements before them.
`emit_memory_circuit` builds its instructions itself and checks them as one
batch, and `add_detectors` adds all its detectors and observables as one
more batch.

Noise placement follows the operation table: depolarizing after CX and H,
a state flip after initialization and before measurement (in the basis of
the operation), one phase-flip per displace, one phase-flip per shuttle
segment with the odd-parity composed probability, and idle bit/phase flips
1-exp(-dt/T1), 1-exp(-dt/T2) for every gap in a qubit's activity.
"""

from __future__ import annotations

import math
from itertools import product
from numbers import Integral, Real
from operator import index, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .chip import NoiseConfig
from .compiler import Schedule
from .css import CodeError, CssCode, LogicalOperators


class Instruction(NamedTuple):
    name: str
    targets: tuple[int, ...] = ()
    arg: Optional[tuple] = None  # probability, coordinates or observable index
    meta: Optional[dict] = None  # read-only: instructions may share one

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
# whose targets are measurement records, every known instruction (TICK has
# no targets), and the measurements
_QUBIT_OPS = frozenset({"H", "CX", "R", "RX", "M", "MX", "QUBIT_COORDS",
                        *NOISE_CHANNELS})
_PAIR_OPS = ("CX", "DEPOLARIZE2")
_RECORD_OPS = ("DETECTOR", "OBSERVABLE_INCLUDE")
_KNOWN_OPS = frozenset({*_QUBIT_OPS, *_RECORD_OPS, "TICK"})
_MEASURE_OPS = ("M", "MX")
# instructions whose arg is a one-tuple of a number other than a bool:
# (names, the number's type, its upper bound, what they take)
_NUMBER_ARGS = (
    (frozenset(NOISE_CHANNELS), Real, 1, "a probability in [0, 1]"),
    (frozenset({"OBSERVABLE_INCLUDE"}), Integral, math.inf, "an int >= 0"),
)


def _bad_number(arg, kind: type, high) -> bool:
    """Whether `arg` is not a one-tuple of a `kind` in [0, high]."""
    return not (type(arg) is tuple and len(arg) == 1
                and isinstance(arg[0], kind) and not isinstance(arg[0], bool)
                and 0 <= arg[0] <= high)


def _within(targets: Sequence[int], bound: int) -> bool:
    """Whether every target lies in [0, bound)."""
    return not targets or (0 <= min(targets) and max(targets) < bound)


class StabCircuit:
    """Ordered instruction list; a measurement's record index is its place
    among the M and MX targets in that order, and is stored nowhere else."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.instructions: list[Instruction] = []
        self.num_measurements = 0

    def append(self, name: str, targets: Iterable[int] = (),
               arg: Optional[tuple] = None, meta: Optional[dict] = None) -> None:
        """Add one instruction: ``extend`` of a batch of one."""
        self.extend((Instruction(name, targets, arg, meta),))

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Check a batch of instructions, each rule once over the whole
        batch, then add them all; the only way into ``instructions``.

        Targets other than a tuple of plain ints are converted with
        ``operator.index``, so numpy integers pass and a float raises
        TypeError; so does a bool, which ``index`` would take for 0 or 1.
        ValueError is raised for a name outside the instruction set, for a
        CX or DEPOLARIZE2 with an odd number of targets, for a gate, reset,
        measure, noise or QUBIT_COORDS target outside [0, num_qubits), for
        a noise channel whose arg is not a one-tuple of a probability in
        [0, 1], for an OBSERVABLE_INCLUDE whose arg is not a one-tuple of an
        int >= 0 (a bool is neither) and for a DETECTOR or
        OBSERVABLE_INCLUDE record outside the measurements made before it.
        A batch that raises adds nothing.
        """
        batch = list(instructions)
        if {type(i.targets) for i in batch} - {tuple}:
            batch = [i._replace(targets=tuple(i.targets)) for i in batch]
        kinds = {type(t) for i in batch for t in i.targets}
        if bool in kinds:
            bad = next(i for i in batch if bool in map(type, i.targets))
            raise TypeError(f"{bad.name} targets {bad.targets}: a bool is "
                            f"not a target")
        if kinds - {int}:
            batch = [i._replace(targets=tuple(map(index, i.targets)))
                     for i in batch]
        if {i.name for i in batch} - _KNOWN_OPS:
            bad = next(i for i in batch if i.name not in _KNOWN_OPS)
            raise ValueError(f"unknown instruction {bad.name!r}")
        odd = [i for i in batch if i.name in _PAIR_OPS and len(i.targets) % 2]
        if odd:
            raise ValueError(f"{odd[0].name} needs target pairs, got "
                             f"{odd[0].targets}")
        qubits = [t for i in batch if i.name in _QUBIT_OPS for t in i.targets]
        if not _within(qubits, self.num_qubits):
            bad = next(i for i in batch if i.name in _QUBIT_OPS
                       and not _within(i.targets, self.num_qubits))
            raise ValueError(f"{bad.name} targets {bad.targets} outside "
                             f"qubits 0..{self.num_qubits - 1}")
        for names, kind, high, want in _NUMBER_ARGS:
            try:  # each distinct arg once; an unhashable one is no number
                malformed = any(_bad_number(arg, kind, high) for arg
                                in {i.arg for i in batch if i.name in names})
            except TypeError:
                malformed = True
            if malformed:
                bad = next(i for i in batch if i.name in names
                           and _bad_number(i.arg, kind, high))
                raise ValueError(f"{bad.name} takes a one-tuple of {want}, "
                                 f"got {bad.arg!r}")
        measured = self.num_measurements
        for instr in batch:  # a record indexes only the measurements before it
            if instr.name in _MEASURE_OPS:
                measured += len(instr.targets)
            elif (instr.name in _RECORD_OPS
                  and not _within(instr.targets, measured)):
                raise ValueError(f"{instr.name} records {instr.targets} "
                                 f"outside the {measured} measurements so far")
        self.instructions += batch
        self.num_measurements = measured

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

    def to_text(self) -> str:
        lines: list[str] = []
        # each distinct (name, arg) and qubit target tuple formatted once;
        # extend made every target a plain int, so equal tuples print alike
        heads: dict[tuple, str] = {}
        qubits: dict[tuple[int, ...], str] = {}
        seen = 0
        for instr in self.instructions:
            name, targets, arg, _ = instr
            head = heads.get((name, arg))
            if head is None:
                head = heads[name, arg] = instr.head()
            if not targets:
                lines.append(head)
            elif name in _RECORD_OPS:
                lines.append(" ".join([head, *(f"rec[{t - seen}]"
                                               for t in targets)]))
            else:
                if name in _MEASURE_OPS:
                    seen += len(targets)
                text = qubits.get(targets)
                if text is None:
                    text = qubits[targets] = " ".join(map(str, targets))
                lines.append(f"{head} {text}")
        return "\n".join(lines) + "\n"


def compose_phase_flips(p: float, repeats: int) -> float:
    """Probability that an odd number of `repeats` flips of rate p occur."""
    return 0.5 * (1.0 - (1.0 - 2.0 * p) ** repeats)


def emit_memory_circuit(schedule: Schedule, code: CssCode,
                        logicals: LogicalOperators,
                        noise: NoiseConfig, basis: str) -> StabCircuit:
    """Memory experiment: transversal init, scheduled SE rounds, readout.

    Round r runs the schedule's stored round at its times plus
    r * round_makespan. Repeated facts are stored once per circuit: equal
    target tuples are one tuple object, and so are equal noise args, each
    a one-tuple of a float; the two are kept apart, since ``(1,) == (1.0,)``.
    The X_ERROR and Z_ERROR of one idle gap share one meta dict, so every
    instruction's meta is read-only.
    """
    basis = _memory_basis(basis)
    if logicals.x.shape[1] != code.n:
        raise CodeError("logical operators do not match the code length")

    n = code.n
    tasks = schedule.tasks
    circuit = StabCircuit(num_qubits=n + len(tasks))
    period = schedule.round_makespan
    makespan = schedule.makespan

    def anc(a: int) -> int:
        return n + a

    # (time, qubit key, instruction), sorted by time and qubit key; ties
    # keep insertion order
    emissions: list[tuple[int, int, Instruction]] = []
    # each distinct targets tuple and noise arg, stored once
    shared_targets: dict[tuple[int, ...], tuple[int, ...]] = {}
    shared_args: dict[tuple[float], tuple[float]] = {}

    def add(t: int, qkey: int, name: str, targets, arg=None, meta=None):
        targets = shared_targets.setdefault(targets, targets)
        emissions.append((t, qkey, Instruction(name, targets, arg, meta)))

    def add_noise(t, qkey, name, targets, p, meta):
        if p > 0.0:
            arg = (float(p),)
            add(t, qkey, name, targets, shared_args.setdefault(arg, arg), meta)

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

        # round by round, the stored round's events at their shifted times
        for rnd, ev in product(range(schedule.rounds), schedule.events[a]):
            t, end = ev.t + rnd * period, ev.end + rnd * period
            if ev.kind == "SHUTTLE":
                run_edges += 1
                run_end = end
                continue
            if ev.kind == "WAIT":
                idle = {"kind": "idle", "ancilla": a, "round": rnd}
                add_noise(end, q, "X_ERROR", (q,), noise.idle_px(ev.duration),
                          idle)
                add_noise(end, q, "Z_ERROR", (q,), noise.idle_pz(ev.duration),
                          idle)
                continue
            flush_shuttle(rnd)
            if ev.kind == "INIT":
                add(t, q, "R", (q,))
                add_noise(t, q, "X_ERROR", (q,), noise.p_init,
                          {"kind": "init", "ancilla": a, "round": rnd})
            elif ev.kind == "H":
                add(t, q, "H", (q,))
                add_noise(t, q, "DEPOLARIZE1", (q,), noise.p_h,
                          {"kind": "h", "ancilla": a, "round": rnd})
            elif ev.kind == "CX":
                data = ev.partner
                pair = (q, data) if task.basis == "X" else (data, q)
                add(t, q, "CX", pair)
                add_noise(t, q, "DEPOLARIZE2", pair, noise.p_cx,
                          {"kind": "cx", "ancilla": a, "round": rnd,
                           "data": data})
                cx_by_data[data].append((t, end))
            elif ev.kind == "DISPLACE":
                add_noise(end, q, "Z_ERROR", (q,), noise.p_displace,
                          {"kind": "displace", "ancilla": a, "round": rnd})
            elif ev.kind == "MEASURE":
                add_noise(t, q, "X_ERROR", (q,), noise.p_meas,
                          {"kind": "meas", "ancilla": a, "round": rnd})
                add(t, q, "M", (q,), meta={"kind": "anc_measure",
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
    circuit.extend([instr for _, _, instr in emissions])

    add_detectors(circuit, code, basis, logicals=logicals, schedule=schedule)
    return circuit


def _data_idle(add_noise, noise: NoiseConfig, qubit: int, start: int, end: int):
    dt = end - start
    idle = {"kind": "idle", "qubit": qubit}
    add_noise(end, qubit, "X_ERROR", (qubit,), noise.idle_px(dt), idle)
    add_noise(end, qubit, "Z_ERROR", (qubit,), noise.idle_pz(dt), idle)


def _memory_basis(basis) -> str:
    """The memory basis, X or Z, from a letter of either case; anything
    else raises CodeError."""
    if not (isinstance(basis, str) and basis.upper() in ("X", "Z")):
        raise CodeError(f"basis must be X or Z, got {basis!r}")
    return basis.upper()


def add_detectors(circuit: StabCircuit, code: CssCode, basis: str, *,
                  logicals: LogicalOperators,
                  schedule: Schedule) -> StabCircuit:
    """Standard memory-experiment detectors and logical observables.

    Round 0 gets detectors only for checks of the memory basis (the other
    type is random on the first round); later rounds compare consecutive
    measurements of every check; the final detectors compare the last check
    round against the transversal data readout.
    """
    basis = _memory_basis(basis)
    n_x = code.hx.shape[0]
    homes = schedule.homes  # detector coordinates: the check's home cell

    checks_by_round: dict[int, dict[int, int]] = {}
    data_m: dict[int, int] = {}
    measured = 0  # record index of the instruction's first measurement
    for instr in circuit.instructions:
        if instr.name not in _MEASURE_OPS:
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
    batch: list[Instruction] = []
    for rnd in rounds:
        row = checks_by_round[rnd]
        if len(row) != n_checks:
            raise CodeError(f"round {rnd}: {len(row)} of {n_checks} checks measured")
        for a in range(n_checks):
            if rnd == rounds[0]:
                if is_basis_check(a):
                    batch.append(Instruction("DETECTOR", (row[a],),
                                             (*homes[a], rnd)))
            else:
                prev = checks_by_round[rnd - 1][a]
                batch.append(Instruction("DETECTOR", (row[a], prev),
                                         (*homes[a], rnd)))

    if data_m:
        last = rounds[-1]
        for a in range(n_checks):
            if not is_basis_check(a):
                continue
            support = [data_m[int(i)] for i in np.nonzero(check_row(a))[0]]
            batch.append(Instruction(
                "DETECTOR", tuple([checks_by_round[last][a]] + support),
                (*homes[a], last + 1)))
        logical_rows = logicals.x if basis == "X" else logicals.z
        for obs, row in enumerate(logical_rows):
            recs = [data_m[int(i)] for i in np.nonzero(row)[0]]
            batch.append(Instruction("OBSERVABLE_INCLUDE", tuple(recs), (obs,)))
    circuit.extend(batch)
    return circuit
