"""Lower a compiled schedule into a noise-annotated stabilizer circuit.

The output is the de-facto stabilizer-circuit text format (R/RX, H, CX,
M/MX, X_ERROR, Z_ERROR, DEPOLARIZE1/2, DETECTOR, OBSERVABLE_INCLUDE, TICK,
QUBIT_COORDS). Qubit indices are data qubits first, then one ancilla per
check task: qubit q < n is data qubit q and qubit n + a the ancilla of check
a, so a measurement's qubit says what it reads. Only noise instructions
carry metadata, which names the schedule event that produced it (its kind,
ancilla or data qubit), so the scanned fault sites and the noise model
coincide exactly. The schedule's stored round is lowered once and repeated,
one TICK per round boundary, so the round of a noise site is the number of
TICKs before its instruction.

Every instruction enters a `StabCircuit` through one checked batch method,
`StabCircuit.extend`. A batch is checked as a whole before anything is
added, each rule once over all of it rather than once per instruction:
integer targets (numpy integers become plain ints, a float or a bool is
refused), known names, pairs of two distinct qubits for the pair
instructions, qubit targets in range, args (each distinct one
checked once: a noise channel takes a one-tuple of a probability in [0, 1],
OBSERVABLE_INCLUDE a one-tuple of an int >= 0, and a bool is neither; the
gates, resets, measurements and TICK take none), no targets on a TICK, and
measurement records that index only the measurements before them. A
batch may be added several times over for one check (``repeat``), as the
rounds of a memory experiment repeat. `emit_memory_circuit` builds its
instructions itself: round 0 is one checked batch, round 1 another, added
once for each of the identical rounds 1..R-1. `add_detectors`, the one
detector entry point for every circuit, adds all its detectors and
observables as one more batch.

A circuit stores each batch once, with its copy count, as a REPEAT block
of Stim's circuit format stores a repeated round; ``instructions`` is the
flattened view, built on each read. Every pass over a circuit works a
batch at a time and does a distinct batch's per-instruction work once
where the copies allow: `StabCircuit.to_text` formats a repeated batch
without records once, the fault-site index (`pauli.sites_from_noise`)
counts a batch's sites once, and the noiseless walk picks out a batch's
noise-free instructions once.

Noise placement follows the operation table: depolarizing after CX and H,
a state flip after initialization and before measurement (in the basis of
the operation), one phase-flip per displace, one phase-flip per shuttle
segment with the odd-parity composed probability, and idle bit/phase flips
1-exp(-dt/T1), 1-exp(-dt/T2) for every gap in a qubit's activity.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from operator import eq, index, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .chip import NoiseConfig
from .compiler import Schedule, join_lines
from .css import CodeError, CssCode, LogicalOperators, tasks_from_code


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
# instructions that take no arg; in the text format M(p) is a noisy
# measurement, whose faults the fault scan would not see
_NO_ARG_OPS = frozenset({"H", "CX", "R", "RX", "M", "MX", "TICK"})
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


def _bad_pairs(targets: tuple[int, ...]) -> bool:
    """Whether `targets` do not split into pairs of two distinct qubits."""
    return bool(len(targets) % 2) or any(map(eq, targets[::2], targets[1::2]))


def _within(targets: Sequence[int], bound: int) -> bool:
    """Whether every target lies in [0, bound)."""
    return not targets or (0 <= min(targets) and max(targets) < bound)


class StabCircuit:
    """An ordered instruction list, stored as its checked batches: each
    batch once, with the number of copies of it that follow one another
    (``batches``, in circuit order; an empty batch is not kept).
    ``instructions`` is the flattened view. A measurement's record index
    is its place among the M and MX targets in that order, and is stored
    nowhere else."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.batches: list[tuple[tuple[Instruction, ...], int]] = []
        self.num_measurements = 0

    @property
    def instructions(self) -> list[Instruction]:
        """Every instruction in circuit order, each batch as many times as
        it has copies; a new list on each read."""
        return [instr for batch, copies in self.batches
                for _ in range(copies) for instr in batch]

    def extend(self, instructions: Iterable[Instruction],
               repeat: int = 1) -> None:
        """Check a batch of instructions, each rule once over the whole
        batch, then add the batch with ``repeat`` copies; the only way into
        ``batches``. Nothing is copied. One check covers every copy: a
        record in range in the first copy is in range in the later ones,
        which follow more measurements.

        Targets other than a tuple of plain ints are converted with
        ``operator.index``, so numpy integers pass and a float raises
        TypeError; so does a bool, which ``index`` would take for 0 or 1.
        ValueError is raised for a name outside the instruction set, for a
        CX or DEPOLARIZE2 with an odd number of targets or a pair of equal
        targets, for a gate, reset, measure, noise or QUBIT_COORDS target
        outside [0, num_qubits), for a noise channel whose arg is not a
        one-tuple of a probability in [0, 1], for an OBSERVABLE_INCLUDE
        whose arg is not a one-tuple of an int >= 0 (a bool is neither),
        for a DETECTOR or OBSERVABLE_INCLUDE record outside the
        measurements made before it, for an arg on an H, CX, R, RX, M, MX
        or TICK, for a TICK with targets, and for a ``repeat`` that is not
        an int >= 1 (a bool is not). A batch that raises adds nothing.
        """
        if type(repeat) is not int or repeat < 1:
            raise ValueError(f"repeat must be an int >= 1, got {repeat!r}")
        batch = tuple(instructions)
        if {type(i.targets) for i in batch} - {tuple}:
            batch = tuple(i._replace(targets=tuple(i.targets)) for i in batch)
        kinds = {type(t) for i in batch for t in i.targets}
        if bool in kinds:
            bad = next(i for i in batch if bool in map(type, i.targets))
            raise TypeError(f"{bad.name} targets {bad.targets}: a bool is "
                            f"not a target")
        if kinds - {int}:
            batch = tuple(i._replace(targets=tuple(map(index, i.targets)))
                          for i in batch)
        if {i.name for i in batch} - _KNOWN_OPS:
            bad = next(i for i in batch if i.name not in _KNOWN_OPS)
            raise ValueError(f"unknown instruction {bad.name!r}")
        if {i.name for i in batch if i.arg is not None} & _NO_ARG_OPS:
            bad = next(i for i in batch
                       if i.name in _NO_ARG_OPS and i.arg is not None)
            raise ValueError(f"{bad.name} takes no arg, got {bad.arg!r}")
        if any(i.targets for i in batch if i.name == "TICK"):
            bad = next(i for i in batch if i.name == "TICK" and i.targets)
            raise ValueError(f"TICK takes no targets, got {bad.targets}")
        # each distinct target tuple once
        if any(map(_bad_pairs, {i.targets for i in batch
                                if i.name in _PAIR_OPS})):
            bad = next(i for i in batch if i.name in _PAIR_OPS
                       and _bad_pairs(i.targets))
            raise ValueError(f"{bad.name} needs target pairs of two distinct "
                             f"qubits, got {bad.targets}")
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
        if batch:
            self.batches.append((batch, repeat))
        self.num_measurements += (measured - self.num_measurements) * repeat

    def observables(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for batch, copies in self.batches:
            included = [(int(i.arg[0]), i.targets) for i in batch
                        if i.name == "OBSERVABLE_INCLUDE"]
            for _ in range(copies):
                for obs, targets in included:
                    out.setdefault(obs, []).extend(targets)
        return {k: tuple(v) for k, v in out.items()}

    def to_text(self) -> str:
        """The circuit in the text format, joined from one text per batch.
        A batch without DETECTOR or OBSERVABLE_INCLUDE prints alike in
        every copy, so its text is made once and joined ``copies`` times; a
        batch with them is printed per copy, as its relative ``rec[-k]``
        offsets differ."""
        def texts() -> Iterator[str]:
            # a generator, so that its caches are freed before the texts
            # are joined. Each distinct (name, arg) and qubit target tuple
            # is formatted once; extend made every target a plain int, so
            # equal tuples print alike
            heads: dict[tuple, str] = {}
            qubits: dict[tuple[int, ...], str] = {}
            seen = 0  # measurements before the line

            def lines(batch) -> Iterator[str]:
                """One copy's lines."""
                nonlocal seen
                for instr in batch:
                    name, targets, arg, _ = instr
                    head = heads.get((name, arg))
                    if head is None:
                        head = heads[name, arg] = instr.head()
                    if not targets:
                        yield head
                    elif name in _RECORD_OPS:
                        yield " ".join([head, *(f"rec[{t - seen}]"
                                                for t in targets)])
                    else:
                        if name in _MEASURE_OPS:
                            seen += len(targets)
                        text = qubits.get(targets)
                        if text is None:
                            text = qubits[targets] = " ".join(map(str,
                                                                  targets))
                        yield f"{head} {text}"

            for batch, copies in self.batches:
                if copies > 1 and all(i.name not in _RECORD_OPS
                                      for i in batch):
                    before = seen
                    yield from [join_lines(lines(batch))] * copies
                    # the later copies measure as many as the first
                    seen += (seen - before) * (copies - 1)
                else:
                    for _ in range(copies):
                        yield join_lines(lines(batch))

        return "".join(texts()) or "\n"


def compose_phase_flips(p: float, repeats: int) -> float:
    """Probability that an odd number of `repeats` flips of rate p occur."""
    return 0.5 * (1.0 - (1.0 - 2.0 * p) ** repeats)


def emit_memory_circuit(schedule: Schedule, code: CssCode,
                        logicals: LogicalOperators,
                        noise: NoiseConfig, basis: str) -> StabCircuit:
    """Memory experiment: transversal init, scheduled SE rounds, readout.

    Each ancilla's stored round is lowered once, and round r places the
    same instruction objects at their times plus r * round_makespan, just
    after TICK r (r >= 1). A site's round is the number of TICKs before it:
    a data idle gap's is the round it ends in, and the data readout's is
    ``rounds``. The lowered round must lie in [0, round_makespan), as the
    stored events of a valid schedule do; CodeError is raised otherwise.

    The circuit is emitted a round at a time, and a repeated round is one
    checked batch. Round r's rows, the lowered round, its data idle gaps
    and TICK r, are timed from the round's start, sorted by time and qubit
    (ties keep the order they were made in) and checked as one batch.
    Round 0's batch opens with the qubit coordinates and the data
    preparation instead of a TICK. A round's rows depend on nothing but
    when each data qubit last ended a CX, timed from the round's start, and
    a round that leaves those times as it found them is followed by copies
    of itself. In a valid schedule every data qubit's CXs end after its
    preparation, so round 1 is that round: rounds 1..R-1 are identical,
    and round 1 is built, sorted and checked once and added R-1 times. The
    final data idle gaps and the readout make one more batch. No list
    spanning all rounds is built. `add_detectors` adds the detectors and
    observables.

    An ancilla's instructions are shared across rounds, and the X_ERROR and
    Z_ERROR of one idle gap share one meta dict; a data qubit's idle gaps
    share one meta. Every meta is read-only.
    """
    basis = _memory_basis(basis)
    _check_schedule_fits(schedule, code)

    n = code.n
    circuit = StabCircuit(num_qubits=n + len(schedule.tasks))
    period, makespan = schedule.round_makespan, schedule.makespan

    # rows are (time, qubit key, instruction); the TICKs' key is -1
    def add(rows, t: int, qkey: int, name: str, targets, arg=None, meta=None):
        rows.append((t, qkey, Instruction(name, targets, arg, meta)))

    def add_noise(rows, t, qkey, name, targets, p, meta):
        if p > 0.0:
            add(rows, t, qkey, name, targets, (float(p),), meta)

    def add_idle(rows, t, q, dt, meta):  # one meta for the pair
        add_noise(rows, t, q, "X_ERROR", (q,), noise.idle_px(dt), meta)
        add_noise(rows, t, q, "Z_ERROR", (q,), noise.idle_pz(dt), meta)

    # one meta per data qubit, for all its idle gaps
    idle_meta = [{"kind": "idle", "qubit": i} for i in range(n)]

    def put(rows, copies=1):
        """Add the rows, by time and qubit key, as one batch, copies times."""
        # two stable sorts on int keys build no key tuples for the collector
        rows.sort(key=itemgetter(1))
        rows.sort(key=itemgetter(0))
        circuit.extend([instr for _, _, instr in rows], copies)

    # the stored round, lowered once and sorted; (start, end) of each data
    # qubit's CXs
    lowered = []
    cx_by_data: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for task in schedule.tasks:
        a, q = task.ancilla, n + task.ancilla
        # the shuttles since the last event but a SHUTTLE or WAIT make one
        # run, one composed Z_ERROR at the end of its last shuttle
        run = []
        for ev in [*schedule.events[a], None]:  # None closes the last run
            kind = None if ev is None else ev.kind
            if kind == "SHUTTLE":
                run.append(ev)
                continue
            if kind == "WAIT":
                add_idle(lowered, ev.end, q, ev.duration,
                         {"kind": "idle", "ancilla": a})
                continue
            if run:
                add_noise(lowered, run[-1].end, q, "Z_ERROR", (q,),
                          compose_phase_flips(noise.p_shuttle, len(run)),
                          {"kind": "shuttle", "ancilla": a, "edges": len(run)})
                run = []
            if kind is None:
                break
            t = ev.t
            if kind == "INIT":
                add(lowered, t, q, "R", (q,))
                add_noise(lowered, t, q, "X_ERROR", (q,), noise.p_init,
                          {"kind": "init", "ancilla": a})
            elif kind == "H":
                add(lowered, t, q, "H", (q,))
                add_noise(lowered, t, q, "DEPOLARIZE1", (q,), noise.p_h,
                          {"kind": "h", "ancilla": a})
            elif kind == "CX":
                data = ev.partner
                pair = (q, data) if task.basis == "X" else (data, q)
                add(lowered, t, q, "CX", pair)
                add_noise(lowered, t, q, "DEPOLARIZE2", pair, noise.p_cx,
                          {"kind": "cx", "ancilla": a, "data": data})
                cx_by_data[data].append((t, ev.end))
            elif kind == "DISPLACE":
                add_noise(lowered, ev.end, q, "Z_ERROR", (q,),
                          noise.p_displace, {"kind": "displace", "ancilla": a})
            elif kind == "MEASURE":
                add_noise(lowered, t, q, "X_ERROR", (q,), noise.p_meas,
                          {"kind": "meas", "ancilla": a})
                add(lowered, t, q, "M", (q,))
            else:
                raise CodeError(f"unknown schedule event {kind}")
    lowered.sort(key=itemgetter(1))
    lowered.sort(key=itemgetter(0))
    if lowered and not (0 <= lowered[0][0] and lowered[-1][0] < period):
        raise CodeError(f"the lowered round spans [{lowered[0][0]}, "
                        f"{lowered[-1][0]}], outside the round [0, {period})")
    spans = {i: sorted(cx_by_data[i]) for i in range(n)}

    # round 0 starts with the qubit coordinates and the transversal data
    # preparation
    rows = []
    for i in range(n):
        add(rows, -2, i, "QUBIT_COORDS", (i,), arg=schedule.data_cells[i])
    for task in schedule.tasks:
        q = n + task.ancilla
        add(rows, -2, q, "QUBIT_COORDS", (q,),
            arg=schedule.homes[task.ancilla])
    data_reset = "R" if basis == "Z" else "RX"
    flip_after_reset = "X_ERROR" if basis == "Z" else "Z_ERROR"
    for i in range(n):
        add(rows, 0, i, data_reset, (i,))
        add_noise(rows, 0, i, flip_after_reset, (i,), noise.p_init,
                  {"kind": "init", "qubit": i})
    # idle decoherence on data qubits between their CXs and the readout.
    # Rows are timed from the start of their round, and cursor[i] is when
    # data qubit i, one with CXs, last ended a CX, timed from the start of
    # the next round; a qubit without CXs idles from its preparation to
    # the readout
    t_init = schedule.timing.t_init
    cursor = {i: t_init for i in range(n) if spans[i]}
    r = 0
    while r < schedule.rounds:
        if r:
            add(rows, 0, -1, "TICK", ())
        rows += lowered
        entry = dict(cursor)
        for i, last in entry.items():
            for start, end in spans[i]:
                if start > last:
                    add_idle(rows, start, i, start - last, idle_meta[i])
                last = max(last, end)
            cursor[i] = last - period
        # a later round that starts as this one did makes the same rows, and
        # so does every round after it
        copies = schedule.rounds - r if r and cursor == entry else 1
        put(rows, copies)
        rows = []
        r += copies

    # the last gaps, then the transversal data readout in the memory basis
    add(rows, makespan, -1, "TICK", ())
    for i in range(n):
        last = cursor.get(i, t_init - makespan)
        if last < 0:
            add_idle(rows, makespan, i, -last, idle_meta[i])
    data_measure = "M" if basis == "Z" else "MX"
    flip_before_measure = "X_ERROR" if basis == "Z" else "Z_ERROR"
    for i in range(n):
        add_noise(rows, makespan, i, flip_before_measure, (i,), noise.p_meas,
                  {"kind": "meas", "qubit": i})
        add(rows, makespan, i, data_measure, (i,))
    put(rows)
    return add_detectors(circuit, code, basis, logicals=logicals,
                         schedule=schedule)


def _memory_basis(basis) -> str:
    """The memory basis, X or Z, from a letter of either case; anything
    else raises CodeError."""
    if not (isinstance(basis, str) and basis.upper() in ("X", "Z")):
        raise CodeError(f"basis must be X or Z, got {basis!r}")
    return basis.upper()


def _check_schedule_fits(schedule: Schedule, code: CssCode) -> None:
    """Raise CodeError unless the schedule was compiled for the code: data
    qubits 0..n-1, and ``schedule.tasks`` the checks ``tasks_from_code``
    makes of the code, each with its ancilla, basis and support. Qubit
    n + a is then the ancilla of check a, and the emitter reads every check
    from ``schedule.tasks``."""
    checks = tasks_from_code(code)
    if (sorted(schedule.data_cells) != list(range(code.n))
            or len(schedule.tasks) != len(checks)):
        raise CodeError(f"schedule has {len(schedule.data_cells)} data qubits "
                        f"and {len(schedule.tasks)} checks, code {code.name} "
                        f"{code.n} and {len(checks)}")
    for task, check in zip(schedule.tasks, checks):
        have = (task.ancilla, task.basis, sorted(task.targets))
        want = (check.ancilla, check.basis, sorted(check.targets))
        if have != want:
            raise CodeError(f"schedule check (ancilla, basis, support) {have} "
                            f"!= {want} in code {code.name}")


def add_detectors(circuit: StabCircuit, code: CssCode, basis: str, *,
                  logicals: LogicalOperators,
                  schedule: Schedule) -> StabCircuit:
    """Standard memory-experiment detectors and logical observables.

    A measurement of qubit q < n reads data qubit q, one of qubit n + a
    check a, and its round is its place among check a's measurements; every
    check must be measured in every round. Each check's basis and support
    are read from ``schedule.tasks``, which must be the code's checks.
    Round 0 gets detectors only for checks of the memory basis (the other
    type is random on the first round); later rounds compare consecutive
    measurements of every check; the final detectors compare the last
    check round against the transversal data readout. ``logicals.x`` and
    ``logicals.z`` must both be (k, n) with one k, else CodeError.
    """
    basis = _memory_basis(basis)
    _check_schedule_fits(schedule, code)
    shapes = (np.shape(logicals.x), np.shape(logicals.z))
    if any(len(shape) != 2 or shape[1] != code.n for shape in shapes):
        raise CodeError("logical operators do not match the code length")
    if shapes[0][0] != shapes[1][0]:
        raise CodeError(f"logical operators have {shapes[0][0]} X rows and "
                        f"{shapes[1][0]} Z rows")
    n, tasks = code.n, schedule.tasks
    n_checks = len(tasks)
    homes = schedule.homes  # detector coordinates: the check's home cell

    # check a's record indices, in round order
    by_check: dict[int, list[int]] = {}
    data_m: dict[int, int] = {}
    measured = 0  # record index of the copy's first measurement
    for batch, copies in circuit.batches:
        qubits = [q for i in batch if i.name in _MEASURE_OPS
                  for q in i.targets]
        for _ in range(copies):
            for rec, q in enumerate(qubits, measured):
                if q < n:
                    data_m[q] = rec
                else:
                    by_check.setdefault(q - n, []).append(rec)
            measured += len(qubits)
    if not by_check:
        raise CodeError("circuit has no check measurements")
    rounds = max(map(len, by_check.values()))
    for rnd in range(rounds):
        row = [a for a, recs in by_check.items() if len(recs) > rnd]
        if sorted(row) != list(range(n_checks)):
            raise CodeError(f"round {rnd}: {len(row)} of {n_checks} checks "
                            f"measured")

    basis_checks = [task.ancilla for task in tasks if task.basis == basis]
    batch = [Instruction("DETECTOR", (by_check[a][0],), (*homes[a], 0))
             for a in basis_checks]
    for rnd in range(1, rounds):
        for a in range(n_checks):
            recs = by_check[a]
            batch.append(Instruction("DETECTOR", (recs[rnd], recs[rnd - 1]),
                                     (*homes[a], rnd)))

    if data_m:
        for a in basis_checks:
            support = [data_m[i] for i in sorted(tasks[a].targets)]
            batch.append(Instruction(
                "DETECTOR", tuple([by_check[a][-1]] + support),
                (*homes[a], rounds)))
        logical_rows = logicals.x if basis == "X" else logicals.z
        for obs, row in enumerate(logical_rows):
            recs = [data_m[int(i)] for i in np.nonzero(row)[0]]
            batch.append(Instruction("OBSERVABLE_INCLUDE", tuple(recs), (obs,)))
    circuit.extend(batch)
    return circuit
