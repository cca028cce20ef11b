"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace \
        [--dump SPANS.jsonl.gz]

``setup`` only imports the package and prepares the codes; ``run`` also
runs every job of the workload; ``trace`` does the same under the tracer
and adds per-layer numbers. The result is one JSON object on stdout.

A job compiles one code into a schedule, replicates it, emits the memory
circuit and checks all of it: the schedule validator, noiseless
determinism of every detector and observable, the observable count, and,
for jobs with a fault audit, that no single fault flips an observable
without flipping a detector. A job that raises or fails a check is failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("bb144-compile", "surface-memory", "bb72-memory")
NOISE_NAMES = ("X_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2")


@dataclass(frozen=True)
class Job:
    code: str        # "surface_d<d>" or a code file under codes/
    grid: tuple      # chip for the default layout; () for the surface code
    rounds: int
    basis: str
    order: str
    seed: int
    audit: bool      # run the single-fault audit


def workload_jobs(name: str, seed: int) -> list[Job]:
    """The jobs of a workload. Only bb72-memory depends on the seed."""
    if name == "bb144-compile":
        return [Job("bb_144_12_12", (12, 12), 1, "Z", "longest", 0, False)]
    if name == "surface-memory":
        return [Job(f"surface_d{d}", (), d, basis, "longest", 0, True)
                for d in (3, 5, 7) for basis in ("Z", "X")]
    if name == "bb72-memory":
        return [Job("bb_72_12_6", (9, 8), 6, "Z", "random", seed, True)]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def import_package():
    """Import the package modules the benchmark drives."""
    from shuttleplan import (chip, compiler, css, emit, intervals, metrics,
                             pauli, tsp)
    return SimpleNamespace(chip=chip, compiler=compiler, css=css, emit=emit,
                           intervals=intervals, metrics=metrics, pauli=pauli,
                           tsp=tsp)


def header_k(path: Path) -> int:
    """k as the code file's header line states it."""
    with open(path) as fh:
        for line in fh:
            if line.strip() and not line.lstrip().startswith("#"):
                return int(line.split()[1])
    raise ValueError(f"{path}: no header line")


def prepare(sp, jobs: list[Job]) -> dict:
    """Load or build each distinct code, its layout and its logicals."""
    out = {}
    for job in jobs:
        if job.code in out:
            continue
        if job.code.startswith("surface_d"):
            code, layout = sp.css.surface_code(int(job.code[len("surface_d"):]))
            k = 1
        else:
            path = REPO / "codes" / f"{job.code}.code"
            code = sp.css.load_css(str(path))
            layout = sp.css.default_layout(code, sp.chip.build_grid(*job.grid))
            k = header_k(path)
        out[job.code] = (code, layout, sp.css.compute_logicals(code), k)
    return out


def run_job(sp, prepared: dict, job: Job, corrupt=None) -> dict:
    """Compile, emit and check one job; ``corrupt`` may alter the schedule."""
    code, layout, logicals, k = prepared[job.code]
    times: dict[str, list[float]] = {}
    errors: list[str] = []
    row: dict = asdict(job)

    def timed(stage, fn, *args, **kwargs):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            acc = times.setdefault(stage, [0.0, 0.0])
            acc[0] += time.perf_counter() - w0
            acc[1] += time.process_time() - c0

    try:
        one = timed("compile", sp.compiler.schedule_round, code, layout,
                    sp.chip.TimingConfig(), order_policy=job.order,
                    seed=job.seed)
        sched = timed("replicate", sp.compiler.replicate_rounds, one,
                      job.rounds)
        if corrupt is not None:
            sched = corrupt(sched)
        report = timed("validate", sp.compiler.validate_schedule, sched)
        if not report.ok:
            errors.append(f"validate: {len(report.violations)} violations, "
                          f"first: {report.violations[0]}")
        schedule_text = timed("schedule_text", sched.to_text)
        circuit = timed("emit", sp.emit.emit_memory_circuit, sched, code,
                        logicals, sp.chip.NoiseConfig(), job.basis)
        circuit_text = timed("circuit_text", circuit.to_text)
        noiseless = timed("tableau", sp.pauli.simulate_noiseless, circuit)
        if not noiseless.all_detectors_deterministic_zero:
            errors.append("tableau: a detector is random or nonzero")
        if not noiseless.all_observables_deterministic:
            errors.append("tableau: an observable is random")
        if len(circuit.observables()) != k:
            errors.append(f"observables: {len(circuit.observables())} != k={k}")
        row["fault_sites"] = row["frame_bytes"] = row["undetected_logical"] = 0
        if job.audit:
            sites, undetected = timed("audit", fault_audit, sp, circuit)
            row["fault_sites"] = len(sites)
            row["frame_bytes"] = len(sites) * (2 * circuit.num_qubits
                                               + circuit.num_measurements)
            row["undetected_logical"] = undetected
            if undetected:
                errors.append(f"audit: {undetected} fault sites flip an "
                              f"observable and no detector")
        stats = timed("stats", lambda: sp.metrics.shuttle_stats(
            sched, sp.metrics.ideal_for_schedule(sched)))
        row.update(
            schedule_sha256=timed("fingerprint", _sha256, schedule_text),
            circuit_sha256=timed("fingerprint", _sha256, circuit_text),
            round_makespan_ns=one.round_makespan,
            mean_shuttles=stats.mean,
            overhead=stats.overhead,
            instructions=len(circuit.instructions),
            noise_instructions=sum(1 for i in circuit.instructions
                                   if i.name in NOISE_NAMES),
            circuit_bytes=len(circuit_text.encode()),
            events=sum(len(evs) for evs in sched.events.values()),
            wait_ns=sum(ev.duration for evs in one.events.values()
                        for ev in evs if ev.kind == "WAIT"),
            parked_away=sum(
                1 for a, evs in one.events.items()
                if evs[-1].comp != sp.chip.readout_id(one.homes[a])),
            x_checks=code.hx.shape[0],
        )
    except Exception:  # a raising job is a failed operation, not a crash
        errors.append(traceback.format_exc(limit=3))
    row["times"] = times
    row["errors"] = errors
    row["ok"] = not errors
    return row


def fault_audit(sp, circuit) -> tuple[list, int]:
    """Scan every single fault; count those flipping only an observable."""
    sites = sp.pauli.sites_from_noise(circuit)
    scan = sp.pauli.fault_scan(circuit, sites)
    detected = scan.detector_flips(circuit).any(axis=1)
    flips_logical = scan.observable_flips(circuit).any(axis=1)
    return sites, int((flips_logical & ~detected).sum())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def execute(jobs: list[Job], mode: str, dump=None, corrupt=None) -> dict:
    """Set up, then (unless mode is "setup") run every job once."""
    w0, c0 = time.perf_counter(), time.process_time()
    sp = import_package()
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(sp)
    try:
        prepared = prepare(sp, jobs)
        import numpy
        out = {"setup": [time.perf_counter() - w0, time.process_time() - c0],
               "python": sys.version.split()[0], "numpy": numpy.__version__}
        if mode == "setup":
            return out
        first_ns = time.perf_counter_ns()
        w1, c1 = time.perf_counter(), time.process_time()
        rows = [run_job(sp, prepared, job, corrupt) for job in jobs]
        out["total"] = [time.perf_counter() - w1, time.process_time() - c1]
        last_ns = time.perf_counter_ns()
    finally:
        if tracer is not None:
            tracer.restore()
    out["jobs"] = rows
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = trace_summary(tracer, rows, first_ns, last_ns)
        if dump is not None:
            tracer.dump(dump)
    return out


def trace_summary(tracer, rows: list[dict], first_ns: int, last_ns: int) -> dict:
    """Per-span and per-layer times, plus the split of plan_route by basis."""
    table = tracer.span_table()
    layers: dict[str, dict[str, float]] = {}
    for name, stat in table.items():
        layer = layers.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
        layer["calls"] += stat["calls"]
        layer["self_s"] += stat["self_s"]
    phase = {"X": 0.0, "Z": 0.0}
    # schedule_round plans every X check before any Z check
    for span, row in zip(tracer.spans_of("compiler.schedule_round"), rows):
        for i, child in enumerate(tracer.children_of(span, "planner.plan_route")):
            basis = "X" if i < row.get("x_checks", 0) else "Z"
            phase[basis] += (tracer.ends[child] - tracer.starts[child]) / 1e9
    total_s = (last_ns - first_ns) / 1e9
    calls = len(tracer.names)
    call_cost_ns = tracer.call_cost_ns()
    return {
        "spans": table, "layers": layers, "plan_route_s": phase,
        "safe_interval_items": tracer.safe_interval_items,
        "total_s": total_s,
        "uncovered_s": total_s - tracer.covered_s(first_ns, last_ns),
        "call_cost_ns": call_cost_ns,
        "overhead_est_s": call_cost_ns * calls / 1e9,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--dump", help="write the trace spans to this .jsonl.gz")
    args = ap.parse_args(argv)
    result = execute(workload_jobs(args.workload, args.seed), args.mode,
                     dump=args.dump)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
