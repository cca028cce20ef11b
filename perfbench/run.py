"""Benchmark harness for shuttleplan: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` measures the three workloads one after another.

Run from the root of a checkout. Every repetition runs in a fresh
single-threaded child process (worker.py), one at a time, until the next
one would end after ``--seconds``; at least two repetitions run (one
plain and one traced with ``--trace 1``) unless the second would end more
than a few seconds late. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics, each a median over the
repetitions; with ``--trace 1`` it holds the per-layer metrics of the
traced repetitions. Full results, per-job fingerprints, the trace report
and the span dumps go to perfbench/out/.

The exit code is 0 on a finished run (check "correct" and "failed" in the
result) and 2, with no result printed, when the checkout holds no
shuttleplan sources or a child process crashed outside a job.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS, workload_jobs

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
MIN_REPETITIONS = 2
GRACE_S = 6            # how far past --seconds a repetition may end to reach
                       # the minimum; bounds a run on a slow host
CHILD_DEADLINE_S = 170 # kill a child still running this long into the run
HASH_SEED = "0"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

# stages of worker.run_job that make up the time to a verdict
VERIFY_STAGES = ("validate", "tableau", "audit")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(REPO / "src")
    # every child compiles the package from source and writes no bytecode,
    # so set-up costs the same in every run and nothing lands outside out/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload: str, seed: int, mode: str, timeout: float,
          dump=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if dump is not None:
        cmd += ["--dump", str(dump)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=REPO, text=True,
                              capture_output=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} child still running after "
                           f"{CHILD_DEADLINE_S} s into the run") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{mode} child exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def stage_sum(child: dict, stages, which: int = 0) -> float:
    """Wall (which=0) or CPU (which=1) seconds of the stages, over all jobs."""
    return sum(job["times"].get(s, (0.0, 0.0))[which]
               for job in child["jobs"] for s in stages)


# -- end-to-end metrics ------------------------------------------------------

def end_to_end_samples(children: list[dict], setups: list[float]) -> dict:
    """Per-repetition samples of every timed end-to-end metric, wall and CPU."""
    out = {"setup_s": (setups, None)}
    for name, stages in (("compile_s", ("compile",)),
                         ("verify_s", VERIFY_STAGES)):
        out[name] = ([stage_sum(c, stages) for c in children],
                     [stage_sum(c, stages, 1) for c in children])
    out["total_s"] = ([c["total"][0] for c in children],
                      [c["total"][1] for c in children])
    out["peak_rss_mb"] = ([c["peak_rss_mb"] for c in children], None)
    return out


def schedule_quality(jobs: list[dict]) -> dict:
    """The deterministic output metrics of one repetition's finished jobs."""
    jobs = [j for j in jobs if "overhead" in j]
    if not jobs:
        raise HarnessError("no job finished, so no schedule to measure")
    return {
        "round_makespan_us": statistics.fmean(
            j["round_makespan_ns"] for j in jobs) / 1000,
        "mean_shuttles": statistics.fmean(j["mean_shuttles"] for j in jobs),
        "shuttle_overhead": math.exp(statistics.fmean(
            math.log(j["overhead"]) for j in jobs)),
        "circuit_instructions": sum(j["instructions"] for j in jobs),
    }


# compile_s and verify_s are printed with the timings but reported as the
# per-layer stage.compile_s and stage.verify_s: on a shared host their
# run-to-run spread is too wide for an end-to-end bound
E2E_UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB",
             "round_makespan_us": "us/round", "mean_shuttles": "edges/anc/round",
             "shuttle_overhead": "ratio", "circuit_instructions": "count"}


def end_to_end_metrics(children: list[dict], setups: list[float]) -> dict:
    samples = end_to_end_samples(children, setups)
    values = {name: summary(wall)["median"] for name, (wall, _) in samples.items()}
    values.update(schedule_quality(children[0]["jobs"]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()}


# -- per-layer metrics -------------------------------------------------------

LAYER_NAMES = ("css", "compiler", "planner", "intervals", "tsp", "emit",
               "pauli", "metrics")


def layer_values(child: dict) -> dict:
    """Per-layer values of one traced repetition."""
    tr = child["trace"]
    spans, jobs = tr["spans"], child["jobs"]

    def incl(*names):
        return sum(spans.get(n, {}).get("incl_s", 0.0) for n in names)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def jobsum(key):
        return sum(j.get(key, 0) for j in jobs)

    safe_calls = calls("intervals.safe_intervals")
    v = {
        "css.load_s": incl("css.load_css", "css.surface_code",
                           "css.default_layout"),
        "css.logicals_s": incl("css.compute_logicals"),
        "compiler.homes_s": incl("compiler.assign_homes"),
        "compiler.schedule_self_s":
            spans.get("compiler.schedule_round", {}).get("self_s", 0.0),
        "compiler.replicate_s": incl("compiler.replicate_rounds"),
        "compiler.validate_s": incl("compiler.validate_schedule"),
        "compiler.events": jobsum("events"),
        "compiler.schedule_text_s": incl("compiler.Schedule.to_text"),
        "planner.bound_s": incl("planner.route_heuristic"),
        "planner.x_phase_s": tr["plan_route_s"]["X"],
        "planner.z_phase_s": tr["plan_route_s"]["Z"],
        "planner.routes": calls("planner.plan_route"),
        "planner.wait_ns": jobsum("wait_ns"),
        "planner.parked_away": jobsum("parked_away"),
        "intervals.safe_intervals_calls": safe_calls,
        "intervals.safe_intervals_s": incl("intervals.safe_intervals"),
        "intervals.mean_safe_intervals":
            tr["safe_interval_items"] / safe_calls if safe_calls else 0.0,
        "intervals.reserve_calls": calls("intervals.reserve"),
        "tsp.tables": calls("tsp.OpenPathTable"),
        "tsp.table_build_s": incl("tsp.OpenPathTable"),
        "tsp.min_distance_calls": calls("tsp.min_distance"),
        "tsp.min_distance_s": incl("tsp.min_distance"),
        "emit.emit_s": incl("emit.emit_memory_circuit"),
        "emit.to_text_s": incl("emit.StabCircuit.to_text"),
        "emit.instructions": jobsum("instructions"),
        "emit.noise_instructions": jobsum("noise_instructions"),
        "emit.circuit_bytes": jobsum("circuit_bytes"),
        "pauli.tableau_s": incl("pauli.simulate_noiseless"),
        "pauli.sites_s": incl("pauli.sites_from_noise"),
        "pauli.fault_sites": jobsum("fault_sites"),
        "pauli.fault_scan_s": incl("pauli.fault_scan"),
        "pauli.frame_bytes": max(j.get("frame_bytes", 0) for j in jobs),
        "pauli.audit_s": stage_sum(child, ("audit",)),
        "pauli.undetected_logical": jobsum("undetected_logical"),
        "metrics.stats_s": incl("metrics.shuttle_stats",
                                "metrics.ideal_for_schedule"),
        "trace.total_s": tr["total_s"],
        "trace.uncovered_share": tr["uncovered_s"] / tr["total_s"],
        "trace.overhead_est_s": tr["overhead_est_s"],
    }
    for layer in LAYER_NAMES:
        v[f"{layer}.self_s"] = tr["layers"].get(layer, {}).get("self_s", 0.0)
    return v


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns"):
        return "ns/round"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced repetitions; the stage times and the tracing
    overhead come from the plain ones."""
    per_rep = [layer_values(c) for c in traced]
    values = {name: statistics.median(v[name] for v in per_rep)
              for name in per_rep[0]}
    for name, stages in (("stage.compile_s", ("compile",)),
                         ("stage.verify_s", VERIFY_STAGES)):
        values[name] = statistics.median(stage_sum(c, stages) for c in plain)
    values["trace.overhead_s"] = (
        values["trace.total_s"]
        - statistics.median(c["total"][0] for c in plain))
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in values.items()}


# -- correctness accounting --------------------------------------------------

FINGERPRINT = ("schedule_sha256", "circuit_sha256", "round_makespan_ns",
               "mean_shuttles", "overhead", "instructions")


def count_failures(children: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over every job of every repetition.

    A job fails when it raised or failed a check, or when its fingerprint
    differs from the first repetition's.
    """
    reference = [tuple(j.get(k) for k in FINGERPRINT)
                 for j in children[0]["jobs"]]
    attempted = failed = 0
    for child in children:
        for ref, job in zip(reference, child["jobs"]):
            attempted += 1
            if not job["ok"] or tuple(job.get(k) for k in FINGERPRINT) != ref:
                failed += 1
    return attempted, failed


# -- the run -----------------------------------------------------------------

def check_checkout() -> None:
    if not (REPO / "src" / "shuttleplan" / "__init__.py").is_file():
        raise HarnessError(f"no shuttleplan sources under {REPO / 'src'}")
    if not (REPO / "codes").is_dir():
        raise HarnessError(f"no code files under {REPO / 'codes'}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions until the next would end after ``seconds``.

    Each repetition is assumed to take as long as the last one of its kind.
    A plain run makes at least MIN_REPETITIONS, a traced run at least one
    plain and one traced; past the first of each, none may be expected to
    end more than GRACE_S after ``seconds``.
    """
    start = time.monotonic()
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    last = {}
    while True:
        mode = "trace" if trace and len(traced) < len(plain) else "run"
        ends_at = time.monotonic() - start + last.get(mode, 0.0)
        usable = bool(plain) and (bool(traced) or not trace)
        minimum = bool(traced) if trace else len(plain) >= MIN_REPETITIONS
        if ends_at > seconds + (0 if minimum else GRACE_S) and usable:
            break
        timeout = CHILD_DEADLINE_S - (time.monotonic() - start)
        t0 = time.monotonic()
        if mode == "trace":
            dump = OUT / f"{workload}-seed{seed}-spans{len(traced)}.jsonl.gz"
            traced.append(spawn(workload, seed, "trace", timeout, dump))
        else:
            if not trace:  # set-up alone is short, so sample it twice as often
                setups.append(spawn(workload, seed, "setup", timeout)["setup"][0])
            plain.append(spawn(workload, seed, "run", timeout))
        last[mode] = time.monotonic() - t0
    setups += [c["setup"][0] for c in plain]
    return {"setups": setups, "plain": plain, "traced": traced}


def context_record() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg(),
            "PYTHONHASHSEED": HASH_SEED,
            "threads": {name: "1" for name in THREAD_VARIABLES}}


def fingerprint_rows(children: list[dict]) -> list[str]:
    """One tab-separated row per job and repetition, with a header."""
    cols = ("code", "rounds", "basis", "order", "seed", *FINGERPRINT, "ok")
    rows = ["\t".join(("repetition",) + cols)]
    for rep, child in enumerate(children):
        for job in child["jobs"]:
            rows.append("\t".join([str(rep)] + [str(job.get(c)) for c in cols]))
    return rows


def trace_report(workload: str, plain: list[dict], traced: list[dict],
                 metrics: dict) -> list[str]:
    """Per-layer self time, calls and share of the traced total_s."""
    child = traced[len(traced) // 2]
    total = child["trace"]["total_s"]
    lines = [f"traced repetition {len(traced) // 2 + 1} of {len(traced)} "
             f"({len(plain)} plain) of {workload}: total_s {total:.4f}",
             f"{'layer':<12}{'self_s':>12}{'calls':>12}{'share':>9}"]
    for layer in LAYER_NAMES:
        stat = child["trace"]["layers"].get(layer, {"calls": 0, "self_s": 0.0})
        lines.append(f"{layer:<12}{stat['self_s']:>12.4f}{stat['calls']:>12}"
                     f"{stat['self_s'] / total:>9.2%}")
    uncovered = child["trace"]["uncovered_s"]
    lines.append(f"{'uncovered':<12}{uncovered:>12.4f}{'':>12}"
                 f"{uncovered / total:>9.2%}")
    lines.append(f"tracing overhead: traced total_s - plain total_s = "
                 f"{metrics['trace.overhead_s']['value']:.4f} s; "
                 f"{child['trace']['call_cost_ns']:.0f} ns per traced call "
                 f"x {sum(s['calls'] for s in child['trace']['spans'].values())}"
                 f" calls = {child['trace']['overhead_est_s']:.4f} s")
    lines.append("")
    lines.append(f"{'span':<34}{'calls':>10}{'incl_s':>12}{'self_s':>12}")
    for name, stat in sorted(child["trace"]["spans"].items()):
        lines.append(f"{name:<34}{stat['calls']:>10}{stat['incl_s']:>12.4f}"
                     f"{stat['self_s']:>12.4f}")
    return lines


def timing_lines(samples: dict) -> list[str]:
    lines = []
    for name, (wall, cpu) in samples.items():
        s = summary(wall)
        line = (f"{name:<14} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                f"q3 {s['q3']:.4f}  n={s['n']}")
        if cpu is not None:
            line += f"  cpu median {summary(cpu)['median']:.4f}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        status = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if status:
            return status
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload, print its report and, last, its JSON result."""
    try:
        check_checkout()
        OUT.mkdir(exist_ok=True)
        context = context_record()
        runs = measure(workload, seed, seconds, trace)
        plain, traced = runs["plain"], runs["traced"]
        if trace:
            metrics = per_layer_metrics(plain, traced)
        else:
            metrics = end_to_end_metrics(plain, runs["setups"])
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    children = plain + traced
    attempted, failed = count_failures(children)
    context.update(python=plain[0]["python"], numpy=plain[0]["numpy"],
                   workload=workload, seed=seed,
                   jobs=[str(j) for j in workload_jobs(workload, seed)])
    lines = [f"perfbench {workload} seed={seed} trace={int(trace)} "
             + " ".join(f"{k}={context[k]}" for k in
                        ("python", "numpy", "nproc", "loadavg_at_start",
                         "PYTHONHASHSEED"))]
    if trace:
        lines += trace_report(workload, plain, traced, metrics)
    else:
        context["samples"] = end_to_end_samples(plain, runs["setups"])
        lines += timing_lines(context["samples"])
    lines += [f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
    rows = fingerprint_rows(children)
    lines += rows[:1 + len(children[0]["jobs"])]
    lines.append(f"attempted {attempted} failed {failed}")
    for child in children:
        for job in child["jobs"]:
            lines += [f"FAILED {job['code']}: {e}" for e in job["errors"]]

    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".txt").write_text("\n".join(lines) + "\n")
    stem.with_suffix(".tsv").write_text("\n".join(rows) + "\n")
    stem.with_suffix(".json").write_text(json.dumps(
        {"context": context, "metrics": metrics, "children": children},
        indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
