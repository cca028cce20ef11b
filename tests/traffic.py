"""Which package functions the benchmark's own pipeline never runs.

    python3 tests/traffic.py

Profiles (``sys.setprofile``) one fresh interpreter from the benchmark's
``import_package``, so import-time calls count, through ``prepare`` and
``run_job`` on these jobs: surface d3 in the Z and the X basis and bb72
with a random order, each with the fault audit, and surface d3 with one CX
dropped from its schedule, so the validator reports. Prints one JSON object:
``ok``, each job's verdict and first error; ``idle``, as ``module.qualname``,
every top-level function, method and property of ``shuttleplan`` whose
code never ran; and ``traced``, the class members the benchmark's tracer
patches, as ``Class.member``. A ``functools`` wrapper is checked by the
code it wraps. Dunders and methods whose code lies outside the package
(those a dataclass or NamedTuple generates) are not checked.
Imports nothing from ``shuttleplan`` before the profile starts.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402

JOBS = [worker.Job("surface_d3", (), 3, basis, "longest", 0, True)
        for basis in ("Z", "X")]
JOBS.append(worker.Job("bb_72_12_6", (9, 8), 2, "Z", "random", 1, True))


def drop_one_cx(schedule):
    """The first ancilla with a CX loses its first CX, as in the
    benchmark's self-test."""
    events = dict(schedule.events)
    aid, evs = next((a, evs) for a, evs in events.items()
                    if any(ev.kind == "CX" for ev in evs))
    first_cx = next(i for i, ev in enumerate(evs) if ev.kind == "CX")
    events[aid] = evs[:first_cx] + evs[first_cx + 1:]
    return replace(schedule, events=events)


def run_pipeline():
    """The package and the job verdicts, with the code objects that ran."""
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(record)
    try:
        sp = worker.import_package()
        prepared = worker.prepare(sp, JOBS)
        rows = [worker.run_job(sp, prepared, job) for job in JOBS]
        rows.append(worker.run_job(sp, prepared, JOBS[0],
                                   corrupt=drop_one_cx))
    finally:
        sys.setprofile(None)
    return sp, [(row["ok"], row["errors"][:1]) for row in rows], ran


def package_functions():
    """(module.qualname, code) of every checked function of the package."""
    import shuttleplan

    for info in pkgutil.iter_modules(shuttleplan.__path__):
        module = importlib.import_module(f"shuttleplan.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere, or not a def
            obj = getattr(obj, "__wrapped__", obj)  # a functools wrapper's def
            if inspect.isfunction(obj):
                funcs = [obj]
            elif isinstance(obj, type):
                funcs = []
                for name, member in vars(obj).items():
                    if name.startswith("__") and name.endswith("__"):
                        continue
                    if isinstance(member, property):
                        funcs += [member.fget, member.fset, member.fdel]
                    else:  # a staticmethod or classmethod wraps __func__
                        funcs.append(getattr(member, "__func__", member))
            else:
                continue
            for func in funcs:
                code = getattr(func, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    yield f"{info.name}.{func.__qualname__}", code


def main() -> None:
    sp, ok, ran = run_pipeline()
    idle = sorted(name for name, code in package_functions()
                  if code not in ran)
    traced = sorted(f"{owner.__qualname__}.{attr}"
                    for owner, attr, _ in tracing.traced_targets(sp)
                    if isinstance(owner, type))
    json.dump({"ok": ok, "idle": idle, "traced": traced}, sys.stdout)


if __name__ == "__main__":
    main()
