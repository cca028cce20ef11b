"""Self-test of the benchmark harness on the surface code, d=3, one round.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

D3 = worker.Job("surface_d3", (), 1, "Z", "longest", 0, True)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_every_metric_is_emitted_with_its_unit():
    plain = worker.execute([D3], "run")
    traced = worker.execute([D3], "trace")
    e2e = run.end_to_end_metrics([plain], [plain["setup"][0]])
    layers = run.per_layer_metrics([plain], [traced])
    assert {n: m["unit"] for n, m in e2e.items()} == declared("end_to_end")
    assert {n: m["unit"] for n, m in layers.items()} == declared("per_layer")
    assert all(m["value"] > 0 for m in e2e.values())
    assert run.count_failures([plain, traced]) == (2, 0)


def test_tracer_restores_every_patched_name():
    sp = worker.import_package()
    before = [(owner, attr, getattr(owner, attr))
              for owner, attr, _ in tracing.traced_targets(sp)]
    worker.execute([D3], "trace")
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, attr


def drop_one_cx(schedule):
    events = dict(schedule.events)
    aid, evs = next((a, evs) for a, evs in events.items()
                    if any(ev.kind == "CX" for ev in evs))
    first_cx = next(i for i, ev in enumerate(evs) if ev.kind == "CX")
    events[aid] = evs[:first_cx] + evs[first_cx + 1:]
    return replace(schedule, events=events)


def test_corrupted_schedule_counts_as_a_failed_operation():
    out = worker.execute([D3], "run", corrupt=drop_one_cx)
    assert run.count_failures([out]) == (1, 1)
    assert out["jobs"][0]["errors"][0].startswith("validate:")
