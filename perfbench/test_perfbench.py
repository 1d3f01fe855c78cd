"""The benchmark's own test (about 1.5 minutes; not part of tier-1).

    python -m pytest perfbench/test_perfbench.py -q

Checks that ``BENCHMARK.json`` keeps the benchmark contract's limits,
that ``layers.json`` gives every per-layer metric its targets (or a note
saying why it has none), that traced counts repeat exactly between two
runs at the same seed, that a held-out seed (not pinned in
``digests.json``, not used while building the benchmark) passes every
output check, that every named metric is printed with its unit, and
that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

HELD_OUT_SEED = 1009
SEED = 5
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT) -> tuple:
    """Run the benchmark; ``(exit code, stdout lines, last-line JSON)``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, lines, result


def run_workload(name: str, seed: int, trace: int) -> tuple:
    return bench("--workload", name, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))


def assert_printed(lines: list, result: dict, specs: list) -> None:
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, unit in specs}
    for name, unit in specs:
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in lines
        ), f"{name} not printed with its unit"


def test_benchmark_json_keeps_the_contract():
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_FNS)
    names = WORKLOADS + [m["name"]
                         for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} \
        in SPEC["end_to_end"]


def test_layers_json_covers_every_metric():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    assert sorted(layers["workloads"]) == sorted(WORKLOADS)
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(layers["end_to_end"]) == sorted(end_to_end)
    assert sorted(layers["per_layer"]) == sorted(
        m["name"] for m in SPEC["per_layer"])
    for name, entry in layers["per_layer"].items():
        # A metric no end-to-end metric depends on says why in a note.
        assert entry["moves"] or entry.get("note"), name
        for target in entry["moves"]:
            assert target["metric"] in end_to_end
            assert set(target["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_at_the_same_seed(workload):
    specs = run.metric_specs(trace=True)
    counts = []
    for _ in range(2):
        code, lines, result = run_workload(workload, SEED, trace=1)
        assert code == 0, lines
        assert_printed(lines, result, specs)
        counts.append({
            name: result["metrics"][name]["value"]
            for name in ("batch.steps", "intermittent.calls",
                         "device.builds", "shard.count")
        })
    assert counts[0] == counts[1]
    assert counts[0]["batch.steps"] > 0 and counts[0]["device.builds"] > 0
    spans = tracer.load_spans(
        os.path.join(ROOT, ".perfbench", workload, "spans.jsonl"))
    assert spans and all(
        {"name", "start", "end", "parent", "run"} <= set(s) for s in spans)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_passes_every_check(workload):
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    assert all(str(HELD_OUT_SEED) not in table for table in digests.values())
    code, lines, result = run_workload(workload, HELD_OUT_SEED, trace=0)
    assert code == 0, lines
    assert_printed(lines, result, run.metric_specs(trace=False))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, result = bench("--workload", run.CLI, "--seed", "0",
                                cwd=str(tmp_path))
    assert code != 0 and result is None


def test_layer_self_times_add_up_to_the_traced_wall():
    spans = [
        {"id": 0, "parent": None, "name": "job", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "cli.import", "start": 0.0, "end": 2.0},
        {"id": 2, "parent": 0, "name": "batch.build", "start": 2.0,
         "end": 5.0},
        {"id": 3, "parent": 2, "name": "device.trace", "start": 2.5,
         "end": 3.5},
        {"id": 4, "parent": 0, "name": "batch.advance", "start": 5.0,
         "end": 9.0, "lanes": 32, "steps": 4},
        {"id": 5, "parent": 4, "name": "intermittent.run_episode",
         "start": 5.0, "end": 6.0},
    ]
    for s in spans:
        s["run"] = "r"
    out = tracer.summarize(spans)
    assert out["batch.build.self_s"] == 2.0
    assert out["batch.lockstep_s"] == 3.0
    assert out["traced.unattributed_s"] == 1.0
    layers = sum(out[name] for name in tracer.SELF_TIME_LAYERS)
    assert layers + out["traced.unattributed_s"] == out["traced.wall_s"]
    assert out["lockstep_us_per_step_by_width"] == {32: 750000.0}
    assert out["device.builds"] == 1 and out["intermittent.calls"] == 1
