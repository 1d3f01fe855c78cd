"""P8 — widened intermittent lanes: event-batched micro-stepping.

Tracks what the PR-8 tentpole bought on the shape PR 6 profiled: the
``city-block-1k`` 128-device slice, where the intermittent baselines'
~3.4k lockstep micro-passes used to hold the mixed fleet to ~1.1x over
the per-device engine.  The kernel now fuses consecutive micro-steps
that cannot cross a power boundary (wake, shutdown, partial slice,
deadline), so physical passes collapse to the order of power
transitions:

* **mixed city block 128** — batched vs per-device, measured fresh in
  the same run; the acceptance floor is a 3x speedup (measured ~3.8x on
  the reference container, up from ~1.1x at PR 5);
* **pass collapse** — logical micro-steps (scalar equivalent) vs
  physical kernel passes on the same slice; the floor is a 2x collapse
  (measured ~28x).

Results land in ``benchmarks/BENCH_p8_lanes.json`` (or
``benchmarks/.smoke/`` under ``BENCH_SMOKE=1``); the CI regression gate
diffs them against the committed trajectory — see ``compare.py``.
"""

from __future__ import annotations

import json

from benchmarks.conftest import BENCH_SMOKE as SMOKE
from benchmarks.conftest import bench_output_path, print_table, write_bench_json
from repro.fleet import SCENARIOS, FleetRunner
from repro.obs.recorder import Recorder, recording

ROUNDS = 1 if SMOKE else 3
DEVICES = 128

#: Acceptance floor: batched vs per-device throughput on the mixed
#: city-block-1k slice — the gap the event-batched kernel exists to close.
SPEEDUP_FLOOR = 3.0

#: Regression floor on the pass collapse itself: physical kernel passes
#: must stay at most half the logical micro-step count.
PASS_COLLAPSE_FLOOR = 2.0

BENCH_JSON = bench_output_path("BENCH_p8_lanes.json")

_RESULTS: dict = {}


def _spec():
    return SCENARIOS.build("city-block-1k", num_devices=DEVICES)


def _best_run(make_runner, rounds: int = ROUNDS):
    """(best wall seconds, last FleetResult) over fresh runner runs."""
    make_runner().run()  # warm per-process caches (traces, profiles)
    best, last = float("inf"), None
    for _ in range(rounds):
        result = make_runner().run()
        best = min(best, result.wall_s)
        last = result
    return best, last


def test_p8_mixed_city_block_speedup():
    spec = _spec()
    batched_best, batched = _best_run(
        lambda: FleetRunner(spec, workers=1, engine="batched")
    )
    device_best, device = _best_run(
        lambda: FleetRunner(spec, workers=1, engine="device"),
        rounds=1 if SMOKE else 2,
    )
    batched_dps = DEVICES / batched_best
    device_dps = DEVICES / device_best
    speedup = batched_dps / device_dps
    _RESULTS["cityblock128"] = {
        "devices": DEVICES,
        "batched_best_s": batched_best,
        "batched_devices_per_s": batched_dps,
        "device_engine_best_s": device_best,
        "device_engine_devices_per_s": device_dps,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    print_table(
        f"P8: {DEVICES}-device mixed city block, event-batched lanes",
        [
            ("batched (fused)", f"{batched_best * 1e3:.1f}", f"{batched_dps:.0f}"),
            ("per-device", f"{device_best * 1e3:.1f}", f"{device_dps:.0f}"),
        ],
        ["engine", "best_ms", "devices/s"],
    )
    # The speedup must never cost a single result bit.
    assert json.dumps(batched.to_dict(), sort_keys=True) == json.dumps(
        device.to_dict(), sort_keys=True
    )
    if not SMOKE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"mixed-fleet gap reopened: {speedup:.2f}x < {SPEEDUP_FLOOR}x "
            f"on the city-block {DEVICES}-device slice"
        )


def test_p8_kernel_pass_collapse():
    """Logical micro-steps vs physical kernel passes on the same slice."""
    spec = _spec()
    rec = Recorder(metrics=True, profile=True)
    with recording(rec):
        FleetRunner(spec, workers=1, engine="batched").run()
    counts = rec.profiler.to_dict()["counts"]
    micro = int(counts["intermittent.micro_passes"])
    physical = int(counts["intermittent.kernel_passes"])
    collapse = micro / physical if physical else 0.0
    _RESULTS["passes"] = {
        "micro_passes": micro,
        "kernel_passes": physical,
        "collapse": collapse,
        "collapse_floor": PASS_COLLAPSE_FLOOR,
    }
    print_table(
        "P8: micro-step fusion on city-block-128",
        [
            ("logical micro-steps", micro),
            ("physical kernel passes", physical),
            ("collapse", f"{collapse:.1f}x"),
        ],
        ["quantity", "value"],
    )
    assert micro > 0 and physical > 0
    assert physical * PASS_COLLAPSE_FLOOR <= micro, (
        f"event batching stopped collapsing passes: {physical} physical vs "
        f"{micro} logical micro-steps"
    )


def test_p8_write_bench_json():
    """Flush the machine-readable trajectory file (always runs last)."""
    missing = {"cityblock128", "passes"} - set(_RESULTS)
    assert not missing, f"earlier P8 sections did not run: {sorted(missing)}"
    payload = {
        "bench": "p8_lanes",
        "smoke": SMOKE,
        "rounds": ROUNDS,
        **_RESULTS,
    }
    payload = write_bench_json(BENCH_JSON, payload)
    print(f"\nBENCH_p8_lanes: {json.dumps(payload, sort_keys=True)}")
