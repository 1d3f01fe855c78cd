"""P4 — batched lockstep fleet engine benchmarks, tracked across PRs.

Measures what the PR-4 tentpole bought:

* **batched serial** — the 32-device solar farm through the lockstep
  engine (``engine="batched"``), against the recorded PR-2 per-device serial
  baseline; the acceptance floor is a 4x speedup;
* **device-path serial** — the same fleet through ``engine="device"``,
  re-measured fresh so the ratio is visible inside one run;
* **128-device parallel vs serial** — a parallel request drains one
  device-axis shard per worker (forked drain children plus the calling
  process) and stays in-process when parallelism cannot win (small
  fleets, or one usable CPU), so it must never be slower than the serial
  loop.

Results land in ``benchmarks/BENCH_p4_batch.json`` (or
``benchmarks/.smoke/`` under ``BENCH_SMOKE=1``, which the CI regression
gate diffs against the committed trajectory — see ``compare.py``).
"""

from __future__ import annotations

import json

from benchmarks.conftest import BENCH_SMOKE as SMOKE
from benchmarks.conftest import bench_output_path, print_table, write_bench_json
from repro.fleet import SCENARIOS, FleetRunner
from repro.fleet.runner import usable_cpus

ROUNDS = 1 if SMOKE else 5
FLEET_SEED = 13
WORKERS = 4

#: PR-2 serial throughput of this exact 32-device solar farm on the
#: reference container (``BENCH_p2_hotpath.json`` at PR 2: fleet32
#: serial_devices_per_s), and the acceptance floor over it.
P2_SERIAL_DEVICES_PER_S = 259.795620247361
SPEEDUP_FLOOR = 4.0

BENCH_JSON = bench_output_path("BENCH_p4_batch.json")

_RESULTS: dict = {}


def _spec(devices: int):
    return SCENARIOS.build("solar-farm-100", num_devices=devices, seed=FLEET_SEED)


def _best_run(make_runner, rounds: int = ROUNDS):
    """(best wall seconds, last FleetResult) over fresh runner runs."""
    make_runner().run()  # warm per-process caches (traces, profiles)
    best, last = float("inf"), None
    for _ in range(rounds):
        result = make_runner().run()
        best = min(best, result.wall_s)
        last = result
    return best, last


def test_p4_batched_serial_speedup():
    devices = 32
    spec = _spec(devices)
    batched_best, batched = _best_run(lambda: FleetRunner(spec, workers=1))
    device_best, device = _best_run(
        lambda: FleetRunner(spec, workers=1, engine="device"),
        rounds=1 if SMOKE else 3,
    )
    batched_dps = devices / batched_best
    device_dps = devices / device_best
    _RESULTS["batched32"] = {
        "devices": devices,
        "batched_best_s": batched_best,
        "batched_devices_per_s": batched_dps,
        "device_engine_best_s": device_best,
        "device_engine_devices_per_s": device_dps,
        "speedup_vs_p2_baseline": batched_dps / P2_SERIAL_DEVICES_PER_S,
    }
    print_table(
        f"P4: {devices}-device serial fleet, engine comparison",
        [
            ("batched", f"{batched_best * 1e3:.1f}", f"{batched_dps:.0f}"),
            ("per-device", f"{device_best * 1e3:.1f}", f"{device_dps:.0f}"),
            ("PR-2 recorded baseline", "-", f"{P2_SERIAL_DEVICES_PER_S:.0f}"),
        ],
        ["engine", "best_ms", "devices/s"],
    )
    # Engines must agree bit-for-bit even under timing conditions.
    assert json.dumps(batched.to_dict(), sort_keys=True) == json.dumps(
        device.to_dict(), sort_keys=True
    )
    if not SMOKE:
        assert batched_dps >= SPEEDUP_FLOOR * P2_SERIAL_DEVICES_PER_S, (
            f"batched serial throughput too low: {batched_dps:.0f} devices/s "
            f"< {SPEEDUP_FLOOR}x PR-2 baseline ({P2_SERIAL_DEVICES_PER_S:.0f})"
        )


def test_p4_parallel_not_slower_at_128():
    devices = 128
    spec = _spec(devices)
    serial_best, serial = _best_run(
        lambda: FleetRunner(spec, workers=1), rounds=1 if SMOKE else 3
    )
    parallel_runner = [None]

    def make_parallel():
        parallel_runner[0] = FleetRunner(spec, workers=WORKERS)
        return parallel_runner[0]

    parallel_best, parallel = _best_run(make_parallel, rounds=1 if SMOKE else 3)
    fell_back = not parallel_runner[0].last_run_parallel
    if fell_back:
        # One usable CPU: the runner refuses to fork because it can only
        # lose; a "parallel" request executes the identical serial path,
        # so the honest numbers for both labels come from the shared best
        # over all measured runs.
        serial_best = parallel_best = min(serial_best, parallel_best)
    serial_dps = devices / serial_best
    parallel_dps = devices / parallel_best
    _RESULTS["fleet128"] = {
        "devices": devices,
        "serial_best_s": serial_best,
        "serial_devices_per_s": serial_dps,
        "parallel_workers": WORKERS,
        "parallel_best_s": parallel_best,
        "parallel_devices_per_s": parallel_dps,
        "parallel_fell_back_to_serial": fell_back,
        "usable_cpus": usable_cpus(),
    }
    print_table(
        f"P4: {devices}-device fleet, parallel vs serial",
        [
            ("serial", 1, f"{serial_best:.3f}", f"{serial_dps:.0f}"),
            (
                "parallel" + (" (fell back)" if fell_back else ""),
                WORKERS,
                f"{parallel_best:.3f}",
                f"{parallel_dps:.0f}",
            ),
        ],
        ["mode", "workers", "best_s", "devices/s"],
    )
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True
    )
    if not SMOKE:
        assert parallel_dps >= serial_dps, (
            f"parallel is a pessimization again: {parallel_dps:.0f} < "
            f"{serial_dps:.0f} devices/s at {devices} devices"
        )


def test_p4_write_bench_json():
    """Flush the machine-readable trajectory file (always runs last)."""
    missing = {"batched32", "fleet128"} - set(_RESULTS)
    assert not missing, f"earlier P4 sections did not run: {sorted(missing)}"
    payload = {
        "bench": "p4_batch",
        "smoke": SMOKE,
        "rounds": ROUNDS,
        "baseline": {"p2_serial_devices_per_s": P2_SERIAL_DEVICES_PER_S},
        **_RESULTS,
    }
    payload = write_bench_json(BENCH_JSON, payload)
    print(f"\nBENCH_p4_batch: {json.dumps(payload, sort_keys=True)}")
