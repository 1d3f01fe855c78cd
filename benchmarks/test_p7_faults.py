"""P7 — fault-injection overhead: chaos off must be free, recovery cheap.

The PR-7 contract mirrors PR-6's: with chaos off (the default
``NULL_INJECTOR``) every injection point in the dispatch path reduces to
one attribute read, so the production serial path still calls the engine
directly and a fleet run costs nothing measurable.  The gate is the same
**paired, interleaved** comparison as P6: chaos-off rounds alternate
with chaos-*armed* rounds (an installed injector whose plan never fires,
so the armed side strictly contains the off side's work plus injector
polling), and the off best must stay within 2% of the armed best.  See
``test_p6_obs.py`` for why a cross-process or historical gate is
hopeless at the 2% level on shared CI hardware.

A second section records (never gates — recovery wall time is
lease-TTL-dominated and host-dependent) the measured cost of surviving a
dead drain worker on the shard path, plus the lease-steal counter that
proves the recovery actually happened.
"""

from __future__ import annotations

import json

from benchmarks.conftest import BENCH_SMOKE as SMOKE
from benchmarks.conftest import bench_output_path, print_table, write_bench_json
from repro.faults import Fault, FaultPlan, chaos
from repro.fleet import (
    SCENARIOS,
    FleetRunner,
    FleetShardSource,
    ShardLedger,
    run_sharded,
)
from repro.fleet.shards import shard_key
from repro.obs.recorder import Recorder, recording

ROUNDS = 1 if SMOKE else 7
FLEET_SEED = 13
DEVICES = 32

#: The no-op gate: chaos-off throughput must stay within this fraction
#: of the chaos-armed (never-firing plan) path in the same block.
NOOP_OVERHEAD_FRAC = 0.02

BENCH_JSON = bench_output_path("BENCH_p7_faults.json")

_RESULTS: dict = {}


def _spec():
    return SCENARIOS.build("solar-farm-100", num_devices=DEVICES, seed=FLEET_SEED)


def _armed_plan() -> FaultPlan:
    """A real plan whose single fault sits far past any occurrence this
    fleet can reach — the injector is fully armed (every dispatch pays
    the poll + dispatcher bookkeeping) but never fires."""
    return FaultPlan([Fault("fleet.chunk", 10**9, "exception")], note="never fires")


def _interleaved_best(spec, rounds: int = ROUNDS):
    """(off_best_s, armed_best_s, off_result, armed_result), paired."""
    FleetRunner(spec, workers=1).run()  # warm per-process caches
    off_best = armed_best = float("inf")
    off_result = armed_result = None
    for _ in range(rounds):
        off_result = FleetRunner(spec, workers=1).run()
        off_best = min(off_best, off_result.wall_s)
        with chaos(_armed_plan()):
            armed_result = FleetRunner(spec, workers=1).run()
        armed_best = min(armed_best, armed_result.wall_s)
    return off_best, armed_best, off_result, armed_result


def test_p7_chaos_off_overhead_and_identity():
    spec = _spec()
    attempts = 0
    for attempts in range(1, 2 if SMOKE else 4):
        off_best, armed_best, off, armed = _interleaved_best(spec)
        if off_best <= armed_best * (1.0 + NOOP_OVERHEAD_FRAC):
            break
    off_dps = DEVICES / off_best
    armed_dps = DEVICES / armed_best
    _RESULTS["chaos32"] = {
        "devices": DEVICES,
        "gate_attempts": attempts,
        "off_best_s": off_best,
        "off_devices_per_s": off_dps,
        "armed_best_s": armed_best,
        "armed_devices_per_s": armed_dps,
        "off_vs_armed_frac": off_best / armed_best - 1.0,
    }
    print_table(
        f"P7: {DEVICES}-device batched fleet, fault-injection cost (interleaved)",
        [
            ("chaos off (no-op)", f"{off_best * 1e3:.1f}", f"{off_dps:.0f}"),
            ("chaos armed, 0 fired", f"{armed_best * 1e3:.1f}", f"{armed_dps:.0f}"),
        ],
        ["fault injection", "best_ms", "devices/s"],
    )

    # Determinism contract: an armed injector whose plan never fires
    # changes nothing — byte-identical fleet report.
    assert json.dumps(off.to_dict(), sort_keys=True) == json.dumps(
        armed.to_dict(), sort_keys=True
    )

    if not SMOKE:
        assert off_best <= armed_best * (1.0 + NOOP_OVERHEAD_FRAC), (
            f"chaos-off dispatch more than {NOOP_OVERHEAD_FRAC:.0%} slower "
            f"than the chaos-armed path: {off_dps:.0f} vs {armed_dps:.0f} "
            "devices/s — is an injector (or the dispatcher) active by "
            "default?"
        )


def test_p7_crash_recovery_cost(tmp_path):
    """Record (not gate) what surviving one dead drain worker costs.

    A worker that dies mid-shard leaves its lease behind; the surviving
    drain waits out the lease TTL, steals the shard and re-executes it.
    The recovery is TTL-bound, so the interesting outputs are the ratio,
    the configured TTL, and the steal counter proving the recovery
    happened — not an asserted threshold.
    """
    spec = _spec()
    source = FleetShardSource(spec)
    ttl_s = 0.25
    clean = run_sharded(source, str(tmp_path / "clean"), shards=2,
                        lease_ttl_s=ttl_s)

    # The dead worker: another ledger owner holds shard 0's lease and
    # never publishes.
    crashed_dir = str(tmp_path / "crashed")
    assert ShardLedger(crashed_dir).claim(shard_key(0, DEVICES // 2), ttl_s)
    with recording(Recorder(metrics=True)) as rec:
        crashed = run_sharded(source, crashed_dir, shards=2, lease_ttl_s=ttl_s)
    stolen = rec.metrics.counter_value("fleet.shard.leases_stolen")
    assert stolen >= 1, "crash recovery never engaged"
    assert json.dumps(clean.aggregate(), sort_keys=True) == json.dumps(
        crashed.aggregate(), sort_keys=True
    ), "recovered run diverged from the clean sharded run"

    _RESULTS["recovery"] = {
        "devices": DEVICES,
        "lease_ttl_s": ttl_s,
        "clean_sharded_s": clean.wall_s,
        "crash_recovered_s": crashed.wall_s,
        "recovery_overhead_x": crashed.wall_s / clean.wall_s,
        "leases_stolen": stolen,
    }
    ratio = crashed.wall_s / clean.wall_s
    print_table(
        f"P7: {DEVICES}-device sharded fleet, one dead drain worker "
        f"(lease TTL {ttl_s:.2f}s)",
        [
            ("clean", f"{clean.wall_s * 1e3:.1f}", "-"),
            ("steal + recover", f"{crashed.wall_s * 1e3:.1f}", f"{ratio:.2f}x"),
        ],
        ["sharded run", "wall_ms", "vs clean"],
    )


def test_p7_write_bench_json():
    """Flush the machine-readable trajectory file (always runs last)."""
    assert "chaos32" in _RESULTS, "earlier P7 section did not run"
    payload = {
        "bench": "p7_faults",
        "smoke": SMOKE,
        "rounds": ROUNDS,
        "noop_overhead_frac_gate": NOOP_OVERHEAD_FRAC,
        **_RESULTS,
    }
    payload = write_bench_json(BENCH_JSON, payload)
    print(f"\nBENCH_p7_faults: {json.dumps(payload, sort_keys=True)}")
