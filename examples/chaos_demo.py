"""Chaos tour (mirrors examples/obs_demo.py).

Four stops on the :mod:`repro.faults` line:

1. arm a handcrafted :class:`FaultPlan` around a serial fleet run and
   watch the recovery ladder absorb every fault — the report is
   byte-identical to a fault-free run;
2. leave a dead drain worker's lease in a shard ledger (the survivor
   waits out the lease TTL, steals the shard, and the merged report
   still matches bit-for-bit);
3. sabotage a campaign checkpoint on disk, then let ``--resume``
   detect, quarantine, and re-run just the damaged cell;
4. exhaust the retry budget on purpose and read the quarantine ledger —
   the run degrades gracefully into :class:`DeviceFailure` records
   instead of dying.

Run:  python examples/chaos_demo.py
"""

import json
import os
import shutil
import tempfile

from repro.campaign import CAMPAIGNS, CampaignRunner, CampaignStore, run_campaign
from repro.faults import Fault, FaultPlan, RetryPolicy, chaos
from repro.fleet import (
    SCENARIOS,
    FleetRunner,
    FleetShardSource,
    ShardLedger,
    run_sharded,
)
from repro.fleet.shards import shard_key
from repro.obs import Recorder, recording


def fleet_bytes(result) -> str:
    """Canonical JSON of a fleet report (wall-clock content excluded)."""
    return json.dumps(result.to_dict(), sort_keys=True)


def serial_fleet_survives_a_plan():
    """Every injected fault is retried away; the report does not move."""
    print("\n== serial fleet vs a three-fault plan ==")
    spec = SCENARIOS.build("solar-farm-100", num_devices=16)
    clean = FleetRunner(spec).run()

    plan = FaultPlan(
        [
            Fault("fleet.chunk", 0, "exception"),
            Fault("fleet.chunk", 1, "corrupt_payload"),
            Fault("fleet.chunk", 2, "oserror"),
        ],
        note="chaos_demo: recoverable serial schedule",
    )
    with chaos(plan) as injector:
        chaotic = FleetRunner(spec, retry=RetryPolicy(backoff_s=0.0)).run()

    print(f"  fired: {injector.fired_summary()}")
    print(f"  quarantined devices: {chaotic.num_failures}")
    identical = fleet_bytes(clean) == fleet_bytes(chaotic)
    print(f"  report byte-identical to the fault-free run: {identical}")
    assert identical and chaotic.failures == []


def dead_worker_lease_is_stolen():
    """A drain worker died holding a shard; its lease expires and is stolen."""
    print("\n== sharded fleet, one dead drain worker ==")
    spec = SCENARIOS.build("solar-farm-100", num_devices=16)
    root = tempfile.mkdtemp(prefix="chaos-demo-ledger-")
    try:
        clean = run_sharded(
            FleetShardSource(spec), os.path.join(root, "clean"), shards=2
        )
        # The dead worker: another ledger owner claimed shard 0, then
        # never published it.
        crashed = os.path.join(root, "crashed")
        ShardLedger(crashed).claim(shard_key(0, 8), ttl_s=0.25)
        with recording(Recorder(metrics=True)) as rec:
            recovered = run_sharded(
                FleetShardSource(spec), crashed, shards=2, lease_ttl_s=0.25
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    stolen = rec.metrics.counter_value("fleet.shard.leases_stolen")
    print(f"  leases stolen: {stolen}")
    identical = json.dumps(clean.aggregate(), sort_keys=True) == json.dumps(
        recovered.aggregate(), sort_keys=True
    )
    print(f"  report byte-identical after the steal: {identical}")
    assert identical and stolen == 1


def checkpoint_rot_heals_on_resume():
    """A bit-flipped cell artifact is quarantined and re-run, not trusted."""
    print("\n== campaign checkpoint rot, healed by --resume ==")
    out = os.path.join(tempfile.gettempdir(), "chaos-demo-campaign")
    shutil.rmtree(out, ignore_errors=True)
    spec = CAMPAIGNS.build("dev-smoke")
    run_campaign(spec, out=out)
    before = open(os.path.join(out, "report.json"), "rb").read()

    store = CampaignStore(out)
    victim = sorted(store.completed_keys())[0]
    path = store.cell_path(victim)
    with open(path, "r+b") as fh:  # flip one byte mid-artifact
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))

    runner = CampaignRunner(spec, store=store, resume=True)
    runner.run(progress=lambda cell, status: print(f"  {status:<9} {cell.key}"))
    after = open(os.path.join(out, "report.json"), "rb").read()
    print(f"  quarantined {runner.quarantined} cell(s), re-ran {runner.executed}")
    print(f"  post-mortem copy kept under {out}/quarantine/")
    print(f"  report byte-identical to the pre-corruption run: {before == after}")
    assert runner.quarantined == 1 and before == after


def graceful_quarantine():
    """An unrecoverable schedule degrades into DeviceFailure records."""
    print("\n== retry budget exhausted: quarantine, not a crash ==")
    spec = SCENARIOS.build("solar-farm-100", num_devices=4)
    # Fault every dispatch this tiny fleet can make: no retry can win.
    plan = FaultPlan([Fault("fleet.chunk", i, "exception") for i in range(32)])
    with chaos(plan):
        result = FleetRunner(
            spec, retry=RetryPolicy(max_retries=1, backoff_s=0.0)
        ).run()
    for failure in result.failures:
        print(
            f"  device {failure.index} ({failure.name}): gave up at "
            f"stage={failure.stage!r} after {failure.attempts} attempt(s)"
        )
    print(
        f"  completed {len(result.devices)}/{spec.num_devices} devices; "
        "aggregate still renders"
    )
    assert result.num_failures == spec.num_devices


if __name__ == "__main__":
    serial_fleet_survives_a_plan()
    dead_worker_lease_is_stolen()
    checkpoint_rot_heals_on_resume()
    graceful_quarantine()
    print("\nchaos demo complete: every report matched, every wound healed.")
