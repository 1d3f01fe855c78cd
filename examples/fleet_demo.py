"""Fleet simulation quickstart (mirrors examples/solar_sensor_node.py).

Three ways to drive :mod:`repro.fleet`:

1. run a registered scenario by name (what the CLI does);
2. compose a custom heterogeneous fleet from :class:`DeviceSpec`s and
   round-trip it through JSON;
3. scale workers — one device-axis shard per drain process — and verify
   the parallel run is bit-identical to serial.

Run:  python examples/fleet_demo.py
"""

import json
import os
import tempfile

from repro.fleet import SCENARIOS, DeviceSpec, FleetRunner, FleetSpec, run_fleet


def report(result):
    agg = result.aggregate()
    print(
        f"  {agg['fleet']:<24} {agg['devices']:3d} devices  "
        f"IEpmJ {agg['fleet_iepmj']:.3f}  acc {agg['average_accuracy']:.3f}  "
        f"misses {agg['miss_counts']}  "
        f"({result.wall_s:.2f}s, {result.devices_per_second:.0f} dev/s)"
    )


def run_named_scenario():
    """A registered scenario, scaled down for a quick demo."""
    print("\n== named scenario (solar-farm-100, scaled to 20 devices) ==")
    spec = SCENARIOS.build("solar-farm-100", num_devices=20)
    report(run_fleet(spec, workers=1))


def run_custom_fleet():
    """Hand-built heterogeneous fleet, round-tripped through JSON."""
    print("\n== custom fleet: one solar roof, one wind mast, one piezo mount ==")
    devices = [
        DeviceSpec(
            name="roof",
            trace={"family": "solar", "duration": 3600.0, "dt": 1.0, "peak_mw": 0.03},
            controller={"kind": "qlearning", "epsilon": 0.25},
            events={"kind": "uniform", "count": 40},
            episodes=3,
        ),
        DeviceSpec(
            name="mast",
            trace={"family": "wind", "duration": 3600.0, "dt": 0.5, "peak_mw": 0.06},
            controller={"kind": "greedy", "reserve_fraction": 0.2},
            events={"kind": "poisson", "rate_hz": 0.01},
        ),
        DeviceSpec(
            name="mount",
            trace={"family": "piezo", "duration": 3600.0, "dt": 0.5, "duty_cycle": 0.5},
            controller={"kind": "static-lut"},
            events={"kind": "burst", "num_bursts": 6, "events_per_burst": 5},
        ),
    ]
    spec = FleetSpec(name="demo-trio", seed=11, devices=devices)
    path = os.path.join(tempfile.gettempdir(), "demo-trio.json")
    spec.to_json(path)
    reloaded = FleetSpec.from_json(path)
    result = run_fleet(reloaded)
    report(result)
    for d in result.devices:
        print(
            f"    {d.name:<6} IEpmJ {d.iepmj:.3f}  processed {d.num_processed}/"
            f"{d.num_events}  p90 latency {d.latency_percentiles['p90']:.1f}s"
        )


def run_parallel_equivalence():
    """Worker count changes wall time, never results.

    ``workers=2`` drains two shards (a forked child plus this process)
    through a throwaway ledger; a one-CPU machine runs it in-process.
    """
    print("\n== parallel == serial (deterministic per-device seeding) ==")
    spec = SCENARIOS.build("indoor-rf-swarm", num_devices=16)
    serial = FleetRunner(spec, workers=1).run()
    runner = FleetRunner(spec, workers=2)
    parallel = runner.run()
    report(serial)
    report(parallel)
    print(f"  parallel run drained shards: {runner.last_run_parallel}")
    match = json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True
    )
    print(f"  aggregate reports identical: {match}")


def main():
    run_named_scenario()
    run_custom_fleet()
    run_parallel_equivalence()


if __name__ == "__main__":
    main()
