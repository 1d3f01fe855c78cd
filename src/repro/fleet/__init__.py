"""Multi-device fleet simulation.

The paper evaluates one device against one trace; real energy-harvesting
studies deploy *fleets* — hundreds of heterogeneous nodes with distinct
harvesters, capacitors, MCUs, deployed models, and runtime policies.  This
package layers that on top of :mod:`repro.sim`:

* :mod:`repro.fleet.spec` — declarative :class:`DeviceSpec` /
  :class:`FleetSpec` with JSON round-trip;
* :mod:`repro.fleet.scenarios` — the :data:`SCENARIOS` registry of named,
  parameterized fleets (``solar-farm-100``, ``indoor-rf-swarm``,
  ``mixed-harvester-city``, ``dev-smoke``);
* :mod:`repro.fleet.runner` — :class:`FleetRunner`, which executes every
  device through the lockstep batched engine (:mod:`repro.sim.batch`), or
  through the per-device simulator that is its oracle
  (``engine="batched"|"device"``, bit-identical), in-process or — with
  ``workers > 1`` — over forked
  drain processes that each take a device-axis shard, with deterministic
  per-device seeding (worker count never changes results) and an
  in-process fallback whenever forking cannot win;
* :mod:`repro.fleet.results` — :class:`DeviceResult` / :class:`FleetResult`
  aggregation (fleet IEpmJ, miss-reason breakdowns, percentile spreads);
* :mod:`repro.fleet.shards` — crash-safe scale-out: split a fleet into
  device-shards executing through a durable, work-stealing shard ledger
  (:func:`run_sharded`), with byte-identical merged aggregates, resume
  after SIGKILL, and memory-bounded streaming toward ``megacity-1m``.

CLI: ``python -m repro.fleet run solar-farm-100 --workers 4 --json out.json``
or, sharded: ``python -m repro.fleet run brownout-grid-256 --shards 8
--ledger led/ --workers 4``.
"""

from repro.fleet.results import (
    DeviceFailure,
    DeviceResult,
    FleetResult,
    ShardAggregator,
)
from repro.fleet.runner import (
    FleetRunner,
    run_device,
    run_device_batch,
    run_fleet,
)
from repro.fleet.scenarios import SCENARIOS, ScenarioRegistry
from repro.fleet.shards import (
    FleetShardSource,
    ScenarioShardSource,
    ShardedFleetResult,
    ShardLedger,
    ShardPlan,
    run_sharded,
)
from repro.fleet.spec import DeviceSpec, FleetSpec

__all__ = [
    "DeviceFailure",
    "DeviceResult",
    "DeviceSpec",
    "FleetResult",
    "FleetRunner",
    "FleetShardSource",
    "FleetSpec",
    "SCENARIOS",
    "ScenarioRegistry",
    "ScenarioShardSource",
    "ShardAggregator",
    "ShardedFleetResult",
    "ShardLedger",
    "ShardPlan",
    "run_device",
    "run_device_batch",
    "run_fleet",
    "run_sharded",
]
