"""Golden-fleet regression tests.

The fleet layer promises that a (scenario, seed) pair pins results
bit-for-bit: across runs, across worker counts, and across refactors of
the trace/simulator/aggregation hot path.  The campaign layer's resume
guarantee (interrupted == uninterrupted, byte-identical reports) is built
directly on that promise, so it gets locked in here against committed
reference aggregates under ``tests/golden/``.

Aggregates are compared **exactly** — including float bits.  JSON numbers
round-trip exactly through Python floats (``repr`` <-> parse), so any
mismatch means the simulation arithmetic actually changed.  If a change
is intentional, regenerate every golden with::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.fleet import SCENARIOS, FleetRunner
    CASES = [("dev-smoke", {}), ("dev-smoke", {"num_devices": 4}),
             ("solar-farm-100", {"num_devices": 4}),
             ("indoor-rf-swarm", {"num_devices": 4}),
             ("mixed-harvester-city", {"num_devices": 4}),
             ("city-block-1k", {"num_devices": 4}),
             ("brownout-grid-256", {"num_devices": 4}),
             ("duty-cycle-farm-512", {"num_devices": 4}),
             ("megacity-1m", {"num_devices": 4})]
    for scenario, overrides in CASES:
        result = FleetRunner(SCENARIOS.build(scenario, **overrides), workers=1).run()
        suffix = f"{overrides['num_devices']}dev" if overrides else "default"
        with open(f"tests/golden/fleet_{scenario}_{suffix}.json", "w") as fh:
            json.dump({"scenario": scenario, "overrides": overrides,
                       "aggregate": result.aggregate()}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    EOF

and say why in the commit message — a silent regeneration defeats the net.

``golden/csv_fleet.json`` pins a measured-trace replay instead of a
scenario: the spec file it names (``tests/data/csv_fleet.json``, csv
paths relative to the repo root) puts one- and two-column csv traces on
single-cycle and intermittent devices.  Its aggregate was recorded with
the per-device simulator, before the lockstep engine took csv traces, so
the engine is checked against an independent oracle.  Its name keeps it
out of the ``fleet_*.json`` glob.
"""

import glob
import json
import os

import pytest

from repro.fleet import SCENARIOS, FleetRunner, FleetSpec
from repro.fleet.shards import FleetShardSource, run_sharded
from repro.gateway import FleetTwin

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")
GOLDEN_FILES = sorted(glob.glob(os.path.join(GOLDEN_DIR, "fleet_*.json")))
CSV_GOLDEN = os.path.join(GOLDEN_DIR, "csv_fleet.json")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _case_id(path):
    return os.path.basename(path)[len("fleet_"):-len(".json")]


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=_case_id)
def test_serial_aggregate_matches_golden(path):
    golden = _load(path)
    spec = SCENARIOS.build(golden["scenario"], **golden["overrides"])
    result = FleetRunner(spec, workers=1).run()
    # json round-trip normalizes int/float types the same way the golden
    # file stores them, so == is an exact (bit-stable) comparison.
    assert json.loads(json.dumps(result.aggregate())) == golden["aggregate"]


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=_case_id)
@pytest.mark.parametrize("engine", ["batched", "device"])
def test_engine_choice_matches_golden(path, engine):
    """The lockstep batched engine must reproduce the same bits as the
    per-device path on every golden (the PR-4 determinism contract)."""
    golden = _load(path)
    spec = SCENARIOS.build(golden["scenario"], **golden["overrides"])
    # Every registered scenario is fully batch-eligible since PR 5
    # (intermittent execution and continue rules batch too), so the
    # strict "batched" engine must reproduce every golden directly.
    result = FleetRunner(spec, workers=1, engine=engine).run()
    assert json.loads(json.dumps(result.aggregate())) == golden["aggregate"]


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=_case_id)
def test_parallel_aggregate_matches_golden(path, force_parallel):
    """Drain processes must reproduce the same bits as the serial run.

    ``force_parallel`` lifts the fallback (these fleets are below the
    device floor, and the whole point here is to exercise the shard
    drain, the sealed artifacts and the per-device rebuild end to end).
    """
    golden = _load(path)
    spec = SCENARIOS.build(golden["scenario"], **golden["overrides"])
    result = FleetRunner(spec, workers=2).run()
    assert json.loads(json.dumps(result.aggregate())) == golden["aggregate"]


def test_goldens_exist_for_every_scenario():
    """Adding a scenario to the registry requires committing its golden."""
    covered = {_load(p)["scenario"] for p in GOLDEN_FILES}
    assert covered == set(SCENARIOS.names())


@pytest.fixture
def csv_golden(monkeypatch):
    """``(spec, golden aggregate)`` of the csv replay, run from the repo
    root so the spec's relative csv paths resolve."""
    monkeypatch.chdir(os.path.dirname(TESTS_DIR))
    golden = _load(CSV_GOLDEN)
    return FleetSpec.from_json(golden["spec"]), golden["aggregate"]


@pytest.mark.parametrize("engine", ["batched", "device"])
def test_csv_golden_engines(csv_golden, engine):
    spec, aggregate = csv_golden
    result = FleetRunner(spec, engine=engine).run()
    assert json.loads(json.dumps(result.aggregate())) == aggregate


def test_csv_golden_parallel(csv_golden, force_parallel):
    spec, aggregate = csv_golden
    result = FleetRunner(spec, workers=2).run()
    assert json.loads(json.dumps(result.aggregate())) == aggregate


def test_csv_golden_sharded(csv_golden, tmp_path):
    spec, aggregate = csv_golden
    result = run_sharded(
        FleetShardSource(spec), str(tmp_path / "ledger"), shards=3, workers=2
    )
    assert json.loads(json.dumps(result.aggregate())) == aggregate


def test_csv_golden_gateway_incremental(csv_golden):
    """In-process twins replay csv traces (only the gateway's create and
    submit verbs refuse them)."""
    spec, aggregate = csv_golden
    twin = FleetTwin.from_spec(spec.to_dict())
    while not twin.finished:
        twin.advance(2)
    assert json.loads(json.dumps(twin.query("aggregate"))) == aggregate
