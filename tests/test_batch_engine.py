"""Batched lockstep engine equivalence tests (the PR-4 contract).

The batched engine promises **bit-identical** results to the per-device
simulator path for every device: same per-device random streams
(`SeedSequence(fleet_seed, spawn_key=(i,))` consumed in the same order),
same ledger arithmetic, same records.  These tests pin that promise over
every registered scenario, every controller preset, the parallel
shard-drain path, and (via hypothesis) randomly composed small fleets.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fleet import SCENARIOS, DeviceSpec, FleetRunner, FleetSpec
from repro.fleet.results import pack_device_results, unpack_device_results
from repro.fleet.runner import run_device, run_device_batch
from repro.runtime.controller import CONTROLLER_PRESETS, controller_preset
from repro.sim.batch import BatchedFleetEngine

#: Tracked measurement files: one column (power, needs ``dt``) and two
#: columns (time, power).
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CSV_1COL = os.path.join(DATA_DIR, "power_1col.csv")
CSV_2COL = os.path.join(DATA_DIR, "power_2col.csv")

#: Small overrides that keep every scenario in the seconds range.
SCENARIO_CASES = [(name, {"num_devices": 4}) for name in SCENARIOS.names()]


def _payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _rows(results) -> str:
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


class TestScenarioEquivalence:
    @pytest.mark.parametrize("name,overrides", SCENARIO_CASES,
                             ids=[c[0] for c in SCENARIO_CASES])
    def test_batched_equals_device_equals_pooled(
        self, name, overrides, force_parallel
    ):
        spec = SCENARIOS.build(name, **overrides)
        batched = FleetRunner(spec, workers=1, engine="batched").run()
        device = FleetRunner(spec, workers=1, engine="device").run()
        pooled = FleetRunner(spec, workers=2).run()
        assert _payload(batched) == _payload(device)
        assert _payload(batched) == _payload(pooled)

    def test_every_registered_scenario_is_fully_batch_eligible(self):
        """Every registered device class builds into one lockstep engine
        (the engine groups every single-cycle controller and rule)."""
        for name in SCENARIOS.names():
            spec = SCENARIOS.build(name, num_devices=8)
            tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
            assert len(BatchedFleetEngine(tasks).devices) == 8, name


class TestContinueRuleEquivalence:
    """Bit-identity of the batched incremental-inference path."""

    def _fleet(self, rule, controller_kind="qlearning", execution="single-cycle"):
        devices = []
        for i in range(5):
            controller = {"kind": controller_kind}
            if controller_kind == "greedy":
                controller["reserve_fraction"] = 0.1
            if rule is not None:
                controller["continue_rule"] = dict(rule)
            devices.append(
                DeviceSpec(
                    name=f"r{i}",
                    trace={"family": "solar", "duration": 500.0, "dt": 1.0,
                           "peak_mw": 0.04},
                    controller=controller,
                    events={"kind": "uniform", "count": 25},
                    episodes=2,
                    execution=execution,
                )
            )
        return FleetSpec(name="rule-fleet", seed=29, devices=devices)

    @pytest.mark.parametrize("rule", [
        {"kind": "threshold", "entropy_threshold": 0.35},
        {"kind": "learned"},
        {"kind": "learned", "epsilon": 0.3, "epsilon_decay": 0.95},
    ], ids=["threshold", "learned", "learned-tuned"])
    @pytest.mark.parametrize("kind", ["qlearning", "greedy"])
    def test_rule_fleets_bit_identical(self, rule, kind):
        spec = self._fleet(rule, controller_kind=kind)
        batched = FleetRunner(spec, workers=1, engine="batched").run()
        device = FleetRunner(spec, workers=1, engine="device").run()
        assert _payload(batched) == _payload(device)

    def test_continuations_actually_happen(self):
        """Guard against the continue loop silently never firing (which
        would make the equivalence tests vacuous)."""
        spec = self._fleet({"kind": "threshold", "entropy_threshold": 0.1})
        result = FleetRunner(spec, workers=1, engine="batched").run()
        agg = result.aggregate()
        assert agg["mean_exit_depth"] > 0.0
        assert agg["processed"] > 0


class TestIntermittentEquivalence:
    """Bit-identity of the vectorized multi-cycle kernel."""

    def _fleet(self, mean_mw, capacity=1.0, initial=0.3, events=20, n=6):
        devices = [
            DeviceSpec(
                name=f"i{i}",
                trace={"family": "rf", "duration": 1000.0, "dt": 1.0,
                       "mean_mw": mean_mw},
                profile="sonic-single-exit",
                controller={"kind": "fixed", "exit_index": 0},
                storage={"capacity_mj": capacity, "initial_fraction": initial},
                events={"kind": "poisson", "rate_hz": events / 1000.0},
                execution="intermittent",
            )
            for i in range(n)
        ]
        return FleetSpec(name="int-fleet", seed=41, devices=devices)

    @pytest.mark.parametrize("mean_mw", [0.003, 0.01, 0.05],
                             ids=["starved", "weak", "comfortable"])
    def test_all_intermittent_fleet_bit_identical(self, mean_mw):
        spec = self._fleet(mean_mw)
        batched = FleetRunner(spec, workers=1, engine="batched").run()
        device = FleetRunner(spec, workers=1, engine="device").run()
        assert _payload(batched) == _payload(device)

    def test_starved_fleet_reaches_deadline_misses(self):
        """The starved regime must actually exercise the incomplete-run
        branch (deadline miss with latency + power-cycle counts)."""
        result = FleetRunner(
            self._fleet(0.003), workers=1, engine="batched"
        ).run()
        assert result.aggregate()["miss_counts"].get("energy", 0) > 0

    def test_multi_cycle_runs_happen(self):
        result = FleetRunner(
            self._fleet(0.01), workers=1, engine="batched"
        ).run()
        processed = result.aggregate()["processed"]
        assert processed > 0


class TestPresetEquivalence:
    @pytest.mark.parametrize("preset", sorted(CONTROLLER_PRESETS))
    def test_every_preset_is_bit_identical(self, preset):
        base = SCENARIOS.build("dev-smoke", num_devices=4)
        devices = [
            DeviceSpec(**{**d.to_dict(), "controller": controller_preset(preset)})
            for d in base.devices
        ]
        spec = FleetSpec(name=f"preset-{preset}", seed=11, devices=devices)
        batched = FleetRunner(spec, workers=1, engine="batched").run()
        device = FleetRunner(spec, workers=1, engine="device").run()
        assert _payload(batched) == _payload(device)


class TestEligibility:
    """Which devices the lockstep engine takes: every device a fleet spec
    can express, so there is no per-device fallback to select."""

    def test_intermittent_is_now_eligible(self):
        """Both execution models run in one engine, in index order."""
        spec = SCENARIOS.build("mixed-harvester-city", num_devices=12)
        assert {d.execution for d in spec.devices} == {
            "single-cycle", "intermittent"
        }
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        results = BatchedFleetEngine(tasks).run()
        assert [r.index for r in results] == list(range(12))
        assert _rows(results) == _rows(run_device(t) for t in tasks)

    def test_continue_rule_devices_are_eligible(self):
        for rule in (
            {"kind": "threshold", "entropy_threshold": 0.4},
            {"kind": "learned"},
        ):
            d = DeviceSpec(
                name="rule-dev",
                trace={"family": "constant", "power_mw": 0.02, "duration": 100.0},
                controller={"kind": "qlearning", "continue_rule": rule},
            )
            tasks = [(0, d, 5)]
            assert _rows(BatchedFleetEngine(tasks).run()) == _rows(
                [run_device(tasks[0])]
            )

    def test_csv_devices_run_in_the_engine(self):
        """Measured-trace replays (one- and two-column files, both
        execution models) batch like any seeded trace."""
        one, two = CSV_1COL, CSV_2COL
        devices = [
            DeviceSpec(name=f"csv-{i}", trace=trace, execution=execution,
                       events={"kind": "uniform", "count": 15})
            for i, (trace, execution) in enumerate([
                ({"family": "csv", "path": one, "dt": 1.0}, "single-cycle"),
                ({"family": "csv", "path": two}, "single-cycle"),
                ({"family": "csv", "path": one, "dt": 0.5}, "intermittent"),
                ({"family": "csv", "path": two}, "intermittent"),
            ])
        ]
        tasks = [(i, d, 13) for i, d in enumerate(devices)]
        assert _rows(BatchedFleetEngine(tasks).run()) == _rows(
            run_device(t) for t in tasks
        )

    def test_live_continue_rule_is_a_config_error(self):
        """A live rule object would be shared (and trained) by every
        device built from the spec, and has no JSON form for the spec
        digest: DeviceSpec refuses it, naming the device."""
        from repro.runtime.incremental import IncrementalDecider, ThresholdContinue

        for rule in (ThresholdContinue(0.5), IncrementalDecider(rng=0)):
            with pytest.raises(ConfigError, match="live-rule.*continue_rule"):
                DeviceSpec(
                    name="live-rule",
                    trace={"family": "constant", "power_mw": 0.05,
                           "duration": 50.0},
                    controller={"kind": "greedy", "continue_rule": rule},
                )

    def test_unknown_engine_rejected(self):
        for engine in ("warp", "auto"):
            with pytest.raises(ConfigError, match="engine"):
                FleetRunner(SCENARIOS.build("dev-smoke"), engine=engine)
            with pytest.raises(ConfigError, match="engine"):
                run_device_batch([], engine=engine)


class TestRunDeviceBatch:
    def test_matches_per_device_loop(self):
        spec = SCENARIOS.build("dev-smoke", num_devices=5)
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        batch = run_device_batch(tasks)
        loop = [run_device(t) for t in tasks]
        assert json.dumps([r.to_dict() for r in batch], sort_keys=True) == \
            json.dumps([r.to_dict() for r in loop], sort_keys=True)

    def test_engine_device_bypasses_lockstep(self):
        spec = SCENARIOS.build("dev-smoke", num_devices=3)
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        assert json.dumps(
            [r.to_dict() for r in run_device_batch(tasks, engine="device")],
            sort_keys=True,
        ) == json.dumps(
            [r.to_dict() for r in run_device_batch(tasks, engine="batched")],
            sort_keys=True,
        )


class TestPackedWireForm:
    def test_round_trip_is_exact(self):
        spec = SCENARIOS.build("mixed-harvester-city", num_devices=12)
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        results = run_device_batch(tasks)
        clones = unpack_device_results(pack_device_results(results))
        assert json.dumps(
            [r.to_dict(include_timing=True) for r in results], sort_keys=True
        ) == json.dumps(
            [r.to_dict(include_timing=True) for r in clones], sort_keys=True
        )
        # Plain Python types after the round trip (JSON-safe without
        # numpy-aware encoders).
        clone = clones[0]
        assert type(clone.index) is int
        assert type(clone.iepmj) is float
        assert all(type(c) is int for c in clone.exit_counts)
        assert all(type(v) is int for v in clone.miss_counts.values())

    def test_packed_payload_is_smaller_than_dataclass_pickle(self):
        import pickle

        spec = SCENARIOS.build("solar-farm-100", num_devices=16)
        tasks = [(i, d, spec.seed) for i, d in enumerate(spec.devices)]
        results = run_device_batch(tasks)
        packed = len(pickle.dumps(pack_device_results(results)))
        plain = len(pickle.dumps(results))
        assert packed < plain


class TestParallelFallback:
    def test_small_fleet_falls_back_to_serial(self):
        spec = SCENARIOS.build("dev-smoke", num_devices=5)
        runner = FleetRunner(spec, workers=4)
        result = runner.run()
        assert not runner.last_run_parallel
        assert result.workers == 1  # timing section reports what really ran

    def test_explicit_threshold_forces_pool(self, force_parallel):
        """Lifting the device floor and the CPU check takes the shard
        drain: ``workers`` processes, results identical to in-process."""
        spec = SCENARIOS.build("dev-smoke", num_devices=5)
        runner = FleetRunner(spec, workers=2)
        result = runner.run()
        assert runner.last_run_parallel
        assert result.workers == 2
        assert _payload(result) == _payload(FleetRunner(spec).run())


#: Trace families with cheap synthesis for the property test, plus the
#: tracked csv files.
_FAMILY = st.sampled_from(["solar", "rf", "piezo", "constant", "csv"])
_PRESET = st.sampled_from(sorted(CONTROLLER_PRESETS))
_RULE = st.sampled_from(
    [
        None,
        {"kind": "threshold", "entropy_threshold": 0.4},
        {"kind": "learned"},
    ]
)
#: Weighted toward single-cycle; intermittent still appears regularly.
_EXECUTION = st.sampled_from(
    ["single-cycle", "single-cycle", "intermittent"]
)


@st.composite
def tiny_fleets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    duration = draw(st.sampled_from([200.0, 350.0]))
    devices = []
    for i in range(n):
        family = draw(_FAMILY)
        trace = {"family": family, "duration": duration, "dt": 1.0}
        if family == "constant":
            trace["power_mw"] = draw(st.sampled_from([0.01, 0.04]))
        elif family == "solar":
            trace["peak_mw"] = 0.03
        elif family == "csv":
            trace = draw(st.sampled_from([
                {"family": "csv", "path": CSV_1COL, "dt": 1.0},
                {"family": "csv", "path": CSV_1COL, "dt": 0.25},
                {"family": "csv", "path": CSV_2COL},
            ]))
        events = draw(
            st.sampled_from(
                [{"kind": "uniform", "count": 12}, {"kind": "poisson", "rate_hz": 0.05}]
            )
        )
        execution = draw(_EXECUTION)
        storage = {"capacity_mj": draw(st.sampled_from([1.5, 2.0, 3.0]))}
        if execution == "intermittent" and draw(st.booleans()):
            # Many-cycle stress shape: a weak, steady harvester against a
            # small capacitor forces long charge/compute ladders (dozens
            # of power cycles per event) — exactly the runs the
            # event-batched kernel fuses hardest, so equivalence here
            # guards the fused-chain commit logic, not just the happy
            # one-cycle path.
            trace = {
                "family": "constant", "duration": duration, "dt": 1.0,
                "power_mw": draw(st.sampled_from([0.004, 0.008])),
            }
            storage = {"capacity_mj": draw(st.sampled_from([0.4, 0.7]))}
        controller = controller_preset(draw(_PRESET))
        rule = draw(_RULE)
        if rule is not None:
            controller["continue_rule"] = dict(rule)
        devices.append(
            DeviceSpec(
                name=f"hyp-{i}",
                trace=trace,
                controller=controller,
                storage=storage,
                events=events,
                episodes=draw(st.integers(min_value=1, max_value=2)),
                execution=execution,
            )
        )
    return FleetSpec(
        name="hyp-fleet", seed=draw(st.integers(min_value=0, max_value=2**16)),
        devices=devices,
    )


class TestPropertyEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(spec=tiny_fleets())
    def test_random_small_fleets_agree(self, spec):
        batched = FleetRunner(spec, workers=1, engine="batched").run()
        device = FleetRunner(spec, workers=1, engine="device").run()
        assert _payload(batched) == _payload(device)


@pytest.mark.fleet_heavy
class TestFullScaleBatch:
    def test_city_block_1k_batched_serial_and_parallel_agree(
        self, force_parallel
    ):
        spec = SCENARIOS.build("city-block-1k")
        assert spec.num_devices == 1000
        serial = FleetRunner(spec, workers=1, engine="batched").run()
        parallel = FleetRunner(spec, workers=4).run()
        assert serial.num_devices == 1000
        assert _payload(serial) == _payload(parallel)

    def test_city_block_1k_batched_equals_device_sample(self):
        """Spot-check the engines against each other at real scale on a
        slice (full 1000-device double-run would double the lane's cost)."""
        spec = SCENARIOS.build("city-block-1k", num_devices=64)
        assert _payload(FleetRunner(spec).run()) == _payload(
            FleetRunner(spec, engine="device").run()
        )

    @pytest.mark.parametrize(
        "name", ["brownout-grid-256", "duty-cycle-farm-512"]
    )
    def test_intermittency_heavy_scenarios_full_scale(self, name, force_parallel):
        """The PR-5 scenarios at their registered size: strict batched
        run, serial == parallel, and an engine cross-check on a slice."""
        spec = SCENARIOS.build(name)
        serial = FleetRunner(spec, workers=1, engine="batched").run()
        parallel = FleetRunner(spec, workers=4).run()
        assert _payload(serial) == _payload(parallel)
        small = SCENARIOS.build(name, num_devices=32)
        assert _payload(FleetRunner(small, engine="batched").run()) == \
            _payload(FleetRunner(small, engine="device").run())
