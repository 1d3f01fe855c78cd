"""Fault-tolerant fleet execution: retries, degradation, quarantine, leases.

The contract under test: for any *recoverable* injected fault schedule —
crashes, raised exceptions, hangs, transient OSErrors, corrupted
payloads, and killed or stopped drain children — the completed
:class:`FleetResult` is bit-identical to a fault-free run, with the
recovery visible only in ``fleet.retry.*`` / ``fleet.shard.*`` /
``fault.injected.*`` counters.  Truly unrecoverable
devices are quarantined as :class:`DeviceFailure` records instead of
aborting the fleet, and spec problems (:class:`ConfigError`) are never
retried.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time

import pytest

from repro.errors import ConfigError, IntegrityError
from repro.faults import Fault, FaultPlan, RetryPolicy, chaos
from repro.fleet import DeviceSpec, FleetRunner, FleetSpec
from repro.fleet.results import (
    DeviceFailure,
    pack_device_results,
    payload_digest,
    seal_payload,
    verify_payload,
)
from repro.fleet.runner import run_device_batch
from repro.obs import Recorder, recording


def tiny_device(name: str) -> DeviceSpec:
    return DeviceSpec(
        name=name,
        trace={"family": "solar", "duration": 400.0, "dt": 1.0, "peak_mw": 0.03},
        controller={"kind": "greedy"},
        events={"kind": "uniform", "count": 15},
    )


def tiny_fleet(n=6, seed=7) -> FleetSpec:
    return FleetSpec(
        name="faults", seed=seed, devices=[tiny_device(f"dev-{i}") for i in range(n)]
    )


def run_clean(spec: FleetSpec) -> dict:
    agg = FleetRunner(spec).run().aggregate()
    agg.pop("wall_s", None)
    return agg


def aggregate_of(result) -> dict:
    agg = result.aggregate()
    agg.pop("wall_s", None)
    return agg


FAST = RetryPolicy(max_retries=3, backoff_s=0.0)


# --------------------------------------------------------------------- #
# Payload integrity primitives
# --------------------------------------------------------------------- #


class TestPayloadIntegrity:
    def test_seal_and_verify_roundtrip(self):
        tasks = [(i, d, 7) for i, d in enumerate(tiny_fleet(2).devices)]
        payload = seal_payload(pack_device_results(run_device_batch(tasks)))
        verify_payload(payload)  # must not raise

    def test_digest_ignores_volatile_keys(self):
        tasks = [(i, d, 7) for i, d in enumerate(tiny_fleet(2).devices)]
        payload = pack_device_results(run_device_batch(tasks))
        base = payload_digest(payload)
        payload["obs"] = {"metrics": {"anything": 1}}
        payload["wall_s"] = 123.4
        assert payload_digest(payload) == base

    def test_corruption_detected(self):
        tasks = [(i, d, 7) for i, d in enumerate(tiny_fleet(2).devices)]
        payload = seal_payload(pack_device_results(run_device_batch(tasks)))
        payload["iepmj"].view("u8")[0] ^= 0xFF
        with pytest.raises(IntegrityError, match="digest"):
            verify_payload(payload)

    def test_missing_digest_detected(self):
        tasks = [(i, d, 7) for i, d in enumerate(tiny_fleet(2).devices)]
        payload = pack_device_results(run_device_batch(tasks))
        with pytest.raises(IntegrityError, match="without a content digest"):
            verify_payload(payload)


# --------------------------------------------------------------------- #
# In-process execution under chaos
# --------------------------------------------------------------------- #


class TestSerialChaos:
    @pytest.mark.parametrize(
        "op", ["exception", "oserror", "crash", "hang", "corrupt_payload"]
    )
    def test_single_fault_recovers_bit_identical(self, op):
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.chunk", 0, op)])
        with chaos(plan) as injector:
            result = FleetRunner(spec, retry=FAST).run()
        assert injector.fired_summary() == {f"fleet.chunk.{op}": 1}
        assert aggregate_of(result) == clean
        assert result.failures == []

    def test_retry_counters_emitted(self):
        spec = tiny_fleet()
        plan = FaultPlan([Fault("fleet.chunk", 0, "exception")])
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            FleetRunner(spec, retry=FAST).run()
        assert rec.metrics.counter_value("fleet.retry.failures") == 1
        assert rec.metrics.counter_value("fleet.retry.attempts") == 1
        assert rec.metrics.counter_value("fault.injected.fleet.chunk.exception") == 1

    def test_config_error_never_retried(self):
        spec = FleetSpec(
            name="bad",
            seed=1,
            devices=[tiny_device("ok"), tiny_device("bad-profile")],
        )
        # An unknown profile only explodes at execution time, inside the
        # chunk — exactly where retry must NOT mask it.
        object.__setattr__(spec.devices[1], "profile", "mystery-net")
        plan = FaultPlan([])
        with chaos(plan) as injector, pytest.raises(ConfigError):
            FleetRunner(spec, retry=FAST).run()
        # one dispatch attempt, no retries
        assert injector.occurrences("fleet.chunk") == 1

    @pytest.mark.parametrize("path", ["missing.csv", "."], ids=["missing", "directory"])
    def test_unreadable_csv_is_a_config_error_not_a_retry(self, tmp_path, path):
        """A csv trace that cannot be read is a spec problem: it must
        raise at once, not walk the ladder into a quarantine that leaves
        a "finished" fleet with no devices."""
        bad = DeviceSpec(
            name="csv-dev",
            trace={"family": "csv", "path": str(tmp_path / path), "dt": 1.0},
        )
        spec = FleetSpec(name="bad-csv", seed=1, devices=[tiny_device("ok"), bad])
        with recording(Recorder(metrics=True)) as rec:
            with pytest.raises(ConfigError, match="cannot read CSV"):
                FleetRunner(spec, retry=FAST).run()
        counters = rec.metrics.names()["counters"]
        assert not [name for name in counters if name.startswith("fleet.retry.")]
        assert rec.metrics.counter_value("fleet.devices.quarantined") == 0

    def test_quarantine_after_ladder_exhausted(self):
        spec = tiny_fleet(n=1, seed=3)
        # Retry budget 0 → attempts: chunk (occurrence 0) then the final
        # in-parent serial attempt (occurrence 1); fault both.
        plan = FaultPlan(
            [
                Fault("fleet.chunk", 0, "exception"),
                Fault("fleet.chunk", 1, "exception"),
            ]
        )
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(
                spec, retry=RetryPolicy(max_retries=0, backoff_s=0.0)
            ).run()
        assert result.num_devices == 0
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, DeviceFailure)
        assert failure.index == 0 and failure.name == "dev-0"
        assert failure.stage == "serial"
        assert "InjectedFault" in failure.error
        assert rec.metrics.counter_value("fleet.devices.quarantined") == 1
        agg = result.aggregate()
        assert agg["failures"][0]["name"] == "dev-0"

    def test_fully_quarantined_fleet_aggregates_to_documented_zeros(self):
        """Losing EVERY device must degrade to a well-formed zero report.

        The aggregate's divisions (fleet IEpmJ, accuracy, exit depth) and
        percentile tables all hit their empty-input branches at once; each
        must produce its documented zero instead of raising.
        """
        spec = tiny_fleet(n=2, seed=5)
        plan = FaultPlan(
            [Fault("fleet.chunk", i, "exception") for i in range(8)]
        )
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(
                spec, retry=RetryPolicy(max_retries=0, backoff_s=0.0)
            ).run()
        assert result.num_devices == 0
        assert len(result.failures) == 2
        assert rec.metrics.counter_value("fleet.devices.quarantined") == 2
        agg = result.aggregate()
        assert agg["devices"] == 0
        assert agg["events"] == 0
        assert agg["fleet_iepmj"] == 0.0
        assert agg["average_accuracy"] == 0.0
        assert agg["mean_exit_depth"] == 0.0
        assert agg["exit_counts"] == []
        assert agg["miss_counts"] == {}
        assert agg["device_iepmj_percentiles"] == {
            "p10": 0.0, "p50": 0.0, "p90": 0.0
        }
        assert sorted(f["name"] for f in agg["failures"]) == ["dev-0", "dev-1"]
        # The zero report must survive serialization and re-aggregation.
        json.dumps(result.to_dict(include_timing=True))

    def test_multi_device_chunk_splits_before_quarantine(self):
        spec = tiny_fleet(n=4, seed=9)
        clean = run_clean(spec)
        # Exhaust the whole-chunk budget (occurrences 0 and 1), forcing a
        # split; the per-device re-runs (occurrences 2..5) run clean.
        plan = FaultPlan(
            [
                Fault("fleet.chunk", 0, "exception"),
                Fault("fleet.chunk", 1, "exception"),
            ]
        )
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(
                spec, retry=RetryPolicy(max_retries=1, backoff_s=0.0)
            ).run()
        assert rec.metrics.counter_value("fleet.retry.splits") == 1
        assert aggregate_of(result) == clean

    def test_real_failure_without_chaos_takes_the_ladder(self, monkeypatch):
        """Chaos off, the first attempt is a bare engine call; a genuine
        failure still walks the same recovery ladder."""
        import repro.fleet.runner as runner

        spec = tiny_fleet()
        clean = run_clean(spec)
        calls = []

        def flaky(tasks, engine="batched"):
            calls.append(len(tasks))
            if len(calls) == 1:
                raise OSError("transient")
            return run_device_batch(tasks, engine)

        monkeypatch.setattr(runner, "run_device_batch", flaky)
        with recording(Recorder(metrics=True)) as rec:
            result = FleetRunner(spec, retry=FAST).run()
        assert calls == [6, 6]
        assert aggregate_of(result) == clean
        assert rec.metrics.counter_value("fleet.retry.attempts") == 1

    def test_fault_free_plan_changes_nothing(self):
        spec = tiny_fleet()
        clean = run_clean(spec)
        with chaos(FaultPlan([])):
            result = FleetRunner(spec, retry=FAST).run()
        assert aggregate_of(result) == clean


# --------------------------------------------------------------------- #
# Parallel (shard-drained) execution under faults
# --------------------------------------------------------------------- #


def slow_fleet() -> FleetSpec:
    """Four devices at ~0.3 s each: two shards slow enough that a signal
    lands while a drain child is mid-shard."""
    devices = [
        DeviceSpec(
            name=f"slow-{i}",
            trace={"family": "solar", "duration": 40000.0, "dt": 1.0, "peak_mw": 0.03},
            controller={"kind": "qlearning"},
            events={"kind": "uniform", "count": 20000},
        )
        for i in range(4)
    ]
    return FleetSpec(name="slow", seed=21, devices=devices)


def child_lease(root: str):
    """``(pid, shard key)`` of a drain child's lease in any ledger under
    ``root``, or ``None`` while no child holds one."""
    for path in glob.glob(os.path.join(root, "*", "leases", "*.lease")):
        try:
            with open(path) as fh:
                pid = json.load(fh)["pid"]
        except (OSError, ValueError, KeyError):
            continue  # not yet written, or just released
        if pid != os.getpid():
            return pid, os.path.basename(path)[: -len(".lease")]
    return None


def run_with_signal(spec, root: str, on_lease) -> tuple:
    """Run ``spec`` on two workers while a watcher thread waits for a
    drain child to hold a lease and calls ``on_lease(pid, key, stop)``;
    ``stop`` is set once the run has returned."""
    stop = threading.Event()
    hit = []

    def watcher():
        while not stop.is_set():
            found = child_lease(root)
            if found is not None:
                hit.append(found)
                on_lease(*found, stop)
                return
            time.sleep(0.001)

    thread = threading.Thread(target=watcher)
    with recording(Recorder(metrics=True)) as rec:
        thread.start()
        try:
            result = FleetRunner(spec, workers=2, retry=FAST).run()
        finally:
            stop.set()
            thread.join()
    assert hit, "no drain child ever held a lease"
    return result, rec


@pytest.fixture
def short_leases(tmp_path, monkeypatch):
    """Throwaway ledgers under ``tmp_path``, with a 0.3 s lease TTL."""
    import repro.fleet.shards as shards

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(shards, "DEFAULT_LEASE_TTL_S", 0.3)
    return str(tmp_path)


@pytest.mark.usefixtures("force_parallel")
class TestPooledChaos:
    """``FleetRunner(workers=2)`` under faults.

    The drain children are the worker pool.  Process-level faults map
    onto the shard ledger: a crashed child's shard is stolen once its
    lease expires, a hung child's lease expires the same way and its
    late publish is digest-verified, a corrupt artifact is quarantined
    and re-executed.  ``fleet.chunk`` faults go through the recovery
    ladder of the process that armed the plan; children run disarmed.
    """

    def test_worker_crash_recovers_bit_identical(self, parent_drains_first):
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.chunk", 0, "crash")])
        with recording(Recorder(metrics=True)) as rec, chaos(plan) as injector:
            result = FleetRunner(spec, workers=2, retry=FAST).run()
        assert aggregate_of(result) == clean
        assert injector.fired_summary() == {"fleet.chunk.crash": 1}
        assert rec.metrics.counter_value("fleet.retry.attempts") == 1

    def test_hang_straggler_verified_bit_identical(self, short_leases):
        spec = slow_fleet()
        clean = run_clean(spec)

        def hang_until_stolen(pid, key, stop):
            os.kill(pid, signal.SIGSTOP)
            try:
                artifact = glob.glob(
                    os.path.join(short_leases, "*", "shards", f"{key}.json")
                )
                while not artifact and not stop.is_set():
                    time.sleep(0.005)
                    artifact = glob.glob(
                        os.path.join(short_leases, "*", "shards", f"{key}.json")
                    )
            finally:
                os.kill(pid, signal.SIGCONT)

        result, rec = run_with_signal(spec, short_leases, hang_until_stolen)
        assert aggregate_of(result) == clean
        assert rec.metrics.counter_value("fleet.shard.leases_stolen") >= 1
        # The woken child finished the shard anyway; its publish lost the
        # race and matched the thief's artifact bit for bit (the count
        # comes home with the child's metrics).
        assert rec.metrics.counter_value("fleet.shard.straggler_verified") >= 1

    def test_corrupt_payload_detected_and_retried(self, parent_drains_first):
        spec = tiny_fleet()
        clean = run_clean(spec)
        plan = FaultPlan([Fault("fleet.shard.save", 0, "bitflip")])
        with recording(Recorder(metrics=True)) as rec, chaos(plan):
            result = FleetRunner(spec, workers=2, retry=FAST).run()
        assert aggregate_of(result) == clean
        assert rec.metrics.counter_value("fleet.shard.quarantined") == 1

    def test_sigkill_a_pool_child_mid_run(self, short_leases):
        spec = slow_fleet()
        clean = FleetRunner(spec).run().to_dict()

        def kill(pid, key, stop):
            os.kill(pid, signal.SIGKILL)

        result, rec = run_with_signal(spec, short_leases, kill)
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            clean, sort_keys=True
        )
        assert rec.metrics.counter_value("fleet.shard.leases_stolen") >= 1
        assert multiprocessing.active_children() == []

    def test_pool_children_reaped_when_run_raises(self, short_leases):
        """A run that raises leaves no drain child and no ledger behind."""
        spec = FleetSpec(
            name="leak", seed=1, devices=[tiny_device(f"d{i}") for i in range(4)]
        )
        object.__setattr__(spec.devices[2], "profile", "mystery-net")
        with pytest.raises(ConfigError):
            FleetRunner(spec, workers=2).run()
        assert multiprocessing.active_children() == []
        assert os.listdir(short_leases) == []


# --------------------------------------------------------------------- #
# Plan replay determinism end to end
# --------------------------------------------------------------------- #


def test_replayed_plan_reproduces_fault_schedule(tmp_path):
    spec = tiny_fleet()
    plan = FaultPlan(
        [
            Fault("fleet.chunk", 0, "exception"),
            Fault("fleet.chunk", 1, "corrupt_payload"),
        ]
    )
    path = tmp_path / "plan.json"
    plan.to_json(str(path))

    def run_once():
        with chaos(FaultPlan.from_json(str(path))) as injector:
            result = FleetRunner(spec, retry=FAST).run()
        return injector.fired_summary(), aggregate_of(result)

    first, second = run_once(), run_once()
    assert first == second
    assert first[0] == {
        "fleet.chunk.exception": 1,
        "fleet.chunk.corrupt_payload": 1,
    }
    clean_json = json.dumps(run_clean(spec), sort_keys=True, default=str)
    assert json.dumps(first[1], sort_keys=True, default=str) == clean_json
