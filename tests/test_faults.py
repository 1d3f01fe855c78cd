"""Unit tests for repro.faults: plans, the injector, and retry policy.

The execution-level behavior (retries, quarantine, checkpoint recovery)
lives in ``test_fleet_faults.py`` / ``test_campaign_faults.py``; this
file locks the data layer — JSON round-trips, (site, occurrence)
matching, seeded plan determinism, injector scoping, and backoff math.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FAULT_SITES,
    Fault,
    FaultInjector,
    FaultPlan,
    NULL_INJECTOR,
    RetryPolicy,
    chaos,
    get_fault_injector,
    set_fault_injector,
)


class TestFault:
    def test_roundtrip(self):
        fault = Fault("fleet.chunk", 3, "hang", {"seconds": 0.2})
        clone = Fault.from_dict(fault.to_dict())
        assert clone == fault
        assert clone.directive() == {"op": "hang", "seconds": 0.2}

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault site"):
            Fault("fleet.meteor", 0, "crash")

    def test_unsupported_op_rejected(self):
        with pytest.raises(ConfigError, match="does not support"):
            Fault("campaign.cell.save", 0, "crash")

    def test_negative_when_rejected(self):
        with pytest.raises(ConfigError, match="'when'"):
            Fault("fleet.chunk", -1, "crash")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault field"):
            Fault.from_dict(
                {"site": "fleet.chunk", "when": 0, "op": "crash", "severity": "high"}
            )

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            Fault.from_dict({"site": "fleet.chunk", "op": "crash"})

    def test_every_registered_op_constructs(self):
        for site, ops in FAULT_SITES.items():
            for op in ops:
                Fault(site, 0, op)


class TestFaultPlan:
    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            [
                Fault("fleet.chunk", 0, "crash"),
                Fault("campaign.cell.save", 2, "truncate", {"keep_frac": 0.3}),
            ],
            seed=11,
            note="pr7",
        )
        path = tmp_path / "plan.json"
        plan.to_json(str(path))
        clone = FaultPlan.from_json(str(path))
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 11 and clone.note == "pr7"

    def test_at_matches_site_and_occurrence_only(self):
        plan = FaultPlan([Fault("fleet.chunk", 2, "exception")])
        assert plan.at("fleet.chunk", 2)[0].op == "exception"
        assert plan.at("fleet.chunk", 1) == []
        assert plan.at("campaign.cell.save", 2) == []

    def test_multiple_faults_same_slot(self):
        plan = FaultPlan(
            [
                Fault("fleet.chunk", 0, "exception"),
                Fault("fleet.chunk", 0, "corrupt_payload"),
            ]
        )
        assert [f.op for f in plan.at("fleet.chunk", 0)] == [
            "exception",
            "corrupt_payload",
        ]

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault plan field"):
            FaultPlan.from_dict({"faults": [], "schedule": "aggressive"})

    def test_non_fault_entry_rejected(self):
        with pytest.raises(ConfigError, match="Fault entries"):
            FaultPlan([{"site": "fleet.chunk"}])

    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(123, faults=8)
        b = FaultPlan.random(123, faults=8)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != FaultPlan.random(124, faults=8).to_dict()
        assert len(a) == 8

    def test_random_restricted_sites(self):
        plan = FaultPlan.random(5, faults=10, sites=["fleet.chunk"])
        assert plan.sites() == {"fleet.chunk"}
        with pytest.raises(ConfigError, match="unknown fault site"):
            FaultPlan.random(5, sites=["fleet.nope"])


class TestInjector:
    def test_null_injector_is_default_and_free(self):
        injector = get_fault_injector()
        assert injector is NULL_INJECTOR
        assert injector.enabled is False
        assert injector.poll("fleet.chunk") == ()

    def test_poll_counts_occurrences_and_fires(self):
        injector = FaultInjector(FaultPlan([Fault("fleet.chunk", 1, "crash")]))
        assert injector.poll("fleet.chunk") == []
        fired = injector.poll("fleet.chunk")
        assert [f.op for f in fired] == ["crash"]
        assert injector.occurrences("fleet.chunk") == 2
        assert injector.occurrences("campaign.cell.save") == 0
        assert injector.fired_summary() == {"fleet.chunk.crash": 1}

    def test_chaos_scopes_and_restores(self):
        plan = FaultPlan([Fault("fleet.chunk", 0, "exception")])
        assert get_fault_injector() is NULL_INJECTOR
        with chaos(plan) as injector:
            assert get_fault_injector() is injector
            assert injector.enabled
        assert get_fault_injector() is NULL_INJECTOR

    def test_chaos_none_is_noop(self):
        with chaos(None) as injector:
            assert injector is NULL_INJECTOR

    def test_chaos_accepts_prebuilt_injector(self):
        injector = FaultInjector(FaultPlan([]))
        with chaos(injector) as scoped:
            assert scoped is injector

    def test_set_injector_returns_previous(self):
        injector = FaultInjector(FaultPlan([]))
        previous = set_fault_injector(injector)
        try:
            assert previous is NULL_INJECTOR
            assert get_fault_injector() is injector
        finally:
            set_fault_injector(previous)

    def test_fired_counter_reaches_metrics(self):
        from repro.obs import Recorder, recording

        plan = FaultPlan([Fault("fleet.chunk", 0, "exception")])
        with recording(Recorder(metrics=True)) as rec, chaos(plan) as injector:
            injector.poll("fleet.chunk")
        assert rec.metrics.counter_value(
            "fault.injected.fleet.chunk.exception") == 1


class TestRetryPolicy:
    def test_defaults_validate(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.backoff_s == 0.05

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_s": -0.1},
        {"backoff_factor": 0.5},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=3.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.3)
        assert policy.backoff(2) == pytest.approx(0.9)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RetryPolicy().max_retries = 5  # type: ignore[misc]

    def test_roundtrip_plan_and_policy_are_cli_compatible(self, tmp_path):
        # the exact artifact shape --chaos consumes
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "faults": [{"site": "fleet.chunk", "when": 0, "op": "crash"}]}))
        plan = FaultPlan.from_json(str(path))
        assert len(plan) == 1
