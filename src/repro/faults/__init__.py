"""Deterministic fault injection and retry policy for the execution stack.

The paper's premise is correctness under adversity — devices lose power
mid-inference and must resume bit-exactly — and this package holds the
harness that proves the *simulator's own* execution layer to the same
standard:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`Fault`: seeded,
  JSON round-trippable chaos schedules keyed by (site, occurrence), so a
  fault schedule replays bit-for-bit;
* :mod:`repro.faults.injector` — the process-wide injector with a null
  default (chaos off costs one attribute read), installed via
  :func:`chaos`;
* :mod:`repro.faults.retry` — :class:`RetryPolicy`, the bounded-retry /
  backoff knobs threaded through
  :class:`~repro.fleet.runner.FleetRunner` and
  :class:`~repro.campaign.runner.CampaignRunner`.

The contract the whole package exists to enforce (see
``tests/test_property_faults.py``): for any *recoverable* fault plan —
crashes, hangs, corrupt wire payloads, corrupt checkpoints — the
completed fleet result and campaign report are byte-identical to a
fault-free run.
"""

from repro.faults.injector import (
    NULL_INJECTOR,
    FaultInjector,
    NullFaultInjector,
    chaos,
    get_fault_injector,
    set_fault_injector,
)
from repro.faults.plan import FAULT_SITES, Fault, FaultPlan
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "FAULT_SITES",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "NULL_INJECTOR",
    "NullFaultInjector",
    "RetryPolicy",
    "chaos",
    "get_fault_injector",
    "set_fault_injector",
]
