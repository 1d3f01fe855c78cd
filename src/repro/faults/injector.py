"""The process-wide fault injector: chaos-off must cost one attribute read.

Mirrors :mod:`repro.obs.recorder`: exactly one injector is active per
process, the default is :data:`NULL_INJECTOR` (``enabled`` is ``False``),
and every injection point in the dispatch/store stack reduces to one
attribute read when chaos is off — the ≤2% no-op gate in
``benchmarks/test_p7_faults.py`` holds the production paths to that.

The injector never *applies* faults itself: each site polls it once per
occurrence and applies the returned directives in the polling process.
Only the process that armed a plan polls it — forked shard-drain
children disarm their inherited copy — so one plan fires each fault
once, however many processes a run forks.

Usage::

    from repro.faults import FaultPlan, chaos

    plan = FaultPlan.from_json("plan.json")
    with chaos(plan) as injector:
        result = FleetRunner(spec, workers=4).run()
    print(injector.fired_summary())
"""

from __future__ import annotations

import contextlib

from repro.faults.plan import FaultPlan
from repro.obs.recorder import get_recorder


class NullFaultInjector:
    """Inactive injector: chaos off, every poll free."""

    enabled = False

    def poll(self, site: str):
        return ()


#: The process-default injector (chaos off).
NULL_INJECTOR = NullFaultInjector()


class FaultInjector:
    """Replays a :class:`~repro.faults.plan.FaultPlan` deterministically.

    Each injection site is polled once per occurrence (a chunk dispatch
    attempt, a checkpoint write, ...); the injector counts occurrences
    per site and returns the plan's faults for exactly that (site,
    occurrence) pair.  Every fired fault is recorded on :attr:`fired` and
    counted as a ``fault.injected.<site>.<op>`` metric when a recorder is
    active.
    """

    enabled = True

    def __init__(self, plan: FaultPlan):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        self.plan = plan
        self._occurrences: dict = {}
        #: Every fault fired so far, in firing order.
        self.fired: list = []

    def occurrences(self, site: str) -> int:
        """How many times ``site`` has been polled."""
        return self._occurrences.get(site, 0)

    def poll(self, site: str):
        """Advance ``site`` by one occurrence; return its due faults."""
        i = self._occurrences.get(site, 0)
        self._occurrences[site] = i + 1
        faults = self.plan.at(site, i)
        if faults:
            self.fired.extend(faults)
            metrics = get_recorder().metrics
            if metrics is not None:
                for fault in faults:
                    metrics.inc(f"fault.injected.{fault.site}.{fault.op}")
        return faults

    def fired_summary(self) -> dict:
        """``{"<site>.<op>": count}`` over everything fired so far."""
        out: dict = {}
        for fault in self.fired:
            key = f"{fault.site}.{fault.op}"
            out[key] = out.get(key, 0) + 1
        return out


_ACTIVE: "NullFaultInjector | FaultInjector" = NULL_INJECTOR


def get_fault_injector():
    """The process-wide active injector (NULL_INJECTOR when chaos is off)."""
    return _ACTIVE


def set_fault_injector(injector) -> object:
    """Install ``injector`` (``None`` resets to off); returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = NULL_INJECTOR if injector is None else injector
    return previous


@contextlib.contextmanager
def chaos(plan):
    """Scope a fault injector: install on entry, restore on exit.

    ``plan`` may be a :class:`FaultPlan`, an already-built
    :class:`FaultInjector`, or ``None`` (a no-op scope, so callers can
    write ``with chaos(maybe_plan):`` unconditionally).
    """
    if plan is None:
        yield NULL_INJECTOR
        return
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    previous = set_fault_injector(injector)
    try:
        yield injector
    finally:
        set_fault_injector(previous)
