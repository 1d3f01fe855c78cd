"""Fleet execution.

:func:`run_device` materializes one :class:`~repro.fleet.spec.DeviceSpec`
into live trace / storage / MCU / profile / controller objects, replays
its episodes through the event-driven simulator, and returns a compact
:class:`~repro.fleet.results.DeviceResult`.  :func:`run_device_batch` is
its many-device twin: every device runs through one lockstep
:class:`~repro.sim.batch.BatchedFleetEngine` (one numpy step per event
index for the whole batch); ``engine="device"`` loops :func:`run_device`
instead, the oracle the goldens check the engine against.
:func:`run_batch_with_recovery` wraps it in the one recovery ladder
(retry, per-device split, last attempt, quarantine).

There is one parallel path: :class:`FleetRunner` with ``workers > 1``
drains one device-axis shard per worker through
:mod:`repro.fleet.shards`, and runs in-process when the fleet is too
small — or the machine too narrow — for forking to pay for itself.

Determinism: every device derives its random streams from
``SeedSequence(fleet_seed, spawn_key=(device_index,))`` — exactly the
child that ``SeedSequence(fleet_seed).spawn(n)[index]`` would produce, but
computable independently inside any worker.  The batched engine consumes
those same streams in the same per-device order (bit-identity is enforced
against ``tests/golden/``), so results do not depend on the engine, the
worker count, or the shard plan — which is what makes ``--workers 4``
bit-identical to the in-process run.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.energy.events import burst_events, poisson_events, uniform_random_events
from repro.energy.storage import EnergyStorage
from repro.energy.traces import (
    SEEDED_FAMILIES,
    constant_trace,
    synthesize_traces,
    trace_from_csv,
)
from repro.errors import ConfigError, InjectedFault
from repro.experiment import reference_profile, sonic_profile
from repro.faults.injector import get_fault_injector
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.fleet.results import (
    DeviceFailure,
    DeviceResult,
    FleetResult,
    pack_device_results,
    seal_payload,
    unpack_device_results,
    verify_payload,
)
from repro.fleet.spec import FleetSpec
from repro.intermittent.mcu import MSP432
from repro.obs.recorder import get_recorder
from repro.obs.tracing import span
from repro.runtime.controller import make_controller
from repro.sim.profiles import InferenceProfile
from repro.sim.results import harvest_percentiles
from repro.sim.simulator import Simulator, SimulatorConfig

#: Engines a :class:`FleetRunner` can run devices through.
ENGINES = ("batched", "device")

#: Below this many devices a parallel run stays in-process: per-device
#: work is a few milliseconds, so forking and result transport swamp the
#: compute (a 32-device pool once measured ~0.7x serial throughput).
MIN_PARALLEL_DEVICES = 16

#: Per-process cache of resolved named profiles (weights and profile maths
#: run once per worker, not once per device).
_PROFILE_CACHE: dict = {}

#: Per-process memoized traces keyed by (family, sorted params incl. the
#: resolved seed).  Identical DeviceSpecs — and repeated runs of the same
#: fleet — share one PowerTrace instead of re-synthesizing 36k-43k samples
#: each time.  Traces are treated as immutable everywhere in the simulator,
#: so sharing is safe; the cap bounds worker memory on fleets with many
#: distinct environments (FIFO eviction).
_TRACE_CACHE: dict = {}
_TRACE_CACHE_MAX = 256


def _call_declarative(label: str, fn, *args, **kwargs):
    """Call a constructor with spec-provided kwargs, mapping typo'd or
    unknown parameter names to :class:`ConfigError` so they surface as
    spec problems (clean CLI error) rather than raw tracebacks."""
    try:
        return fn(*args, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _trace_cache_key(family: str, params: dict):
    """Hashable cache key, or None when a param cannot key a deterministic
    result (e.g. a live Generator, whose state advances between builds)."""
    if not all(
        value is None or isinstance(value, (bool, int, float, str))
        for value in params.values()
    ):
        return None
    return (family, tuple(sorted(params.items())))


def build_trace(trace_spec: dict, fallback_seed: int):
    """Materialize a trace from its spec dict (memoized per process): the
    one-device case of :func:`build_traces`."""
    return build_traces([(trace_spec, fallback_seed)])[0]


def build_traces(items) -> list:
    """Materialize traces for ``(trace_spec, fallback_seed)`` pairs, in order.

    Cache hits come from ``_TRACE_CACHE``.  The seeded misses are built
    together by :func:`~repro.energy.traces.synthesize_traces` (stacked per
    family and grid, byte-identical to building each alone) and inserted
    afterwards in request order under the FIFO cap, so a fleet larger than
    the cap builds each trace once and leaves the cache holding its last
    ``_TRACE_CACHE_MAX`` traces.  Identical specs in one call share one
    trace.  csv traces (file-backed) and specs with a live ``Generator``
    are built one at a time, in order, and never cached.
    """
    out = [None] * len(items)
    misses: dict = {}  # cache key -> (family, params, positions)
    for pos, (trace_spec, fallback_seed) in enumerate(items):
        params = dict(trace_spec)
        family = params.pop("family")
        if family == "csv":
            out[pos] = _call_declarative("csv trace", trace_from_csv, **params)
            continue
        if family != "constant":
            if family not in SEEDED_FAMILIES:
                raise ConfigError(f"unknown trace family {family!r}")
            params.setdefault("seed", fallback_seed)
        key = _trace_cache_key(family, params)
        if key is None:
            out[pos] = _build_uncached([(family, params)])[0]
            continue
        cached = _TRACE_CACHE.get(key)
        if cached is not None:
            out[pos] = cached
        elif key in misses:
            misses[key][2].append(pos)
        else:
            misses[key] = (family, params, [pos])
    built = _build_uncached([(fam, params) for fam, params, _ in misses.values()])
    for (key, (_, _, positions)), trace in zip(misses.items(), built):
        while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        _TRACE_CACHE[key] = trace
        for pos in positions:
            out[pos] = trace
    return out


def _build_uncached(requests) -> list:
    """Build ``(family, params)`` requests: constants one by one, every
    seeded family in one :func:`synthesize_traces` call."""
    out = [None] * len(requests)
    seeded = []
    for pos, (family, params) in enumerate(requests):
        if family == "constant":
            out[pos] = _call_declarative("constant trace", constant_trace, **params)
        else:
            seeded.append(pos)
    for pos, trace in zip(seeded, synthesize_traces([requests[p] for p in seeded])):
        out[pos] = trace
    return out


def build_events(events_spec: dict, duration: float, seed: int) -> np.ndarray:
    """Materialize an event stream over ``[0, duration)``."""
    params = dict(events_spec)
    kind = params.pop("kind")
    params.setdefault("rng", seed)
    try:
        if kind == "uniform":
            return uniform_random_events(params.pop("count"), duration, **params)
        if kind == "poisson":
            return poisson_events(params.pop("rate_hz"), duration, **params)
        if kind == "burst":
            return burst_events(
                params.pop("num_bursts"), params.pop("events_per_burst"), duration, **params
            )
    except KeyError as exc:
        raise ConfigError(f"{kind} events: missing parameter {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{kind} events: {exc}") from exc
    raise ConfigError(f"unknown events kind {kind!r}")


def resolve_profile(profile) -> InferenceProfile:
    """Resolve a profile reference (named / ``zoo:<net>`` / inline dict)."""
    if isinstance(profile, dict):
        return _call_declarative("inline profile", InferenceProfile, **profile)
    if isinstance(profile, str) and profile.startswith("zoo:"):
        from repro import zoo  # heavy import chain; only pay it when asked

        return zoo.get_profile(profile[len("zoo:"):])  # zoo memoizes per process
    if profile in _PROFILE_CACHE:
        return _PROFILE_CACHE[profile]
    if profile == "paper-multi-exit":
        built = reference_profile()
    elif profile == "sonic-single-exit":
        built = sonic_profile()
    else:
        raise ConfigError(f"cannot resolve profile {profile!r}")
    _PROFILE_CACHE[profile] = built
    return built


def build_storage(storage_spec: dict) -> EnergyStorage:
    """Capacitor from overrides; defaults match the paper's 2 mJ @ 80%."""
    params = dict(storage_spec)
    capacity = float(params.pop("capacity_mj", 2.0))
    initial_fraction = float(params.pop("initial_fraction", 0.5))
    if not 0.0 <= initial_fraction <= 1.0:
        raise ConfigError(
            f"initial_fraction must be in [0, 1], got {initial_fraction!r}"
        )
    return _call_declarative(
        "storage",
        EnergyStorage,
        capacity_mj=capacity,
        efficiency=float(params.pop("efficiency", 0.8)),
        leakage_mw=float(params.pop("leakage_mw", 0.0)),
        initial_mj=capacity * initial_fraction,
        **params,
    )


def build_mcu(mcu_spec: dict):
    """MSP432 defaults with declarative field overrides."""
    if not mcu_spec:
        return MSP432
    return _call_declarative("mcu", replace, MSP432, **mcu_spec)


def build_controller(controller_spec: dict, profile, storage, seed: int):
    """Controller from its spec; LUT/learning params derived per device."""
    params = dict(controller_spec)
    kind = params.pop("kind")
    return _call_declarative(
        f"{kind} controller",
        make_controller,
        kind,
        profile.num_exits,
        exit_energies_mj=profile.exit_energy_mj,
        capacity_mj=storage.capacity_mj,
        rng=seed,
        **params,
    )


def device_seeds(index: int, fleet_seed: int) -> tuple:
    """A device's ``(trace, events, simulator, controller)`` seeds, from
    ``SeedSequence(fleet_seed, spawn_key=(index,))``."""
    child = np.random.SeedSequence(fleet_seed, spawn_key=(int(index),))
    return tuple(int(s) for s in child.generate_state(4, np.uint32))


def run_device(task) -> DeviceResult:
    """Simulate one device: ``task`` is ``(index, DeviceSpec, fleet_seed)``.

    The per-device engine behind :func:`run_device_batch`, and the entry
    point for callers that want a single device out of a fleet.
    """
    index, spec, fleet_seed = task
    t0 = time.perf_counter()
    trace_seed, event_seed, sim_seed, ctrl_seed = device_seeds(index, fleet_seed)
    trace = build_trace(spec.trace, trace_seed)
    events = build_events(spec.events, trace.duration, event_seed)
    profile = resolve_profile(spec.profile)
    storage = build_storage(spec.storage)
    mcu = build_mcu(spec.mcu)
    controller = build_controller(spec.controller, profile, storage, ctrl_seed)
    sim = Simulator(
        trace,
        profile,
        controller,
        mcu=mcu,
        storage=storage,
        config=SimulatorConfig(
            mode="profile",
            execution=spec.execution,
            power_window_s=spec.power_window_s,
            seed=sim_seed,
        ),
    )
    result = None
    for _ in range(spec.episodes):
        result = sim.run(events)
    harvest = harvest_percentiles([trace])[0]
    return DeviceResult.from_simulation(
        index,
        spec.name,
        result,
        profile,
        harvest_percentiles=harvest,
        episodes=spec.episodes,
        wall_s=time.perf_counter() - t0,
    )


def run_device_batch(tasks, engine: str = "batched") -> list:
    """Simulate many devices in one process; returns DeviceResults in task order.

    ``engine="batched"`` runs every task in lockstep through one
    :class:`~repro.sim.batch.BatchedFleetEngine`; ``engine="device"``
    runs them one at a time through :func:`run_device`.  Both produce
    bit-identical results.
    """
    from repro.sim.batch import BatchedFleetEngine

    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "device":
        return [run_device(t) for t in tasks]
    return BatchedFleetEngine(tasks).run()


def _apply_chunk_faults(ops) -> None:
    """Apply pre-execution fault directives polled at ``fleet.chunk``.

    Every attempt runs in the polling process, so a crash or a hang
    maps to a raised :class:`InjectedFault` the ladder handles — a
    process must never kill or block itself.
    """
    for op in ops:
        kind = op["op"]
        if kind == "oserror":
            raise OSError("injected transient OSError")
        if kind in ("crash", "exception", "hang"):
            raise InjectedFault(f"injected worker {kind}")
        # "corrupt_payload" is applied after packing, not here.


def _corrupt_packed_payload(payload: dict, ops) -> None:
    """Flip bits in a sealed payload (the ``corrupt_payload`` directive)."""
    for op in ops:
        if op["op"] != "corrupt_payload":
            continue
        column = payload.get("iepmj")
        if isinstance(column, np.ndarray) and column.size:
            column.view(np.uint64)[0] ^= np.uint64(0xFF)
        else:  # pragma: no cover - defensive: empty chunk
            payload["digest"] = "0" * 64


def _run_chunk(tasks, engine: str, ops) -> list:
    """One attempt at a chunk under the fault directives ``ops``.

    With directives present the chunk goes through a pack → seal →
    (corrupt) → verify cycle, so payload corruption is exercisable and
    caught like any other failed attempt.
    """
    if not ops:
        return run_device_batch(tasks, engine)
    _apply_chunk_faults(ops)
    payload = seal_payload(pack_device_results(run_device_batch(tasks, engine)))
    _corrupt_packed_payload(payload, ops)
    verify_payload(payload)
    return unpack_device_results(payload)


class _ChunkJob:
    """One unit of the recovery ladder: a chunk at a ladder stage."""

    __slots__ = ("tasks", "attempts", "stage", "not_before")

    def __init__(self, tasks, stage="chunk"):
        self.tasks = tasks
        self.attempts = 0  # completed (failed) attempts at this stage
        self.stage = stage  # "chunk" | "device" (post-split) | "serial"
        self.not_before = 0.0  # monotonic deadline gating the next attempt


class _RecoveryLadder:
    """Retries, per-device splits, and quarantine for one batch.

    The ladder per job: up to ``max_retries`` retries with exponential
    backoff at the current stage; an exhausted multi-device chunk splits
    into one-device jobs — one-row engines — so a faulting device never
    takes its neighbours down; an exhausted single device gets one last
    attempt; only then is it quarantined as a
    :class:`~repro.fleet.results.DeviceFailure`.  Spec problems
    (:class:`ConfigError`) are never retried — they would fail
    identically forever and belong to the caller.  Retried work is
    deterministic by construction (per-device ``SeedSequence`` streams).
    """

    def __init__(self, engine: str, policy: RetryPolicy, injector):
        self.engine = engine
        self.policy = policy
        self.injector = injector
        self.metrics = get_recorder().metrics
        self.results: dict = {}  # device index -> DeviceResult
        self.failures: list = []  # DeviceFailure

    def recover(self, tasks, first_error=None) -> tuple:
        """Run ``tasks`` to completion; ``first_error`` is a failed first
        attempt already made by the caller."""
        job = _ChunkJob(tasks)
        jobs = deque()
        if first_error is None:
            jobs.append(job)
        else:
            self._on_failure(job, first_error, jobs)
        while jobs:
            job = jobs.popleft()
            delay = job.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._attempt(job, jobs)
        self.failures.sort(key=lambda f: f.index)
        results = [self.results[t[0]] for t in tasks if t[0] in self.results]
        return results, self.failures

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _attempt(self, job, jobs) -> None:
        ops = ()
        if self.injector.enabled:
            ops = tuple(f.directive() for f in self.injector.poll("fleet.chunk"))
        try:
            accepted = _run_chunk(job.tasks, self.engine, ops)
        except ConfigError:
            raise
        except Exception as exc:
            if job.stage == "serial":
                self._quarantine(job, exc)
            else:
                self._on_failure(job, exc, jobs)
            return
        for device in accepted:
            self.results[device.index] = device

    def _on_failure(self, job, exc, jobs) -> None:
        job.attempts += 1
        self._inc("fleet.retry.failures")
        if job.attempts <= self.policy.max_retries:
            backoff = self.policy.backoff(job.attempts - 1)
            job.not_before = time.monotonic() + backoff
            self._inc("fleet.retry.attempts")
            if self.metrics is not None:
                self.metrics.observe("fleet.retry.backoff_s", backoff)
            jobs.append(job)
        elif len(job.tasks) > 1:
            # Re-run each device alone so one faulting device cannot
            # poison the whole chunk.
            self._inc("fleet.retry.splits")
            jobs.extend(_ChunkJob([task], "device") for task in job.tasks)
        else:
            # Last rung before quarantine, taken at once: still polls the
            # injector, so a plan hostile enough to exhaust it proves
            # quarantine works.
            job.stage = "serial"
            self._inc("fleet.retry.serial_attempts")
            self._attempt(job, jobs)

    def _quarantine(self, job, exc) -> None:
        index, spec, _ = job.tasks[0]
        self.failures.append(
            DeviceFailure(
                index=int(index),
                name=spec.name,
                error=f"{type(exc).__name__}: {exc}",
                attempts=job.attempts,
                stage=job.stage,
            )
        )
        self._inc("fleet.devices.quarantined")


def run_batch_with_recovery(tasks, engine: str, policy: RetryPolicy) -> tuple:
    """Simulate ``tasks`` in this process; ``(results, failures)``.

    Results are :class:`DeviceResult`\\ s in task order (quarantined
    devices omitted), failures :class:`DeviceFailure`\\ s in index order.
    The first attempt is a plain :func:`run_device_batch` call behind a
    ``try`` when chaos is off — one injector attribute read; a failure,
    or an armed injector (which polls ``fleet.chunk`` once per
    attempt), goes through :class:`_RecoveryLadder`.  Both
    :class:`FleetRunner` and each shard of
    :func:`~repro.fleet.shards.run_sharded` execute through here.
    """
    injector = get_fault_injector()
    if not injector.enabled:
        try:
            return run_device_batch(tasks, engine), []
        except ConfigError:
            raise
        except Exception as exc:
            return _RecoveryLadder(engine, policy, injector).recover(tasks, exc)
    return _RecoveryLadder(engine, policy, injector).recover(tasks)


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class FleetRunner:
    """Executes a :class:`FleetSpec`, in-process or over drain processes.

    ``engine`` selects the simulation form:

    * ``"batched"`` (default) — the lockstep batched engine, for every
      device a fleet spec can express (single-cycle and intermittent
      execution, continue rules, seeded and csv traces);
    * ``"device"`` — the original one-simulator-per-device path, the
      oracle the goldens and the speedup benches measure against.

    Both engines produce bit-identical results (see ``tests/golden/``).

    ``workers <= 1`` runs in-process (debuggable with plain
    pdb/profilers).  Larger values split the fleet into one device-axis
    shard per worker and drain them through a throwaway shard ledger
    (:func:`repro.fleet.shards.drain_fleet`): ``workers - 1`` forked
    drain children plus the calling process.  A parallel request still
    runs in-process when the fleet is smaller than
    :data:`MIN_PARALLEL_DEVICES` or only one CPU is usable — forking on
    a few milliseconds of work per device is a measured pessimization.
    """

    def __init__(
        self,
        spec: FleetSpec,
        workers: int = 1,
        engine: str = "batched",
        retry: Optional[RetryPolicy] = None,
    ):
        if not isinstance(spec, FleetSpec):
            raise ConfigError("FleetRunner needs a FleetSpec")
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        if engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigError("retry must be a RetryPolicy (or None)")
        self.spec = spec
        self.workers = int(workers)
        self.engine = engine
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        #: After :meth:`run`: did the last run actually go parallel?
        self.last_run_parallel = False

    def _tasks(self) -> list:
        return [(i, d, self.spec.seed) for i, d in enumerate(self.spec.devices)]

    def _should_parallelize(self) -> bool:
        return (
            self.workers > 1
            and self.spec.num_devices >= MIN_PARALLEL_DEVICES
            and usable_cpus() > 1
        )

    def run(self) -> FleetResult:
        """Execute the fleet.

        Results are identical however the fleet runs: per-device streams
        are pinned by (fleet seed, device index), never by which process
        executes them.  Execution is fault-tolerant
        (:func:`run_batch_with_recovery`): failed attempts are retried
        with backoff per ``self.retry``, exhausted chunks split into
        one-device runs, and devices that still fail are
        quarantined on ``FleetResult.failures`` instead of aborting the
        fleet.  A parallel run adds the shard ledger's guarantees: a
        dead drain child's shard is stolen after its lease expires, and
        a corrupt artifact is quarantined and re-executed.
        """
        t0 = time.perf_counter()
        self.last_run_parallel = self._should_parallelize()
        with span(
            "fleet.run",
            fleet=self.spec.name,
            devices=self.spec.num_devices,
            engine=self.engine,
            parallel=self.last_run_parallel,
        ):
            if self.last_run_parallel:
                from repro.fleet.shards import drain_fleet

                device_results, failures = drain_fleet(
                    self.spec, self.workers, self.engine, self.retry
                )
            else:
                device_results, failures = run_batch_with_recovery(
                    self._tasks(), self.engine, self.retry
                )
        result = FleetResult(
            fleet_name=self.spec.name,
            seed=self.spec.seed,
            devices=device_results,
            workers=self.workers if self.last_run_parallel else 1,
            wall_s=time.perf_counter() - t0,
            failures=failures,
        )
        rec = get_recorder()
        if rec.metrics is not None:
            self._record_fleet_metrics(rec.metrics, result)
        return result

    def _record_fleet_metrics(self, metrics, result: FleetResult) -> None:
        """Parent-side outcome metrics, computed from the aggregated device
        results *after* execution — serial and parallel runs therefore
        build identical outcome registries regardless of worker count.
        (Engine internals — ``batch.*`` counters and profiler phases —
        are recorded where the engine runs and are shard-granular by
        nature.)
        """
        metrics.inc("fleet.runs")
        metrics.inc("fleet.devices", result.num_devices)
        metrics.inc("fleet.events", result.num_events)
        metrics.inc("fleet.events.processed", result.num_processed)
        metrics.inc("fleet.events.missed", result.num_missed)
        metrics.inc("fleet.events.correct", result.num_correct)
        metrics.observe_many(
            "fleet.device.iepmj", [d.iepmj for d in result.devices]
        )
        metrics.observe("fleet.run.wall_s", result.wall_s)
        metrics.set_gauge("fleet.engine", self.engine)
        metrics.set_gauge("fleet.workers", result.workers)
        metrics.set_gauge("fleet.parallel", bool(self.last_run_parallel))


def run_fleet(
    spec: FleetSpec,
    workers: int = 1,
    engine: str = "batched",
    retry: Optional[RetryPolicy] = None,
) -> FleetResult:
    """One-call convenience wrapper around :class:`FleetRunner`."""
    return FleetRunner(spec, workers=workers, engine=engine, retry=retry).run()
