"""In-memory span recorder, the layer timers, and the per-layer summary.

The traced run of the benchmark imports the program in a fresh process,
then calls :func:`install_layer_timers` to wrap the public function of
each layer in a :class:`Tracer` span.  Nothing under ``src/`` changes:
the wrappers replace attributes on the already-imported modules and
classes.  Spans stay in memory until :meth:`Tracer.dump` writes them as
JSON lines, one object per span::

    {"id": 7, "parent": 3, "run": "cli-city-block-1k-0-1",
     "name": "batch.advance", "start": 1.0312, "end": 1.3307,
     "lanes": 1000, "steps": 80}

``start``/``end`` are seconds on the tracer's own clock.  Every span has
one parent, the span open on the same thread when it started, or the
job's root span for a thread that has none open (the gateway runs its
verbs on executor threads).  :func:`summarize` turns the spans of one
job into layer self times, so the layers and ``traced.unattributed_s``
add up to the job's wall exactly.

This module imports nothing from the program at import time, so
``run.py`` can summarize spans without loading the program.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: Span name of the whole traced job; its self time is the unattributed
#: remainder of the traced wall.
ROOT = "job"


class Tracer:
    """Records nested spans for one job; thread-safe append."""

    def __init__(self, run_id: str):
        self.run_id = str(run_id)
        self.spans: list = []
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_id = None

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        """Start a span; returns its record (close it with :meth:`close`)."""
        stack = self._stack()
        parent = stack[-1]["id"] if stack else self._root_id
        with self._lock:
            record = {
                "id": len(self.spans),
                "parent": parent,
                "run": self.run_id,
                "name": name,
                "start": self._now(),
                "end": None,
            }
            self.spans.append(record)
        if name == ROOT and self._root_id is None:
            self._root_id = record["id"]
        stack.append(record)
        return record

    def close(self, record: dict, **attrs) -> None:
        """End a span opened on this thread, attaching ``attrs``."""
        record["end"] = self._now()
        record.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording ``name``.

        ``owner`` is a module, a class or an instance.  ``attrs(args,
        result)`` may return extra fields for the span.  Class methods
        stay class methods.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            record = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = attrs(args, result) if attrs is not None else {}
                tracer.close(record, **extra)

        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _advance(args, result) -> dict:
    return {"lanes": len(args[0].devices), "steps": int(result or 0)}


def _finalize(args, result) -> dict:
    return {"events": int(sum(d.num_events for d in result or ()))}


def install_layer_timers(tracer: Tracer) -> None:
    """Wrap the public call of every layer in a span.

    Call after the program is imported; the fleet, engine, kernel and
    shard modules are loaded by ``import repro``.  The gateway twin is
    wrapped only when the gateway is loaded.
    """
    import sys

    from repro.fleet import results, runner, shards
    from repro.fleet.scenarios import SCENARIOS
    from repro.intermittent.kernel import IntermittentFleetKernel
    from repro.sim.batch import BatchedFleetEngine

    wrap = tracer.wrap
    wrap(SCENARIOS, "build", "fleet.spec")
    wrap(shards.ScenarioShardSource, "device_specs", "fleet.spec")
    # _Device.__init__ imports the build_* functions from the runner on
    # every call, so wrapping the module attributes times every build.
    wrap(runner, "build_trace", "device.trace")
    wrap(runner, "build_events", "device.events")
    wrap(runner, "build_controller", "device.controller")
    for other in ("build_storage", "build_mcu", "resolve_profile"):
        wrap(runner, other, "device.other")
    wrap(BatchedFleetEngine, "__init__", "batch.build")
    wrap(BatchedFleetEngine, "advance", "batch.advance", _advance)
    wrap(BatchedFleetEngine, "finalize", "batch.finalize", _finalize)
    wrap(IntermittentFleetKernel, "run_episode", "intermittent.run_episode")
    wrap(results.FleetResult, "aggregate", "fleet.aggregate")
    wrap(results.ShardAggregator, "aggregate", "fleet.aggregate")
    wrap(results.FleetResult, "to_json", "report.write")
    wrap(shards.ShardedFleetResult, "to_json", "report.write")
    wrap(shards.ShardLedger, "write_report", "report.write")
    wrap(shards.ShardLedger, "save_shard", "shard.ledger.save")
    wrap(shards.ShardLedger, "load_shard", "shard.ledger.load")
    wrap(shards.ShardLedger, "claim", "shard.ledger.lease")
    wrap(shards.ShardLedger, "release", "shard.ledger.lease")
    if "repro.gateway.twin" in sys.modules:
        from repro.gateway.twin import FleetTwin

        wrap(FleetTwin, "from_scenario", "gateway.twin")
        wrap(FleetTwin, "advance", "gateway.advance")
        wrap(FleetTwin, "query", "gateway.twin")


def load_spans(path: str) -> list:
    """Read a span file written by :meth:`Tracer.dump`."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


#: Layer metric -> span names whose self time it sums.
SELF_TIME_LAYERS = {
    "cli.import_s": ("cli.import",),
    "fleet.spec_s": ("fleet.spec",),
    "device.trace_s": ("device.trace",),
    "device.events_s": ("device.events",),
    "device.controller_s": ("device.controller",),
    "device.other_s": ("device.other",),
    "batch.build.self_s": ("batch.build",),
    "batch.lockstep_s": ("batch.advance",),
    "intermittent.run_episode_s": ("intermittent.run_episode",),
    "batch.finalize_s": ("batch.finalize",),
    "fleet.aggregate_s": ("fleet.aggregate",),
    "report.write_s": ("report.write",),
    "shard.ledger.save_s": ("shard.ledger.save",),
    "shard.ledger.load_s": ("shard.ledger.load",),
    "shard.ledger.lease_s": ("shard.ledger.lease",),
    "gateway.twin_s": ("gateway.twin", "gateway.advance"),
}

#: Engine layers (device build_* calls excluded): what ``shard.tax``
#: compares.
ENGINE_LAYERS = (
    "batch.build.self_s", "batch.lockstep_s",
    "intermittent.run_episode_s", "batch.finalize_s",
)


def summarize(spans: list) -> dict:
    """Per-layer self times and counts for the spans of one job.

    A span's self time is its duration minus the durations of its direct
    children, so every second of the root span lands in exactly one
    layer or in ``traced.unattributed_s``.  ``batch.lockstep_s`` is the
    self time of ``advance``: the engine step minus the intermittent
    passes nested in it.
    """
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in child_time:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_time: dict = {}
    count: dict = {}
    for s in spans:
        own = (s["end"] - s["start"]) - child_time[s["id"]]
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + own
        count[s["name"]] = count.get(s["name"], 0) + 1
    roots = [s for s in spans if s["name"] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, found {len(roots)}")
    root = roots[0]
    out = {
        metric: sum(self_time.get(n, 0.0) for n in names)
        for metric, names in SELF_TIME_LAYERS.items()
    }
    out["traced.wall_s"] = root["end"] - root["start"]
    out["traced.unattributed_s"] = self_time[ROOT]
    out["device.builds"] = count.get("device.trace", 0)
    out["intermittent.calls"] = count.get("intermittent.run_episode", 0)
    out["shard.count"] = count.get("shard.ledger.save", 0)
    # Lockstep cost per step, grouped by the engine's lane width.
    steps = 0
    events = 0
    width_time: dict = {}
    width_steps: dict = {}
    for s in spans:
        if s["name"] == "batch.advance":
            steps += s["steps"]
            width = s["lanes"]
            own = (s["end"] - s["start"]) - child_time[s["id"]]
            width_time[width] = width_time.get(width, 0.0) + own
            width_steps[width] = width_steps.get(width, 0) + s["steps"]
        elif s["name"] == "batch.finalize":
            events += s["events"]
    out["batch.steps"] = steps
    out["sim.events"] = events
    out["lockstep_us_per_step_by_width"] = {
        w: 1e6 * width_time[w] / width_steps[w]
        for w in width_time if width_steps[w]
    }
    out["gateway.advance_ms"] = sorted(
        1e3 * (s["end"] - s["start"]) for s in spans
        if s["name"] == "gateway.advance"
    )
    return out
