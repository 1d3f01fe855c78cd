"""The repo benchmark: CLI run, live gateway twin and sharded drain.

    python3 perfbench/run.py --workload cli-city-block-1k --seed 0 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --write-digests 0-19

Run from the root of a checkout (the program is imported from ``src/``).
Each workload is a closed loop driven by this one process, with at most
one child process and one connection at a time:

* ``cli-city-block-1k`` spawns ``python -m repro.fleet run city-block-1k``
  one invocation after another;
* ``shard-drain-brownout-256`` spawns ``python -m repro.fleet run
  brownout-grid-256 --shards 8 --ledger <fresh dir>`` with one worker.

The gateway is not an end-to-end workload: on the shared box its
round trip drifts by up to 2x within seconds, more than any bound the
benchmark may set.  Its layer is still measured: the traced run of the
shard workload also spawns ``python -m repro.gateway serve`` server
cycles, in which one ``GatewayClient`` creates 12 ``brownout-grid-256``
fleets, drives each with ``advance(steps=1)`` to the end and then
``query``, and reports the ``gateway.*`` per-layer metrics.

``--seed`` reaches the program only as the scenario ``--seed`` override.
Every output is checked: CLI reports must equal, byte for byte, the
report a one-shot ``FleetRunner`` writes for the same scenario and seed
(and the report of the traced job in a traced run); sharded and gateway
aggregates must equal that reference's aggregate; at the seeds pinned in
``digests.json`` the reference itself must match its recorded digest.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced jobs with traced ones (``probe.py``: a fresh process
per job that wraps each layer's public call in a span) and reports the
per-layer metrics; the spans of the run are kept as JSON lines under
``.perfbench/<workload>/spans.jsonl``.  The last stdout line is the JSON
result: ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are scaled to the speed of the reference box (see
:class:`Speed`); their raw medians are printed beside them.  Per-layer times are
raw.  Metric names, units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Workload and metric names, units and bounds; ``layers.json`` beside
#: this file says what each metric means and which layer moves which.
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
PROBE = os.path.join(HERE, "probe.py")

CLI = "cli-city-block-1k"
SHARD = "shard-drain-brownout-256"

CLI_SCENARIO = "city-block-1k"
BROWNOUT = "brownout-grid-256"
FLEETS_PER_SERVER = 12
#: Untraced gateway server cycles per traced shard run: two give at least
#: ten advance(1) round trips beyond the p99.
GATEWAY_CYCLES = 2
SHARDS = 8
#: No single child or request may take longer than this.
CHILD_TIMEOUT_S = 60.0
#: Set-up measurements per run for the CLI and shard workloads.
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


# ---------------------------------------------------------------------- #
# Bookkeeping
# ---------------------------------------------------------------------- #
class Outcome:
    """Attempted/failed operation counts plus the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation; ``what`` describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values, q: float = 0.99) -> tuple:
    """Nearest-rank ``q`` percentile and how many samples lie beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Child:
    """One child process, reaped with ``wait4`` so its max RSS is known."""

    def __init__(self, argv, stdout=subprocess.DEVNULL):
        os.makedirs(WORK, exist_ok=True)
        self._stderr = open(os.path.join(WORK, "child.stderr"), "w+b")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=stdout, stderr=self._stderr,
        )
        self._killer = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        self._killer.start()
        self.timed_out = False

    def kill(self) -> None:
        self.timed_out = True
        if self.proc.returncode is None:
            self.proc.kill()

    def read_line(self, timeout: float) -> str:
        """One stdout line, or '' if none arrives within ``timeout``."""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                return ""
        return self.proc.stdout.readline().decode("utf-8", "replace")

    def wait(self) -> tuple:
        """Reap; returns ``(exit code, wall s, max RSS MB, stderr tail)``."""
        if self.proc.stdout is not None:
            self.proc.stdout.read()
            self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.t0
        self._killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._stderr.seek(0)
        err = self._stderr.read().decode("utf-8", "replace")[-400:]
        self._stderr.close()
        code = -9 if self.timed_out else self.proc.returncode
        # ru_maxrss is in KiB on Linux.
        return code, wall, usage.ru_maxrss / 1024.0, err.strip()


def run_child(argv) -> tuple:
    return Child(argv).wait()


def fleet_cli(*args) -> list:
    return [sys.executable, "-m", "repro.fleet", *args]


def probe(*args) -> list:
    return [sys.executable, PROBE, *args]


def measure_import(out: Outcome, speed: "Speed") -> tuple:
    """Raw wall times of ``python -c 'import repro.fleet.__main__'`` runs,
    and the one scale factor that covers the block of them."""
    walls = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, err = run_child(
            [sys.executable, "-c", "import repro.fleet.__main__"]
        )
        if out.op(code == 0, f"import failed ({code}): {err}"):
            walls.append(wall)
    return walls, speed.factor()


# ---------------------------------------------------------------------- #
# Box speed
# ---------------------------------------------------------------------- #
def _numpy_sorts() -> None:
    import numpy as np

    values = np.random.default_rng(0).random(100_000)
    for _ in range(60):
        values = np.cumsum(np.sort(values) * 1.5 + values) % 1.0


def _numpy_small_ops() -> None:
    import numpy as np

    lanes = np.zeros(256)
    for _ in range(20_000):
        lanes = np.where(lanes > 0.5, lanes * 0.5, lanes + 0.1)


def _spawn_numpy() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   env=child_env(), stdout=subprocess.DEVNULL)


#: Calibration tasks and their median seconds on the reference box (the
#: shared 2-vCPU box the bounds were set on).  Together they mirror what
#: the CLI and shard jobs spend their time on: array passes, many small
#: NumPy calls, and interpreter start-up plus imports.
CALIBRATION = (
    (_numpy_sorts, 0.18),
    (_numpy_small_ops, 0.11),
    (_spawn_numpy, 0.23),
)


def calibrate() -> float:
    """How slow the box is now: mean of task time over reference time."""
    ratios = []
    for task, reference_s in CALIBRATION:
        t0 = time.perf_counter()
        task()
        ratios.append((time.perf_counter() - t0) / reference_s)
    return sum(ratios) / len(ratios)


class Speed:
    """Scales host times to the speed of the reference box.

    The box is shared, and its speed drifts by 10-40% over minutes,
    which no median over one run removes.  :func:`calibrate` runs before
    and after every timed job; each time the job yields is divided by
    the mean of those two slowness ratios, giving seconds at the
    reference box's speed.  Raw medians are printed beside the scaled
    ones.
    """

    def __init__(self):
        self.last = calibrate()
        self.factors: list = []

    def factor(self) -> float:
        """The scale factor for the job that just ended."""
        now = calibrate()
        factor = 2.0 / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor


# ---------------------------------------------------------------------- #
# Reference outputs
# ---------------------------------------------------------------------- #
def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def reference(scenario: str, seed: int, out: Outcome, tmp: str) -> bytes:
    """The one-shot ``FleetRunner`` report bytes, checked against the
    pinned digest when ``seed`` has one.  ``b''`` if it failed."""
    data = reference_report(scenario, seed, out, tmp)
    pinned = load_digests().get(scenario, {}).get(str(seed))
    if data and pinned is not None:
        out.op(sha256(data) == pinned,
               f"reference {scenario} seed {seed}: report digest "
               f"{sha256(data)[:16]} != pinned {pinned[:16]}")
    return data


def reference_report(scenario: str, seed: int, out: Outcome, tmp: str) -> bytes:
    """The report ``probe.py reference`` writes; ``b''`` if it failed."""
    path = os.path.join(tmp, f"reference-{scenario}.json")
    code, _, _, err = run_child(
        probe("reference", "--scenario", scenario, "--seed", str(seed),
              "--report", path)
    )
    if not out.op(code == 0, f"reference {scenario} failed ({code}): {err}"):
        return b""
    return _read(path)


def aggregate_of(report: bytes) -> dict:
    return json.loads(report)["aggregate"] if report else {}


# ---------------------------------------------------------------------- #
# Traced jobs
# ---------------------------------------------------------------------- #
class SpanLog:
    """Collects the span files of a run into one JSON-lines file."""

    def __init__(self, workload: str, seed: int):
        self.dir = os.path.join(WORK, workload)
        os.makedirs(self.dir, exist_ok=True)
        self.prefix = f"{workload}-{seed}"
        self.path = os.path.join(self.dir, "spans.jsonl")
        self.jobs = 0
        with open(self.path, "w"):
            pass

    def next(self) -> tuple:
        """``(run id, per-job span path)`` for the next traced job."""
        self.jobs += 1
        run_id = f"{self.prefix}-{self.jobs}"
        return run_id, os.path.join(self.dir, f"{run_id}.jsonl")

    def collect(self, path: str) -> dict:
        """Summarize one job's spans and append them to the run's file."""
        spans = tracer.load_spans(path)
        with open(self.path, "a") as fh, open(path) as src:
            fh.write(src.read())
        os.remove(path)
        return tracer.summarize(spans)


COUNTS = ("batch.steps", "intermittent.calls", "device.builds", "shard.count")


def layer_metrics(summaries: list, out: Outcome) -> dict:
    """Per-layer values over a run's traced jobs: median times, and counts
    that must repeat exactly from job to job.  Layers the workload does
    not exercise read 0."""
    values = {name: 0.0 for name, _ in metric_specs(True)}
    for name in tracer.SELF_TIME_LAYERS:
        values[name] = median([s[name] for s in summaries])
    for name in ("traced.wall_s", "traced.unattributed_s"):
        values[name] = median([s[name] for s in summaries])
    for name in COUNTS:
        seen = {s[name] for s in summaries}
        out.op(len(seen) <= 1, f"{name} differs between traced jobs: {seen}")
        values[name] = summaries[0][name] if summaries else 0
    calls = values["intermittent.calls"]
    values["intermittent.ms_per_call"] = (
        1e3 * values["intermittent.run_episode_s"] / calls if calls else 0.0
    )
    events = summaries[0]["sim.events"] if summaries else 0
    host = values["batch.lockstep_s"] + values["intermittent.run_episode_s"]
    values["sim.host_us_per_event"] = 1e6 * host / events if events else 0.0
    for width in (32, 256, 1000):
        values[f"batch.lockstep.us_per_step_w{width}"] = median([
            s["lockstep_us_per_step_by_width"][width] for s in summaries
            if width in s["lockstep_us_per_step_by_width"]
        ])
    return values


def engine_time(values: dict) -> float:
    return sum(values[name] for name in tracer.ENGINE_LAYERS)


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def _loop(seconds: float):
    """Job indices until ``seconds`` have passed (at least one job)."""
    end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < end:
        yield k
        k += 1


def _cli_args(seed: int, report: str) -> list:
    return ["run", CLI_SCENARIO, "--seed", str(seed), "--quiet",
            "--json", report]


def _shard_args(seed: int, ledger: str, shards: int) -> list:
    return ["run", BROWNOUT, "--seed", str(seed), "--shards", str(shards),
            "--ledger", ledger, "--quiet"]


class FleetJobs:
    """Untraced and traced fleet CLI jobs of one run, with their checks.

    ``check(path_or_dir) -> bool`` validates one job's output; untraced
    jobs record scaled wall and max RSS, traced jobs their span summary.
    """

    def __init__(self, out: Outcome, speed: Speed, log, check):
        self.out = out
        self.speed = speed
        self.log = log
        self.check = check
        self.walls: list = []
        self.raw: list = []
        self.rss: list = []
        self.traced_walls: list = []
        self.summaries: list = []

    def untraced(self, args: list, output: str) -> None:
        code, wall, peak, err = run_child(fleet_cli(*args))
        factor = self.speed.factor()
        if self.out.op(code == 0, f"{args[1]} run failed ({code}): {err}") \
                and self.check(output):
            self.walls.append(wall * factor)
            self.raw.append(wall)
            self.rss.append(peak)

    def traced(self, args: list, output: str, into=None) -> None:
        run_id, path = self.log.next()
        code, wall, _, err = run_child(
            probe("trace", "--entry", "repro.fleet.__main__",
                  "--run-id", run_id, "--spans", path, "--", *args)
        )
        factor = self.speed.factor()
        ok = self.out.op(code == 0 and os.path.exists(path),
                         f"traced job {run_id} failed ({code}): {err}")
        if ok and self.check(output):
            (self.summaries if into is None else into).append(
                self.log.collect(path))
            if into is None:
                self.traced_walls.append(wall * factor)

    def end_to_end(self, setup: tuple, iepmj: float) -> dict:
        walls, factor = setup
        return {
            "wall_s": median(self.walls),
            "setup_s": factor * median(walls),
            "req_p50_ms": 1e3 * median(self.walls),
            "peak_rss_mb": median(self.rss),
            "fleet_iepmj": iepmj,
            "_n": len(self.walls),
            "_raw_wall_s": median(self.raw),
            "_raw_setup_s": median(walls),
        }

    def layers(self) -> dict:
        values = layer_metrics(self.summaries, self.out)
        values["traced.overhead_pct"] = _overhead(
            self.traced_walls, self.walls)
        return values


def workload_cli(seed, seconds, trace, out, tmp, speed) -> dict:
    """``cli-city-block-1k``: one fresh CLI invocation after another."""
    setup = None if trace else measure_import(out, speed)
    ref = reference(CLI_SCENARIO, seed, out, tmp)
    report = os.path.join(tmp, "cli.json")

    def check(path):
        same = _read(path) == ref
        if os.path.exists(path):
            os.remove(path)
        return out.op(same, "cli report differs from FleetRunner's")

    jobs = FleetJobs(out, speed, SpanLog(CLI, seed) if trace else None,
                     check)
    for _ in _loop(seconds):
        jobs.untraced(_cli_args(seed, report), report)
        if trace:
            jobs.traced(_cli_args(seed, report), report)
    if trace:
        return jobs.layers()
    return jobs.end_to_end(setup, aggregate_of(ref).get("fleet_iepmj", 0.0))


def workload_shard(seed, seconds, trace, out, tmp, speed) -> dict:
    """``shard-drain-brownout-256``: 8-shard drains over fresh ledgers."""
    setup = None if trace else measure_import(out, speed)
    ref = aggregate_of(reference(BROWNOUT, seed, out, tmp))
    ledger = os.path.join(tmp, "ledger")

    def check(path):
        report = json.loads(_read(os.path.join(path, "report.json")) or b"{}")
        shutil.rmtree(path, ignore_errors=True)
        return out.op(canonical(report.get("aggregate")) == canonical(ref),
                      "sharded aggregate differs from FleetRunner's")

    jobs = FleetJobs(out, speed,
                     SpanLog(SHARD, seed) if trace else None, check)
    single: list = []
    for _ in _loop(seconds):
        jobs.untraced(_shard_args(seed, ledger, SHARDS), ledger)
        if trace:
            jobs.traced(_shard_args(seed, ledger, SHARDS), ledger)
            jobs.traced(_shard_args(seed, ledger, 1), ledger, into=single)
    if not trace:
        return jobs.end_to_end(setup, ref.get("fleet_iepmj", 0.0))
    values = jobs.layers()
    values.update(gateway_layers(seed, ref, out, jobs.log))
    one_shard = layer_metrics(single, out)
    values["batch.lockstep.us_per_step_w256"] = one_shard[
        "batch.lockstep.us_per_step_w256"]
    base = engine_time(one_shard)
    values["shard.tax"] = engine_time(values) / base if base else 0.0
    return values


class ServerCycle:
    """One gateway server: spawn, cold create, 12 fleets, shutdown.

    Client-side round-trip times are raw; a traced cycle also yields the
    server's span summary.
    """

    def __init__(self, seed: int, ref: dict, out: Outcome, log=None):
        self.seed = seed
        self.ref = ref
        self.out = out
        self.log = log
        self.creates: list = []
        self.advances: list = []
        self.queries: list = []
        self.summary = None

    def run(self) -> None:
        from repro.gateway.client import GatewayClient

        if self.log is None:
            argv = [sys.executable, "-m", "repro.gateway", "serve",
                    "--port", "0"]
            spans = None
        else:
            run_id, spans = self.log.next()
            argv = probe("trace", "--entry", "repro.gateway.__main__",
                         "--run-id", run_id, "--spans", spans, "--",
                         "serve", "--port", "0")
        server = Child(argv, stdout=subprocess.PIPE)
        stopped = None
        try:
            line = server.read_line(CHILD_TIMEOUT_S)
            listening = line.startswith("gateway listening on ")
            if not self.out.op(listening, f"server did not start: {line!r}"):
                return
            port = int(line.strip().rsplit(":", 1)[1])
            client = GatewayClient(port=port, timeout=CHILD_TIMEOUT_S)
            with client:
                self._drive_fleets(client)
                stopped, _ = self._call(client.shutdown)
        finally:
            if not stopped:
                server.kill()
            code, _, _, err = server.wait()
            self.out.op(code == 0, f"server exited {code}: {err}")
        if spans is not None and self.out.op(
                os.path.exists(spans), "traced server wrote no spans"):
            self.summary = self.log.collect(spans)

    def _call(self, fn, *args, **kwargs):
        """One RPC; ``(result or None, seconds)``."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an error envelope or a timeout
            self.out.op(False, f"{fn.__name__} failed: {exc!r}")
            return None, time.perf_counter() - t0
        self.out.op(True, "")
        return result, time.perf_counter() - t0

    def _drive_fleets(self, client) -> None:
        overrides = {"seed": self.seed}
        # The first create builds the trace cache; later ones are warm.
        created, _ = self._call(client.create, scenario=BROWNOUT,
                                overrides=overrides, fleet="cold")
        if created is None:
            return
        for k in range(FLEETS_PER_SERVER):
            name = f"fleet-{k}"
            created, dt = self._call(client.create, scenario=BROWNOUT,
                                     overrides=overrides, fleet=name)
            if created is None:
                return
            self.creates.append(dt)
            total = created["total_steps"]
            step = None
            for _ in range(total):
                step, dt = self._call(client.advance, name, steps=1)
                if step is None:
                    return
                self.advances.append(dt)
            self.out.op(bool(step and step["finished"]),
                        f"{name} unfinished after {total} steps")
            agg, dt = self._call(client.query, name, "aggregate")
            if agg is None:
                return
            self.queries.append(dt)
            # Fleets get fresh names; everything else must match.
            renamed = dict(agg, fleet=self.ref.get("fleet"))
            self.out.op(canonical(renamed) == canonical(self.ref),
                        f"{name} aggregate differs from FleetRunner's")


def gateway_layers(seed, ref, out, log) -> dict:
    """The ``gateway.*`` per-layer metrics: untraced server cycles give
    the client-side round trips, one traced cycle the in-process
    ``FleetTwin`` times."""
    sys.path.insert(0, SRC)
    plain = []
    for _ in range(GATEWAY_CYCLES):
        plain.append(ServerCycle(seed, ref, out))
        plain[-1].run()
    traced = ServerCycle(seed, ref, out, log)
    traced.run()

    def pooled(attr):
        return [x for c in plain for x in getattr(c, attr)]

    advances = pooled("advances")
    p99, beyond = tail(advances)
    values = {
        "gateway.create_s": median(pooled("creates")),
        "gateway.advance_p50_ms": 1e3 * median(advances),
        "gateway.advance_p99_ms": 1e3 * p99,
        "gateway.query_ms": 1e3 * median(pooled("queries")),
        "_gateway_n": len(advances),
        "_gateway_beyond_p99": beyond,
    }
    if traced.summary is not None:
        values["gateway.twin_s"] = traced.summary["gateway.twin_s"]
        in_process = median(traced.summary["gateway.advance_ms"])
        values["gateway.rpc_ms"] = (values["gateway.advance_p50_ms"]
                                    - in_process)
    return values


def _overhead(traced: list, untraced: list) -> float:
    base = median(untraced)
    return 100.0 * (median(traced) / base - 1.0) if base else 0.0


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


WORKLOAD_FNS = {
    CLI: workload_cli,
    SHARD: workload_shard,
}


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def metric_specs(trace: bool) -> list:
    """``(name, unit)`` of the metrics a run prints, from ``BENCHMARK.json``."""
    spec = load_spec()
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object for the last line."""
    out = Outcome()
    tmp = os.path.join(WORK, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        speed = Speed()
        values = WORKLOAD_FNS[name](seed, seconds, trace, out, tmp, speed)
        values["_speed_factor"] = median(speed.factors)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    specs = metric_specs(trace)
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u in specs}
    print(f"{name} seed {seed} ({'traced' if trace else 'untraced'}, "
          f"{seconds:g} s):")
    for n, u in specs:
        print(f"  {n:<34} {values[n]:>14.6g} {u}")
    names = {n for n, _ in specs}
    for key in sorted(k for k in values if k not in names):
        print(f"  ({key.lstrip('_')} = {values[key]:.6g})")
    fail_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  fail_frac = {fail_frac:.4g} ({out.failed}/{out.attempted})")
    for error in out.errors:
        print(f"  ! {error}")
    return {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def write_digests(spec: str) -> None:
    """Pin reference digests for the seeds in ``spec`` (``0-19``/``0,5``)."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    digests = load_digests() if os.path.exists(DIGESTS) else {}
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    for scenario in (CLI_SCENARIO, BROWNOUT):
        table = digests.setdefault(scenario, {})
        for seed in seeds:
            out = Outcome()
            data = reference_report(scenario, seed, out, tmp)
            if not data:
                raise BenchError(f"reference {scenario} seed {seed}: "
                                 f"{out.errors}")
            table[str(seed)] = sha256(data)
            print(f"{scenario} seed {seed}: {table[str(seed)][:16]}")
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOAD_FNS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", metavar="SEEDS",
                        help="pin reference digests, e.g. 0-19")
    args = parser.parse_args(argv)
    try:
        if not os.path.isdir(os.path.join(SRC, "repro")):
            raise BenchError(f"no program to measure: {SRC}/repro is missing")
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        if args.write_digests:
            write_digests(args.write_digests)
            return 0
        names = list(WORKLOAD_FNS) if args.all else [args.workload]
        if names == [None]:
            parser.error("need --workload NAME or --all")
        results = [
            run_workload(n, args.seed, args.seconds, bool(args.trace))
            for n in names
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results[:-1]:
        print(json.dumps(result, sort_keys=True))
    print(json.dumps(results[-1], sort_keys=True))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
