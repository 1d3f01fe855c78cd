"""Energy-harvesting power traces.

The paper powers its MCU from a solar profile (NREL Oak Ridge rotating
shadowband radiometer data [17]); that dataset is not available offline, so
:func:`solar_trace` synthesizes the same character — a diurnal envelope
modulated by cloud occlusion (an Ornstein-Uhlenbeck process squashed to
[0, 1]) plus sensor noise.  Kinetic (bursty), RF (weak, steady), wind
(gusty, cubic-response), piezo (duty-cycled vibration), and constant
traces support ablations and heterogeneous fleet scenarios, and
:func:`trace_from_csv` loads real measurement files.

A :class:`PowerTrace` stores power samples on a uniform grid and exposes
interpolation, windowed means (the runtime's "charging efficiency" signal),
and exact cumulative-energy queries used by the simulator.

Each seeded family is written once, in two halves:

* a per-device *draw* that consumes that device's own generator in the
  family's fixed order (OU noise, gust / burst / on-off schedules, sensor
  noise) and returns the raw variates;
* a stacked *shape* that turns a block of devices' draws into a
  ``(devices, samples)`` power matrix: one OU scan for the whole block
  (:func:`_ou_scan`), then the family's elementwise shaping with each
  device's parameters as a column.

:func:`synthesize_traces` groups requests by family and grid (and OU
``theta``, so a block shares scan boundaries) and shapes at most
:data:`BLOCK_ROWS` devices at a time.  The public ``*_trace`` builders are
its one-row case, so a trace built alone and the same trace built inside a
fleet are byte-identical — every operation is elementwise, and ``cumsum``
along a row is the same sequential fold as on a 1-D array.
:func:`grid_power` samples many traces on their grids the same way, a
block at a time (the fleet's harvest summary).
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigError, EnergyError
from repro.utils.rng import as_generator

#: Devices per stacked block.  The trace synthesizers and
#: :func:`grid_power` never hold more rows than this at once, so their
#: scratch memory stays flat however large the fleet is.
BLOCK_ROWS = 16


def _grid(duration, dt) -> int:
    """Sample count of the uniform grid ``0, dt, ..., duration``.

    The one place a builder turns ``(duration, dt)`` into ``n``.  A zero,
    negative or non-finite step, a negative or non-finite duration, and a
    duration shorter than one step are :class:`ConfigError` here instead
    of a division by zero or a numpy shape error further down.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(duration) and duration >= 0):
        raise ConfigError(
            f"duration must be non-negative and finite, got {duration!r}"
        )
    n = int(round(duration / dt)) + 1
    if n < 2:
        raise ConfigError(
            f"duration {duration!r} spans less than one dt step ({dt!r})"
        )
    return n


def _cum_rows(samples: np.ndarray, dt) -> np.ndarray:
    """Validate a ``(rows, n)`` block of power samples and return each
    row's trapezoidal cumulative energy (mJ), ``0.0`` first."""
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
    lo, hi = samples.min(), samples.max()  # NaN propagates to both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise EnergyError("harvested power must be finite (got NaN or inf)")
    if lo < 0:
        raise EnergyError("harvested power cannot be negative")
    cum = np.empty(samples.shape)
    cum[:, 0] = 0.0
    increments = cum[:, 1:]
    np.add(samples[:, 1:], samples[:, :-1], out=increments)
    increments *= 0.5
    increments *= dt
    np.cumsum(increments, axis=1, out=increments)
    return cum


class PowerTrace:
    """Harvested power (milliWatts) sampled on a uniform time grid."""

    def __init__(self, samples_mw: np.ndarray, dt: float, name: str = "trace"):
        samples = np.asarray(samples_mw, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise ConfigError("trace needs a 1-D array of at least 2 samples")
        self._bind(samples, _cum_rows(samples[None, :], dt)[0], dt, name)

    def _bind(self, samples, cum_energy, dt, name) -> None:
        self.samples_mw = samples
        self.dt = float(dt)
        self.name = name
        # Trapezoidal cumulative energy in mJ for O(1) interval queries.
        self._cum_energy = cum_energy

    @classmethod
    def _rows(cls, samples: np.ndarray, dt: float, name: str) -> list:
        """One trace per row of a ``(rows, n)`` block (validated and
        integrated as a block).  Each trace owns copies of its rows: a
        row view would keep the whole block alive for as long as any one
        of its traces lives (in the fleet runner's trace cache, say)."""
        cum = _cum_rows(samples, dt)
        out = []
        for row, cum_row in zip(samples, cum):
            trace = cls.__new__(cls)
            trace._bind(row.copy(), cum_row.copy(), dt, name)
            out.append(trace)
        return out

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return (len(self.samples_mw) - 1) * self.dt

    def _clip_time(self, t: float) -> float:
        return min(max(t, 0.0), self.duration)

    def power(self, t):
        """Instantaneous power (mW) at ``t``, linearly interpolated.

        ``t`` may be a scalar (returns ``float``) or an array of times
        (returns an array via NumPy broadcasting) — the fleet layer queries
        traces in bulk, so the array path avoids a Python-level loop.
        """
        arr = np.asarray(t, dtype=np.float64)
        if arr.ndim == 0:
            tc = self._clip_time(float(arr))
            pos = tc / self.dt
            i = int(pos)
            if i >= len(self.samples_mw) - 1:
                return float(self.samples_mw[-1])
            frac = pos - i
            return float((1 - frac) * self.samples_mw[i] + frac * self.samples_mw[i + 1])
        i, frac = self._lerp_weights(arr)
        return (1 - frac) * self.samples_mw[i] + frac * self.samples_mw[i + 1]

    def _lerp_weights(self, t: np.ndarray) -> tuple:
        """``(i, frac)`` with ``power(t) == (1 - frac) * s[i] + frac *
        s[i + 1]`` for an array of times (:func:`grid_power` reuses the
        weights of one grid across every trace on the same ``(n, dt)``)."""
        pos = np.clip(t, 0.0, self.duration) / self.dt
        i = np.minimum(pos.astype(np.int64), len(self.samples_mw) - 2)
        return i, pos - i

    def energy_between(self, t0, t1):
        """Harvested energy (mJ) in ``[t0, t1]``.

        ``t0``/``t1`` may be scalars (returns ``float``) or equal-shaped
        arrays of interval endpoints (returns an array) — the simulator
        precomputes every event's charge increment in one bulk query
        instead of interpolating per event.
        """
        if np.ndim(t0) == 0 and np.ndim(t1) == 0:
            if t1 < t0:
                raise EnergyError(f"interval reversed: {t0} > {t1}")
            return self._cum_at(self._clip_time(t1)) - self._cum_at(self._clip_time(t0))
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        if np.any(t1 < t0):
            raise EnergyError("interval reversed in bulk energy query")
        duration = self.duration
        return self._cum_bulk(np.clip(t1, 0.0, duration)) - self._cum_bulk(
            np.clip(t0, 0.0, duration)
        )

    def _cum_at(self, t: float) -> float:
        pos = t / self.dt
        i = int(pos)
        if i >= len(self.samples_mw) - 1:
            return float(self._cum_energy[-1])
        frac = pos - i
        p0 = self.samples_mw[i]
        pt = (1 - frac) * p0 + frac * self.samples_mw[i + 1]
        partial = 0.5 * (p0 + pt) * (frac * self.dt)
        return float(self._cum_energy[i] + partial)

    def _cum_bulk(self, t: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_cum_at` over already-clipped times.

        Matches the scalar path bit-for-bit (same interpolation
        arithmetic), including the scalar early-return for positions at or
        past the last sample — ``duration / dt`` can round a hair above
        ``n - 1`` for inexact ``dt``, where interpolating instead of
        returning the exact total would drift by an ulp.
        """
        pos = np.asarray(t, dtype=np.float64) / self.dt
        last = len(self.samples_mw) - 1
        past_end = pos >= last  # same branch as the scalar i >= len-1 return
        i = np.minimum(pos.astype(np.int64), last - 1)
        frac = pos - i
        p0 = self.samples_mw[i]
        pt = (1 - frac) * p0 + frac * self.samples_mw[i + 1]
        partial = self._cum_energy[i] + 0.5 * (p0 + pt) * (frac * self.dt)
        return np.where(past_end, self._cum_energy[-1], partial)

    @property
    def total_energy_mj(self) -> float:
        return float(self._cum_energy[-1])

    def mean_power(self, t, window: float = 30.0):
        """Average power over the trailing ``window`` seconds before ``t``.

        This is the runtime's observable "charging efficiency" P: recent
        harvesting conditions, not the unknowable future.  ``t`` may be a
        scalar or an array of query times; the simulator precomputes the
        observed P for a whole event stream in one call.
        """
        if window <= 0:
            raise ConfigError("window must be positive")
        if np.ndim(t) == 0:
            t = self._clip_time(float(t))
            t0 = max(0.0, t - window)
            if t == t0:
                return self.power(t)
            return self.energy_between(t0, t) / (t - t0)
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, self.duration)
        t0 = np.maximum(0.0, t - window)
        span = t - t0
        degenerate = span <= 0.0  # only t == 0 with a positive window
        windowed = (self._cum_bulk(t) - self._cum_bulk(t0)) / np.where(
            degenerate, 1.0, span
        )
        if degenerate.any():
            return np.where(degenerate, self.power(t), windowed)
        return windowed

    def scaled(self, factor: float) -> "PowerTrace":
        """A copy with power multiplied by ``factor``."""
        if factor < 0:
            raise EnergyError("scale factor must be non-negative")
        return PowerTrace(self.samples_mw * factor, self.dt, name=f"{self.name}*{factor:g}")


def grid_power(traces, points: int):
    """Each trace's power on its own ``linspace(0, duration, points)``
    grid, yielded as ``(rows, points)`` blocks of at most
    :data:`BLOCK_ROWS` traces, in order.

    Every row is byte-identical to ``trace.power(grid)``.  Only the two
    samples around each grid point are gathered (never a stacked copy of
    whole traces), and traces on the same ``(n, dt)`` share one grid's
    interpolation weights.
    """
    weights: dict = {}
    for start in range(0, len(traces), BLOCK_ROWS):
        block = traces[start:start + BLOCK_ROWS]
        ends = np.empty((len(block), 2 * points))
        frac = np.empty((len(block), points))
        for k, trace in enumerate(block):
            key = (len(trace.samples_mw), trace.dt)
            w = weights.get(key)
            if w is None:
                i, f = trace._lerp_weights(np.linspace(0.0, trace.duration, points))
                w = weights[key] = (np.concatenate([i, i + 1]), f)
            trace.samples_mw.take(w[0], out=ends[k])
            frac[k] = w[1]
        yield (1 - frac) * ends[:, :points] + frac * ends[:, points:]


def trace_from_samples(samples_mw, dt: float, name: str = "custom") -> PowerTrace:
    """Wrap raw samples in a :class:`PowerTrace`."""
    return PowerTrace(np.asarray(samples_mw), dt, name=name)


def trace_from_csv(
    path: str, dt: Optional[float] = None, name: Optional[str] = None
) -> PowerTrace:
    """Load a trace from CSV.

    Accepts one column (power mW, requires ``dt``) or two columns
    (time s, power mW on a uniform grid).
    """
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed CSV {path!r}: {exc}") from exc
    if data.shape[1] == 1:
        if dt is None:
            raise ConfigError("single-column CSV requires an explicit dt")
        samples = data[:, 0]
    elif data.shape[1] >= 2:
        # Extra columns (annotations etc.) are ignored, as before.
        times, samples = data[:, 0], data[:, 1]
        steps = np.diff(times)
        if steps.size == 0 or not np.allclose(steps, steps[0], rtol=1e-3):
            raise ConfigError("CSV time column must be a uniform grid")
        dt = float(steps[0])
    else:
        raise ConfigError(f"CSV must have 1 or 2 columns, got {data.shape[1]}")
    return PowerTrace(samples, dt, name=name or f"csv:{path}")


def constant_trace(power_mw: float, duration: float, dt: float = 0.1) -> PowerTrace:
    """Steady harvesting at ``power_mw`` (tethered-supply ablation)."""
    n = _grid(duration, dt)
    return PowerTrace(np.full(n, float(power_mw)), dt, name="constant")


def _ou_scan(noise: np.ndarray, dt: float, theta: float) -> np.ndarray:
    """Zero-mean Ornstein-Uhlenbeck paths from a ``(rows, n - 1)`` block of
    already-scaled noise; returns ``(rows, n)`` with ``x[:, 0] == 0``.

    The Euler-Maruyama recurrence ``x[i] = phi * x[i-1] + noise[i-1]`` with
    ``phi = 1 - theta * dt`` is an exact AR(1), so each path follows from a
    scan: ``x[i] = phi**i * sum_{j<i} noise[j] * phi**-(j+1)``.  Rescaling
    by ``phi**-j`` overflows float64 over tens of thousands of samples, so
    the scan runs in blocks sized to bound the in-block dynamic range at
    ~1e4 (keeping the result within ~1e-12 of the sequential loop),
    carrying each row's block-final value across block boundaries.  Every
    row shares ``phi`` and the block boundaries, so one ``cumsum`` along
    axis 1 per block scans all rows at once, and each row's bytes equal
    the same scan run on that row alone.
    """
    rows, steps = noise.shape
    x = np.zeros((rows, steps + 1))
    phi = 1.0 - theta * dt
    if phi == 0.0:
        x[:, 1:] = noise
        return x
    abs_phi = abs(phi)
    if abs_phi == 1.0:
        block = steps
    else:
        log_range = abs(np.log(abs_phi))
        block = max(16, int(np.log(1e4) / log_range) + 1)
        # Never let phi**-block overflow float64, whatever the params.
        block = min(block, max(int(np.log(1e250) / log_range), 1), steps)
    for start in range(0, steps, block):
        stop = min(start + block, steps)
        powers = phi ** np.arange(1, stop - start + 1)
        # In place: x = powers * (carry + cumsum(noise / powers)).
        scan = x[:, start + 1:stop + 1]
        np.divide(noise[:, start:stop], powers, out=scan)
        np.cumsum(scan, axis=1, out=scan)
        scan += x[:, start:start + 1]
        scan *= powers
    return x


def _ou_process(n: int, dt: float, theta: float, sigma: float, rng) -> np.ndarray:
    """One zero-mean Ornstein-Uhlenbeck path of ``n`` samples: the one-row
    case of :func:`_ou_scan`, drawing its noise from ``rng``."""
    return _ou_scan(_ou_noise([rng.normal(size=n - 1)], [sigma], dt), dt, theta)[0]


def _ou_noise(draws, sigmas, dt) -> np.ndarray:
    """Stack per-device standard-normal draws into scaled OU noise rows."""
    noise = np.stack(draws)
    noise *= np.asarray(sigmas, dtype=np.float64)[:, None]
    noise *= np.sqrt(dt)
    return noise


def _col(rows, key) -> np.ndarray:
    """Parameter ``key`` of every row, as a ``(rows, 1)`` column."""
    return np.array([p[key] for p in rows], dtype=np.float64)[:, None]


def _schedule(gen, duration, dt, n, rate_hz, length_s, next_amp):
    """Exponential episodes (gusts, bursts) on the grid, in draw order:
    ``[(i0, i1, amplitude), ...]``; ``next_amp()`` draws one amplitude."""
    episodes = []
    t = 0.0
    while t < duration:
        t += gen.exponential(1.0 / rate_hz) if rate_hz > 0 else duration
        if t >= duration:
            break
        length = gen.exponential(length_s)
        i0 = int(t / dt)
        i1 = min(n, int((t + length) / dt) + 1)
        episodes.append((i0, i1, next_amp()))
        t += length
    return episodes


def _episode_cells(n: int, episodes) -> tuple:
    """Flat indices into a C-ordered ``(rows, n)`` block of every cell
    covered by row ``k``'s ``episodes[k]`` (``(i0, i1, ...)`` slices), in
    row then episode order, and each episode's length."""
    starts, lengths = [], []
    for k, row in enumerate(episodes):
        for episode in row:
            starts.append(k * n + episode[0])
            lengths.append(episode[1] - episode[0])
    lengths = np.array(lengths, dtype=np.int64)
    first = np.cumsum(lengths) - lengths
    cells = np.repeat(np.array(starts, dtype=np.int64) - first, lengths)
    cells += np.arange(cells.size)
    return cells, lengths


def _add_episodes(block: np.ndarray, episodes, ramp=None) -> None:
    """``block[k, i0:i1] += amp`` (times ``ramp(i1 - i0)`` if given) for
    every ``(i0, i1, amp)`` of every row, as one unbuffered ``np.add.at``:
    a cell under overlapping episodes takes their additions one at a
    time in episode order, exactly like the sequential slice updates."""
    cells, lengths = _episode_cells(block.shape[1], episodes)
    if not cells.size:
        return
    amps = np.array([e[2] for row in episodes for e in row], dtype=np.float64)
    values = np.repeat(amps, lengths)
    if ramp is not None:
        values *= np.concatenate([ramp(k) for k in lengths.tolist()])
    np.add.at(block.reshape(-1), cells, values)


def _require(ok: bool, family: str, key: str, value, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{family} trace: {key} must be {rule}, got {value!r}")


# ---------------------------------------------------------------------- #
# Families: per-device draw, stacked shape
# ---------------------------------------------------------------------- #
def _solar_check(p) -> None:
    _require(p["noise_mw"] >= 0, "solar", "noise_mw", p["noise_mw"], ">= 0")


def _solar_draw(p, n, gen):
    return gen.normal(size=n - 1), gen.normal(0.0, p["noise_mw"], size=n)


def _solar_shape(rows, draws, n, dt, theta) -> np.ndarray:
    t = np.arange(n) * dt
    day_length = np.array([
        p["duration"] if p["day_length"] is None else p["day_length"]
        for p in rows
    ])[:, None]
    phase = _col(rows, "phase")
    if (day_length == day_length[0]).all() and (phase == phase[0]).all():
        day_length, phase = day_length[:1], phase[:1]  # one shared envelope
    envelope = np.sin(np.pi * (t / day_length + phase))
    envelope = np.clip(envelope, 0.0, None) ** 1.5
    sigmas = [
        float(np.sqrt(2.0 * p["cloud_theta"])) if p["cloud_sigma"] is None
        else p["cloud_sigma"]  # None: unit stationary std
        for p in rows
    ]
    clouds = _ou_scan(_ou_noise([d[0] for d in draws], sigmas, dt), dt, theta)
    # occlusion = 1 / (1 + exp(-depth * (clouds - bias))), in place.
    occlusion = clouds
    occlusion -= _col(rows, "cloud_bias")
    occlusion *= -_col(rows, "cloud_depth")
    np.exp(occlusion, out=occlusion)
    occlusion += 1.0
    np.divide(1.0, occlusion, out=occlusion)
    power = _col(rows, "peak_mw") * envelope
    power *= occlusion
    for row, (_, sensor_noise) in zip(power, draws):
        row += sensor_noise
    return np.clip(power, 0.0, None, out=power)


def _kinetic_check(p) -> None:
    rate = p["burst_rate_hz"]
    _require(math.isfinite(rate) and rate >= 0, "kinetic", "burst_rate_hz",
             rate, "finite and >= 0")
    _require(math.isfinite(p["burst_length_s"]) and p["burst_length_s"] >= 0,
             "kinetic", "burst_length_s", p["burst_length_s"], "finite and >= 0")


def _kinetic_draw(p, n, gen):
    power_mw = p["burst_power_mw"]
    return _schedule(
        gen, p["duration"], p["dt"], n, p["burst_rate_hz"], p["burst_length_s"],
        lambda: power_mw * (0.5 + 0.5 * gen.random()),
    )


def _kinetic_shape(rows, draws, n, dt, theta) -> np.ndarray:
    power = np.empty((len(rows), n))
    power[:] = _col(rows, "base_mw")
    _add_episodes(power, draws)
    return power


def _wind_check(p) -> None:
    _require(p["mean_speed"] > 0, "wind", "mean_speed", p["mean_speed"], "positive")
    rate = p["gust_rate_hz"]
    _require(math.isfinite(rate) and rate >= 0, "wind", "gust_rate_hz",
             rate, "finite and >= 0")
    _require(math.isfinite(p["gust_length_s"]) and p["gust_length_s"] >= 0,
             "wind", "gust_length_s", p["gust_length_s"], "finite and >= 0")


def _wind_draw(p, n, gen):
    z = gen.normal(size=n - 1)
    scale = p["gust_strength"] * p["mean_speed"]
    gusts = _schedule(
        gen, p["duration"], p["dt"], n, p["gust_rate_hz"], p["gust_length_s"],
        lambda: scale * (0.5 + 0.5 * gen.random()),
    )
    return z, gusts


@lru_cache(maxsize=512)
def _gust_profile(k: int) -> np.ndarray:
    """Half-sine ramp of a ``k``-sample gust (shared, so read-only)."""
    ramp = np.sin(np.linspace(0.0, np.pi, max(k, 1)))
    ramp.flags.writeable = False
    return ramp


def _wind_shape(rows, draws, n, dt, theta) -> np.ndarray:
    sigmas = [p["turbulence"] * np.sqrt(0.1) for p in rows]
    mean_speed = _col(rows, "mean_speed")
    # speed = mean_speed * (1 + turbulence), in place.
    speed = _ou_scan(_ou_noise([d[0] for d in draws], sigmas, dt), dt, theta)
    speed += 1.0
    speed *= mean_speed
    # Gusts ramp in and die off (half-sine profile) rather than step.
    _add_episodes(speed, [gusts for _, gusts in draws], ramp=_gust_profile)
    np.clip(speed, 0.0, None, out=speed)
    # power = 0.5 * peak_mw * (speed / mean_speed) ** 3, in place.
    power = speed
    power /= mean_speed
    np.power(power, 3, out=power)
    power *= 0.5 * _col(rows, "peak_mw")
    return np.clip(power, 0.0, None, out=power)


def _piezo_check(p) -> None:
    duty, period = p["duty_cycle"], p["cycle_period_s"]
    _require(0.0 < duty < 1.0, "piezo", "duty_cycle", duty, "in (0, 1)")
    # A zero period would draw zero-length on/off intervals forever.
    _require(math.isfinite(period) and period > 0, "piezo", "cycle_period_s",
             period, "positive and finite")


def _piezo_draw(p, n, gen):
    duty, period, duration, dt = (
        p["duty_cycle"], p["cycle_period_s"], p["duration"], p["dt"]
    )
    on = []
    mean_on = duty * period
    mean_off = (1.0 - duty) * period
    t, machine_on = 0.0, gen.random() < duty
    while t < duration:
        length = gen.exponential(mean_on if machine_on else mean_off)
        if machine_on:
            on.append((int(t / dt), min(n, int((t + length) / dt) + 1)))
        t += length
        machine_on = not machine_on
    return on, gen.normal(size=n - 1)


def _piezo_shape(rows, draws, n, dt, theta) -> np.ndarray:
    off = np.ones((len(rows), n), dtype=bool)
    off.reshape(-1)[_episode_cells(n, [on for on, _ in draws])[0]] = False
    sigmas = [p["amplitude_jitter"] * np.sqrt(0.04) for p in rows]
    # power = peak_mw * exp(jitter) while on, base_mw while off, in place.
    power = _ou_scan(_ou_noise([d[1] for d in draws], sigmas, dt), dt, theta)
    np.exp(power, out=power)
    power *= _col(rows, "peak_mw")
    np.copyto(power, _col(rows, "base_mw"), where=off)
    return np.clip(power, 0.0, None, out=power)


def _rf_draw(p, n, gen):
    return gen.normal(size=n - 1)


def _rf_shape(rows, draws, n, dt, theta) -> np.ndarray:
    sigmas = [p["fading_sigma"] * np.sqrt(0.04) for p in rows]
    # power = mean_mw * exp(fading), in place.
    power = _ou_scan(_ou_noise(draws, sigmas, dt), dt, theta)
    np.exp(power, out=power)
    power *= _col(rows, "mean_mw")
    return np.clip(power, 0.0, None, out=power)


@dataclass(frozen=True)
class _Family:
    """One seeded family: its public builder (whose signature holds the
    defaults), validation, OU ``theta`` (``None``: no OU), per-device
    draw and stacked shape."""

    builder: Callable
    theta: Callable
    draw: Callable
    shape: Callable
    check: Callable = lambda p: None


@lru_cache(maxsize=None)
def _defaults(builder) -> dict:
    return {
        name: param.default
        for name, param in inspect.signature(builder).parameters.items()
    }


def _resolve(family: str, params: dict) -> tuple:
    """``(full validated params, grid size, generator)`` of one request."""
    fam = _FAMILIES.get(family)
    if fam is None:
        raise ConfigError(f"unknown trace family {family!r}")
    defaults = _defaults(fam.builder)
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(
            f"{family} trace: {fam.builder.__name__}() got an unexpected "
            f"keyword argument {unknown[0]!r}"
        )
    p = {**defaults, **params}
    for key, value in p.items():
        if key == "seed" or (value is None and defaults[key] is None):
            continue
        if not isinstance(value, numbers.Real):
            raise ConfigError(f"{family} trace: {key} must be a number, got {value!r}")
        p[key] = float(value)
    try:
        gen = as_generator(p["seed"])
    except TypeError as exc:
        raise ConfigError(f"{family} trace: {exc}") from None
    n = _grid(p["duration"], p["dt"])
    fam.check(p)
    return p, n, gen


def synthesize_traces(requests) -> list:
    """Build many seeded traces at once; ``requests`` are ``(family,
    params)`` pairs, ``params`` the keyword arguments of that family's
    ``*_trace`` builder.

    Returns one :class:`PowerTrace` per request, in order, each
    byte-identical (samples and cumulative energy) to calling the builder
    alone.  Every request is validated first, in order; then each device
    draws from its own generator in the family's order, and devices on the
    same family, grid and OU ``theta`` are shaped together, at most
    :data:`BLOCK_ROWS` at a time.  Requests sharing one live ``Generator``
    as their seed must be in the same group to keep their draws in request
    order.
    """
    resolved = [_resolve(family, params) for family, params in requests]
    groups: dict = {}
    for i, ((family, _), (p, n, _)) in enumerate(zip(requests, resolved)):
        key = (family, n, p["dt"], _FAMILIES[family].theta(p))
        groups.setdefault(key, []).append(i)
    out = [None] * len(resolved)
    for (family, n, dt, theta), members in groups.items():
        fam = _FAMILIES[family]
        for start in range(0, len(members), BLOCK_ROWS):
            block = [resolved[i] for i in members[start:start + BLOCK_ROWS]]
            rows = [p for p, _, _ in block]
            draws = [fam.draw(p, n, gen) for p, _, gen in block]
            samples = fam.shape(rows, draws, n, dt, theta)
            traces = PowerTrace._rows(samples, dt, family)
            for i, trace in zip(members[start:start + BLOCK_ROWS], traces):
                out[i] = trace
    return out


def solar_trace(
    duration: float = 43200.0,
    dt: float = 1.0,
    peak_mw: float = 0.027,
    day_length: float = None,
    phase: float = 0.0,
    cloud_theta: float = 0.01,
    cloud_sigma: float = None,
    cloud_depth: float = 4.0,
    cloud_bias: float = 0.5,
    noise_mw: float = 0.0005,
    seed=0,
) -> PowerTrace:
    """Synthetic solar harvesting profile (NREL-trace substitute).

    ``duration`` seconds (default: a 12-hour daylight arc, matching the
    paper's day-scale solar segment) of a half-sine diurnal envelope,
    modulated by cloud occlusion and small sensor noise.  Clouds follow a
    slow Ornstein-Uhlenbeck process squashed through a sigmoid, producing
    the strongly bimodal character of real irradiance data: long clear
    stretches near full power and long deep dips at a few percent of it.
    That variability is load-bearing for the paper's comparison — an
    all-or-nothing baseline only completes inferences during clear
    stretches, while graded exits keep producing results through the dips.

    Power is clipped at zero: outside the daylight arc nothing harvests.
    ``cloud_sigma=None`` gives the clouds unit stationary std.
    """
    return synthesize_traces([("solar", locals())])[0]


def kinetic_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    burst_power_mw: float = 0.5,
    burst_rate_hz: float = 0.02,
    burst_length_s: float = 20.0,
    base_mw: float = 0.005,
    seed=0,
) -> PowerTrace:
    """Bursty kinetic harvesting (e.g. footsteps): idle base + active bursts."""
    return synthesize_traces([("kinetic", locals())])[0]


def wind_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    mean_speed: float = 1.0,
    turbulence: float = 0.35,
    gust_rate_hz: float = 0.005,
    gust_strength: float = 1.2,
    gust_length_s: float = 45.0,
    peak_mw: float = 0.08,
    seed=0,
) -> PowerTrace:
    """Micro wind-turbine harvesting: slow turbulence plus discrete gusts.

    Wind speed is a mean level modulated by an Ornstein-Uhlenbeck
    turbulence process with exponential gust episodes layered on top;
    harvested power follows the cubic wind-power law, normalized so that
    steady ``mean_speed`` wind yields ``peak_mw``/2.  The cubic response
    makes the trace heavy-tailed — long near-calm stretches punctuated by
    power spikes an order of magnitude above the median, a regime between
    solar (slow, bimodal) and kinetic (sparse bursts).
    """
    return synthesize_traces([("wind", locals())])[0]


def piezo_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    peak_mw: float = 0.05,
    duty_cycle: float = 0.5,
    cycle_period_s: float = 120.0,
    amplitude_jitter: float = 0.3,
    base_mw: float = 0.0002,
    seed=0,
) -> PowerTrace:
    """Piezo/vibration harvesting from duty-cycled machinery.

    Models the *envelope* of rectified vibration power (the raw kHz-scale
    oscillation is far below ``dt`` and only its mean power matters to a
    capacitor): the host machine alternates exponentially-distributed on/off
    intervals with mean on-fraction ``duty_cycle``, and while on, harvested
    power is ``peak_mw`` modulated by a slow Ornstein-Uhlenbeck amplitude
    jitter (mount resonance drifting with load).  Off intervals fall to a
    tiny ambient ``base_mw``.
    """
    return synthesize_traces([("piezo", locals())])[0]


def rf_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    mean_mw: float = 0.02,
    fading_sigma: float = 0.3,
    seed=0,
) -> PowerTrace:
    """Weak RF harvesting with log-normal slow fading."""
    return synthesize_traces([("rf", locals())])[0]


_FAMILIES = {
    "solar": _Family(solar_trace, lambda p: p["cloud_theta"], _solar_draw,
                     _solar_shape, _solar_check),
    "kinetic": _Family(kinetic_trace, lambda p: None, _kinetic_draw,
                       _kinetic_shape, _kinetic_check),
    "wind": _Family(wind_trace, lambda p: 0.05, _wind_draw, _wind_shape,
                    _wind_check),
    "piezo": _Family(piezo_trace, lambda p: 0.02, _piezo_draw, _piezo_shape,
                     _piezo_check),
    "rf": _Family(rf_trace, lambda p: 0.02, _rf_draw, _rf_shape),
}

#: Seeded families :func:`synthesize_traces` builds.
SEEDED_FAMILIES = tuple(_FAMILIES)
