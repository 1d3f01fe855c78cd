"""Stacked trace synthesis: a batch's traces built on the device axis.

``build_traces`` / ``synthesize_traces`` shape a whole group of devices
at once; every row must be byte-identical (samples and cumulative
energy) to building that device's trace alone, and the one-device
builders must still produce the bytes they did before stacking existed
(the sha256 pins below).  Also covers the stacked harvest summary and
the degenerate-parameter errors.
"""

import contextlib
import hashlib
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import (
    PowerTrace,
    constant_trace,
    kinetic_trace,
    piezo_trace,
    rf_trace,
    solar_trace,
    trace_from_csv,
    wind_trace,
)
from repro.energy.traces import (
    BLOCK_ROWS,
    _ou_process,
    _ou_scan,
    grid_power,
    synthesize_traces,
)
from repro.errors import ConfigError, EnergyError
from repro.fleet import runner
from repro.fleet.__main__ import main as fleet_main
from repro.fleet.runner import build_trace, build_traces
from repro.fleet.spec import DeviceSpec, FleetSpec
from repro.sim.results import harvest_percentiles, percentile_dict, percentile_rows

BUILDERS = {
    "solar": solar_trace,
    "wind": wind_trace,
    "piezo": piezo_trace,
    "rf": rf_trace,
    "kinetic": kinetic_trace,
}


@pytest.fixture(autouse=True)
def empty_trace_cache():
    runner._TRACE_CACHE.clear()
    yield
    runner._TRACE_CACHE.clear()


@pytest.fixture
def synthesized(monkeypatch):
    """Every request the runner hands to ``synthesize_traces``."""
    requests = []

    def counting(batch):
        requests.extend(batch)
        return synthesize_traces(batch)

    monkeypatch.setattr(runner, "synthesize_traces", counting)
    return requests


def digest(trace) -> str:
    h = hashlib.sha256()
    h.update(trace.samples_mw.tobytes())
    h.update(trace._cum_energy.tobytes())
    return h.hexdigest()


def assert_same_bytes(a, b):
    assert a.samples_mw.tobytes() == b.samples_mw.tobytes()
    assert a._cum_energy.tobytes() == b._cum_energy.tobytes()
    assert a.dt == b.dt and a.name == b.name


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# --------------------------------------------------------------------- #
# One trace per family, pinned to the bytes the per-device builders
# produced before stacked synthesis existed.
# --------------------------------------------------------------------- #
PINNED = {
    "solar": (
        solar_trace,
        dict(duration=600.0, dt=0.5, peak_mw=0.03, cloud_theta=0.02, seed=7),
        "bc2e6d7248d97fbad0aca5f496622f56c8e24d1bd027a33c0be3043032d82342",
    ),
    "wind": (
        wind_trace,
        dict(duration=900.0, dt=1.0, gust_rate_hz=0.01, seed=11),
        "4e4939093bdc1e06d151514eb3d0c3472375b25c6991b6e4500799c3dfa24e0f",
    ),
    "piezo": (
        piezo_trace,
        dict(duration=900.0, dt=1.0, duty_cycle=0.4, seed=13),
        "3c98a8c30eefb582b80a8b9714665ac00a4de2f2245e92d1dc65587f2c5aacfe",
    ),
    "rf": (
        rf_trace,
        dict(duration=600.0, dt=0.5, mean_mw=0.01, seed=17),
        "7d7d98db0669a85f16679ea496d8f182de92421d2fd706f7c7752e172f9d8977",
    ),
    "kinetic": (
        kinetic_trace,
        dict(duration=900.0, dt=1.0, burst_rate_hz=0.01, burst_length_s=30.0, seed=19),
        "3201a1b7dd2020a79e2cedc5876ff7e4f97016aa4c013fdee66b07196c0fc725",
    ),
    "constant": (
        constant_trace,
        dict(power_mw=0.4, duration=100.0, dt=0.5),
        "b743ce0bca404ec1da49c6b97ebf59926856bcb2948025b44ad71c5aae448b00",
    ),
    # Short, frequent episodes: consecutive bursts and gusts share their
    # boundary samples, whose additions must land one at a time, in order.
    "kinetic-overlapping": (
        kinetic_trace,
        dict(duration=120.0, dt=1.0, burst_rate_hz=2.0, burst_length_s=0.4, seed=23),
        "c09c815c8b9339390c2553c919fff100fbdd0df117d15944c5545ce72b541ea5",
    ),
    "wind-overlapping": (
        wind_trace,
        dict(duration=120.0, dt=1.0, gust_rate_hz=2.0, gust_length_s=0.6, seed=29),
        "57d680016ed8b1764ef161ab2b3589b4d7996bfdad5d73abdae541b2d95ef6a1",
    ),
    "piezo-short-cycles": (
        piezo_trace,
        dict(duration=120.0, dt=1.0, cycle_period_s=1.5, seed=31),
        "964edd98932339bd506a27447024d1d679ae208c736608262ae4c48711c90800",
    ),
}


@pytest.mark.parametrize("family", sorted(PINNED))
def test_pinned_trace_bytes(family):
    builder, params, expected = PINNED[family]
    assert digest(builder(**params)) == expected


# --------------------------------------------------------------------- #
# Stacked == per-device, per family
# --------------------------------------------------------------------- #
GRIDS = st.sampled_from([(60.0, 1.0), (60.4, 1.0), (90.0, 0.5), (45.0, 0.25)])

FAMILY_PARAMS = {
    "solar": st.fixed_dictionaries(
        {
            "peak_mw": st.floats(0.005, 0.05),
            "cloud_theta": st.sampled_from([0.01, 0.05, 0.5]),
            "phase": st.sampled_from([0.0, 0.1]),
            "noise_mw": st.floats(0.0, 0.002),
        },
        optional={
            "day_length": st.floats(50.0, 200.0),
            "cloud_sigma": st.floats(0.05, 0.5),
            "cloud_bias": st.floats(0.2, 0.8),
        },
    ),
    "wind": st.fixed_dictionaries(
        {
            "peak_mw": st.floats(0.01, 0.1),
            "gust_rate_hz": st.floats(0.0, 0.2),
            "gust_length_s": st.floats(0.5, 30.0),
        },
        optional={
            "turbulence": st.floats(0.0, 0.6),
            "mean_speed": st.floats(0.5, 2.0),
            "gust_strength": st.floats(0.0, 2.0),
        },
    ),
    "piezo": st.fixed_dictionaries(
        {
            "duty_cycle": st.floats(0.1, 0.9),
            "cycle_period_s": st.floats(2.0, 60.0),
        },
        optional={
            "peak_mw": st.floats(0.01, 0.08),
            "amplitude_jitter": st.floats(0.0, 0.6),
            "base_mw": st.floats(0.0, 0.001),
        },
    ),
    "rf": st.fixed_dictionaries(
        {"mean_mw": st.floats(0.001, 0.05)},
        optional={"fading_sigma": st.floats(0.0, 0.6)},
    ),
    "kinetic": st.fixed_dictionaries(
        {
            "burst_rate_hz": st.floats(0.0, 0.2),
            "burst_length_s": st.floats(0.0, 20.0),
        },
        optional={
            "burst_power_mw": st.floats(0.01, 0.5),
            "base_mw": st.floats(0.0, 0.01),
        },
    ),
}


def device_group(family):
    device = st.tuples(GRIDS, FAMILY_PARAMS[family], st.integers(0, 2**32 - 1))
    return st.lists(device, min_size=1, max_size=70)


def check_group(family, group):
    specs = []
    for (duration, dt), params, seed in group:
        spec = {"family": family, "duration": duration, "dt": dt, **params}
        specs.append((spec, seed))
    stacked = build_traces(specs)
    for (spec, seed), trace in zip(specs, stacked):
        params = {k: v for k, v in spec.items() if k != "family"}
        assert_same_bytes(trace, BUILDERS[family](**params, seed=seed))


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_stacked_group_matches_per_device_builds(family):
    @given(group=device_group(family))
    @settings(max_examples=12, deadline=None)
    def prop(group):
        runner._TRACE_CACHE.clear()
        check_group(family, group)

    prop()


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_blocks_split_a_large_group_identically(family):
    """One grid, more devices than two blocks: the block boundaries must
    not show in the bytes."""
    seeds = np.random.default_rng(5).integers(0, 2**32, size=2 * BLOCK_ROWS + 3)
    check_group(family, [((60.0, 1.0), {}, int(s)) for s in seeds])


def test_mixed_families_in_one_call():
    requests = [
        ("solar", {"duration": 50.0, "dt": 1.0, "seed": 1}),
        ("rf", {"duration": 50.0, "dt": 1.0, "seed": 2}),
        ("solar", {"duration": 80.0, "dt": 1.0, "seed": 3}),
        ("kinetic", {"duration": 50.0, "dt": 0.5, "seed": 4}),
        ("solar", {"duration": 50.0, "dt": 1.0, "seed": 5, "cloud_theta": 0.2}),
    ]
    for (family, params), trace in zip(requests, synthesize_traces(requests)):
        assert_same_bytes(trace, BUILDERS[family](**params))


# --------------------------------------------------------------------- #
# The OU scan
# --------------------------------------------------------------------- #
def ou_loop(noise, phi):
    x = np.zeros(noise.size + 1)
    for i in range(1, x.size):
        x[i] = phi * x[i - 1] + noise[i - 1]
    return x


@pytest.mark.parametrize(
    "n, dt, theta",
    [
        (300, 1.0, 1.0),  # phi == 0: pure noise
        (300, 1.0, 0.0),  # phi == 1: a random walk
        (300, 1.0, 2.0),  # phi == -1
        (300, 0.5, 3.0),  # phi == -0.5
        (2, 1.0, 0.05),  # a single step
        (2, 1.0, 2.0),
        (5000, 1.0, 0.01),  # many scan blocks
    ],
)
def test_ou_scan_rows_are_bitwise_single_row_scans(n, dt, theta):
    noise = np.random.default_rng(3).normal(size=(5, n - 1))
    stacked = _ou_scan(noise, dt, theta)
    assert stacked.shape == (5, n) and not stacked[:, 0].any()
    for row, path in zip(noise, stacked):
        assert _ou_scan(row[None, :], dt, theta)[0].tobytes() == path.tobytes()
    phi = 1.0 - theta * dt
    for row, path in zip(noise, stacked):
        reference = ou_loop(row, phi)
        if abs(phi) in (0.0, 1.0):
            # Unit or zero powers: the scan is the loop, exactly.
            assert reference.tobytes() == path.tobytes()
        else:
            np.testing.assert_allclose(path, reference, rtol=1e-9, atol=1e-9)


def test_ou_process_is_the_one_row_scan():
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    one = _ou_process(400, 0.5, 0.1, 0.3, rng_a)
    noise = rng_b.normal(size=399) * 0.3 * np.sqrt(0.5)
    assert one.tobytes() == _ou_scan(noise[None, :], 0.5, 0.1)[0].tobytes()


# --------------------------------------------------------------------- #
# The per-process cache
# --------------------------------------------------------------------- #
def test_fleet_larger_than_the_cap_builds_each_trace_once(synthesized):
    cap = runner._TRACE_CACHE_MAX
    grid = {"duration": 20.0, "dt": 1.0}
    specs = [({"family": "rf", **grid}, seed) for seed in range(cap + 44)]
    traces = build_traces(specs)
    assert len(synthesized) == cap + 44
    assert len({id(t) for t in traces}) == cap + 44
    keys = [runner._trace_cache_key("rf", {**grid, "seed": s}) for _, s in specs]
    assert list(runner._TRACE_CACHE) == keys[-cap:]
    # The last cap traces are hits; the evicted head is rebuilt.
    synthesized.clear()
    again = build_traces(specs[-cap:])
    assert synthesized == []
    assert all(a is b for a, b in zip(again, traces[-cap:]))
    build_traces(specs[:3])
    assert len(synthesized) == 3


def test_cached_traces_do_not_pin_their_stacked_block():
    # A row view would keep its whole (BLOCK_ROWS, n) block alive for as
    # long as the cache holds that one trace.
    grid = {"duration": 50.0, "dt": 1.0}
    traces = build_traces(
        [({"family": "solar", **grid}, seed) for seed in range(BLOCK_ROWS + 5)]
    )
    for trace in traces:
        assert trace.samples_mw.base is None
        assert trace._cum_energy.base is None


def test_identical_specs_in_one_call_share_one_trace(synthesized):
    spec = {"family": "wind", "duration": 30.0, "dt": 1.0, "seed": 4}
    a, b, c = build_traces([(spec, 0), (spec, 1), (dict(spec, seed=5), 0)])
    assert a is b and a is not c
    assert len(synthesized) == 2


def test_build_trace_is_the_one_device_case():
    spec = {"family": "piezo", "duration": 80.0, "dt": 0.5, "duty_cycle": 0.3}
    alone = build_trace(spec, 12)
    runner._TRACE_CACHE.clear()
    stacked = build_traces([(dict(spec, duty_cycle=0.6), 11), (spec, 12)])[1]
    assert_same_bytes(alone, stacked)


# --------------------------------------------------------------------- #
# The harvest summary
# --------------------------------------------------------------------- #
def test_harvest_percentiles_match_the_per_trace_summary():
    durations, steps = (120.0, 300.0, 77.0), (1.0, 0.5)
    traces = [
        solar_trace(duration=durations[i % 3], dt=steps[i % 2], seed=i)
        for i in range(2 * BLOCK_ROWS + 9)
    ]
    traces.append(constant_trace(0.3, 10.0, 1.0))
    stacked = harvest_percentiles(traces)
    for trace, summary in zip(traces, stacked):
        grid = np.linspace(0.0, trace.duration, 512)
        assert summary == percentile_dict(trace.power(grid), qs=(10, 50, 90))


def test_grid_power_rows_are_the_bulk_power_query():
    traces = [
        wind_trace(duration=40.0 + 7 * (i % 3), dt=0.5, seed=i)
        for i in range(BLOCK_ROWS + 3)
    ]
    blocks = list(grid_power(traces, 33))
    assert [len(b) for b in blocks] == [BLOCK_ROWS, 3]
    expected = np.stack([t.power(np.linspace(0.0, t.duration, 33)) for t in traces])
    assert np.concatenate(blocks).tobytes() == expected.tobytes()


def test_percentile_rows_match_numpy():
    values = np.random.default_rng(1).normal(size=(7, 33))
    qs = (0, 10, 25, 50, 90, 99.5, 100)
    expected = np.percentile(values, qs, axis=1).T
    assert percentile_rows(values, qs).tobytes() == expected.tobytes()


# --------------------------------------------------------------------- #
# Degenerate parameters are ConfigError, never a hang or a raw error
# --------------------------------------------------------------------- #
def test_piezo_zero_cycle_period_is_rejected_not_a_hang():
    spec = {"family": "piezo", "duration": 100.0, "dt": 1.0, "cycle_period_s": 0.0}
    with time_limit(3), pytest.raises(ConfigError, match="cycle_period_s"):
        build_trace(spec, 1)
    with time_limit(3), pytest.raises(ConfigError, match="cycle_period_s"):
        piezo_trace(duration=100.0, dt=1.0, cycle_period_s=-5.0)


@pytest.mark.parametrize("family", sorted(BUILDERS) + ["constant"])
@pytest.mark.parametrize(
    "grid, match",
    [
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": float("nan")}, "dt must be positive"),
        ({"duration": -10.0}, "duration must be non-negative"),
        ({"duration": float("inf")}, "duration must be non-negative"),
        ({"duration": 0.2, "dt": 1.0}, "less than one dt step"),
    ],
)
def test_degenerate_grids_are_config_errors(family, grid, match):
    spec = {"family": family, "duration": 100.0, "dt": 1.0, **grid}
    if family == "constant":
        spec["power_mw"] = 0.1
    with pytest.raises(ConfigError, match=match):
        build_trace(spec, 3)


@pytest.mark.parametrize(
    "family, params, match",
    [
        ("solar", {"noise_mw": -0.1}, "noise_mw"),
        ("wind", {"gust_length_s": -1.0}, "gust_length_s"),
        ("wind", {"gust_rate_hz": float("inf")}, "gust_rate_hz"),
        ("wind", {"gust_rate_hz": -0.01}, "gust_rate_hz"),
        ("kinetic", {"burst_length_s": -1.0}, "burst_length_s"),
        ("kinetic", {"burst_rate_hz": float("inf")}, "burst_rate_hz"),
        ("kinetic", {"burst_rate_hz": -0.02}, "burst_rate_hz"),
        ("piezo", {"cycle_period_s": float("inf")}, "cycle_period_s"),
        ("rf", {"mean_mw": "strong"}, "mean_mw must be a number"),
        ("rf", {"mean_mw": "0.5"}, "mean_mw must be a number"),
        ("solar", {"peak_mw": None}, "peak_mw must be a number"),
        ("rf", {"fading": 0.3}, "unexpected keyword argument 'fading'"),
        ("rf", {"seed": "x"}, "cannot build a Generator"),
    ],
)
def test_bad_family_params_are_config_errors(family, params, match):
    spec = {"family": family, "duration": 100.0, "dt": 1.0, **params}
    with time_limit(3), pytest.raises(ConfigError, match=match):
        build_trace(spec, 3)


def test_cli_reports_a_bad_trace_spec_cleanly(tmp_path, capsys):
    device = DeviceSpec(
        name="bad",
        trace={"family": "solar", "duration": 100.0, "dt": 0.0},
        controller={"kind": "greedy"},
        events={"kind": "uniform", "count": 3},
    )
    path = tmp_path / "fleet.json"
    FleetSpec(name="bad", seed=1, devices=[device]).to_json(str(path))
    assert fleet_main(["run", "--spec", str(path), "--quiet"]) == 2
    assert "dt must be positive" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# PowerTrace rejects non-finite input
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_power_trace_rejects_non_finite_samples(bad):
    with pytest.raises(EnergyError, match="finite"):
        PowerTrace([1.0, bad, 2.0], 1.0)


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_power_trace_rejects_non_finite_dt(dt):
    with pytest.raises(ConfigError, match="dt"):
        PowerTrace([1.0, 2.0], dt)


def test_csv_with_a_nan_cell_is_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("0.0,1.0\n1.0,nan\n2.0,1.0\n")
    with pytest.raises(EnergyError, match="finite"):
        trace_from_csv(str(path))
