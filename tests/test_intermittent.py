"""MCU model and SONIC-style intermittent execution tests."""

import pytest

from repro.energy import EnergyStorage, constant_trace
from repro.errors import ConfigError, SimulationError
from repro.fleet import SCENARIOS, FleetRunner
from repro.intermittent import MSP432, IntermittentExecutionEngine, MCUSpec
from repro.obs.recorder import Recorder, recording


class TestMCUSpec:
    def test_paper_energy_constant(self):
        # Section V-A: 1.5 mJ per million FLOPs.
        assert MSP432.inference_energy_mj(1_000_000) == pytest.approx(1.5)

    def test_inference_time_scales_with_flops(self):
        t1 = MSP432.inference_time_s(500_000)
        t2 = MSP432.inference_time_s(1_000_000)
        assert t2 == pytest.approx(2 * t1)

    def test_active_power_consistency(self):
        # Computing for t seconds must cost exactly active_power * t.
        flops = 2_000_000
        energy = MSP432.inference_energy_mj(flops)
        time = MSP432.inference_time_s(flops)
        assert MSP432.active_power_mw * time == pytest.approx(energy)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MCUSpec(energy_per_mflop_mj=0.0)
        with pytest.raises(ConfigError):
            MCUSpec(throughput_mflops=-1.0)
        with pytest.raises(ConfigError):
            MCUSpec(wakeup_threshold=0.1, shutdown_threshold=0.5)


class TestIntermittentEngine:
    def make_engine(self, power_mw=1.0, duration=10_000.0):
        trace = constant_trace(power_mw, duration, dt=1.0)
        return IntermittentExecutionEngine(trace, MSP432), trace

    def test_completes_in_one_cycle_with_full_storage(self):
        engine, _ = self.make_engine()
        storage = EnergyStorage(10.0, efficiency=1.0, initial_mj=10.0)
        run = engine.run_inference(1.0, t_start=0.0, storage=storage)
        assert run.completed
        assert run.power_cycles == 1
        assert run.energy_consumed_mj == pytest.approx(1.0)
        # Latency at least the pure compute time.
        assert run.latency_s >= MSP432.inference_time_s(1.0 / MSP432.energy_per_mflop_mj * 1e6) * 0.9

    def test_splits_across_power_cycles_with_small_storage(self):
        engine, _ = self.make_engine(power_mw=0.02)
        storage = EnergyStorage(0.5, efficiency=1.0, initial_mj=0.5)
        run = engine.run_inference(2.0, t_start=0.0, storage=storage)
        assert run.completed
        assert run.power_cycles > 1
        assert run.overhead_energy_mj > 0.0

    def test_recharge_dominates_latency_under_weak_power(self):
        engine, _ = self.make_engine(power_mw=0.005)
        storage = EnergyStorage(0.5, efficiency=1.0, initial_mj=0.5)
        run = engine.run_inference(1.0, t_start=0.0, storage=storage)
        compute_time = 1.0 / MSP432.active_power_mw
        assert run.completed
        assert run.latency_s > 3 * compute_time

    def test_incomplete_at_deadline(self):
        engine, _ = self.make_engine(power_mw=0.001, duration=100.0)
        storage = EnergyStorage(0.5, efficiency=1.0, initial_mj=0.1)
        run = engine.run_inference(5.0, t_start=0.0, storage=storage)
        assert not run.completed
        assert run.finish_time >= 100.0
        assert run.energy_consumed_mj < 5.0

    def test_zero_energy_job_is_instant(self):
        engine, _ = self.make_engine()
        storage = EnergyStorage(1.0, initial_mj=1.0)
        run = engine.run_inference(0.0, t_start=5.0, storage=storage)
        assert run.completed
        assert run.finish_time == pytest.approx(5.0)

    def test_negative_energy_rejected(self):
        engine, _ = self.make_engine()
        with pytest.raises(SimulationError):
            engine.run_inference(-1.0, 0.0, EnergyStorage(1.0))

    def test_energy_ledger_consistent(self):
        engine, _ = self.make_engine(power_mw=0.05)
        storage = EnergyStorage(1.0, efficiency=1.0, initial_mj=1.0)
        run = engine.run_inference(3.0, t_start=0.0, storage=storage)
        assert run.completed
        drawn = storage.total_drawn_mj
        assert drawn == pytest.approx(run.energy_consumed_mj + run.overhead_energy_mj, rel=1e-6)

    def test_harvesting_continues_during_compute(self):
        """With harvest ~ active power, one cycle suffices despite small storage."""
        mcu = MSP432
        engine = IntermittentExecutionEngine(
            constant_trace(mcu.active_power_mw, 10_000.0, dt=1.0), mcu
        )
        storage = EnergyStorage(0.5, efficiency=1.0, initial_mj=0.4)
        run = engine.run_inference(2.0, t_start=0.0, storage=storage)
        assert run.completed
        assert run.power_cycles == 1


class TestPassCounts:
    def test_event_batching_collapses_kernel_passes(self):
        """The profiled city-block-128 shape: logical micro-steps stay at
        the scalar-equivalent count, while physical kernel passes collapse
        by at least 2x — the whole point of fusing micro-steps that cannot
        cross a power boundary.  (The measured collapse is ~28x; 2x is the
        regression floor.)"""
        spec = SCENARIOS.build("city-block-1k", num_devices=128)
        rec = Recorder(metrics=True, profile=True)
        with recording(rec):
            FleetRunner(spec, workers=1, engine="batched").run()
        counts = rec.profiler.to_dict()["counts"]
        micro = counts["intermittent.micro_passes"]
        physical = counts["intermittent.kernel_passes"]
        assert micro > 0 and physical > 0
        assert physical * 2 <= micro
