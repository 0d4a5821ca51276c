"""Wall-clock timing metrics: per-phase attribution and clock coverage."""

import time

from repro.core.pipeline import solve_ruling_set
from repro.graph import generators as gen
from repro.mpc.backends import SerialBackend
from repro.mpc.config import MPCConfig
from repro.mpc.metrics import RunMetrics, SuperstepEvent
from repro.mpc.simulator import Simulator
from repro.mpc.trace import TraceRecorder


def step(seconds, phase=RunMetrics.UNPHASED, kind="local"):
    return SuperstepEvent(kind, 0, phase, elapsed_s=seconds)


class TestRecordElapsed:
    def test_accumulates_wall_time(self):
        metrics = RunMetrics()
        metrics.observe(step(0.25))
        metrics.observe(step(0.5))
        assert metrics.wall_time_s == 0.75

    def test_unphased_bucket(self):
        metrics = RunMetrics()
        metrics.observe(step(1.0))
        assert metrics.time_per_phase == {RunMetrics.UNPHASED: 1.0}

    def test_attributed_to_current_phase(self):
        metrics = RunMetrics()
        for name, seconds in (("sparsify", 1.0), ("gather", 2.0),
                              ("sparsify", 4.0)):  # repeats accumulate
            metrics.observe(SuperstepEvent("phase", 0, name))
            metrics.observe(step(seconds, metrics.current_phase()))
        assert metrics.time_per_phase == {"sparsify": 5.0, "gather": 2.0}

    def test_rounds_and_local_steps_share_the_clock(self):
        metrics = RunMetrics()
        metrics.observe(step(0.125))
        metrics.observe(step(0.25, kind="round"))
        metrics.observe(step(0.5, kind="round"))
        assert metrics.rounds == 2
        assert metrics.wall_time_s == 0.875

    def test_summary_excludes_timing(self):
        # test_determinism compares summary() between identical runs;
        # wall clock would make equal runs compare unequal.
        metrics = RunMetrics()
        metrics.observe(step(1.0, kind="round"))
        assert all("time" not in key for key in metrics.summary())


class TestSimulatorTiming:
    def test_rounds_are_timed(self):
        cfg = MPCConfig(num_machines=3, memory_words=256)
        sim = Simulator(cfg, trace=TraceRecorder(cfg))
        sim.local(lambda m: None)
        sim.communicate(lambda m: [])
        sim.communicate(lambda m: [])
        rounds = sim.trace.round_events()
        assert len(rounds) == sim.metrics.rounds == 2
        traced_s = sum(ev["dur_us"] for ev in sim.trace.events) / 1e6
        assert abs(sim.metrics.wall_time_s - traced_s) < 1e-5

    def test_phase_attribution_follows_begin_phase(self):
        sim = Simulator(MPCConfig(num_machines=2, memory_words=256))
        sim.begin_phase("setup")
        sim.communicate(lambda m: [])
        sim.begin_phase("work")
        sim.communicate(lambda m: [])
        phases = sim.metrics.time_per_phase
        assert set(phases) == {"setup", "work"}
        assert all(seconds >= 0 for seconds in phases.values())


class SlowPricingBackend(SerialBackend):
    """Serial execution whose memory audit takes a fixed extra delay."""

    DELAY_S = 0.005

    def memory_snapshot(self, machines):
        time.sleep(self.DELAY_S)
        return super().memory_snapshot(machines)


class TestClockCoversAccounting:
    def test_memory_audit_is_inside_every_clock(self):
        cfg = MPCConfig(num_machines=2, memory_words=256)
        sim = Simulator(
            cfg, backend=SlowPricingBackend(), trace=TraceRecorder(cfg)
        )
        sim.begin_phase("audited")
        sim.local(lambda m: None)
        sim.communicate(lambda m: [])
        delay = SlowPricingBackend.DELAY_S
        assert sim.metrics.wall_time_s >= 2 * delay
        assert sim.metrics.time_per_phase["audited"] >= 2 * delay
        steps = [ev for ev in sim.trace.events if ev["type"] != "phase"]
        assert [ev["type"] for ev in steps] == ["local", "round"]
        assert all(ev["dur_us"] >= delay * 1e6 for ev in steps)


class TestPipelineTiming:
    def test_result_carries_wall_clock(self):
        graph = gen.gnp_random_graph(64, 8, 64, seed=3)
        result = solve_ruling_set(graph, algorithm="det-luby", beta=2)
        assert result.wall_time_s > 0
        assert "luby-seed-search" in result.time_per_phase
        # Per-phase times decompose the (rounded) total.
        assert (
            abs(sum(result.time_per_phase.values()) - result.wall_time_s)
            < 1e-3
        )

    def test_timing_stays_out_of_metrics_dict(self):
        graph = gen.gnp_random_graph(64, 8, 64, seed=3)
        result = solve_ruling_set(graph, algorithm="det-luby", beta=2)
        assert all("time" not in key for key in result.metrics)
