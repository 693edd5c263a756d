"""Fluid-backend tests: validation, guards, determinism, accuracy bounds."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.cluster.failures import FailureModel
from repro.cluster.fluid import BatchTimeFit, TraceProfile
from repro.cluster.resilience import ResilienceConfig
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import (
    ColocatedSimulator,
    ServingSimulator,
    SimConfig,
    simulator_for,
)
from repro.errors import SpecError
from repro.exec.ensemble import aggregate_reports
from repro.exec.sharding import run_sharded
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import LengthDistribution, TraceConfig, generate_trace


def pools(n_prefill=1, n_decode=1, **kw) -> PhasePools:
    base = dict(
        prefill=InstanceSpec(LLAMA3_8B, H100, 1),
        n_prefill=n_prefill,
        decode=InstanceSpec(LLAMA3_8B, H100, 1),
        n_decode=n_decode,
        max_prefill_batch=4,
        max_decode_batch=64,
    )
    base.update(kw)
    return PhasePools(**base)


def colo(n_instances=2, **kw) -> ColocatedPool:
    base = dict(
        instance=InstanceSpec(LLAMA3_8B, H100, 1),
        n_instances=n_instances,
        max_decode_batch=64,
        chunk_tokens=512,
    )
    base.update(kw)
    return ColocatedPool(**base)


def trace(rate=5.0, duration=20.0, seed=0, output_tokens=50, **kw):
    return generate_trace(
        TraceConfig(
            rate=rate, duration=duration,
            output_tokens=output_tokens, output_spread=0.3, **kw,
        ),
        seed=seed,
    )


FLUID = SimConfig(backend="fluid")
EVENT = SimConfig()


class TestConfigValidation:
    def test_default_backend_is_event(self):
        assert SimConfig().backend == "event"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="backend"):
            SimConfig(backend="magic")

    def test_fluid_with_resilience_rejected(self):
        with pytest.raises(SpecError, match="resilience"):
            SimConfig(backend="fluid", resilience=ResilienceConfig(deadline_s=30.0))


class TestCompositionGuards:
    def test_fluid_with_failure_model_rejected(self):
        with pytest.raises(SpecError, match="failures"):
            ServingSimulator(
                pools(), FLUID, failure_model=FailureModel(mtbf=3600.0, mttr=60.0)
            )

    def test_fluid_with_scripted_failures_rejected(self):
        with pytest.raises(SpecError, match="failures"):
            ServingSimulator(pools(), FLUID, failures=[(5.0, "decode", 0, 2.0)])

    def test_fluid_with_controller_rejected(self):
        with pytest.raises(SpecError, match="elastic"):
            ServingSimulator(pools(n_decode=2), FLUID, controller="reactive")

    def test_fluid_colocated_failure_model_rejected(self):
        with pytest.raises(SpecError, match="failures"):
            ColocatedSimulator(
                colo(), FLUID, failure_model=FailureModel(mtbf=3600.0, mttr=60.0)
            )

    def test_sharding_rejects_fluid(self):
        with pytest.raises(SpecError, match="event"):
            run_sharded(pools(n_decode=2), trace(), FLUID, shards=2)

    def test_event_backend_still_accepts_failures(self):
        report = ServingSimulator(
            pools(), EVENT, failure_model=FailureModel(mtbf=3600.0, mttr=60.0)
        ).run(trace(duration=5.0))
        assert report.backend == "event"


class TestDeterminism:
    def test_phase_split_bit_identical(self):
        t = trace(seed=3)
        a = ServingSimulator(pools(), FLUID).run(t)
        b = ServingSimulator(pools(), FLUID).run(t)
        assert a == b

    def test_colocated_bit_identical(self):
        t = trace(seed=7)
        a = ColocatedSimulator(colo(), FLUID).run(t)
        b = ColocatedSimulator(colo(), FLUID).run(t)
        assert a == b


class TestReportHook:
    """Each simulator looks up its shape's fluid report by name at call time,
    so wrapping that name (as perfbench's ``fluid.report`` layer does)
    intercepts exactly that shape's runs."""

    NAMES = ("fluid_phase_split_report", "fluid_colocated_report")

    @pytest.mark.parametrize(
        "shape, name",
        [("phase-split", "fluid_phase_split_report"), ("colocated", "fluid_colocated_report")],
    )
    def test_each_shape_goes_through_its_own_name(self, monkeypatch, shape, name):
        from repro.cluster import fluid

        calls = dict.fromkeys(self.NAMES, 0)

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                report, *rest = fn(*args, **kwargs)
                return (replace(report, requeued_on_failure=4242), *rest)

            return wrapper

        for key in self.NAMES:
            monkeypatch.setattr(fluid, key, counting(key, getattr(fluid, key)))
        deployment = pools(n_decode=2) if shape == "phase-split" else colo()
        t = trace(duration=5.0)
        patched = simulator_for(deployment)(deployment, FLUID).run(t)
        assert calls == {key: int(key == name) for key in self.NAMES}
        monkeypatch.undo()
        plain = simulator_for(deployment)(deployment, FLUID).run(t)
        assert plain.requeued_on_failure == 0
        assert patched == replace(plain, requeued_on_failure=4242)


class TestProvenance:
    def test_fluid_report_is_labelled(self):
        report = ServingSimulator(pools(), FLUID).run(trace(duration=5.0))
        assert report.backend == "fluid"

    def test_event_report_is_labelled(self):
        report = ServingSimulator(pools(), EVENT).run(trace(duration=5.0))
        assert report.backend == "event"

    def test_simulation_table_shows_backend_column(self):
        from repro.analysis.report import simulation_table

        t = trace(duration=5.0)
        fluid = ServingSimulator(pools(), FLUID).run(t)
        event = ServingSimulator(pools(), EVENT).run(t)
        mixed = simulation_table({"fluid": fluid, "event": event})
        assert "backend" in mixed
        event_only = simulation_table({"event": event})
        assert "backend" not in event_only

    def test_ensemble_aggregates_backend(self):
        t = trace(duration=5.0)
        r = ServingSimulator(pools(), FLUID).run(t)
        agg = aggregate_reports([r, r], seeds=[0, 1])
        assert agg.mean.backend == "fluid"

    def test_ensemble_rejects_mixed_backends(self):
        t = trace(duration=5.0)
        fluid = ServingSimulator(pools(), FLUID).run(t)
        event = ServingSimulator(pools(), EVENT).run(t)
        with pytest.raises(SpecError, match="mixed backends"):
            aggregate_reports([fluid, event], seeds=[0, 1])


class TestFluidProperties:
    def test_all_complete_under_light_load(self):
        t = trace(rate=2.0)
        report = ServingSimulator(pools(), FLUID).run(t)
        assert report.completed == len(t)
        assert report.dropped == 0

    def test_latency_monotone_in_arrival_rate(self):
        # Deterministic arrivals and constant outputs isolate the queueing
        # effect: more load can only push p99s up.
        p99s = []
        for rate in (2.0, 8.0, 16.0):
            t = trace(
                rate=rate, duration=30.0,
                poisson_arrivals=False, output_dist=LengthDistribution.CONSTANT,
            )
            report = ServingSimulator(pools(), FLUID).run(t)
            p99s.append((report.ttft_p99, report.e2e_p99))
        for (lo_t, lo_e), (hi_t, hi_e) in zip(p99s, p99s[1:]):
            assert hi_t >= lo_t - 1e-9
            assert hi_e >= lo_e - 1e-9

    def test_nan_not_zero_when_nothing_completes(self):
        report = ServingSimulator(pools(), SimConfig(backend="fluid", max_sim_time=0.1)).run(
            trace(rate=2.0)
        )
        assert report.completed == 0
        assert math.isnan(report.ttft_p99)
        assert math.isnan(report.e2e_p50)

    def test_economics_attached(self):
        report = ServingSimulator(pools(), FLUID).run(trace())
        assert report.gpu_seconds > 0
        assert report.usd_per_mtoken > 0


class TestAccuracyVsEvent:
    """Fluid must land within pinned relative bounds of event truth."""

    def assert_close(self, fluid, event, bounds):
        for name, bound in bounds.items():
            f, e = getattr(fluid, name), getattr(event, name)
            rel = abs(f - e) / max(abs(e), 1e-12)
            assert rel <= bound, f"{name}: fluid {f:.5g} vs event {e:.5g} (rel {rel:.3f})"

    def test_phase_split_bounds(self):
        t = trace(rate=5.0, duration=20.0, output_tokens=80)
        fluid = ServingSimulator(pools(), FLUID).run(t)
        event = ServingSimulator(pools(), EVENT).run(t)
        assert fluid.completed == event.completed
        self.assert_close(
            fluid, event,
            {
                "ttft_p50": 0.05,
                # p99 over ~90 requests on a 1-instance pool is dominated by
                # Poisson clustering the fluid limit smooths; the benchmark
                # goldens (larger pools) pin the tighter 0.25 bound.
                "ttft_p99": 0.40,
                "tbt_mean": 0.05,
                "e2e_p50": 0.10,
                "e2e_p99": 0.10,
                "output_tokens_per_s": 0.05,
                "decode_utilization": 0.15,
            },
        )

    def test_colocated_bounds(self):
        t = trace(rate=5.0, duration=20.0, output_tokens=80)
        fluid = ColocatedSimulator(colo(), FLUID).run(t)
        event = ColocatedSimulator(colo(), EVENT).run(t)
        assert fluid.completed == event.completed
        self.assert_close(
            fluid, event,
            {
                "ttft_p50": 0.15,
                "ttft_p99": 0.35,
                "tbt_mean": 0.15,
                "e2e_p50": 0.20,
                "e2e_p99": 0.20,
                "output_tokens_per_s": 0.05,
            },
        )


class TestBuildingBlocks:
    def test_trace_profile_conserves_mass(self):
        t = trace(rate=4.0, duration=25.0)
        profile = TraceProfile.from_trace(t)
        assert profile.n_requests == len(t)
        integrated = sum(profile.rates) * profile.bin_s
        assert integrated == pytest.approx(len(t))
        assert profile.span >= profile.t_end

    def test_trace_profile_empty(self):
        profile = TraceProfile.from_trace([])
        assert profile.n_requests == 0
        assert profile.rate_at(0.0) == 0.0

    def test_batch_time_fit_interpolates_samples_exactly(self):
        fit = BatchTimeFit.from_samples([1.0, 4.0, 16.0], [0.01, 0.02, 0.05])
        assert fit.time_at(4.0) == pytest.approx(0.02)
        assert 0.02 < fit.time_at(8.0) < 0.05
        assert fit.d1 > 0
