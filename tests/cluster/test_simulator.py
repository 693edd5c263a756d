"""Discrete-event serving-simulator tests."""

from __future__ import annotations

import pytest

from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ServingSimulator, SimConfig, simulator_for
from repro.errors import SpecError
from repro.hardware.gpu import H100, LITE, LITE_MEMBW, LITE_NETBW_FLOPS
from repro.workloads.models import LLAMA3_8B, LLAMA3_70B
from repro.workloads.traces import Request, TraceConfig, generate_trace


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


def colocated(n_instances=1) -> ColocatedPool:
    return ColocatedPool(InstanceSpec(LLAMA3_8B, H100, 1), n_instances, max_decode_batch=64)


def trace(rate=5.0, duration=10.0, seed=0, output_tokens=50):
    return generate_trace(
        TraceConfig(rate=rate, duration=duration, output_tokens=output_tokens, output_spread=0.3),
        seed=seed,
    )


#: The pool holding KV state, by deployment shape.
KV_POOL = {"phase-split": "decode", "colocated": "colocated"}


def bare_engine(shape, config, failures=(), deployment=None):
    """An engine of either shape, built without a simulator around it.

    The default deployments have two KV-holding instances.
    """
    from repro.cluster.engine import ColocatedEngine, PhaseSplitEngine, ServiceTimeProvider
    from repro.cluster.policies import get_policy_bundle

    bundle = get_policy_bundle("fcfs")
    if shape == "phase-split":
        p = deployment or pools(n_decode=2)
        return PhaseSplitEngine(
            p, config, bundle, ServiceTimeProvider(p.prefill), ServiceTimeProvider(p.decode),
            failures=failures,
        )
    p = deployment or colocated(n_instances=2)
    return ColocatedEngine(p, config, bundle, ServiceTimeProvider(p.instance), failures=failures)


class TestBasics:
    def test_all_requests_complete_under_light_load(self):
        t = trace(rate=2.0, duration=10.0)
        report = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        assert report.completed == len(t)
        assert report.dropped == 0

    def test_deterministic(self):
        t = trace(seed=3)
        a = ServingSimulator(pools(), SimConfig(max_sim_time=300.0)).run(t)
        b = ServingSimulator(pools(), SimConfig(max_sim_time=300.0)).run(t)
        assert a == b

    def test_latency_ordering(self):
        t = trace(rate=2.0)
        report = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        assert 0 < report.ttft_p50 <= report.ttft_p99
        assert 0 < report.e2e_p50 <= report.e2e_p99
        assert report.ttft_p50 < report.e2e_p50

    def test_throughput_positive(self):
        report = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(trace())
        assert report.output_tokens_per_s > 0
        assert 0 <= report.decode_utilization <= 1

    def test_describe(self):
        report = ServingSimulator(pools(), SimConfig(max_sim_time=100.0)).run(trace(rate=1.0, duration=3.0))
        assert "completed" in report.describe()

    def test_empty_trace(self):
        report = ServingSimulator(pools(), SimConfig(max_sim_time=10.0)).run([])
        assert report.completed == 0


class TestCapacityEffects:
    def test_overload_queues_grow_ttft(self):
        light = ServingSimulator(pools(), SimConfig(max_sim_time=900.0)).run(
            trace(rate=1.0, duration=20.0)
        )
        heavy = ServingSimulator(pools(), SimConfig(max_sim_time=900.0)).run(
            trace(rate=30.0, duration=20.0)
        )
        assert heavy.ttft_p99 > light.ttft_p99

    def test_more_decode_instances_raise_throughput_under_load(self):
        """With abundant prefill capacity and a decode-saturating load, the
        decode pool size sets output throughput."""
        t = trace(rate=60.0, duration=15.0, output_tokens=400)
        one = ServingSimulator(pools(n_prefill=4, n_decode=1), SimConfig(max_sim_time=60.0)).run(t)
        four = ServingSimulator(pools(n_prefill=4, n_decode=4), SimConfig(max_sim_time=60.0)).run(t)
        assert four.output_tokens_per_s > one.output_tokens_per_s

    def test_horizon_cuts_completions(self):
        t = trace(rate=5.0, duration=30.0)
        short = ServingSimulator(pools(), SimConfig(max_sim_time=5.0)).run(t)
        assert short.dropped > 0


class TestPhaseSplitting:
    def test_specialized_pools_run(self):
        """Splitwise deployment: +FLOPS prefill pool, +MemBW decode pool."""
        split = PhasePools(
            prefill=InstanceSpec(LLAMA3_8B, LITE_NETBW_FLOPS, 1),
            n_prefill=2,
            decode=InstanceSpec(LLAMA3_8B, LITE_MEMBW, 1),
            n_decode=2,
            max_prefill_batch=4,
            max_decode_batch=64,
        )
        report = ServingSimulator(split, SimConfig(max_sim_time=600.0)).run(trace(rate=3.0))
        assert report.completed > 0
        assert report.tbt_mean < 0.05


class TestFailures:
    def test_decode_failure_requeues_requests(self):
        t = trace(rate=5.0, duration=10.0, output_tokens=200)
        sim = ServingSimulator(
            pools(n_decode=2),
            SimConfig(max_sim_time=900.0),
            failures=[(3.0, "decode", 0, 30.0)],
        )
        report = sim.run(t)
        assert report.requeued_on_failure > 0
        # Work still completes after recovery.
        assert report.completed == len(t)

    def test_failure_hurts_tail_latency(self):
        t = trace(rate=5.0, duration=10.0, output_tokens=100, seed=9)
        clean = ServingSimulator(pools(), SimConfig(max_sim_time=900.0)).run(t)
        faulty = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0), failures=[(2.0, "decode", 0, 60.0)]
        ).run(t)
        assert faulty.e2e_p99 > clean.e2e_p99

    def test_prefill_failure_delays_ttft(self):
        t = trace(rate=5.0, duration=10.0, seed=4)
        clean = ServingSimulator(pools(), SimConfig(max_sim_time=900.0)).run(t)
        faulty = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0), failures=[(1.0, "prefill", 0, 120.0)]
        ).run(t)
        assert faulty.ttft_p99 > clean.ttft_p99

    def test_failure_validation(self):
        with pytest.raises(SpecError):
            ServingSimulator(pools(), failures=[(1.0, "decode", 9, 10.0)])
        with pytest.raises(SpecError):
            ServingSimulator(pools(), failures=[(1.0, "gpu", 0, 10.0)])
        with pytest.raises(SpecError):
            ServingSimulator(pools(), failures=[(1.0, "decode", 0, -5.0)])


class TestStochasticFailures:
    def fm(self, mtbf=40.0, mttr=15.0):
        from repro.cluster.failures import FailureModel

        return FailureModel(mtbf=mtbf, mttr=mttr)

    def test_deterministic_given_seeds(self):
        """Same trace + trace seed + failure seed => identical SimReport."""
        t = trace(rate=5.0, duration=10.0, seed=3, output_tokens=150)
        kw = dict(failure_model=self.fm(), failure_seed=11)
        a = ServingSimulator(pools(n_decode=2), SimConfig(max_sim_time=600.0), **kw).run(t)
        b = ServingSimulator(pools(n_decode=2), SimConfig(max_sim_time=600.0), **kw).run(t)
        assert a == b

    def test_different_seed_different_schedule(self):
        t = trace(rate=5.0, duration=10.0, seed=3, output_tokens=150)
        a = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=600.0),
            failure_model=self.fm(), failure_seed=1,
        ).run(t)
        b = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=600.0),
            failure_model=self.fm(), failure_seed=2,
        ).run(t)
        assert a != b

    def test_stochastic_failures_cause_requeues(self):
        t = trace(rate=5.0, duration=10.0, seed=3, output_tokens=300)
        report = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=900.0),
            failure_model=self.fm(mtbf=20.0, mttr=5.0), failure_seed=1,
        ).run(t)
        assert report.requeued_on_failure > 0
        assert report.restarted_requests > 0

    def test_idle_failures_do_not_dilute_duration(self):
        """Repair bookkeeping after the workload drains must not extend the
        reported duration (it would deflate tok/s and utilization)."""
        t = trace(rate=2.0, duration=5.0, seed=1, output_tokens=100)
        clean = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        faulty = ServingSimulator(
            pools(), SimConfig(max_sim_time=600.0),
            failure_model=self.fm(mtbf=200.0, mttr=60.0), failure_seed=3,
        ).run(t)
        assert faulty.completed == clean.completed == len(t)
        if faulty.requeued_on_failure == 0:
            # No failure touched live work: the reports must agree exactly.
            assert faulty.duration == clean.duration
            assert faulty.output_tokens_per_s == clean.output_tokens_per_s

    def test_composes_with_scripted_failures(self):
        t = trace(rate=2.0, duration=5.0, seed=1)
        report = ServingSimulator(
            pools(n_decode=2), SimConfig(max_sim_time=600.0),
            failures=[(1.0, "decode", 0, 10.0)],
            failure_model=self.fm(mtbf=1e9),  # stochastic part ~never fires
        ).run(t)
        assert report.completed == len(t)

    def test_failure_after_arrival_stream_ends_does_not_strand_victims(self):
        """A decode failure once arrivals have stopped must still re-serve
        the victims: the requeue itself wakes the idle prefill pool."""
        t = trace(rate=5.0, duration=3.0, seed=2, output_tokens=400)
        last_arrival = max(r.arrival for r in t)
        report = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0),
            failures=[(last_arrival + 0.5, "decode", 0, 20.0)],
        ).run(t)
        assert report.requeued_on_failure > 0
        assert report.completed == len(t)
        assert report.dropped == 0

    def test_overlapping_failure_does_not_shorten_outage(self):
        """A short failure landing mid-outage must not resurrect the
        instance before the longer repair completes."""
        t = trace(rate=5.0, duration=10.0, seed=4)
        long_only = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0),
            failures=[(1.0, "prefill", 0, 120.0)],
        ).run(t)
        overlapped = ServingSimulator(
            pools(), SimConfig(max_sim_time=900.0),
            failures=[(1.0, "prefill", 0, 120.0), (2.0, "prefill", 0, 1.0)],
        ).run(t)
        # The nested 1 s failure is subsumed by the 120 s outage: TTFT tails
        # must be as bad as the long outage alone, not reset at t=3.
        assert overlapped.ttft_p99 >= long_only.ttft_p99


class TestConservation:
    @pytest.mark.parametrize("shape", ["phase-split", "colocated"])
    def test_failure_requeue_conserves_requests(self, shape):
        """No request is lost or double-completed across failure requeues.

        Each failure lands a millisecond after an arrival, so a colocated
        instance holds a prompt mid-chunk (``current``) or waiting to chunk
        (``backlog``): the partial-prefill eviction path runs too.
        """
        t = trace(rate=5.0, duration=10.0, seed=7, output_tokens=200)
        pool = KV_POOL[shape]
        engine = bare_engine(
            shape, SimConfig(max_sim_time=900.0),
            failures=[(t[10].arrival + 1e-3, pool, 0, 20.0), (t[20].arrival + 1e-3, pool, 1, 20.0)],
        )
        chunking_at_failure = set()
        on_failure = engine._on_failure

        def recording(now, payload):
            inst = engine.kv_states[payload[1]]
            if inst.current is not None:
                chunking_at_failure.add("current")
            if inst.backlog:
                chunking_at_failure.add("backlog")
            on_failure(now, payload)

        engine._on_failure = recording
        engine.run(t)
        assert engine.requeued > 0
        if shape == "colocated":
            assert chunking_at_failure == {"current", "backlog"}
        completed_ids = [c.request.request_id for c in engine.completed]
        assert len(completed_ids) == len(set(completed_ids)), "double completion"
        assert sorted(completed_ids) == sorted(r.request_id for r in t), "lost requests"

    def test_ttft_keeps_first_token_time(self):
        """A requeued request's TTFT is its first-ever token, not the restart's."""
        from repro.cluster.engine import PhaseSplitEngine, ServiceTimeProvider
        from repro.cluster.policies import get_policy_bundle

        t = trace(rate=5.0, duration=10.0, seed=7, output_tokens=200)
        p = pools(n_decode=2)
        fail_time = 3.0
        engine = PhaseSplitEngine(
            p, SimConfig(max_sim_time=900.0), get_policy_bundle("fcfs"),
            ServiceTimeProvider(p.prefill), ServiceTimeProvider(p.decode),
            failures=[(fail_time, "decode", 0, 30.0)],
        )
        engine.run(t)
        restarted = [c for c in engine.completed if c.restarts > 0]
        assert restarted, "scenario must requeue at least one request"
        for c in restarted:
            # The victim was decoding when the failure hit, so its first
            # token predates the failure; the restart must not overwrite it.
            assert c.request.arrival + c.ttft <= fail_time
            assert c.ttft < c.e2e

    def test_completed_plus_dropped_is_trace(self):
        t = trace(rate=10.0, duration=10.0, seed=2, output_tokens=300)
        report = ServingSimulator(pools(), SimConfig(max_sim_time=20.0)).run(t)
        assert report.completed + report.dropped == len(t)


class TestEmptyReport:
    @pytest.mark.parametrize("metrics", ["exact", "streaming"])
    @pytest.mark.parametrize("shape", ["phase-split", "colocated"])
    def test_zero_completions_read_nan(self, shape, metrics):
        """Percentiles of an empty run must read NaN, not perfect 0.0 ms."""
        import math

        t = [Request(request_id=0, arrival=5.0, prompt_tokens=100, output_tokens=10)]
        deployment = pools() if shape == "phase-split" else colocated()
        config = SimConfig(max_sim_time=1.0, metrics=metrics)
        report = simulator_for(deployment)(deployment, config).run(t)
        assert report.completed == 0 and report.dropped == 1
        for value in (report.ttft_p50, report.ttft_p99, report.tbt_mean,
                      report.tbt_p99, report.e2e_p50, report.e2e_p99):
            assert math.isnan(value)
        assert report.output_tokens_per_s == 0.0
        assert "completed 0" in report.describe()


class TestSimulatorFor:
    def test_rejects_anything_but_a_deployment(self):
        from repro.exec.ensemble import run_replica

        with pytest.raises(SpecError, match="PhasePools or ColocatedPool"):
            simulator_for(InstanceSpec(LLAMA3_8B, H100, 1))
        with pytest.raises(SpecError, match="PhasePools or ColocatedPool"):
            run_replica("deployment", None, None, None, 0, ())


class TestPolicyBundles:
    def test_all_bundles_run_and_complete(self):
        from repro.cluster.policies import POLICY_BUNDLES

        t = trace(rate=3.0, duration=8.0, seed=5)
        for name in POLICY_BUNDLES.names():
            report = ServingSimulator(
                pools(n_prefill=2, n_decode=2), SimConfig(max_sim_time=600.0), policies=name
            ).run(t)
            assert report.completed == len(t), name

    def test_fcfs_matches_default(self):
        t = trace(rate=4.0, duration=10.0, seed=6)
        default = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        fcfs = ServingSimulator(pools(), SimConfig(max_sim_time=600.0), policies="fcfs").run(t)
        assert default == fcfs

    def test_sjf_prefill_reorders_under_contention(self):
        """SJF must favour short prompts when prompt lengths vary."""
        from repro.workloads.traces import LengthDistribution

        t = generate_trace(
            TraceConfig(
                rate=40.0, duration=5.0, output_tokens=50, output_spread=0.3,
                prompt_dist=LengthDistribution.LOGNORMAL, prompt_spread=0.8,
            ),
            seed=9,
        )
        fcfs = ServingSimulator(pools(), SimConfig(max_sim_time=600.0), policies="fcfs").run(t)
        sjf = ServingSimulator(pools(), SimConfig(max_sim_time=600.0), policies="sjf").run(t)
        assert fcfs.completed == sjf.completed == len(t)
        # Short prompts stop convoying behind long ones: median TTFT drops.
        assert sjf.ttft_p50 < fcfs.ttft_p50


def direct_service_time(spec: InstanceSpec, key: tuple) -> float:
    """The analytical model's value for one provider memo key."""
    from repro.core.chunked import MixedIteration, mixed_iteration_time

    kind, *args = key
    if kind == "p":
        return spec.prefill_time(*args)
    if kind == "d":
        return spec.decode_time(*args)
    return mixed_iteration_time(
        spec.model, spec.gpu, spec.n_gpus, MixedIteration(*args), spec.policy
    ).iteration_time


class TestCachedServiceTimes:
    def test_exact_cache_is_bit_identical(self):
        """Every memo entry a run leaves behind, of either shape, is the
        direct model value."""
        from repro.cluster.simulator import ColocatedSimulator

        t = trace(rate=4.0, duration=10.0, seed=8)
        config = SimConfig(max_sim_time=600.0)
        split = ServingSimulator(pools(), config)
        chunked = ColocatedSimulator(colocated(), config)
        for sim in (split, chunked):
            assert sim.run(t).completed == len(t)
        for provider, spec in [
            (split.prefill_provider, split.pools.prefill),
            (split.decode_provider, split.pools.decode),
            (chunked.provider, chunked.pool.instance),
        ]:
            info = provider.cache_info()
            assert info["hits"] > 0 and info["misses"] == info["entries"]
            for key, value in provider._cache.items():
                assert value == direct_service_time(spec, key), key

    def test_coarse_bucket_stays_close(self):
        t = trace(rate=4.0, duration=10.0, seed=8)
        exact = ServingSimulator(pools(), SimConfig(max_sim_time=600.0)).run(t)
        coarse = ServingSimulator(
            pools(), SimConfig(max_sim_time=600.0, context_bucket=64)
        ).run(t)
        assert coarse.completed == exact.completed
        assert coarse.tbt_mean == pytest.approx(exact.tbt_mean, rel=0.05)


class TestColocated:
    def pool(self, n_instances=2, **kw):
        from repro.cluster.scheduler import ColocatedPool

        base = dict(
            instance=InstanceSpec(LLAMA3_8B, H100, 1),
            n_instances=n_instances,
            max_decode_batch=64,
            chunk_tokens=512,
        )
        base.update(kw)
        return ColocatedPool(**base)

    def sim(self, n_instances=2, config=None, **kw):
        from repro.cluster.simulator import ColocatedSimulator

        return ColocatedSimulator(
            self.pool(n_instances=n_instances), config or SimConfig(max_sim_time=600.0), **kw
        )

    def test_completes_light_load(self):
        t = trace(rate=2.0, duration=10.0)
        report = self.sim().run(t)
        assert report.completed == len(t)
        assert 0 < report.ttft_p50 <= report.ttft_p99
        assert report.ttft_p50 < report.e2e_p50

    def test_deterministic(self):
        t = trace(seed=3)
        assert self.sim().run(t) == self.sim().run(t)

    def test_failure_requeues_and_recovers(self):
        t = trace(rate=5.0, duration=10.0, output_tokens=200)
        report = self.sim(
            failures=[(3.0, "colocated", 0, 30.0)], config=SimConfig(max_sim_time=900.0)
        ).run(t)
        assert report.requeued_on_failure > 0
        assert report.completed == len(t)

    def test_failure_hands_victims_to_idle_peer_immediately(self):
        """When one colocated instance fails, a healthy idle peer picks the
        victims up at failure time, not at the failed instance's repair."""
        t = trace(rate=5.0, duration=3.0, seed=2, output_tokens=400)
        report = self.sim(
            n_instances=2, config=SimConfig(max_sim_time=900.0),
            failures=[(8.0, "colocated", 0, 200.0)],
        ).run(t)
        assert report.completed == len(t)
        # Victims restart on the healthy peer well before the 200 s repair.
        assert report.e2e_p99 < 100.0

    def test_failure_validation(self):
        from repro.cluster.simulator import ColocatedSimulator

        with pytest.raises(SpecError):
            ColocatedSimulator(self.pool(), failures=[(1.0, "decode", 0, 10.0)])
        with pytest.raises(SpecError):
            ColocatedSimulator(self.pool(), failures=[(1.0, "colocated", 5, 10.0)])

    def test_pool_validation(self):
        with pytest.raises(SpecError):
            self.pool(n_instances=0)
        with pytest.raises(SpecError):
            self.pool(chunk_tokens=0)

    def test_describe_and_rollups(self):
        p = self.pool(n_instances=3)
        assert p.total_gpus == 3
        assert p.total_sms == 3 * H100.sms
        assert "colocated" in p.describe()

    def test_stochastic_failures_deterministic(self):
        from repro.cluster.failures import FailureModel

        t = trace(rate=5.0, duration=10.0, output_tokens=150)
        kw = dict(failure_model=FailureModel(mtbf=30.0, mttr=10.0), failure_seed=4)
        a = self.sim(config=SimConfig(max_sim_time=900.0), **kw).run(t)
        b = self.sim(config=SimConfig(max_sim_time=900.0), **kw).run(t)
        assert a == b

    def test_chunking_bounds_tbt_vs_full_prefill_batches(self):
        """Smaller chunks keep mixed-iteration TBT lower (SARATHI's point)."""
        t = trace(rate=4.0, duration=10.0, output_tokens=100)
        small = self.sim().run(t)
        from repro.cluster.simulator import ColocatedSimulator

        big = ColocatedSimulator(
            self.pool(chunk_tokens=4096), SimConfig(max_sim_time=600.0)
        ).run(t)
        assert small.tbt_mean <= big.tbt_mean


class TestFastEngine:
    """The incremental engine through a failure run, under the invariant
    checker that re-derives its counters by rescanning at every tick."""

    def test_phase_split_bit_identical(self):
        from invariants import checking

        t = trace(rate=4.0, duration=20.0)
        kw = dict(failures=[(10.0, "decode", 0, 30.0)])
        plain = ServingSimulator(pools(n_decode=2), SimConfig(max_sim_time=600.0), **kw).run(t)
        with checking() as checker:
            checked = ServingSimulator(
                pools(n_decode=2), SimConfig(max_sim_time=600.0), **kw
            ).run(t)
        assert checked == plain
        assert checked.restarted_requests > 0  # the failure path was exercised
        assert checker.completions == checked.completed == len(t)

    def test_colocated_bit_identical(self):
        from invariants import checking
        from repro.cluster.simulator import ColocatedSimulator

        pool = ColocatedPool(
            instance=InstanceSpec(LLAMA3_8B, H100, 1), n_instances=2, max_decode_batch=64
        )
        t = trace(rate=4.0, duration=20.0)
        kw = dict(failures=[(2.0, "colocated", 0, 15.0)])
        plain = ColocatedSimulator(pool, SimConfig(max_sim_time=600.0), **kw).run(t)
        with checking() as checker:
            checked = ColocatedSimulator(pool, SimConfig(max_sim_time=600.0), **kw).run(t)
        assert checked == plain
        assert checker.completions == checked.completed == len(t)

    @pytest.mark.parametrize("shape", ["phase-split", "colocated"])
    def test_counters_match_scans_through_a_run(self, shape):
        """The incremental counters and the shared-iteration structures
        agree with a full recount at every tick and admit event."""
        from invariants import checking

        engine = bare_engine(
            shape, SimConfig(max_sim_time=600.0), failures=[(2.0, KV_POOL[shape], 0, 10.0)]
        )
        with checking() as checker:
            engine.run(trace(rate=4.0, duration=10.0))
        assert checker.ticks > 0 and checker.admits > 0


class TestShortFailure:
    """A failure that ends before the instance's in-flight iteration."""

    @pytest.mark.parametrize("shape", ["phase-split", "colocated"])
    def test_recovery_does_not_double_book_the_instance(self, shape):
        """The pending iteration event keeps the instance busy: recovery
        must not start a second iteration chain beside it."""
        if shape == "phase-split":
            deployment, fail_at = pools(n_prefill=2, n_decode=1, max_decode_batch=8), 6.5413
        else:
            deployment = ColocatedPool(InstanceSpec(LLAMA3_8B, H100, 1), 1, max_decode_batch=8)
            fail_at = 7.1064
        t = trace(rate=20.0, duration=10.0, output_tokens=200)

        def run(failures):
            engine = bare_engine(shape, SimConfig(max_sim_time=3000.0), failures, deployment)
            kind = engine._ITER_KIND
            handler = type(engine).handlers(engine)[kind]
            early_starts = []

            def checking(now, payload):
                inst = engine.kv_states[payload[0]]
                previous_end = inst.busy_until
                handler(now, payload)
                if inst.busy_until != previous_end and now < previous_end:
                    early_starts.append(now)

            engine.handlers = lambda: {**type(engine).handlers(engine), kind: checking}
            engine.run(t)
            assert not early_starts, f"{len(early_starts)} iterations overlap their predecessor"
            return engine.output_token_count / engine.work_time

        clean = run(())
        faulty = run([(fail_at, KV_POOL[shape], 0, 0.000697)])
        assert faulty <= clean
