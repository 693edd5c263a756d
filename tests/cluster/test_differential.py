"""Generated-scenario differential harness for the event engines.

Every example is a small scenario: either deployment shape, at most four
instances per pool, a few simulated seconds of trace, zero to two
scripted failures (some shorter than one iteration), no, static or
reactive control, resilience on or off, and any policy bundle.  It runs under the invariant
checker of :mod:`invariants`, which rescans the KV pool after every tick,
and asserts the equivalences the simulator claims:

- latencies are NaN exactly when nothing completed;
- exact and streaming metrics give identical counters;
- ``controller=None`` and ``"static"`` give bit-identical reports;
- without resilience every request completes.

The search is derandomized with a capped budget, so every run of the
suite checks the same examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invariants import checking
from repro.cluster import engine as engine_module
from repro.cluster.control import ReactiveController
from repro.cluster.engine import DecodeState, _EngineBase
from repro.cluster.policies import POLICY_BUNDLES
from repro.cluster.resilience import ResilienceConfig
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_trace

SPEC = InstanceSpec(LLAMA3_8B, H100, 1)
KV_POOL = {"phase-split": "decode", "colocated": "colocated"}
#: Report fields the streaming sketches estimate; every other field is a
#: counter (or derived from counters) and must match the exact run.
LATENCY_FIELDS = dict.fromkeys(
    ("ttft_p50", "ttft_p99", "tbt_mean", "tbt_p99", "e2e_p50", "e2e_p99"), 0.0
)
MAX_INSTANCES = 4


@dataclass(frozen=True)
class Case:
    """One generated scenario."""

    shape: str
    n_front: int
    n_kv: int
    max_batch: int
    rate: float
    duration: float
    output_tokens: int
    seed: int
    failures: Tuple[Tuple[float, str, int, float], ...] = ()
    controller: Optional[str] = None
    resilience: Optional[ResilienceConfig] = None
    policies: str = "fcfs"

    def trace(self):
        return generate_trace(
            TraceConfig(
                rate=self.rate, duration=self.duration,
                output_tokens=self.output_tokens, output_spread=0.5,
            ),
            seed=self.seed,
        )

    def run(self, metrics: str = "exact"):
        controller = self.controller
        if controller == "reactive":
            controller = ReactiveController(
                epoch=0.5, warmup_s=0.25, calm_epochs=1, queue_high=1.0,
                max_instances=MAX_INSTANCES,
            )
        config = SimConfig(max_sim_time=600.0, metrics=metrics, resilience=self.resilience)
        kw = dict(failures=list(self.failures), controller=controller, policies=self.policies)
        if self.shape == "phase-split":
            pools = PhasePools(
                prefill=SPEC, n_prefill=self.n_front, decode=SPEC, n_decode=self.n_kv,
                max_prefill_batch=4, max_decode_batch=self.max_batch,
            )
            return ServingSimulator(pools, config, **kw).run(self.trace())
        pool = ColocatedPool(SPEC, self.n_kv, max_decode_batch=self.max_batch, chunk_tokens=512)
        return ColocatedSimulator(pool, config, **kw).run(self.trace())


RESILIENCE = st.one_of(
    st.builds(
        ResilienceConfig,
        deadline_s=st.sampled_from([1.0, None]),
        queue_timeout_s=st.sampled_from([0.05, None]),
        retry=st.sampled_from(["fixed", "none"]),
        checkpoint_interval=st.sampled_from([8, None]),
    ),
    st.none(),
)


@st.composite
def cases(draw) -> Case:
    shape = draw(st.sampled_from(sorted(KV_POOL)))
    n_front = draw(st.integers(1, MAX_INSTANCES))
    n_kv = draw(st.integers(1, MAX_INSTANCES))
    duration = draw(st.floats(1.0, 3.0))
    controller = draw(st.sampled_from(["reactive", None, "static"]))
    pools = {KV_POOL[shape]: n_kv}
    if shape == "phase-split":
        pools["prefill"] = n_front
    failures = []
    for _ in range(draw(st.sampled_from([1, 2, 0]))):
        pool = draw(st.sampled_from(list(pools)))
        # An elastic pool accepts faults on instances it may spawn later.
        top = MAX_INSTANCES if controller == "reactive" else pools[pool]
        # Half the faults are shorter than one iteration.
        length = draw(st.one_of(st.floats(1e-4, 3e-3), st.floats(0.1, 3.0)))
        failures.append(
            (draw(st.floats(0.2, duration)), pool, draw(st.integers(0, top - 1)), length)
        )
    return Case(
        shape=shape, n_front=n_front, n_kv=n_kv,
        max_batch=draw(st.sampled_from([2, 4, 8, 32])),
        rate=draw(st.floats(5.0, 40.0)), duration=duration,
        output_tokens=draw(st.integers(8, 128)), seed=draw(st.integers(0, 2**16)),
        failures=tuple(failures), controller=controller, resilience=draw(RESILIENCE),
        policies=draw(st.sampled_from(sorted(POLICY_BUNDLES.names()))),
    )


#: A failure shorter than the in-flight iteration, with victims queued for
#: the instance at recovery: the double-booking fixed earlier.
SHORT_FAILURE = Case(
    "colocated", 1, 1, 8, rate=20.0, duration=3.0, output_tokens=96, seed=0,
    failures=((2.0013, "colocated", 0, 0.0007),),
)
#: Elastic runs under resilience: spawns and drains, evictions with
#: checkpointed resumes, faults on a spawned and on a never-spawned
#: instance, and queue timeouts (retried in the phase-split run).
ELASTIC = (
    Case(
        "phase-split", 1, 1, 2, rate=30.0, duration=2.0, output_tokens=64, seed=1,
        failures=((1.0, "decode", 0, 0.5), (1.6, "decode", 2, 0.002)), controller="reactive",
        resilience=ResilienceConfig(queue_timeout_s=0.05, retry="fixed", checkpoint_interval=8),
    ),
    Case(
        "colocated", 1, 2, 4, rate=30.0, duration=2.0, output_tokens=64, seed=2,
        failures=((0.8, "colocated", 1, 0.3), (1.5, "colocated", 3, 0.002)),
        controller="reactive",
        resilience=ResilienceConfig(
            deadline_s=1.0, queue_timeout_s=0.05, retry="fixed", checkpoint_interval=8
        ),
    ),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=cases())
@example(case=SHORT_FAILURE)
@example(case=ELASTIC[0])
@example(case=ELASTIC[1])
def test_generated_scenarios_hold_every_invariant(case):
    with checking() as checker:
        report = case.run()
        streaming = case.run(metrics="streaming")
    assert checker.completions == 2 * report.completed
    if report.completed:
        assert checker.ticks > 0
    latencies = [getattr(report, name) for name in LATENCY_FIELDS]
    assert [math.isnan(x) for x in latencies] == [report.completed == 0] * len(latencies)
    if case.resilience is None:
        assert report.completed == len(case.trace()), "a request was lost"
    # repr() compares floats bit for bit and lets an empty run's NaNs match.
    assert repr(replace(streaming, **LATENCY_FIELDS)) == repr(replace(report, **LATENCY_FIELDS))
    if case.controller != "reactive":
        other = None if case.controller == "static" else "static"
        assert repr(replace(case, controller=other).run()) == repr(report)


# --- the checker's own tests -------------------------------------------------


FAILURE_RUNS = {
    "phase-split": Case(
        "phase-split", 1, 2, 64, rate=4.0, duration=20.0, output_tokens=200, seed=0,
        failures=((10.0, "decode", 0, 30.0),),
    ),
    "colocated": Case(
        "colocated", 1, 2, 64, rate=4.0, duration=20.0, output_tokens=200, seed=0,
        failures=((2.0, "colocated", 0, 15.0),),
    ),
}


def _evict_clears_running(monkeypatch):
    evict = DecodeState.evict

    def clearing(inst):
        inst.running = False
        return evict(inst)

    monkeypatch.setattr(DecodeState, "evict", clearing)


def _due_one_late(monkeypatch):
    register = engine_module._register_due

    def late(inst, seq):
        register(inst, seq)
        count = inst.iter_count + seq.request.output_tokens
        inst.due[count].remove(seq)
        inst.due.setdefault(count + 1, []).append(seq)

    monkeypatch.setattr(engine_module, "_register_due", late)


def _completion_keeps_occupancy(monkeypatch):
    complete_due = _EngineBase._complete_due

    def leaking(engine, inst, done, finish):
        occupied = inst.occupied
        complete_due(engine, inst, done, finish)
        inst.occupied = occupied

    monkeypatch.setattr(_EngineBase, "_complete_due", leaking)


class TestChecker:
    @pytest.mark.parametrize("shape", sorted(FAILURE_RUNS))
    def test_failure_run_is_checked_at_every_tick(self, shape):
        case = FAILURE_RUNS[shape]
        with checking() as checker:
            report = case.run()
        assert report.completed == len(case.trace())
        assert report.restarted_requests > 0  # the eviction path ran
        assert checker.completions == report.completed
        assert checker.ticks > 0 and checker.admits > 0

    @pytest.mark.parametrize(
        "seed_defect, case, message",
        [
            (_evict_clears_running, SHORT_FAILURE, "starts before the previous one ends"),
            (_due_one_late, FAILURE_RUNS["colocated"], "due buckets disagree"),
            (_completion_keeps_occupancy, FAILURE_RUNS["phase-split"], "occupied"),
        ],
        ids=["evict_clears_running", "due_one_late", "completion_keeps_occupancy"],
    )
    def test_catches_seeded_defect(self, seed_defect, case, message, monkeypatch):
        seed_defect(monkeypatch)
        with pytest.raises(AssertionError, match=message), checking():
            case.run()
