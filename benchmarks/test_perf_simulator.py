"""Simulator hot-path micro-benchmark: the memoized service-time oracle.

The seed simulator re-evaluated the full analytical roofline every decode
iteration; on long traces that dominated wall-clock.  The engine memoizes
service times in :class:`repro.cluster.engine.ServiceTimeProvider`, keyed
on batch and a context bucket.  This benchmark runs a 10-minute-horizon
trace once and gates the memo deterministically, with no wall-clock
noise: the decode memo answers ≥98% of calls, the prefill memo evaluates
the roofline exactly once, and every memo entry equals the direct
:class:`~repro.cluster.scheduler.InstanceSpec` evaluation
(``context_bucket=1`` is exact).
"""

from __future__ import annotations

from repro.cluster.scheduler import InstanceSpec, PhasePools
from repro.cluster.simulator import ServingSimulator, SimConfig
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_trace

from conftest import emit

# A 10-minute-horizon trace: ~1800 requests, ~280k decode-iteration events.
TRACE = generate_trace(
    TraceConfig(rate=3.0, duration=600.0, output_tokens=150, output_spread=0.5), seed=21
)

POOLS = PhasePools(
    prefill=InstanceSpec(LLAMA3_8B, H100, 1),
    n_prefill=2,
    decode=InstanceSpec(LLAMA3_8B, H100, 1),
    n_decode=2,
    max_prefill_batch=4,
    max_decode_batch=128,
)


def test_service_time_memo_on_long_traces(benchmark):
    simulator = ServingSimulator(POOLS, SimConfig(max_sim_time=1800.0))
    report = benchmark.pedantic(simulator.run, args=(TRACE,), rounds=1, iterations=1)
    decode = simulator.decode_provider.cache_info()
    prefill = simulator.prefill_provider.cache_info()
    hit_ratio = decode["hits"] / (decode["hits"] + decode["misses"])
    emit(
        "Simulator hot path: 10-minute trace, memoized service times",
        f"trace:   {len(TRACE)} requests\n"
        f"decode:  {decode['hits']} memo hits, {decode['misses']} roofline evaluations "
        f"(hit ratio {hit_ratio:.4f})\n"
        f"prefill: {prefill['hits']} memo hits, {prefill['misses']} roofline evaluations",
    )
    assert report.completed == len(TRACE)
    # Measured 168,308 decode hits against 2,072 misses (0.9878).  A memo
    # key that stops collapsing repeats, or a bypassed memo, drops this.
    assert hit_ratio >= 0.98, f"decode memo hit ratio {hit_ratio:.4f} < 0.98"
    # Every prompt of the trace has one length and every prefill batch one
    # request, so one roofline evaluation serves them all.
    assert prefill["misses"] == 1
    # Exactness: each memoized latency is the direct model evaluation.
    for provider, spec in (
        (simulator.decode_provider, POOLS.decode),
        (simulator.prefill_provider, POOLS.prefill),
    ):
        for (kind, batch, length), value in provider._cache.items():
            direct = spec.decode_time if kind == "d" else spec.prefill_time
            assert value == direct(batch, length), (kind, batch, length)
