"""Executor + engine perf benchmark: parallel sweeps and the engine hot path.

1. **Parallel sweep** — 32 independent simulation points fanned across a
   4-worker process pool via :func:`repro.exec.runner.run_many` versus the
   same jobs run serially.  The speedup bar scales with the CPUs this
   machine actually exposes: >= 2x where >= 4 cores are available (the
   paper-reproduction target), a proportional floor on 2-3 cores, and
   correctness-only (bit-identical records) on single-core boxes, where a
   process pool cannot beat physics.  Both runs must agree bit for bit.
2. **Engine hot path** — the 10-minute trace of
   ``benchmarks/test_perf_simulator.py``, gated by operation count rather
   than wall-clock: every request completes and the engine reads at most
   8 ``ActiveSequence`` attributes per request, which fails on any return
   of per-tick, per-sequence work.

A recorded run (``REPRO_BENCH_RECORD=1``) merges its numbers into
``benchmarks/BENCH_sweep.json`` — the trajectory artifact CI uploads.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster.engine import ActiveSequence
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig
from repro.exec.runner import Job, effective_workers, run_many
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_trace

from conftest import emit, record_artifact

ARTIFACT = Path(__file__).parent / "BENCH_sweep.json"

# 8 rates x 4 trace seeds = 32 sweep points, each a complete (small)
# colocated simulation — coarse enough that pool dispatch overhead is noise.
SWEEP_RATES = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]
SWEEP_SEEDS = [0, 1, 2, 3]


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _bench_point(rate: float, seed: int):
    """One sweep point (module-level: picklable for pool workers)."""
    trace = generate_trace(
        TraceConfig(rate=rate, duration=20.0, output_tokens=80, output_spread=0.5),
        seed=seed,
    )
    pool = ColocatedPool(
        instance=InstanceSpec(LLAMA3_8B, H100, 1), n_instances=1, max_decode_batch=64
    )
    return ColocatedSimulator(pool, SimConfig(max_sim_time=120.0)).run(trace)


def _sweep_jobs():
    return [
        Job(fn=_bench_point, args=(rate, seed), label=f"rate={rate:g} seed={seed}")
        for rate in SWEEP_RATES
        for seed in SWEEP_SEEDS
    ]


def test_parallel_sweep_speedup(benchmark):
    def timed(workers):
        start = time.perf_counter()
        outcomes = run_many(_sweep_jobs(), workers=workers)
        return outcomes, time.perf_counter() - start

    def run():
        # Best of two interleaved rounds per mode: a stall from other load
        # on a shared host hits one round, not the pair, and the floor
        # below stays as it was.
        rounds = [(timed(1), timed(4)) for _ in range(2)]
        serial, t_serial = min((s for s, _ in rounds), key=lambda r: r[1])
        parallel, t_parallel = min((p for _, p in rounds), key=lambda r: r[1])
        assert [o.value for o in rounds[0][0][0]] == [o.value for o in rounds[1][0][0]]
        return serial, t_serial, parallel, t_parallel

    serial, t_serial, parallel, t_parallel = benchmark.pedantic(run, rounds=1, iterations=1)
    cores = _available_cores()
    effective = effective_workers(4)
    # With one effective worker, run_many's clamp routes the "parallel" call
    # through the identical serial path — there is no pool to measure, so the
    # artifact records an exact 1.0x instead of wall-clock noise masquerading
    # as a sub-1.0x "speedup" (the regression this clamp fixes).
    speedup = 1.0 if effective == 1 else t_serial / t_parallel
    # The wall-clock bar honestly tracks the hardware: a pool cannot beat
    # one core, and shared CI runners get slack for scheduler noise.
    relaxed = bool(os.environ.get("CI"))
    if effective >= 4:
        floor = 1.5 if relaxed else 2.0
    elif effective >= 2:
        floor = 1.05 if relaxed else 1.2
    else:
        floor = None
    emit(
        "Parallel sweep: 32 simulation points, 4 workers vs serial",
        f"points:   {len(serial)} (all completed: "
        f"{all(o.ok and o.value.completed > 0 for o in serial)})\n"
        f"serial:   {t_serial:.2f}s wall\n"
        f"4-worker: {t_parallel:.2f}s wall ({effective} effective worker(s))\n"
        f"speedup:  {speedup:.2f}x on {cores} core(s)"
        + ("" if floor else " — serial fallback, only bit-identity is asserted"),
    )
    record_artifact(
        ARTIFACT,
        "parallel_sweep",
        {
            "points": len(serial),
            "workers": 4,
            "effective_workers": effective,
            "serial_fallback": effective == 1,
            "serial_s": t_serial,
            "parallel_s": t_parallel,
            "speedup": speedup,
            "floor": floor,
        },
    )
    record_artifact(ARTIFACT, "cores", _available_cores())
    # Determinism is asserted unconditionally: fan-out must be bit-exact.
    assert all(o.ok for o in serial) and all(o.ok for o in parallel)
    assert [o.value for o in serial] == [o.value for o in parallel]
    assert speedup >= 1.0 or floor is not None
    if floor is not None:
        assert speedup >= floor, f"expected >={floor}x on {effective} workers, got {speedup:.2f}x"


# The exact scenario of benchmarks/test_perf_simulator.py: a 10-minute
# trace, ~280k decode-iteration events.
HOTPATH_TRACE = generate_trace(
    TraceConfig(rate=3.0, duration=600.0, output_tokens=150, output_spread=0.5), seed=21
)

HOTPATH_POOLS = PhasePools(
    prefill=InstanceSpec(LLAMA3_8B, H100, 1),
    n_prefill=2,
    decode=InstanceSpec(LLAMA3_8B, H100, 1),
    n_decode=2,
    max_prefill_batch=4,
    max_decode_batch=128,
)


def test_engine_hot_path_op_count(benchmark):
    """Per-sequence work per tick is gone: attribute reads per request stay O(1).

    A resident sequence is touched only at admission and at completion;
    every tick in between is one shared log append per instance.  Counting
    ``ActiveSequence`` attribute reads makes that a deterministic gate: 5.0
    reads per request today, against 178 when every tick bumped a
    per-sequence token count and 1368 when every tick also appended a
    per-sequence latency.
    """
    reads = Counter()
    read = object.__getattribute__

    def counting(seq, name):
        reads[name] += 1
        return read(seq, name)

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ActiveSequence, "__getattribute__", counting)
            return ServingSimulator(HOTPATH_POOLS, SimConfig(max_sim_time=1800.0)).run(
                HOTPATH_TRACE
            )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    per_request = sum(reads.values()) / len(HOTPATH_TRACE)
    emit(
        "Engine hot path: 10-minute trace, per-sequence attribute reads",
        f"trace: {len(HOTPATH_TRACE)} requests ({report.completed} completed)\n"
        f"ActiveSequence reads: {sum(reads.values())} ({per_request:.1f} per request; "
        + ", ".join(f"{name} {count}" for name, count in sorted(reads.items()))
        + ")",
    )
    record_artifact(
        ARTIFACT,
        "engine_hot_paths",
        {
            "requests": len(HOTPATH_TRACE),
            "sequence_reads": dict(reads),
            "sequence_reads_per_request": per_request,
        },
    )
    assert report.completed == len(HOTPATH_TRACE)
    assert per_request <= 8, f"{per_request:.1f} ActiveSequence reads per request (> 8)"
