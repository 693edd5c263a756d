"""Autoscaling benchmark: elastic beats static provisioning on $/Mtoken.

The control plane's headline claim, measured: on a bursty trace (quiet /
burst / quiet), a statically peak-provisioned deployment and a reactive
autoscaler complete the same requests and both hold the paper's P99-TTFT
SLO (<= 1 s) — but the autoscaler drains idle instances through the lulls,
holds fewer provisioned gpu-seconds, and lands a strictly lower $/Mtoken.
That delta is the perf-per-TCO argument of Section 3, produced by the
simulator instead of assumed.

A recorded run (``REPRO_BENCH_RECORD=1``) writes
``benchmarks/BENCH_autoscale.json`` — the artifact CI uploads alongside the
sweep and network trajectories.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.report import simulation_table
from repro.cluster.control import ReactiveController, SLOController
from repro.cluster.scheduler import InstanceSpec, PhasePools
from repro.cluster.simulator import ServingSimulator, SimConfig
from repro.hardware.gpu import H100
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import TraceConfig, generate_piecewise_trace

from conftest import emit, record_artifact

ARTIFACT = Path(__file__).parent / "BENCH_autoscale.json"

#: The paper's TTFT SLO (Splitwise production numbers): P99 <= 1 s.
TTFT_SLO = 1.0

# Quiet / burst / quiet: the shape static provisioning wastes money on.
TRACE = generate_piecewise_trace(
    [(1.0, 60.0), (8.0, 60.0), (1.0, 60.0)],
    TraceConfig(output_tokens=100, output_spread=0.5),
    seed=7,
)


def _peak_provisioned() -> PhasePools:
    """Sized so the burst segment is comfortable — the static baseline."""
    return PhasePools(
        prefill=InstanceSpec(LLAMA3_8B, H100, 1),
        n_prefill=2,
        decode=InstanceSpec(LLAMA3_8B, H100, 1),
        n_decode=6,
        max_prefill_batch=4,
        max_decode_batch=32,
    )


def _controllers():
    return {
        "static": None,
        "reactive": ReactiveController(
            epoch=5.0, warmup_s=10.0, calm_epochs=2, queue_high=2.0, max_instances=6
        ),
        "slo": SLOController(
            epoch=5.0, warmup_s=10.0, calm_epochs=2,
            ttft_target=TTFT_SLO, max_instances=6,
        ),
    }


def _run_all():
    config = SimConfig(max_sim_time=1800.0)
    return {
        name: ServingSimulator(_peak_provisioned(), config, controller=ctrl).run(TRACE)
        for name, ctrl in _controllers().items()
    }


def test_autoscale_serving(benchmark):
    reports = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    static, reactive = reports["static"], reports["reactive"]

    labeled = {
        name + (
            f" (+{r.spawned_instances}/-{r.retired_instances})"
            if r.spawned_instances or r.retired_instances else ""
        ): r
        for name, r in reports.items()
    }
    emit(
        "Autoscale serving: Llama3-8B, quiet/burst/quiet at 1/8/1 req/s",
        simulation_table(labeled, title="Static vs elastic provisioning"),
    )

    payload = {
        name: {
            "completed": r.completed,
            "ttft_p99_s": r.ttft_p99,
            "tbt_mean_s": r.tbt_mean,
            "output_tokens_per_s": r.output_tokens_per_s,
            "gpu_seconds": r.gpu_seconds,
            "energy_kwh": r.energy_joules / 3.6e6,
            "usd_cost": r.usd_cost,
            "usd_per_mtoken": r.usd_per_mtoken,
            "spawned": r.spawned_instances,
            "retired": r.retired_instances,
        }
        for name, r in reports.items()
    }
    payload["elastic_saving"] = 1.0 - reactive.usd_per_mtoken / static.usd_per_mtoken
    record_artifact(ARTIFACT, None, payload)

    # Everyone serves the full trace...
    for name, report in reports.items():
        assert report.completed == len(TRACE), name
        # ...at the paper's P99-TTFT SLO.
        assert report.ttft_p99 <= TTFT_SLO, name
    # The static baseline never scales; the elastic controllers shed idle
    # capacity through the lulls.
    assert static.spawned_instances == 0 and static.retired_instances == 0
    assert reactive.retired_instances > 0
    # The acceptance criterion: reactive strictly cheaper per token than
    # static provisioning at equal SLO, with a meaningful margin.
    assert reactive.usd_per_mtoken < static.usd_per_mtoken * 0.8
    assert reactive.gpu_seconds < static.gpu_seconds
