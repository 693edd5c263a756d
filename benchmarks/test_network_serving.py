"""Topology-aware serving benchmark: what placement costs on the fabric.

The placement layer's headline claim, measured: on the same Lite deployment
and the same trace, a scattered placement (every TP group striped across the
whole direct-connect fabric) is strictly worse than a packed one (every TP
group inside one mesh group) once the network model prices the placed
collectives.  And with ``network_model="none"`` the co-simulation layer is
invisible — reports replay the no-topology baseline bit-for-bit.

A recorded run (``REPRO_BENCH_RECORD=1``) writes
``benchmarks/BENCH_network.json`` — the artifact CI uploads.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.tables import format_table
from repro.cluster.placement import placement_hop_stats
from repro.cluster.scheduler import InstanceSpec, PhasePools
from repro.cluster.simulator import ServingSimulator, SimConfig
from repro.hardware.gpu import LITE_MEMBW, LITE_NETBW_FLOPS
from repro.network.topology import DirectConnectTopology
from repro.workloads.models import LLAMA3_70B
from repro.workloads.traces import TraceConfig, generate_trace

from conftest import emit, record_artifact

ARTIFACT = Path(__file__).parent / "BENCH_network.json"

TRACE = generate_trace(
    TraceConfig(rate=6.0, duration=40.0, output_tokens=150, output_spread=0.5), seed=13
)

TOPOLOGY = DirectConnectTopology(n_gpus=32, group=8)


def _lite_deployment() -> PhasePools:
    return PhasePools(
        prefill=InstanceSpec(LLAMA3_70B, LITE_NETBW_FLOPS, 8),
        n_prefill=2,
        decode=InstanceSpec(LLAMA3_70B, LITE_MEMBW, 8),
        n_decode=2,
        max_prefill_batch=4,
        max_decode_batch=256,
    )


def _run(placer: str, network_model: str = "fabric"):
    config = SimConfig(max_sim_time=600.0)
    simulator = ServingSimulator(
        _lite_deployment(), config,
        topology=TOPOLOGY, placer=placer, network_model=network_model,
    )
    return simulator, simulator.run(TRACE)


def test_network_serving(benchmark):
    def _all():
        baseline = ServingSimulator(_lite_deployment(), SimConfig(max_sim_time=600.0)).run(TRACE)
        none_sim, none = _run("packed", network_model="none")
        packed_sim, packed = _run("packed")
        scattered_sim, scattered = _run("scattered")
        return baseline, none, (packed_sim, packed), (scattered_sim, scattered)

    baseline, none, (packed_sim, packed), (scattered_sim, scattered) = benchmark.pedantic(
        _all, rounds=1, iterations=1
    )

    rows = []
    payload = {}
    for name, sim, report in (
        ("packed", packed_sim, packed),
        ("scattered", scattered_sim, scattered),
    ):
        stats = placement_hop_stats(TOPOLOGY, sim.placement)
        rows.append(
            [
                name,
                f"{stats['mean_hops']:.2f}",
                report.completed,
                f"{report.tbt_mean * 1e3:.1f} ms",
                f"{report.e2e_p50:.2f} s",
                f"{report.output_tokens_per_s:.0f}",
            ]
        )
        payload[name] = {
            "mean_hops": stats["mean_hops"],
            "max_hops": stats["max_hops"],
            "tbt_mean": report.tbt_mean,
            "e2e_p50": report.e2e_p50,
            "output_tokens_per_s": report.output_tokens_per_s,
        }
    emit(
        "Topology-aware serving: 32x Lite on direct-connect groups of 8",
        format_table(
            ["placement", "mean hops", "completed", "TBT mean", "e2e p50", "out tok/s"],
            rows,
        ),
    )
    payload["scattered_tbt_penalty"] = scattered.tbt_mean / packed.tbt_mean
    record_artifact(ARTIFACT, None, payload)

    # network_model="none" is invisible: bit-identical to the no-topology run.
    assert none == baseline
    # The placement signal: scattered strictly worse than packed everywhere.
    assert scattered.tbt_mean > packed.tbt_mean
    assert scattered.e2e_p50 > packed.e2e_p50
    assert scattered.output_tokens_per_s < packed.output_tokens_per_s
    # And the fabric overlay itself costs something relative to "none".
    assert packed.tbt_mean > none.tbt_mean
