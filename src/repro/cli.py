"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage::

    python -m repro table1
    python -m repro fig1 | fig2 | fig3a | fig3b
    python -m repro report                       # everything
    python -m repro search --model Llama3-70B --gpu Lite+MemBW --phase decode
    python -m repro tco --model Llama3-70B
    python -m repro simulate --shape phase-split --policy fcfs
    python -m repro simulate --shape colocated --mtbf-hours 0.5
    python -m repro simulate --topology direct --group 8 --network-model fabric \
        --placer scattered                       # topology-aware serving
    python -m repro sweep --rates 2,4,6 --sizes 1,2 --workers 4
    python -m repro simulate --backend fluid     # millisecond analytic estimate
    python -m repro screen --rates 2,4,6,8 --sizes 1,2,4  # two-tier sweep
    python -m repro topology --gpus 128 --group 4  # fabric comparison table
    python -m repro autoscale --controllers static,reactive,slo \
        --rates 1,8,1 --segment 60               # static-vs-elastic economics
    python -m repro chaos --scenario blast       # rack-failure blast radius
    python -m repro cache stats | clear          # on-disk result cache

All subcommands print plain text and touch neither the network nor disk —
except ``sweep`` and ``screen``, which (unless ``--no-cache``) persist
finished points under ``--cache-dir`` (default ``.repro_cache/``) so repeat
invocations skip completed work, and ``cache``, which inspects/clears that
directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from dataclasses import dataclass
from typing import List, Optional

from .analysis.figures import (
    fig1_evolution_series,
    fig2_deployment_comparison,
    fig3a_prefill_series,
    fig3b_decode_series,
)
from .analysis.report import experiment_report, simulation_table
from .analysis.tables import format_table, render_fig3_panel, render_table1
from .cluster.chaos import (
    blast_radius_scenario,
    checkpoint_scenario,
    retry_storm_scenario,
)
from .cluster.control import (
    CONTROLLERS,
    ForecastController,
    PowerCapController,
    ReactiveController,
    SLOController,
    StaticController,
)
from .cluster.failures import FailureModel
from .cluster.placement import PLACERS, placement_hop_stats
from .cluster.policies import POLICY_BUNDLES, ROUTING_POLICIES
from .cluster.resilience import goodput_dip
from .cluster.power_manager import ClusterPowerManager
from .cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from .cluster.simulator import SimConfig, simulator_for
from .cluster.spec import ClusterSpec
from .analysis.screening import screen_then_simulate
from .analysis.sweeps import argbest
from .core.search import search_best_config
from .errors import LiteGPUError, SimulationError
from .exec.cache import ResultCache
from .exec.runner import Job, run_many
from .exec.sharding import run_sharded
from .hardware.gpu import H100, get_gpu
from .hardware.tco import tokens_per_dollar_comparison
from .network.fabric import compare_fabrics
from .network.topology import (
    DirectConnectTopology,
    FlatCircuitTopology,
    SwitchedTopology,
    Topology,
)
from .units import GB_PER_S, HOUR, KILOWATT
from .workloads.models import get_model
from .workloads.traces import (
    TraceConfig,
    generate_piecewise_trace,
    generate_trace,
    trace_fingerprint,
)


def _csv_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _csv_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_table1(_: argparse.Namespace) -> None:
    print(render_table1())


def _cmd_fig1(_: argparse.Namespace) -> None:
    rows = fig1_evolution_series()
    headers = ["name", "year", "dies", "die_area_mm2", "transistors_b", "tdp_w", "mem_bw_gbs", "packaging"]
    print(format_table(headers, [[r[h] for h in headers] for r in rows],
                       title="Figure 1: evolution of data-center GPUs"))


def _cmd_fig2(_: argparse.Namespace) -> None:
    fig2 = fig2_deployment_comparison()
    print(
        "Figure 2 (1x H100 -> 4x Lite): "
        f"yield x{fig2['yield_gain']:.2f}, cost -{fig2['cost_reduction']:.0%}, "
        f"shoreline x{fig2['shoreline_gain']:.2f}, "
        f"bandwidth-to-compute potential x{fig2['bw_to_compute_potential']:.2f}"
    )


def _cmd_fig3a(_: argparse.Namespace) -> None:
    print(render_fig3_panel(fig3a_prefill_series(), "Figure 3a: prefill (normalized tokens/s/SM)"))


def _cmd_fig3b(_: argparse.Namespace) -> None:
    print(render_fig3_panel(fig3b_decode_series(), "Figure 3b: decode (normalized tokens/s/SM)"))


def _cmd_report(_: argparse.Namespace) -> None:
    print(experiment_report())


def _cmd_search(args: argparse.Namespace) -> None:
    model = get_model(args.model)
    gpu = get_gpu(args.gpu)
    result = search_best_config(model, gpu, args.phase)
    print(result.describe())
    if result.best and args.verbose:
        breakdown = result.best.result.breakdown()
        for stage, share in breakdown.items():
            print(f"  {stage:12s} {share:6.1%}")
        print(f"  bound by: {result.best.result.bound_by()}")


def _cmd_tco(args: argparse.Namespace) -> None:
    model = get_model(args.model)
    h100_best = search_best_config(model, H100, "decode").best
    lite = get_gpu(args.gpu)
    lite_best = search_best_config(model, lite, "decode").best
    if h100_best is None or lite_best is None:
        print("no feasible configuration", file=sys.stderr)
        raise SystemExit(1)
    comparison = tokens_per_dollar_comparison(
        ClusterSpec(H100, h100_best.n_gpus, "switched"),
        ClusterSpec(lite, lite_best.n_gpus, "circuit"),
        h100_best.result.tokens_per_s,
        lite_best.result.tokens_per_s,
    )
    print(
        f"{model.name} decode unit economics:\n"
        f"  H100 ({h100_best.n_gpus} GPUs): ${comparison['h100_usd_per_mtoken']:.3f}/Mtok "
        f"(${comparison['h100_per_hour']:.2f}/h)\n"
        f"  {lite.name} ({lite_best.n_gpus} GPUs): ${comparison['lite_usd_per_mtoken']:.3f}/Mtok "
        f"(${comparison['lite_per_hour']:.2f}/h)\n"
        f"  Lite saving: {comparison['lite_saving']:.1%}"
    )


def _build_topology(kind: str, n_gpus: int, group: int) -> Optional[Topology]:
    """Materialize a CLI-selected topology over ``n_gpus`` endpoints.

    Direct-connect fabrics round the GPU count up to a whole number of
    groups (spare endpoints simply stay unplaced).
    """
    if kind == "none":
        return None
    if group <= 0:
        raise SimulationError("--group must be positive")
    if n_gpus <= 0:
        raise SimulationError("--cluster-gpus must be positive")
    if kind == "direct":
        n = ((n_gpus + group - 1) // group) * group
        return DirectConnectTopology(n_gpus=n, group=group)
    if kind == "switched":
        return SwitchedTopology(n_gpus=n_gpus)
    return FlatCircuitTopology(n_gpus=n_gpus)


def _check_topology_flags(args: argparse.Namespace) -> None:
    """Reject placement flags that would be silently ignored without a
    topology (``--network-model fabric`` already fails in the simulator)."""
    if args.topology == "none" and (
        args.placer != "packed" or args.cluster_gpus or args.group != 4
    ):
        raise SimulationError(
            "--placer/--cluster-gpus/--group have no effect without --topology "
            "direct|switched|circuit"
        )


def _cmd_topology(args: argparse.Namespace) -> None:
    reports = compare_fabrics(args.gpus, group=args.group, utilization=args.utilization)
    rows = [
        [
            r.name,
            r.n_switches,
            r.n_links,
            r.n_ports,
            f"{r.capex_usd:,.0f}",
            f"{r.capex_per_gpu:,.0f}",
            f"{r.power_w / KILOWATT:.1f}",
            f"{r.per_gpu_bandwidth / GB_PER_S:.0f}",
            f"{r.bisection_bandwidth / GB_PER_S:,.0f}",
            f"{r.avg_hops:.2f}",
        ]
        for r in reports
    ]
    print(
        format_table(
            ["fabric", "switches", "links", "ports", "capex $", "$/GPU",
             "power kW", "GB/s/GPU", "bisection GB/s", "avg hops"],
            rows,
            title=f"Fabric comparison: {args.gpus} GPUs, group {args.group}",
        )
    )


def _trace(args: argparse.Namespace, rate: float) -> TraceConfig:
    """The trace a simulate/sweep/screen point replays at ``rate``."""
    return TraceConfig(rate=rate, duration=args.duration,
                       output_tokens=args.output_tokens, output_spread=args.output_spread)


@dataclass(frozen=True)
class Scenario:
    """One CLI run: deployment, simulator knobs, and the trace to replay.

    ``size`` is the decode-pool size of a phase-split deployment and the
    instance count of a colocated one; the other shape's knobs are ignored.
    Frozen and picklable, so one scenario is both a sweep job's argument
    (``Job(fn=Scenario.run, args=(scenario,))``) and, field by field, its
    result-cache key: topology, placement and backend choices never alias
    each other's cached points.
    """

    shape: str
    model: str
    prefill_gpu: str
    decode_gpu: str
    gpu: str
    gpus_per_instance: int
    n_prefill: int
    size: int
    max_prefill_batch: int
    max_decode_batch: int
    chunk_tokens: int
    policy: str
    max_sim_time: float
    trace: TraceConfig
    seed: int
    context_bucket: int = 1
    metrics: str = "exact"
    backend: str = "event"
    topology: str = "none"
    cluster_gpus: int = 0
    group: int = 4
    placer: str = "packed"
    network_model: str = "none"

    @classmethod
    def from_args(cls, args: argparse.Namespace, **fields) -> "Scenario":
        """Every field the parsed namespace has, overridden by ``fields``."""
        known = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                 if hasattr(args, f.name)}
        return cls(**{**known, **fields})

    def deployment(self):
        """The :class:`PhasePools` or :class:`ColocatedPool` this run serves."""
        model = get_model(self.model)
        if self.shape == "phase-split":
            return PhasePools(
                prefill=InstanceSpec(model, get_gpu(self.prefill_gpu), self.gpus_per_instance),
                n_prefill=self.n_prefill,
                decode=InstanceSpec(model, get_gpu(self.decode_gpu), self.gpus_per_instance),
                n_decode=self.size,
                max_prefill_batch=self.max_prefill_batch,
                max_decode_batch=self.max_decode_batch,
            )
        return ColocatedPool(
            instance=InstanceSpec(model, get_gpu(self.gpu), self.gpus_per_instance),
            n_instances=self.size,
            max_decode_batch=self.max_decode_batch,
            chunk_tokens=self.chunk_tokens,
        )

    def config(self) -> SimConfig:
        """The :class:`SimConfig` this run uses."""
        return SimConfig(
            max_sim_time=self.max_sim_time, context_bucket=self.context_bucket,
            metrics=self.metrics, backend=self.backend,
        )

    def simulator(self, **kwargs):
        """The simulator for this run; ``kwargs`` adds failures or a controller."""
        deployment = self.deployment()
        topology = _build_topology(
            self.topology, self.cluster_gpus or deployment.total_gpus, self.group
        )
        return simulator_for(deployment)(
            deployment, self.config(), policies=self.policy,
            topology=topology, placer=self.placer, network_model=self.network_model,
            **kwargs,
        )

    def run(self):
        """Regenerate the trace and simulate it.

        The trace regenerates from its config inside the worker —
        deterministic, and far cheaper to ship than thousands of pickled
        Request objects.
        """
        return self.simulator().run(generate_trace(self.trace, seed=self.seed))


def _cmd_simulate(args: argparse.Namespace) -> None:
    _check_topology_flags(args)
    scenario = Scenario.from_args(
        args,
        size=args.n_decode if args.shape == "phase-split" else args.n_instances,
        trace=_trace(args, args.rate),
    )
    trace = generate_trace(scenario.trace, seed=scenario.seed)
    sharded = args.shards != 1
    if args.backend != "event" and sharded:
        raise SimulationError("--backend fluid cannot be combined with --shards")
    failure_model = None
    if args.mtbf_hours > 0:
        failure_model = FailureModel(mtbf=args.mtbf_hours * HOUR, mttr=args.mttr_hours * HOUR)
    deployment = scenario.deployment()
    if sharded:
        # Sharded execution factors the run into independent sub-engines —
        # whole-cluster co-simulation (a shared fabric) cannot be split.
        if args.topology != "none":
            raise SimulationError("--shards cannot be combined with --topology")
        report = run_sharded(
            deployment, trace, scenario.config(), shards=args.shards, policies=args.policy,
            failure_model=failure_model, failure_seed=args.failure_seed,
            shard_policy=args.shard_policy, workers=args.workers,
        )
        topology = None
    else:
        simulator = scenario.simulator(
            failure_model=failure_model, failure_seed=args.failure_seed
        )
        topology = simulator.topology
        report = simulator.run(trace)
    failure_note = (
        f"stochastic failures MTBF {args.mtbf_hours:g}h / MTTR {args.mttr_hours:g}h "
        f"(seed {args.failure_seed})" if failure_model else "no failures"
    )
    print(f"{deployment.describe()}")
    print(f"policy '{args.policy}', trace {len(trace)} requests @ {args.rate:g}/s, {failure_note}")
    if sharded:
        print(
            f"sharded x{args.shards} ('{args.shard_policy}' shard routing, "
            f"{args.workers} worker(s), streaming metrics)"
        )
    if topology is not None:
        stats = placement_hop_stats(topology, simulator.placement)
        print(
            f"topology {args.topology} x{topology.n_gpus}, placer '{args.placer}', "
            f"network model '{args.network_model}' "
            f"(intra-instance hops mean {stats['mean_hops']:.2f} max {stats['max_hops']:.0f})"
        )
    print(simulation_table({args.shape: report}))
    print(report.describe())


def _cmd_sweep(args: argparse.Namespace) -> None:
    _check_topology_flags(args)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    jobs = []
    for rate in args.rates:
        trace = _trace(args, rate)
        # Fingerprint the actual requests (not just the config) so a change
        # to trace *generation* invalidates cached points even within one
        # version.
        fingerprint = (
            trace_fingerprint(generate_trace(trace, seed=args.seed))
            if cache is not None else None
        )
        for size in args.sizes:
            scenario = Scenario.from_args(args, size=size, trace=trace)
            key = None if cache is None else cache.key("cli-sweep", scenario, fingerprint)
            jobs.append(Job(fn=Scenario.run, args=(scenario,), key=key,
                            label=f"rate={rate:g} size={size}"))
    outcomes = run_many(jobs, workers=args.workers, cache=cache)
    print(
        f"sweep: {args.shape} {args.model}, {len(jobs)} points "
        f"({len(args.rates)} rates x {len(args.sizes)} sizes), "
        f"{args.workers} worker(s), policy '{args.policy}'"
    )
    records = []
    reports = {}
    for outcome in outcomes:
        if outcome.ok:
            reports[outcome.label + (" [cached]" if outcome.cached else "")] = outcome.value
            records.append({"point": outcome.label, "result": outcome.value})
        else:
            records.append({"point": outcome.label, "error": outcome.error})
    if reports:
        print(simulation_table(reports, title="Sweep grid"))
    for record in records:
        if "error" in record:
            print(f"  {record['point']}: ERROR {record['error']}")
    if not reports:
        raise SimulationError("no sweep point completed successfully")
    best = argbest(records, key=lambda r: r["result"].output_tokens_per_s)
    print(
        f"best throughput: {best['point']} "
        f"({best['result'].output_tokens_per_s:.0f} out tok/s)"
    )
    if cache is not None:
        info = cache.cache_info()
        print(
            f"cache: {info['hits']} hits, {info['misses']} misses, "
            f"{info['stores']} stored, {info['entries']} on disk ({cache.root})"
        )
    else:
        print("cache: disabled")


def _screen_point(base: Scenario, backend: str, rate: float, size: int):
    """Evaluate one screen grid point under the given backend.

    Module-level with the fixed scenario bound via ``functools.partial``,
    so it pickles to workers and the backend lands in the result-cache key.
    """
    return dataclasses.replace(
        base, backend=backend, size=size, trace=dataclasses.replace(base.trace, rate=rate)
    ).run()


def _cmd_screen(args: argparse.Namespace) -> None:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    # Placeholder size/rate (each point replaces them), so a point's cache
    # key does not depend on the rest of the grid.
    base = Scenario.from_args(args, size=1, trace=_trace(args, 1.0))
    fn = functools.partial(_screen_point, base)
    points = [{"rate": rate, "size": size} for rate in args.rates for size in args.sizes]

    def cost(record):
        return float(record["size"])

    def quality(record):
        return record["result"].output_tokens_per_s

    result = screen_then_simulate(
        fn, points,
        cost=cost, quality=quality,
        margin=args.margin, workers=args.workers, cache=cache,
    )
    print(
        f"screen: {args.shape} {args.model}, {result.n_points} points "
        f"({len(args.rates)} rates x {len(args.sizes)} sizes), "
        f"margin {args.margin:.0%}, policy '{args.policy}'"
    )
    print(result.table(cost, quality))
    best = result.best
    print(
        f"best (event-verified): rate={best['rate']:g} size={best['size']} "
        f"({best['result'].output_tokens_per_s:.0f} out tok/s); "
        f"event simulated {len(result.promoted)}/{result.n_points} points "
        f"({result.promotion_fraction:.0%})"
    )


def _build_controller(name: str, args: argparse.Namespace, deployment):
    """Materialize a named controller from the autoscale CLI knobs."""
    bounds = dict(
        epoch=args.epoch,
        warmup_s=args.warmup,
        min_instances=args.min_instances,
        max_instances=args.max_instances,
    )
    key = name.strip().lower().replace("-", "_")
    if key == "static":
        return StaticController()
    if key == "reactive":
        return ReactiveController(queue_high=args.queue_high, **bounds)
    if key == "slo":
        return SLOController(ttft_target=args.slo_ttft, tbt_target=args.slo_tbt, **bounds)
    if key == "forecast":
        profile = [
            (i * args.segment, rate / args.rates[0]) for i, rate in enumerate(args.rates)
        ]
        return ForecastController(profile=profile, **bounds)
    if key == "power_cap":
        if args.cap is None:
            raise SimulationError("power_cap needs --cap start:end:watts")
        try:
            start, end, watts = (float(p) for p in args.cap.split(":"))
        except ValueError as exc:
            raise SimulationError(
                f"--cap must be start:end:watts (three numbers), got {args.cap!r}"
            ) from exc
        manager = ClusterPowerManager(
            deployment.decode.gpu, deployment.total_gpus
        )
        return PowerCapController(manager=manager, caps=[(start, end, watts)], **bounds)
    raise SimulationError(
        f"unknown controller '{name}' (have {', '.join(CONTROLLERS.names())})"
    )


def _cmd_autoscale(args: argparse.Namespace) -> None:
    if len(args.rates) < 2:
        raise SimulationError("--rates needs at least two segments to be bursty")
    base = TraceConfig(output_tokens=args.output_tokens, output_spread=args.output_spread)
    trace = generate_piecewise_trace(
        [(rate, args.segment) for rate in args.rates], base, seed=args.seed
    )
    scenario = Scenario.from_args(
        args, shape="phase-split", gpu=args.decode_gpu, chunk_tokens=0,
        size=args.n_decode, trace=base,
    )
    deployment = scenario.deployment()
    print(
        f"{deployment.describe()}\n"
        f"bursty trace: {len(trace)} requests, rates "
        f"{'/'.join(f'{r:g}' for r in args.rates)} req/s x {args.segment:g}s segments"
    )
    reports = {}
    records = []
    for name in args.controllers:
        controller = _build_controller(name, args, deployment)
        report = scenario.simulator(controller=controller).run(trace)
        label = name
        if report.spawned_instances or report.retired_instances:
            label += f" (+{report.spawned_instances}/-{report.retired_instances})"
        reports[label] = report
        records.append({"controller": name, "result": report})
    print(simulation_table(reports, title="Static vs elastic provisioning"))
    meeting_slo = [
        r for r in records
        if r["result"].completed > 0 and r["result"].ttft_p99 <= args.slo_ttft
    ]
    if meeting_slo:
        best = argbest(
            meeting_slo, key=lambda r: r["result"].usd_per_mtoken, maximize=False
        )
        print(
            f"cheapest at P99-TTFT <= {args.slo_ttft:g}s: '{best['controller']}' "
            f"(${best['result'].usd_per_mtoken:.2f}/Mtok, "
            f"{best['result'].gpu_seconds:.0f} gpu-s)"
        )
    else:
        print(f"no controller met the P99-TTFT <= {args.slo_ttft:g}s SLO")


def _resilience_table(reports, title: str) -> str:
    """One row per report, resilience counters only (chaos verdicts)."""
    rows = [
        [
            name,
            r.completed,
            f"{r.goodput_tokens_per_s:.0f}",
            f"{r.slo_violation_rate:.3f}",
            f"{r.deadline_miss_rate:.3f}",
            r.timed_out,
            r.load_shed,
            r.retries,
            r.abandoned,
            f"{r.e2e_p99:.1f}",
            f"{r.mttr_s:.2f}",
            f"{r.availability:.4f}",
        ]
        for name, r in reports.items()
    ]
    headers = [
        "scenario", "done", "goodput tok/s", "SVR", "miss", "timeout",
        "shed", "retries", "abandoned", "e2e p99 s", "MTTR s", "avail",
    ]
    return format_table(headers, rows, title=title)


def _cmd_chaos(args: argparse.Namespace) -> None:
    scenarios = (
        ("blast", "checkpoint", "storm") if args.scenario == "all"
        else (args.scenario,)
    )
    for key in scenarios:
        if key == "blast":
            reports = blast_radius_scenario(metrics=args.metrics)
            print(_resilience_table(
                reports, title="Blast radius: one rack dies for 45s"
            ))
            big = goodput_dip(reports["big/base"], reports["big/rack"])
            lite = goodput_dip(reports["lite/base"], reports["lite/rack"])
            print(
                f"goodput dip from one rack failure: big {big:.1%}, "
                f"lite {lite:.1%} "
                f"({'smaller Lite blast radius' if lite < big else 'no separation'})"
            )
        elif key == "checkpoint":
            reports = checkpoint_scenario(metrics=args.metrics)
            print(_resilience_table(
                reports, title="Checkpointed restarts vs restart-from-prefill"
            ))
            plain, ckpt = reports["plain"], reports["ckpt"]
            print(
                f"checkpointing: goodput {plain.goodput_tokens:,} -> "
                f"{ckpt.goodput_tokens:,} tokens, "
                f"MTTR {plain.mttr_s:.2f}s -> {ckpt.mttr_s:.2f}s"
            )
        else:
            reports = retry_storm_scenario(metrics=args.metrics)
            print(_resilience_table(
                reports, title="Retry storm: 400 req/s burst, three client policies"
            ))
            fixed, expj = reports["fixed"], reports["exp_jitter"]
            recovered = (
                expj.slo_violation_rate < fixed.slo_violation_rate
                and expj.e2e_p99 < fixed.e2e_p99
            )
            print(
                f"storm recovery: fixed backoff SVR {fixed.slo_violation_rate:.3f} "
                f"(e2e p99 {fixed.e2e_p99:.0f}s) vs exp_jitter "
                f"{expj.slo_violation_rate:.3f} ({expj.e2e_p99:.0f}s) — "
                f"{'jittered backoff recovers' if recovered else 'no separation'}"
            )


def _cmd_cache(args: argparse.Namespace) -> None:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} record(s) from {cache.root}")
        return
    entries = cache.entries()
    size = cache.size_bytes()
    if size >= 1 << 20:
        human = f"{size / (1 << 20):.1f} MiB"
    elif size >= 1 << 10:
        human = f"{size / (1 << 10):.1f} KiB"
    else:
        human = f"{size} B"
    print(
        f"cache {cache.root}: {entries} record(s), {human} on disk "
        f"(salt '{cache.salt}')"
    )


def _add_scenario_args(
    parser: argparse.ArgumentParser,
    *,
    shape: str,
    model: str,
    gpu: str,
    gpus_per_instance: int,
    max_decode_batch: int,
    duration: float,
    output_tokens: int,
) -> None:
    """The deployment and trace flags of a :class:`Scenario` (simulate,
    sweep and screen); each command passes its own defaults."""
    parser.add_argument("--shape", choices=("phase-split", "colocated"), default=shape)
    parser.add_argument("--model", default=model)
    parser.add_argument("--prefill-gpu", default="Lite+NetBW+FLOPS",
                        help="prefill pool GPU (phase-split)")
    parser.add_argument("--decode-gpu", default="Lite+MemBW",
                        help="decode pool GPU (phase-split)")
    parser.add_argument("--gpu", default=gpu, help="pool GPU (colocated)")
    parser.add_argument("--gpus-per-instance", type=int, default=gpus_per_instance)
    parser.add_argument("--n-prefill", type=int, default=2,
                        help="prefill pool size (phase-split)")
    parser.add_argument("--max-prefill-batch", type=int, default=4)
    parser.add_argument("--max-decode-batch", type=int, default=max_decode_batch)
    parser.add_argument("--chunk-tokens", type=int, default=512,
                        help="prefill chunk per mixed iteration (colocated)")
    parser.add_argument("--policy", default="fcfs", choices=POLICY_BUNDLES.names(),
                        help="scheduling policy bundle")
    parser.add_argument("--duration", type=float, default=duration, help="trace length (s)")
    parser.add_argument("--output-tokens", type=int, default=output_tokens)
    parser.add_argument("--output-spread", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    parser.add_argument("--max-sim-time", type=float, default=600.0)


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    """The shared topology co-simulation flags (simulate + sweep)."""
    parser.add_argument("--topology", default="none",
                        choices=("none", "direct", "switched", "circuit"),
                        help="co-simulate a network fabric (none = legacy behaviour)")
    parser.add_argument("--cluster-gpus", type=int, default=0,
                        help="fabric endpoint count (0 = deployment total)")
    parser.add_argument("--group", type=int, default=4,
                        help="direct-connect Lite-group size")
    parser.add_argument("--placer", default="packed", choices=sorted(PLACERS),
                        help="instance-to-GPU placement strategy")
    parser.add_argument("--network-model", default="none", choices=("none", "fabric"),
                        help="service-time network model (fabric = placed collectives)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Lite-GPU paper reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="print Table 1").set_defaults(fn=_cmd_table1)
    sub.add_parser("fig1", help="print the Figure 1 dataset").set_defaults(fn=_cmd_fig1)
    sub.add_parser("fig2", help="print the Figure 2 comparison").set_defaults(fn=_cmd_fig2)
    sub.add_parser("fig3a", help="regenerate Figure 3a").set_defaults(fn=_cmd_fig3a)
    sub.add_parser("fig3b", help="regenerate Figure 3b").set_defaults(fn=_cmd_fig3b)
    sub.add_parser("report", help="full experiment report").set_defaults(fn=_cmd_report)

    search = sub.add_parser("search", help="run the Section 4 configuration search")
    search.add_argument("--model", default="Llama3-70B")
    search.add_argument("--gpu", default="Lite+MemBW")
    search.add_argument("--phase", choices=("prefill", "decode"), default="decode")
    search.add_argument("--verbose", action="store_true")
    search.set_defaults(fn=_cmd_search)

    tco = sub.add_parser("tco", help="decode unit economics vs H100")
    tco.add_argument("--model", default="Llama3-70B")
    tco.add_argument("--gpu", default="Lite+MemBW")
    tco.set_defaults(fn=_cmd_tco)

    simulate = sub.add_parser("simulate", help="run the discrete-event serving simulator")
    _add_scenario_args(
        simulate, shape="phase-split", model="Llama3-70B", gpu="Lite+MemBW",
        gpus_per_instance=8, max_decode_batch=256, duration=40.0, output_tokens=150,
    )
    simulate.add_argument("--n-decode", type=int, default=2)
    simulate.add_argument("--n-instances", type=int, default=4,
                          help="pool size (colocated)")
    simulate.add_argument("--rate", type=float, default=6.0, help="arrival rate (req/s)")
    simulate.add_argument("--context-bucket", type=int, default=1,
                          help="service-time cache granularity (1 = exact)")
    simulate.add_argument("--backend", default="event", choices=("event", "fluid"),
                          help="event = discrete-event truth; fluid = millisecond "
                               "analytic ODE estimate")
    simulate.add_argument("--metrics", default="exact", choices=("exact", "streaming"),
                          help="exact per-request metrics, or constant-memory sketches")
    simulate.add_argument("--shards", type=int, default=1,
                          help="split the run into N independent engine shards (>1 "
                               "implies streaming metrics; excludes --topology)")
    simulate.add_argument("--shard-policy", default="least-loaded",
                          choices=sorted(ROUTING_POLICIES.names()),
                          help="routing policy assigning requests to shards")
    simulate.add_argument("--workers", type=int, default=1,
                          help="process pool width for sharded runs")
    simulate.add_argument("--mtbf-hours", type=float, default=0.0,
                          help="per-GPU MTBF for stochastic failures (0 = off)")
    simulate.add_argument("--mttr-hours", type=float, default=0.25)
    simulate.add_argument("--failure-seed", type=int, default=0)
    _add_topology_args(simulate)
    simulate.set_defaults(fn=_cmd_simulate)

    topology = sub.add_parser(
        "topology", help="compare the three fabric options at a given scale"
    )
    topology.add_argument("--gpus", type=int, default=64, help="cluster GPU count")
    topology.add_argument("--group", type=int, default=4,
                          help="direct-connect Lite-group size")
    topology.add_argument("--utilization", type=float, default=0.5,
                          help="average traffic level for the power rollup")
    topology.set_defaults(fn=_cmd_topology)

    sweep = sub.add_parser(
        "sweep",
        help="sweep a simulation grid in parallel with on-disk result caching",
    )
    _add_scenario_args(
        sweep, shape="colocated", model="Llama3-8B", gpu="H100",
        gpus_per_instance=1, max_decode_batch=64, duration=20.0, output_tokens=100,
    )
    sweep.add_argument("--rates", type=_csv_floats, default=[2.0, 4.0],
                       help="comma-separated arrival rates (req/s), one grid axis")
    sweep.add_argument("--sizes", type=_csv_ints, default=[1, 2],
                       help="comma-separated pool sizes (decode/colocated instances), "
                            "the other grid axis")
    sweep.add_argument("--context-bucket", type=int, default=1)
    sweep.add_argument("--metrics", default="exact", choices=("exact", "streaming"),
                       help="exact per-request metrics, or constant-memory sketches")
    sweep.add_argument("--backend", default="event", choices=("event", "fluid"),
                       help="simulate every point with the event engine (default) "
                            "or the fluid analytic estimate")
    _add_topology_args(sweep)
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--cache-dir", default=".repro_cache",
                       help="result-cache directory")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
    sweep.set_defaults(fn=_cmd_sweep)

    screen = sub.add_parser(
        "screen",
        help="two-tier sweep: fluid-screen the grid, event-simulate survivors",
    )
    _add_scenario_args(
        screen, shape="colocated", model="Llama3-8B", gpu="H100",
        gpus_per_instance=1, max_decode_batch=64, duration=20.0, output_tokens=100,
    )
    screen.add_argument("--rates", type=_csv_floats, default=[2.0, 4.0, 6.0],
                        help="comma-separated arrival rates (req/s), one grid axis")
    screen.add_argument("--sizes", type=_csv_ints, default=[1, 2, 4],
                        help="comma-separated pool sizes, the other grid axis")
    screen.add_argument("--margin", type=float, default=0.10,
                        help="relative safety margin widening the fluid Pareto front")
    screen.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = in-process)")
    screen.add_argument("--cache-dir", default=".repro_cache",
                        help="result-cache directory")
    screen.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    screen.set_defaults(fn=_cmd_screen)

    autoscale = sub.add_parser(
        "autoscale",
        help="compare cluster controllers on a bursty trace ($/Mtoken economics)",
    )
    autoscale.add_argument("--model", default="Llama3-8B")
    autoscale.add_argument("--prefill-gpu", default="H100")
    autoscale.add_argument("--decode-gpu", default="H100")
    autoscale.add_argument("--gpus-per-instance", type=int, default=1)
    autoscale.add_argument("--n-prefill", type=int, default=2,
                           help="peak-provisioned prefill pool size")
    autoscale.add_argument("--n-decode", type=int, default=6,
                           help="peak-provisioned decode pool size")
    autoscale.add_argument("--max-prefill-batch", type=int, default=4)
    autoscale.add_argument("--max-decode-batch", type=int, default=32)
    autoscale.add_argument("--policy", default="fcfs", choices=POLICY_BUNDLES.names())
    autoscale.add_argument("--controllers", type=lambda t: [p for p in t.split(",") if p],
                           default=["static", "reactive", "slo"],
                           help="comma-separated controller names to compare")
    autoscale.add_argument("--rates", type=_csv_floats, default=[1.0, 8.0, 1.0],
                           help="per-segment arrival rates (req/s) of the bursty trace")
    autoscale.add_argument("--segment", type=float, default=60.0,
                           help="segment duration (s)")
    autoscale.add_argument("--output-tokens", type=int, default=100)
    autoscale.add_argument("--output-spread", type=float, default=0.5)
    autoscale.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    autoscale.add_argument("--max-sim-time", type=float, default=1800.0)
    autoscale.add_argument("--epoch", type=float, default=5.0,
                           help="controller stepping period (s)")
    autoscale.add_argument("--warmup", type=float, default=15.0,
                           help="instance spawn warm-up delay (s)")
    autoscale.add_argument("--min-instances", type=int, default=1)
    autoscale.add_argument("--max-instances", type=int, default=8)
    autoscale.add_argument("--queue-high", type=float, default=2.0,
                           help="reactive scale-up threshold (queued per instance)")
    autoscale.add_argument("--slo-ttft", type=float, default=1.0,
                           help="P99 TTFT SLO (s) for the slo controller + verdict")
    autoscale.add_argument("--slo-tbt", type=float, default=0.05,
                           help="P99 TBT target (s) for the slo controller")
    autoscale.add_argument("--cap", default=None,
                           help="power_cap window as start:end:watts")
    autoscale.set_defaults(fn=_cmd_autoscale)

    chaos = sub.add_parser(
        "chaos",
        help="replay scripted failures and measure blast radius / recovery",
    )
    chaos.add_argument("--scenario", default="all",
                       choices=("all", "blast", "checkpoint", "storm"),
                       help="which canned chaos scenario(s) to run")
    chaos.add_argument("--metrics", default="exact",
                       choices=("exact", "streaming"),
                       help="exact per-request metrics, or constant-memory sketches")
    chaos.set_defaults(fn=_cmd_chaos)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_cmd.add_argument("action", choices=("stats", "clear"))
    cache_cmd.add_argument("--cache-dir", default=".repro_cache",
                           help="result-cache directory")
    cache_cmd.set_defaults(fn=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (returns an exit code)."""
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except LiteGPUError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
