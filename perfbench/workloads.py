"""The benchmark's four workloads: inputs from a seed, set-up, run, checks.

Each workload is one closed-loop caller: a repetition starts after the
previous one ends.  Inside each simulation, arrivals are open-loop Poisson
at the stated rate.  Everything runs in this process (no worker pools).

A workload splits one repetition into :meth:`setup` (trace materialization,
simulator / provider / placement / failure-schedule construction, cache-dir
creation) and :meth:`run` (the simulation itself), so the driver can time
the two apart.  The tracer argument is a :class:`tracing.NullTracer` on
timed runs and a :class:`tracing.Tracer` on the traced run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.analysis.screening import screen_then_simulate
from repro.cluster import chaos
from repro.cluster.control import ReactiveController
from repro.cluster.failures import ComponentFailure
from repro.cluster.resilience import ResilienceConfig
from repro.cluster.scheduler import ColocatedPool, InstanceSpec, PhasePools
from repro.cluster.simulator import ColocatedSimulator, ServingSimulator, SimConfig, SimReport
from repro.exec.cache import ResultCache
from repro.exec.runner import Job, run_many
from repro.exec.seeding import derive_seed
from repro.hardware.gpu import H100, LITE
from repro.workloads.models import LLAMA3_8B
from repro.workloads.traces import (
    TraceConfig,
    generate_piecewise_trace,
    generate_trace,
    iter_trace,
)

import tracing

#: Warm-cache rereads of a single-point workload: timed calls per
#: repetition, and rereads per call.
RERUN_REPEATS = 4
RERUN_BATCH = 200


def report_digest(reports) -> str:
    """Exact fingerprint of simulated results (NaN-safe, unlike ``==``).

    JSON text, so a numpy scalar and the float a cache decodes it to agree.
    """
    text = json.dumps([dataclasses.astuple(r) for r in reports], default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(value):
    return value.item()


def check_report(report: SimReport, arrivals: int, label: str) -> List[str]:
    """Accounting and NaN checks every simulated report must pass."""
    problems = []
    if report.completed + report.dropped != arrivals:
        problems.append(
            f"{label}: completed {report.completed} + dropped {report.dropped} "
            f"!= arrivals {arrivals}"
        )
    latencies = (report.ttft_p50, report.ttft_p99, report.tbt_mean, report.tbt_p99,
                 report.e2e_p50, report.e2e_p99)
    if any(math.isnan(x) for x in latencies) != (report.completed == 0):
        problems.append(f"{label}: latencies are NaN iff completed == 0 does not hold")
    return problems


@dataclasses.dataclass
class Outcome:
    """What one repetition produced, for checks, digests and metrics."""

    reports: List[SimReport]
    arrivals: List[int]
    #: Host seconds per screened design point (``None``: one point per run).
    point_times: Optional[List[float]] = None
    screens: list = dataclasses.field(default_factory=list)
    centroids: int = 0

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.reports)


class Workload:
    """Interface the driver measures; see the module docstring."""

    name = ""
    default_seed = 0
    #: Whether the workload sets deadlines/SLOs, so goodput differs from output.
    resilient = False

    def setup(self, seed: int, tr, scratch: Path):
        raise NotImplementedError

    def run(self, state, tr) -> Outcome:
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def check(self, outcome: Outcome) -> List[str]:
        problems = []
        for i, (report, arrivals) in enumerate(zip(outcome.reports, outcome.arrivals)):
            problems += check_report(report, arrivals, f"{self.name}[{i}]")
        return problems

    def sim_stats(self, outcome: Outcome) -> Dict[str, float]:
        """Deterministic simulated statistics (the ``sim_*`` metrics)."""
        (report,) = outcome.reports
        goodput = report.goodput_tokens_per_s if self.resilient else report.output_tokens_per_s
        return {
            "sim_ttft_p99_s": report.ttft_p99,
            "sim_out_tok_s": report.output_tokens_per_s,
            "sim_goodput_tok_s": goodput,
        }

    def rerun(self, state, outcome: Outcome, tr, scratch: Path):
        """Host seconds to serve the same run again from a warm ResultCache.

        Each of ``RERUN_REPEATS`` timed ``run_many`` calls rereads the cached
        report ``RERUN_BATCH`` times; returns ``(seconds per reread, one per
        call, problems)``.
        """
        root = tempfile.mkdtemp(dir=scratch)
        try:
            cache = ResultCache(root)
            key = cache.key("perfbench", self.name, state.seed)
            cache.put(key, outcome.reports[0])
            jobs = [Job(fn=_must_be_cached, key=key)] * RERUN_BATCH
            want = report_digest(outcome.reports)
            seconds, problems = [], []
            for _ in range(RERUN_REPEATS):
                start = perf_counter()
                got = run_many(jobs, cache=cache)
                seconds.append((perf_counter() - start) / RERUN_BATCH)
                if not all(o.cached and report_digest([o.value]) == want for o in got):
                    problems.append(f"{self.name}: the warm rerun missed the cached report")
            return seconds, problems
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def purpose(self, layers: Dict[str, float], outcome: Outcome) -> List[str]:
        """Does the traced run still exercise the layers this workload is for?"""
        return []


def _must_be_cached():
    raise RuntimeError("the warm rerun missed the result cache")


class _SinglePoint(Workload):
    """A workload that simulates one deployment on one trace per repetition."""

    def build(self, seed: int, tr):
        """Return ``(simulator, trace, number of requests in the trace)``."""
        raise NotImplementedError

    def setup(self, seed, tr, scratch):
        sim, trace, arrivals = self.build(seed, tr)
        for attr in ("prefill_provider", "decode_provider", "provider"):
            if hasattr(sim, attr):
                setattr(sim, attr, tr.provider(getattr(sim, attr)))
        return SimpleNamespace(seed=seed, sim=sim, trace=trace, arrivals=arrivals)

    def run(self, state, tr):
        with tr.span("simulator.run"):
            report = state.sim.run(state.trace)
        metrics = state.sim.last_metrics
        centroids = 0 if metrics is None else sum(
            s.centroid_count() for s in (metrics.ttft, metrics.tbt, metrics.e2e)
        )
        return Outcome([report], [state.arrivals], centroids=centroids)


# --- hotpath_split -----------------------------------------------------------

HOTPATH_POOLS = PhasePools(
    prefill=InstanceSpec(LLAMA3_8B, H100, 1),
    n_prefill=2,
    decode=InstanceSpec(LLAMA3_8B, H100, 1),
    n_decode=2,
    max_prefill_batch=4,
    max_decode_batch=128,
)
HOTPATH_TRACE = TraceConfig(rate=3.0, duration=600.0, output_tokens=150, output_spread=0.5)


class HotpathSplit(_SinglePoint):
    """The 10-minute phase-split hot-path trace: decode iterations dominate."""

    name = "hotpath_split"
    default_seed = 21

    def build(self, seed, tr):
        with tr.span("traces.gen"):
            trace = generate_trace(HOTPATH_TRACE, seed=seed)
        tr.count("traces.requests", len(trace))
        with tr.span("simulator.init"):
            sim = ServingSimulator(
                HOTPATH_POOLS, SimConfig(max_sim_time=1800.0), policies=tr.policies("fcfs")
            )
        return sim, trace, len(trace)

    def check(self, outcome):
        problems = super().check(outcome)
        (report,) = outcome.reports
        if report.completed != outcome.arrivals[0]:
            problems.append(f"{self.name}: {report.dropped} requests did not complete")
        return problems

    def purpose(self, layers, outcome):
        pops = layers["engine.heap_pop"]
        decode = layers["engine.events.decode_iter"] + layers["engine.events.decode_admit"]
        if pops == 0 or decode / pops < 0.9:
            return [f"{self.name}: decode_iter/decode_admit are {decode}/{pops} events (< 90%)"]
        return []


# --- scale_colocated ---------------------------------------------------------

SCALE_POOL = ColocatedPool(
    instance=InstanceSpec(LLAMA3_8B, H100, 1), n_instances=8, max_decode_batch=256
)
SCALE_TRACE = TraceConfig(rate=400.0, duration=62.5, output_tokens=32, output_spread=0.3)
SCALE_WINDOW = 5.0


class ScaleColocated(_SinglePoint):
    """25k requests through a full colocated pool, lazily generated, sketched."""

    name = "scale_colocated"
    default_seed = 1

    def __init__(self) -> None:
        self._arrivals: Dict[int, int] = {}

    def build(self, seed, tr):
        with tr.span("simulator.init"):
            sim = ColocatedSimulator(
                SCALE_POOL, SimConfig(metrics="streaming"), policies=tr.policies("fcfs")
            )
        if seed not in self._arrivals:
            # Counted once, outside any timing, to check the accounting.
            self._arrivals[seed] = sum(1 for _ in iter_trace(SCALE_TRACE, seed, SCALE_WINDOW))
        trace = tr.trace_iter(iter_trace(SCALE_TRACE, seed=seed, window=SCALE_WINDOW))
        return sim, trace, self._arrivals[seed]

    def purpose(self, layers, outcome):
        if layers["streaming.record_calls"] != outcome.completed:
            return [
                f"{self.name}: {layers['streaming.record_calls']} sketch records for "
                f"{outcome.completed} completions"
            ]
        return []


# --- chaos_lite ----------------------------------------------------------------

CHAOS_SEGMENTS = ((150.0, 10.0), (700.0, 5.0), (150.0, 15.0))
CHAOS_SHAPE = TraceConfig(prompt_tokens=1024, output_tokens=100, max_output=1200)
CHAOS_RESILIENCE = ResilienceConfig(
    deadline_s=30.0,
    queue_timeout_s=2.0,
    retry="exp_jitter",
    max_pending_retries=32,
    checkpoint_interval=128,
    slo_ttft_s=4.0,
)
CHAOS_RACK_FAIL_AT = 12.0
CHAOS_RACK_REPAIR_S = 30.0


class ChaosLite(_SinglePoint):
    """The Lite fleet on its fabric: burst, rack failure, autoscaler, retries."""

    name = "chaos_lite"
    default_seed = 7
    resilient = True

    def build(self, seed, tr):
        with tr.span("traces.gen"):
            trace = generate_piecewise_trace(CHAOS_SEGMENTS, base=CHAOS_SHAPE, seed=seed)
        tr.count("traces.requests", len(trace))
        with tr.span("simulator.init"):
            pools, topology, rack = chaos.lite_fleet()
            controller = ReactiveController(
                pools=("decode",), epoch=5.0, min_instances=4, max_instances=16
            )
            sim = ServingSimulator(
                pools,
                SimConfig(resilience=CHAOS_RESILIENCE),
                topology=topology,
                network_model="fabric",
                component_failures=[
                    ComponentFailure(CHAOS_RACK_FAIL_AT, "rack", rack, CHAOS_RACK_REPAIR_S)
                ],
                controller=tr.controller(controller),
                policies=tr.policies("round-robin"),
            )
        return sim, trace, len(trace)

    def purpose(self, layers, outcome):
        (report,) = outcome.reports
        problems = []
        if layers["control.steps"] <= 0:
            problems.append(f"{self.name}: the controller never stepped")
        if report.failure_hits <= 0:
            problems.append(f"{self.name}: the rack failure hit no request")
        if report.retries <= 0:
            problems.append(f"{self.name}: no client retried")
        return problems


# --- screen_grid ---------------------------------------------------------------

GRID_GPUS = {"H100": (H100, 1), "Lite": (LITE, 4)}
GRID_SIZES = (1, 2, 3, 4, 6)
GRID_RATES = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
GRID_POINTS = [
    {"gpu": gpu, "size": size, "rate": rate}
    for gpu in GRID_GPUS for size in GRID_SIZES for rate in GRID_RATES
]
#: Grids screened per repetition, each with its own seed derived from
#: ``--seed``: which points a grid promotes varies with its traces, and
#: several grids per repetition keep that from dominating the timing.
GRID_COUNT = 4
GRID_TRACE_S = 10.0
GRID_OUTPUT_TOKENS = 40
GRID_DECODE_BATCH = 8
GRID_MARGIN = 0.05
#: Warm screens of the same grids per repetition.
WARM_PASSES = 6


def _grid_cost(record):
    return record["result"].usd_per_mtoken


def _grid_quality(record):
    return record["result"].output_tokens_per_s


class _GridPoint:
    """Evaluates grid points for one repetition; keeps per-point timings.

    Passed to the screen as a bound method, whose cache identity is its
    code, not this object's state, so cold and warm passes share keys.
    The traces, one per grid and rate, are materialized at set-up and shared
    by every point that offers that rate.
    """

    def __init__(self, tr, grid_seeds) -> None:
        self.tr = tr
        self.fluid_times: List[float] = []
        self.traces = {}
        with tr.span("traces.gen"):
            for seed in grid_seeds:
                for rate in GRID_RATES:
                    self.traces[(seed, rate)] = generate_trace(
                        TraceConfig(
                            rate=rate, duration=GRID_TRACE_S,
                            output_tokens=GRID_OUTPUT_TOKENS, output_spread=0.5,
                        ),
                        seed=derive_seed(seed, "rate", rate),
                    )
        tr.count("traces.requests", sum(map(len, self.traces.values())))

    def evaluate(self, backend: str, gpu: str, size: int, rate: float, seed: int):
        start = perf_counter()
        tr = self.tr
        device, tp = GRID_GPUS[gpu]
        spec = InstanceSpec(LLAMA3_8B, device, tp)
        pools = PhasePools(
            prefill=spec, n_prefill=2, decode=spec, n_decode=size,
            max_prefill_batch=4, max_decode_batch=GRID_DECODE_BATCH,
        )
        with tr.span("simulator.init"):
            sim = ServingSimulator(pools, SimConfig(backend=backend), policies=tr.policies("fcfs"))
        sim.prefill_provider = tr.provider(sim.prefill_provider)
        sim.decode_provider = tr.provider(sim.decode_provider)
        with tr.span("simulator.run"):
            report = sim.run(self.traces[(seed, rate)])
        if backend == "fluid":
            self.fluid_times.append(perf_counter() - start)
        return report


class ScreenGrid(Workload):
    """Two-tier screening of a Lite-vs-H100 capacity grid, cold then warm."""

    name = "screen_grid"
    default_seed = 11

    def setup(self, seed, tr, scratch):
        root = tempfile.mkdtemp(dir=scratch)
        grid_seeds = [derive_seed(seed, "grid", k) for k in range(GRID_COUNT)]
        return SimpleNamespace(
            seed=seed,
            root=root,
            cache=ResultCache(root),
            grid_seeds=grid_seeds,
            point=_GridPoint(tr, grid_seeds),
        )

    def _screen(self, state, grid_seed):
        return screen_then_simulate(
            functools.partial(state.point.evaluate, seed=grid_seed),
            GRID_POINTS,
            cost=_grid_cost,
            quality=_grid_quality,
            margin=GRID_MARGIN,
            cache=state.cache,
        )

    def _outcome(self, state, screens) -> Outcome:
        reports, arrivals = [], []
        for grid_seed, screen in zip(state.grid_seeds, screens):
            for record in screen.screened + screen.promoted:
                if "result" in record:
                    reports.append(record["result"])
                    arrivals.append(len(state.point.traces[(grid_seed, record["rate"])]))
        return Outcome(reports, arrivals, point_times=state.point.fluid_times, screens=screens)

    def run(self, state, tr):
        with tr.span("screening.screen"):
            screens = [self._screen(state, s) for s in state.grid_seeds]
        return self._outcome(state, screens)

    def teardown(self, state):
        shutil.rmtree(state.root, ignore_errors=True)

    def check(self, outcome):
        problems = super().check(outcome)
        for k, screen in enumerate(outcome.screens):
            errored = [r for r in screen.screened + screen.promoted if "error" in r]
            if errored:
                problems.append(f"{self.name}[grid {k}]: {len(errored)} points errored")
            if any(r["result"].backend != "fluid" for r in screen.screened if "result" in r):
                problems.append(f"{self.name}[grid {k}]: a screened point is not fluid-backed")
            if any(r["result"].backend != "event" for r in screen.promoted if "result" in r):
                problems.append(f"{self.name}[grid {k}]: a promoted point is not event-backed")
            if not any(screen.best is r for r in screen.promoted):
                problems.append(f"{self.name}[grid {k}]: the verdict is not a promoted point")
        return problems

    def sim_stats(self, outcome):
        """Means over every screened (fluid) point of every grid."""
        screened = [r["result"] for s in outcome.screens for r in s.screened if "result" in r]
        n = len(screened)
        tokens = math.fsum(r.output_tokens_per_s for r in screened) / n
        return {
            "sim_ttft_p99_s": math.fsum(r.ttft_p99 for r in screened) / n,
            "sim_out_tok_s": tokens,
            "sim_goodput_tok_s": tokens,
        }

    def rerun(self, state, outcome, tr, scratch):
        seconds, problems = [], []
        want = report_digest(outcome.reports)
        for _ in range(WARM_PASSES):
            start = perf_counter()
            with tr.span("screening.screen"):
                screens = [self._screen(state, s) for s in state.grid_seeds]
            seconds.append(perf_counter() - start)
            if report_digest(self._outcome(state, screens).reports) != want:
                problems.append(f"{self.name}: the warm rerun differs from the cold pass")
        return seconds, problems

    def purpose(self, layers, outcome):
        # The event engine should run only the promoted points: compare its
        # heap traffic with one hot-path run, counted here without spans.
        hotpath = HotpathSplit()
        with tracing.counting_pops() as counter:
            hotpath.run(hotpath.setup(hotpath.default_seed, tracing.NullTracer(), None),
                        tracing.NullTracer())
        if layers["engine.heap_pop"] > 0.25 * counter.pops:
            return [
                f"{self.name}: {layers['engine.heap_pop']} heap pops, more than a quarter "
                f"of one {hotpath.name} run's {counter.pops}"
            ]
        return []


WORKLOADS = {w.name: w for w in (HotpathSplit(), ScaleColocated(), ScreenGrid(), ChaosLite())}
