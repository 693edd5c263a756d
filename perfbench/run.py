"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hotpath_split --seed 21 --seconds 20 --trace 0

``--trace 0`` times repetitions of the workload for ``--seconds`` seconds
with tracing off and reports the end-to-end metrics; host times are in
calibrated reference seconds (see ``CAL_REF_S``), with the raw median
printed beside them.  ``--trace 1`` runs the workload once untraced and
once under span tracing, checks that both produce the same simulated
results, and reports the per-layer metrics plus the tracing overhead
(``--seconds`` does not apply).  Metric names and units come from
``BENCHMARK.json``; ``perfbench/README.md`` describes the workloads.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Lower bounds on repetitions so short ``--seconds`` still give medians.
MIN_REPS = 3
MIN_SETUPS = 15

#: The calibration loop's time on the reference machine (a 2-core Xeon VM
#: at 2.1 GHz, unloaded).  Host times are reported in reference seconds:
#: each repetition's timings are scaled by ``CAL_REF_S / calib``, where
#: ``calib`` is the mean of the calibrations timed just before and just after
#: it.  On a shared machine whose speed drifts by tens of percent within a
#: minute, this keeps the code's speed apart from the machine's.
CAL_REF_S = 0.040


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibrate() -> float:
    """Best of three timings of a fixed pure-python loop.

    The loop does what the simulator does (heap pushes and pops of event
    tuples, memo lookups, small-object allocation, attribute access, float
    arithmetic, short sorts), so its time tracks the speed this process is
    getting from the machine right now.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        heap, memo, live, total = [], {}, [], 0.0
        for i in range(30_000):
            heapq.heappush(heap, ((i * 7919) % 1000 * 0.5, i, "event", (i,)))
            live.append(_Item(i, i * 0.5))
            if len(heap) > 64:
                time, _, _, payload = heapq.heappop(heap)
                value = memo.get(payload[0] % 512)
                if value is None:
                    value = memo[payload[0] % 512] = time * 1.5
                total += value + live[i % len(live)].value
            if len(live) > 256:
                live.sort(key=lambda item: item.value % 7)
                del live[:128]
        best = min(best, perf_counter() - start)
    return best


class Ledger:
    """Operations attempted and failed; a failure is an exception or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list = []
        self.failed = 0

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def attempt(self, fn, *args):
        """Call ``fn``; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - report the failure and keep measuring
            self.record([traceback.format_exc(limit=4)])
            return None


def timed(workload, seed, seconds, scratch, ledger):
    """The untraced run: end-to-end metrics from repeated set-up + run.

    A calibration precedes each repetition and follows the last; host times
    are reported in reference seconds (see ``CAL_REF_S``).
    """
    from tracing import NullTracer
    from workloads import report_digest

    tr = NullTracer()

    def repetition():
        calib = calibrate()
        start = perf_counter()
        state = workload.setup(seed, tr, scratch)
        mid = perf_counter()
        try:
            outcome = workload.run(state, tr)
            end = perf_counter()
            rerun_s, problems = workload.rerun(state, outcome, tr, scratch)
        finally:
            workload.teardown(state)
        return calib, mid - start, end - mid, rerun_s, outcome, problems

    # Untimed warm-up: the reference outcome, and process-level lazy set-up.
    first = ledger.attempt(repetition)
    if first is None:
        return None
    reference = first[4]
    want = report_digest(reference.reports)
    ledger.record(first[5] + workload.check(reference))

    reps = []
    began = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - began < seconds:
        rep = ledger.attempt(repetition)
        if rep is None:
            continue
        outcome, problems = rep[4], rep[5]
        if report_digest(outcome.reports) != want:
            problems = problems + [f"{workload.name}: a repetition's results differ"]
        ledger.record(problems)
        reps.append(rep)
    # Each repetition is scaled by the mean of the calibrations before and
    # after it (the next repetition's, or one more at the end).
    calibs = [rep[0] for rep in reps] + [calibrate()]
    setups, runs, reruns, point_times = [], [], [], []
    for i, (_, setup_s, run_s, rerun_s, outcome, _) in enumerate(reps):
        scale = 2.0 * CAL_REF_S / (calibs[i] + calibs[i + 1])
        setups.append(setup_s * scale)
        runs.append(run_s * scale)
        reruns += [t * scale for t in rerun_s]
        point_times += [t * scale for t in outcome.point_times or ()]
    raw_runs = [rep[2] for rep in reps]
    raw_reruns = [t for rep in reps for t in rep[3]]
    while len(setups) < MIN_SETUPS:
        calib = calibrate()
        start = perf_counter()
        state = workload.setup(seed, tr, scratch)
        setups.append((perf_counter() - start) * CAL_REF_S / calib)
        workload.teardown(state)

    import numpy as np

    run_s = median(runs)
    per_point = point_times or runs
    # The highest percentile up to p90 with at least ten samples beyond it:
    # p90 from 100 samples on, the median when there are fewer than 20.
    tail_q = min(90.0, max(50.0, 100.0 * (1.0 - 10.0 / len(per_point))))
    metrics = {
        "setup_s": median(setups),
        "run_s": run_s,
        "sim_req_per_s": reference.completed / run_s,
        "grid_points_per_s": (len(reference.point_times or ()) or 1) / run_s,
        "point_s_p50": median(per_point),
        "point_s_p90": float(np.percentile(per_point, tail_q)),
        "warm_rerun_s": median(reruns),
        # ru_maxrss is in KiB on Linux: the process's RSS high-water mark,
        # which the repetitions set (imports included).
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **workload.sim_stats(reference),
    }
    info = {
        "samples": (
            f"runs={len(runs)} setups={len(setups)} points={len(per_point)} "
            f"reruns={len(reruns)} point_s_p90=p{tail_q:.0f}"
        ),
        "raw_run_s": f"{median(raw_runs):.6f} (host seconds, uncalibrated)",
        "raw_warm_rerun_s": f"{median(raw_reruns):.6g} (host seconds, uncalibrated)",
        "calib_s_median": f"{median(calibs):.6f} (reference {CAL_REF_S})",
        "digest": want,
        "completed": reference.completed,
        "arrivals": sum(reference.arrivals),
    }
    return metrics, info


def layer_metrics(tracer, outcome, overhead):
    """Per-layer metrics from the spans and counters of one traced run."""
    from tracing import EVENT_KINDS

    spans = tracer.summary()
    counts = tracer.counts

    def self_s(prefix):
        """Self time of the spans named ``prefix`` or ``prefix.*``."""
        return sum(
            v["self_s"] for k, v in spans.items() if k == prefix or k.startswith(prefix + ".")
        )

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    hits = sum(p.cache_info()["hits"] for p in tracer.providers)
    misses = sum(p.cache_info()["misses"] for p in tracer.providers)
    pushes, pops = calls("engine.heap_push"), calls("engine.heap_pop")
    event_arrivals = sum(
        n for r, n in zip(outcome.reports, outcome.arrivals) if r.backend == "event"
    )
    reports = outcome.reports
    layers = {
        "traces.gen_s": self_s("traces.gen"),
        "traces.requests": counts["traces.requests"],
        "engine.heap_push": pushes,
        "engine.heap_pop": pops,
        "engine.heap_s": self_s("engine.heap_push") + self_s("engine.heap_pop"),
        "engine.heap_ops_per_req": ratio(pushes + pops, event_arrivals),
        **{f"engine.events.{k}": counts[f"engine.events.{k}"] for k in EVENT_KINDS},
        "engine.loop_self_s": self_s("engine.run"),
        "provider.calls.prefill": calls("provider.prefill"),
        "provider.calls.decode": calls("provider.decode"),
        "provider.calls.mixed": calls("provider.mixed"),
        "provider.miss": misses,
        "provider.hit_ratio": ratio(hits, hits + misses),
        "provider.s": self_s("provider"),
        "policies.route_calls": calls("policies.route"),
        "policies.batch_calls": calls("policies.batch"),
        "policies.admit_calls": calls("policies.admit"),
        "policies.admit_ratio": ratio(counts["policies.admitted"], counts["policies.offered"]),
        "policies.s": self_s("policies"),
        "streaming.record_calls": calls("streaming.record"),
        "streaming.s": self_s("streaming"),
        "streaming.centroids": outcome.centroids,
        "simulator.init_s": self_s("simulator.init"),
        "simulator.report_s": self_s("simulator.run"),
        "fluid.fit_s": self_s("fluid.fit"),
        "fluid.fit_calls": calls("fluid.fit"),
        "fluid.time_at_calls": calls("fluid.time_at"),
        "fluid.report_s": self_s("fluid.report"),
        "screening.promoted_frac": ratio(
            sum(len(s.promoted) for s in outcome.screens),
            sum(len(s.screened) for s in outcome.screens),
        ),
        "runner.jobs": calls("runner.job"),
        "runner.job_s": spans.get("runner.job", {}).get("total_s", 0.0),
        "cache.get": calls("cache.get"),
        "cache.put": calls("cache.put"),
        "cache.hit_ratio": ratio(counts["cache.hits"], calls("cache.get")),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "control.steps": calls("control.step"),
        "control.step_s": self_s("control.step"),
        "control.spawned": sum(r.spawned_instances for r in reports),
        "control.retired": sum(r.retired_instances for r in reports),
        "resilience.admit_calls": calls("resilience.admit"),
        "resilience.sweep_calls": calls("resilience.sweep_queue"),
        "resilience.s": self_s("resilience"),
        "resilience.retries": sum(r.retries for r in reports),
        "resilience.shed": sum(r.timed_out + r.load_shed + r.deadline_missed for r in reports),
        "failures.schedule_s": self_s("failures.schedule"),
        "placement.place_s": self_s("placement.place"),
        "trace.overhead": overhead,
    }
    return layers


def traced(workload, seed, scratch, out_dir, ledger):
    """The traced run: per-layer metrics, checked against an untraced twin."""
    from tracing import NullTracer, Tracer, installed
    from workloads import report_digest

    def once(tr):
        state = workload.setup(seed, tr, scratch)
        try:
            start = perf_counter()
            outcome = workload.run(state, tr)
            run_s = perf_counter() - start
            workload.rerun(state, outcome, tr, scratch)
        finally:
            workload.teardown(state)
        return outcome, run_s

    ledger.attempt(once, NullTracer())  # warm-up, as on the timed run
    plain, plain_s = once(NullTracer())
    ledger.record(workload.check(plain))
    tracer = Tracer()
    with installed(tracer):
        outcome, traced_s = once(tracer)
    same = report_digest(outcome.reports) == report_digest(plain.reports)
    ledger.record(
        workload.check(outcome)
        + ([] if same else [f"{workload.name}: tracing changed the simulated results"])
    )
    layers = layer_metrics(tracer, outcome, traced_s / plain_s)
    ledger.record(workload.purpose(layers, outcome))
    tracer.write(out_dir / f"spans-{workload.name}.npz")
    info = {
        "spans": len(tracer.start),
        "digest": report_digest(plain.reports),
        "untraced_run_s": plain_s,
        "traced_run_s": traced_s,
    }
    return layers, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_dir))
    calib_s = calibrate()
    ledger = Ledger()
    try:
        if args.trace:
            declared = spec["per_layer"]
            result = ledger.attempt(traced, workload, seed, scratch, out_dir, ledger)
        else:
            declared = spec["end_to_end"]
            result = ledger.attempt(timed, workload, seed, args.seconds, scratch, ledger)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    print(f"workload {workload.name} seed {seed} trace {args.trace}")
    print(f"calib_s {calib_s:.6f}")
    if result is not None:
        values, info = result
        mismatch = set(values) ^ {m["name"] for m in declared}
        if mismatch:
            raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
        for m in declared:
            value = float(values[m["name"]])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:28s} {value:.6g} {m['unit']}")
        for key, value in info.items():
            print(f"{key} {value}")
    print(f"failed_frac {ledger.failed / max(1, ledger.attempted):.6g} "
          f"({ledger.failed}/{ledger.attempted})")
    for problem in ledger.problems:
        print(f"problem: {problem}")
    correct = result is not None and ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
