"""Chaos harness: blast radius, checkpointed restarts, retry storms.

The paper's resilience argument, measured.  Three scripted-failure
scenarios from :mod:`repro.cluster.chaos`, each asserted on the claim it
exists to demonstrate:

1. **Blast radius** — one 8-GPU rack dies in a big-GPU fleet and in a
   Lite-GPU fleet of equal aggregate capacity.  The Lite fleet's
   per-failure goodput dip must be *measurably smaller* (the rack holds
   1/6 of its decode capacity instead of 2/3).
2. **Checkpointed restarts** — the same rack fault under long constant
   generations.  Checkpointing must beat restart-from-prefill on both
   goodput (tokens inside deadline) and MTTR.
3. **Retry storm** — a 15s burst at ~11x the sustainable rate.  Naive
   fixed backoff must stay metastable (SLO violations and tail latency
   never recover inside the 300s tail) while capped exponential backoff
   with jitter recovers; the no-retry baseline stays healthy.
4. **Bounded retry state** — the re-arrival heap is capped
   (``max_pending_retries``), so a streaming-metrics storm run keeps a
   flat memory profile even under the worst-case naive client.

All scenarios are deterministic (seeded traces, scripted faults), so the
numbers archived in ``BENCH_chaos.json`` reproduce bit-for-bit.
"""

from __future__ import annotations

import os
import tracemalloc
from pathlib import Path

from repro.analysis.tables import format_table
from repro.cluster.chaos import (
    blast_radius_scenario,
    checkpoint_scenario,
    retry_storm_scenario,
)
from repro.cluster.resilience import goodput_dip

from conftest import emit, record_artifact

ARTIFACT = Path(__file__).parent / "BENCH_chaos.json"


def _rows(reports) -> str:
    return format_table(
        ["run", "done", "goodput tok/s", "SVR", "miss", "timeout",
         "retries", "e2e p99 s", "MTTR s", "avail"],
        [
            [name, r.completed, f"{r.goodput_tokens_per_s:.0f}",
             f"{r.slo_violation_rate:.3f}", f"{r.deadline_miss_rate:.3f}",
             r.timed_out, r.retries, f"{r.e2e_p99:.1f}", f"{r.mttr_s:.2f}",
             f"{r.availability:.4f}"]
            for name, r in reports.items()
        ],
    )


def test_blast_radius_lite_vs_big(benchmark):
    reports = benchmark.pedantic(
        blast_radius_scenario, rounds=1, iterations=1
    )
    big = goodput_dip(reports["big/base"], reports["big/rack"])
    lite = goodput_dip(reports["lite/base"], reports["lite/rack"])
    emit(
        "Chaos: rack-failure blast radius, big vs Lite fleet",
        _rows(reports)
        + f"\ngoodput dip: big {big:.1%}, lite {lite:.1%}",
    )
    record_artifact(
        ARTIFACT,
        "blast_radius",
        {
            "big_dip": big,
            "lite_dip": lite,
            **{
                name.replace("/", "_"): {
                    "completed": r.completed,
                    "goodput_tokens_per_s": r.goodput_tokens_per_s,
                    "deadline_missed": r.deadline_missed,
                    "failure_hits": r.failure_hits,
                    "mttr_s": r.mttr_s,
                    "availability": r.availability,
                }
                for name, r in reports.items()
            },
        },
    )
    # The rack actually hurt the big fleet...
    assert big > 0.04, f"big-fleet dip {big:.1%} too small to measure"
    assert reports["big/rack"].failure_hits > 0
    assert reports["lite/rack"].failure_hits > 0
    # ...while the Lite fleet, losing 1/6 of decode instead of 2/3 at the
    # same aggregate capacity, barely notices.
    assert lite < 0.02, f"lite-fleet dip {lite:.1%} unexpectedly large"
    assert lite < big / 2, f"lite dip {lite:.1%} not < half of big {big:.1%}"


def test_checkpointed_restarts_beat_prefill_restart(benchmark):
    reports = benchmark.pedantic(checkpoint_scenario, rounds=1, iterations=1)
    plain, ckpt = reports["plain"], reports["ckpt"]
    emit(
        "Chaos: checkpointed restarts vs restart-from-prefill",
        _rows(reports)
        + f"\ngoodput {plain.goodput_tokens:,} -> {ckpt.goodput_tokens:,} "
        f"tokens, MTTR {plain.mttr_s:.2f}s -> {ckpt.mttr_s:.2f}s",
    )
    record_artifact(
        ARTIFACT,
        "checkpoint",
        {
            name: {
                "completed": r.completed,
                "goodput_tokens": r.goodput_tokens,
                "deadline_missed": r.deadline_missed,
                "restarted_requests": r.restarted_requests,
                "mttr_s": r.mttr_s,
            }
            for name, r in reports.items()
        },
    )
    # Victims existed and the fault windows were identical.
    assert plain.restarted_requests > 0 and ckpt.restarted_requests > 0
    assert plain.failure_hits == ckpt.failure_hits > 0
    # The acceptance bars: resuming from the last checkpoint turns redone
    # work into deadline-meeting completions and shortens recovery.
    assert ckpt.goodput_tokens > plain.goodput_tokens, (
        f"checkpoint goodput {ckpt.goodput_tokens} <= plain "
        f"{plain.goodput_tokens}"
    )
    assert ckpt.mttr_s < plain.mttr_s, (
        f"checkpoint MTTR {ckpt.mttr_s:.2f}s >= plain {plain.mttr_s:.2f}s"
    )


def test_retry_storm_metastable_overload(benchmark):
    reports = benchmark.pedantic(retry_storm_scenario, rounds=1, iterations=1)
    none, fixed, expj = reports["none"], reports["fixed"], reports["exp_jitter"]
    emit(
        "Chaos: retry storm, naive fixed backoff vs capped exp+jitter",
        _rows(reports),
    )
    record_artifact(
        ARTIFACT,
        "retry_storm",
        {
            name: {
                "completed": r.completed,
                "goodput_tokens_per_s": r.goodput_tokens_per_s,
                "slo_violation_rate": r.slo_violation_rate,
                "timed_out": r.timed_out,
                "retries": r.retries,
                "abandoned": r.abandoned,
                "e2e_p99_s": r.e2e_p99,
            }
            for name, r in reports.items()
        },
    )
    # No-retry baseline sheds the burst and stays healthy.
    assert none.slo_violation_rate == 0.0
    assert none.e2e_p99 < 10.0
    # Naive fixed backoff re-offers every timeout in lockstep: the queues
    # never drain inside the 300s tail — metastable overload.
    assert fixed.e2e_p99 > 80.0, f"fixed e2e p99 {fixed.e2e_p99:.0f}s recovered?"
    assert fixed.timed_out > 1.5 * expj.timed_out
    assert fixed.slo_violation_rate > 1.5 * expj.slo_violation_rate
    assert fixed.e2e_p99 > 2.0 * expj.e2e_p99
    # Capped exponential backoff with jitter spreads the re-offers, drains
    # the queue, and converts more capacity into inside-SLO completions.
    assert expj.e2e_p99 < 50.0, f"exp_jitter e2e p99 {expj.e2e_p99:.0f}s stuck"
    assert expj.goodput_tokens_per_s > fixed.goodput_tokens_per_s


def test_retry_heap_stays_bounded(benchmark):
    def run():
        tracemalloc.start()
        reports = retry_storm_scenario(metrics="streaming", only=("fixed",))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return reports["fixed"], peak

    report, peak = benchmark.pedantic(run, rounds=1, iterations=1)
    cap_mb = 512.0 if os.environ.get("CI") else 256.0
    emit(
        "Chaos: streaming storm memory (bounded retry heap)",
        f"peak traced memory {peak / 1e6:.1f} MB (cap {cap_mb:g} MB), "
        f"{report.retries} retries, {report.abandoned} abandoned",
    )
    record_artifact(
        ARTIFACT,
        "retry_memory",
        {
            "peak_bytes": peak,
            "cap_bytes": int(cap_mb * 1e6),
            "retries": report.retries,
            "abandoned": report.abandoned,
        },
    )
    # The storm really exercised the retry path...
    assert report.retries > 10_000
    # ...and the capped re-arrival heap (max_pending_retries) plus
    # streaming sketches kept the whole run's footprint flat.
    assert peak < cap_mb * 1e6, f"peak {peak / 1e6:.1f} MB >= {cap_mb:g} MB"
