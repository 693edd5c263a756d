"""Property tests for the constant-memory streaming metrics.

The acceptance bar for ``metrics="streaming"``: sketch p50/p99 within 1%
relative error of the exact percentiles on 10k+ samples, merges that are
deterministic and associative (counters bit-exact), and bounded state no
matter how long the stream runs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.streaming import QuantileSketch, ReservoirSampler, StreamingMetrics
from repro.errors import SpecError


def _rel_err(estimate: float, truth: float) -> float:
    return abs(estimate - truth) / max(abs(truth), 1e-12)


def _exact(values: np.ndarray, q: float) -> float:
    """The exact quantile under the sketch's own definition.

    ``QuantileSketch.quantile`` interpolates between centroid midpoint
    ranks, which on singleton centroids is the midpoint (Hazen, type-5)
    quantile.  numpy's default linear (type-7) definition differs from it
    by up to half the gap between adjacent order statistics, which near
    p99 of a heavy tail alone can exceed 1%.
    """
    return float(np.quantile(values, q, method="hazen"))


def _latency_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """Lognormal with a heavy tail — the shape simulator latencies take."""
    return rng.lognormal(mean=-2.0, sigma=0.8, size=n)


class TestQuantileSketchAccuracy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_p50_p99_within_one_percent_at_10k(self, seed):
        rng = np.random.default_rng(seed)
        values = _latency_like(rng, 20_000)
        sketch = QuantileSketch()
        sketch.extend(values)
        for q in (0.5, 0.99):
            exact = _exact(values, q)
            assert _rel_err(sketch.quantile(q), exact) <= 0.01, f"q={q} seed={seed}"

    @given(seed=st.integers(0, 200), n=st.integers(10_000, 40_000))
    @settings(max_examples=10, deadline=None)
    @example(seed=83, n=20225)  # p99 off the linear quantile by 1.016%
    def test_accuracy_property(self, seed, n):
        rng = np.random.default_rng(seed)
        values = _latency_like(rng, n)
        sketch = QuantileSketch()
        sketch.extend(values)
        assert _rel_err(sketch.quantile(0.5), _exact(values, 0.5)) <= 0.01
        assert _rel_err(sketch.quantile(0.99), _exact(values, 0.99)) <= 0.01

    def test_extremes_and_mean_are_exact(self):
        rng = np.random.default_rng(7)
        values = _latency_like(rng, 5_000)
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.quantile(0.0) == float(values.min())
        assert sketch.quantile(1.0) == float(values.max())
        assert sketch.mean == pytest.approx(float(values.mean()), rel=1e-12)

    def test_memory_stays_bounded(self):
        sketch = QuantileSketch(compression=100)
        rng = np.random.default_rng(0)
        for chunk in range(20):
            sketch.extend(_latency_like(rng, 10_000))
            # Centroid count must not grow with the stream: the t-digest
            # size bound is a small multiple of the compression parameter.
            assert sketch.centroid_count() <= 4 * 100
        assert sketch.count == 200_000

    def test_empty_and_validation(self):
        sketch = QuantileSketch()
        assert np.isnan(sketch.quantile(0.5))
        assert np.isnan(sketch.mean)
        with pytest.raises(SpecError):
            sketch.quantile(1.5)
        with pytest.raises(SpecError):
            QuantileSketch(compression=5)


class TestSketchMerge:
    def test_merge_is_deterministic(self):
        rng = np.random.default_rng(3)
        parts_values = [_latency_like(rng, 5_000) for _ in range(4)]

        def build():
            out = QuantileSketch()
            for values in parts_values:
                part = QuantileSketch()
                part.extend(values)
                out.merge(part)
            return out

        a, b = build(), build()
        assert a.count == b.count
        assert a.quantiles((0.5, 0.9, 0.99)) == b.quantiles((0.5, 0.9, 0.99))

    @given(seed=st.integers(0, 100), shards=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    @example(seed=13, shards=2)  # singleton centroids at p99: Hazen value exactly
    def test_sharded_merge_matches_single_sketch(self, seed, shards):
        rng = np.random.default_rng(seed)
        values = _latency_like(rng, 4_000 * shards)
        whole = QuantileSketch()
        whole.extend(values)
        merged = QuantileSketch()
        for chunk in np.array_split(values, shards):
            part = QuantileSketch()
            part.extend(chunk)
            merged.merge(part)
        # Counters bit-exact; quantiles agree within the rank-error bound.
        assert merged.count == whole.count == len(values)
        assert merged.mean == pytest.approx(whole.mean, rel=1e-9)
        for q in (0.5, 0.99):
            exact = _exact(values, q)
            assert _rel_err(merged.quantile(q), exact) <= 0.01
            assert _rel_err(merged.quantile(q), whole.quantile(q)) <= 0.02

    def test_merge_order_insensitive_within_tolerance(self):
        rng = np.random.default_rng(11)
        chunks = [_latency_like(rng, 3_000) for _ in range(3)]

        def merged(order):
            out = QuantileSketch()
            for i in order:
                part = QuantileSketch()
                part.extend(chunks[i])
                out.merge(part)
            return out

        forward = merged([0, 1, 2])
        backward = merged([2, 1, 0])
        assert forward.count == backward.count
        for q in (0.5, 0.99):
            assert _rel_err(forward.quantile(q), backward.quantile(q)) <= 0.02

    def test_merge_rejects_other_types(self):
        with pytest.raises(SpecError):
            QuantileSketch().merge(object())

    def test_pickle_round_trip(self):
        sketch = QuantileSketch()
        sketch.extend(np.random.default_rng(0).exponential(size=3_000))
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.count == sketch.count
        assert clone.quantile(0.99) == sketch.quantile(0.99)


class TestReservoirSampler:
    def test_uniformity_and_determinism(self):
        a = ReservoirSampler(capacity=256, seed=9)
        b = ReservoirSampler(capacity=256, seed=9)
        values = np.arange(10_000, dtype=float)
        for v in values:
            a.add(v)
            b.add(v)
        assert a.sample == b.sample
        assert a.seen == 10_000 and len(a.sample) == 256
        # A uniform sample's median tracks the stream median loosely.
        assert abs(a.percentile(0.5) - 5_000) < 1_500

    def test_merge_tracks_combined_stream(self):
        left = ReservoirSampler(capacity=512, seed=1)
        right = ReservoirSampler(capacity=512, seed=2)
        for v in range(5_000):
            left.add(float(v))
        for v in range(5_000, 10_000):
            right.add(float(v))
        left.merge(right)
        assert left.seen == 10_000
        assert len(left.sample) == 512
        assert 2_000 < left.percentile(0.5) < 8_000

    def test_validation(self):
        with pytest.raises(SpecError):
            ReservoirSampler(capacity=0)
        with pytest.raises(SpecError):
            ReservoirSampler().merge(3)


class TestStreamingMetrics:
    def test_record_and_merge_counters_bit_exact(self):
        rng = np.random.default_rng(4)
        parts = []
        total_completed = 0
        total_tokens = 0
        for _ in range(3):
            m = StreamingMetrics()
            for _ in range(1_000):
                tokens = int(rng.integers(1, 200))
                m.record(
                    ttft=float(rng.exponential(0.1)),
                    mean_tbt=float(rng.exponential(0.01)),
                    e2e=float(rng.exponential(2.0)),
                    output_tokens=tokens,
                )
                total_completed += 1
                total_tokens += tokens
            parts.append(m)
        merged = StreamingMetrics.merged(parts)
        assert merged.completed == total_completed
        assert merged.output_tokens == total_tokens
        # Inputs untouched by the static merge.
        assert parts[0].completed == 1_000

    def test_merged_rejects_empty(self):
        with pytest.raises(SpecError):
            StreamingMetrics.merged([])

    def test_pickle_round_trip(self):
        m = StreamingMetrics()
        for i in range(2_000):
            m.record(ttft=0.01 * (i % 37), mean_tbt=0.001, e2e=0.5, output_tokens=10)
        clone = pickle.loads(pickle.dumps(m))
        assert clone.completed == m.completed
        assert clone.ttft.quantile(0.99) == m.ttft.quantile(0.99)
