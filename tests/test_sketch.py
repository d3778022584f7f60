"""The mergeable quantile sketch: accuracy bounds and byte-exact merge algebra.

The sketch's whole value is the pair of guarantees the module docstring
makes: every quantile estimate within relative error ``alpha`` of the
exact sample quantile, and ``merge`` associative/commutative
*byte-for-byte* after canonical serialization (so distributed shards can
fold in any order).  Both are pinned here against brute-force exact
computations on seeded workloads.
"""

import json
import random

import pytest

from repro.obs.sketch import SKETCH_FORMAT, QuantileSketch


def exact_quantile(values, q):
    """Nearest-rank-style exact quantile matching the sketch's rank rule."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    # The sketch returns the first bin whose cumulative count exceeds rank.
    index = int(rank) if rank == int(rank) else int(rank) + 1
    return ordered[min(index, len(ordered) - 1)]


def relative_error(estimate, exact):
    if exact == 0:
        return abs(estimate)
    return abs(estimate - exact) / abs(exact)


class TestQuantileAccuracy:
    @pytest.mark.parametrize("distribution", ["uniform", "lognormal", "exponential"])
    def test_within_alpha_of_exact(self, distribution):
        rng = random.Random(1234)
        draw = {
            "uniform": lambda: rng.uniform(1.0, 1000.0),
            "lognormal": lambda: rng.lognormvariate(3.0, 1.5),
            "exponential": lambda: rng.expovariate(0.01),
        }[distribution]
        values = [draw() for _ in range(5000)]
        sketch = QuantileSketch(alpha=0.05)
        for v in values:
            sketch.add(v)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            estimate = sketch.quantile(q)
            exact = exact_quantile(values, q)
            assert relative_error(estimate, exact) <= 0.05 + 1e-9, (
                f"{distribution} q={q}: {estimate} vs exact {exact}"
            )

    def test_extremes_are_exact(self):
        sketch = QuantileSketch()
        values = [3.7, 0.002, 912.5, 44.0]
        for v in values:
            sketch.add(v)
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)

    def test_zero_and_negative_values(self):
        sketch = QuantileSketch(alpha=0.05)
        values = [-100.0, -10.0, 0.0, 0.0, 10.0, 100.0]
        for v in values:
            sketch.add(v)
        assert sketch.count == 6
        assert sketch.quantile(0.0) == -100.0
        assert sketch.quantile(1.0) == 100.0
        # The median of this symmetric sample sits at the zero bucket.
        assert sketch.quantile(0.5) == 0.0

    def test_empty_sketch_returns_none(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) is None
        assert sketch.quantiles() == {"p50": None, "p90": None, "p99": None}

    def test_rejects_non_finite(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add(float("nan"))
        with pytest.raises(ValueError):
            sketch.add(float("inf"))

    def test_quantile_labels(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        assert set(sketch.quantiles((0.5, 0.999))) == {"p50", "p99_9"}


class TestCollapse:
    def test_cap_holds_and_counts_are_preserved(self):
        sketch = QuantileSketch(alpha=0.05, max_bins=16)
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 4.0) for _ in range(2000)]
        for v in values:
            sketch.add(v)
        assert len(sketch.bins) <= 16
        assert sketch.count == len(values)
        assert sum(sketch.bins.values()) == len(values)

    def test_tail_quantiles_survive_collapse(self):
        # Collapse folds only the *lowest* bins, so quantiles whose rank
        # lies above the collapsed mass keep the full alpha guarantee.
        sketch = QuantileSketch(alpha=0.05, max_bins=64)
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(2000)]
        for v in values:
            sketch.add(v)
        assert len(sketch.bins) <= 64  # the cap actually engaged
        # Mass at/below the collapse boundary (the lowest surviving bin's
        # upper edge) is where accuracy degrades; both tested ranks sit
        # clearly above it.
        boundary = sketch.gamma ** min(sketch.bins)
        collapsed_fraction = sum(v <= boundary for v in values) / len(values)
        for q in (0.9, 0.99):
            assert q > collapsed_fraction
            estimate = sketch.quantile(q)
            exact = exact_quantile(values, q)
            assert relative_error(estimate, exact) <= 0.05 + 1e-9


class TestMergeAlgebra:
    def _sketch_of(self, values, **kwargs):
        sketch = QuantileSketch(**kwargs)
        for v in values:
            sketch.add(v)
        return sketch

    def _shards(self, seed=99, n=3, size=400, **kwargs):
        rng = random.Random(seed)
        return [
            self._sketch_of([rng.lognormvariate(2.0, 1.0) for _ in range(size)], **kwargs)
            for _ in range(n)
        ]

    def test_merge_equals_single_stream(self):
        rng = random.Random(5)
        values = [rng.uniform(0.5, 500.0) for _ in range(1200)]
        whole = self._sketch_of(values)
        parts = self._sketch_of(values[:400]).merge(
            self._sketch_of(values[400:800])
        ).merge(self._sketch_of(values[800:]))
        assert parts.to_json() == whole.to_json()

    def test_merge_commutative_byte_for_byte(self):
        a, b, _ = self._shards()
        ab = self._copy(a).merge(self._copy(b))
        ba = self._copy(b).merge(self._copy(a))
        assert ab.to_json() == ba.to_json()

    def test_merge_commutative_under_collapse(self):
        a, b, _ = self._shards(size=800, max_bins=8)
        ab = self._copy(a).merge(self._copy(b))
        ba = self._copy(b).merge(self._copy(a))
        assert ab.to_json() == ba.to_json()

    def test_merge_associative_byte_for_byte(self):
        a, b, c = self._shards()
        left = self._copy(a).merge(self._copy(b)).merge(self._copy(c))
        right = self._copy(a).merge(self._copy(b).merge(self._copy(c)))
        assert left.to_json() == right.to_json()

    def test_merge_refuses_mismatched_parameters(self):
        with pytest.raises(ValueError, match="different parameters"):
            QuantileSketch(alpha=0.05).merge(QuantileSketch(alpha=0.01))
        with pytest.raises(ValueError, match="different parameters"):
            QuantileSketch(max_bins=256).merge(QuantileSketch(max_bins=64))

    def test_merge_with_empty_is_identity(self):
        a, _, _ = self._shards()
        before = a.to_json()
        assert a.merge(QuantileSketch(alpha=a.alpha, max_bins=a.max_bins)).to_json() == before

    @staticmethod
    def _copy(sketch):
        return QuantileSketch.from_dict(sketch.to_dict())


class TestSerialization:
    def test_round_trip_is_byte_identical(self):
        rng = random.Random(11)
        sketch = QuantileSketch()
        for _ in range(500):
            sketch.add(rng.expovariate(0.1) - 5.0)  # mixes signs and zeros of bins
        restored = QuantileSketch.from_dict(sketch.to_dict())
        assert restored.to_json() == sketch.to_json()
        assert restored.quantile(0.5) == sketch.quantile(0.5)

    def test_canonical_json_is_stable_and_compact(self):
        sketch = QuantileSketch()
        sketch.add(2.0)
        text = sketch.to_json()
        assert " " not in text
        assert json.loads(text)["format"] == SKETCH_FORMAT
        # Survives a JSON round trip (what the telemetry envelope does).
        assert (
            QuantileSketch.from_dict(json.loads(text)).to_json() == text
        )

    def test_from_dict_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            QuantileSketch.from_dict({"format": 99})

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(alpha=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(max_bins=1)
        with pytest.raises(ValueError):
            QuantileSketch().add(1.0, count=0)

