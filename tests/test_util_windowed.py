"""Tests for windowed statistics (EWMA, min/max filters, sliding windows)."""

import pytest
from hypothesis import given, strategies as st

from repro.util.windowed import EWMA, MaxFilter, MinFilter, SlidingWindow


class TestEwma:
    def test_first_sample_sets_value(self):
        e = EWMA(0.5)
        assert e.value is None
        assert e.update(10.0) == 10.0

    def test_smoothing(self):
        e = EWMA(0.5)
        e.update(10.0)
        assert e.update(20.0) == pytest.approx(15.0)

    def test_reset(self):
        e = EWMA(0.2)
        e.update(1.0)
        e.reset()
        assert e.value is None

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EWMA(0.0)
        with pytest.raises(ValueError):
            EWMA(1.5)


class TestMinMaxFilters:
    def test_min_filter_tracks_minimum(self):
        f = MinFilter(window=1.0)
        assert f.update(0.0, 5.0) == 5.0
        assert f.update(0.1, 3.0) == 3.0
        assert f.update(0.2, 4.0) == 3.0

    def test_min_filter_expires_old_samples(self):
        f = MinFilter(window=1.0)
        f.update(0.0, 1.0)
        f.update(0.9, 5.0)
        # At t=1.6 the 1.0 sample (t=0.0) has aged out but the 5.0 has not.
        assert f.update(1.6, 7.0) == 5.0

    def test_max_filter(self):
        f = MaxFilter(window=1.0)
        f.update(0.0, 5.0)
        assert f.update(0.1, 3.0) == 5.0
        assert f.current() == 5.0

    def test_current_returns_none_when_empty(self):
        assert MinFilter(1.0).current() is None
        assert MaxFilter(1.0).current() is None

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=0.9),
                              st.floats(min_value=-1e6, max_value=1e6)), min_size=1, max_size=50))
    def test_min_filter_matches_bruteforce_within_window(self, samples):
        # All samples within the window: filter minimum equals true minimum.
        samples = sorted(samples, key=lambda s: s[0])
        f = MinFilter(window=10.0)
        result = None
        for t, v in samples:
            result = f.update(t, v)
        assert result == pytest.approx(min(v for _, v in samples))


class TestSlidingWindow:
    def test_mean_and_extremes(self):
        w = SlidingWindow(window=1.0)
        w.add(0.0, 1.0)
        w.add(0.5, 3.0)
        assert w.mean() == pytest.approx(2.0)
        assert w.min() == 1.0
        assert w.max() == 3.0
        assert w.sum() == pytest.approx(4.0)

    def test_eviction(self):
        w = SlidingWindow(window=1.0)
        w.add(0.0, 1.0)
        w.add(2.0, 3.0)
        assert w.values() == (3.0,)

    def test_explicit_evict(self):
        w = SlidingWindow(window=1.0)
        w.add(0.0, 1.0)
        w.evict(5.0)
        assert w.mean() is None

    def test_set_window(self):
        w = SlidingWindow(window=10.0)
        w.add(0.0, 1.0)
        w.add(5.0, 2.0)
        w.set_window(1.0)
        w.evict(5.0)
        assert w.values() == (2.0,)

    def test_empty_stats_are_none(self):
        w = SlidingWindow(window=1.0)
        assert w.mean() is None and w.min() is None and w.max() is None
