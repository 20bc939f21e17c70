"""Tests for the benchmark metrics module."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.metrics import (
    LatencySummary,
    count_above,
    nearest_rank,
    percentile,
    throughput,
)


class TestLatencySummary:
    def test_empty(self):
        s = LatencySummary.from_samples([])
        assert s.count == 0
        assert s.mean == 0.0

    def test_single_sample(self):
        s = LatencySummary.from_samples([0.5])
        assert s.count == 1
        assert s.mean == s.minimum == s.maximum == s.p50 == s.p9999 == 0.5

    def test_known_values(self):
        samples = [float(i) for i in range(1, 101)]
        s = LatencySummary.from_samples(samples)
        assert s.count == 100
        assert s.mean == pytest.approx(50.5)
        assert s.minimum == 1.0
        assert s.maximum == 100.0
        assert s.p50 == 51.0
        assert s.p99 == 100.0

    def test_percentiles_monotone(self):
        samples = [0.1 * i for i in range(1000, 0, -1)]
        s = LatencySummary.from_samples(samples)
        assert s.p50 <= s.p99 <= s.p999 <= s.p9999 <= s.maximum

    def test_ms_conversion(self):
        s = LatencySummary.from_samples([0.5])
        assert s.ms("mean") == 500.0

    @given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=500))
    def test_invariants(self, samples):
        s = LatencySummary.from_samples(samples)
        ulp = 1e-9  # float-summation rounding tolerance
        assert s.minimum * (1 - ulp) <= s.mean <= s.maximum * (1 + ulp)
        assert s.minimum <= s.p50 <= s.p99 <= s.maximum
        assert s.count == len(samples)


class TestPercentile:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_q0_is_min_q1_is_max(self):
        ordered = [1.0, 2.0, 3.0]
        assert percentile(ordered, 0.0) == 1.0
        assert percentile(ordered, 1.0) == 3.0


class TestHelpers:
    def test_count_above(self):
        assert count_above([0.01, 0.06, 0.2], 0.05) == 2

    def test_throughput(self):
        assert throughput(100, 2.0) == 50.0
        assert throughput(100, 0.0) == 0.0


class TestNearestRank:
    """The nearest-rank percentile the chaos and stability benches share.

    The expected values are what each bench's own percentile function
    (5 digits in the chaos bench, 6 in the stability bench) returned on
    these fixed samples before the two were folded into one helper.
    """

    SKEWED = [0.0123456789, 0.5, 0.00033333333, 1.23456789, 0.987654321,
              0.1111111111, 0.044444444]
    RAMP = [i * 0.0013717421 for i in range(1, 1001)]
    FRACTIONS = (0.0, 0.5, 0.99, 0.999, 1.0)

    def test_chaos_bench_rounding_unchanged(self):
        assert [nearest_rank(self.SKEWED, q, 5) for q in self.FRACTIONS] == [
            0.00033, 0.11111, 1.23457, 1.23457, 1.23457
        ]
        assert [nearest_rank(self.RAMP, q, 5) for q in self.FRACTIONS] == [
            0.00137, 0.68587, 1.35802, 1.37037, 1.37174
        ]

    def test_stability_bench_rounding_unchanged(self):
        assert [nearest_rank(self.SKEWED, q, 6) for q in self.FRACTIONS] == [
            0.000333, 0.111111, 1.234568, 1.234568, 1.234568
        ]
        assert [nearest_rank(self.RAMP, q, 6) for q in self.FRACTIONS] == [
            0.001372, 0.685871, 1.358025, 1.37037, 1.371742
        ]

    def test_empty_sample_is_none(self):
        assert nearest_rank([], 0.5, 5) is None
        assert nearest_rank([], 0.5, 6) is None

    def test_stability_summary_unchanged(self):
        from repro.bench.stability_bench import _summarise

        acks = [(0.01 * i, self.RAMP[(i * 37) % 1000]) for i in range(300)]
        summary = _summarise(acks + [(3.5, 0.25)], 0.5)
        assert summary["overall_p50_s"] == 0.702332
        assert summary["overall_p99_s"] == 1.367627
        assert summary["overall_p999_s"] == 1.371742
        assert summary["worst_window_p999_s"] == 1.371742
        assert summary["tail_ratio"] == 1.953
        windows = summary["windows"]
        assert [w["p50_s"] for w in windows] == [
            0.610425, 0.657064, 0.654321, 0.754458, 0.751715, 0.748971, None, 0.25
        ]
        assert [w["p99_s"] for w in windows] == [
            1.371742, 1.37037, 1.367627, 1.364883, 1.36214, 1.359396, None, 0.25
        ]
