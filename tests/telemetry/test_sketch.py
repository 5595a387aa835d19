"""Quantile sketches."""

import pytest

from repro.telemetry.sketch import QuantileSketch


class TestQuantileSketch:
    def test_quantiles_within_relative_error(self):
        sketch = QuantileSketch()
        values = list(range(1, 10_001))
        for v in values:
            sketch.observe(v)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = values[int(q * (len(values) - 1))]
            assert abs(sketch.quantile(q) - exact) <= 0.025 * exact

    def test_zero_and_negative_handling(self):
        sketch = QuantileSketch()
        sketch.observe(0)
        sketch.observe(0)
        sketch.observe(10)
        assert sketch.count == 3
        assert sketch.quantile(0.25) == 0
        with pytest.raises(ValueError):
            sketch.observe(-1)

    def test_deterministic(self):
        def build():
            s = QuantileSketch()
            for v in range(1, 1_000):
                s.observe(v * 7)
            return s

        a, b = build(), build()
        assert a.buckets == b.buckets
        assert (a.count, a.zero_count, a.sum, a.min, a.max) == (
            b.count, b.zero_count, b.sum, b.min, b.max
        )
        for q in (0.0, 0.01, 0.5, 0.95, 0.99, 1.0):
            assert a.quantile(q) == b.quantile(q)
