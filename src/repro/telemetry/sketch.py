"""Streaming quantile sketch for fleet-scale aggregate observability.

:class:`QuantileSketch` is a DDSketch-style log-bucketed quantile
sketch: O(log range) memory over an unbounded stream, deterministic (no
RNG, no wall time).  p50/p95/p99 queries carry a fixed 1 % relative
error.  The fleet runner feeds it one downtime per migration, and the
OTLP exporter rebuilds its buckets as a histogram.

Sketch operations are pure bookkeeping and never advance the virtual
clock.
"""

from __future__ import annotations

import math

__all__ = ["QuantileSketch"]


class QuantileSketch:
    """Streaming quantiles with bounded relative error.

    Values land in geometric buckets ``gamma^i``; a quantile answer is
    the midpoint of its bucket, within ``relative_error`` of the true
    value.  Only non-negative values are accepted (every stream we
    aggregate is a latency, a byte count, or a retry count).
    """

    #: Bound on every quantile answer's relative error; the OTLP
    #: exporter rebuilds the bucket bounds from it.
    relative_error = 0.01
    _gamma = (1.0 + relative_error) / (1.0 - relative_error)
    _log_gamma = math.log(_gamma)

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    # ------------------------------------------------------------- updates
    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"sketch values must be non-negative, got {value}")
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value == 0:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    # ------------------------------------------------------------- queries
    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (0 when empty)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # Tail-biased rank: the answer is the smallest bucket whose
        # cumulative count covers position q·(n−1) from above — p99 of
        # three samples is the largest one, not the median.
        target = q * (self.count - 1) + 1
        if self.zero_count >= target:
            return 0.0
        running = self.zero_count
        for index in sorted(self.buckets):
            running += self.buckets[index]
            if running >= target:
                # Bucket i covers (gamma^(i-1), gamma^i]; answer its midpoint.
                return 2.0 * self._gamma ** index / (self._gamma + 1.0)
        return self.max if self.max is not None else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuantileSketch n={self.count} p50={self.p50:.0f} "
            f"p95={self.p95:.0f} p99={self.p99:.0f}>"
        )
