"""Streaming quantile sketches and per-migration metric scoping.

Two building blocks for *aggregate* observability — the layer that has
to survive the jump from one migration to a fleet of them:

* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile
  sketch: O(log range) memory over an unbounded stream, deterministic
  (no RNG, no wall time).  p50/p95/p99 queries carry a fixed 1 %
  relative error.

* :class:`RunScope` — a begin/end bracket over one
  :class:`~repro.telemetry.metrics.MetricsRegistry` that yields the
  *delta* snapshot of one migration run.  Several migrations on one
  testbed (chain hops, redrives) share a single registry; scoping the
  registry by migration id is what lets each run report its own
  counters instead of the accumulated total — and lets the invariant
  monitor assert the scopes actually partition the global counts
  (see :meth:`repro.telemetry.Telemetry.run_isolation_violations`).

Everything here is pure bookkeeping: no sketch or scope operation ever
advances the virtual clock.
"""

from __future__ import annotations

import math
from typing import Any

from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "QuantileSketch",
    "RunScope",
    "snapshot_delta",
]


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


# ---------------------------------------------------------------------------
# Run scoping: per-migration registry deltas
# ---------------------------------------------------------------------------

class RunScope:
    """Captures what one migration run adds to a shared registry.

    Opened at ``migration.run`` start and closed when the span closes
    (success *or* crash), the scope subtracts its begin-time snapshot
    from the end-time snapshot.  Counters and histograms report the
    run's own increments; gauges report their value at scope close (a
    gauge is a point-in-time reading — ``migration.downtime_ns`` at the
    end of a run *is* that run's downtime).

    A registry reset inside the scope (benchmark harnesses reset
    between iterations) would make subtraction meaningless, so the
    scope records the registry *generation* and closes to ``None`` when
    it changed — a tainted scope, excluded from isolation accounting.
    """

    def __init__(self, registry: MetricsRegistry, run_id: str) -> None:
        self.registry = registry
        self.run_id = run_id
        self.generation = getattr(registry, "generation", 0)
        self._before = registry.snapshot()

    def close(self) -> dict[str, Any] | None:
        if getattr(self.registry, "generation", 0) != self.generation:
            return None  # tainted: the registry was reset mid-scope
        kinds = {
            key: instrument.kind
            for key, instrument in (
                (k, self.registry._instruments[k]) for k in self.registry._instruments
            )
        }
        return snapshot_delta(self._before, self.registry.snapshot(), kinds)


def snapshot_delta(
    before: dict[str, Any],
    after: dict[str, Any],
    kinds: dict[str, str] | None = None,
) -> dict[str, Any]:
    """``after - before`` over two registry snapshots.

    * counters and histograms subtract (series absent from ``before``
      start at zero);
    * gauges pass through their ``after`` value (point-in-time);
    * series whose delta is all-zero are dropped, so the result reads
      as "what this run did", not the registry's whole catalogue.
    """
    kinds = kinds or {}
    delta: dict[str, Any] = {}
    for key, after_value in after.items():
        kind = kinds.get(key)
        before_value = before.get(key)
        if isinstance(after_value, dict):  # histogram snapshot
            if before_value is None:
                before_value = {"count": 0, "sum": 0, "buckets": {}}
            count = after_value["count"] - before_value["count"]
            if count == 0:
                continue
            total = after_value["sum"] - before_value["sum"]
            buckets = {
                bound: after_value["buckets"][bound]
                - before_value["buckets"].get(bound, 0)
                for bound in after_value["buckets"]
            }
            delta[key] = {
                "count": count,
                "sum": total,
                "mean": total / count if count else 0.0,
                "buckets": buckets,
            }
        elif kind == "gauge":
            delta[key] = after_value
        else:
            moved = after_value - (before_value or 0)
            if moved:
                delta[key] = moved
    return delta

