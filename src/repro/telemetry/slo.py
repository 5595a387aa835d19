"""SLO engine: declarative objectives, sliding windows, burn-rate alerts.

"Which of my 500 migrations is burning its downtime budget, and why" is
an *objective* question, not a metric question — a raw gauge cannot say
whether 31 ms of downtime is fine (budget 50 ms) or an incident (budget
30 ms, 99 % target, error budget already half spent).  This module holds
the objective side:

* :class:`SloObjective` — one declarative objective over a scalar
  signal from the per-migration run deltas (the shape
  :class:`~repro.telemetry.sketch.RunScope` closes to).  Two kinds:

  - ``"budget"`` — each sample is *good* iff ``value <= budget``; the
    objective demands at least ``target`` of samples good over the
    window.  This covers the per-migration downtime budget, the
    recovery-cost ceiling, and the refusal-rate objective (signal
    ``migration.aborts_total``, budget 0: any refusal is a bad sample).
  - ``"quantile"`` — the windowed ``q``-quantile of the signal must stay
    at or below ``budget`` (fleet p99 downtime).

* :class:`BurnRate` — one alerting rate for a budget objective, in the
  multiwindow multi-burn-rate shape: the alert fires only when the
  error budget burns at ``factor``× the sustainable rate over *both*
  the evaluation window and a shorter confirmation window, so a single
  old bad sample cannot page and a fresh spike cannot hide.

* :class:`SloEngine` — evaluates every objective as closed run deltas
  arrive (:meth:`SloEngine.ingest_run`), with **hysteresis**: an alert
  fires exactly once when it trips and clears exactly once when the
  long-window burn falls back under the factor.  Firing emits a typed
  :class:`SloViolation` and — when the caller passes a telemetry
  surface — a ``("slo", "violation")`` trace event, which the flight
  recorder treats as a dump trigger and the invariant monitor records in
  its ``slo_violations`` ledger.

Windows slide over *virtual* time (single testbed) or *fleet* time (the
fleet runner's admission clock); samples may arrive slightly out of
time order (fleet completion order ≠ fleet end-time order) and are kept
sorted, bounded by :data:`MAX_WINDOW_SAMPLES` per objective.

Edge-case semantics (pinned by ``tests/telemetry/test_slo.py``):

* ``target=1.0`` leaves zero error budget — any bad sample is an
  infinite burn rate and fires immediately;
* ``budget<=0`` on a non-negative signal marks every positive sample
  bad (budget 0 is exactly the refusal-rate shape);
* an empty window burns at 0 and can never fire;
* a window shorter than the sample spacing sees at most one sample and
  behaves like a per-sample gate.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

__all__ = [
    "BurnRate",
    "SloEngine",
    "SloObjective",
    "SloViolation",
    "default_objectives",
]

KIND_BUDGET = "budget"
KIND_QUANTILE = "quantile"

#: One second of virtual time, the natural unit for fleet-scale windows
#: (a fleet of ~100 ms migrations turns over its whole population in a
#: few virtual seconds).
SECOND_NS = 1_000_000_000

#: Hard cap on the samples one objective's window keeps.
MAX_WINDOW_SAMPLES = 4096


@dataclass(frozen=True)
class BurnRate:
    """One multiwindow burn-rate alert attached to a budget objective."""

    label: str
    #: Fires when the error budget burns at >= factor x the sustainable
    #: rate (bad_fraction / error_budget) over both windows below.
    factor: float
    window_ns: int
    #: Short confirmation window that must agree before firing.
    confirm_window_ns: int

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"burn-rate factor must be positive, got {self.factor}")
        if self.window_ns <= 0 or self.confirm_window_ns <= 0:
            raise ValueError("burn-rate windows must be positive")
        if self.confirm_window_ns > self.window_ns:
            raise ValueError(
                f"confirmation window ({self.confirm_window_ns}) cannot exceed "
                f"the evaluation window ({self.window_ns})"
            )


#: The classic fast/slow pair, scaled to fleet time: the fast rate pages
#: on an acute burn, the slow rate on a sustained simmer.
DEFAULT_BURN_RATES = (
    BurnRate("fast", factor=4.0, window_ns=2 * SECOND_NS, confirm_window_ns=SECOND_NS // 4),
    BurnRate("slow", factor=1.5, window_ns=8 * SECOND_NS, confirm_window_ns=SECOND_NS),
)


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective over a per-migration scalar signal."""

    name: str
    #: Series key in the run delta (e.g. ``migration.downtime_ns``).
    signal: str
    #: Per-sample ceiling (budget kind) or quantile ceiling (quantile kind).
    budget: float
    kind: str = KIND_BUDGET
    #: Fraction of samples that must be good (budget kind only).
    target: float = 0.99
    #: Quantile to gate (quantile kind only).
    q: float = 0.99
    #: Evaluation window for the quantile kind (budget kind windows live
    #: on the burn rates).
    window_ns: int = 8 * SECOND_NS
    burn_rates: tuple[BurnRate, ...] = DEFAULT_BURN_RATES
    #: A sample counts as bad when value > budget; missing signals in a
    #: delta contribute ``missing_value`` when set (refusal-rate treats
    #: an absent aborts counter as 0), else no sample.
    missing_value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_BUDGET, KIND_QUANTILE):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0 <= self.target <= 1:
            raise ValueError(f"target must be in [0, 1], got {self.target}")
        if not 0 < self.q <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {self.q}")
        if self.window_ns <= 0:
            raise ValueError("window must be positive")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


@dataclass(frozen=True)
class SloViolation:
    """One fired (or cleared) alert, typed and machine-readable."""

    t_ns: int
    objective: str
    signal: str
    burn_label: str          # burn-rate label, or "quantile"
    burn: float              # burn multiple (budget) or quantile value (quantile)
    threshold: float         # firing threshold the measurement crossed
    window_ns: int
    samples: int             # samples in the evaluation window at fire time
    bad: int                 # bad samples in the window (budget kind)
    source: str = ""         # migration id of the tipping sample, if known
    kind: str = "fired"      # "fired" | "cleared"

    def message(self) -> str:
        if self.kind == "cleared":
            return (
                f"slo {self.objective}/{self.burn_label} cleared at "
                f"t={self.t_ns / 1e6:.3f}ms"
            )
        if self.burn_label == "quantile":
            return (
                f"slo {self.objective}: windowed quantile of {self.signal} is "
                f"{self.burn:.0f} > ceiling {self.threshold:.0f} "
                f"({self.samples} samples)"
            )
        burn = "inf" if math.isinf(self.burn) else f"{self.burn:.2f}"
        return (
            f"slo {self.objective}/{self.burn_label}: error budget burning at "
            f"{burn}x (>= {self.threshold:.2f}x) over {self.window_ns / 1e9:.2f}s "
            f"({self.bad}/{self.samples} bad {self.signal} samples)"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "t_ns": self.t_ns,
            "objective": self.objective,
            "signal": self.signal,
            "burn_label": self.burn_label,
            "burn": None if math.isinf(self.burn) else self.burn,
            "threshold": self.threshold,
            "window_ns": self.window_ns,
            "samples": self.samples,
            "bad": self.bad,
            "source": self.source,
            "kind": self.kind,
            "message": self.message(),
        }


def default_objectives() -> tuple[SloObjective, ...]:
    """The fleet's standard objective set.

    The budgets bracket the calibrated single-migration numbers (clean
    enclave downtime ~28.8 ms at seed 1): a clean fleet stays green, a
    fleet with injected faults burns the downtime budget.
    """
    return (
        SloObjective(
            name="downtime-budget",
            signal="migration.downtime_ns",
            budget=30_000_000,
            target=0.95,
        ),
        SloObjective(
            name="fleet-p99-downtime",
            signal="migration.downtime_ns",
            kind=KIND_QUANTILE,
            q=0.99,
            budget=40_000_000,
        ),
        SloObjective(
            name="recovery-cost",
            signal="migration.total_ns",
            budget=120_000_000,
            target=0.95,
        ),
        SloObjective(
            name="refusal-rate",
            signal="migration.aborts_total",
            budget=0,
            target=0.95,
            missing_value=0,
        ),
    )


@dataclass
class _Sample:
    t_ns: int
    value: float
    source: str = ""

    def __lt__(self, other: "_Sample") -> bool:
        return (self.t_ns, self.source) < (other.t_ns, other.source)


@dataclass
class _AlertState:
    firing: bool = False
    fired_total: int = 0
    cleared_total: int = 0


class SloEngine:
    """Evaluates a set of objectives over per-migration run deltas."""

    def __init__(
        self, objectives: tuple[SloObjective, ...] | list[SloObjective] | None = None
    ) -> None:
        self.objectives = tuple(objectives if objectives is not None else default_objectives())
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError(f"objective names must be unique, got {names}")
        #: Every fired/cleared alert, in evaluation order.
        self.violations: list[SloViolation] = []
        self._windows: dict[str, list[_Sample]] = {o.name: [] for o in self.objectives}
        self._states: dict[tuple[str, str], _AlertState] = {}
        self._now_ns = 0

    # ---------------------------------------------------------------- intake
    def ingest_run(
        self,
        t_ns: int,
        delta: dict[str, Any],
        source: str = "",
        emit_to: "Telemetry | None" = None,
    ) -> list[SloViolation]:
        """Fold one closed run delta into every objective and evaluate.

        Returns the alerts that fired or cleared *because of this
        sample*.  ``emit_to`` receives the transitions as trace events —
        the fleet runner passes the migration's own telemetry so its
        flight recorder captures the violation.
        """
        before = len(self.violations)
        for objective in self.objectives:
            value = delta.get(objective.signal, objective.missing_value)
            if isinstance(value, dict):  # histogram delta: gate on the mean
                value = value.get("mean", None)
            if value is None:
                continue
            self._observe(objective, t_ns, float(value), source)
        self.evaluate(t_ns, emit_to=emit_to)
        return self.violations[before:]

    def _observe(self, objective: SloObjective, t_ns: int, value: float, source: str) -> None:
        window = self._windows[objective.name]
        insort(window, _Sample(int(t_ns), value, source))
        # Bound memory: evict samples past every window this objective
        # can ever look at, then hard-cap the sample count.
        horizon = objective.window_ns
        for rate in objective.burn_rates:
            horizon = max(horizon, rate.window_ns)
        newest = window[-1].t_ns
        while window and window[0].t_ns <= newest - horizon:
            window.pop(0)
        if len(window) > MAX_WINDOW_SAMPLES:
            del window[: len(window) - MAX_WINDOW_SAMPLES]
        self._now_ns = max(self._now_ns, int(t_ns))

    # ------------------------------------------------------------- evaluation
    def _window_stats(
        self, objective: SloObjective, window_ns: int, now_ns: int
    ) -> tuple[int, int]:
        """(samples, bad) within ``(now - window, now]``."""
        samples = bad = 0
        for sample in reversed(self._windows[objective.name]):
            if sample.t_ns <= now_ns - window_ns:
                break
            samples += 1
            if sample.value > objective.budget:
                bad += 1
        return samples, bad

    def _burn(self, objective: SloObjective, window_ns: int, now_ns: int) -> tuple[float, int, int]:
        samples, bad = self._window_stats(objective, window_ns, now_ns)
        if samples == 0 or bad == 0:
            return 0.0, samples, bad
        bad_fraction = bad / samples
        if objective.error_budget <= 0:
            return math.inf, samples, bad
        return bad_fraction / objective.error_budget, samples, bad

    def _windowed_quantile(self, objective: SloObjective, now_ns: int) -> tuple[float, int]:
        values = sorted(
            s.value
            for s in self._windows[objective.name]
            if s.t_ns > now_ns - objective.window_ns
        )
        if not values:
            return 0.0, 0
        rank = math.ceil(objective.q * len(values)) - 1
        return values[max(rank, 0)], len(values)

    def _state(self, objective: str, label: str) -> _AlertState:
        return self._states.setdefault((objective, label), _AlertState())

    def evaluate(
        self, now_ns: int | None = None, emit_to: "Telemetry | None" = None
    ) -> list[SloViolation]:
        """Evaluate every alert at ``now_ns``; returns fresh transitions."""
        now = self._now_ns if now_ns is None else int(now_ns)
        fresh: list[SloViolation] = []
        for objective in self.objectives:
            if objective.kind == KIND_QUANTILE:
                value, samples = self._windowed_quantile(objective, now)
                state = self._state(objective.name, "quantile")
                if not state.firing and samples > 0 and value > objective.budget:
                    fresh.append(
                        self._transition(
                            state, objective, "quantile", now, value,
                            objective.budget, samples, 0, fired=True,
                        )
                    )
                elif state.firing and value <= objective.budget:
                    fresh.append(
                        self._transition(
                            state, objective, "quantile", now, value,
                            objective.budget, samples, 0, fired=False,
                        )
                    )
                continue
            for rate in objective.burn_rates:
                burn, samples, bad = self._burn(objective, rate.window_ns, now)
                confirm_burn, _, _ = self._burn(objective, rate.confirm_window_ns, now)
                state = self._state(objective.name, rate.label)
                if not state.firing and burn >= rate.factor and confirm_burn >= rate.factor:
                    fresh.append(
                        self._transition(
                            state, objective, rate.label, now, burn,
                            rate.factor, samples, bad, fired=True,
                        )
                    )
                elif state.firing and burn < rate.factor:
                    fresh.append(
                        self._transition(
                            state, objective, rate.label, now, burn,
                            rate.factor, samples, bad, fired=False,
                        )
                    )
        if fresh:
            self._emit(fresh, emit_to)
        return fresh

    def _transition(
        self,
        state: _AlertState,
        objective: SloObjective,
        label: str,
        now: int,
        burn: float,
        threshold: float,
        samples: int,
        bad: int,
        fired: bool,
    ) -> SloViolation:
        window = self._windows[objective.name]
        source = window[-1].source if window else ""
        state.firing = fired
        if fired:
            state.fired_total += 1
        else:
            state.cleared_total += 1
        violation = SloViolation(
            t_ns=now,
            objective=objective.name,
            signal=objective.signal,
            burn_label=label,
            burn=burn,
            threshold=threshold,
            window_ns=(
                objective.window_ns
                if label == "quantile"
                else next(r.window_ns for r in objective.burn_rates if r.label == label)
            ),
            samples=samples,
            bad=bad,
            source=source,
            kind="fired" if fired else "cleared",
        )
        self.violations.append(violation)
        return violation

    @staticmethod
    def _emit(violations: list[SloViolation], telemetry: "Telemetry | None") -> None:
        if telemetry is None:
            return
        for violation in violations:
            telemetry.trace.emit(
                "slo",
                "violation" if violation.kind == "fired" else "resolved",
                **violation.as_dict(),
            )
            telemetry.metrics.counter(
                "slo.alerts_total",
                objective=violation.objective,
                kind=violation.kind,
            ).inc()

    # ---------------------------------------------------------------- queries
    def active_alerts(self) -> list[tuple[str, str]]:
        """(objective, burn label) pairs currently firing, sorted."""
        return sorted(key for key, state in self._states.items() if state.firing)

    def fired(self) -> list[SloViolation]:
        return [v for v in self.violations if v.kind == "fired"]

    def as_dict(self) -> dict[str, Any]:
        return {
            "objectives": [o.name for o in self.objectives],
            "active_alerts": [list(k) for k in self.active_alerts()],
            "violations": [v.as_dict() for v in self.violations],
        }
