"""Black-box flight recorder: last-N state per party, dumped on failure.

The recorder observes the event trace and keeps one bounded ring buffer
per party with the most recent events (journal records included) that
party produced.  Spans are not events, so they never enter a ring.
When something goes wrong — an invariant violation, a ``StepTimeout``,
an injected machine or party crash — it automatically captures a
correlated snapshot: the trigger, every party's ring, the open and
recently finished spans (read from the tracer), and the headline
metrics, all under the run's trace id.

Dumps are **redacted by construction**: byte strings (sealed
checkpoints, ciphertext, keys) are replaced by ``"<redacted: N bytes>"``
before they enter a ring, so no dump can leak payload material even if
it is uploaded as a CI artifact.  Set ``REPRO_FLIGHT_DIR`` to also write
each dump as a JSON file (CI uploads these when a job fails).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

#: (category, name) pairs that trigger an automatic dump.
TRIGGER_EVENTS: frozenset[tuple[str, str]] = frozenset(
    {
        ("invariant", "violation"),
        ("migration", "step_timeout"),
        ("fault", "crash"),
        ("fault", "party_crash"),
        ("slo", "violation"),
    }
)

#: Recorders constructed since the last reset; the test harness dumps
#: every one of them when a test fails (same pattern as the invariant
#: monitor's active registry).
_ACTIVE: list["FlightRecorder"] = []
_DUMP_SEQ = 0

#: Per-run dump-file retention (chaos soaks and fleet SLO storms can
#: trigger hundreds of dumps; an unbounded dump dir is itself an
#: incident).  At most ``REPRO_FLIGHT_MAX_DUMPS`` files are kept: the
#: first ``cap - 1`` chronologically plus the most recent one, with a
#: running count of everything dropped in between embedded in the
#: surviving last dump.
DEFAULT_MAX_DUMP_FILES = 32
_DUMP_FILES: list[str] = []
_OVERFLOW_PATH: str | None = None
_DUMPS_DROPPED = 0


def max_dump_files() -> int:
    raw = os.environ.get("REPRO_FLIGHT_MAX_DUMPS", "")
    try:
        value = int(raw) if raw else DEFAULT_MAX_DUMP_FILES
    except ValueError:
        value = DEFAULT_MAX_DUMP_FILES
    return max(2, value)  # first + last is the floor


def dumps_dropped() -> int:
    return _DUMPS_DROPPED


def active_recorders() -> list["FlightRecorder"]:
    return list(_ACTIVE)


def reset_active() -> None:
    global _OVERFLOW_PATH, _DUMPS_DROPPED
    _ACTIVE.clear()
    _DUMP_FILES.clear()
    _OVERFLOW_PATH = None
    _DUMPS_DROPPED = 0


def redact(value: Any) -> Any:
    """Strip payload bytes from a value, recursively.

    Sizes survive (they are figures); the bytes themselves never reach a
    ring buffer or a dump file.
    """
    if isinstance(value, (bytes, bytearray)):
        return f"<redacted: {len(value)} bytes>"
    if isinstance(value, dict):
        return {str(k): redact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [redact(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class FlightRecorder:
    """Bounded per-party history with automatic dump-on-failure."""

    def __init__(
        self,
        telemetry: "Telemetry",
        capacity: int = 64,
        max_dumps: int = 8,
        dump_dir: str | None = None,
        namespace: str | None = None,
    ) -> None:
        self.telemetry = telemetry
        self.capacity = capacity
        self.max_dumps = max_dumps
        #: Dump-file namespace; the fleet runner sets this to the
        #: migration id so concurrent migrations can never clobber each
        #: other's dump files.  Defaults to the run's trace id at dump
        #: time (which the orchestrator sets per migration).
        self.namespace = namespace
        #: Directory dumps are mirrored into as JSON files; defaults to
        #: ``$REPRO_FLIGHT_DIR`` (unset = in-memory only).
        self.dump_dir = dump_dir if dump_dir is not None else os.environ.get(
            "REPRO_FLIGHT_DIR"
        ) or None
        self.rings: dict[str, deque] = {}
        self.dumps: list[dict[str, Any]] = []
        telemetry.trace.add_observer(self._on_event)
        _ACTIVE.append(self)

    # ---------------------------------------------------------------- intake
    def _party_of(self, event) -> str:
        payload = event.payload
        for key in ("party", "side"):
            value = payload.get(key)
            if value:
                return str(value)
        if event.category == "net":
            return "wire"
        return "orchestrator"

    def _on_event(self, event) -> None:
        if event.category == "flight":
            return  # never record our own dump markers
        entry = {
            "t_ns": event.t_ns,
            "category": event.category,
            "name": event.name,
            "payload": redact(event.payload),
        }
        ring = self.rings.setdefault(self._party_of(event), deque(maxlen=self.capacity))
        ring.append(entry)
        if (event.category, event.name) in TRIGGER_EVENTS:
            self.dump(trigger=f"{event.category}.{event.name}", event=entry)

    # ----------------------------------------------------------------- dumps
    def dump(self, trigger: str, event: dict[str, Any] | None = None) -> dict[str, Any]:
        """Capture a correlated snapshot of everything the rings hold."""
        tracer = self.telemetry.tracer
        snapshot = {
            "trigger": trigger,
            "t_ns": self.telemetry.clock.now_ns,
            "trace_id": tracer.trace_id,
            "event": event,
            "rings": {party: list(self.rings[party]) for party in sorted(self.rings)},
            "open_spans": [self._span_dict(s) for s in tracer.open_spans()],
            "recent_spans": [self._span_dict(s) for s in tracer.finished()[-10:]],
            "metrics": self._headline_metrics(),
        }
        self.dumps.append(snapshot)
        del self.dumps[: -self.max_dumps]
        path = self._write(snapshot)
        self.telemetry.trace.emit(
            "flight", "dump", trigger=trigger, **({"path": path} if path else {})
        )
        return snapshot

    def _span_dict(self, span) -> dict[str, Any]:
        return {
            "span_id": span.span_id,
            "name": span.name,
            "party": span.party,
            "track": span.track,
            "start_ns": span.start_ns,
            "end_ns": span.end_ns,
            "status": span.status,
            "attrs": redact(span.attrs),
        }

    def _headline_metrics(self) -> dict[str, Any]:
        prefixes = ("migration.", "faults.", "invariants.", "journal.", "wire.")
        return {
            key: value
            for key, value in sorted(self.telemetry.metrics.snapshot().items())
            if key.startswith(prefixes)
        }

    def _namespace(self, snapshot: dict[str, Any]) -> str:
        raw = self.namespace or snapshot.get("trace_id") or "run"
        slug = "".join(c if c.isalnum() else "-" for c in str(raw))
        return slug or "run"

    def _write(self, snapshot: dict[str, Any]) -> str | None:
        if not self.dump_dir:
            return None
        global _DUMP_SEQ, _OVERFLOW_PATH, _DUMPS_DROPPED
        _DUMP_SEQ += 1
        slug = "".join(c if c.isalnum() else "-" for c in snapshot["trigger"])
        # The migration-id namespace keeps concurrent fleet dumps apart;
        # the global sequence keeps same-namespace dumps ordered and
        # unique even across recorder instances.
        path = os.path.join(
            self.dump_dir,
            f"flight-{self._namespace(snapshot)}-{_DUMP_SEQ:04d}-{slug}.json",
        )
        overflow = len(_DUMP_FILES) >= max_dump_files() - 1
        if overflow:
            # Retention cap reached: this dump takes the rotating "last"
            # slot, replacing (and counting) the previous occupant, so
            # the dir always holds the first cap-1 dumps plus the newest.
            if _OVERFLOW_PATH is not None:
                _DUMPS_DROPPED += 1
                try:
                    os.remove(_OVERFLOW_PATH)
                except OSError:
                    pass
            snapshot = dict(snapshot)
            snapshot["dumps_dropped"] = _DUMPS_DROPPED
        try:
            os.makedirs(self.dump_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
        except OSError:
            return None  # a full disk must never take the run down too
        if overflow:
            _OVERFLOW_PATH = path
        else:
            _DUMP_FILES.append(path)
        return path
