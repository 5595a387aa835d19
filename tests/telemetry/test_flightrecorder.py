"""Flight recorder: bounded rings, auto-dump on failure, redaction."""

import json

import pytest

from repro.attacks.wiretap import Wiretap
from repro.errors import MachineCrash, MigrationAborted, PartyCrash
from repro.faults import FaultInjector, FaultPlan
from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.telemetry.flightrecorder import FlightRecorder, active_recorders, redact
from repro.telemetry.runs import run_seeded_migration

from tests.conftest import build_counter_app


def _crashed_run(plan, wiretap=None, **testbed_kwargs):
    tb = build_testbed(seed=4000 + plan.seed, **testbed_kwargs)
    if wiretap is not None:
        tb.network.add_tap(wiretap)
    app = build_counter_app(tb, tag="flight")
    app.ecall_once(0, "incr", 5)
    orch = MigrationOrchestrator(
        tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
    )
    try:
        orch.migrate_enclave(app)
    except (MachineCrash, MigrationAborted, PartyCrash):
        pass
    return tb


class TestRings:
    def test_rings_are_bounded(self):
        tb = build_testbed(seed=11)
        recorder = FlightRecorder(tb.telemetry, capacity=16)
        for i in range(200):
            tb.trace.emit("test", "tick", party="source", i=i)
        ring = recorder.rings["source"]
        assert len(ring) == 16
        assert ring[-1]["payload"]["i"] == 199  # newest survive

    def test_events_partition_by_party(self):
        tb = run_seeded_migration(seed=1)
        recorder = tb.telemetry.flightrecorder
        assert "source" in recorder.rings and "target" in recorder.rings
        assert "wire" in recorder.rings  # net events have no party field

    def test_recorder_registry_tracks_instances(self):
        tb = build_testbed(seed=12)
        assert tb.telemetry.flightrecorder in active_recorders()


class TestAutoDump:
    def test_injected_crash_triggers_a_dump(self):
        tb = _crashed_run(FaultPlan(seed=1).crash("target", "restore"))
        recorder = tb.telemetry.flightrecorder
        assert recorder.dumps, "a MachineCrash must auto-dump"
        dump = recorder.dumps[-1]
        assert dump["trigger"] == "fault.crash"
        assert dump["event"]["payload"]["step"] == "restore"
        assert dump["trace_id"] == tb.telemetry.tracer.trace_id

    def test_dump_carries_correlated_state(self):
        tb = _crashed_run(FaultPlan(seed=2).crash("source", "checkpoint"))
        dump = tb.telemetry.flightrecorder.dumps[-1]
        assert dump["rings"]  # at least one party observed something
        assert any(s["name"] == "migration.run" for s in dump["open_spans"])
        assert "migration.attempts_total" in dump["metrics"]

    def test_dump_count_is_bounded(self):
        tb = build_testbed(seed=13)
        recorder = tb.telemetry.flightrecorder
        recorder.max_dumps = 3
        for i in range(10):
            recorder.dump(trigger=f"manual-{i}")
        assert len(recorder.dumps) == 3
        assert recorder.dumps[-1]["trigger"] == "manual-9"


class TestRedaction:
    def test_redact_strips_bytes_recursively(self):
        value = {"sealed": b"\x00" * 64, "nested": [b"abc", {"k": b"xy"}], "n": 3}
        cleaned = redact(value)
        assert cleaned["sealed"] == "<redacted: 64 bytes>"
        assert cleaned["nested"][0] == "<redacted: 3 bytes>"
        assert cleaned["nested"][1]["k"] == "<redacted: 2 bytes>"
        assert cleaned["n"] == 3

    def test_no_payload_bytes_survive_into_a_dump(self):
        wiretap = Wiretap()
        tb = _crashed_run(FaultPlan(seed=3).crash("target", "restore"), wiretap=wiretap)
        # An event that *does* carry raw bytes must enter the ring redacted.
        tb.trace.emit("test", "leaky", party="source", sealed=b"\x13" * 32)
        dump = tb.telemetry.flightrecorder.dump(trigger="manual")
        text = json.dumps(dump, sort_keys=True, default=repr)
        # Sealed checkpoint/key material crossed the wire during this
        # run; none of those bytes may appear in the dump, only sizes.
        assert "b'\\x" not in text  # no repr()d raw byte strings
        assert "<redacted: 32 bytes>" in text
        assert wiretap.sends
        for _, payload in wiretap.sends:
            if len(payload) >= 16:
                assert payload.hex() not in text
                assert repr(payload)[2:-1] not in text

    def test_dump_file_written_when_dir_configured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        tb = _crashed_run(FaultPlan(seed=4).crash("target", "restore"))
        files = sorted(tmp_path.glob("flight-*.json"))
        assert files, "REPRO_FLIGHT_DIR must receive a JSON dump per trigger"
        with open(files[-1], "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["trigger"] == "fault.crash"
        recorder = tb.telemetry.flightrecorder
        assert recorder.dump_dir == str(tmp_path)


class TestNamespacing:
    def test_simultaneous_violations_dump_to_distinct_namespaces(
        self, tmp_path, monkeypatch
    ):
        """Two migrations breach an SLO at the same instant: each flight
        recorder writes its own ``flight-<mig-id>-*`` file, so a fleet
        run never interleaves dumps from different migrations."""
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        testbeds = {}
        for mig_id, seed in (("migA", 21), ("migB", 22)):
            tb = build_testbed(seed=seed)
            tb.telemetry.flightrecorder.namespace = mig_id
            tb.telemetry.flightrecorder.dump_dir = str(tmp_path)
            testbeds[mig_id] = tb
        # Both violations land at the same (virtual) moment.
        for mig_id, tb in testbeds.items():
            tb.trace.emit(
                "slo", "violation", party="source",
                message=f"{mig_id}: downtime budget burned",
            )
        for prefix in ("flight-migA-", "flight-migB-"):
            files = sorted(tmp_path.glob(prefix + "*-slo-violation.json"))
            assert files, f"expected a namespaced dump {prefix}*"
        a = sorted(tmp_path.glob("flight-migA-*.json"))
        b = sorted(tmp_path.glob("flight-migB-*.json"))
        assert not set(a) & set(b)
        with open(a[0], "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["event"]["payload"]["message"].startswith("migA")

    def test_namespace_defaults_to_trace_id(self, tmp_path):
        tb = run_seeded_migration(seed=23)
        recorder = tb.telemetry.flightrecorder
        recorder.dump_dir = str(tmp_path)
        recorder.dump(trigger="manual")
        trace_id = tb.telemetry.tracer.trace_id
        assert trace_id
        assert sorted(tmp_path.glob(f"flight-{trace_id}-*-manual.json"))

    def test_namespace_is_slugified(self, tmp_path):
        tb = build_testbed(seed=24)
        recorder = tb.telemetry.flightrecorder
        recorder.namespace = "mig 00/one:two"
        recorder.dump_dir = str(tmp_path)
        recorder.dump(trigger="manual")
        files = sorted(p.name for p in tmp_path.glob("flight-*.json"))
        assert files
        assert all("/" not in name[len("flight-"):] for name in files)
        assert files[0].startswith("flight-mig-00-one-two-")


class TestRetentionCap:
    """Per-run dump-file cap: keep first + last, count the dropped."""

    def test_cap_keeps_first_files_and_rotating_last(self, tmp_path, monkeypatch):
        from repro.telemetry.flightrecorder import dumps_dropped

        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FLIGHT_MAX_DUMPS", "4")
        tb = build_testbed(seed=901)
        recorder = FlightRecorder(tb.telemetry, namespace="capped")
        for i in range(10):
            recorder.dump(trigger=f"storm{i}")
        files = sorted(tmp_path.glob("flight-capped-*.json"))
        assert len(files) == 4  # first cap-1 chronologically + the newest
        triggers = [json.load(open(p))["trigger"] for p in files]
        assert triggers[:3] == ["storm0", "storm1", "storm2"]
        assert triggers[-1] == "storm9"
        # Six dumps (storm3..storm8) were rotated out of the last slot.
        assert dumps_dropped() == 6
        assert json.load(open(files[-1]))["dumps_dropped"] == 6

    def test_under_cap_writes_every_dump(self, tmp_path, monkeypatch):
        from repro.telemetry.flightrecorder import dumps_dropped

        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FLIGHT_MAX_DUMPS", "8")
        tb = build_testbed(seed=902)
        recorder = FlightRecorder(tb.telemetry, namespace="calm")
        for i in range(3):
            recorder.dump(trigger=f"calm{i}")
        files = sorted(tmp_path.glob("flight-calm-*.json"))
        assert len(files) == 3
        assert dumps_dropped() == 0
        assert all("dumps_dropped" not in json.load(open(p)) for p in files)

    def test_cap_is_shared_across_recorders(self, tmp_path, monkeypatch):
        # A fleet SLO storm spans many namespaced recorders; the cap is
        # per run (process), not per recorder.
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FLIGHT_MAX_DUMPS", "3")
        tb = build_testbed(seed=903)
        recorders = [
            FlightRecorder(tb.telemetry, namespace=f"mig{i:02d}") for i in range(5)
        ]
        for recorder in recorders:
            recorder.dump(trigger="slo-violation")
        assert len(list(tmp_path.glob("flight-*.json"))) == 3

    def test_default_and_bad_values(self, monkeypatch):
        from repro.telemetry.flightrecorder import (
            DEFAULT_MAX_DUMP_FILES,
            max_dump_files,
        )

        monkeypatch.delenv("REPRO_FLIGHT_MAX_DUMPS", raising=False)
        assert max_dump_files() == DEFAULT_MAX_DUMP_FILES == 32
        monkeypatch.setenv("REPRO_FLIGHT_MAX_DUMPS", "not-a-number")
        assert max_dump_files() == 32
        monkeypatch.setenv("REPRO_FLIGHT_MAX_DUMPS", "0")
        assert max_dump_files() == 2  # first + last is the floor
