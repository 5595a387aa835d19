"""Fleet runner: determinism, admission model, downtime budget, ratchet file."""

import json

import pytest

from repro.fleet import FleetConfig, FleetRunner, MigrationRecord, write_fleet_bench
from repro.fleet.runner import DOWNTIME_BUDGET_NS

MS = 1_000_000


def _report(**overrides):
    config = dict(n=4, seeds=(1, 2), max_inflight=2)
    config.update(overrides)
    return FleetRunner(FleetConfig(**config)).run()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(n=0)
        with pytest.raises(ValueError):
            FleetConfig(seeds=())
        with pytest.raises(ValueError):
            FleetConfig(max_inflight=0)

    def test_seeds_cycle_and_derive_per_migration(self):
        config = FleetConfig(n=4, seeds=(1, 2))
        assert config.seed_for(0) == "1/mig0000"
        assert config.seed_for(1) == "2/mig0001"
        assert config.seed_for(2) == "1/mig0002"
        assert config.mig_id(3) == "mig0003-s2"

    def test_fault_cadence(self):
        config = FleetConfig(n=6, fault_every=3)
        assert [config.faulted(i) for i in range(6)] == [
            True, False, False, True, False, False,
        ]

    def test_series_key_encodes_the_configuration(self):
        assert FleetConfig(n=64, seeds=(1, 2)).series_key() == "n64_seeds1-2_inflight8"
        assert "fault4" in FleetConfig(n=8, fault_every=4).series_key()


class TestAdmission:
    def test_slots_bound_concurrency_on_the_fleet_timeline(self):
        report = _report(n=4, max_inflight=2)
        starts = [r.start_ns for r in report.records]
        # First two migrations admitted immediately; the rest wait for a slot.
        assert starts[0] == 0 and starts[1] == 0
        assert starts[2] == min(report.records[0].end_ns, report.records[1].end_ns)
        # At no instant do more than two intervals overlap.
        for t in sorted({r.start_ns for r in report.records}):
            inflight = sum(
                1 for r in report.records if r.start_ns <= t < r.end_ns
            )
            assert inflight <= 2
        assert report.makespan_ns == max(r.end_ns for r in report.records)
        assert report.migrations_per_sec > 0

    def test_every_migration_carries_its_own_virtual_duration(self):
        report = _report(n=2, max_inflight=1)
        for record in report.records:
            assert record.end_ns - record.start_ns == record.duration_ns
            assert record.duration_ns > 50 * MS


class TestDeterminism:
    def test_same_config_gives_byte_identical_reports(self):
        a = _report(n=3, fault_every=3)
        b = _report(n=3, fault_every=3)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_same_config_gives_byte_identical_bench_files(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        path_a = write_fleet_bench(_report(n=3), bench_dir=str(dir_a))
        path_b = write_fleet_bench(_report(n=3), bench_dir=str(dir_b))
        assert path_a and path_b
        assert open(path_a, "rb").read() == open(path_b, "rb").read()

    def test_bench_write_merges_series(self, tmp_path):
        write_fleet_bench(_report(n=2), bench_dir=str(tmp_path))
        write_fleet_bench(_report(n=3, seeds=(5,)), bench_dir=str(tmp_path))
        with open(tmp_path / "BENCH_fleet.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload) == {"n2_seeds1-2_inflight2", "n3_seeds5_inflight2"}
        for series in payload.values():
            assert set(series) == {
                "makespan_ns",
                "ns_per_migration",
                "downtime_p50_ns",
                "downtime_p99_ns",
            }

    def test_bench_write_without_a_directory_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        assert write_fleet_bench(_report(n=2)) is None


class TestSloPlane:
    def test_clean_fleet_stays_green(self):
        report = _report(n=3, fault_every=0)
        assert report.budget_violations == []
        assert report.as_dict()["slo"] == {"violations": []}
        assert report.failed == 0
        assert all(r.downtime_ns is not None and r.downtime_ns < 30 * MS
                   for r in report.records)

    def test_faulted_fleet_fires_downtime_burn_alert(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        report = _report(n=4, fault_every=3)
        fired = report.as_dict()["slo"]["violations"]
        # Every faulted migration is over budget on its own: index 0 and 3.
        assert [v["mig_id"] for v in fired] == ["mig0000-s1", "mig0003-s2"]
        first, record = fired[0], report.records[0]
        assert first == {
            "kind": "fired",
            "objective": "downtime-budget",
            "mig_id": "mig0000-s1",
            "t_ns": record.end_ns,
            "downtime_ns": record.downtime_ns,
            "budget_ns": DOWNTIME_BUDGET_NS,
        }
        assert record.downtime_ns > DOWNTIME_BUDGET_NS
        # The faulted migration's flight recorder dumped the violation
        # under the mig-id namespace.
        assert sorted(tmp_path.glob("flight-mig0000-s1-*-slo-violation.json"))
        assert sorted(tmp_path.glob("flight-mig0003-s2-*-slo-violation.json"))

    def test_budget_is_a_strict_ceiling(self):
        def record(downtime_ns, status="ok"):
            return MigrationRecord(
                index=0, mig_id="m", seed="1", status=status, faulted=False,
                start_ns=0, end_ns=1, duration_ns=1,
                downtime_ns=downtime_ns, total_ns=None,
            )

        assert record(DOWNTIME_BUDGET_NS).budget_violation() is None
        assert record(DOWNTIME_BUDGET_NS + 1).budget_violation() is not None
        assert record(None, status="failed").budget_violation() is None

    def test_downtime_sketch_covers_every_migration(self):
        report = _report(n=4)
        assert report.downtime_sketch.count == 4
        assert 25 * MS < report.downtime_sketch.p50 < 32 * MS

    def test_failed_migrations_carry_no_figures(self):
        report = _report(n=2, seeds=(9,), fault_every=1,
                         fault_spec="drop:checkpoint:1")
        assert report.failed == 2
        assert all(r.status == "failed" for r in report.records)
        assert all(r.downtime_ns is None and r.total_ns is None
                   for r in report.records)
        assert report.downtime_sketch.count == 0
        assert report.budget_violations == []

    def test_otlp_artifacts_are_present(self):
        report = _report(n=2)
        assert report.otlp_traces_sample is not None
        assert report.otlp_traces_sample["resourceSpans"]
        metrics_doc = report.otlp_metrics()
        point = metrics_doc["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][0]
        assert point["name"] == "fleet.downtime_ns"
        assert int(point["histogram"]["dataPoints"][0]["count"]) == 2


class TestContention:
    """The per-host resource model folded into the fleet timeline."""

    def _contended(self, **overrides):
        config = dict(n=8, seeds=(1, 2), max_inflight=8, hosts=2)
        config.update(overrides)
        return FleetRunner(FleetConfig(**config)).run()

    def test_hosts_config_validates(self):
        with pytest.raises(ValueError):
            FleetConfig(hosts=-1)
        with pytest.raises(ValueError):
            FleetConfig(hosts=2, epc_per_host=0)
        with pytest.raises(ValueError):
            FleetConfig(hosts=2, bw_per_host=0)

    def test_series_key_carries_the_host_shape(self):
        config = FleetConfig(n=4, hosts=2, epc_per_host=16, bw_per_host=1000)
        assert config.series_key().endswith("_hosts2_epc16_bw1000")

    def test_oversubscription_produces_typed_nonzero_queueing(self):
        report = self._contended()
        assert report.total_queued_ns > 0
        kinds_seen = {
            kind
            for record in report.records
            for kind, ns, _ in record.waits
            if ns > 0
        }
        assert kinds_seen, "an oversubscribed fleet must queue"
        for record in report.records:
            # Conservation: wall ≡ running + Σ typed waits, per record.
            assert record.wall_ns == record.duration_ns + record.queued_ns

    def test_without_hosts_nothing_changes(self):
        report = _report(n=3)
        assert report.host_model is None
        assert report.total_queued_ns == 0
        assert all(not r.waits for r in report.records)
        assert report.contention_payload() == {}

    def test_capacity_is_never_exceeded(self):
        report = self._contended(n=10)
        for util in report.host_utilization:
            assert util.peak <= util.capacity

    def test_waits_surface_as_run_scope_metrics(self):
        report = self._contended()
        queued = [r for r in report.records if r.queued_ns > 0]
        assert queued
        # A queued migration's wall time covers its waits on top of its
        # own running time.
        for record in queued:
            assert record.wall_ns > record.duration_ns

    def test_top_spans_captured_for_blame(self):
        report = self._contended(n=4)
        ok = [r for r in report.records if r.status == "ok"]
        assert ok
        for record in ok:
            assert record.top_spans
            assert all({"name", "duration_ns"} <= set(s) for s in record.top_spans)
        assert set(report.inner_paths) == {r.mig_id for r in ok}

    def test_contended_runs_are_byte_identical(self):
        a = self._contended(n=6)
        b = self._contended(n=6)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_contention_bench_is_byte_identical(self, tmp_path):
        from repro.fleet import write_contention_bench

        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        path_a = write_contention_bench(self._contended(n=6), bench_dir=str(dir_a))
        path_b = write_contention_bench(self._contended(n=6), bench_dir=str(dir_b))
        assert path_a and path_a.endswith("BENCH_fleet_contention.json")
        assert open(path_a, "rb").read() == open(path_b, "rb").read()
        with open(path_a, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        series = payload["n6_seeds1-2_inflight8_hosts2_epc32_bw1048576"]
        assert series["queueing_p99_ns"] > 0
        assert 0 < series["epc_util_pct"] <= 100
        assert 0 < series["bw_util_pct"] <= 100

    def test_contention_bench_without_hosts_is_a_no_op(self, tmp_path):
        from repro.fleet import write_contention_bench

        assert write_contention_bench(_report(n=2), bench_dir=str(tmp_path)) is None

    def test_otlp_carries_queueing_and_utilization(self):
        report = self._contended(n=6)
        metrics = report.otlp_metrics()["resourceMetrics"][0]["scopeMetrics"][0][
            "metrics"
        ]
        names = [m["name"] for m in metrics]
        assert "fleet.queued_ns" in names
        assert "fleet.host.epc_used" in names
        assert "fleet.host.bandwidth_used" in names
        gauge = next(m for m in metrics if m["name"] == "fleet.host.epc_used")
        assert gauge["gauge"]["dataPoints"], "utilization timeline exports points"
