"""The command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "repro.migration" in out
        assert "§VII-B" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "migrated" in out
        assert "MRENCLAVE" in out

    def test_attack_consistency(self, capsys):
        assert main(["attack", "consistency"]) == 0
        out = capsys.readouterr().out
        assert "TORN" in out
        assert "CONSISTENT" in out

    def test_attack_tamper(self, capsys):
        assert main(["attack", "tamper"]) == 0
        out = capsys.readouterr().out
        assert "detected=True" in out

    def test_vm_baseline(self, capsys):
        assert main(["vm", "--enclaves", "0", "--seed", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "downtime" in out

    def test_vm_with_enclaves(self, capsys):
        assert main(["vm", "--enclaves", "2", "--seed", "cli-test-2"]) == 0
        out = capsys.readouterr().out
        assert "checkpointing" in out

    def test_faults_no_plan(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "COMPLETED" in out
        assert "(none)" in out  # no faults fired

    def test_faults_survivable_plan(self, capsys):
        assert main(["faults", "--plan", "drop:kmigrate,corrupt:checkpoint-chunk:2"]) == 0
        out = capsys.readouterr().out
        assert "COMPLETED" in out
        assert "drop" in out and "corrupt" in out

    def test_faults_fatal_plan_exits_nonzero(self, capsys):
        assert main(["faults", "--plan", "crash:target:restore"]) == 1
        out = capsys.readouterr().out
        assert "ABORTED" in out
        assert "'aborts': 1" in out

    def test_faults_abort_prose_shows_the_sealed_store(self, capsys):
        """The prose renders the same report as --json, storage included."""
        argv = ["faults", "--storage", "--plan", "crash:target:restore"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert main([*argv, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert set(report["storage"]) == {
            "storage/source/cli-faults", "storage/target/cli-faults"
        }
        for ns, digest in report["storage"].items():
            assert f"sealed store {ns}: blob sha256 {digest['sha256']} " in out
        assert out.index("sealed store") < out.index("outcome: ABORTED")

    def test_faults_unchunked(self, capsys):
        assert main(["faults", "--chunk-bytes", "0"]) == 0
        assert "COMPLETED" in capsys.readouterr().out

    def test_faults_bad_plan_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "--plan", "explode:everything"])

    def test_faults_reference_comparison(self, capsys):
        """A survivable plan must also *match* the fault-free reference."""
        assert main(["faults", "--plan", "delay:kmigrate"]) == 0
        out = capsys.readouterr().out
        assert "DIVERGED" not in out
        assert "COMPLETED" in out

    def test_recover_crash_point(self, capsys):
        assert main(["recover", "--plan", "crash-record:target:2"]) == 0
        out = capsys.readouterr().out
        assert "recovery: completed" in out
        assert "invariants: CLEAN" in out

    def test_recover_spent_source_stays_spent(self, capsys):
        assert main(["recover", "--plan", "crash-record:source:3"]) == 0
        out = capsys.readouterr().out
        assert "live instances: 0" in out
        assert "invariants: CLEAN" in out

    def test_recover_crash_pair_redrives(self, capsys):
        """A second crash inside recovery re-drives instead of refusing."""
        assert main(["recover", "--plan", "crash-record:source:2+source:3"]) == 0
        out = capsys.readouterr().out
        assert "crash during recovery (re-driving)" in out
        assert "invariants: CLEAN" in out

    def test_recover_crash_pair_json_counts_drives(self, capsys):
        assert main(
            ["recover", "--plan", "crash-record:source:2+source:3", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recoveries"] == 2
        assert report["crashes_in_recovery"]
        assert report["invariants_clean"] is True

    def test_recover_refusal_keeps_earlier_crashes(self, capsys, monkeypatch):
        """A refusal after an in-recovery crash still reports that crash."""
        from repro.durability import recovery
        from repro.errors import PartyCrash, RecoveryError

        drives = []

        class CrashThenRefuse:
            def __init__(self, *args, **kwargs):
                pass

            def recover(self):
                drives.append(1)
                if len(drives) == 1:
                    raise PartyCrash("source", 7)
                raise RecoveryError("journal unreadable")

        monkeypatch.setattr(recovery, "MigrationRecovery", CrashThenRefuse)
        plan = ["recover", "--plan", "crash-record:orchestrator:5"]
        assert main(plan) == 3
        out = capsys.readouterr().out
        crash = str(PartyCrash("source", 7))
        crash_line = f"crash during recovery (re-driving): {crash}"
        assert out.index(crash_line) < out.index("recovery REFUSED: RecoveryError")
        drives.clear()
        assert main([*plan, "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "refused"
        assert report["crashes_in_recovery"] == [crash]

    def test_recover_requires_crash_record_fault(self):
        with pytest.raises(SystemExit):
            main(["recover", "--plan", "drop:kmigrate"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_attack_rejected(self):
        with pytest.raises(SystemExit):
            main(["attack", "voodoo"])


class TestTelemetryCli:
    def test_trace_chrome_is_valid_and_matches_downtime(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        assert main(["trace", "--format", "chrome", "--out", str(trace_path)]) == 0
        assert main(["metrics", "--out", str(prom_path)]) == 0
        doc = json.loads(trace_path.read_text())
        (stop_and_copy,) = [
            e
            for e in doc["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "migration.stop_and_copy"
        ]
        downtime_line = next(
            line
            for line in prom_path.read_text().splitlines()
            if line.startswith("migration_downtime_ns ")
        )
        downtime_ns = int(downtime_line.split()[-1])
        assert stop_and_copy["dur"] * 1_000 == downtime_ns
        assert downtime_ns > 0

    def test_trace_report_format(self, capsys):
        assert main(["trace", "--format", "report"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["figures"]["downtime_ns"] > 0
        assert report["per_phase_ns"]["stop-and-copy"] > 0

    def test_metrics_require_present(self, capsys):
        assert main(["metrics", "--require", "migration.downtime_ns"]) == 0

    def test_metrics_require_missing_fails(self, capsys):
        assert main(["metrics", "--require", "no.such.metric"]) == 1
        assert "absent or zero" in capsys.readouterr().out

    def test_faults_json_report(self, capsys):
        assert main(["faults", "--plan", "drop:kmigrate", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "completed"
        assert report["counter"] == report["reference_counter"]
        assert report["timeline"]["figures"]["downtime_ns"] > 0

    def test_faults_json_abort_exit_code(self, capsys):
        assert main(["faults", "--plan", "crash:target:restore", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "aborted"
        assert report["stats"]["aborts"] == 1

    def test_recover_json_report(self, capsys):
        assert main(["recover", "--plan", "crash-record:target:2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "completed"
        assert report["invariants_clean"] is True
        assert report["live_instances"] == 1


class TestExplainCli:
    def test_explain_text_report(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "migration critical path" in out
        assert "100.0%" in out
        assert "migration.stop_and_copy" in out

    def test_explain_json_is_deterministic(self, capsys):
        assert main(["explain", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["explain", "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        for anchor in (report["total"], report["downtime"]):
            assert anchor["attributed_ns"] == anchor["total_ns"]

    def test_explain_chrome_overlay(self, capsys, tmp_path):
        out_path = tmp_path / "explain.json"
        assert main(["explain", "--format", "chrome", "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert any(
            e.get("ph") == "X" and e.get("cat") == "critical-path"
            for e in doc["traceEvents"]
        )

    def test_explain_require_blame_present(self, capsys):
        assert main(["explain", "--require-blame", "stop_and_copy"]) == 0

    def test_explain_require_blame_missing_fails(self, capsys):
        assert main(["explain", "--require-blame", "no-such-unit"]) == 1
        assert "not on any blame path" in capsys.readouterr().out

    def test_explain_dot_export(self, capsys, tmp_path):
        out_path = tmp_path / "dag.dot"
        assert main(["explain", "--format", "dot", "--out", str(out_path)]) == 0
        dot = out_path.read_text()
        assert dot.startswith("digraph migration {")
        assert "cluster_" in dot  # party clusters
        assert "->" in dot
        assert dot.rstrip().endswith("}")

    def test_explain_text_shows_counterfactuals(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "counterfactuals" in out

    def test_explain_json_carries_counterfactuals(self, capsys):
        assert main(["explain", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        entries = report["counterfactuals"]
        assert entries
        top = entries[0]
        # "if <unit> were free, downtime = downtime - saved"
        assert top["downtime_ns"] == report["downtime"]["total_ns"] - top["saved_ns"]


class TestObservabilityCli:
    def test_snapshot_and_diff_round_trip(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        assert main(["snapshot", "seed=1,label=base", "--out", str(base)]) == 0
        capsys.readouterr()
        assert main(["diff", str(base), "seed=1"]) == 0
        out = capsys.readouterr().out
        assert "downtime unchanged" in out

    def test_diff_attributes_journal_perturbation(self, capsys):
        assert (
            main(
                [
                    "diff", "seed=1", "seed=1,journal-cost-ns=524000",
                    "--attribute", "journal.commit",
                    "--min-attributed-share", "80",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "journal.commit" in out
        assert "downtime +" in out

    def test_diff_attribution_gate_fails_on_wrong_unit(self, capsys):
        assert (
            main(
                [
                    "diff", "seed=1", "seed=1,journal-cost-ns=524000",
                    "--attribute", "establish-channel",
                    "--min-attributed-share", "80",
                ]
            )
            == 1
        )
        assert "below the required" in capsys.readouterr().out

    def test_diff_markdown_format(self, capsys):
        assert (
            main(
                [
                    "diff", "seed=1", "seed=1,journal-cost-ns=524000",
                    "--format", "markdown",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.lstrip().startswith("### repro diff")
        assert "| downtime contributor |" in out

    def test_profile_folded_deterministic(self, capsys):
        assert main(["profile"]) == 0
        first = capsys.readouterr().out
        assert main(["profile"]) == 0
        assert capsys.readouterr().out == first
        assert "migration.run" in first
        # folded line shape: frames;joined;by;semicolons <weight>
        line = next(l for l in first.splitlines() if "journal.commit" in l)
        frames, weight = line.rsplit(" ", 1)
        assert int(weight) > 0


class TestFleetCli:
    def test_fleet_runs_and_prints_snapshot(self, capsys):
        assert main(["fleet", "--n", "2", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2/2 done (0 failed, 0 faulted)" in out
        assert "downtime: p50 " in out
        assert "throughput: " in out

    def test_fleet_json_report_is_deterministic(self, capsys):
        argv = ["fleet", "--n", "3", "--seeds", "1,2", "--fault-every", "3", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["n"] == 3
        assert len(payload["records"]) == 3
        assert payload["records"][0]["faulted"] is True
        fired = payload["slo"]["violations"]
        assert any(v["objective"] == "downtime-budget" for v in fired)

    def test_fleet_watch_emits_frames(self, capsys):
        assert main(
            ["fleet", "--n", "4", "--seeds", "1", "--watch", "--frame-every", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "--- frame 1 ---" in out
        assert "--- frame 2 ---" in out

    def test_fleet_watch_with_json_keeps_stdout_one_document(self, capsys):
        assert main(
            [
                "fleet", "--n", "2", "--seeds", "1", "--fault-every", "2",
                "--watch", "--frame-every", "1", "--json",
            ]
        ) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert len(payload["records"]) == 2
        assert "--- frame 1 ---" in captured.err
        assert "--- frame" not in captured.out

    def test_fleet_writes_artifacts(self, capsys, tmp_path):
        console_path = tmp_path / "console.txt"
        otlp_dir = tmp_path / "otlp"
        bench_dir = tmp_path / "bench"
        assert main(
            [
                "fleet", "--n", "2", "--seeds", "1",
                "--console-out", str(console_path),
                "--otlp-out", str(otlp_dir),
                "--bench-dir", str(bench_dir),
            ]
        ) == 0
        assert console_path.read_text().startswith("fleet: 2/2 done")
        with open(otlp_dir / "fleet-metrics.otlp.json", encoding="utf-8") as fh:
            metrics_doc = json.load(fh)
        assert metrics_doc["resourceMetrics"]
        with open(otlp_dir / "sample-trace.otlp.json", encoding="utf-8") as fh:
            trace_doc = json.load(fh)
        assert trace_doc["resourceSpans"]
        with open(bench_dir / "BENCH_fleet.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        assert "n2_seeds1_inflight8" in bench

    def test_fleet_failed_migrations_exit_nonzero(self, capsys, monkeypatch):
        import functools

        from repro import fleet

        failing = functools.partial(fleet.FleetConfig, fault_spec="drop:checkpoint:1")
        monkeypatch.setattr(fleet, "FleetConfig", failing)
        assert main(["fleet", "--n", "1", "--seeds", "9", "--fault-every", "1"]) == 1
        assert "(1 failed" in capsys.readouterr().out

    def test_fleet_bad_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--n", "0"])


class TestFleetContentionCli:
    def test_hosts_flag_surfaces_queueing_in_console(self, capsys):
        assert main(
            ["fleet", "--n", "6", "--seeds", "1", "--hosts", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "queued: total " in out
        assert "host-00 epc" in out  # the utilization heatmap rides along

    def test_heatmap_and_contention_bench_artifacts(self, tmp_path, capsys):
        heat_path = tmp_path / "heatmap.txt"
        bench_dir = tmp_path / "bench"
        assert main(
            [
                "fleet", "--n", "6", "--seeds", "1", "--hosts", "2",
                "--heatmap-out", str(heat_path),
                "--bench-dir", str(bench_dir),
            ]
        ) == 0
        capsys.readouterr()
        assert "host-00 epc" in heat_path.read_text()
        with open(bench_dir / "BENCH_fleet_contention.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        series = bench["n6_seeds1_inflight8_hosts2_epc32_bw1048576"]
        assert series["queueing_p99_ns"] > 0
        assert 0 < series["epc_util_pct"] <= 100

    def test_json_report_carries_the_keys_the_ci_gate_reads(self, capsys):
        assert main(
            ["fleet", "--n", "6", "--seeds", "1", "--hosts", "2", "--json"]
        ) == 0
        hosts = json.loads(capsys.readouterr().out)["hosts"]
        assert set(hosts) == {
            "bw_bytes_per_sec", "count", "epc_pages", "queueing",
            "total_queued_ns", "utilization",
        }
        assert hosts["total_queued_ns"] > 0
        assert hosts["queueing"]["p99_ns"] > 0

    def test_blame_action_ranks_stragglers(self, capsys):
        assert main(
            ["fleet", "blame", "--n", "8", "--seeds", "1", "--hosts", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "straggler" in out
        assert "wait/" in out

    def test_blame_json_is_deterministic(self, capsys, tmp_path):
        blame_path = tmp_path / "blame.json"
        argv = [
            "fleet", "blame", "--n", "8", "--seeds", "1", "--hosts", "2",
            "--json", "--blame-out", str(blame_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        first = blame_path.read_text()
        assert main(argv) == 0
        capsys.readouterr()
        assert blame_path.read_text() == first
        payload = json.loads(first)
        assert payload["stragglers"]
        for straggler in payload["stragglers"]:
            assert straggler["attributed_pct"] >= 95.0

    def test_blame_without_hosts_defaults_to_four(self, capsys):
        assert main(["fleet", "blame", "--n", "4", "--seeds", "1"]) == 0
        # host-03 only exists when the implicit 4-host model kicked in.
        assert "host-03" in capsys.readouterr().out

    def test_no_hosts_keeps_legacy_output(self, capsys):
        assert main(["fleet", "--n", "2", "--seeds", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "hosts" not in payload
        assert "queued_ns" not in payload["records"][0]

    def test_trace_otlp_format(self, capsys):
        assert main(["trace", "--format", "otlp", "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert any(s["name"] == "migration.run" for s in spans)
        resource = doc["resourceSpans"][0]["resource"]["attributes"]
        keys = {kv["key"] for kv in resource}
        assert {"service.name", "migration.id", "seed"} <= keys

    def test_metrics_otlp_format(self, capsys):
        assert main(["metrics", "--format", "otlp", "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        metrics = doc["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        assert any(m["name"] == "migration.downtime_ns" for m in metrics)
