"""Unit tests for the benchmark regression ratchet comparator."""

from __future__ import annotations

import json
import sys
import os

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

from bench_ratchet import (  # noqa: E402
    FAILING,
    FROZEN_SERIES,
    attribute_regression,
    compare_series,
    describe,
    main,
    run_ratchet,
)


BASELINE = {
    "fig9c": {
        "unit": "us",
        "series": "avg checkpoint",
        "avg_checkpoint_us": {"1": 500.0, "8": 1200.0},
    }
}


def _fresh(one: float, eight: float) -> dict:
    return {
        "fig9c": {
            "unit": "us",
            "series": "avg checkpoint",
            "avg_checkpoint_us": {"1": one, "8": eight},
        }
    }


class TestComparator:
    """Virtual series are deterministic: any change at all fails."""

    def test_unchanged_series_is_ok(self):
        findings = compare_series(BASELINE, _fresh(500.0, 1200.0))
        assert all(f["status"] == "ok" for f in findings)

    def test_any_increase_fails(self):
        findings = compare_series(BASELINE, _fresh(500.0, 1200.5))
        by_metric = {f["metric"]: f for f in findings}
        assert by_metric["fig9c/avg_checkpoint_us/8"]["status"] == "changed"
        assert by_metric["fig9c/avg_checkpoint_us/8"]["fresh"] == 1200.5
        assert by_metric["fig9c/avg_checkpoint_us/1"]["status"] == "ok"

    def test_any_decrease_fails(self):
        findings = compare_series(BASELINE, _fresh(250.0, 600.0))
        assert all(f["status"] == "changed" for f in findings)

    def test_header_key_bytes_fail_and_are_named(self):
        """The 20 bytes a checkpoint-header key added per enclave moved
        fig10bcd's transferred bytes by 20; the ratchet must refuse that
        and name the series and the leaf with both values."""
        baseline = {
            "fig10bcd": {
                "series": "whole-VM live migration",
                "enclaves": {"64": {"transferred_bytes": 1161781222}},
            }
        }
        fresh = {
            "fig10bcd": {
                "series": "whole-VM live migration",
                "enclaves": {"64": {"transferred_bytes": 1161781242}},
            }
        }
        (finding,) = compare_series(baseline, fresh)
        assert finding["status"] == "changed"
        assert describe(finding) == (
            "changed: series fig10bcd, leaf enclaves/64/transferred_bytes:"
            " baseline=1161781222 fresh=1161781242"
        )

    def test_missing_metric_fails(self):
        fresh = {"fig9c": {"avg_checkpoint_us": {"1": 500.0}}}
        findings = compare_series(BASELINE, fresh)
        statuses = {f["metric"]: f["status"] for f in findings}
        assert statuses["fig9c/avg_checkpoint_us/8"] == "missing"

    def test_frozen_series_not_regenerated_is_not_a_failure(self):
        """The named frozen records live only in the committed baseline;
        a fresh bench run never rewrites them, so their absence is
        informational.  Any other absent series fails
        (test_absent_series_fails)."""
        assert FROZEN_SERIES == {"fig9c_before_hot_path_fix"}
        baseline = BASELINE | {
            "fig9c_before_hot_path_fix": {"avg_checkpoint_us": {"8": 3003.0}}
        }
        findings = compare_series(baseline, _fresh(500.0, 1200.0))
        statuses = {f["metric"]: f["status"] for f in findings}
        assert (
            statuses["fig9c_before_hot_path_fix/avg_checkpoint_us/8"]
            == "not-regenerated"
        )
        bad = [f for f in findings if f["status"] in FAILING]
        assert not bad

    def test_absent_series_fails(self):
        """A bench that stopped writing fig10a must not read green."""
        baseline = {
            "fig10a": {"per_enclave_us": {"1": 544.0}},
            "fig10bcd": {"enclaves": {"64": {"downtime_ns": 32}}},
        }
        fresh = {"fig10bcd": {"enclaves": {"64": {"downtime_ns": 32}}}}
        findings = compare_series(baseline, fresh)
        statuses = {f["metric"]: f["status"] for f in findings}
        assert statuses["fig10a/per_enclave_us/1"] == "missing"
        assert statuses["fig10bcd/enclaves/64/downtime_ns"] == "ok"
        assert [f["metric"] for f in findings if f["status"] in FAILING] == [
            "fig10a/per_enclave_us/1"
        ]

    def test_new_metric_is_informational(self):
        findings = compare_series(BASELINE, _fresh(500.0, 1200.0) | {"extra": 1.0})
        statuses = {f["metric"]: f["status"] for f in findings}
        assert statuses["extra"] == "new"
        assert not [f for f in findings if f["status"] in FAILING]

    def test_unit_and_series_annotations_ignored(self):
        findings = compare_series(BASELINE, _fresh(500.0, 1200.0))
        assert not any("unit" in f["metric"] or "series" in f["metric"] for f in findings)


class TestRunRatchet:
    def _write(self, directory, payload):
        path = directory / "BENCH_fig9.json"
        path.write_text(json.dumps(payload))
        return str(directory)

    def test_end_to_end_ok(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir(), fresh_dir.mkdir()
        self._write(base_dir, BASELINE)
        self._write(fresh_dir, _fresh(500.0, 1200.0))
        report = run_ratchet(("fig9",), str(base_dir), str(fresh_dir))
        assert not report["failed"]
        assert report["figures"]["fig9"]["status"] == "ok"

    def test_end_to_end_regression_fails_cli(self, tmp_path, capsys):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir(), fresh_dir.mkdir()
        self._write(base_dir, BASELINE)
        self._write(fresh_dir, _fresh(900.0, 1200.0))
        report_path = tmp_path / "report.json"
        code = main(
            [
                "--figure", "fig9",
                "--baseline-dir", str(base_dir),
                "--fresh-dir", str(fresh_dir),
                "--report", str(report_path),
                # keep this unit test hermetic: no attribution re-run
                "--attribution-baseline", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["failed"]
        assert (
            "changed: series fig9c, leaf avg_checkpoint_us/1:"
            " baseline=500.0 fresh=900.0"
        ) in capsys.readouterr().out

    def test_missing_fresh_run_fails(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir(), fresh_dir.mkdir()
        self._write(base_dir, BASELINE)
        report = run_ratchet(("fig9",), str(base_dir), str(fresh_dir))
        assert report["failed"]
        assert report["figures"]["fig9"]["status"] == "no-fresh-run"

    def test_no_baseline_is_not_a_failure(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir(), fresh_dir.mkdir()
        self._write(fresh_dir, _fresh(1.0, 2.0))
        report = run_ratchet(("fig9",), str(base_dir), str(fresh_dir))
        assert not report["failed"]
        assert report["figures"]["fig9"]["status"] == "no-baseline"


class TestAttribution:
    REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")

    def test_absent_baseline_snapshot_yields_none(self, tmp_path):
        assert attribute_regression(str(tmp_path / "missing.json")) is None

    def test_failure_prints_attribution(self, tmp_path, capsys):
        """A forced ratchet failure must print the repro-diff blame
        report against the committed baseline run snapshot."""
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir(), fresh_dir.mkdir()
        (base_dir / "BENCH_fig9.json").write_text(json.dumps(BASELINE))
        (fresh_dir / "BENCH_fig9.json").write_text(json.dumps(_fresh(900.0, 1200.0)))
        report_md = tmp_path / "attribution.md"
        code = main(
            [
                "--figure", "fig9",
                "--baseline-dir", str(base_dir),
                "--fresh-dir", str(fresh_dir),
                "--attribution-baseline",
                os.path.join(self.REPO_ROOT, "BENCH_baseline_run.json"),
                # perturbed spec: the attribution must blame the journal
                "--attribution-spec", "seed=1,journal-cost-ns=524000",
                "--attribution-report", str(report_md),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "regression attribution" in out
        assert "journal.commit" in out
        assert "of delta" in out
        md = report_md.read_text()
        assert "journal.commit" in md and md.startswith("###")

    def test_committed_baseline_snapshot_diffs_clean_against_itself(self):
        snapshot = os.path.join(self.REPO_ROOT, "BENCH_baseline_run.json")
        assert os.path.exists(snapshot)
        text = attribute_regression(snapshot, spec=snapshot)
        assert "downtime unchanged" in text


def test_committed_baselines_pass_against_themselves():
    """The repo's own BENCH files must ratchet cleanly against
    themselves — a self-comparison that fails means the comparator or
    the committed files are broken."""
    repo_root = os.path.join(os.path.dirname(__file__), "..")
    report = run_ratchet(baseline_dir=repo_root, fresh_dir=repo_root)
    assert not report["failed"], report
