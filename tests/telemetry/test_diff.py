"""Run comparison: snapshots, alignment, and regression attribution.

The load-bearing test is the acceptance gate: perturb the journal
commit cost, diff against the unperturbed run, and at least 80% of the
downtime delta must land on ``journal.commit`` contributors.
"""

import dataclasses
import json

import pytest

from repro.sim.costs import DEFAULT_COSTS
from repro.telemetry.diff import (
    RunSnapshot,
    diff_runs,
    resolve_run,
)
from repro.telemetry.runs import run_seeded_migration


@pytest.fixture(scope="module")
def base_snapshot():
    return RunSnapshot.capture(run_seeded_migration(seed=1), label="base")


@pytest.fixture(scope="module")
def perturbed_snapshot():
    costs = dataclasses.replace(
        DEFAULT_COSTS, journal_commit_ns=DEFAULT_COSTS.journal_commit_ns * 4
    )
    return RunSnapshot.capture(
        run_seeded_migration(seed=1, costs=costs), label="journal-x4"
    )


class TestSnapshot:
    def test_capture_shape(self, base_snapshot):
        assert base_snapshot.figures["downtime_ns"] > 0
        assert base_snapshot.figures["total_ns"] >= base_snapshot.figures["downtime_ns"]
        assert any("journal.commit" in key for key in base_snapshot.spans)
        assert base_snapshot.critical["downtime"]
        assert base_snapshot.critical["total"]

    def test_round_trip_via_file(self, base_snapshot, tmp_path):
        path = tmp_path / "run.json"
        base_snapshot.save(str(path))
        loaded = RunSnapshot.load(str(path))
        assert loaded.figures == base_snapshot.figures
        assert loaded.spans == base_snapshot.spans
        # saved JSON is valid and stable
        assert json.loads(path.read_text())["label"] == "base"

    def test_resolve_run_accepts_path_and_spec(self, base_snapshot, tmp_path):
        path = tmp_path / "run.json"
        base_snapshot.save(str(path))
        assert resolve_run(str(path)).figures == base_snapshot.figures
        spec = resolve_run("seed=1,label=spec")
        assert spec.figures == base_snapshot.figures

    def test_resolve_run_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            resolve_run("seed=1,frobnicate=3")
        with pytest.raises(ValueError):
            resolve_run("just-nonsense")


class TestDiff:
    def test_identical_runs_diff_to_nothing(self, base_snapshot):
        other = RunSnapshot.capture(run_seeded_migration(seed=1), label="again")
        diff = diff_runs(base_snapshot, other)
        assert diff.downtime_delta_ns == 0
        assert diff.downtime_attribution == []
        assert diff.span_deltas == []
        assert diff.headline() == "downtime unchanged"

    def test_attribution_meets_80_percent_gate(
        self, base_snapshot, perturbed_snapshot
    ):
        """The acceptance criterion: a +journal-cost perturbation must be
        blamed on journal.commit for >= 80% of the downtime delta."""
        diff = diff_runs(base_snapshot, perturbed_snapshot)
        assert diff.downtime_delta_ns > 0
        assert diff.attributed_share("journal.commit") >= 80.0
        # and the top mover in the ranked list is a journal.commit unit
        assert "journal.commit" in diff.downtime_attribution[0].key

    def test_headline_names_the_culprit(self, base_snapshot, perturbed_snapshot):
        headline = diff_runs(base_snapshot, perturbed_snapshot).headline()
        assert "downtime +" in headline
        assert "journal.commit" in headline

    def test_renders(self, base_snapshot, perturbed_snapshot):
        diff = diff_runs(base_snapshot, perturbed_snapshot)
        text = diff.render_text()
        assert "journal.commit" in text and "% of delta" in text
        md = diff.render_markdown()
        assert md.count("|") > 10 and "journal.commit" in md

    def test_share_is_signed(self, base_snapshot, perturbed_snapshot):
        # Diffing the other way round: downtime *improved*, and the same
        # contributors explain the (negative) delta with positive share.
        diff = diff_runs(perturbed_snapshot, base_snapshot)
        assert diff.downtime_delta_ns < 0
        assert diff.attributed_share("journal.commit") >= 80.0
