#!/usr/bin/env python
"""Benchmark regression ratchet.

Compares freshly generated ``BENCH_<figure>.json`` series against the
committed baselines and fails when any virtual-time metric regressed by
more than the tolerance (default 15%).  All tracked series are
lower-is-better quantities (checkpoint microseconds, downtime and total
nanoseconds, transferred bytes, pre-copy rounds), so the ratchet only
ever tightens: improvements are reported and become the new baseline
when the refreshed file is committed.

Usage (CI runs exactly this; see .github/workflows/ci.yml):

    REPRO_BENCH_DIR=fresh-bench python -m pytest benchmarks -q --ignore=benchmarks/e2e
    python scripts/bench_ratchet.py --fresh-dir fresh-bench \
        --report ratchet-report.json

Exit status: 0 when every metric is within tolerance, 1 on regression or
a metric that disappeared from the fresh run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_FIGURES = ("fig9", "fig10", "fleet", "fleet_contention")
DEFAULT_MAX_REGRESSION = 0.15

#: Leaf keys that are annotations, not measurements.
_NON_METRIC_KEYS = {"unit", "series"}


def iter_numeric_leaves(tree, prefix=()):
    """Yield (path, value) for every numeric leaf of a nested dict."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            if key in _NON_METRIC_KEYS:
                continue
            yield from iter_numeric_leaves(value, prefix + (str(key),))
    elif isinstance(tree, bool):
        return
    elif isinstance(tree, (int, float)):
        yield prefix, float(tree)


def compare_series(baseline: dict, fresh: dict, max_regression: float) -> list[dict]:
    """Compare two figure trees; one finding per baseline metric.

    A metric regresses when the fresh value exceeds the baseline by more
    than ``max_regression`` (relative).  A metric missing from a series
    the fresh run *did* regenerate also fails — a vanishing data point
    must not read as green.  A whole top-level series absent from the
    fresh run is merely "not-regenerated": ``write_bench_json`` merges
    per-series, so partial refreshes (and frozen before/after records
    like ``fig9c_before_hot_path_fix``) are expected.  Metrics that only
    exist in the fresh run are informational (no baseline to regress
    against yet).
    """
    base_leaves = dict(iter_numeric_leaves(baseline))
    fresh_leaves = dict(iter_numeric_leaves(fresh))
    findings = []
    for path, base in sorted(base_leaves.items()):
        name = "/".join(path)
        if path not in fresh_leaves:
            if path[0] not in fresh:
                findings.append(
                    {"metric": name, "status": "not-regenerated", "baseline": base}
                )
            else:
                findings.append({"metric": name, "status": "missing", "baseline": base})
            continue
        value = fresh_leaves[path]
        delta = (value - base) / base if base else (1.0 if value > base else 0.0)
        status = "regressed" if delta > max_regression else (
            "improved" if delta < -0.005 else "ok"
        )
        findings.append(
            {
                "metric": name,
                "status": status,
                "baseline": base,
                "fresh": value,
                "delta_pct": round(100 * delta, 2),
            }
        )
    for path in sorted(fresh_leaves.keys() - base_leaves.keys()):
        findings.append(
            {"metric": "/".join(path), "status": "new", "fresh": fresh_leaves[path]}
        )
    return findings


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_ratchet(
    figures=DEFAULT_FIGURES,
    baseline_dir: str = REPO_ROOT,
    fresh_dir: str | None = None,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> dict:
    """Compare every figure file; returns the full report dict."""
    fresh_dir = fresh_dir or os.environ.get("REPRO_BENCH_DIR", REPO_ROOT)
    report = {"max_regression": max_regression, "figures": {}, "failed": False}
    for figure in figures:
        base_path = os.path.join(baseline_dir, f"BENCH_{figure}.json")
        fresh_path = os.path.join(fresh_dir, f"BENCH_{figure}.json")
        if not os.path.exists(base_path):
            # No committed baseline yet: nothing to ratchet against.
            report["figures"][figure] = {"status": "no-baseline"}
            continue
        if not os.path.exists(fresh_path):
            report["figures"][figure] = {"status": "no-fresh-run"}
            report["failed"] = True
            continue
        findings = compare_series(_load(base_path), _load(fresh_path), max_regression)
        bad = [f for f in findings if f["status"] in ("regressed", "missing")]
        report["figures"][figure] = {
            "status": "regressed" if bad else "ok",
            "findings": findings,
        }
        if bad:
            report["failed"] = True
    return report


def attribute_regression(
    baseline_snapshot: str,
    spec: str = "seed=1",
    report_path: str | None = None,
) -> str | None:
    """On ratchet failure: *why* did the numbers move?

    Re-runs the canonical migration (``spec``), diffs it against the
    committed baseline run snapshot, and returns the ranked blame report
    ("downtime +1.4 ms, 92% from journal.commit") as text.  Returns None
    when the baseline snapshot is absent or the diff cannot be built —
    attribution is best-effort color on a failure that already happened,
    never a reason to mask it.
    """
    if not os.path.exists(baseline_snapshot):
        return None
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        from repro.telemetry.diff import diff_runs, resolve_run
        from repro.telemetry.exporters import json_safe

        diff = diff_runs(resolve_run(baseline_snapshot), resolve_run(spec))
    except Exception as exc:  # pragma: no cover - defensive best-effort
        return f"(attribution unavailable: {type(exc).__name__}: {exc})"
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(diff.render_markdown())
    return diff.render_text()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--figure", action="append", dest="figures",
        help="figure name (fig9, fig10); repeatable, default both",
    )
    parser.add_argument("--baseline-dir", default=REPO_ROOT)
    parser.add_argument(
        "--fresh-dir", default=None,
        help="where the fresh BENCH files were written (default: $REPRO_BENCH_DIR)",
    )
    parser.add_argument("--max-regression", type=float, default=DEFAULT_MAX_REGRESSION)
    parser.add_argument("--report", default=None, help="write the JSON report here")
    parser.add_argument(
        "--attribution-baseline",
        default=os.path.join(REPO_ROOT, "BENCH_baseline_run.json"),
        help="committed run snapshot to diff a failing run against",
    )
    parser.add_argument(
        "--attribution-spec", default="seed=1",
        help="run spec to re-run for attribution (see `repro diff`)",
    )
    parser.add_argument(
        "--attribution-report", default=None,
        help="on failure, write the attribution as markdown here",
    )
    args = parser.parse_args(argv)

    report = run_ratchet(
        figures=tuple(args.figures) if args.figures else DEFAULT_FIGURES,
        baseline_dir=args.baseline_dir,
        fresh_dir=args.fresh_dir,
        max_regression=args.max_regression,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for figure, entry in report["figures"].items():
        print(f"[{figure}] {entry['status']}")
        for finding in entry.get("findings", []):
            if finding["status"] != "ok":
                print(
                    f"  {finding['status']:>9}  {finding['metric']}"
                    f"  baseline={finding.get('baseline')}"
                    f"  fresh={finding.get('fresh')}"
                    f"  delta={finding.get('delta_pct')}%"
                )
    if report["failed"]:
        print("ratchet: FAILED (regression or missing metric)", file=sys.stderr)
        attribution = attribute_regression(
            args.attribution_baseline,
            spec=args.attribution_spec,
            report_path=args.attribution_report,
        )
        if attribution:
            print("\n-- regression attribution (repro diff vs committed baseline)")
            print(attribution)
        return 1
    print("ratchet: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
