"""Command line: ``PYTHONPATH=src:. python -m benchmarks.e2e <command>``.

``run``       run workloads, each in its own fresh ``python`` subprocess
              (``run.py``), print every metric and optionally save them;
``compare``   apply the ``BENCHMARK.json`` bounds to two saved results;
``reference`` regenerate the exact virtual references in ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from benchmarks.e2e.runner import HERE, OUT_DIR, REFERENCE_PATH

ROOT = HERE.parents[1]
RUN_PY = HERE / "run.py"
#: Virtual metrics are deterministic, so any change at all is a change.
VIRTUAL_BOUND = {"better": "lower", "bound": 0.0}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale: str = "bench") -> dict:
    """Run ``run.py`` in a fresh interpreter; returns its full result."""
    OUT_DIR.mkdir(exist_ok=True)
    details = OUT_DIR / f"details-{workload}-{seed}-{int(trace)}.json"
    details.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--scale", scale,
        "--details", str(details),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if not details.exists():
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    with open(details, encoding="utf-8") as fh:
        result = json.load(fh)
    details.unlink()
    result["stdout"] = proc.stdout
    return result


def _workloads(args) -> tuple[str, ...]:
    return args.names if args.workload == "all" else (args.workload,)


def cmd_run(args) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs, ok = [], True
    for workload in _workloads(args):
        modes = [False] * args.repeat + ([True] if args.trace else [])
        for trace in modes:
            result = run_one(workload, args.seed, seconds, trace)
            print("\n".join(result.pop("stdout").splitlines()[:-1]), flush=True)
            failed_share = result["failed"] / max(1, result["attempted"])
            print(f"  failed_share {failed_share:.4f} ratio\n", flush=True)
            ok = ok and result["correct"]
            runs.append(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


# ------------------------------------------------------------------- compare
def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """better / same / worse / unresolved for one (metric, workload) pair.

    ``delta`` is the change of the median, signed so that positive means
    worse.  A side whose quartile spread exceeds the bound leaves the pair
    unresolved unless every run of B beats every run of A.
    """
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = _quartiles(a)
    b_q1, b_med, b_q3 = _quartiles(b)
    delta = sign * (b_med - a_med) / a_med if a_med else 0.0
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_med if a_med else 0.0
    if spread > bound:
        wins = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if wins else "unresolved"), delta
    if delta > bound:
        return "worse", delta
    if delta < -bound:
        return "better", delta
    return "same", delta


def _values(runs: list[dict], section: str, name: str) -> list[float]:
    return [r[section][name]["value"] for r in runs if name in r.get(section, {})]


def cmd_compare(args) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    loaded = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            loaded.append([r for r in json.load(fh)["runs"] if not r["header"]["trace"]])
    order = {"worse": 3, "unresolved": 2, "better": 1, "same": 0}
    worst_overall = "same"
    for workload in args.names:
        a = [r for r in loaded[0] if r["header"]["workload"] == workload]
        b = [r for r in loaded[1] if r["header"]["workload"] == workload]
        if not a or not b:
            continue
        cells, worst = [], "same"
        same_seeds = {r["header"]["seed"] for r in a} == {r["header"]["seed"] for r in b}
        checks = [("metrics", name, m) for name, m in bounds.items()]
        if same_seeds:
            virtual = a[0].get("virtual_metrics", {})
            checks += [("virtual_metrics", name, VIRTUAL_BOUND) for name in virtual]
        for section, name, m in checks:
            va, vb = _values(a, section, name), _values(b, section, name)
            if not va or not vb:
                continue
            result, delta = verdict(va, vb, m["better"], m["bound"])
            cells.append(f"{name}={result}({100 * delta:+.1f}%)")
            if order[result] > order[worst]:
                worst = result
        print(f"{workload:12s} {worst:10s} " + " ".join(cells))
        if order[worst] > order[worst_overall]:
            worst_overall = worst
    return 1 if worst_overall == "worse" else 0


# ----------------------------------------------------------------- reference
def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_reference(args) -> int:
    reference = {}
    if REFERENCE_PATH.exists():
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
    for workload in _workloads(args):
        for seed in _seed_range(args.seeds):
            result = run_one(workload, seed, 0, False)
            other = [f for f in result["failures"] if not f.startswith("reference:")]
            if other or "virtual" not in result:
                print(f"{workload} seed {seed}: not recorded: {other}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = result["virtual"]
            print(f"{workload} seed {seed}: {result['virtual']}", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    names = tuple(w["name"] for w in load_spec()["workloads"])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads in fresh subprocesses")
    run.add_argument("--workload", default="all", choices=("all", *names))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--trace", action="store_true", help="add one traced run per workload")
    run.add_argument("--repeat", type=int, default=1, help="untraced runs per workload")
    run.add_argument("--out", help="save every run's result as JSON")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="apply the bounds to two saved results")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=cmd_compare)
    ref = sub.add_parser("reference", help="regenerate reference.json")
    ref.add_argument("--workload", default="all", choices=("all", *names))
    ref.add_argument("--seeds", default="1-20", help="inclusive range, e.g. 1-20")
    ref.set_defaults(func=cmd_reference)
    args = parser.parse_args(argv)
    args.names = names
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
