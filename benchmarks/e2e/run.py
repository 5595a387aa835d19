"""Run one benchmark workload in this process and print its result.

    python3 benchmarks/e2e/run.py --workload chain-hops --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/repro`` must exist).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every correctness check passed.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench")
    parser.add_argument("--details", help="also write the full result as JSON here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    # Flight-recorder dumps would land wherever this points; keep every
    # write inside the checkout.
    os.environ.pop("REPRO_FLIGHT_DIR", None)
    from benchmarks.e2e.runner import emit, run_workload
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, import_s
    )
    if args.details:
        with open(args.details, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    emit(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
