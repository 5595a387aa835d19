#!/usr/bin/env python
"""Golden CLI outputs: rewrite ``tests/golden/`` from the current tree.

Each entry of :data:`CASES` is one ``repro`` invocation.  Its golden
file holds the command, its exit code and its stdout, generated
in-process through :func:`repro.cli.main`; ``tests/test_golden.py``
regenerates every case and fails on the first byte that differs.  Run
this script after a change that means to move an output, and name the
mechanism that moved it in CHANGES.md:

    PYTHONPATH=src python scripts/regen_golden.py

It rewrites every case's file and deletes any golden file that no case
produces, so a removed surface takes its golden with it.

Every output is the same under either crypto backend except the OTLP
resource's ``crypto.backend`` value, which names the active backend.
The goldens hold :data:`GOLDEN_BACKEND` there, and the check puts the
active backend's name in its place before it compares.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: The invocations pinned, as typed after ``repro``.
CASES = (
    "demo",
    "trace --seed 1 --format chrome",
    "trace --seed 1 --format otlp",
    "trace --seed 1 --format report",
    "trace --seed 1 --vm --format report",
    "metrics --seed 1 --format prom",
    "metrics --seed 1 --format otlp",
    "explain --seed 1 --format text",
    "explain --seed 1 --format json",
    "explain --seed 1 --format dot",
    "explain --seed 1 --format chrome",
    "profile --seed 1",
    "faults --storage --json",
    "faults --json --plan crash:target:restore",
    "faults --storage --plan drop:kmigrate",
    "recover --json --plan crash-record:orchestrator:7",
    "recover --json --plan crash-record:target:3",
    "recover --json --storage --plan crash-record:orchestrator:9",
    "recover --storage --plan crash-record:target:2",
    "vm --enclaves 2 --agent",
    "fleet --n 4 --seeds 1,2 --json",
    "diff seed=1 seed=1,journal-cost-ns=524000 --format markdown",
    "attack tamper",
    "attack crossmig --seed 40",
)

#: The crypto backend the goldens' OTLP resources name.
GOLDEN_BACKEND = "fast"

_BACKEND_VALUE = re.compile(
    r'("key": "crypto\.backend",\s*"value": \{\s*"stringValue": ")([^"]*)(")'
)


def golden_path(command: str, golden_dir: Path = GOLDEN_DIR) -> Path:
    """``trace --seed 1 --format otlp`` -> ``trace-seed-1-format-otlp.txt``."""
    stem = re.sub(r"[^A-Za-z0-9.]+", "-", command).strip("-")
    return golden_dir / f"{stem}.txt"


def backend_names(text: str) -> list[str]:
    """Every ``crypto.backend`` resource value in an output."""
    return [match.group(2) for match in _BACKEND_VALUE.finditer(text)]


def with_backend(text: str, name: str) -> str:
    """``text`` with every ``crypto.backend`` resource value set to ``name``."""
    return _BACKEND_VALUE.sub(lambda m: m.group(1) + name + m.group(3), text)


def render(command: str) -> str:
    """Run ``repro <command>`` in-process: the command, exit code and stdout.

    ``REPRO_BENCH_DIR`` is unset for the run, or ``fleet`` would merge
    its series into the BENCH files there.
    """
    from repro.cli import main

    stdout = io.StringIO()
    bench_dir = os.environ.pop("REPRO_BENCH_DIR", None)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(command))
    finally:
        if bench_dir is not None:
            os.environ["REPRO_BENCH_DIR"] = bench_dir
    return f"$ repro {command}\nexit {code}\n{stdout.getvalue()}"


def _clip(line: str, column: int, width: int = 60) -> str:
    start = max(column - width // 2, 0)
    return ("…" if start else "") + line[start : start + width]


def compare(path: Path, output: str, backend: str) -> str | None:
    """None when ``output`` matches the golden at ``path``, else why not.

    The golden's ``crypto.backend`` values are read as ``backend`` (the
    active backend); a mismatch names the file and the first differing
    line, with both versions clipped around the first differing byte.
    """
    if not path.exists():
        return f"{path}: no golden file (run scripts/regen_golden.py)"
    names = backend_names(output)
    if any(name != backend for name in names):
        return f"{path}: output names crypto.backend {names}, not the active {backend!r}"
    expected = with_backend(path.read_bytes().decode("utf-8"), backend)
    if expected == output:
        return None
    want, got = expected.splitlines(), output.splitlines()
    for number, (a, b) in enumerate(zip(want, got), start=1):
        if a != b:
            column = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
            )
            return (
                f"{path}:{number}: first difference at column {column + 1}\n"
                f"  golden: {_clip(a, column)}\n"
                f"  output: {_clip(b, column)}"
            )
    if len(want) == len(got):
        return f"{path}: differs only in line endings or the final newline"
    number = min(len(want), len(got)) + 1
    return f"{path}:{number}: golden has {len(want)} lines, output {len(got)}"


def unmatched_files(golden_dir: Path = GOLDEN_DIR) -> list[str]:
    """Golden files with no case, and cases with no golden file."""
    expected = {golden_path(command, golden_dir).name: command for command in CASES}
    present = {path.name for path in golden_dir.iterdir()} if golden_dir.exists() else set()
    return [
        f"{golden_dir / name}: no case produces this golden"
        for name in sorted(present - set(expected))
    ] + [
        f"{golden_dir / name}: no golden for case {expected[name]!r}"
        for name in sorted(set(expected) - present)
    ]


def regenerate(golden_dir: Path = GOLDEN_DIR) -> list[str]:
    """Rewrite every case's golden and delete the rest; the paths changed."""
    golden_dir.mkdir(parents=True, exist_ok=True)
    keep = set()
    changed = []
    for command in CASES:
        path = golden_path(command, golden_dir)
        keep.add(path.name)
        data = with_backend(render(command), GOLDEN_BACKEND).encode("utf-8")
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            changed.append(str(path))
    for path in sorted(golden_dir.iterdir()):
        if path.name not in keep:
            path.unlink()
            changed.append(f"{path} (deleted)")
    return changed


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    changed = regenerate()
    for path in changed:
        print(f"rewrote {path}")
    print(f"{len(CASES)} goldens, {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
