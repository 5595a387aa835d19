"""Golden CLI outputs: every pinned ``repro`` invocation, byte for byte.

Each case of ``scripts/regen_golden.py`` runs in-process under the
crypto backend the environment selects, so the suite's runs under
``REPRO_CRYPTO_BACKEND=fast`` and ``=reference`` together assert that
both backends give the same bytes end to end.  The one allowed
difference, the OTLP resource's ``crypto.backend`` value, must name
the active backend.
"""

from __future__ import annotations

import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

import regen_golden  # noqa: E402
from regen_golden import (  # noqa: E402
    CASES,
    GOLDEN_BACKEND,
    GOLDEN_DIR,
    compare,
    golden_path,
    unmatched_files,
)

from repro.crypto.backend import get_backend  # noqa: E402


@pytest.mark.parametrize("command", CASES)
def test_output_matches_its_golden(command):
    problem = compare(golden_path(command), regen_golden.render(command), get_backend().name)
    assert problem is None, problem


def test_every_golden_has_a_case_and_every_case_a_golden():
    assert unmatched_files() == []


class TestGate:
    """The comparison and the regeneration themselves, on copies."""

    @pytest.fixture
    def copy(self, tmp_path):
        target = tmp_path / "golden"
        shutil.copytree(GOLDEN_DIR, target)
        return target

    @staticmethod
    def _committed_output(command: str) -> str:
        """What ``render`` returns when the committed golden is current."""
        text = golden_path(command).read_bytes().decode("utf-8")
        return regen_golden.with_backend(text, get_backend().name)

    def test_one_byte_edit_names_the_file_and_first_differing_line(self, copy):
        command = "attack tamper"
        path = golden_path(command, copy)
        data = path.read_bytes()
        at = data.index(b"CryptoError")  # on line 4: command, exit, flip, truncate
        path.write_bytes(data[:at] + b"K" + data[at + 1 :])
        problem = compare(path, self._committed_output(command), get_backend().name)
        assert problem is not None
        assert problem.startswith(f"{path}:4: first difference at column ")
        assert "golden: truncate: detected=True (KryptoError)" in problem
        assert "output: truncate: detected=True (CryptoError)" in problem

    def test_a_golden_with_no_case_fails(self, copy):
        (copy / "trace-seed-1-format-gone.txt").write_text("$ repro trace\nexit 0\n")
        (problem,) = unmatched_files(copy)
        assert "trace-seed-1-format-gone.txt: no case produces this golden" in problem

    def test_a_case_with_no_golden_fails(self, copy):
        path = golden_path("demo", copy)
        path.unlink()
        (problem,) = unmatched_files(copy)
        assert problem == f"{path}: no golden for case 'demo'"
        assert compare(path, self._committed_output("demo"), get_backend().name) == (
            f"{path}: no golden file (run scripts/regen_golden.py)"
        )

    def test_output_must_name_the_active_backend(self):
        command = "trace --seed 1 --format otlp"
        output = self._committed_output(command)
        other = "reference" if get_backend().name != "reference" else "fast"
        assert regen_golden.backend_names(output) == [get_backend().name]
        problem = compare(golden_path(command), regen_golden.with_backend(output, other),
                          get_backend().name)
        assert problem is not None and "not the active" in problem

    def test_regeneration_on_an_unchanged_tree_changes_nothing(self, copy, monkeypatch):
        """Given outputs equal to the goldens (which the parametrized test
        above checks), regeneration rewrites no byte and deletes no file,
        so it leaves ``git status`` clean."""
        monkeypatch.setattr(regen_golden, "render", self._committed_output)
        assert regen_golden.regenerate(copy) == []
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == {
            p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()
        }

    def test_goldens_pin_one_backend_name(self):
        named = {
            name
            for command in CASES
            for name in regen_golden.backend_names(golden_path(command).read_text())
        }
        assert named == {GOLDEN_BACKEND}
