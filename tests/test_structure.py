"""Structural checks on ``src/repro`` that keep two shapes from coming back.

* Every :class:`~repro.sim.costs.CostModel` field is read somewhere in
  ``src/repro`` besides its declaration: a cost term nothing charges
  reads like a modelled cost while every figure leaves it out.
* No module reads ``durable``, ``monitor``, ``wal_epoch`` or
  ``journal_epoch`` through ``getattr`` with a default: every machine
  holds a store and every testbed declares these fields, so a fallback
  could only serve a second, journal-less configuration.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

from repro.sim.costs import CostModel

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SOURCES = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
DECLARED = {"durable", "monitor", "wal_epoch", "journal_epoch"}


def test_every_cost_term_is_read():
    unread = [
        f.name
        for f in dataclasses.fields(CostModel)
        if not any(re.search(rf"\.{f.name}\b", text) for text in SOURCES.values())
    ]
    assert unread == []


def test_no_getattr_default_for_declared_fields():
    found = []
    for path, text in SOURCES.items():
        if "getattr(" not in text:
            continue
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) == 3
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in DECLARED
            ):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
