"""`src/ecdescent` holds only what the system runs.

Every top-level function, class and constant of the package must be named
by another top-level statement of the package (an import in `__init__`
is how a name is exported), or be a layer that the benchmark's tracer
rebinds by name.  A name that only the tests reach belongs in the tests.
The tracer's names are read from `bench/tracing.py`, as
`test_tracing_guard.py` reads them.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import ecdescent

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and not n.id.startswith("__")]


def _named(stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def test_every_top_level_name_is_used_by_the_package():
    stmts = []
    for path in sorted(Path(ecdescent.__file__).parent.glob("*.py")):
        stmts += [(path.stem, stmt) for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    assert len({mod for mod, _ in stmts}) > 10
    traced = {name.split(".")[1] for name in tracing.NAMES}
    named = [_named(stmt) for _, stmt in stmts]
    unused = [
        f"{mod}.{name}"
        for i, (mod, stmt) in enumerate(stmts)
        for name in _defined(stmt)
        if name not in traced and not any(name in names for j, names in enumerate(named) if j != i)
    ]
    assert unused == []
