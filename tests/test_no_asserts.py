"""`python -O` strips `assert`, so no check in the package may be one, and
no check may hide behind a bare `raise AssertionError` either."""

import ast
from pathlib import Path

import ecdescent


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_source_has_no_assert_statements():
    found = []
    sources = sorted(Path(ecdescent.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and _raises_assertion_error(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "assert statements or AssertionError raises (use weierstrass.check_invariant): " + ", ".join(found)
