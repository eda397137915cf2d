"""`python -O` strips `assert`, so no check in the package may be one, and
no check may hide behind a bare `raise AssertionError` either. A check's
message is built only when it fails, so it is never an f-string."""

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


def test_check_messages_are_formatted_only_on_failure():
    # check_invariant(ok, why, *args) formats why with args when ok is false;
    # an f-string message would be built on every passing check
    found = []
    sources = sorted(Path(ecdescent.__file__).parent.glob("*.py"))
    calls = 0
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check_invariant":
                calls += 1
                if any(isinstance(arg, ast.JoinedStr) for arg in node.args[1:2]):
                    found.append(f"{path.name}:{node.lineno}")
    assert calls >= 10
    assert not found, "f-string check_invariant messages: " + ", ".join(found)
