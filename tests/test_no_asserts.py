"""`python -O` strips `assert`, so no check in the package may be one."""

import ast
from pathlib import Path

import ecdescent


def test_package_source_has_no_assert_statements():
    found = []
    sources = sorted(Path(ecdescent.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "assert statements (use weierstrass.check_invariant): " + ", ".join(found)
