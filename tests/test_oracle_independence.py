"""The oracles judge the fast paths only while they share no code with them.

`tests/oracles.py` may use the library's arithmetic, models and Tate data,
but it must not name a function it is the judge of; and the library must
not reach into the tests for anything.
"""

import ast
from pathlib import Path

import ecdescent
from ecdescent import descent2, families, isogeny, tate, weierstrass

TESTS = Path(__file__).parent

#: the fast paths the oracles judge, and the layers those paths are made of
JUDGED = {
    "_image_scan",
    "_finite_image",
    "_local_images",
    "_ramified_twist_image",
    "local_image",
    "local_class",
    "phi_selmer",
    "torsion_subgroup",
    "halve_point",
    "points_of_order_n",
    "two_torsion_points",
    "splits_in",
    "heegner_field_scan",
    "isomorphism_scale",
    "_velu_quotient",
    "point_add",
    "point_mul",
    "point_order",
    "count_points_mod_p",
    "change_variables",
    "rst_change",
    "tate_algorithm",
    "z3_point",
    "z3_normalize",
    "torsion_growth",
    "_halving_xs",
}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]


def test_oracles_name_no_fast_path():
    # a renamed fast path would make this guard vacuous
    assert all(any(hasattr(m, n) for m in (descent2, families, isogeny, weierstrass)) for n in JUDGED)
    tree = ast.parse((TESTS / "oracles.py").read_text())
    assert sorted(set(_names(tree)) & JUDGED) == []


def test_package_imports_nothing_from_the_tests():
    found = []
    sources = sorted(Path(ecdescent.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in mods if m.split(".")[0] in ("tests", "oracles")]
    assert found == []
