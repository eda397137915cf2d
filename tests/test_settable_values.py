"""The number of values a caller can set does not grow unnoticed.

Each defaulted parameter, command-line argument and environment variable
is one more configuration that the tests and the benchmark must cover.
This counts them in the package with `ast`: parameters with a default
(positional or keyword-only), `add_argument` calls, and reads of
`os.environ` or `os.getenv`.
"""

import ast
from pathlib import Path

import ecdescent

#: 13 defaulted parameters, 19 command-line arguments and 1 environment read
CEILING = 33


def _settable(tree) -> list[tuple[str, str]]:
    """(kind, name) of each settable value in a module: kind is "default",
    "argument" or "environ"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [("default", f"{name}({a.arg})") for a in defaulted]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
            flag = node.args[0].value if node.args and isinstance(node.args[0], ast.Constant) else "?"
            found.append(("argument", str(flag)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            if node.attr in ("environ", "getenv"):
                found.append(("environ", f"os.{node.attr} at line {node.lineno}"))
    return found


def test_counter_sees_each_kind():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "parser.add_argument('--n')\n"
        "os.environ.get('X'), os.getenv('Y')\n"
    )
    assert sorted(_settable(tree)) == [
        ("argument", "--n"),
        ("default", "<lambda>(x)"),
        ("default", "f(b)"),
        ("default", "f(c)"),
        ("environ", "os.environ at line 4"),
        ("environ", "os.getenv at line 4"),
    ]


def test_settable_values_stay_at_the_ceiling():
    sources = sorted(Path(ecdescent.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}: {kind} {name}"
        for path in sources
        for kind, name in _settable(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert len(found) <= CEILING, "\n".join([f"{len(found)} settable values, ceiling {CEILING}:"] + found)
