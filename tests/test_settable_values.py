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

#: 26 defaulted parameters, 21 command-line arguments and 1 environment read
CEILING = 48


def _count(tree) -> tuple[int, int, int]:
    defaults = arguments = environ = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
            arguments += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
            environ += node.attr in ("environ", "getenv")
    return defaults, arguments, environ


def test_counter_sees_each_kind():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "parser.add_argument('--n')\n"
        "os.environ.get('X'), os.getenv('Y')\n"
    )
    assert _count(tree) == (3, 1, 2)


def test_settable_values_stay_at_the_ceiling():
    sources = sorted(Path(ecdescent.__file__).parent.glob("*.py"))
    assert sources
    counts = [_count(ast.parse(path.read_text(), filename=str(path))) for path in sources]
    defaults, arguments, environ = (sum(c[i] for c in counts) for i in range(3))
    assert defaults + arguments + environ <= CEILING, (defaults, arguments, environ)
