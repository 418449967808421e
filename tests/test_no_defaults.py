"""The program's functions take few defaulted parameters.

A default hides a choice at every call that leaves it out: two callers of
one function may then mean different things without either saying so.  The
count of parameters that carry a default in `src/critplace/` may only go
down; lower `LIMIT` when it does.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "critplace"
LIMIT = 15


def defaulted(source: str, name: str) -> list[str]:
    """`file:line: function(parameter)` for each parameter of a function or
    lambda in the source that carries a default."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            what = getattr(node, "name", "lambda")
            found += [(node.lineno, f"{what}({a.arg})") for a in with_default]
    return [f"{name}:{line}: {what}" for line, what in sorted(found)]


def test_defaulted_parameters_are_found():
    source = "\n".join([
        "def f(a, b=1, *, c, d=2):",
        "    return lambda x, y=0: x",
        "def g(a, /, b=1, *args, **kw):",
        "    pass",
        "async def h(x=None):",
        "    pass",
    ])
    assert defaulted(source, "x.py") == [
        "x.py:1: f(b)", "x.py:1: f(d)", "x.py:2: lambda(y)", "x.py:3: g(b)", "x.py:5: h(x)",
    ]


def test_program_has_few_defaulted_parameters():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for f in files for hit in defaulted(f.read_text(), str(f.relative_to(SRC.parent.parent)))]
    assert len(found) <= LIMIT, "\n".join(found)
