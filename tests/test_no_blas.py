"""The program computes with elementwise numpy only.

A matrix product may go through BLAS, whose kernel, and so whose rounding,
depends on the machine: a result file would then differ from one CPU to
another.  So `src/critplace/` holds no `@` operator and names none of numpy's
product or linear-algebra routines.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "critplace"
BANNED = {"dot", "vdot", "matmul", "einsum", "inner", "tensordot", "linalg"}


def blas_uses(source: str, name: str) -> list[str]:
    """`file:line: what` for each matrix product in the source, each banned
    attribute (`np.dot`, `a.dot`, `np.linalg`, ...) and each import of a
    banned name; a plain variable may be called `inner`."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BANNED:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            found += [(node.lineno, n) for n in names if BANNED & set(n.split("."))]
    return [f"{name}:{line}: {what}" for line, what in sorted(found)]


def test_blas_uses_are_found():
    source = "\n".join([
        "import numpy as np",
        "from numpy import linalg",
        "@staticmethod",
        "def f(a, b):",
        "    c = a @ b",
        "    c @= b",
        "    return np.dot(a, b) + a.dot(b) + np.einsum('i,i', a, b) + np.inner(a, b)",
        "    inner = a  # a comment on np.dot and a @ b is no use",
    ])
    assert blas_uses(source, "x.py") == [
        "x.py:2: linalg", "x.py:5: @", "x.py:6: @",
        "x.py:7: dot", "x.py:7: dot", "x.py:7: einsum", "x.py:7: inner",
    ]


def test_program_makes_no_blas_call():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for f in files for hit in blas_uses(f.read_text(), str(f.relative_to(SRC.parent.parent)))]
    assert found == []
