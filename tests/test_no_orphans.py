"""The program holds no code that only tests use.

A private name (one leading underscore) defined at the top level of a
module in `src/critplace/` is there for the program.  When no code in
`src/` reads it, only tests can, and such code belongs in `tests/`
(`tests/_reference.py` holds the reference forms the tests compare with).
A public top-level function or class is there for the program or for the
package's users: no code in `src/` reading it is fine only when
`__init__.py` exports it.  Importing a name is not reading it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "critplace"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name != "_"


def orphans(sources: dict[str, str]) -> list[str]:
    """`file:line: name` for each top-level private function, class or
    variable, and each public function or class that `__init__.py` does not
    import, of the sources that none of them reads: its own module by name,
    another by the name a `from` import gave it, or as an attribute of its
    module.  Sources are named `<module>.py`."""
    modules = {Path(f).stem for f in sources}
    defined, read, exported = [], set(), set()
    for file, source in sources.items():
        here, tree = Path(file).stem, ast.parse(source, file)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names, public = [node.name], True
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                public = False
            else:
                continue
            defined += [(file, node.lineno, (here, n)) for n in names if public or _private(n)]
        # what each imported name stands for: (module, name), or a module
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                origin = (node.module or "").split(".")[-1]
                for a in node.names:
                    bound[a.asname or a.name] = a.name if a.name in modules else (origin, a.name)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname and a.name.split(".")[-1] in modules:
                        bound[a.asname] = a.name.split(".")[-1]
        if here == "__init__":
            exported.update(v for k, v in bound.items() if isinstance(v, tuple) and not _private(k))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(bound.get(node.id, (here, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if isinstance(bound.get(node.value.id), str):
                    read.add((bound[node.value.id], node.attr))
    return [f"{file}:{line}: {key[1]}" for file, line, key in defined if key not in read | exported]


def test_orphans_are_found():
    sources = {
        "a.py": "\n".join([
            "from .b import _used_in_a as _u, _imported_only",
            "_TABLE = {}",
            "_A, (_B, _C) = 1, (2, 3)",
            "__all__ = []",
            "def _unused():",
            "    return _u() + _B",
            "class _Box:",
            "    def _method(self):",
            "        return _C + self._same",
            "def _same():",
            "    pass",
        ]),
        "b.py": "\n".join([
            "from . import a",
            "def _used_in_a():",
            "    return a._TABLE + _same()",
            "def _imported_only():",
            "    pass",
            "def _same():",
            "    pass",
        ]),
    }
    # a.py's _same is read neither by a.py, whose self._same is an attribute
    # of something else, nor by b.py, which reads its own _same
    assert orphans(sources) == [
        "a.py:3: _A", "a.py:5: _unused", "a.py:7: _Box", "a.py:10: _same", "b.py:4: _imported_only",
    ]


def test_public_orphans_are_found():
    sources = {
        "__init__.py": "from .a import Exported, _hidden\nfrom . import b",
        "a.py": "\n".join([
            "from .b import used_by_a",
            "LIMIT = 3",
            "class Exported:",
            "    pass",
            "def _hidden():",
            "    return used_by_a() + self_read()",
            "def self_read():",
            "    return LIMIT",
            "def unread():",
            "    pass",
        ]),
        "b.py": "\n".join([
            "def used_by_a():",
            "    pass",
            "class Imported:",
            "    pass",
        ]),
    }
    # an exported class and a read function pass, and so does a public
    # variable; `__init__` importing a private name or a module exports
    # neither, and `Imported` is imported nowhere but still flagged
    assert orphans(sources) == ["a.py:5: _hidden", "a.py:9: unread", "b.py:3: Imported"]


def _program_orphans(private: bool) -> list[str]:
    files = sorted(SRC.glob("*.py"))
    assert files
    found = orphans({str(f.relative_to(SRC.parent.parent)): f.read_text() for f in files})
    return [f for f in found if _private(f.rsplit(" ", 1)[1]) == private]


def test_program_has_no_private_orphans():
    assert _program_orphans(private=True) == []


def test_program_has_no_public_orphans():
    assert _program_orphans(private=False) == []
