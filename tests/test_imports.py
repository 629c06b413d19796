"""No source or test module imports a name it never reads.

No linter ships with the toolchain, so this is an `ast` scan: a name
bound by an import (other than ``from __future__``) must occur as a
loaded name somewhere in the same module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = (sorted(ROOT.glob("src/alloy2fa/*.py"))
         + sorted(ROOT.glob("tests/*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports("import os, a.b\nfrom c import d as e, f\n"
                          "from __future__ import annotations\n"
                          "f(a)\n") == ["e", "os"]
    assert FILES
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
             for p in FILES}
    assert {k: v for k, v in found.items() if v} == {}
