"""No source or test module imports a name it never reads, holds a
line longer than 79 characters or puts a top-level function or class
fewer than two blank lines after the statement before it, no source
module calls `id()` or imports below module level, only `terms` reads
the dataclass field layout of the node classes, every module-level
name in src is read somewhere outside its own definition, no source
module memoizes without a finite bound, and only the translation driver
and closure lifting build a rewrite run state.

No linter ships with the toolchain, so these are `ast` and text scans:
a name bound by an import (other than ``from __future__``) must occur
as a loaded name somewhere in the same module.  Terms are hash-consed,
so a cache keys by the term itself; an `id()` key would alias once its
object is freed.  An import inside a function hides an import cycle
between source modules instead of resolving it.  Code outside `terms`
walks or rebuilds a node through `terms.children`, `map_children`,
`with_child` and the per-class slot names `terms` records, so the field
layout is stated in one module.  A name
that only its own definition reads (say, a recursive helper nothing
calls) is vocabulary that nothing uses.  Terms are interned for the
life of the process, so a memo keyed by terms must state a finite
`maxsize`: `functools.cache` and `lru_cache(maxsize=None)` grow with
everything ever built, and a bare `lru_cache` hides its bound.  Every
translation runs through the one driver, `pipeline.translate_with_trace`,
configured by a `Translator` value; a function that builds its own
`RunState` would be a second driver.

Last, only the recorded walks in src call themselves: a walk that
recurses once per term level fails on a term deeper than the
interpreter stack, so a bottom-up walk folds by the explicit stack of
`terms.fold`, and the few that still recurse are listed, each with the
reason it stays; the list may only shrink.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/alloy2fa/*.py"))
FILES = SRC + sorted(ROOT.glob("tests/*.py"))


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


def id_calls(source: str) -> list:
    """Line numbers of the calls of the builtin `id`."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "id")


def test_no_source_module_calls_id():
    assert id_calls("k = id(t)\nt.id(1)\nf(id)\n"
                    "cache[id(e)] = 1\n") == [1, 4]
    assert SRC
    found = {p.relative_to(ROOT).as_posix(): id_calls(p.read_text())
             for p in SRC}
    assert {k: v for k, v in found.items() if v} == {}


def nested_imports(source: str) -> list:
    """Line numbers of the imports that are not module-level statements."""
    tree = ast.parse(source)
    top = set(tree.body)
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, (ast.Import, ast.ImportFrom))
                  and n not in top)


def test_no_source_module_imports_below_module_level():
    assert nested_imports("import a\ndef f():\n    import b\n"
                          "if a:\n    from c import d\n") == [3, 5]
    assert SRC
    found = {p.relative_to(ROOT).as_posix(): nested_imports(p.read_text())
             for p in SRC}
    assert {k: v for k, v in found.items() if v} == {}


def field_layout_reads(source: str) -> list:
    """Line numbers that read `__dataclass_fields__` or use
    `dataclasses.fields`."""
    out = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute) and (
                n.attr == "__dataclass_fields__"
                or n.attr == "fields" and isinstance(n.value, ast.Name)
                and n.value.id == "dataclasses"):
            out.append(n.lineno)
        elif isinstance(n, ast.ImportFrom) and n.module == "dataclasses" \
                and any(a.name == "fields" for a in n.names):
            out.append(n.lineno)
    return sorted(out)


def test_only_terms_reads_the_field_layout():
    assert field_layout_reads(
        "t.__dataclass_fields__\ndataclasses.fields(t)\nt.fields\n"
        "from dataclasses import field, fields\n") == [1, 2, 4]
    assert SRC
    found = {p.relative_to(ROOT).as_posix(): field_layout_reads(p.read_text())
             for p in SRC if p.name != "terms.py"}
    assert {k: v for k, v in found.items() if v} == {}


def long_lines(source: str, limit: int = 79) -> list:
    """Line numbers of the lines longer than the limit."""
    return [i for i, line in enumerate(source.splitlines(), start=1)
            if len(line) > limit]


def test_no_source_line_is_longer_than_79_characters():
    assert long_lines("x = 1\n" + "#" * 79 + "\n" + "#" * 80 + "\n") == [3]
    assert SRC and FILES != SRC
    found = {p.relative_to(ROOT).as_posix(): long_lines(p.read_text())
             for p in FILES}
    assert {k: v for k, v in found.items() if v} == {}


def module_names(stmt) -> set:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def names_read(source: str) -> set:
    """The names a module reads as a name, an attribute or an imported
    name, each outside the module-level statement that defines it."""
    out = set()
    for stmt in ast.parse(source).body:
        own = module_names(stmt)
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                if n.id not in own:
                    out.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                out.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out |= {a.name for a in n.names}
    return out


def unread_names(source: str, read: set) -> list:
    """The module-level names of source that are not in read;
    `__version__` is exempt."""
    defined = set().union(*map(module_names, ast.parse(source).body))
    return sorted(defined - read - {"__version__"})


def test_every_module_level_name_in_src_is_read():
    mod = ("import m\nA, B = 1, 2\nK: int = 3\n__version__ = '1'\n"
           "def f(x):\n    return f(A)\nclass C:\n    y = C\n"
           "def g():\n    return m.B\n")
    assert unread_names(mod, names_read(mod)) == ["C", "K", "f", "g"]
    assert unread_names(mod, names_read(mod) | names_read(
        "from mod import f, g\nK.y\n")) == ["C"]
    assert SRC
    read = set().union(*(names_read(p.read_text()) for p in FILES
                         + sorted(ROOT.glob("perfbench/*.py"))))
    found = {p.relative_to(ROOT).as_posix(): unread_names(p.read_text(), read)
             for p in SRC}
    assert {k: v for k, v in found.items() if v} == {}


def crowded_definitions(source: str) -> list:
    """Line numbers of the top-level functions and classes, each at its
    first decorator if it has one, that stand fewer than two blank lines
    after the previous top-level statement; comments may sit between."""
    tree = ast.parse(source)
    lines = source.splitlines()
    out = []
    for prev, stmt in zip(tree.body, tree.body[1:]):
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
        between = lines[prev.end_lineno:first - 1]
        if sum(not line.strip() for line in between) < 2:
            out.append(first)
    return out


def test_top_level_definitions_stand_two_blank_lines_apart():
    assert crowded_definitions(
        '"""doc"""\ndef f():\n    pass\n\n\ndef g():\n    pass\n# c\n\n'
        "@d\nclass C:\n    pass\n\n# c\n\nx = 1\n\n\n\nclass D:\n"
        "    pass\n") == [2, 10]
    assert FILES
    found = {p.relative_to(ROOT).as_posix(): crowded_definitions(
        p.read_text()) for p in FILES}
    assert {k: v for k, v in found.items() if v} == {}


def unbounded_memos(source: str) -> list:
    """Line numbers of each `functools.cache` and each `lru_cache` that
    states no maxsize or states None, by attribute or imported name."""
    tree = ast.parse(source)
    imported = {a.asname or a.name: a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == "functools"
                for a in n.names}

    def memo(n):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id == "functools":
            return n.attr
        return imported.get(n.id) if isinstance(n, ast.Name) else None

    bounded = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and memo(n.func) == "lru_cache":
            size = n.args[:1] + [k.value for k in n.keywords
                                 if k.arg == "maxsize"]
            if size and not (isinstance(size[0], ast.Constant)
                             and size[0].value is None):
                bounded.add(n.func)
    return sorted(n.lineno for n in ast.walk(tree)
                  if memo(n) in ("cache", "lru_cache") and n not in bounded)


def test_every_source_memo_is_bounded():
    assert unbounded_memos(
        "import functools\nfrom functools import lru_cache as lc, cache\n"
        "@functools.lru_cache(maxsize=64)\ndef f(x):\n    return x\n"
        "@functools.lru_cache(maxsize=None)\ndef g(x):\n    return x\n"
        "@lc(None)\ndef h(x):\n    return x\n"
        "@cache\ndef k(x):\n    return x\n"
        "@functools.lru_cache\ndef m(x):\n    return x\n"
        "n = functools.cache(len)\no = lc(8)(len)\n") == [
            6, 9, 12, 15, 18]
    assert SRC
    found = {p.relative_to(ROOT).as_posix(): unbounded_memos(p.read_text())
             for p in SRC}
    assert {k: v for k, v in found.items() if v} == {}


def run_state_builders(source: str) -> list:
    """The names of the top-level functions and classes that call
    `RunState`, by name or attribute; `<module>` for a call in any other
    module-level statement."""
    out = set()
    for stmt in ast.parse(source).body:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Call) and "RunState" in (
                    getattr(n.func, "id", None),
                    getattr(n.func, "attr", None)):
                out.add(getattr(stmt, "name", "<module>"))
    return sorted(out)


def test_only_the_driver_and_closure_lifting_build_a_run_state():
    assert run_state_builders(
        "from s import RunState\ndef f():\n    return RunState()\n"
        "class C:\n    def g(self):\n        return s.RunState(budget=1)\n"
        "x = RunState\nS = [RunState()]\ndef h(RunState):\n    pass\n"
        "def k():\n    return RunState.budget\n") == ["<module>", "C", "f"]
    assert SRC
    found = {p.relative_to(ROOT).as_posix(): run_state_builders(
        p.read_text()) for p in SRC}
    assert {k: v for k, v in found.items() if v} == {
        "src/alloy2fa/pipeline.py": ["translate_closure",
                                     "translate_with_trace"]}


def self_calls(source: str) -> list:
    """The dotted names of the functions, at any nesting, whose body
    reads their own name: a call, or passing themselves on."""
    out = []

    def visit(node, prefix):
        for n in ast.iter_child_nodes(node):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
                name = prefix + n.name
                if not isinstance(n, ast.ClassDef) and any(
                        isinstance(m, ast.Name) and m.id == n.name
                        and isinstance(m.ctx, ast.Load)
                        for m in ast.walk(n)):
                    out.append(name)
                visit(n, name + ".")
            else:
                visit(n, prefix)

    visit(ast.parse(source), "")
    return sorted(out)


# module.function of each walk that still recurses, by its reason
RECURSIVE = {
    # the leftmost-innermost rewrite order; ROADMAP item 11 plans its stack
    "strategy._once",
    # top-down walks that carry context down the term
    "expand._form", "expand._member", "frontend.subst",
    "oracle.eval_alloy", "oracle.eval_aexpr", "oracle._rl",
    # desugaring, behind `_guarded`; now that the arity check and the
    # expansion have depth guards too, it can be ported on its own
    "frontend._inline_calls", "frontend._to_core",
    # a memo shared across calls, keyed per level
    "pipeline._count",
    # reads a restriction's left operand before its right one
    "terms.arity_of",
    # bounded by an arity, an equation's size or a generator's depth,
    # not by the input
    "terms.match", "terms.instantiate", "terms.projX", "terms.cut",
    "pipeline._selector", "oracle._mm", "oracle._gen_form",
    "oracle._gen_expr",
}


def test_only_the_recorded_walks_recurse():
    assert self_calls(
        "def f(x):\n    return f(x - 1)\ndef g(x):\n    return h(g, x)\n"
        "def k():\n    def go(t):\n        return [go(c) for c in t]\n"
        "    return go\nclass C:\n    def m(self):\n        return self.m()\n"
        "def n(f):\n    return f(n.__name__)\n") == [
            "f", "g", "k.go", "n"]
    assert SRC
    found = {"%s.%s" % (p.stem, name) for p in SRC
             for name in self_calls(p.read_text())}
    assert found <= RECURSIVE, sorted(found - RECURSIVE)
