"""Recursion guard: no function in ``src/hornlog`` recurses, unless it is
listed below with a reason its recursion is bounded (none is today).

A term can be as deep as a derivation is long, and Python's stack is about
a thousand frames.  So every walker over terms keeps an explicit stack.
This test parses each module with ``ast`` and builds its call graph over
function and method names: a call by bare name reaches every function of
that name in the module, and a call through ``self.`` every method of that
name.  A function on a cycle of that graph fails the test unless it is
allow-listed here with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hornlog"

# (module, qualified function name): why its recursion is bounded.
ALLOWED: dict = {}


def _functions(tree: ast.Module) -> list:
    """``(qualified name, class name or None, node)`` for every function,
    nested ones included; the walk keeps its own stack."""
    out = []
    stack = [(tree, "", None)]
    while stack:
        node, prefix, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((name, cls, child))
                stack.append((child, name + ".", None))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + ".",
                              child.name))
            else:
                stack.append((child, prefix, cls))
    return out


def _calls(fn: ast.AST) -> list:
    """``(bare name, through self)`` for each call in ``fn``'s own body,
    not in the bodies of functions nested in it."""
    out = []
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                out.append((f.id, False))
            elif (isinstance(f, ast.Attribute)
                  and isinstance(f.value, ast.Name) and f.value.id == "self"):
                out.append((f.attr, True))
        stack.extend(ast.iter_child_nodes(node))
    return out


def _recursive(tree: ast.Module) -> set:
    """Qualified names of the functions that lie on a cycle of calls."""
    fns = _functions(tree)
    by_name: dict = {}
    methods: dict = {}
    for qual, cls, node in fns:
        by_name.setdefault(node.name, []).append(qual)
        if cls is not None:
            methods.setdefault(node.name, []).append(qual)
    edges = {}
    for qual, cls, node in fns:
        targets = set()
        for name, via_self in _calls(node):
            targets.update((methods if via_self else by_name).get(name, ()))
        edges[qual] = targets
    on_cycle = set()
    for start in edges:
        seen, work = set(), list(edges[start])
        while work:
            x = work.pop()
            if x == start:
                on_cycle.add(start)
                break
            if x not in seen:
                seen.add(x)
                work.extend(edges[x])
    return on_cycle


def _all_recursive() -> dict:
    return {path.stem: _recursive(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))}


def test_no_function_recurses_unless_allow_listed():
    found = _all_recursive()
    bad = sorted(f"{module}.{qual}" for module, quals in found.items()
                 for qual in quals if (module, qual) not in ALLOWED)
    assert bad == [], f"recursive functions not allow-listed: {bad}"


def test_the_allow_list_names_only_recursive_functions():
    found = _all_recursive()
    stale = sorted(f"{m}.{q}" for m, q in ALLOWED if q not in found[m])
    assert stale == []


def test_the_guard_sees_direct_mutual_and_method_recursion():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "def g(n):\n    return h(n)\n"
        "def h(n):\n    return g(n)\n"
        "def outer(t):\n"
        "    def inner(x):\n        return [inner(a) for a in x]\n"
        "    return inner(t)\n"
        "class P:\n"
        "    def a(self):\n        return self.b()\n"
        "    def b(self):\n        return self.a()\n"
        "    def c(self):\n        return self.a()\n"
        "def flat(t):\n    return len(t)\n")
    assert _recursive(tree) == {"f", "g", "h", "outer.inner", "P.a", "P.b"}


def test_no_code_changes_the_recursion_limit():
    for path in sorted(SRC.glob("*.py")):
        assert "setrecursionlimit" not in path.read_text(), path.name
