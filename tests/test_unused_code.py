"""Every public function, class and method of `src/pwcmoe` has a caller.

A name counts as used when `src/` (outside the name's own definition),
`scripts/` or `perfbench/` reads it as a bare name, imports it, or reads it
as an attribute. Where the name is also a field or an attribute of some
object (a dataclass field, `obj.name = ...`), only a call `obj.name(...)`
counts: `trace.mean_kl` is no use of a function `mean_kl`. Tests do not
count, and there are no exceptions: a reference that only tests compare
against lives in `tests/`. The check reads the sources with `ast` and
imports nothing.
"""

import ast
import collections
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def python_files(*dirs):
    for d in dirs:
        for base, _, names in os.walk(os.path.join(ROOT, d)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(base, name)


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def field_names(trees) -> set:
    """Names that a class body declares or that code assigns as attributes."""
    out = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.ClassDef):
                for item in n.body:
                    targets = ([item.target] if isinstance(item, ast.AnnAssign)
                               else item.targets if isinstance(item, ast.Assign) else [])
                    out.update(t.id for t in targets if isinstance(t, ast.Name))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                out.add(n.attr)
    return out


def mentioned(node, fields: set) -> list:
    """Every name that `node`'s subtree reads, imports or calls; an attribute
    named in `fields` only where it is called."""
    called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append(n.id)
        elif isinstance(n, ast.Attribute) and (n.attr not in fields or id(n) in called):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name.split(".")[-1])
    return out


def public_definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def unreferenced() -> list:
    """`path:line name` of every public definition that nothing uses."""
    others = [parse(path) for path in python_files("scripts", "perfbench")]
    trees = {path: parse(path) for path in python_files(os.path.join("src", "pwcmoe"))}
    fields = field_names(others + list(trees.values()))
    outside = {name for tree in others for name in mentioned(tree, fields)}
    inside = collections.Counter(name for tree in trees.values()
                                 for name in mentioned(tree, fields))
    missing = []
    for path, tree in trees.items():
        for node in public_definitions(tree):
            if node.name.startswith("_"):
                continue
            own = mentioned(node, fields).count(node.name)
            if inside[node.name] == own and node.name not in outside:
                missing.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} {node.name}")
    return missing


def test_every_public_name_has_a_caller():
    missing = unreferenced()
    assert missing == [], "no stage, script or benchmark uses: " + ", ".join(missing)
