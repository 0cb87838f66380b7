"""Every name an msocc module exports in `__all__` has a caller.

A caller is a reference in src/, demos/ or perfbench/ that lies outside the
name's own definition and outside `__all__` itself: a loaded name, an
attribute, an imported name or module, or a string naming it, alone or as
part of a dotted path (perfbench/spans.py names the functions it wraps by
string). The console scripts of pyproject.toml count as callers too: the
`msocc` command is the only caller of `msocc.cli`.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "msocc"
SOURCES = [p for d in ("src", "demos", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def defined_names(node):
    """Names a top-level statement binds by def, class, import or
    assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {a.asname or a.name for a in node.names}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def referenced(nodes):
    """Every name the nodes refer to."""
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(node.module.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


TREES = {path: parse(path) for path in SOURCES}
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if exported(TREES[p])]


def console_script_names():
    """Parts of every `module:function` entry point in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    return {part for target in re.findall(r'"([\w.]+:[\w.]+)"', text)
            for part in re.split(r"[.:]", target)}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_used(module):
    elsewhere = console_script_names()
    for path, tree in TREES.items():
        if path != module:
            elsewhere |= referenced(tree.body)
    own = TREES[module].body
    unused = []
    for name in exported(TREES[module]):
        outside = [n for n in own if not defined_names(n) & {name, "__all__"}]
        if name not in elsewhere and name not in referenced(outside):
            unused.append(name)
    assert unused == []
