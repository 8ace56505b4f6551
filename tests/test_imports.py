"""Every name a module of the package or of the tests imports is used in
that module, so a change that stops using a name takes its import out too.
A name counts as used where the module reads it, or where it appears in a
string annotation (a ``TYPE_CHECKING`` import is often read only there).
``__init__.py`` is left out: its imports are the package's exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in [*ROOT.glob("src/citysense/*.py"), *ROOT.glob("tests/*.py")]
                 if path.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, each as ``line: name``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(name, ast.Name))
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_counts_reads_and_string_annotations_only():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, json\n"
        "from typing import TYPE_CHECKING, Sequence as Seq\n"
        "if TYPE_CHECKING:\n"
        "    from x import Config, Other\n"
        "def run(config: 'Config') -> 'list[Seq]':\n"
        "    '''Other'''\n"
        "    return json.dumps(os.sep)\n"
    )
    assert unused_imports(source) == ["5: Other"]
