"""Dead-code guard: every top-level function and class of the package is
referenced from code somewhere in the repo.

A reference is an AST ``Name`` or ``Attribute`` that loads the name, or an
import alias of it, in the package, ``tests/``, ``perfbench/``, ``tools/``,
``bench.py`` or ``__ray_entry__.py``. Comments and docstrings do not count,
and neither does a def's use of its own name inside its own body. Deleting
a query module therefore also has to delete the helpers only it called.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "pdf_ocr_batch_ndrocr_lite_ray"


def _sources() -> list[Path]:
    files = [REPO / "bench.py", REPO / "__ray_entry__.py"]
    for d in (PACKAGE, REPO / "tests", REPO / "perfbench", REPO / "tools"):
        files += sorted(d.rglob("*.py"))
    return [f for f in files if f.is_file()]


def _loaded_names(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
    return names


def test_every_package_def_is_referenced():
    defs: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if PACKAGE in path.parents:
                    where = f"{path.relative_to(REPO)}:{node.lineno}"
                    defs.setdefault(node.name, []).append(where)
                referenced |= _loaded_names(node) - {node.name}
            else:
                referenced |= _loaded_names(node)
    dead = sorted(
        f"{where} {name}" for name, wheres in defs.items()
        if name not in referenced for where in wheres
    )
    assert not dead, "unreferenced top-level defs:\n" + "\n".join(dead)
