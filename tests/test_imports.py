"""The import convention: a module names its siblings, and reads their names
at the call site.

``import modcat`` registers every submodule lazily, so ``from . import poly``
binds the module without running it, and ``poly.factor_list(...)`` runs it
on first use.  A module-level ``from .poly import Poly`` would run poly in
every command that loads its importer.  Such an edge is kept only where every
command that runs the importer calls into the sibling; those are listed here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modcat"

# importer -> the siblings it imports names from when it runs; errors is
# always allowed
EAGER = {
    "__main__": {"cli"},
    "basedring": {"algebras"},
    "dy": {"fields", "linalg", "pointed"},
    "fusion2": {"fields", "fieldprofile", "poly"},
    "linalg": {"fields"},
    "pointed": {"fieldprofile"},
    "zmodule": {"basedring"},
}


def _run_at_import(body):
    """The statements of a module body that run when it is imported: those
    at the top and in classes and if/try/with blocks, not in functions."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _run_at_import(getattr(node, field, []))


def _eager_edges() -> dict:
    siblings = {path.stem for path in SRC.glob("*.py")}
    edges = {}
    for path in sorted(SRC.glob("*.py")):
        for node in _run_at_import(ast.parse(path.read_text()).body):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1 and node.module is None:
                assert {alias.name for alias in node.names} <= siblings, path.name
                continue  # from . import poly: a module reference
            if node.level == 1:
                sibling = node.module
            elif node.module.startswith("modcat."):
                sibling = node.module.split(".", 1)[1]
            else:
                continue
            if sibling != "errors":
                edges.setdefault(path.stem, set()).add(sibling)
    return edges


def test_names_are_imported_eagerly_only_along_the_listed_edges():
    assert _eager_edges() == EAGER


def test_no_module_imports_dataclasses():
    # it imports inspect and generates code for every class, several ms of
    # each command's start-up; records come from errors.record
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name and name.split(".")[0] == "dataclasses" for name in names), \
                path.name
