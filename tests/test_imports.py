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
    "algebras": {"laws"},
    "basedring": {"laws"},
    "dy": {"fields", "groups", "linalg"},
    "fields": {"ints"},
    "fusion2": {"fields", "fieldprofile", "poly"},
    "linalg": {"fields"},
    "pointed": {"fieldprofile", "groups"},
    "zmodule": {"basedring"},
    # each CLI family's module imports its shared helpers from the package
    **{f"cli.{family}": {"cli"} for family in ("ring", "zmod", "twocat", "pointed", "dy",
                                                "fusion2")},
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


def _module_name(path) -> str:
    """A module's name below modcat: poly, cli, cli.ring."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _eager_edges() -> dict:
    paths = sorted(SRC.rglob("*.py"))
    modules = {_module_name(path) for path in paths}
    edges = {}
    for path in paths:
        name, package = _module_name(path), list(path.parent.relative_to(SRC).parts)
        for node in _run_at_import(ast.parse(path.read_text()).body):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package[:len(package) - node.level + 1]
                if node.module is None:
                    targets = [".".join([*base, alias.name]) for alias in node.names]
                    if all(target in modules for target in targets):
                        continue  # from . import poly: a module reference
                    # from . import CommandResult: names of the package itself
                    targets = [".".join(base)]
                else:
                    targets = [".".join([*base, node.module])]
            elif node.module.startswith("modcat."):
                targets = [node.module.split(".", 1)[1]]
            else:
                continue
            for target in targets:
                assert target in modules, (path, target)
                if target != "errors":
                    edges.setdefault(name, set()).add(target)
    return edges


def test_names_are_imported_eagerly_only_along_the_listed_edges():
    assert _eager_edges() == EAGER


def test_no_module_imports_dataclasses():
    # it imports inspect and generates code for every class, several ms of
    # each command's start-up; records come from errors.record
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name and name.split(".")[0] == "dataclasses" for name in names), \
                path.name
