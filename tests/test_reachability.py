"""Every module under ``src/repro`` is reached from something we ship.

A static import scan over the AST; nothing is imported.  The roots are
the CLI (``repro.cli``, ``repro.__main__``) and every script under
``tools/``, ``perfbench/`` and ``examples/``.  Every ``import``
statement is an edge, including imports inside functions (the CLI
imports lazily).  ``from pkg import Name`` goes to the submodule that
defines ``Name``, not to every sibling the package re-exports, so a
module that only its package's ``__init__`` re-exports counts as
unreached.  A package that re-exports lazily declares the module of
each name in one literal ``_EXPORTS`` table, which the scan reads like
an ``ImportFrom``.  A package is reached, and its imports followed, only when
a name its ``__init__`` defines is imported; package ``__init__``
files themselves are exempt from the check.

A module that fails this is either dead code or a feature no shipped
path can use: delete it, or wire it to a root.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_DIRS = ("tools", "perfbench", "examples")

#: Unreached modules kept on purpose, each with its reason.
ALLOWED = {
    "repro.net.sim.solvetime": (
        "the reference the callback oracle in tests/oracle checks "
        "FastSimulation's solve times against"
    ),
}


def _modules() -> dict[str, pathlib.Path]:
    """Dotted name -> file for every module and package under src."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


MODULES = _modules()
TREES = {
    name: ast.parse(path.read_text("utf-8"))
    for name, path in MODULES.items()
}


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _lazy_table(package: str) -> dict[str, str]:
    """The ``_EXPORTS`` literal (name -> module) of a lazy package."""
    for node in TREES[package].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS"
            for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return {}


def _resolve(module: str, name: str, seen=frozenset()) -> str | None:
    """The module ``from module import name`` really reaches."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module not in MODULES:
        return None  # outside src/repro
    if not _is_package(module) or module in seen:
        return module
    lazy = _lazy_table(module).get(name)
    if lazy is not None:
        assert lazy in MODULES, (
            f"{module}._EXPORTS sends {name!r} to {lazy}, which is not a "
            "module under src/repro"
        )
        return _resolve(lazy, name, seen | {module})
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(node.module, alias.name, seen | {module})
    return module  # defined in the __init__ itself


def _edges(tree: ast.AST) -> set[str]:
    """The modules ``tree``'s import statements reach (all absolute)."""
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            targets |= {_resolve(node.module, a.name) for a in node.names}
    return {t for t in targets if t in MODULES}


def _unreached() -> set[str]:
    frontier = set(ROOT_MODULES)
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            frontier |= _edges(ast.parse(path.read_text("utf-8")))
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier |= _edges(TREES[name]) - reached
    return {
        name for name in MODULES
        if name not in reached and not _is_package(name)
    }


def test_every_module_is_reached_from_a_shipped_root():
    unreached = _unreached()
    stray = sorted(unreached - ALLOWED.keys())
    assert not stray, (
        "modules no CLI command, tool, benchmark or example reaches "
        f"(delete them, or wire them to a root): {stray}"
    )
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, f"allowlisted but reached or gone; drop them: {stale}"


def _defines(module: str, name: str) -> bool:
    """Whether ``module``'s top level binds ``name``."""
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            bound = {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom):
            bound = {a.asname or a.name for a in node.names}
        else:
            continue
        if name in bound:
            return True
    return False


def test_every_lazy_export_names_a_module_that_defines_it():
    tables = {
        name: _lazy_table(name) for name in MODULES if _is_package(name)
    }
    assert {name for name, table in tables.items() if table} == {
        "repro", "repro.core", "repro.obs",
    }
    for package, table in tables.items():
        for name in table:
            target = _resolve(package, name)
            assert _defines(target, name), f"{package}.{name} -> {target}"


def test_the_scan_follows_reexports_to_their_defining_module():
    assert _resolve("repro.reputation", "DAbRModel") == "repro.reputation.dabr"
    assert _resolve("repro", "AIPoWFramework") == "repro.core.framework"
    assert _resolve("repro.net", "sim") == "repro.net.sim"
