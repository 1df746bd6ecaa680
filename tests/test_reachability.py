"""Every module, function, class and method under ``src/repro`` is
reached from something we ship.

Modules
-------

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

Symbols
-------
Every top-level function and class, and every method of a top-level
class, in a reached module.  A symbol is live when its name is used in
a root file, in a reached module's top-level code (package
``__init__`` files included, so a re-export is a use), or inside the
body of another live symbol; a method also needs its class live.  A
use is a ``Name``, an ``Attribute``, an import alias, an ``_EXPORTS``
key, or the literal name in a ``getattr``/``hasattr`` call.  The scan
iterates to a least fixpoint, so a name that only dead bodies use does
not count.  Tests are not roots.

Matching is by name, not by type, so the scan is conservative: a dead
method whose name a live call happens to share (``run``, ``close``)
stays.  Dunders are exempt.  Anything reached only by a name built at
run time is listed in ``DECLARED`` with its reason, and a declaration
that no longer covers a dead symbol fails.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
from collections.abc import Iterable

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_DIRS = ("tools", "perfbench", "examples")


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
ROOT_TREES = [
    ast.parse(path.read_text("utf-8"))
    for directory in ROOT_DIRS
    for path in sorted((ROOT / directory).rglob("*.py"))
]


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _lazy_table(tree: ast.Module) -> dict[str, str]:
    """The ``_EXPORTS`` literal (name -> module) of a lazy package."""
    for node in tree.body:
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
    lazy = _lazy_table(TREES[module]).get(name)
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
    for tree in ROOT_TREES:
        frontier |= _edges(tree)
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
    unreached = sorted(_unreached())
    assert not unreached, (
        "modules no CLI command, tool, benchmark or example reaches "
        f"(delete them, or wire them to a root): {unreached}"
    )


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
        name: _lazy_table(TREES[name]) for name in MODULES if _is_package(name)
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


# ----------------------------------------------------------------------
# Symbols
# ----------------------------------------------------------------------
#: Symbols live without a shipped caller naming them, each with its reason.
#: A pattern matches ``Class.method`` or ``module:Qualname``.
DECLARED = {
    # Called by a name built at run time.
    "StateServer._op_*": (
        "StateServer builds its op table from dir(self): wire op 'x' "
        "runs _op_x"
    ),
    "*.do_*": "http.server.BaseHTTPRequestHandler calls do_<METHOD>",
    "*.log_message": "http.server hook, overridden to silence request logs",
    # Kept, with tests, until the feature is wired or deleted (ROADMAP 24).
    "MetricsRegistry.gauge": (
        "the gauge kind's get-or-create; snapshot merge and exposition "
        "handle gauges, but no instrument in src/ is a gauge yet"
    ),
    "repro.pow.fractional:*": (
        "target-based fractional difficulty (paper §II.2 fine-grained "
        "tuning); the ablation reads its expected-attempts model, no "
        "server issues fractional puzzles yet"
    ),
}


def _declared(symbol: str, patterns: Iterable[str]) -> bool:
    return any(
        fnmatch.fnmatchcase(symbol, p)
        or fnmatch.fnmatchcase(_qualname(symbol), p)
        for p in patterns
    )


def _uses(node: ast.AST) -> set[str]:
    """Every name ``node`` mentions.

    Names, attributes, import aliases, and the literal attribute name of
    a ``getattr``/``hasattr`` call (an optional hook looked up by name).
    """
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
            if sub.asname:
                found.add(sub.asname)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in ("getattr", "hasattr")
            and len(sub.args) >= 2
            and isinstance(sub.args[1], ast.Constant)
        ):
            found.add(sub.args[1].value)
    return found


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dead_symbols(
    modules: dict[str, ast.Module],
    roots: list[ast.AST],
    declared: Iterable[str] = (),
) -> set[str]:
    """``module:Qualname`` of every symbol no live code names.

    A symbol is a top-level function or class, or a method of a
    top-level class.  It is live when its name is used in ``roots`` or in
    a module's top-level code, or inside the body of another live
    symbol; a method also needs its class live.  This is a least
    fixpoint, so code only dead bodies name stays dead.  A symbol whose
    qualified name matches a ``declared`` pattern is live, as is every
    dunder.
    """
    base: set[str] = set()
    for tree in roots:
        base |= _uses(tree)
    owner: dict[str, str | None] = {}  # symbol -> its class, if a method
    name_of: dict[str, str] = {}
    body_uses: dict[str, set[str]] = {}
    for module, tree in modules.items():
        base |= set(_lazy_table(tree))
        for node in tree.body:
            if not isinstance(node, _DEFS):
                base |= _uses(node)
                continue
            key = f"{module}:{node.name}"
            owner[key], name_of[key] = None, node.name
            if isinstance(node, _FUNCS):
                body_uses[key] = _uses(node)
                continue
            body_uses[key] = set()
            for item in node.body:
                if isinstance(item, _FUNCS):
                    method = f"{key}.{item.name}"
                    owner[method], name_of[method] = key, item.name
                    body_uses[method] = _uses(item)
                else:
                    body_uses[key] |= _uses(item)
            for part in (*node.bases, *node.keywords, *node.decorator_list):
                body_uses[key] |= _uses(part)

    users: dict[str, set[str]] = {}  # name -> live symbols that use it
    live: set[str] = set()
    changed = True
    while changed:
        changed = False
        for key in owner.keys() - live:
            name = name_of[key]
            parent = owner[key]
            if parent is not None and parent not in live:
                continue
            if (
                (name.startswith("__") and name.endswith("__"))
                or _declared(key, declared)
                or name in base
                or users.get(name, set()) - {key}
            ):
                live.add(key)
                changed = True
                for used in body_uses[key]:
                    users.setdefault(used, set()).add(key)
    return set(owner) - live


def _qualname(symbol: str) -> str:
    return symbol.split(":", 1)[1]


def test_every_symbol_is_named_by_live_code():
    unreached = _unreached()
    reached = {
        name: tree for name, tree in TREES.items() if name not in unreached
    }
    stray = sorted(_dead_symbols(reached, ROOT_TREES, DECLARED))
    assert not stray, (
        "functions, classes or methods no shipped path names (delete "
        f"them, or declare their dynamic dispatch): {stray}"
    )
    undeclared = _dead_symbols(reached, ROOT_TREES)
    stale = sorted(
        pattern for pattern in DECLARED
        if not any(_declared(symbol, [pattern]) for symbol in undeclared)
    )
    assert not stale, f"declared but named or gone; drop them: {stale}"


def test_the_symbol_scan_reports_dead_methods_and_what_only_they_use():
    module = ast.parse(
        "class Box:\n"
        "    def live(self):\n"
        "        return 1\n"
        "\n"
        "    def dead(self):\n"
        "        return self.only_dead_uses()\n"
        "\n"
        "    def only_dead_uses(self):\n"
        "        return 2\n"
    )
    root = ast.parse("from m import Box\nBox().live()\n")
    assert _dead_symbols({"m": module}, [root]) == {
        "m:Box.dead", "m:Box.only_dead_uses",
    }
    assert _dead_symbols({"m": module}, [root], ["Box.dead"]) == set()
