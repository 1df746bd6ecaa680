"""The shipped package has one simulation engine; the oracle stays in tests.

The callback reference engines (``tests/oracle``) exist only to check
:class:`~repro.net.sim.fastsim.FastSimulation` against.  This pins the
boundary statically: no module under ``src/repro`` imports the oracle,
defines a callback engine, or re-exports one.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ENGINES = {"Simulation", "ClosedLoopSimulation", "EventEngine"}


def _offences(path: pathlib.Path) -> list[str]:
    """What ``path`` does that crosses the boundary, one line each."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and node.name in ENGINES:
            found.append(f"defines {node.name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = (
                [node.module or ""]
                if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
            found += [
                f"imports {module}"
                for module in modules
                if module.split(".")[0] in ("tests", "oracle")
            ]
            found += [
                f"imports {alias.name}"
                for alias in node.names
                if alias.name in ENGINES
            ]
    return found


def test_no_src_module_imports_or_defines_a_callback_engine():
    offences = [
        f"{path.relative_to(SRC.parent)}: {offence}"
        for path in sorted(SRC.rglob("*.py"))
        for offence in _offences(path)
    ]
    assert not offences, "\n".join(offences)


@pytest.mark.parametrize("module", ["repro", "repro.net", "repro.net.sim"])
def test_packages_export_no_callback_engine(module):
    package = importlib.import_module(module)
    exported = set(getattr(package, "__all__", ())) | set(vars(package))
    assert not ENGINES & exported, sorted(ENGINES & exported)


def test_the_check_sees_an_offence():
    """The scan is not vacuous: the oracle itself would fail it."""
    oracle = SRC.parent.parent / "tests" / "oracle"
    assert "defines Simulation" in _offences(oracle / "simulation.py")
    assert "imports tests.oracle.engine" in _offences(oracle / "closedloop.py")
