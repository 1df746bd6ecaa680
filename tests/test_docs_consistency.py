"""Documentation-consistency tests.

Docs rot silently; these tests make the load-bearing claims in
README/DESIGN/EXPERIMENTS executable:

* the README quickstart code block runs as printed;
* every experiment id DESIGN.md §4 promises exists in the runner;
* every module path the docs reference imports;
* every example script exists and compiles.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


class TestReadme:
    def test_quickstart_block_executes(self):
        readme = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README must contain a python quickstart block"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 - executing our own docs
        response = namespace["response"]
        assert response.status.value in (
            "served", "rejected", "expired", "replayed", "abandoned",
        )

    def test_examples_table_matches_directory(self):
        readme = read("README.md")
        for match in re.findall(r"`examples/([\w./]+)`", readme):
            assert (REPO / "examples" / match).exists(), (
                f"README references missing examples/{match}"
            )

    def test_cli_subcommands_exist(self):
        from repro.cli import _COMMANDS

        readme = read("README.md")
        for command in re.findall(r"python -m repro (\w[\w-]*)", readme):
            if command in ("figure2", "all"):  # appear with flags too
                assert command in _COMMANDS
                continue
            assert command in _COMMANDS, (
                f"README mentions unknown subcommand {command!r}"
            )

    def test_scenario_table_matches_registered_campaigns(self):
        """Every scenario the README tables name must be registered.

        The scenario table's first column holds backticked scenario
        names (sometimes several per row, slash-separated); each must
        resolve in the campaign registry, and every registered
        campaign must appear somewhere in the README.
        """
        from repro.replay.campaign import CAMPAIGNS

        readme = read("README.md")
        documented = set()
        for row in re.findall(r"^\| ([^|]*`[^|]+) \|", readme, re.M):
            documented.update(re.findall(r"`([\w-]+)`", row))
        table_scenarios = documented & set(CAMPAIGNS)
        assert len(table_scenarios) >= 10, (
            "README scenario tables look truncated: only found "
            f"{sorted(table_scenarios)}"
        )
        for name in CAMPAIGNS:
            assert f"`{name}`" in readme, (
                f"campaign {name!r} is registered but undocumented in "
                "the README scenario tables"
            )

    def test_link_profile_table_matches_catalogue(self):
        """The README link-profile table mirrors LINK_PROFILES."""
        from repro.net.sim.links import LINK_PROFILES

        readme = read("README.md")
        section = readme.split("## Lossy-network campaigns", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = set(
            re.findall(r"^\| `([\w-]+)` \|", section, re.M)
        )
        assert documented == set(LINK_PROFILES), (
            f"README link-profile table {sorted(documented)} != "
            f"catalogue {sorted(LINK_PROFILES)}"
        )

    def test_campaign_cli_options_documented_and_real(self):
        """README campaign flags exist on the argparse surface.

        Introspects the real parser — a renamed or removed option
        would silently strand the docs otherwise.
        """
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        campaign = subparsers.choices["campaign"]
        real_options = {
            opt
            for action in campaign._actions
            for opt in action.option_strings
        }
        readme = read("README.md")
        for flag in (
            "--link", "--list-links", "--record", "--list", "--procs",
        ):
            assert flag in real_options, (
                f"README documents campaign flag {flag} which the "
                "parser does not define"
            )
            assert flag in readme, (
                f"campaign flag {flag} is undocumented in the README"
            )


class TestDesignDoc:
    def test_experiment_ids_registered(self):
        from repro.bench.runner import EXPERIMENTS

        design = read("DESIGN.md")
        # Scope to the §4 experiment index: metric names elsewhere in
        # the document may share a prefix (e.g. `netstore_*`).
        section = design.split("## 4. Experiments", 1)[1]
        section = section.split("\n## ", 1)[0]
        promised = set(
            re.findall(
                r"\| `((?:fig|cal|acc|thr|abl|ons|mega|net|par|ker)"
                r"[\w-]*)` \|",
                section,
            )
        )
        assert promised, "DESIGN.md should promise experiment ids"
        for experiment_id in promised:
            assert experiment_id in EXPERIMENTS, (
                f"DESIGN.md promises {experiment_id!r} but the runner "
                "does not register it"
            )

    def test_metric_table_matches_catalog(self):
        """The DESIGN.md §1.7 metric table IS the metric catalogue.

        Every row must name a catalogued metric with the catalogue's
        own help text, and every catalogued metric must have a row —
        adding a metric without documenting it (or vice versa) fails
        here.
        """
        from repro.obs.registry import METRIC_CATALOG

        design = read("DESIGN.md")
        rows = re.findall(
            r"^\| `(\w+)` \| (?:counter|gauge|histogram) \|"
            r" [^|]* \| ([^|]+) \|$",
            design,
            re.M,
        )
        documented = {name: help_text.strip() for name, help_text in rows}
        assert set(documented) == set(METRIC_CATALOG), (
            "DESIGN.md metric table out of sync: "
            f"missing={sorted(set(METRIC_CATALOG) - set(documented))} "
            f"extra={sorted(set(documented) - set(METRIC_CATALOG))}"
        )
        for name, help_text in documented.items():
            assert help_text == METRIC_CATALOG[name], (
                f"DESIGN.md help for {name!r} drifted from the "
                f"catalogue: {help_text!r} != {METRIC_CATALOG[name]!r}"
            )

    def test_referenced_modules_import(self):
        design = read("DESIGN.md")
        for dotted in set(re.findall(r"`(repro(?:\.\w+)+)`", design)):
            try:
                importlib.import_module(dotted)
            except ModuleNotFoundError:
                # Tolerate references to attributes (repro.pkg.attr).
                parent, _, attr = dotted.rpartition(".")
                module = importlib.import_module(parent)
                assert hasattr(module, attr), (
                    f"DESIGN.md references {dotted} which neither imports "
                    "nor resolves as an attribute"
                )


    def test_simulation_core_names_are_real(self):
        """§1.5 names the engine's loop, state struct and helpers."""
        from repro.net.sim import fastsim
        from repro.net.sim.links import LinkSet

        design = read("DESIGN.md")
        section = design.split("### 1.5", 1)[1].split("### 1.6", 1)[0]
        assert hasattr(fastsim, "_RunState") and "_RunState" in section
        for name in ("step", "_admit", "_terminal", "_cross",
                     "_finish_sessions", "run_sessions", "start_fires"):
            assert f"`{name}" in section or f".{name}" in section, name
            assert hasattr(fastsim.FastSimulation, name), name
        assert "link_of" in design and hasattr(LinkSet, "link_of")
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert 'engine="fast"' not in read(doc), (
                f"{doc} still documents the removed engine= option"
            )


class TestExperimentsDoc:
    def test_regeneration_commands_reference_real_things(self):
        from repro.cli import _COMMANDS

        text = read("EXPERIMENTS.md")
        for command in re.findall(r"python -m repro (\w[\w-]*)", text):
            assert command in _COMMANDS
        for bench in re.findall(r"benchmarks/(test_bench_\w+\.py)", text):
            assert (REPO / "benchmarks" / bench).exists(), (
                f"EXPERIMENTS.md references missing benchmarks/{bench}"
            )


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in (REPO / "examples").glob("*.py")),
    )
    def test_example_parses(self, script):
        source = (REPO / "examples" / script).read_text(encoding="utf-8")
        tree = ast.parse(source)
        # Every example must be runnable as a script and documented.
        assert ast.get_docstring(tree), f"{script} needs a docstring"
        has_main_guard = any(
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and getattr(node.test.left, "id", "") == "__name__"
            for node in tree.body
        )
        assert has_main_guard, f"{script} needs an __main__ guard"
