"""Documentation smoke tests (the ``docs`` marker).

Guards the promises the README and DESIGN.md make: every public module
imports cleanly, public packages and modules carry a real docstring (so
``python -m pydoc repro.<mod>`` is usable), the README quickstart commands
parse, and the README's architecture map does not reference packages that
do not exist.
"""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.docs

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every importable module under repro (computed once at collection time).
ALL_MODULES = sorted(
    {"repro"}
    | {
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    }
)

#: The public packages whose docs the README points at.
PUBLIC_PACKAGES = [
    "repro",
    "repro.algorithms",
    "repro.analysis",
    "repro.arena",
    "repro.circuits",
    "repro.cuts",
    "repro.devices",
    "repro.distrib",
    "repro.engine",
    "repro.experiments",
    "repro.graphs",
    "repro.ising",
    "repro.neurons",
    "repro.obs",
    "repro.parallel",
    "repro.plotting",
    "repro.portfolio",
    "repro.problems",
    "repro.scale",
    "repro.sdp",
    "repro.serve",
    "repro.spectral",
    "repro.utils",
    "repro.workloads",
]


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_all_public_packages_are_walked(self):
        # If a package is added but missing from PUBLIC_PACKAGES, the
        # docstring checks below would silently skip it.
        discovered = {m for m in ALL_MODULES if m.count(".") <= 1 and
                      hasattr(importlib.import_module(m), "__path__")} | {"repro"}
        assert discovered == set(PUBLIC_PACKAGES)


class TestDocstrings:
    @pytest.mark.parametrize("module_name", PUBLIC_PACKAGES)
    def test_package_docstring_non_trivial(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no docstring"
        # One-word placeholders don't help pydoc users.
        assert len(module.__doc__.strip()) >= 40, (
            f"{module_name} docstring is too thin: {module.__doc__!r}"
        )

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module_name} has no module docstring"
        )

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_exported_names_resolve(self, module_name):
        # A name deleted from a module must leave its ``__all__`` too.
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module_name}.{name}"


class TestReadme:
    def test_readme_exists_and_mentions_quickstart_commands(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for command in ("repro run", "repro workloads", "repro solve",
                        "repro engine", "repro serve",
                        "pip install -e ."):
            assert command in readme, f"README lost the {command!r} quickstart"

    def test_readme_architecture_map_matches_source_tree(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for package in PUBLIC_PACKAGES:
            if package == "repro":
                continue
            assert f"`{package.split('.', 1)[1]}/`" in readme, (
                f"README architecture map is missing {package}"
            )

    def test_setup_py_uses_readme_as_long_description(self):
        setup_text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        assert "README.md" in setup_text
        assert "long_description" in setup_text


class TestCliHelp:
    """The README quickstart commands at least parse (``--help`` exits 0)."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["run", "--help"],
        ["workloads", "--help"],
        ["solve", "--help"],
        ["engine", "--help"],
        ["merge", "--help"],
        ["bench", "--help"],
        ["profile", "--help"],
        ["serve", "--help"],
        ["graphs", "--help"],
    ])
    def test_help_exits_zero(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_run_help_documents_shard_flags(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        for flag in ("--shards", "--checkpoint-dir", "--resume"):
            assert flag in out
