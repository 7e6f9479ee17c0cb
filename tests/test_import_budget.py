"""Import budget: the compile path never imports numpy or networkx.

Lint rule L003 keeps the stdlib-only layers free of *direct* third-party
imports; this module holds the *indirect* ones.  Each check runs in a
fresh interpreter with numpy and networkx import-blocked, so any import
chain that reaches either fails here.  The four lazily re-exporting
packages are also checked for the public surface their eager versions had.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Setting a ``sys.modules`` entry to None makes importing it raise.
_BLOCK = "import sys\nsys.modules['numpy'] = sys.modules['networkx'] = None\n"

LAYERS = (
    "repro",
    "repro.cli",
    "repro.service",
    "repro.store",
    "repro.parallel",
    "repro.sat",
    "repro.telemetry",
)

SOLVES = (
    ["solve", "--modes", "3", "--proof"],
    ["solve", "--model", "hubbard:2", "--method", "sat-anl"],
    ["solve", "--model", "tv:4", "--device", "linear-4", "--max-conflicts", "200"],
)

LAZY_PACKAGES = ("repro", "repro.paulis", "repro.fermion", "repro.analysis")


def _run_blocked(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(
        [sys.executable, "-c", _BLOCK + code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


class TestBlockedImports:
    def test_block_is_effective(self, tmp_path):
        process = _run_blocked("import numpy", tmp_path)
        assert process.returncode != 0
        assert "ModuleNotFoundError" in process.stderr

    def test_layers_import(self, tmp_path):
        code = "".join(f"import {module}\n" for module in LAYERS)
        process = _run_blocked(code, tmp_path)
        assert process.returncode == 0, process.stderr

    @pytest.mark.parametrize("argv", SOLVES, ids=lambda argv: " ".join(argv[1:3]))
    def test_solve_runs(self, argv, tmp_path):
        code = (
            "from repro.cli import main\n"
            f"code = main({argv!r})\n"
            "assert code == 0, code\n"
            "assert 'repro.simulator' not in sys.modules\n"
        )
        process = _run_blocked(code, tmp_path)
        assert process.returncode == 0, process.stderr
        assert "weight:" in process.stdout


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyReExports:
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            assert getattr(package, export) is not None, export

    def test_every_export_is_listed_by_dir(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError):
            package.no_such_export
