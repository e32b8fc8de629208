"""The installed entry points reach the CLI.

``pyproject.toml``'s ``[project.scripts]`` names the console scripts an
install creates, and ``python -m rdsim.cli`` is the other way in. Neither
line runs in any other test, so a renamed target would show only after an
install.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rdsim import __version__

ROOT = Path(__file__).resolve().parent.parent


def script_targets() -> dict[str, str]:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_every_script_target_imports_and_runs(monkeypatch, capsys):
    scripts = script_targets()
    assert scripts
    for name, target in scripts.items():
        module, _, attribute = target.partition(":")
        function = importlib.import_module(module)
        for part in attribute.split("."):
            function = getattr(function, part)
        assert callable(function), target
        monkeypatch.setattr(sys, "argv", [name, "--version"])
        with pytest.raises(SystemExit) as exc:
            function()
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"rdsim {__version__}\n"


def test_module_entry_prints_the_version():
    result = subprocess.run(
        [sys.executable, "-m", "rdsim.cli", "--version"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"rdsim {__version__}\n"
