"""The package binds its modules, and nothing else, under their own names."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rhtsketch

MODULES = ("distance", "ensemble", "features", "gaussian", "hadamard", "lab", "report")


def _python(*args):
    """Run a fresh interpreter that imports this same rhtsketch tree."""
    src = str(Path(rhtsketch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_is_the_module(name):
    assert getattr(rhtsketch, name) is sys.modules[f"rhtsketch.{name}"]


def test_import_as_yields_the_features_module():
    import rhtsketch.features as f

    assert isinstance(f, types.ModuleType)
    assert f is sys.modules["rhtsketch.features"]


def test_package_import_loads_only_the_bound_modules():
    # cli and csvio stay unloaded: `python -m rhtsketch.cli` must not find
    # its own module already imported.
    probe = _python(
        "-c",
        "import sys, rhtsketch; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('rhtsketch.'))))",
    )
    assert probe.returncode == 0, probe.stderr
    loaded = set(probe.stdout.split())
    assert loaded == {f"rhtsketch.{name}" for name in MODULES} | {"rhtsketch.streams"}


def test_cli_module_runs_without_warnings():
    done = _python("-W", "error", "-m", "rhtsketch.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout
