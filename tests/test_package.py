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


def _loaded_after(statement):
    """Names of rhtsketch and scipy modules loaded by ``statement`` in a fresh interpreter."""
    probe = _python(
        "-c",
        f"import sys; {statement}; "
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('rhtsketch.') or m.split('.')[0] == 'scipy')))",
    )
    assert probe.returncode == 0, probe.stderr
    return set(probe.stdout.split())


def test_package_import_loads_only_the_bound_modules():
    # cli and csvio stay unloaded: `python -m rhtsketch.cli` must not find
    # its own module already imported.  No scipy module loads either: only
    # the calls that need scipy import it.
    loaded = _loaded_after("import rhtsketch")
    assert loaded == {f"rhtsketch.{name}" for name in MODULES} | {"rhtsketch.streams"}
    assert not any(m.split(".")[0] == "scipy" for m in _loaded_after("import rhtsketch.cli"))


def test_package_import_loads_no_thread_pool():
    # concurrent.futures loads with the first split transform, not before
    probe = _python(
        "-c",
        "import sys, numpy, rhtsketch; print('concurrent.futures' in sys.modules); "
        "rhtsketch.hadamard._WORKERS = 2; "
        "rhtsketch.hadamard.fwht_in_place(numpy.zeros((2, 1 << 16))); "
        "print('concurrent.futures' in sys.modules)",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["False", "True"]


def test_cli_module_runs_without_warnings():
    done = _python("-W", "error", "-m", "rhtsketch.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout
