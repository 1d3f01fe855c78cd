"""Import layering: the simulation side never loads the training substrate.

The fleet, campaign and gateway CLIs simulate the on-device runtime only,
so importing them must not load the training modules (``repro.nn``,
``repro.data``, ``repro.compress``, ...) or SciPy.  Each import runs in a
fresh interpreter with a ``sys.meta_path`` finder that refuses ``scipy``,
so an eager SciPy import anywhere on the path fails the test outright.
Importing each CLI module in its own process is also the regression test
for the ``fleet.shards`` -> ``campaign`` import cycle, which only shows
when ``repro.campaign`` is the first package imported.

The second half pins the contract of the lazy ``repro`` package: every
name in ``__all__`` still resolves, to the very object its submodule
defines.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Packages of the training side (see docs/ARCHITECTURE.md, "Import
#: layering"); none may be loaded by importing a simulation entry point.
TRAINING_MODULES = (
    "repro.nn",
    "repro.data",
    "repro.compress",
    "repro.prune",
    "repro.quant",
    "repro.rl",
    "repro.models",
    "repro.zoo",
    "scipy",
)

PROBE = """
import importlib
import importlib.abc
import json
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked in this probe: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())
importlib.import_module(sys.argv[1])

print(json.dumps(sorted(sys.modules)))
"""


def loaded_after_import(module: str) -> list:
    """Return ``sys.modules`` of a fresh, scipy-blocked ``import module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, module],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def training_modules(loaded: list) -> list:
    return [
        name
        for name in loaded
        if any(name == t or name.startswith(t + ".") for t in TRAINING_MODULES)
    ]


@pytest.mark.parametrize(
    "module",
    ["repro.fleet.__main__", "repro.campaign.__main__", "repro.gateway.__main__"],
)
def test_cli_entry_points_skip_training_side(module):
    loaded = loaded_after_import(module)
    assert module in loaded
    assert training_modules(loaded) == []


def test_import_repro_loads_no_submodule():
    loaded = loaded_after_import("repro")
    assert [name for name in loaded if name.startswith("repro.")] == []
    assert training_modules(loaded) == []


@pytest.mark.parametrize("name", sorted(set(repro.__all__) - {"__version__"}))
def test_lazy_export_is_the_submodule_object(name):
    value = getattr(repro, name)
    module = importlib.import_module(repro._EXPORTS[name])
    assert value is getattr(module, name)
    assert vars(repro)[name] is value  # cached after the first lookup


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    assert not hasattr(repro, "no_such_name")


def test_star_import_and_version():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["FleetRunner"] is repro.FleetRunner
    assert repro.__version__ == "0.1.0"
