"""Lazy package exports: the tables, static declarations and import sets.

``repro`` and its ``bitmap``, ``calibration``, ``circuit``, ``edram``,
``fleet``, ``measure``, ``obs``, ``resilience`` and ``tech`` packages
resolve their public names on first access from one table each
(``_EXPORTS``).  These tests pin that a lazy name is the very object
its submodule defines, that type checkers see the same names, and which
modules a fresh interpreter loads.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = (
    "repro", "repro.bitmap", "repro.calibration", "repro.circuit", "repro.edram",
    "repro.fleet", "repro.measure", "repro.obs", "repro.resilience", "repro.tech",
)

SRC_ROOT = Path(repro.__file__).resolve().parents[1]


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter importing this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC_ROOT), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    ).stdout


def _target(entry: str, name: str) -> object:
    module, _, attribute = entry.partition(":")
    return getattr(importlib.import_module(module), attribute or name)


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestExportTable:
    def test_all_lists_the_table(self, package_name):
        package = importlib.import_module(package_name)
        public = [name for name in package.__all__ if name != "__version__"]
        assert public == list(package._EXPORTS)

    def test_names_are_their_submodule_objects(self, package_name):
        package = importlib.import_module(package_name)
        listed = dir(package)
        for name, entry in package._EXPORTS.items():
            assert getattr(package, name) is _target(entry, name), name
            assert name in listed

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=f"module '{package_name}' has no"):
            getattr(package, "no_such_export")
        with pytest.raises(AttributeError, match="_private"):
            getattr(package, "_private")

    def test_star_import_binds_all(self, package_name):
        package = importlib.import_module(package_name)
        namespace: dict[str, object] = {}
        exec(f"from {package_name} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)

    def test_type_checking_block_declares_the_table(self, package_name):
        """Type checkers read the ``if TYPE_CHECKING:`` imports instead."""
        package = importlib.import_module(package_name)
        tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
        (block,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        ]
        declared = {}
        for node in block.body:
            assert isinstance(node, ast.ImportFrom)
            for alias in node.names:
                declared[alias.asname or alias.name] = (
                    node.module if alias.asname is None
                    else f"{node.module}:{alias.name}"
                )
        assert declared == package._EXPORTS


def test_subpackages_resolve_as_attributes():
    out = _run_python(
        "import repro\n"
        "print(repro.measure.scan.ArrayScanner.__module__)\n"
        "print(hasattr(repro, 'no_such_module'))\n"
    )
    assert out.split() == ["repro.measure.scan", "False"]


def test_worker_import_skips_analysis_packages():
    """A shard worker never runs diagnosis, lint, controller or baselines."""
    loaded = set(_run_python(
        "import sys\n"
        "import repro.fleet.worker\n"
        "print('\\n'.join(sys.modules))\n"
    ).split())
    assert "repro.fleet.worker" in loaded
    unwanted = ("networkx", "repro.lint", "repro.diagnosis", "repro.controller",
                "repro.baselines")
    assert sorted(
        module for module in loaded
        if any(module == root or module.startswith(root + ".") for root in unwanted)
    ) == []


def test_shard_worker_loads_only_the_die_stack_path(tmp_path):
    """A shard worker measures its dies with the lot's calibration
    table: it never loads the circuit simulator, the calibration
    package, the measurement structure or the array scanner."""
    from repro.wafer import WaferModel

    wafer = {"diameter_dies": 5, "seed": 3}
    spec = {
        "shard_id": 0,
        "die_range": [0, 9],
        "wafer": wafer,
        "calibration": WaferModel(**wafer).die_calibration().to_json(),
        "ledger_root": str(tmp_path / "ledger"),
        "lease_path": str(tmp_path / "lease.json"),
        "result_path": str(tmp_path / "result.npz"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    loaded = _run_python(
        "import sys\n"
        "from repro.fleet.worker import load_spec, run_shard\n"
        f"assert run_shard(load_spec({str(spec_path)!r})) == 0\n"
        "print('\\n'.join(sys.modules))\n"
    ).split()
    assert "repro.wafer" in loaded
    unwanted = ("repro.circuit", "repro.calibration", "repro.measure.sequencer",
                "repro.measure.structure", "repro.measure.scan", "repro.edram.array")
    assert sorted(
        module for module in loaded
        if any(module == root or module.startswith(root + ".") for root in unwanted)
    ) == []


def test_every_module_imports_on_its_own():
    """No import cycle depends on which module a process happens to load first."""
    failures = json.loads(_run_python(
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        "names = sorted(info.name for info in pkgutil.walk_packages(\n"
        "    repro.__path__, 'repro.') if not info.name.endswith('__main__'))\n"
        "failures = {}\n"
        "for name in ['repro', *names]:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as exc:\n"
        "        failures[name] = repr(exc)\n"
        "print(json.dumps(failures))\n"
    ))
    assert failures == {}
