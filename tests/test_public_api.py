"""``qvr``'s namespace holds the engine's API and nothing else, and every
``from qvr import X`` or ``from qvr.M import X`` in the demos, the tools,
perfbench and README's Python blocks names something that exists.  The
imports are read with ``ast``, so a broken one fails here, before any demo
or benchmark runs."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import qvr

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # runs and reports
    "ExperimentConfig", "ConfigError", "ReplicationReport",
    "run_replications", "run_preset", "preset_configs",
    "estimate_with_bootstrap", "emit_report", "ground_truth_quantile",
    # models
    "ModelPair", "InputDistribution", "Normal", "Lognormal",
    "SubprocessModel", "subprocess_pair", "builtin_model", "toy1d", "toy2d",
    "identity1d",
    # streams
    "RngStream",
    # error types
    "ModelError", "EstimatorError", "SamplingError", "StrataError",
    "ImportanceError", "CisNonConvergence",
}

SUBMODULES = {m.name for m in pkgutil.iter_modules(qvr.__path__)}


def test_public_names_are_the_engines_api():
    assert len(PUBLIC) == 26
    assert {name for name, value in vars(qvr).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)} == PUBLIC


def _sources():
    """(label, source) of every Python file under demos/, tools/ and
    perfbench/, and of each python block of README.md."""
    for folder in ("demos", "tools", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield str(path.relative_to(ROOT)), path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        yield f"README.md python block {i}", block


def _qvr_imports(source):
    """(module, name) of each ``from qvr... import name`` in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and not node.level
                and node.module.split(".")[0] == "qvr"):
            for alias in node.names:
                yield node.module, alias.name


SOURCES = list(_sources())


def test_the_scan_sees_the_demos_and_the_library_sketch():
    labels = {label for label, _ in SOURCES}
    assert {"demos/04_external_simulator.py",
            "README.md python block 0"} <= labels
    assert ("qvr", "run_replications") in set(
        _qvr_imports(dict(SOURCES)["README.md python block 0"]))


@pytest.mark.parametrize("label, source", SOURCES,
                         ids=[label for label, _ in SOURCES])
def test_every_qvr_import_resolves(label, source):
    for module, name in _qvr_imports(source):
        if module == "qvr":
            assert name in PUBLIC or name in SUBMODULES, name
        else:
            assert hasattr(importlib.import_module(module), name), \
                f"{module}.{name}"
