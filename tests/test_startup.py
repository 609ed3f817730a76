"""qvr starts without scipy: ``import qvr`` loads numpy and nothing heavier,
a design imports scipy only when it needs it, and a config is checked
without a schema library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qvr

ENV = dict(os.environ, PYTHONPATH=str(Path(qvr.__file__).resolve().parents[1]))


def loaded_after(code: str) -> list[str]:
    """Modules named scipy* or jsonschema* that a fresh interpreter holds
    after running ``code``."""
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m.startswith(('scipy', 'jsonschema')))))")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_neither_scipy_nor_jsonschema():
    assert loaded_after("import qvr, qvr.cli") == []


def test_config_check_loads_neither_scipy_nor_jsonschema():
    # A config file is checked by the config itself, with no schema library.
    assert loaded_after(
        "from qvr.bench import ExperimentConfig\n"
        "ExperimentConfig.from_dict({'model': {'command': 'sim f',"
        " 'metamodel_command': 'sim fr', 'input': [{'family': 'normal',"
        " 'mean': 0.0, 'stddev': 1.0}, {'family': 'lognormal',"
        " 'log_mean': 0.0, 'log_stddev': 0.5}], 'batch_size': 64},"
        " 'estimator': 'ee', 'alpha': 0.95, 'n': 200, 'replications': 3,"
        " 'seed': 0})") == []


@pytest.mark.parametrize("estimator", ["ee", "cv", "cs", "acs", "ps"])
def test_toy2d_replications_load_no_scipy(estimator):
    loaded = loaded_after(
        "from qvr.bench import ExperimentConfig, run_replications\n"
        "r = run_replications(ExperimentConfig(model='toy2d',"
        f" estimator={estimator!r}, alpha=0.95, n=200, replications=2,"
        " seed=0))\n"
        "assert len(r.estimates) == 2 and not r.errors")
    assert [m for m in loaded if m.startswith("scipy")] == []
