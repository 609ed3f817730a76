"""qvr runs without scipy: ``import qvr`` loads numpy and nothing heavier,
no design imports scipy, and a config is checked without a schema
library."""

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


def loaded_by_replications(model: str, estimator: str) -> list[str]:
    """``loaded_after`` two replications of ``estimator`` on ``model``."""
    return loaded_after(
        "from qvr.bench import ExperimentConfig, run_replications\n"
        f"r = run_replications(ExperimentConfig(model={model!r},"
        f" estimator={estimator!r}, alpha=0.95, n=200, replications=2,"
        " seed=0))\n"
        "assert len(r.estimates) == 2 and not r.errors")


@pytest.mark.parametrize("estimator", ["ee", "cv", "cs", "acs", "ps", "cis"])
def test_toy2d_replications_load_no_scipy(estimator):
    loaded = loaded_by_replications("toy2d", estimator)
    assert [m for m in loaded if m.startswith("scipy")] == []


@pytest.mark.parametrize("estimator", ["ee", "cv", "cs", "acs", "ps"])
def test_toy1d_replications_load_no_scipy(estimator):
    # toy1d's closed-form metamodel quantiles need the normal quantile.
    loaded = loaded_by_replications("toy1d", estimator)
    assert [m for m in loaded if m.startswith("scipy")] == []


def test_toy1d_cis_refusal_loads_no_scipy():
    # cis fits and builds its member before it refuses toy1d's two-sided
    # tail event.
    loaded = loaded_after(
        "from qvr.bench import ExperimentConfig, run_replications\n"
        "from qvr.importance import CisNonConvergence\n"
        "try:\n"
        "    run_replications(ExperimentConfig(model='toy1d', estimator='cis',"
        " alpha=0.95, n=200, replications=2, seed=0))\n"
        "except CisNonConvergence:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('cis did not refuse toy1d')")
    assert [m for m in loaded if m.startswith("scipy")] == []


def test_toy1d_bootstrap_loads_no_scipy():
    loaded = loaded_after(
        "from qvr.bench import ExperimentConfig, estimate_with_bootstrap\n"
        "out = estimate_with_bootstrap(ExperimentConfig(model='toy1d',"
        " estimator='cs', alpha=0.95, n=200, replications=1, seed=0),"
        " B=100)\n"
        "assert out['bootstrap_std'] > 0")
    assert [m for m in loaded if m.startswith("scipy")] == []


@pytest.mark.parametrize("topic", ["variance", "allocation", "cost"])
def test_toy1d_diag_loads_no_scipy(topic, tmp_path):
    path = tmp_path / "toy1d-cs.json"
    path.write_text(json.dumps({"model": "toy1d", "estimator": "cs",
                                "alpha": 0.95, "n": 200, "replications": 1,
                                "seed": 0}))
    loaded = loaded_after(
        "from qvr.cli import main\n"
        f"main(['diag', {topic!r}, '--config', {str(path)!r}],"
        " standalone_mode=False)")
    assert [m for m in loaded if m.startswith("scipy")] == []

