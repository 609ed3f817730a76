"""One invalid config per rule of the config check, refused with
``ConfigError`` by ``ExperimentConfig.from_dict`` and, where the config can
be built directly, by ``ExperimentConfig(**raw)``."""

import copy
import json
import pickle
import sys
from pathlib import Path

import pytest

from qvr.bench import _PARAMS, ConfigError, ExperimentConfig, run_replications
from qvr.designs import DESIGNS

BASE = {"model": "toy1d", "estimator": "ee", "alpha": 0.95, "n": 200,
        "replications": 5, "seed": 0}
NORMAL = {"family": "normal", "mean": 0.0, "stddev": 1.0}
LOGNORMAL = {"family": "lognormal", "log_mean": 0.0, "log_stddev": 1.0}
EXTERNAL = {"command": "python3 sim.py", "metamodel_command": "python3 meta.py",
            "input": [NORMAL, LOGNORMAL], "batch_size": 64, "timeout": 60.0}


def config(**over):
    raw = copy.deepcopy(BASE)
    raw.update(over)
    return raw


def without(key):
    raw = config()
    del raw[key]
    return raw


def external(**over):
    model = copy.deepcopy(EXTERNAL)
    model.update(over)
    for key in [k for k, v in over.items() if v is DROP]:
        del model[key]
    return config(model=model)


def marginal(**over):
    m = dict(NORMAL, **over)
    for key in [k for k, v in over.items() if v is DROP]:
        del m[key]
    return external(input=[m])


DROP = object()
CS, ACS = dict(estimator="cs"), dict(estimator="acs")
CIS = dict(model="toy2d", estimator="cis")

# Rows a call with these keywords cannot even make: Python's own signature
# check refuses them when the config is built directly.
SIGNATURE_ROWS = {f"missing {k}" for k in BASE} | {"unknown top-level key"}

# One row per rule of a config: each missing key, unknown key, wrong type
# (bools included), bound and choice.
SCHEMA_ROWS = {
    **{f"missing {k}": without(k) for k in BASE},
    "missing model.command": external(command=DROP),
    "missing model.metamodel_command": external(metamodel_command=DROP),
    "missing model.input": external(input=DROP),
    "missing normal stddev": marginal(stddev=DROP),
    "missing lognormal log_mean": external(input=[
        {"family": "lognormal", "log_stddev": 1.0}]),
    "unknown top-level key": config(workers=2),
    "unknown model key": external(surprise=True),
    "unknown marginal key": marginal(shape=2.0),
    "unknown params key": config(params={"no_such_param": 3}),
    "model number": config(model=3),
    "model list": config(model=["toy1d"]),
    "alpha string": config(alpha="0.95"),
    "alpha bool": config(alpha=True),
    "n string": config(n="200"),
    "n bool": config(n=True),
    "n fraction": config(n=200.5),
    "replications bool": config(replications=True),
    "seed string": config(seed="0"),
    "seed bool": config(seed=True),
    "params list": config(params=[]),
    "output number": config(output=3),
    "command number": external(command=3),
    "metamodel_command null": external(metamodel_command=None),
    "input object": external(input={"family": "normal"}),
    "input empty": external(input=[]),
    "marginal string": external(input=["normal"]),
    "batch_size string": external(batch_size="64"),
    "batch_size bool": external(batch_size=True),
    "timeout string": external(timeout="60"),
    "timeout bool": external(timeout=True),
    "mean string": marginal(mean="0"),
    "mean bool": marginal(mean=True),
    "stddev bool": marginal(stddev=True),
    "log_stddev string": external(input=[dict(LOGNORMAL, log_stddev="1")]),
    "cutpoints string": config(**CS, params={"cutpoints": "0,0.5,1"}),
    "cutpoint string": config(**CS, params={"cutpoints": [0.0, "0.5", 1.0]}),
    "cutpoint bool": config(**CS, params={"cutpoints": [0.0, True, 1.0]}),
    "allocation string": config(**CS, params={"allocation": "50"}),
    "allocation fraction": config(**CS, params={
        "allocation": [50, 50.5, 50, 49.5]}),
    "allocation bool": config(**CS, params={"allocation": [True, 1, 1, 197]}),
    "pilot_per_stratum string": config(**ACS,
                                       params={"pilot_per_stratum": "5"}),
    "min_per_stratum bool": config(**ACS, params={"min_per_stratum": True}),
    "pilot_count string": config(**CIS, params={"pilot_count": "20000"}),
    "alpha 0": config(alpha=0),
    "alpha 1": config(alpha=1),
    "n 1": config(n=1),
    "replications 0": config(replications=0),
    "seed -1": config(seed=-1),
    "batch_size 0": external(batch_size=0),
    "timeout 0": external(timeout=0),
    "stddev 0": marginal(stddev=0.0),
    "log_stddev 0": external(input=[dict(LOGNORMAL, log_stddev=0.0)]),
    "pilot_count 999": config(**CIS, params={"pilot_count": 999}),
    "pilot_per_stratum 0": config(**ACS, params={"pilot_per_stratum": 0}),
    "min_per_stratum 0": config(**ACS, params={"min_per_stratum": 0}),
    "negative allocation": config(**CS, params={
        "allocation": [-1, 100, 50, 51]}),
    "two cutpoints": config(**CS, params={"cutpoints": [0.0, 1.0]}),
    "estimator enum": config(estimator="magic"),
    "marginal family enum": marginal(family="uniform"),
    "family enum": config(**CIS, params={"family": "gaussian"}),
    "tail enum": config(**CIS, params={"tail": "both"}),
    "selection enum": config(**CIS, params={"selection": "best"}),
    "mode enum": config(**CIS, params={"mode": "raw"}),
}

# An integral float where an integer is required, and a param that the
# estimator does not read (JSON Schema's "integer" and a shared params
# object let both through).
CHECK_ROWS = {
    "n integral float": config(n=200.0),
    "replications integral float": config(replications=3.0),
    "seed integral float": config(seed=1.0),
    "batch_size integral float": external(batch_size=64.0),
    "pilot_count integral float": config(**CIS,
                                         params={"pilot_count": 20000.0}),
    "pilot_per_stratum integral float": config(
        **ACS, params={"pilot_per_stratum": 5.0}),
    "min_per_stratum integral float": config(
        **ACS, params={"min_per_stratum": 1.0}),
    "allocation integral float": config(**CS, params={
        "allocation": [50.0, 50.0, 50.0, 50.0]}),
    "ee cutpoints": config(params={"cutpoints": [0.0, 0.95, 1.0]}),
    "ee quantile_precision": config(params={"quantile_precision": "mc"}),
    "cv allocation": config(estimator="cv",
                            params={"allocation": [100, 100]}),
    "ps allocation": config(estimator="ps",
                            params={"allocation": [50, 50, 50, 50]}),
    "cs pilot_count": config(**CS, params={"pilot_count": 20_000}),
    "acs mode": config(**ACS, params={"mode": "tail"}),
    "cis cutpoints": config(**CIS, params={"cutpoints": [0.0, 0.95, 1.0]}),
}

ROWS = {**SCHEMA_ROWS, **CHECK_ROWS}


@pytest.mark.parametrize("row", list(ROWS))
def test_from_dict_refuses(row):
    with pytest.raises(ConfigError, match="^invalid config: "):
        ExperimentConfig.from_dict(ROWS[row])


@pytest.mark.parametrize("row", list(ROWS))
def test_built_directly_refuses(row):
    expected = TypeError if row in SIGNATURE_ROWS else ConfigError
    with pytest.raises(expected):
        ExperimentConfig(**ROWS[row])


@pytest.mark.parametrize("raw", [
    config(),
    external(),
    external(batch_size=DROP, timeout=DROP, input=[LOGNORMAL]),
    config(estimator="cv"),
    config(estimator="ps", params={"cutpoints": [0.0, 0.5, 1.0]}),
    config(**CS, params={"cutpoints": [0.0, 0.5, 1.0],
                         "allocation": [100, 100]}),
    config(**ACS, params={"cutpoints": [0.0, 0.95, 1.0],
                          "pilot_per_stratum": 5, "min_per_stratum": 2}),
    config(**CIS, params={"family": "componentwise_matched",
                          "pilot_count": 1000, "tail": "lower",
                          "selection": "moment", "mode": "self_normalized"}),
    config(alpha=0.5, n=2, replications=1, seed=0, output="out.json"),
])
def test_valid_configs_pass_both_ways(raw):
    assert ExperimentConfig.from_dict(raw) == ExperimentConfig(**raw)


def test_every_param_is_read_by_some_estimator():
    # A param rule that no design reads is an option no config can set.
    read = {k for design in DESIGNS.values() for k in design.params}
    assert read == set(_PARAMS)


def test_every_estimator_in_the_enum_message():
    # jsonschema's wording, kept for the callers that match it
    with pytest.raises(ConfigError, match=r"'magic' is not one of \['ee', "
                       r"'cv', 'ps', 'cs', 'acs', 'cis'\]"):
        ExperimentConfig.from_dict(config(estimator="magic"))


def test_a_non_object_is_refused():
    for raw in ([BASE], "toy1d", None):
        with pytest.raises(ConfigError, match="^invalid config: "):
            ExperimentConfig.from_dict(raw)


TOY1D_SIM = Path(__file__).resolve().parents[1] / "tools" / "toy1d_sim.py"


def test_caller_changes_after_the_check_do_not_reach_the_run():
    # A config keeps copies of its params and model: an invalid cutpoint
    # list or an invalid marginal written into the caller's dicts after the
    # check is neither seen in the config nor run.
    sim = f'"{sys.executable}" "{TOY1D_SIM}"'
    cs = config(**CS, params={"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0],
                              "allocation": [50, 50, 50, 50]})
    ee = external(command=f"{sim} f", metamodel_command=f"{sim} fr",
                  input=[dict(NORMAL)])
    for raw, spoil in (
            (cs, lambda raw: raw["params"]["cutpoints"].insert(0, 2.0)),
            (ee, lambda raw: raw["model"]["input"][0].update(stddev=-1.0))):
        pristine = copy.deepcopy(raw)
        built = ExperimentConfig(**raw)
        spoil(raw)
        assert raw != pristine
        assert built.params == pristine.get("params", {})
        assert built.model == pristine["model"]
        assert (run_replications(built).estimates.tolist()
                == run_replications(
                    ExperimentConfig(**pristine)).estimates.tolist())


def test_a_built_config_cannot_change():
    # Its params and model are read-only all the way down, and still
    # serialize to the JSON bytes of the objects it was given.
    cs_raw = config(**CS, params={"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0],
                                  "allocation": [50, 50, 50, 50]})
    ee_raw = external()
    cs, ee = ExperimentConfig(**cs_raw), ExperimentConfig(**ee_raw)
    for change in (lambda: cs.params.__setitem__("foo", 1),
                   lambda: cs.params.update(allocation=[200, 0, 0, 0]),
                   lambda: cs.params.pop("allocation"),
                   lambda: cs.params.__delitem__("cutpoints"),
                   lambda: cs.params["cutpoints"].insert(0, 2.0),
                   lambda: cs.params["allocation"].__setitem__(0, 51),
                   lambda: cs.params["allocation"].sort(reverse=True),
                   lambda: ee.model.setdefault("timeout", 0),
                   lambda: ee.model.clear(),
                   lambda: ee.model["input"].append(NORMAL),
                   lambda: ee.model["input"][0].update(stddev=-1.0)):
        with pytest.raises(TypeError, match="a built config cannot change"):
            change()
    with pytest.raises(TypeError, match="a built config cannot change"):
        cs.params["cutpoints"] += [1.0]
    for built, raw in ((cs, cs_raw), (ee, ee_raw)):
        assert built.params == raw.get("params", {})
        assert built.model == raw["model"]
        for indent in (None, 2):
            assert json.dumps(vars(built), sort_keys=True, indent=indent) == \
                json.dumps({**raw, "params": raw.get("params", {}),
                            "output": None}, sort_keys=True, indent=indent)
        # A copy, a pickle and a rebuilt config are the same config, and as
        # read-only.
        for again in (copy.deepcopy(built), pickle.loads(pickle.dumps(built)),
                      ExperimentConfig(**vars(built))):
            assert again == built
            with pytest.raises(TypeError):
                again.params["foo"] = 1
