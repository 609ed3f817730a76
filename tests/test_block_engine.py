"""The block replication engine against one-replication-at-a-time runs.

``reference_estimate`` computes replication r with the one-sample public
functions, the way each replication was run before replications were
blocked; the engine must give the same bits, whatever block a replication
falls in.
"""

import sys
import textwrap

import numpy as np
import pytest

from qvr import bench, estimators, importance, strata
from qvr.bench import ExperimentConfig, run_replications
from qvr.model import BUILTIN_MODELS, ModelError, ModelPair, toy1d
from qvr.sampling import (
    AllocationPlan,
    RngStream,
    evaluate_full,
    sample_input,
    sample_strata,
    strata_from_cutpoints,
)

N = 200
BLOCK = bench.BLOCK_POINTS // N
SPANNING = 2 * BLOCK + 1  # replications over three blocks

CONFIGS = {
    "ee": dict(model="toy1d", estimator="ee"),
    "cv": dict(model="toy1d", estimator="cv"),
    "ps": dict(model="toy1d", estimator="ps"),
    "cs": dict(model="toy1d", estimator="cs",
               params={"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0],
                       "allocation": [50, 50, 50, 50]}),
    "acs": dict(model="toy1d", estimator="acs",
                params={"cutpoints": [0.0, 0.85, 0.95, 1.0]}),
    "cis": dict(model="toy2d", estimator="cis",
                params={"pilot_count": 20_000}),
}


def make(label, replications, **over):
    raw = dict(alpha=0.95, n=N, replications=replications, seed=21,
               **CONFIGS[label])
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


def reference_estimate(config, prep, r):
    pair, alpha, n = prep.pair, config.alpha, config.n
    stream = RngStream(config.seed).child(r)
    est = config.estimator
    if est == "ee":
        x = sample_input(pair.input, stream, n)
        return estimators.empirical_quantile(pair.eval_full(x), alpha)
    if est == "cv":
        s = estimators.draw_paired_sample(pair, stream, n)
        return estimators.cv_quantile(s, prep.z_alpha, alpha)
    if est == "ps":
        s = estimators.draw_paired_sample(pair, stream, n)
        strat = prep.spec.stratum_of(s.z)
        ys = [s.y[strat == j] for j in range(prep.spec.m)]
        for j, yj in enumerate(ys):
            if len(yj) == 0:
                raise estimators.EstimatorError(f"stratum {j} is empty")
        ws = [np.full(len(yj), prep.spec.widths[j] / len(yj))
              for j, yj in enumerate(ys)]
        cdf = estimators.weighted_cdf(np.concatenate(ys), np.concatenate(ws))
        return estimators.quantile_from_weighted_cdf(cdf, alpha)
    if est == "cs":
        sample, _ = sample_strata(pair, prep.spec, prep.plan, stream)
        return strata.cs_quantile(evaluate_full(pair, sample), prep.spec,
                                  alpha)
    if est == "acs":
        return strata.acs_quantile(pair, prep.acs_config, alpha,
                                   stream).estimate
    return importance.cis_quantile(pair, prep.cis_family, alpha, n, stream,
                                   params=prep.cis_params,
                                   mode=prep.cis_mode).estimate


@pytest.mark.parametrize("label", list(CONFIGS))
def test_estimates_do_not_depend_on_their_block(label):
    short = run_replications(make(label, 5))
    long = run_replications(make(label, SPANNING))
    assert not short.errors and not long.errors
    assert len(long.estimates) == SPANNING
    assert short.estimates.tolist() == long.estimates[:5].tolist()
    config = make(label, SPANNING)
    prep = bench._prepare(config)
    for r in (0, BLOCK - 1, BLOCK, SPANNING - 1):
        assert long.estimates[r] == reference_estimate(config, prep, r), r


@pytest.mark.parametrize("alpha", [0.5, 0.95])
@pytest.mark.parametrize("n", [2, 20, 1000])
def test_weighted_inversions_match_reference(alpha, n):
    # alpha * n is an integer for n = 20, where the inversion tolerance
    # decides between two support points.
    for label, over in (("cv", {}),
                        ("cis", {"params": {"pilot_count": 20_000,
                                            "mode": "self_normalized"}})):
        config = make(label, 12, alpha=alpha, n=n, **over)
        report = run_replications(config)
        prep = bench._prepare(config)
        expected = [reference_estimate(config, prep, r) for r in range(12)]
        assert report.estimates.tolist() == expected, label


def test_ps_empty_strata_recorded_per_replication():
    config = make("ps", 60, n=20)
    report = run_replications(config)
    prep = bench._prepare(config)
    expected_errors, expected = [], []
    for r in range(60):
        try:
            expected.append(reference_estimate(config, prep, r))
        except estimators.EstimatorError as e:
            expected_errors.append((r, str(e)))
    assert expected_errors
    assert report.errors == expected_errors
    assert report.estimates.tolist() == expected


def _counting_factory(name, counts, fail_after=None):
    original = BUILTIN_MODELS[name]

    def factory():
        pair = original()

        def f(x):
            counts["f"] += len(x)
            if fail_after is not None and counts["f"] > fail_after:
                raise ModelError("simulator died")
            return pair.f(x)
        return ModelPair(f=f, f_r=pair.f_r, input=pair.input, name=pair.name,
                         closed_form_z_quantile=pair.closed_form_z_quantile)
    return factory


@pytest.mark.parametrize("label", list(CONFIGS))
def test_f_receives_n_points_per_replication(label, monkeypatch):
    counts = {"f": 0}
    model = CONFIGS[label]["model"]
    monkeypatch.setitem(BUILTIN_MODELS, model,
                        _counting_factory(model, counts))
    report = run_replications(make(label, BLOCK + 3))
    assert len(report.estimates) == BLOCK + 3
    assert counts["f"] == N * (BLOCK + 3)


@pytest.mark.parametrize("label", list(CONFIGS))
def test_model_error_ends_the_run(label, monkeypatch):
    model = CONFIGS[label]["model"]
    monkeypatch.setitem(BUILTIN_MODELS, model, _counting_factory(
        model, {"f": 0}, fail_after=N * (BLOCK + 1)))
    with pytest.raises(ModelError):
        run_replications(make(label, 2 * BLOCK))


def test_sample_strata_does_not_depend_on_batch_size_in_one_dimension():
    pair = toy1d()
    spec = strata_from_cutpoints(pair, [0.0, 0.5, 0.9, 0.95, 1.0])
    plan = AllocationPlan((50, 50, 50, 50))
    for r in range(8):
        stream = RngStream(4, (r,))
        ref, ref_draws = sample_strata(pair, spec, plan, stream)
        for batch in (1, 37, 700, 4096):
            got, draws = sample_strata(pair, spec, plan, stream, batch=batch)
            assert draws == ref_draws, batch
            for j in range(spec.m):
                assert np.array_equal(got.x[j], ref.x[j]), batch
                assert np.array_equal(got.z[j], ref.z[j]), batch


DYING_SIMULATOR = textwrap.dedent("""
    import json, sys
    served = 0
    for line in sys.stdin:
        msg = json.loads(line)
        print(json.dumps({"id": msg["id"], "y": sum(msg["x"])}), flush=True)
        served += 1
        if served == int(sys.argv[1]):
            sys.exit(0)
""")


def test_dead_simulator_is_fatal(tmp_path):
    script = tmp_path / "dying.py"
    script.write_text(DYING_SIMULATOR)
    command = f'"{sys.executable}" "{script}" 25'
    config = ExperimentConfig.from_dict({
        "model": {"command": command, "metamodel_command": command,
                  "input": [{"family": "normal", "mean": 0.0,
                             "stddev": 1.0}],
                  "timeout": 10},
        "estimator": "ee", "alpha": 0.9, "n": 10, "replications": 6,
        "seed": 1,
    })
    with pytest.raises(ModelError):
        run_replications(config)
