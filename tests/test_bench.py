import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import reference_inversions as ref
from scipy.stats import norm

from qvr import bench, estimators, importance, sampling, strata
from qvr.bench import (
    ConfigError,
    ExperimentConfig,
    bootstrap_std,
    emit_report,
    estimate_with_bootstrap,
    ground_truth_quantile,
    preset_configs,
    run_replications,
)
from qvr.estimators import EstimatorError
from qvr.model import identity1d, toy1d, toy2d
from qvr.sampling import (AllocationPlan, RngStream, evaluate_full,
                          sample_strata, strata_from_cutpoints)


def make_config(**over):
    base = {
        "model": "toy1d",
        "estimator": "ee",
        "alpha": 0.95,
        "n": 200,
        "replications": 50,
        "seed": 7,
    }
    base.update(over)
    return ExperimentConfig.from_dict(base)


class TestConfigValidation:
    def test_round_trip(self):
        c = make_config()
        assert c.estimator == "ee" and c.n == 200

    def test_unknown_top_level_key_rejected(self):
        for key, value in (("extra_knob", 1), ("workers", 2),
                           ("format", "json")):
            with pytest.raises(ConfigError):
                make_config(**{key: value})

    def test_unknown_params_key_rejected(self):
        with pytest.raises(ConfigError):
            make_config(params={"no_such_param": 3})

    def test_bad_estimator_rejected(self):
        with pytest.raises(ConfigError):
            make_config(estimator="magic")

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            make_config(alpha=1.5)
        with pytest.raises(ConfigError):
            make_config(alpha=0.0)

    @pytest.mark.parametrize("key, value", [
        ("alpha", -0.2), ("alpha", 0.0), ("alpha", 1.5),
        ("alpha", float("nan")), ("n", 1), ("replications", 0)])
    def test_config_built_directly_is_checked(self, key, value):
        # A config built without from_dict, as the library, the demos and
        # perfbench build it, is refused where the schema would refuse it.
        raw = dict(model="toy1d", estimator="ee", alpha=0.95, n=200,
                   replications=5, seed=0)
        raw[key] = value
        with pytest.raises(ConfigError):
            ExperimentConfig(**raw)

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"model": "toy1d", "estimator": "ee"})

    def test_subprocess_model_shape(self):
        c = make_config(model={
            "command": "python3 sim.py",
            "metamodel_command": "python3 meta.py",
            "input": [{"family": "normal", "mean": 0.0, "stddev": 1.0}],
        })
        assert isinstance(c.model, dict)

    def test_subprocess_model_unknown_key(self):
        with pytest.raises(ConfigError):
            make_config(model={
                "command": "x",
                "metamodel_command": "y",
                "input": [{"family": "normal", "mean": 0.0, "stddev": 1.0}],
                "surprise": True,
            })


class TestGroundTruth:
    def test_identity_recovers_normal_quantile(self):
        val = ground_truth_quantile(identity1d(), 0.95, 4 * 10**6, RngStream(1))
        assert val == pytest.approx(norm.ppf(0.95), abs=0.003)

    def test_minimum_sample_enforced(self):
        with pytest.raises(ValueError):
            ground_truth_quantile(identity1d(), 0.95, 10**5, RngStream(1))

    def test_is_the_floor_alpha_n_plus_one_order_statistic(self):
        # alpha N is an integer at 0.5; 1 - 1e-7 reaches the largest point.
        # toy2d's outputs overwrite its first input column as they are made.
        N = 10**6
        for pair in (toy1d(), toy2d()):
            y = np.sort(pair.eval_full(pair.input.sample(
                RngStream(3).generator(), N)))
            for alpha in (0.5, 0.95, 0.9500005, 1 - 1e-7):
                assert ground_truth_quantile(pair, alpha, N, RngStream(3)) == \
                    y[math.floor(alpha * N)], (pair.name, alpha)


class TestRunReplications:
    def test_summary_matches_estimates(self):
        rep = run_replications(make_config(replications=40))
        est = rep.estimates
        assert rep.mean == pytest.approx(est.mean(), abs=1e-12)
        assert rep.std == pytest.approx(est.std(ddof=1), abs=1e-12)
        assert rep.sem == pytest.approx(est.std(ddof=1) / math.sqrt(len(est)),
                                        abs=1e-12)
        assert sum(rep.histogram_counts) == len(est)

    def test_acs_reports_allocations(self):
        rep = run_replications(make_config(
            estimator="acs", n=400, replications=10,
            params={"cutpoints": [0.0, 0.95, 1.0]}))
        assert len(rep.beta_tilde_mean) == 2
        assert len(rep.realized_mean) == 2
        assert rep.n_r_mean > 400
        for m in rep.realized_mean:
            assert 0 <= m <= 1

    def test_same_seed_same_bytes_twice(self):
        cfg = make_config(replications=25)
        assert (emit_report(run_replications(cfg), "csv")
                == emit_report(run_replications(cfg), "csv"))

    def test_one_acs_replication_gives_strict_json(self):
        rep = run_replications(make_config(
            estimator="acs", n=400, replications=1,
            params={"cutpoints": [0.0, 0.95, 1.0]}))

        def refuse(name):
            raise ValueError(f"non-finite number {name} in the report")
        data = json.loads(emit_report(rep, "json"), parse_constant=refuse)
        assert data["acs"]["beta_tilde_std"] == [0.0, 0.0]
        assert data["acs"]["realized_std"] == [0.0, 0.0]
        assert data["acs"]["std"] == data["acs"]["sem"] == 0.0

    def test_default_cs_plan_gives_every_stratum_a_point(self):
        # widths 0.5, 0.4, 0.05, 0.05: n = 7 rounds to [4, 3, 0, 0].
        config = make_config(estimator="cs", n=7, replications=30)
        assert ref.prepare(config).plan.counts == (2, 3, 1, 1)
        rep = run_replications(config)
        assert len(rep.estimates) == 30 and not rep.errors
        payload = estimate_with_bootstrap(config, B=100)
        assert payload["estimate"] == rep.estimates[0]
        with pytest.raises(ConfigError, match="4 strata"):
            run_replications(make_config(estimator="cs", n=3))

    def test_every_replication_failing_is_a_config_error(self):
        # n = 2 leaves stratum 2 of four empty in every replication.
        with pytest.raises(ConfigError) as e:
            run_replications(make_config(estimator="ps", n=2, replications=3,
                                         seed=0))
        assert str(e.value) == ("every replication failed; first error: "
                                "stratum 2 is empty")

    def test_integral_float_replications_refused(self):
        with pytest.raises(ConfigError, match="replications: 3.0 is not an "
                           "integer"):
            run_replications(make_config(replications=3.0))

    def test_different_seeds_differ(self):
        a = run_replications(make_config(replications=20, seed=1))
        b = run_replications(make_config(replications=20, seed=2))
        assert a.mean != b.mean


class TestBootstrap:
    def test_constant_data_gives_zero(self):
        rep = bootstrap_std(np.full(50, 3.0), lambda y: float(np.mean(y)),
                            "iid", 200, RngStream(3))
        assert rep.std == 0.0
        assert rep.point_estimate == 3.0

    def test_mean_bootstrap_matches_clt(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(400)
        rep = bootstrap_std(y, lambda v: float(np.mean(v)), "iid", 2000,
                            RngStream(4))
        assert rep.std == pytest.approx(y.std(ddof=1) / 20, rel=0.10)

    def test_minimum_resamples(self):
        with pytest.raises(ValueError):
            bootstrap_std(np.ones(10), float, "iid", 50, RngStream(5))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            bootstrap_std(np.ones(10), float, "jackknife", 200, RngStream(5))

    def test_ee_bootstrap_matches_asymptotic_std(self):
        # Var(quantile) ~ alpha(1-alpha) / (n f(y_alpha)^2) for identity model
        alpha, n = 0.9, 2000
        asym = math.sqrt(alpha * (1 - alpha) / n) / norm.pdf(norm.ppf(alpha))
        out = estimate_with_bootstrap(
            ExperimentConfig(model="identity1d", estimator="ee", alpha=alpha,
                             n=n, replications=1, seed=11), B=800)
        assert out["bootstrap_std"] == pytest.approx(asym, rel=0.25)
        assert out["estimate"] == pytest.approx(norm.ppf(alpha), abs=0.1)

    def test_cs_bootstrap_matches_replication_std(self):
        cfg = make_config(estimator="cs", n=200,
                          params={"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0],
                                  "allocation": [50, 50, 50, 50]})
        out = estimate_with_bootstrap(cfg, B=500)
        rep = run_replications(make_config(
            estimator="cs", replications=400,
            params={"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0],
                    "allocation": [50, 50, 50, 50]}))
        assert out["bootstrap_std"] == pytest.approx(rep.std, rel=0.35)

    def test_bootstrap_deterministic(self):
        cfg = make_config(estimator="cv", n=300)
        assert estimate_with_bootstrap(cfg, B=300) == \
            estimate_with_bootstrap(cfg, B=300)


class TestEmitReport:
    def test_json_sorted_and_parseable(self):
        rep = run_replications(make_config(replications=15))
        text = emit_report(rep, "json")
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert data["ee"]["replications"] == 15

    @pytest.mark.parametrize("estimator,extra", [
        ("ee", set()),
        ("acs", {"n_r_mean", "beta_tilde_mean", "beta_tilde_std",
                 "realized_mean", "realized_std"})])
    def test_json_keys_are_the_config_and_every_field_set(self, estimator,
                                                           extra):
        params = {"cutpoints": [0.0, 0.95, 1.0]} if estimator == "acs" else {}
        rep = run_replications(make_config(estimator=estimator, n=400,
                                           replications=3, params=params))
        data = json.loads(emit_report(rep, "json"))[estimator]
        assert set(data) == {
            "model", "estimator", "alpha", "n", "replications", "seed",
            "mean", "std", "sem", "estimates", "errors", "histogram_edges",
            "histogram_counts"} | extra
        assert data["errors"] == [] and len(data["estimates"]) == 3

    def test_csv_header_and_rows(self):
        rep = run_replications(make_config(replications=15))
        lines = emit_report(rep, "csv").splitlines()
        assert lines[0] == "method,quantity,mean,std"
        assert lines[1].startswith("ee,quantile,")

    def test_empty_mapping_gives_header_only_csv(self):
        assert emit_report({}, "csv") == "method,quantity,mean,std\n"

    def test_writes_file(self, tmp_path):
        rep = run_replications(make_config(replications=10))
        out = tmp_path / "r.json"
        text = emit_report(rep, "json", str(out))
        assert out.read_text() == text

    def test_unknown_format(self):
        rep = run_replications(make_config(replications=10))
        with pytest.raises(ValueError):
            emit_report(rep, "yaml")


def test_benchmark_tracer_finds_every_name_it_wraps_or_reads(monkeypatch):
    # perfbench/tracing.py wraps qvr functions by name and reads fields of
    # their results; a name it cannot find fails here, not in the benchmark.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [getattr(home, attr) for _, home, attr in tracing.FUNCTIONS]
    pair = toy1d()
    spec3 = strata_from_cutpoints(pair, [0.0, 0.85, 0.95, 1.0])
    tracer = tracing.Tracer()
    with tracer.installed():
        sampling.sample_strata(pair, spec3, AllocationPlan((5, 5, 5)),
                               RngStream(1))
        estimators.cv_cdf(estimators.draw_paired_sample(pair, RngStream(2),
                                                        40), 3.8415, 0.95)
        strata.acs_quantile(pair, strata.AcsConfig(spec=spec3, n=60),
                            0.95, RngStream(3))
    assert [getattr(home, attr) for _, home, attr in tracing.FUNCTIONS] == \
        originals
    assert {"sampling.sample_strata", "estimators.cv_cdf",
            "strata.acs_quantile"} <= set(tracer.summary())


class TestPresets:
    def test_known_presets_exist(self):
        for name in ("fig1", "table1", "table2", "fig2"):
            cfgs = preset_configs(name, replications=5)
            assert all(c.replications == 5 for c in cfgs.values())

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_configs("fig9")

    @pytest.mark.parametrize("replications", [0, -3])
    def test_replications_below_one_refused(self, replications):
        with pytest.raises(ConfigError, match="at least 1"):
            preset_configs("fig1", replications=replications)

    def test_default_replications(self):
        cfgs = preset_configs("fig2")
        assert all(c.replications == 5000 for c in cfgs.values())

    def test_fig1_small_run_is_sane(self):
        truth = 3.656
        for label, cfg in preset_configs("fig1", replications=60,
                                         seed=13).items():
            rep = run_replications(cfg)
            assert abs(rep.mean - truth) < 0.4, label


def reference_bootstrap(config, B, seen=None):
    """``estimate_with_bootstrap`` as ``bootstrap_std`` over the inversions
    of ``reference_inversions``: one closure per design, one resample at a
    time.  ``seen``, when given, collects the design's fallback flags."""
    prep = ref.prepare(config)
    pair, est, alpha, n = prep.pair, config.estimator, config.alpha, config.n
    root = RngStream(config.seed)
    run_stream, boot_stream = root.child(0), root.child(1)
    seen = {} if seen is None else seen
    extras = {}

    def pooled_quantile(ylist):
        return ref.stratified_quantile(ylist, prep.spec.widths, alpha)

    if est == "ee":
        data = pair.eval_full(pair.input.sample(run_stream.generator(), n))
        fn = lambda y: ref.empirical_quantile(y, alpha)
    elif est == "cv":
        s = estimators.draw_paired_sample(pair, run_stream, n)
        data = (s.y, s.z)

        def fn(pick):
            w, degenerate = ref.cv_weights(pick[1], prep.spec.z_values[1],
                                             alpha)
            seen["uniform_fallbacks"] = seen.get("uniform_fallbacks", 0) + degenerate
            return ref.weighted_quantile(pick[0], w, alpha)
    elif est == "ps":
        s = estimators.draw_paired_sample(pair, run_stream, n)
        data = (s.y, s.z)

        def fn(pick):
            strat = prep.spec.stratum_of(pick[1])
            ys = [pick[0][strat == j] for j in range(prep.spec.m)]
            for j, yj in enumerate(ys):
                if len(yj) == 0:
                    raise estimators.EstimatorError(f"stratum {j} is empty")
            return pooled_quantile(ys)
    elif est == "cs":
        sample, extras["n_r"] = sample_strata(pair, prep.spec, prep.plan,
                                              run_stream)
        data = evaluate_full(pair, sample)
        seen["empty_strata"] = int((data.counts == 0).sum())
        fn = pooled_quantile
    elif est == "acs":
        res = strata.acs_quantile(pair, prep.acs_config, alpha, run_stream)
        extras.update(n_r=res.draw_count, beta_tilde=res.beta_tilde.tolist(),
                      realized_fractions=res.realized_fractions.tolist())
        seen["floored_strata"] = res.floored_strata
        rows = strata.acs_rows(pair, prep.acs_config, run_stream.block(),
                               alpha)
        data = SimpleNamespace(y=np.split(rows.y,
                                          np.cumsum(rows.counts[0])[:-1]))
        fn = pooled_quantile
    else:
        s = importance.draw_weighted_sample(pair, *ref.joint_gaussian(prep),
                                           run_stream.child(1), n)
        data = (s.y, s.w)

        def fn(pick):
            if prep.mode == "tail":
                return ref.tail_quantile(*pick, alpha)
            return ref.weighted_quantile(*pick, alpha)
    scheme = bench.DESIGNS[est].scheme
    boot = bootstrap_std(data, fn, scheme, B, boot_stream)
    return {"estimator": est, "alpha": alpha, "n": n,
            "estimate": boot.point_estimate, "bootstrap_std": boot.std,
            "resamples": B, "scheme": scheme, **extras}


EQUIVALENCE_CASES = {
    "ee": dict(model="toy1d", estimator="ee"),
    "cv": dict(model="toy1d", estimator="cv"),
    "ps": dict(model="toy1d", estimator="ps"),
    "cs": dict(model="toy1d", estimator="cs"),
    "acs": dict(model="toy1d", estimator="acs",
                params={"cutpoints": [0.0, 0.85, 0.95, 1.0]}),
    "cis-tail": dict(model="toy2d", estimator="cis",
                     params={"pilot_count": 20_000}),
    "cis-self-normalized": dict(model="toy2d", estimator="cis",
                                params={"pilot_count": 20_000,
                                        "mode": "self_normalized"}),
}


class TestBootstrapEquivalence:
    """``estimate_with_bootstrap`` (resamples sorted and inverted row-wise)
    against ``reference_bootstrap`` (one closure call per resample)."""

    @pytest.mark.parametrize("label", list(EQUIVALENCE_CASES))
    @pytest.mark.parametrize("n", [200, 301])  # alpha*n = 190; n odd
    def test_same_dict_as_reference(self, label, n):
        for seed in (0, 1, 2):
            config = make_config(n=n, seed=seed, **EQUIVALENCE_CASES[label])
            assert estimate_with_bootstrap(config, B=150) == \
                reference_bootstrap(config, 150), seed

    def test_integer_alpha_n_in_small_samples(self):
        for label in ("ee", "cv", "cis-self-normalized"):
            config = make_config(n=20, alpha=0.5, **EQUIVALENCE_CASES[label])
            assert estimate_with_bootstrap(config, B=200) == \
                reference_bootstrap(config, 200), label

    def test_cs_plan_with_an_empty_stratum(self):
        # A zero quota leaves a stratum of positive weight without points:
        # both paths refuse it, as cs_quantile does.
        for seed in (0, 1):
            config = make_config(estimator="cs", n=100, seed=seed,
                                 params={"allocation": [40, 0, 30, 30]})
            for run in (estimate_with_bootstrap, run_replications):
                with pytest.raises(ConfigError, match="^stratum 1 has "
                                   "positive weight but no points$"):
                    run(config)

    def test_acs_with_floored_strata(self):
        config = make_config(estimator="acs", n=60,
                             params={"cutpoints": [0.0, 0.3, 0.95, 1.0],
                                     "pilot_per_stratum": 2,
                                     "min_per_stratum": 2})
        seen = {}
        expected = reference_bootstrap(config, 200, seen)
        assert seen["floored_strata"]
        assert estimate_with_bootstrap(config, B=200) == expected

    def test_cv_uniform_fallback_in_resamples(self):
        fallbacks = []
        for seed in (0, 1, 2):
            config = make_config(estimator="cv", n=12, seed=seed)
            seen = {}
            expected = reference_bootstrap(config, 200, seen)
            fallbacks.append(seen["uniform_fallbacks"])
            assert estimate_with_bootstrap(config, B=200) == expected, seed
        # Some resamples of one sample fall back, others do not (seed 0);
        # every resample of another falls back (seed 1).
        assert 0 < fallbacks[0] < 201 and fallbacks[1] == 201

    @pytest.mark.parametrize("label", ["cv", "ps", "cs", "cis-tail"])
    def test_chunk_size_does_not_matter(self, label, monkeypatch):
        config = make_config(n=200, **EQUIVALENCE_CASES[label])
        expected = estimate_with_bootstrap(config, B=130)
        for points in (1, 3 * 200 + 1, 10**6):
            monkeypatch.setattr(bench, "BLOCK_POINTS", points)
            assert estimate_with_bootstrap(config, B=130) == expected, points

    def test_ps_empty_resample_raises_as_reference(self):
        # Small samples: the first resample that loses a stratum raises.
        messages, full_samples = set(), 0
        for seed in range(12):
            config = make_config(estimator="ps", n=14, seed=seed)
            prep = ref.prepare(config)
            s = estimators.draw_paired_sample(
                prep.pair, RngStream(seed).child(0), config.n)
            full_samples += len(set(prep.spec.stratum_of(s.z))) == prep.spec.m
            with pytest.raises(EstimatorError) as expected:
                reference_bootstrap(config, 200)
            with pytest.raises(EstimatorError) as got:
                estimate_with_bootstrap(config, B=200)
            assert str(got.value) == str(expected.value), seed
            messages.add(str(expected.value))
        assert len(messages) > 1 and full_samples > 0

    def test_minimum_resamples(self):
        with pytest.raises(ValueError):
            estimate_with_bootstrap(make_config(), B=99)

    @pytest.mark.parametrize("label", list(EQUIVALENCE_CASES))
    @pytest.mark.parametrize("n", [200, 301])
    def test_estimate_is_replication_zero(self, label, n):
        # The bootstrap's run is replication 0: the same draw and inversion.
        for seed in (0, 1, 2):
            config = make_config(n=n, seed=seed, replications=1,
                                 **EQUIVALENCE_CASES[label])
            assert estimate_with_bootstrap(config, B=100)["estimate"] == \
                run_replications(config).estimates[0], seed

    @pytest.mark.parametrize("n", [7, 100, 1999, 2000])
    def test_one_draw_of_rows_equals_row_by_row_draws(self, n):
        # The iid and weighted schemes draw a chunk of resamples at once.
        a = RngStream(9, (1,)).generator()
        b = RngStream(9, (1,)).generator()
        rows = a.integers(0, n, (5, n))
        for row in rows:
            assert np.array_equal(row, b.integers(0, n, n))
        assert a.integers(0, 2**40) == b.integers(0, 2**40)

    @pytest.mark.parametrize("sizes", [[1000, 800, 100, 100], [3, 0, 1, 5],
                                       [1, 1, 0, 7], [2, 0]])
    def test_one_draw_within_strata_equals_stratum_by_stratum_draws(
            self, sizes):
        # The within-strata scheme draws a chunk with one broadcast call.
        a = RngStream(9, (1,)).generator()
        b = RngStream(9, (1,)).generator()
        sizes = np.array(sizes)
        n, starts = int(sizes.sum()), np.cumsum(sizes) - sizes
        rows = np.repeat(starts, sizes) + a.integers(
            0, np.broadcast_to(np.repeat(sizes, sizes), (5, n)))
        for row in rows:
            assert np.array_equal(row, np.concatenate(
                [s + b.integers(0, k, k) for s, k in zip(starts, sizes)]))
        assert a.integers(0, 2**40) == b.integers(0, 2**40)
