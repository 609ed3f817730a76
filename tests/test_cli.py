import dataclasses
import json
import math

import pytest
from click.testing import CliRunner
from scipy.stats import norm

from qvr import bench, designs
from qvr.bench import ConfigError, ExperimentConfig
from qvr.cli import main
from qvr.estimators import EstimatorError
from qvr.importance import ImportanceError
from qvr.model import ModelError, toy1d, toy2d
from qvr.sampling import SamplingError
from qvr.strata import StrataError


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, **over):
    base = {
        "model": "toy1d",
        "estimator": "ee",
        "alpha": 0.95,
        "n": 200,
        "replications": 1,
        "seed": 3,
    }
    base.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return str(path)


# Each command with the one library call (a module and its attribute) that
# a test replaces to make the command fail.
COMMANDS = [
    (bench, "ground_truth_quantile", lambda cfg: [
        "truth", "--model", "toy1d", "--alpha", "0.95",
        "--samples", "2000000"]),
    (bench, "estimate_with_bootstrap",
     lambda cfg: ["estimate", "--config", cfg]),
    (bench, "run_preset",
     lambda cfg: ["bench", "--preset", "fig1", "--reps", "2"]),
    (designs, "spec_for", lambda cfg: ["diag", "variance", "--config", cfg]),
]


class TestTruth:
    def test_identity_quantile(self, runner):
        res = runner.invoke(main, ["truth", "--model", "identity1d",
                                   "--alpha", "0.95",
                                   "--samples", "2000000"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert abs(out["quantile"] - norm.ppf(0.95)) < 0.01

    def test_unknown_model_is_config_error(self, runner):
        res = runner.invoke(main, ["truth", "--model", "nope",
                                   "--alpha", "0.95", "--samples", "2000000"])
        assert res.exit_code == 2

    def test_bad_alpha_is_config_error(self, runner):
        res = runner.invoke(main, ["truth", "--model", "toy1d",
                                   "--alpha", "1.2", "--samples", "2000000"])
        assert res.exit_code == 2

    def test_too_few_samples_is_config_error(self, runner):
        res = runner.invoke(main, ["truth", "--model", "toy1d",
                                   "--alpha", "0.95", "--samples", "100"])
        assert res.exit_code == 2

    def test_negative_seed_is_config_error(self, runner):
        res = runner.invoke(main, ["truth", "--model", "toy1d",
                                   "--alpha", "0.95", "--samples", "1000000",
                                   "--seed", "-1"])
        assert res.exit_code == 2
        assert "error: expected non-negative integer" in res.output


class TestEstimate:
    def test_ee_run(self, runner, tmp_path):
        cfg = write_config(tmp_path, n=500)
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "200"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["estimator"] == "ee"
        assert 2.5 < out["estimate"] < 5.0
        assert out["bootstrap_std"] > 0

    def test_missing_config_file(self, runner, tmp_path):
        res = runner.invoke(main, ["estimate", "--config",
                                   str(tmp_path / "absent.json")])
        assert res.exit_code == 2

    def test_invalid_config_key(self, runner, tmp_path):
        cfg = write_config(tmp_path, bogus=True)
        res = runner.invoke(main, ["estimate", "--config", cfg])
        assert res.exit_code == 2

    @pytest.mark.parametrize("over", [
        {"n": 200.0}, {"seed": 1.0}, {"n": True},
        {"model": "toy2d", "estimator": "cis",
         "params": {"pilot_count": 20000.0}}])
    def test_non_integer_count_is_one_config_error_line(self, runner,
                                                        tmp_path, over):
        # JSON's 200.0 is a float: a count must be written as an integer.
        cfg = write_config(tmp_path, **over)
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "100"])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        [line] = res.output.splitlines()
        assert line.startswith("error: invalid config: ")

    def test_malformed_json(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["estimate", "--config", str(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("alpha, constant", [
        (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
    def test_non_finite_constant_is_config_error(self, runner, tmp_path,
                                                 alpha, constant):
        # json.dumps writes these floats as the bare constants.
        cfg = write_config(tmp_path, estimator="cs", alpha=alpha)
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "100"])
        assert res.exit_code == 2
        assert f"{constant} is not a finite number" in res.output

    def test_cis_non_convergence_exit_code(self, runner, tmp_path):
        cfg = write_config(tmp_path, model="toy1d", estimator="cis")
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "100"])
        assert res.exit_code == 3

    def test_ps_resample_with_an_empty_stratum_exit_code(self, runner,
                                                         tmp_path):
        # Every stratum holds a point of this sample; a resample loses one.
        cfg = write_config(tmp_path, estimator="ps", n=14, seed=0)
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "200"])
        assert res.exit_code == 3
        assert "stratum 1 is empty" in res.output

    def test_cs_zero_quota_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, estimator="cs", n=100,
                           params={"allocation": [40, 0, 30, 30]})
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "100"])
        assert res.exit_code == 2
        assert "stratum 1 has positive weight but no points" in res.output

    def test_cis_converges_on_suitable_model(self, runner, tmp_path):
        cfg = write_config(tmp_path, model="toy2d", estimator="cis")
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "100"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert 2.0 < out["estimate"] < 3.6

    @pytest.mark.parametrize("estimator", ["cs", "cv", "cis"])
    def test_closed_form_without_one_is_config_error(
            self, runner, tmp_path, monkeypatch, estimator):
        # toy2d has no closed-form Z quantile; every estimator that reads a
        # metamodel quantile refuses the request before it calls f.
        base, points = toy2d(), []

        def f(x):
            points.append(len(x))
            return base.f(x)

        pair = dataclasses.replace(base, f=f)
        monkeypatch.setattr(ExperimentConfig, "build_pair", lambda _: pair)
        cfg = write_config(tmp_path, model="toy2d", estimator=estimator,
                           params={"quantile_precision": "closed_form"})
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "100"])
        assert res.exit_code == 2
        assert "no closed-form Z quantile" in res.output
        assert sum(points) == 0

    def test_output_file(self, runner, tmp_path):
        out_path = tmp_path / "res.json"
        cfg = write_config(tmp_path, output=str(out_path))
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "150"])
        assert res.exit_code == 0
        assert json.loads(out_path.read_text())["estimator"] == "ee"


class TestBench:
    def test_small_fig1(self, runner, tmp_path):
        out = tmp_path / "fig1.json"
        res = runner.invoke(main, ["bench", "--preset", "fig1",
                                   "--reps", "20", "--out", str(out)])
        assert res.exit_code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"ee", "cv", "cs"}
        for block in data.values():
            assert len(block["estimates"]) == 20

    def test_csv_output_to_stdout(self, runner):
        res = runner.invoke(main, ["bench", "--preset", "table2",
                                   "--reps", "10", "--format", "csv"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "method,quantity,mean,std"

    def test_unknown_preset_rejected_by_click(self, runner):
        res = runner.invoke(main, ["bench", "--preset", "fig9"])
        assert res.exit_code != 0

    def test_preset_choices_are_the_preset_table(self):
        option = next(p for p in main.commands["bench"].params
                      if p.name == "preset")
        assert list(option.type.choices) == list(bench.PRESETS)
        assert set(bench.PRESETS) == {"fig1", "fig2", "table1", "table2"}

    @pytest.mark.parametrize("error, code", [
        (SamplingError("quotas unmet"), 3),
        (EstimatorError("stratum 2 is empty"), 3),
        (StrataError("no allocation defined"), 3),
        (ImportanceError("degenerate event covariance"), 3),
        (ModelError("simulator closed its output stream"), 4),
        (ConfigError("allocation must sum to n"), 2),
        (ValueError("mc quantiles need sample_count >= 1e4"), 2),
    ])
    def test_failure_exit_codes(self, runner, monkeypatch, tmp_path, error,
                                code):
        # The same error gives the same exit code in every command.
        def fail(*args, **kwargs):
            raise error

        cfg = write_config(tmp_path, estimator="cs")
        for module, call, args in COMMANDS:
            with monkeypatch.context() as m:
                m.setattr(module, call, fail)
                res = runner.invoke(main, args(cfg))
            assert res.exit_code == code, args(cfg)[0]
            assert f"error: {error}" in res.output, args(cfg)[0]

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_rejected(self, runner, monkeypatch, reps):
        calls = []
        monkeypatch.setattr(bench, "run_replications", calls.append)
        res = runner.invoke(main, ["bench", "--preset", "fig1",
                                   "--reps", reps])
        assert res.exit_code == 2
        assert calls == []

    def test_negative_seed_is_config_error(self, runner):
        res = runner.invoke(main, ["bench", "--preset", "fig1",
                                   "--reps", "1", "--seed", "-1"])
        assert res.exit_code == 2
        assert "error: invalid config: seed: -1 is not an integer at " \
            "least 0" in res.output

    def test_workers_option_rejected(self, runner):
        res = runner.invoke(main, ["bench", "--preset", "table2",
                                   "--reps", "2", "--workers", "3"])
        assert res.exit_code == 2


class TestDiag:
    def test_variance_topic(self, runner, tmp_path):
        cfg = write_config(tmp_path, estimator="cs",
                           params={"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0],
                                   "allocation": [50, 50, 50, 50]})
        res = runner.invoke(main, ["diag", "variance", "--config", cfg,
                                   "--samples", "50000"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["sigma2_cs"] > 0
        assert 0 < out["rho_indicator"] < 1
        # stratification never beats the optimal-allocation bound
        assert out["sigma2_ocs"] <= out["sigma2_cs"] + 1e-12

    def test_variance_reports_an_infeasible_two_strata_factor(
            self, runner, tmp_path):
        # f = f_r: on this sample 1{Y <= y_alpha} = 1{Z <= z_alpha}, so
        # rho_I is 1 (not 1 + 2**-52) and F = 0.9501 > alpha leaves a
        # bracketed term of the factor negative.
        cfg = write_config(tmp_path, model="identity1d", estimator="cs",
                           seed=0)
        res = runner.invoke(main, ["diag", "variance", "--config", cfg,
                                   "--samples", "10000"])
        assert res.exit_code == 0, res.output
        out = json.loads(res.output)
        assert out["rho_indicator"] == 1.0
        assert "two_strata_K" not in out and "two_strata_ratio" not in out
        assert out["two_strata_K_error"] == (
            "infeasible (alpha=0.95, F=0.9501, rho_I=1.0): a bracketed term "
            "is negative")

    @pytest.mark.parametrize("alpha, second_sample", [(0.95, False),
                                                      (0.97, True)])
    def test_variance_takes_z_alpha_from_the_strata_at_a_cutpoint(
            self, runner, tmp_path, monkeypatch, alpha, second_sample):
        # toy2d has no closed form: a second metamodel sample would give
        # another z_alpha than the stratum edge at the same probability
        calls = []
        z_alpha_for = designs.z_alpha_for

        def counting(pair, config):
            calls.append(config.alpha)
            return z_alpha_for(pair, config)

        monkeypatch.setattr(designs, "z_alpha_for", counting)
        cfg = write_config(tmp_path, model="toy2d", estimator="cs",
                           alpha=alpha)
        res = runner.invoke(main, ["diag", "variance", "--config", cfg,
                                   "--samples", "20000"])
        assert res.exit_code == 0
        assert calls == ([alpha] if second_sample else [])

    def test_allocation_topic(self, runner, tmp_path):
        cfg = write_config(tmp_path, estimator="cs",
                           params={"cutpoints": [0.0, 0.85, 0.95, 1.0]})
        res = runner.invoke(main, ["diag", "allocation", "--config", cfg,
                                   "--samples", "50000"])
        assert res.exit_code == 0
        beta = json.loads(res.output)["beta_star"]
        assert abs(sum(beta) - 1.0) < 1e-9

    def test_cost_topic(self, runner, tmp_path):
        cfg = write_config(tmp_path, estimator="cs",
                           params={"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0],
                                   "allocation": [50, 50, 50, 50]})
        res = runner.invoke(main, ["diag", "cost", "--config", cfg])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["expected_draws_naive"] >= 200
        assert out["uniform_bound"] >= out["expected_draws_naive"]

    @pytest.mark.parametrize("topic", ["variance", "cost"])
    @pytest.mark.parametrize("allocation, message", [
        ([50, 50, 50], "one count per stratum"),
        ([100, 100], "one count per stratum"),
        ([10, 10, 10, 10], "must sum to n"),
    ])
    def test_bad_allocation_is_config_error(self, runner, tmp_path, topic,
                                            allocation, message):
        cfg = write_config(tmp_path, estimator="cs",
                           params={"allocation": allocation})
        res = runner.invoke(main, ["diag", topic, "--config", cfg,
                                   "--samples", "20000"])
        assert res.exit_code == 2
        assert message in res.output

    def test_zero_quota_variance_is_non_convergence(self, runner, tmp_path):
        cfg = write_config(tmp_path, estimator="cs",
                           params={"allocation": [100, 0, 50, 50]})
        res = runner.invoke(main, ["diag", "variance", "--config", cfg,
                                   "--samples", "20000"])
        assert res.exit_code == 3
        assert "zero allocation" in res.output

    @pytest.mark.parametrize("topic, code", [
        ("allocation", 0), ("variance", 2), ("cost", 2)])
    def test_default_plan_below_stratum_count(self, runner, tmp_path, topic,
                                              code):
        # n = 3 cannot give each of the 4 default strata a point; only the
        # topics that read the cs plan refuse it
        cfg = write_config(tmp_path, estimator="ps", n=3)
        res = runner.invoke(main, ["diag", topic, "--config", cfg,
                                   "--samples", "20000"])
        assert res.exit_code == code
        if code:
            assert "4 strata" in res.output

    @pytest.mark.parametrize("allocation, code", [
        ([50, 50, 50, 50], 0), ([100, 0, 50, 50], 3), ([10, 10, 10, 10], 2)])
    def test_closes_the_model_pair(self, runner, tmp_path, monkeypatch,
                                   allocation, code):
        class Closing:
            def __init__(self, fn):
                self.fn, self.closed = fn, 0

            def __call__(self, x):
                return self.fn(x)

            def close(self):
                self.closed += 1

        base = toy1d()
        pair = dataclasses.replace(base, f=Closing(base.f),
                                   f_r=Closing(base.f_r))
        monkeypatch.setattr(ExperimentConfig, "build_pair", lambda _: pair)
        cfg = write_config(tmp_path, estimator="cs",
                           params={"allocation": allocation})
        res = runner.invoke(main, ["diag", "variance", "--config", cfg,
                                   "--samples", "20000"])
        assert res.exit_code == code
        assert pair.f.closed == pair.f_r.closed == 1

    @pytest.mark.parametrize("samples", ["0", "5"])
    def test_too_few_samples_is_usage_error(self, runner, tmp_path, samples):
        # the same 10^4 floor as metamodel_quantiles and correlation_report
        cfg = write_config(tmp_path, model="toy2d", estimator="cs")
        res = runner.invoke(main, ["diag", "variance", "--config", cfg,
                                   "--samples", samples])
        assert res.exit_code == 2
        assert "--samples" in res.output

    def test_bad_topic(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        res = runner.invoke(main, ["diag", "entropy", "--config", cfg])
        assert res.exit_code != 0
