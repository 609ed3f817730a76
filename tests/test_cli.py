import json

import pytest
from click.testing import CliRunner
from scipy.stats import norm

from qvr import bench
from qvr.cli import main
from qvr.estimators import EstimatorError
from qvr.importance import ImportanceError
from qvr.model import ModelError
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

    def test_malformed_json(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["estimate", "--config", str(path)])
        assert res.exit_code == 2

    def test_cis_non_convergence_exit_code(self, runner, tmp_path):
        cfg = write_config(tmp_path, model="toy1d", estimator="cis")
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "100"])
        assert res.exit_code == 3

    def test_cis_converges_on_suitable_model(self, runner, tmp_path):
        cfg = write_config(tmp_path, model="toy2d", estimator="cis")
        res = runner.invoke(main, ["estimate", "--config", cfg,
                                   "--bootstrap", "100"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert 2.0 < out["estimate"] < 3.6

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

    @pytest.mark.parametrize("error, code", [
        (SamplingError("quotas unmet"), 3),
        (EstimatorError("stratum 2 is empty"), 3),
        (StrataError("no allocation defined"), 3),
        (ImportanceError("degenerate event covariance"), 3),
        (ModelError("simulator closed its output stream"), 4),
    ])
    def test_failure_exit_codes(self, runner, monkeypatch, error, code):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(bench, "run_preset", fail)
        res = runner.invoke(main, ["bench", "--preset", "fig1", "--reps", "2"])
        assert res.exit_code == code
        assert str(error) in res.output

    def test_worker_invariance(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out, workers in ((a, "1"), (b, "3")):
            res = runner.invoke(main, ["bench", "--preset", "table2",
                                       "--reps", "15", "--workers", workers,
                                       "--out", str(out)])
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_bad_topic(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        res = runner.invoke(main, ["diag", "entropy", "--config", cfg])
        assert res.exit_code != 0
