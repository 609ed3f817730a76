"""End-to-end acceptance gate.

Each test covers one numbered criterion, accumulates every sub-check and
prints exactly one ``CRITERION k: PASS|FAIL`` line before asserting, so the
full breakdown of a failing criterion is visible in one run.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from qvr import bench, estimators, importance, strata
from qvr.bench import emit_report
from qvr.cli import main as cli_main
from qvr.model import identity1d, toy1d, toy2d
from qvr.sampling import (
    AllocationPlan,
    RngStream,
    StrataSpec,
    sample_strata,
    evaluate_full,
    strata_from_cutpoints,
)

ALPHA = 0.95


class Checks:
    def __init__(self, criterion: int):
        self.criterion = criterion
        self.failures: list[str] = []

    def expect(self, cond: bool, label: str, detail: str = ""):
        if not cond:
            self.failures.append(f"{label} {detail}".strip())

    def close(self, label: str, value: float, target: float, tol: float):
        self.expect(abs(value - target) <= tol, label,
                    f"got {value:.4f}, want {target} +- {tol}")

    def rel(self, label: str, value: float, target: float, rel_tol: float):
        self.expect(abs(value - target) <= rel_tol * abs(target), label,
                    f"got {value:.4f}, want {target} within {rel_tol:.0%}")

    def finish(self):
        status = "FAIL" if self.failures else "PASS"
        print(f"\nCRITERION {self.criterion}: {status}")
        if self.failures:
            pytest.fail(
                f"criterion {self.criterion}: " + " | ".join(self.failures),
                pytrace=False)


def preset_report(name, reps, seed=0):
    # qvr bench's reports: ee and cv share their draws, and each report has
    # the bytes of run_replications on its config alone.
    return bench.run_preset(name, replications=reps, seed=seed)


def test_criterion_01_ground_truth():
    c = Checks(1)
    runner = CliRunner()
    res1 = runner.invoke(cli_main, ["truth", "--model", "toy1d",
                                    "--alpha", "0.95",
                                    "--samples", "10000000"])
    c.expect(res1.exit_code == 0, "toy1d truth exit code", str(res1.exit_code))
    if res1.exit_code == 0:
        c.close("toy1d y_0.95", json.loads(res1.output)["quantile"],
                3.66, 0.01)
    res2 = runner.invoke(cli_main, ["truth", "--model", "toy2d",
                                    "--alpha", "0.95",
                                    "--samples", "10000000"])
    c.expect(res2.exit_code == 0, "toy2d truth exit code", str(res2.exit_code))
    if res2.exit_code == 0:
        c.close("toy2d y_0.95", json.loads(res2.output)["quantile"],
                2.75, 0.01)
    c.finish()


def test_criterion_02_correlation_report():
    c = Checks(2)
    r1 = estimators.correlation_report(toy1d(), ALPHA, 10**6, RngStream(21))
    c.close("toy1d rho", r1.rho, 0.84, 0.01)
    c.close("toy1d rho_I", r1.rho_indicator, 0.62, 0.01)
    r2 = estimators.correlation_report(toy2d(), ALPHA, 10**6, RngStream(22))
    c.close("toy2d rho", r2.rho, 0.90, 0.01)
    c.close("toy2d rho_I", r2.rho_indicator, 0.64, 0.01)
    c.finish()


def test_criterion_03_figure1():
    c = Checks(3)
    rep = preset_report("fig1", 10**4)
    targets = {"ee": (3.86, 0.83), "cv": (3.74, 0.744), "cs": (3.63, 0.381)}
    for label, (mean, std) in targets.items():
        c.close(f"{label} mean", rep[label].mean, mean, 0.03)
        c.rel(f"{label} std", rep[label].std, std, 0.05)
    c.finish()


def test_criterion_04_table1():
    c = Checks(4)
    rep = preset_report("table1", 10**4)
    c.close("ee mean", rep["ee"].mean, 3.66, 0.02)
    c.rel("ee std", rep["ee"].std, 0.33, 0.10)
    c.close("cv mean", rep["cv"].mean, 3.65, 0.02)
    c.rel("cv std", rep["cv"].std, 0.29, 0.10)
    acs2 = rep["acs2"]
    c.close("acs2 beta1 mean", acs2.realized_mean[0], 0.86, 0.02)
    c.rel("acs2 beta1 std", acs2.realized_std[0], 0.02, 0.10)
    c.close("acs2 mean", acs2.mean, 3.65, 0.02)
    c.rel("acs2 std", acs2.std, 0.28, 0.10)
    acs3 = rep["acs3"]
    for j, b in enumerate((0.10, 0.58, 0.32)):
        c.close(f"acs3 beta{j + 1} mean", acs3.realized_mean[j], b, 0.02)
    c.close("acs3 mean", acs3.mean, 3.65, 0.02)
    c.rel("acs3 std", acs3.std, 0.12, 0.10)
    c.finish()


def test_criterion_05_table2():
    c = Checks(5)
    rep = preset_report("table2", 10**4)
    c.close("ee mean", rep["ee"].mean, 3.88, 0.03)
    c.rel("ee std", rep["ee"].std, 0.83, 0.15)
    c.close("cv mean", rep["cv"].mean, 3.73, 0.03)
    c.rel("cv std", rep["cv"].std, 0.74, 0.15)
    acs3 = rep["acs3"]
    for j, (b, s) in enumerate(zip((0.14, 0.55, 0.31), (0.16, 0.11, 0.06))):
        c.close(f"acs3 beta{j + 1} mean", acs3.realized_mean[j], b, 0.03)
        c.rel(f"acs3 beta{j + 1} std", acs3.realized_std[j], s, 0.15)
    c.close("acs3 mean", acs3.mean, 3.62, 0.03)
    c.rel("acs3 std", acs3.std, 0.38, 0.15)
    c.finish()


def test_criterion_06_figure2():
    c = Checks(6)
    rep = preset_report("fig2", 5000)
    targets = {"ee": (2.83, 0.52), "cv": (2.74, 0.38),
               "cs": (2.71, 0.25), "cis": (2.77, 0.21)}
    for label, (mean, std) in targets.items():
        c.close(f"{label} mean", rep[label].mean, mean, 0.03)
        c.rel(f"{label} std", rep[label].std, std, 0.15)
    stds = [rep[k].std for k in ("cis", "cs", "cv", "ee")]
    c.expect(all(a < b for a, b in zip(stds, stds[1:])),
             "strict std ordering cis < cs < cv < ee", str(stds))
    c.finish()


def test_criterion_07_formula_identities():
    c = Checks(7)
    rng = np.random.default_rng(71)

    def random_spec(m):
        cuts = np.sort(rng.uniform(0.05, 0.95, m - 1))
        cp = (0.0, *cuts, 1.0)
        z = (-np.inf, *np.sort(rng.normal(size=m - 1)), np.inf)
        return StrataSpec(cutpoints=tuple(float(v) for v in cp), z_values=z)

    # proportional-allocation CS variance equals the post-stratified form
    for _ in range(50):
        m = int(rng.integers(2, 4))
        spec = random_spec(m)
        p = strata.ConditionalProbs(p_hat=rng.uniform(0.05, 0.95, m),
                                    counts=np.full(m, 100))
        n = 1000.0
        counts = spec.widths * n
        var_cs = float(np.sum(spec.widths**2 * p.p_hat * (1 - p.p_hat) / counts))
        var_ps = strata.ps_form_variance(p, spec) / n
        if abs(var_cs - var_ps) > 1e-12 * var_ps:
            c.expect(False, "proportional CS == PS form",
                     f"{var_cs} vs {var_ps}")
            break

    # two strata: PS, indicator CV and weighted general CV coincide exactly
    pair = toy1d()
    z_a = pair.closed_form_z_quantile(ALPHA)
    spec2 = StrataSpec(cutpoints=(0.0, ALPHA, 1.0),
                       z_values=(-np.inf, z_a, np.inf))
    for r in range(20):
        s = estimators.draw_paired_sample(pair, RngStream(72, (r,)), 200)
        w, degenerate = estimators.cv_weights(s.z, z_a, ALPHA)
        if degenerate:
            continue
        cdf_cv = estimators.cv_cdf(s, z_a, ALPHA)
        probe = np.quantile(s.y, [0.2, 0.5, 0.9, 0.95, 0.99])
        bad = False
        for y0 in probe:
            f_cv = cdf_cv.evaluate(float(y0))
            f_ps = estimators.ps_cdf(s, spec2, float(y0))
            f_g = estimators.cv_cdf_general(
                s, lambda z: (z <= z_a).astype(float), ALPHA, float(y0))
            if not (abs(f_cv - f_ps) < 1e-12 and abs(f_cv - f_g) < 1e-12):
                c.expect(False, "two-strata PS/CV/weighted-CV equivalence",
                         f"rep {r}, y={y0:.3f}: {f_cv} {f_ps} {f_g}")
                bad = True
                break
        if bad:
            break

    # beta* beats a simplex grid on 100 random configurations
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        spec = random_spec(m)
        p = strata.ConditionalProbs(p_hat=rng.uniform(0.05, 0.95, m),
                                    counts=np.full(m, 100))
        beta = strata.optimal_allocation(p, spec)
        q = spec.widths**2 * p.p_hat * (1 - p.p_hat)

        def var_of(b):
            return float(np.sum(q / np.maximum(b, 1e-12)))

        grid = np.linspace(0.01, 0.99, 50)
        if m == 2:
            best = min(var_of(np.array([g, 1 - g])) for g in grid)
        else:
            best = min(var_of(np.array([g, h, 1 - g - h]))
                       for g in grid for h in grid if g + h < 0.995)
        worst = max(worst, var_of(beta) / best)
    c.expect(worst <= 1.0 + 1e-9, "beta* optimal vs grid search",
             f"worst ratio {worst}")

    # optimal-allocation variance never exceeds the post-stratified variance
    ok = True
    for _ in range(10**4):
        m = int(rng.integers(2, 6))
        spec = random_spec(m)
        p = strata.ConditionalProbs(p_hat=rng.uniform(0.0, 1.0, m),
                                    counts=np.full(m, 100))
        if (strata.ocs_variance(p, spec)
                > strata.ps_form_variance(p, spec) + 1e-12):
            ok = False
            break
    c.expect(ok, "sigma2_OCS <= sigma2_PS on random configurations")

    # K(0) = 1 and small-correlation expansion of the variance ratio
    K0, _ = strata.two_strata_acs_factor(ALPHA, 0.6, 0.0)
    c.expect(abs(K0 - 1.0) < 1e-14, "K(rho_I=0) == 1", f"K0={K0}")
    F = 0.5
    for rho in np.linspace(0.005, 0.1, 20):
        _, ratio = strata.two_strata_acs_factor(0.5, F, rho)
        expansion = 1.0 - rho**2 / (4 * F * (1 - F))
        if abs(ratio - expansion) > 10 * rho**3:
            c.expect(False, "variance-ratio expansion error < 10 rho^3",
                     f"rho={rho:.3f}: |{ratio:.6f} - {expansion:.6f}|")
            break
    c.finish()


def test_criterion_08_statistical_soundness():
    c = Checks(8)

    # unbiasedness of the stratified cdf estimate
    pair = toy1d()
    spec = strata_from_cutpoints(pair, [0.0, 0.5, 0.9, 0.95, 1.0])
    plan = AllocationPlan((50, 50, 50, 50))
    y0 = 3.656
    big = pair.eval_full(pair.input.sample(RngStream(80).generator(), 4 * 10**6))
    f_true = float((big <= y0).mean())
    se_true = math.sqrt(f_true * (1 - f_true) / len(big))
    vals = np.empty(300)
    for r in range(300):
        s, _ = sample_strata(pair, spec, plan, RngStream(81, (r,)))
        s = evaluate_full(pair, s)
        vals[r], _ = strata.cs_cdf(s, spec, y0)
    se = math.sqrt(vals.var(ddof=1) / len(vals) + se_true**2)
    c.expect(abs(vals.mean() - f_true) <= 3 * se,
             "stratified cdf unbiased",
             f"mean {vals.mean():.5f} vs {f_true:.5f} (3se {3 * se:.5f})")

    # unbiasedness of the raw reweighted cdf estimate
    idpair = identity1d()
    fam = importance.BiasedFamily("joint_gaussian")
    params = importance.BiasedParams(lam=[-1.0], C=[[1.0]])
    vals = np.empty(2000)
    for r in range(2000):
        ws = importance.draw_weighted_sample(idpair, fam, params,
                                             RngStream(82, (r,)), 200)
        vals[r] = importance.is_cdf(ws, 0.0, "raw")
    se = math.sqrt(vals.var(ddof=1) / len(vals))
    c.expect(abs(vals.mean() - 0.5) <= 3 * se, "raw reweighted cdf unbiased",
             f"mean {vals.mean():.5f} vs 0.5 (3se {3 * se:.5f})")

    # pilot moment matching against the truncated-normal closed form
    p = importance.moment_match(idpair, 0.0, 10**6, RngStream(83))
    c.close("moment-matched mean", p.lam[0], -0.798, 0.003)
    c.close("moment-matched variance", p.C[0, 0], 0.363, 0.005)

    # EE quantile std follows the n^{-1/2} law
    sizes = [200, 2000, 20000]
    reps = [3000, 1000, 300]
    stds = []
    for n, R in zip(sizes, reps):
        rng = RngStream(84, (n,)).generator()
        x = pair.input.sample(rng, n * R).reshape(R, n)
        y = np.sort(pair.eval_full(x.reshape(-1, 1)).reshape(R, n), axis=1)
        k = int(math.floor(ALPHA * n))
        stds.append(y[:, k].std(ddof=1))
    slope = np.polyfit(np.log(sizes), np.log(stds), 1)[0]
    c.close("EE std log-log slope", float(slope), -0.5, 0.1)
    c.finish()


def test_criterion_09_block_determinism():
    # Replication r depends only on (seed, r): 5 replications run as one
    # block give the bits of the first 5 of 100, which run in a first block
    # of 81 (n = 200) or 8 (table1, n = 2000).
    c = Checks(9)
    for name in ("fig1", "table1", "table2", "fig2"):
        short = preset_report(name, reps=5, seed=5)
        long = preset_report(name, reps=100, seed=5)
        for label, rep in short.items():
            c.expect(rep.estimates.tolist()
                     == long[label].estimates[:5].tolist(),
                     f"preset {name} {label} prefix",
                     "5 replications differ from the first 5 of 100")
        again = preset_report(name, reps=5, seed=5)
        c.expect(emit_report(short, "json") == emit_report(again, "json"),
                 f"preset {name} byte-identical", "two runs differ")
    c.finish()


def test_criterion_10_cis_failure_mode(tmp_path):
    c = Checks(10)
    cfg = tmp_path / "cis.json"
    cfg.write_text(json.dumps({
        "model": "toy1d", "estimator": "cis", "alpha": 0.95,
        "n": 200, "replications": 1, "seed": 1,
    }))
    res = CliRunner().invoke(cli_main, ["estimate", "--config", str(cfg)])
    c.expect(res.exit_code == 3, "toy1d reweighted run exits with code 3",
             f"exit code {res.exit_code}")
    c.expect("error" in res.output.lower() or res.output.strip() == "",
             "no silent numeric answer", res.output[:100])
    c.finish()
