import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import multivariate_normal, norm

from qvr.estimators import quantile_from_weighted_cdf, weighted_cdf
from qvr.importance import (
    CHECK_COUNT,
    MASS_FLOOR,
    BiasedFamily,
    BiasedParams,
    CisNonConvergence,
    ImportanceError,
    WeightedSample,
    _log_second_moment,
    _matched_moments,
    _nelder_mead,
    draw_weighted_sample,
    fit_biased_member,
    is_cdf,
    is_variance_estimate,
    lognormal_params_from_moments,
    moment_match,
    tail_quantile,
    variance_optimal_params,
)
from qvr.bench import ConfigError, ExperimentConfig
from qvr.designs import DESIGNS, z_alpha_for
from qvr.model import (
    InputDistribution,
    Lognormal,
    ModelPair,
    identity1d,
    standard_normal_input,
    toy1d,
    toy2d,
)
from qvr.sampling import RngStream, metamodel_quantiles

TRUNC_MEAN = -norm.pdf(0) / norm.cdf(0)          # E[X | X <= 0], X ~ N(0,1)
TRUNC_VAR = 1 - (norm.pdf(0) / norm.cdf(0)) ** 2


def _event(z, threshold, tail):
    return z <= threshold if tail == "lower" else z > threshold


def true_optimal_moments(pair, threshold, sample_count, stream, tail="lower",
                         use_full_model=True):
    """Plain-MC conditional moments of X given the full-model (or
    metamodel) event; reference oracle for moment_match."""
    if sample_count < 10**6:
        raise ValueError("sample_count must be at least 1e6")
    x = pair.input.sample(stream.generator(), sample_count)
    out = pair.eval_full(x) if use_full_model else pair.eval_metamodel(x)
    mask = _event(out, threshold, tail)
    if not mask.any():
        raise ImportanceError("no sample point falls in the conditioning event")
    xe = x[mask]
    lam = xe.mean(axis=0)
    dev = xe - lam
    return lam, dev.T @ dev / len(xe)


class TestBiasedParams:
    def test_requires_symmetric_positive_definite(self):
        with pytest.raises(ValueError):
            BiasedParams(lam=[0.0, 0.0], C=[[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            BiasedParams(lam=[0.0], C=[[-1.0]])

    def test_dimension(self):
        p = BiasedParams(lam=[0.0, 1.0], C=np.eye(2))
        assert p.dimension == 2


class TestBiasedDensity:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_joint_gaussian_density_matches_scipy(self, d):
        # Equal to rounding: numpy's eigh takes another LAPACK driver than
        # scipy's, so the bits may differ from d = 3 on.
        rng = np.random.default_rng(40 + d)
        fam = BiasedFamily("joint_gaussian")
        for _ in range(50):
            a = rng.normal(size=(d, d))
            C = a @ a.T + rng.uniform(0.01, 2.0) * np.eye(d)
            p = BiasedParams(lam=rng.normal(size=d), C=(C + C.T) / 2)
            pts = rng.normal(size=(40, d)) * rng.uniform(0.5, 4.0)
            member = fam.member(p)
            want = multivariate_normal(p.lam, p.C).pdf(pts)
            np.testing.assert_allclose(member.density(pts), want,
                                       rtol=1e-11, atol=0)
            one = member.density(pts[0])
            assert one.shape == (1,)
            assert one[0] == pytest.approx(
                multivariate_normal(p.lam, p.C).pdf(pts[0]), rel=1e-11,
                abs=0)

    def test_numerically_singular_joint_gaussian_rejected(self):
        C = np.array([[1.0, 0.0], [0.0, 1e-12]])
        p = BiasedParams(lam=[0.0, 0.0], C=C)
        with pytest.raises(np.linalg.LinAlgError):
            multivariate_normal(p.lam, p.C)
        with pytest.raises(np.linalg.LinAlgError):
            BiasedFamily("joint_gaussian").member(p)

    def test_standard_bivariate_gaussian(self):
        fam = BiasedFamily("joint_gaussian")
        p = BiasedParams(lam=[0.0, 0.0], C=np.eye(2))
        val = fam.member(p).density(np.array([0.0, 0.0]))
        assert float(val[0]) == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_componentwise_normal(self):
        base = identity1d().input
        fam = BiasedFamily("componentwise_matched", base=base)
        p = BiasedParams(lam=[1.0], C=[[1.0]])
        val = fam.member(p).density(np.array([[1.0]]))
        assert float(val[0]) == pytest.approx(0.39894228, abs=1e-7)

    def test_lognormal_moment_round_trip(self):
        for mean, var in [(1.0, 0.5), (3.0, 2.0), (0.2, 0.01)]:
            mu, sigma = lognormal_params_from_moments(mean, var)
            back_mean = math.exp(mu + sigma**2 / 2)
            back_var = (math.exp(sigma**2) - 1) * math.exp(2 * mu + sigma**2)
            assert back_mean == pytest.approx(mean, abs=1e-10)
            assert back_var == pytest.approx(var, abs=1e-10)

    def test_componentwise_lognormal_member(self):
        base = InputDistribution((Lognormal(0.0, 1.0),))
        fam = BiasedFamily("componentwise_matched", base=base)
        p = BiasedParams(lam=[2.0], C=[[0.5]])
        member = fam.member(p)
        x = member.sample(np.random.default_rng(0), 200000)[:, 0]
        assert x.mean() == pytest.approx(2.0, abs=0.02)
        assert x.var() == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 200, 20000])
    def test_joint_gaussian_sample_equals_the_direct_formula(self, d, k):
        # The member draws through InputDistribution's sample (its normals
        # and transform), and its points are lam + Z @ chol.T bit for bit,
        # Z drawn as standard_normal((k, d)).
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        C = a @ a.T + 0.5 * np.eye(d)
        lam = rng.normal(0.0, 2.0, d)
        member = BiasedFamily("joint_gaussian").member(BiasedParams(lam, C))
        chol = np.linalg.cholesky(C)
        want = lam + np.random.default_rng(k).standard_normal((k, d)) @ chol.T
        got = member.sample(np.random.default_rng(k), k)
        assert got.shape == (k, d) and got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            BiasedFamily("unknown")
        with pytest.raises(ValueError):
            BiasedFamily("componentwise_matched")


class TestMomentMatch:
    def test_truncated_normal_closed_form(self):
        p = moment_match(identity1d(), 0.0, 10**6, RngStream(1))
        assert p.lam[0] == pytest.approx(TRUNC_MEAN, abs=0.003)
        assert p.C[0, 0] == pytest.approx(TRUNC_VAR, abs=0.005)

    def test_always_true_event_recovers_unconditioned_moments(self):
        n = 10**5
        p = moment_match(identity1d(), 1e9, n, RngStream(2))
        assert abs(p.lam[0]) < 3 / math.sqrt(n) * 1.5
        assert p.C[0, 0] == pytest.approx(1.0, abs=0.02)

    def test_empty_event_rejected(self):
        with pytest.raises(ImportanceError):
            moment_match(identity1d(), -50.0, 10**3, RngStream(3))

    def test_pilot_count_minimum(self):
        with pytest.raises(ValueError):
            moment_match(identity1d(), 0.0, 100, RngStream(4))

    def test_one_point_event_rejected(self):
        # every pilot point in the event is the same: zero covariance
        with pytest.raises(ImportanceError, match="degenerate event"):
            _matched_moments(np.ones((3, 2)))

    def test_convergence_rate(self):
        truth = np.array([TRUNC_MEAN, TRUNC_VAR])
        sizes = [10**3, 10**4, 10**5]
        errs = []
        for s in sizes:
            per = []
            for r in range(20):
                p = moment_match(identity1d(), 0.0, s, RngStream(5, (s, r)))
                per.append((p.lam[0] - truth[0]) ** 2)
            errs.append(math.sqrt(np.mean(per)))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_matches_metamodel_event_oracle(self):
        pair = toy2d()
        z95 = 2.6  # approximate metamodel 0.95-level, fixed for the check
        lam_ref, C_ref = true_optimal_moments(pair, z95, 10**6, RngStream(6),
                                              tail="upper", use_full_model=False)
        p = moment_match(pair, z95, 10**6, RngStream(7), tail="upper")
        assert np.all(np.abs(p.lam - lam_ref) < 0.02)
        assert np.all(np.abs(p.C - C_ref) < 0.02)


class TestTrueOptimalMoments:
    def test_identity_truncated(self):
        lam, C = true_optimal_moments(identity1d(), 0.0, 10**6, RngStream(8))
        assert lam[0] == pytest.approx(TRUNC_MEAN, abs=0.003)
        assert C[0, 0] == pytest.approx(TRUNC_VAR, abs=0.005)

    def test_always_true(self):
        lam, C = true_optimal_moments(identity1d(), 1e9, 10**6, RngStream(9))
        assert abs(lam[0]) < 0.005
        assert C[0, 0] == pytest.approx(1.0, abs=0.01)

    def test_minimum_sample(self):
        with pytest.raises(ValueError):
            true_optimal_moments(identity1d(), 0.0, 10**4, RngStream(10))


class TestIsCdf:
    def test_unit_weights_equal_empirical(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(500)
        ws = WeightedSample(y=y, w=np.ones(500))
        for y0 in (-1.0, 0.0, 1.3):
            emp = (y <= y0).mean()
            assert is_cdf(ws, y0, "raw") == pytest.approx(emp)
            assert is_cdf(ws, y0, "self_normalized") == pytest.approx(emp)

    def test_self_normalized_limit_is_one(self):
        rng = np.random.default_rng(12)
        ws = WeightedSample(y=rng.standard_normal(50),
                            w=rng.random(50) + 0.1)
        assert is_cdf(ws, 1e9, "self_normalized") == 1.0

    def test_raw_unbiased_identity_biased(self):
        pair = identity1d()
        fam = BiasedFamily("joint_gaussian")
        y0 = 1.6449
        for lam in (-1.0, 0.5, 1.0):
            params = BiasedParams(lam=[lam], C=[[1.0]])
            reps = 2000
            vals = np.empty(reps)
            for r in range(reps):
                ws = draw_weighted_sample(pair, fam, params,
                                          RngStream(13, (int(lam * 10) + 100, r)),
                                          500)
                vals[r] = is_cdf(ws, y0, "raw")
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - norm.cdf(y0)) < 3 * se + 1e-4

    def test_weight_mean_is_one(self):
        pair = identity1d()
        fam = BiasedFamily("joint_gaussian")
        ws = draw_weighted_sample(pair, fam,
                                  BiasedParams(lam=[0.7], C=[[1.3]]),
                                  RngStream(14), 10**5)
        se = ws.w.std(ddof=1) / math.sqrt(len(ws.y))
        assert abs(ws.w.mean() - 1.0) < 3 * se

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ImportanceError):
            WeightedSample(y=np.array([0.0, 1.0]),
                           w=np.array([1.0, 0.0]))


class TestIsVariance:
    def test_unit_weights_binomial(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal(1000)
        ws = WeightedSample(y=y, w=np.ones(1000))
        est = is_cdf(ws, 0.0, "raw")
        assert is_variance_estimate(ws, 0.0) == pytest.approx(
            est * (1 - est) / 1000, rel=1e-9)

    def test_matches_replication_variance(self):
        pair = identity1d()
        fam = BiasedFamily("joint_gaussian")
        params = BiasedParams(lam=[-1.0], C=[[1.0]])
        reps, n = 4000, 400
        vals = np.empty(reps)
        form = np.empty(reps)
        for r in range(reps):
            ws = draw_weighted_sample(pair, fam, params, RngStream(16, (r,)), n)
            vals[r] = is_cdf(ws, 0.0, "raw")
            form[r] = is_variance_estimate(ws, 0.0)
        assert vals.var(ddof=1) == pytest.approx(form.mean(), rel=0.10)

    def test_near_optimal_member_shrinks_variance(self):
        pair = identity1d()
        fam = BiasedFamily("joint_gaussian")
        # member close to the conditional law given X <= 0
        good = BiasedParams(lam=[TRUNC_MEAN], C=[[TRUNC_VAR]])
        plain = BiasedParams(lam=[0.0], C=[[1.0]])
        vg = ve = 0.0
        for r in range(50):
            wg = draw_weighted_sample(pair, fam, good, RngStream(17, (r,)), 2000)
            wp = draw_weighted_sample(pair, fam, plain, RngStream(18, (r,)), 2000)
            vg += is_variance_estimate(wg, 0.0)
            ve += is_variance_estimate(wp, 0.0)
        assert vg < ve


class TestSelfNormalizedCdfValidity:
    def test_valid_cdf(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = rng.integers(2, 100)
            ws = WeightedSample(y=rng.standard_normal(n),
                                w=rng.random(n) + 1e-3)
            grid = np.linspace(-3, 3, 31)
            vals = [is_cdf(ws, g, "self_normalized") for g in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert 0 <= vals[0] and vals[-1] <= 1 + 1e-12


def _mc_z_alpha(pair, stream):
    """The 0.95-quantile of Z = f_r(X) from 10^6 metamodel draws."""
    return metamodel_quantiles(pair, [0.95], "mc", stream=stream)[0]


class TestCisPipeline:
    def test_forced_original_density_self_normalized(self):
        pair = identity1d()
        fam = BiasedFamily("joint_gaussian")
        params = BiasedParams(lam=[0.0], C=[[1.0]])
        ws = draw_weighted_sample(pair, fam, params, RngStream(20), 500)
        x = fam.member(params).sample(RngStream(20).generator(), 500)
        cdf = weighted_cdf(x[:, 0], np.ones(500))
        assert quantile_from_weighted_cdf(weighted_cdf(ws.y, ws.w), 0.9) == \
            quantile_from_weighted_cdf(cdf, 0.9)

    def test_tail_mode_uses_next_order_statistic(self):
        # With unit weights the tail inversion sits one order statistic above
        # the plain empirical quantile (calibration choice).
        rng = np.random.default_rng(21)
        y = np.sort(rng.standard_normal(100))
        ws = WeightedSample(y=y, w=np.ones(100))
        assert tail_quantile(ws, 0.9) == y[91]

    def test_toy2d_fit_converges(self):
        pair = toy2d()
        fam = BiasedFamily("joint_gaussian")
        z_alpha = _mc_z_alpha(pair, RngStream(22).child(10))
        params, diag = fit_biased_member(pair, fam, z_alpha, RngStream(22),
                                         pilot_count=100_000)
        assert diag.center_in_event
        assert diag.mass_in_event >= MASS_FLOOR
        # optimized member pushes its mean into the metamodel upper tail
        z_center = pair.eval_metamodel(params.lam.reshape(1, -1))[0]
        assert z_center > z_alpha

    def test_toy1d_reports_non_convergence(self):
        pair = toy1d()
        fam = BiasedFamily("joint_gaussian")
        with pytest.raises(CisNonConvergence) as err:
            fit_biased_member(pair, fam, pair.closed_form_z_quantile(0.95),
                              RngStream(23), pilot_count=100_000)
        d = err.value.diagnostics
        assert not (d.mass_in_event >= MASS_FLOOR and d.center_in_event)

    def test_estimate_reasonable_on_toy2d(self):
        pair = toy2d()
        fam = BiasedFamily("joint_gaussian")
        params, _ = fit_biased_member(
            pair, fam, _mc_z_alpha(pair, RngStream(24).child(10)),
            RngStream(24), pilot_count=100_000)
        vals = [tail_quantile(draw_weighted_sample(
                    pair, fam, params, RngStream(25, (r,)).child(1), 200), 0.95)
                for r in range(200)]
        assert np.mean(vals) == pytest.approx(2.75, abs=0.1)
        assert np.std(vals, ddof=1) < 0.3

    def test_unknown_mode_rejected_before_the_draw(self):
        # The config is the only way to choose a mode; it is refused before
        # a model is built.
        with pytest.raises(ConfigError, match="'raw' is not one of"):
            ExperimentConfig.from_dict(dict(
                model="toy2d", estimator="cis", alpha=0.95, n=200,
                replications=1, seed=28, params={"mode": "raw"}))

    def test_moment_selection_mode(self):
        pair = toy2d()
        fam = BiasedFamily("joint_gaussian")
        params, diag = fit_biased_member(
            pair, fam, _mc_z_alpha(pair, RngStream(26).child(10)),
            RngStream(26), pilot_count=50_000, selection="moment")
        assert diag.mass_in_event >= MASS_FLOOR and diag.center_in_event


class TestVarianceOptimalParams:
    def test_prefers_tail_over_original(self):
        pair = toy2d()
        p = variance_optimal_params(pair, 2.6, 100_000, RngStream(27),
                                    tail="upper")
        # chi-square-optimal member recenters into the tail event
        assert pair.eval_metamodel(p.lam.reshape(1, -1))[0] > 1.0


# Reference: the chi-square fit with a LAPACK solve per objective evaluation
# and the moment-matched start from a second draw of the same pilot.


def _ref_pilot(pair, threshold, pilot_count, stream, tail):
    x = pair.input.sample(stream.generator(), pilot_count)
    xe = x[_event(pair.eval_metamodel(x), threshold, tail)]
    p = pair.input.density(xe)
    return xe, p, p  # drawn from the input density: every weight is 1


def _ref_moment_match(pair, threshold, pilot_count, stream, tail):
    xe, p, p0 = _ref_pilot(pair, threshold, pilot_count, stream, tail)
    w = p / p0
    w = w / w.sum()
    lam = w @ xe
    dev = xe - lam
    C = (dev * w[:, None]).T @ dev
    d = C.shape[0]
    return lam, C + np.eye(d) * (1e-8 * np.trace(C) / d)


def _ref_pack(lam, C):
    L = np.linalg.cholesky(C)
    tril = [math.log(L[i, j]) if i == j else L[i, j]
            for i in range(len(lam)) for j in range(i + 1)]
    return np.concatenate([lam, tril])


def _ref_unpack(t, d):
    L = np.zeros((d, d))
    idx = d
    for i in range(d):
        for j in range(i + 1):
            L[i, j] = math.exp(t[idx]) if i == j else t[idx]
            idx += 1
    return t[:d], L


def _ref_objective(t, xe, log_w0, log_qori):
    d = xe.shape[1]
    lam, L = _ref_unpack(t, d)
    sol = np.linalg.solve(L, (xe - lam).T)
    log_q = (-0.5 * (sol**2).sum(axis=0)
             - np.log(np.diag(L)).sum() - 0.5 * d * math.log(2 * math.pi))
    r = log_w0 + log_qori - log_q
    mx = r.max()
    return mx + math.log(np.exp(r - mx).sum())


NELDER_MEAD_OPTIONS = dict(maxiter=4000, xatol=1e-6, fatol=1e-9)


def _ref_variance_optimal(pair, threshold, pilot_count, stream, tail):
    xe, p, p0 = _ref_pilot(pair, threshold, pilot_count, stream, tail)
    log_w0 = np.log(p) - np.log(p0)
    log_qori = np.log(p)
    start = _ref_moment_match(pair, threshold, pilot_count, stream, tail)
    res = minimize(_ref_objective, _ref_pack(*start),
                   args=(xe, log_w0, log_qori), method="Nelder-Mead",
                   options=NELDER_MEAD_OPTIONS)
    lam, L = _ref_unpack(res.x, xe.shape[1])
    return lam, L @ L.T


def _sum3_pair():
    def f(x):
        return x.sum(axis=1) + 0.1 * np.sin(x[:, 0])

    return ModelPair(f=f, f_r=lambda x: x.sum(axis=1),
                     input=standard_normal_input(3), name="sum3")


class TestChiSquareFit:
    @pytest.mark.parametrize("make_pair, threshold", [
        (identity1d, 1.6), (toy2d, 2.6), (_sum3_pair, 2.8)])
    def test_objective_matches_lapack_solve(self, make_pair, threshold):
        pair = make_pair()
        stream = RngStream(31)
        xe, p, p0 = _ref_pilot(pair, threshold, 20_000, stream, "upper")
        d = xe.shape[1]
        lam, C = _ref_moment_match(pair, threshold, 20_000, stream, "upper")
        t0 = _ref_pack(lam, C)
        log_w0, log_qori = np.log(p) - np.log(p0), np.log(p)
        rng = np.random.default_rng(32)
        for _ in range(50):
            t = t0 + 0.3 * rng.standard_normal(len(t0))
            want = _ref_objective(t, xe, log_w0, log_qori)
            got = _log_second_moment(t, np.ascontiguousarray(xe.T),
                                     log_w0 + log_qori,
                                     0.5 * d * math.log(2 * math.pi))
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gate_fit_bit_identical_to_lapack_reference(self, seed):
        # The fits behind the cis byte gates: `qvr estimate` on toy2d at
        # seeds 0-4, with the cis preparation's fit stream and metamodel
        # quantile.
        config = ExperimentConfig(model="toy2d", estimator="cis", alpha=0.95,
                                  n=2000, replications=1, seed=seed)
        prep = DESIGNS["cis"].prepare(config.build_pair(), config)
        lam, C = _ref_variance_optimal(
            prep.pair, z_alpha_for(prep.pair, config), 200_000,
            RngStream(seed, (2**32, 2)).child(0), "upper")
        assert np.array_equal(prep.member.lam, lam)
        assert np.array_equal(prep.member.C, C)

    @pytest.mark.parametrize("make_pair, threshold", [
        (identity1d, 1.6), (toy2d, 2.6), (_sum3_pair, 2.8)])
    @pytest.mark.parametrize("seed", [34, 35, 36])
    def test_nelder_mead_equals_scipy_on_the_cis_objective(
            self, make_pair, threshold, seed):
        pair = make_pair()
        xe, p, _ = _ref_pilot(pair, threshold, 20_000, RngStream(seed),
                              "upper")
        d = xe.shape[1]
        args = (np.ascontiguousarray(xe.T), np.log(p),
                0.5 * d * math.log(2 * math.pi))
        t0 = _ref_pack(*_ref_moment_match(pair, threshold, 20_000,
                                          RngStream(seed), "upper"))
        x, nfev = _nelder_mead(_log_second_moment, t0, args)
        want = minimize(_log_second_moment, t0, args=args,
                        method="Nelder-Mead", options=NELDER_MEAD_OPTIONS)
        assert np.array_equal(x, want.x) and nfev == want.nfev

    @pytest.mark.parametrize("x0", [[1.0, 2.0], [1.0, -2.0, 0.5],
                                    [0.0, 0.0, 0.0, 0.0]])
    def test_nelder_mead_equals_scipy_through_shrink_steps(self, x0):
        # A plateau objective: contractions fail and the simplex shrinks,
        # and tied values go through the argsort reordering.
        def plateaus(x):
            return float(np.floor(4 * np.abs(x - 0.3)).sum())

        x0 = np.array(x0)
        x, nfev = _nelder_mead(plateaus, x0)
        want = minimize(plateaus, x0, method="Nelder-Mead",
                        options=NELDER_MEAD_OPTIONS)
        assert np.array_equal(x, want.x) and nfev == want.nfev
        # Without a shrink an iteration makes at most 2 evaluations.
        assert nfev - (len(x0) + 1) > 2 * (want.nit - 1)

    def test_nelder_mead_stops_at_maxiter_as_scipy_does(self):
        def rosen(x):
            return float(np.sum(100.0 * (x[1:] - x[:-1]**2)**2
                                + (1 - x[:-1])**2))

        x0 = np.array([1.3, 0.7, 0.8, 1.9, 1.2])
        x, nfev = _nelder_mead(rosen, x0, maxiter=40)
        want = minimize(rosen, x0, method="Nelder-Mead",
                        options=dict(NELDER_MEAD_OPTIONS, maxiter=40))
        assert want.nit == 40 and not want.success
        assert np.array_equal(x, want.x) and nfev == want.nfev

    def test_fit_evaluates_the_pilot_once(self):
        base = toy2d()
        points = []

        def f_r(x):
            points.append(len(x))
            return base.f_r(x)

        pair = ModelPair(f=base.f, f_r=f_r, input=base.input)
        fit_biased_member(pair, BiasedFamily("joint_gaussian"), 2.6,
                          RngStream(33), pilot_count=20_000)
        assert sum(points) == 20_000 + CHECK_COUNT + 1
