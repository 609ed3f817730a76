import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qvr.model import (
    InputDistribution,
    Lognormal,
    ModelError,
    Normal,
    builtin_model,
    identity1d,
    standard_normal_input,
    toy1d,
    toy2d,
)


class TestMarginals:
    def test_normal_requires_positive_stddev(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)

    def test_lognormal_requires_positive_stddev(self):
        with pytest.raises(ValueError):
            Lognormal(0.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: Normal(v, 1.0), lambda v: Normal(0.0, v),
        lambda v: Lognormal(v, 1.0), lambda v: Lognormal(0.0, v),
    ], ids=["Normal.mean", "Normal.stddev", "Lognormal.log_mean",
            "Lognormal.log_stddev"])
    def test_non_finite_parameter_raises(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    def test_standard_normal_density_at_zero(self):
        assert Normal(0.0, 1.0).density(0.0) == pytest.approx(
            0.3989422804, abs=1e-9)

    def test_lognormal_density_outside_support_is_zero(self):
        d = InputDistribution((Lognormal(0.0, 1.0),))
        assert d.density(np.array([-1.0])) == 0.0

    @pytest.mark.parametrize("mean,stddev", [
        (0.0, 1.0), (0.3, 1.7), (-2.5, 0.01), (1e6, 3e5), (4.0, 1e-300)])
    def test_normal_density_equals_scipy_bit_for_bit(self, mean, stddev):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(mean, 4 * stddev, 10_000),
                            [mean, np.inf, -np.inf, np.nan, 0.0, -0.0,
                             1e308, -1e308, 5e-324]])
        with np.errstate(over="ignore"):
            got = Normal(mean, stddev).density(x)
            want = stats.norm.pdf(x, loc=mean, scale=stddev)
            assert np.array_equal(got, want, equal_nan=True)
            for v in (0.25, mean, np.inf, -np.inf, np.nan):
                got = Normal(mean, stddev).density(v)
                want = stats.norm.pdf(v, loc=mean, scale=stddev)
                assert type(got) is type(want)
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("log_mean,log_stddev", [
        (0.0, 1.0), (0.2, 0.9), (-3.0, 0.05), (5.0, 2.5)])
    def test_lognormal_density_matches_scipy(self, log_mean, log_stddev):
        rng = np.random.default_rng(12)
        x = np.exp(rng.normal(log_mean, 1.5 * log_stddev, 10_000))
        want = stats.lognorm.pdf(x, s=log_stddev, scale=math.exp(log_mean))
        keep = want > 1e-300  # below that scipy's own result is subnormal
        got = Lognormal(log_mean, log_stddev).density(x)
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0)
        edges = np.array([0.0, -1.0, -np.inf, np.inf, np.nan])
        assert np.array_equal(Lognormal(log_mean, log_stddev).density(edges),
                              [0.0, 0.0, 0.0, 0.0, np.nan], equal_nan=True)

    def test_lognormal_density_with_huge_location_is_finite(self):
        m = Lognormal(710.0, 1.0)
        at_max = m.density(1e308)
        assert math.isfinite(at_max) and at_max > 0
        assert math.isfinite(m.density(1.0))
        assert type(m.density(1.0)) is np.float64


class TestInputDistribution:
    def test_needs_components(self):
        with pytest.raises(ValueError):
            InputDistribution(())

    def test_huge_lognormal_location_builds_and_samples(self):
        d = InputDistribution((Lognormal(700.0, 1.0),))
        x = d.sample(np.random.default_rng(0), 100)
        assert np.all(np.isfinite(x)) and np.all(x > 0)

    def test_joint_density_two_dims(self):
        d = standard_normal_input(2)
        assert d.density(np.array([0.0, 0.0])) == pytest.approx(
            0.15915494, abs=1e-7)

    def test_joint_density_factorizes(self):
        d = InputDistribution((Normal(0.5, 2.0), Lognormal(0.1, 0.7),
                               Normal(-1.0, 0.3)))
        rng = np.random.default_rng(0)
        pts = np.column_stack([
            rng.normal(0.5, 2.0, 1000),
            np.exp(rng.normal(0.1, 0.7, 1000)),
            rng.normal(-1.0, 0.3, 1000),
        ])
        joint = d.density(pts)
        manual = np.ones(1000)
        for j, c in enumerate(d.components):
            manual *= c.density(pts[:, j])
        assert np.allclose(joint, manual, rtol=1e-12)

    def test_sample_shape_and_empty(self):
        d = standard_normal_input(3)
        rng = np.random.default_rng(1)
        assert d.sample(rng, 0).shape == (0, 3)
        assert d.sample(rng, 7).shape == (7, 3)

    def test_sample_moments_normal(self):
        d = standard_normal_input(1)
        x = d.sample(np.random.default_rng(2), 10**6)[:, 0]
        assert abs(x.mean()) < 0.004
        assert abs(x.var() - 1.0) < 0.01

    def test_sample_moments_lognormal(self):
        d = InputDistribution((Lognormal(0.0, 1.0),))
        x = d.sample(np.random.default_rng(3), 10**6)[:, 0]
        target = math.exp(0.5)
        se = x.std() / 1000.0
        assert abs(x.mean() - target) < 3 * se

    @pytest.mark.parametrize("marginal,cdf", [
        (Normal(0.3, 1.7), lambda x: stats.norm.cdf(x, 0.3, 1.7)),
        (Lognormal(0.2, 0.9),
         lambda x: stats.lognorm.cdf(x, 0.9, scale=math.exp(0.2))),
    ])
    def test_sampling_density_consistency(self, marginal, cdf):
        x = np.random.default_rng(4).standard_normal(10**6)
        marginal.transform(x)
        x = np.sort(x)
        emp = np.arange(1, len(x) + 1) / len(x)
        assert np.abs(emp - cdf(x)).max() < 0.002

    @pytest.mark.parametrize("count", [0, 1, 7, 1001])
    def test_sample_draws_column_after_column(self, count):
        d = InputDistribution((Normal(0.5, 2.0), Lognormal(0.1, 0.7),
                               Normal(-1.0, 0.3)))
        rng = np.random.default_rng(9)
        want = np.column_stack([rng.normal(0.5, 2.0, count),
                                np.exp(rng.normal(0.1, 0.7, count)),
                                rng.normal(-1.0, 0.3, count)])
        got = d.sample(np.random.default_rng(9), count)
        assert got.shape == (count, 3) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        d = standard_normal_input(2)
        with pytest.raises(ModelError):
            d.density(np.array([1.0, 2.0, 3.0]))


def _z_and_y(pair, x):
    """(f_r(x), f(x)) at a single d-dimensional point."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return float(pair.eval_metamodel(x)[0]), float(pair.eval_full(x)[0])


class TestBuiltinModels:
    def test_toy1d_origin(self):
        assert _z_and_y(toy1d(), [0.0]) == (0.0, 0.0)

    def test_toy1d_at_one(self):
        z, y = _z_and_y(toy1d(), [1.0])
        assert z == 1.0
        expect = 0.95 * (1 + 0.5 * math.cos(10.0) + 0.5 * math.cos(20.0))
        assert y == pytest.approx(expect, rel=1e-14)

    def test_toy2d_origin(self):
        assert _z_and_y(toy2d(), [0.0, 0.0]) == (0.0, 0.0)

    def test_identity(self):
        z, y = _z_and_y(identity1d(), [0.37])
        assert z == 0.37 and y == 0.37

    def test_closed_form_quantiles_equal_scipy_ppf(self):
        # The stdlib's normal quantile (AS241) and scipy's (Cephes) agree
        # within 16 ulps, and exactly at the endpoints' infinities.
        def close(got, want):
            return type(got) is float and (got == want or (
                math.isfinite(want)
                and abs(got - want) <= 16 * math.ulp(want)))

        alphas = [0.0, 1e-12, 0.05, 0.5, 0.9, 0.95, 0.99, 1 - 1e-12, 1.0,
                  *np.linspace(0.001, 0.999, 499)]
        for a in alphas:
            assert close(toy1d().closed_form_z_quantile(a),
                         float(stats.norm.ppf((1 + a) / 2) ** 2)), a
            assert close(identity1d().closed_form_z_quantile(a),
                         float(stats.norm.ppf(a))), a
        assert toy1d().closed_form_z_quantile(1.0) == math.inf
        assert identity1d().closed_form_z_quantile(0.0) == -math.inf
        assert identity1d().closed_form_z_quantile(1.0) == math.inf

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_model("nope")

    @pytest.mark.parametrize("pair", [toy1d(), toy2d(), identity1d()])
    def test_evaluators_are_pure(self, pair):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1000, pair.dimension))
        z1, y1 = pair.eval_metamodel(x), pair.eval_full(x)
        z2, y2 = pair.eval_metamodel(x), pair.eval_full(x)
        assert np.array_equal(z1, z2) and np.array_equal(y1, y2)

    def test_toy1d_closed_form_z_quantile(self):
        q = toy1d().closed_form_z_quantile
        assert q(0.95) == pytest.approx(stats.norm.ppf(0.975) ** 2, rel=1e-12)


class TestTransform:
    """A marginal maps standard normals in place to numpy's own draws of
    it, bit for bit; the ``sample`` of an input with that one marginal is
    that map on new normals."""

    @pytest.mark.parametrize("make,numpy_draws", [
        (Normal, lambda rng, a, b, k: rng.normal(a, b, k)),
        (Lognormal, lambda rng, a, b, k: np.exp(rng.normal(a, b, k))),
    ])
    @settings(max_examples=60, deadline=None)
    @given(loc=st.floats(-50.0, 50.0), scale=st.floats(1e-6, 50.0),
           count=st.sampled_from([0, 1, 7, 999]),
           seed=st.integers(0, 2**63))
    def test_equals_numpy_draws(self, make, numpy_draws, loc, scale, count,
                                seed):
        m = make(loc, scale)
        want = numpy_draws(np.random.default_rng(seed), loc, scale, count)
        got = np.random.default_rng(seed).standard_normal(count)
        m.transform(got)
        assert got.tobytes() == want.tobytes()
        x = InputDistribution((m,)).sample(np.random.default_rng(seed), count)
        assert x.shape == (count, 1) and x.tobytes() == want.tobytes()
