import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

import qvr.model
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

    def test_standard_normal_density_at_zero(self):
        assert Normal(0.0, 1.0).density(0.0) == pytest.approx(
            0.3989422804, abs=1e-9)

    def test_lognormal_density_outside_support_is_zero(self):
        d = InputDistribution((Lognormal(0.0, 1.0),))
        assert d.density(np.array([-1.0])) == 0.0


class TestInputDistribution:
    def test_needs_components(self):
        with pytest.raises(ValueError):
            InputDistribution(())

    def test_unit_mass_integrated_once_per_marginal(self, monkeypatch):
        qvr.model._check_unit_mass.cache_clear()
        calls = []
        quad = qvr.model.integrate.quad
        monkeypatch.setattr(qvr.model.integrate, "quad",
                            lambda *a, **k: calls.append(1) or quad(*a, **k))
        marginal = Lognormal(0.123, 0.456)
        InputDistribution((marginal, marginal))
        InputDistribution((Lognormal(0.123, 0.456),))
        assert len(calls) == 1

    def test_bad_marginal_raises_every_time(self):
        @dataclasses.dataclass(frozen=True)
        class DoubledNormal(Normal):
            def density(self, x):
                return 2 * super().density(x)

        for _ in range(2):
            with pytest.raises(ValueError, match="mass"):
                InputDistribution((DoubledNormal(0.0, 1.0),))

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
        x = marginal.sample(np.random.default_rng(4), 10**6)
        x = np.sort(x)
        emp = np.arange(1, len(x) + 1) / len(x)
        assert np.abs(emp - cdf(x)).max() < 0.002

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
