import numpy as np
import pytest
import reference_inversions as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from qvr.estimators import (
    EstimatorError,
    PairedSample,
    argsort_rows,
    correlation_report,
    cv_cdf,
    cv_cdf_general,
    cv_weights,
    draw_paired_sample,
    empirical_quantile,
    indicator_correlation,
    ps_cdf,
    quantile_from_weighted_cdf,
    weighted_cdf,
    weighted_quantile_sorted_rows,
)
from qvr.importance import WeightedSample, tail_quantile
from qvr.strata import ConditionalProbs, ps_form_variance
from qvr.model import identity1d, toy1d
from qvr.sampling import RngStream, StrataSpec, strata_from_cutpoints


def empirical_cdf(y_values):
    """The plain-sample cdf: ``weighted_cdf`` with equal weights."""
    y = np.asarray(y_values, dtype=float)
    return weighted_cdf(y, np.ones(y.size))


class TestEmpiricalCdf:
    def test_small_sample(self):
        cdf = empirical_cdf([3, 1, 2])
        assert cdf.evaluate(1.0) == pytest.approx(1 / 3)
        assert cdf.evaluate(2.5) == pytest.approx(2 / 3)
        assert cdf.evaluate(5.0) == 1.0

    def test_single_value(self):
        cdf = empirical_cdf([7.0])
        assert cdf.evaluate(6.999) == 0.0
        assert cdf.evaluate(7.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EstimatorError):
            empirical_quantile([], 0.5)

    def test_median_of_normal_draws(self):
        y = np.random.default_rng(0).standard_normal(10**6)
        assert empirical_cdf(y).evaluate(0.0) == pytest.approx(0.5, abs=0.002)


# A small value set, so that rows tie often, with the values a SIMD sort and
# a strict comparison treat apart from the rest: NaN, both zeros, infinities.
TIE_PRONE = (0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5)


@st.composite
def rows_to_sort(draw):
    """A 1-D array, or B rows of n values: drawn from ``TIE_PRONE``, or
    normals rounded to 0-4 decimals (mostly tied rows at 0, mostly rows
    without ties at 4)."""
    shape = draw(st.one_of(st.tuples(st.integers(0, 40)),
                           st.tuples(st.just(0), st.integers(0, 40)),
                           st.tuples(st.integers(1, 6), st.just(1)),
                           st.tuples(st.integers(1, 6), st.integers(2, 40))))
    size = int(np.prod(shape))
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(TIE_PRONE), min_size=size,
                               max_size=size))
        return np.array(values, dtype=float).reshape(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.round(rng.normal(size=shape), draw(st.integers(0, 4)))


class TestArgsortRows:
    @given(rows_to_sort())
    @settings(max_examples=300, deadline=None)
    def test_is_the_stable_argsort(self, a):
        got = argsort_rows(a)
        want = np.argsort(a, axis=-1, kind="stable")
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_rows_with_and_without_ties_in_one_block(self):
        # Rows long enough that numpy's default argsort leaves insertion
        # sort, and so stable order, on the tied rows.
        i = np.arange(64)
        a = np.array([np.random.default_rng(0).permutation(64), i % 2,
                      np.where(i % 3 == 0, np.nan, i % 5)], dtype=float)
        want = np.argsort(a, axis=-1, kind="stable")
        assert (np.argsort(a, axis=-1) != want).any(axis=-1).tolist() == [
            False, True, True]
        assert np.array_equal(argsort_rows(a), want)


class TestQuantileInversion:
    def test_non_integer_level(self):
        pts = np.arange(0.1, 1.05, 0.1)
        cdf = weighted_cdf(pts, np.full(10, 0.1))
        assert quantile_from_weighted_cdf(cdf, 0.45) == pytest.approx(0.5)

    def test_integer_level_takes_exact_hit_point(self):
        # Generalized inverse: at alpha*n integer the cumulative weight
        # reaches alpha exactly at the ceil(alpha*n)-th order statistic,
        # which is the smallest point with cdf >= alpha.
        pts = np.arange(0.1, 1.05, 0.1)
        cdf = weighted_cdf(pts, np.full(10, 0.1))
        assert quantile_from_weighted_cdf(cdf, 0.5) == pytest.approx(0.5)
        assert quantile_from_weighted_cdf(cdf, 0.45) == pytest.approx(0.5)

    def test_plain_sample_quantile_uses_next_order_statistic(self):
        # The baseline estimator sits one order statistic above the
        # generalized inverse when alpha*n is an integer.
        pts = np.arange(0.1, 1.05, 0.1)
        assert empirical_quantile(pts, 0.5) == pytest.approx(0.6)
        assert empirical_quantile(pts, 0.45) == pytest.approx(0.5)

    def test_uneven_weights(self):
        cdf = weighted_cdf([1.0, 2.0, 3.0], [0.5, 0.3, 0.2])
        assert quantile_from_weighted_cdf(cdf, 0.75) == 2.0
        assert quantile_from_weighted_cdf(cdf, 0.85) == 3.0

    def test_alpha_range(self):
        cdf = empirical_cdf([1.0, 2.0])
        with pytest.raises(ValueError):
            quantile_from_weighted_cdf(cdf, 1.0)

    def test_bracketing(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = rng.integers(2, 40)
            y = rng.standard_normal(n)
            w = rng.random(n) + 0.01
            cdf = weighted_cdf(y, w)
            alpha = rng.uniform(0.05, 0.95)
            q = quantile_from_weighted_cdf(cdf, alpha)
            assert cdf.evaluate(q) >= alpha - 1e-12
            below = cdf.points[cdf.points < q]
            if len(below):
                assert cdf.evaluate(below[-1]) <= alpha + 1e-9

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
           st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, values, alpha):
        cdf = empirical_cdf(values)
        grid = np.linspace(min(values) - 1, max(values) + 1, 37)
        out = cdf.evaluate(grid)
        assert np.all(np.diff(out) >= 0)
        assert out[0] >= 0 and out[-1] == pytest.approx(1.0)
        q = quantile_from_weighted_cdf(cdf, alpha)
        assert min(values) <= q <= max(values)


class TestOneSampleFunctionsMatchReference:
    """The one-sample functions, one-row calls of the row inversions,
    against ``reference_inversions``: samples with ties, integer and
    exponential weights, levels from 0.01 to 0.99, exact-mass hits."""

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            y = rng.standard_normal(n)
            if rng.random() < 0.5:  # ties
                y = np.round(y, 1)
            w = (rng.integers(1, 4, n).astype(float) if rng.random() < 0.5
                 else rng.exponential(size=n))
            alpha, pick = rng.uniform(0.01, 0.99), rng.random()
            if n > 1 and pick < 0.2:  # alpha n an integer
                alpha = rng.integers(1, n) / n
            elif n > 1 and pick < 0.4:  # a cumulative weight hits alpha
                cum = np.cumsum(w[np.argsort(y, kind="stable")])
                alpha = cum[rng.integers(0, n - 1)] / w.sum()
            got = quantile_from_weighted_cdf(weighted_cdf(y, w), alpha)
            assert got == ref.weighted_quantile(y, w, alpha)
            order = argsort_rows(y)
            got = weighted_quantile_sorted_rows(
                y[order][None], w[order][None], w.sum(), alpha, strict=True)
            assert got[0] == ref.weighted_quantile(y, w, alpha, strict=True)
            assert empirical_quantile(y, alpha) == \
                ref.empirical_quantile(y, alpha)
            assert tail_quantile(WeightedSample(y, w), alpha) == \
                ref.tail_quantile(y, w, alpha)
            z_alpha = float(rng.choice(y)) if rng.random() < 0.8 else 9.0
            got_w, got_flag = cv_weights(y, z_alpha, alpha)
            want_w, want_flag = ref.cv_weights(y, z_alpha, alpha)
            assert np.array_equal(got_w, want_w) and got_flag == want_flag


class TestCvWeights:
    def test_balanced_collapses_to_uniform(self):
        z = np.concatenate([np.zeros(5), np.ones(5)])
        w, degenerate = cv_weights(z, 0.5, 0.5)
        assert not degenerate
        assert np.allclose(w, 0.1)

    def test_unbalanced_example(self):
        z = np.array([0.0, 1.0, 1.0, 1.0])
        w, _ = cv_weights(z, 0.5, 0.5)
        assert np.allclose(w, [0.5, 1 / 6, 1 / 6, 1 / 6])
        assert w.sum() == pytest.approx(1.0)

    def test_degenerate_fallback(self):
        w, degenerate = cv_weights(np.ones(4), 0.5, 0.5)
        assert degenerate
        assert np.allclose(w, 0.25)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=50),
           st.floats(0.05, 0.95), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_weights_sum_to_one(self, z, alpha, z_alpha):
        w, _ = cv_weights(np.array(z), z_alpha, alpha)
        assert w.sum() == pytest.approx(1.0)


def _paired(rng, n, pair=None):
    pair = pair or toy1d()
    x = pair.input.sample(rng, n)
    return PairedSample(x=x, y=pair.eval_full(x), z=pair.eval_metamodel(x))


class TestCvCdf:
    def test_balanced_equals_empirical(self):
        rng = np.random.default_rng(2)
        s = _paired(rng, 100)
        z_alpha = np.quantile(s.z, 0.5)
        cdf = cv_cdf(s, z_alpha, 0.5)
        base = empirical_cdf(s.y)
        grid = np.linspace(s.y.min(), s.y.max(), 23)
        assert np.allclose(cdf.evaluate(grid), base.evaluate(grid))

    def test_general_with_indicator_equals_weighted_form(self):
        rng = np.random.default_rng(3)
        s = _paired(rng, 200)
        z_alpha, alpha = 3.8415, 0.95
        cdf = cv_cdf(s, z_alpha, alpha)
        for y in np.quantile(s.y, [0.3, 0.8, 0.97]):
            general = cv_cdf_general(s, lambda z: (z <= z_alpha).astype(float),
                                     alpha, y)
            assert general == pytest.approx(float(cdf.evaluate(y)), abs=1e-12)

    def test_constant_control_rejected(self):
        rng = np.random.default_rng(4)
        s = _paired(rng, 50)
        with pytest.raises(EstimatorError):
            cv_cdf_general(s, lambda z: np.ones_like(z), 1.0, 0.0)

    def test_linear_control_reduces_variance_on_identity(self):
        pair = identity1d()
        reps, n = 300, 2000
        ee, cv = np.empty(reps), np.empty(reps)
        for r in range(reps):
            s = draw_paired_sample(pair, RngStream(50, (r,)), n)
            ee[r] = (s.y <= 0).mean()
            cv[r] = cv_cdf_general(s, lambda z: z, 0.0, 0.0)
        assert abs(cv.mean() - 0.5) < 0.005
        assert cv.var() < ee.var()

    def test_variance_reduction_matches_indicator_correlation(self):
        pair = toy1d()
        big = draw_paired_sample(pair, RngStream(51), 10**6)
        z_alpha, alpha = 3.8415, 0.95
        y0 = 3.66
        rho_i = indicator_correlation(big.y <= y0, big.z <= z_alpha)
        reps, n = 2000, 200
        ee, cv = np.empty(reps), np.empty(reps)
        for r in range(reps):
            s = draw_paired_sample(pair, RngStream(52, (r,)), n)
            ee[r] = (s.y <= y0).mean()
            w, _ = cv_weights(s.z, z_alpha, alpha)
            cv[r] = float(np.sum(w * (s.y <= y0)))
        ratio = cv.var(ddof=1) / ee.var(ddof=1)
        assert ratio == pytest.approx(1 - rho_i**2, rel=0.15)


class TestIndicatorCorrelation:
    def test_identical_columns(self):
        rng = np.random.default_rng(5)
        s = _paired(rng, 1000, identity1d())
        assert indicator_correlation(s.y <= 0.3, s.z <= 0.3) == \
            pytest.approx(1.0)

    def test_clipped_to_plus_minus_one(self):
        # On this sample the ratio rounds to 1 + 2**-52 for equal
        # indicators and to -(1 + 2**-52) for complementary ones; it is
        # clipped, as np.corrcoef clips.
        s = draw_paired_sample(identity1d(), RngStream(0), 10**4)
        y = empirical_quantile(s.y, 0.95)
        assert indicator_correlation(s.y <= y, s.z <= y) == 1.0
        assert indicator_correlation(
            s.y <= y, -s.z <= -np.nextafter(y, np.inf)) == -1.0

    def test_constant_column_rejected(self):
        rng = np.random.default_rng(6)
        s = _paired(rng, 100)
        with pytest.raises(EstimatorError):
            indicator_correlation(s.y <= 1e9, s.z <= 0.0)

    def test_identity_report(self):
        rep = correlation_report(identity1d(), 0.95, 10**4, RngStream(7))
        assert rep.rho == pytest.approx(1.0)
        assert rep.rho_indicator == pytest.approx(1.0)


class TestPostStratification:
    def test_single_stratum_equals_empirical(self):
        rng = np.random.default_rng(8)
        s = _paired(rng, 100)
        spec = StrataSpec((0.0, 1.0), (-np.inf, np.inf))
        y0 = float(np.median(s.y))
        assert ps_cdf(s, spec, y0) == pytest.approx(
            float(empirical_cdf(s.y).evaluate(y0)))

    def test_two_strata_equals_cv(self):
        rng = np.random.default_rng(9)
        s = _paired(rng, 400)
        alpha = 0.95
        spec = strata_from_cutpoints(toy1d(), [0.0, alpha, 1.0])
        z_alpha = spec.z_values[1]
        cv = cv_cdf(s, z_alpha, alpha)
        for y in np.quantile(s.y, [0.2, 0.9, 0.96]):
            assert ps_cdf(s, spec, y) == pytest.approx(
                float(cv.evaluate(y)), abs=1e-12)

    def test_hand_sample(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        z = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        s = PairedSample(x=z.reshape(-1, 1), y=y, z=z)
        spec = StrataSpec((0.0, 0.5, 1.0), (-np.inf, 0.0, np.inf))
        # P_hat = (2/3, 1/3) at y = 2.5... choose y so strata give 2/3, 1/3
        assert ps_cdf(s, spec, 4.5) == pytest.approx(
            0.5 * 1.0 + 0.5 * (1 / 3))
        assert ps_cdf(s, spec, 2.5) == pytest.approx(0.5 * (2 / 3))

    def test_empty_stratum_rejected(self):
        rng = np.random.default_rng(10)
        s = _paired(rng, 20)
        spec = StrataSpec((0.0, 0.999999, 1.0), (-np.inf, 1e9, np.inf))
        with pytest.raises(EstimatorError):
            ps_cdf(s, spec, 0.0)


def _ps_variance(p_hat, spec, n):
    """Leading-order variance of the PS cdf estimate at sample size n."""
    p = ConditionalProbs(p_hat=p_hat, counts=np.zeros(len(p_hat)))
    return ps_form_variance(p, spec) / n


class TestPsVariance:
    def test_zero_probs(self):
        spec = StrataSpec((0.0, 0.5, 1.0), (-np.inf, 0.0, np.inf))
        assert _ps_variance([0.0, 0.0], spec, 100) == 0.0

    def test_single_stratum_binomial(self):
        spec = StrataSpec((0.0, 1.0), (-np.inf, np.inf))
        assert _ps_variance([0.5], spec, 100) == pytest.approx(0.0025)

    def test_matches_replication_variance(self):
        pair = toy1d()
        spec = strata_from_cutpoints(pair, [0.0, 0.95, 1.0])
        y0 = 3.66
        reps, n = 3000, 200
        vals = np.empty(reps)
        for r in range(reps):
            s = draw_paired_sample(pair, RngStream(53, (r,)), n)
            vals[r] = ps_cdf(s, spec, y0)
        big = draw_paired_sample(pair, RngStream(54), 10**6)
        strat = spec.stratum_of(big.z)
        p = [float((big.y[strat == j] <= y0).mean()) for j in range(2)]
        formula = _ps_variance(p, spec, n)
        assert vals.var(ddof=1) == pytest.approx(formula, rel=0.10)

    def test_range_check(self):
        spec = StrataSpec((0.0, 1.0), (-np.inf, np.inf))
        with pytest.raises(ValueError):
            _ps_variance([1.5], spec, 10)


class TestReplicationMeans:
    def test_ee_and_cv_cdf_unbiased(self):
        pair = toy1d()
        y0 = 3.66
        big = draw_paired_sample(pair, RngStream(55), 10**6)
        truth = (big.y <= y0).mean()
        reps, n = 3000, 200
        ee = np.empty(reps)
        cv = np.empty(reps)
        for r in range(reps):
            s = draw_paired_sample(pair, RngStream(56, (r,)), n)
            ee[r] = (s.y <= y0).mean()
            w, _ = cv_weights(s.z, 3.8415, 0.95)
            cv[r] = float(np.sum(w * (s.y <= y0)))
        for vals in (ee, cv):
            se = vals.std(ddof=1) / np.sqrt(reps)
            assert abs(vals.mean() - truth) < 3 * se + 2e-3
