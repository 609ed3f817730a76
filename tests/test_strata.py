import numpy as np
import pytest
import reference_phase_two as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvr.model import (ModelPair, identity1d, standard_normal_input,
                       toy1d)
from qvr.sampling import (
    AllocationPlan,
    RngStream,
    SamplingError,
    StrataSpec,
    StratifiedSample,
    evaluate_full,
    sample_strata,
    strata_from_cutpoints,
)
from qvr.strata import (
    AcsConfig,
    ConditionalProbs,
    StrataError,
    acs_quantile,
    acs_rows,
    cs_cdf,
    cs_quantile,
    cs_variance,
    conditional_probs,
    largest_remainder,
    ocs_variance,
    optimal_allocation,
    phase_two_rows,
    ps_form_variance,
    two_strata_acs_factor,
)


def _spec(cutpoints, z=None):
    if z is None:
        z = tuple(np.linspace(-1, 1, len(cutpoints) - 2))
    return StrataSpec(tuple(cutpoints), (-np.inf,) + tuple(z) + (np.inf,))


def _sample_from_y(ylist):
    return StratifiedSample(
        x=[np.zeros((len(y), 1)) for y in ylist],
        z=[np.zeros(len(y)) for y in ylist],
        y=[np.asarray(y, dtype=float) for y in ylist],
    )


class TestCsCdf:
    def test_all_ones(self):
        spec = _spec([0.0, 0.5, 1.0])
        sample = _sample_from_y([[0.0, 0.1], [0.2, 0.3]])
        est, p = cs_cdf(sample, spec, 10.0)
        assert est == 1.0
        assert np.allclose(p.p_hat, 1.0)

    def test_hand_arithmetic(self):
        spec = _spec([0.0, 0.5, 0.9, 0.95, 1.0])
        sample = _sample_from_y([[0.0, 0.0], [1.0, 3.0], [5.0, 6.0],
                                 [7.0, 8.0]])
        est, _ = cs_cdf(sample, spec, 2.0)
        assert est == pytest.approx(0.5 + 0.4 * 0.5)

    def test_empty_required_stratum(self):
        spec = _spec([0.0, 0.5, 1.0])
        sample = _sample_from_y([[1.0], []])
        with pytest.raises(StrataError):
            cs_cdf(sample, spec, 0.0)


class TestCsQuantile:
    def test_single_stratum_is_empirical(self):
        from qvr.estimators import empirical_quantile
        spec = StrataSpec((0.0, 1.0), (-np.inf, np.inf))
        y = np.random.default_rng(0).standard_normal(101)
        sample = _sample_from_y([y])
        for a in (0.3, 0.5, 0.95):
            assert cs_quantile(sample, spec, a) == empirical_quantile(y, a)

    def test_bracketing(self):
        rng = np.random.default_rng(1)
        spec = _spec([0.0, 0.5, 0.9, 1.0], z=(0.0, 1.0))
        for _ in range(100):
            sample = _sample_from_y([rng.standard_normal(rng.integers(2, 20))
                                     for _ in range(3)])
            alpha = rng.uniform(0.1, 0.95)
            q = cs_quantile(sample, spec, alpha)
            at, _ = cs_cdf(sample, spec, q)
            assert at >= alpha - 1e-9
            pooled = np.sort(np.concatenate(sample.y))
            below = pooled[pooled < q]
            if len(below):
                prev, _ = cs_cdf(sample, spec, below[-1])
                assert prev <= alpha + 1e-9


class TestCsVariance:
    def test_constant_p_factorizes(self):
        spec = _spec([0.0, 0.5, 0.9, 1.0], z=(0.0, 1.0))
        plan = AllocationPlan((10, 20, 5))
        F = 0.3
        p = ConditionalProbs(np.full(3, F), np.array(plan.counts))
        expect = np.sum(spec.widths**2 / np.array(plan.counts)) * (F - F**2)
        assert cs_variance(p, spec, plan) == pytest.approx(expect, rel=1e-12)

    def test_proportional_equals_ps_form(self):
        # With the exact proportional counts N_j = n * width_j the stratified
        # variance collapses to the post-stratification form.
        rng = np.random.default_rng(2)
        for _ in range(1000):
            m = rng.integers(2, 6)
            cut = np.sort(rng.uniform(0.05, 0.95, m - 1))
            spec = _spec([0.0, *cut, 1.0], z=tuple(np.sort(rng.normal(size=m - 1))))
            n = 1000
            counts = spec.widths * n
            p = ConditionalProbs(rng.random(m), np.ones(m, dtype=int))
            exact = float(np.sum(spec.widths**2 * (p.p_hat - p.p_hat**2)
                                 / counts))
            assert exact == pytest.approx(ps_form_variance(p, spec) / n,
                                          rel=1e-12)

    def test_empirical_agreement(self):
        pair = toy1d()
        spec = strata_from_cutpoints(pair, [0.0, 0.5, 0.9, 0.95, 1.0])
        plan = AllocationPlan((50, 50, 50, 50))
        y0 = 3.66
        reps = 2000
        vals = np.empty(reps)
        for r in range(reps):
            s, _ = sample_strata(pair, spec, plan, RngStream(60, (r,)))
            s = evaluate_full(pair, s)
            vals[r], _ = cs_cdf(s, spec, y0)
        big, _ = sample_strata(pair, spec,
                               AllocationPlan((20000,) * 4), RngStream(61))
        big = evaluate_full(pair, big)
        _, p_ref = cs_cdf(big, spec, y0)
        formula = cs_variance(
            ConditionalProbs(p_ref.p_hat, np.array(plan.counts)), spec, plan)
        assert vals.var(ddof=1) == pytest.approx(formula, rel=0.10)


class TestOptimalAllocation:
    def test_uniform_case(self):
        spec = _spec([0.0, 1 / 3, 2 / 3, 1.0], z=(0.0, 1.0))
        p = ConditionalProbs(np.full(3, 0.4), np.ones(3, dtype=int))
        assert np.allclose(optimal_allocation(p, spec), 1 / 3)

    def test_q_ratio(self):
        spec = _spec([0.0, 0.5, 1.0])
        # widths equal; choose P so q = width^2 P(1-P) in ratio 4:1
        p = ConditionalProbs(np.array([0.5, 0.5 - np.sqrt(0.05)]),
                             np.ones(2, dtype=int))
        q = spec.widths**2 * (p.p_hat - p.p_hat**2)
        beta = optimal_allocation(p, spec)
        assert np.allclose(beta, np.sqrt(q) / np.sqrt(q).sum())

    def test_all_zero_rejected(self):
        spec = _spec([0.0, 0.5, 1.0])
        p = ConditionalProbs(np.array([0.0, 1.0]), np.ones(2, dtype=int))
        with pytest.raises(StrataError):
            optimal_allocation(p, spec)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(3)
        grid = np.arange(1e-3, 1.0, 1e-3)
        for _ in range(100):
            m = rng.integers(2, 4)
            if m == 2:
                cut = [0.0, rng.uniform(0.2, 0.8), 1.0]
            else:
                c = np.sort(rng.uniform(0.1, 0.9, 2))
                cut = [0.0, *c, 1.0]
            spec = _spec(cut, z=tuple(np.sort(rng.normal(size=m - 1))))
            p = ConditionalProbs(rng.uniform(0.05, 0.95, m),
                                 np.ones(m, dtype=int))
            q = spec.widths**2 * (p.p_hat - p.p_hat**2)
            beta = optimal_allocation(p, spec)
            if m == 2:
                objective = q[0] / grid + q[1] / (1 - grid)
                best = grid[np.argmin(objective)]
                assert beta[0] == pytest.approx(best, abs=2e-3)
            else:
                b1, b2 = np.meshgrid(grid[::10], grid[::10])
                b3 = 1 - b1 - b2
                mask = b3 > 0
                obj = np.where(mask,
                               q[0] / b1 + q[1] / b2 + q[2] / np.where(
                                   mask, b3, 1.0), np.inf)
                i, j = np.unravel_index(np.argmin(obj), obj.shape)
                assert beta[0] == pytest.approx(b1[i, j], abs=0.02)
                assert beta[1] == pytest.approx(b2[i, j], abs=0.02)

    def test_optimality_property(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = rng.integers(2, 6)
            cut = np.sort(rng.uniform(0.05, 0.95, m - 1))
            spec = _spec([0.0, *cut, 1.0],
                         z=tuple(np.sort(rng.normal(size=m - 1))))
            p = ConditionalProbs(rng.uniform(0.05, 0.95, m),
                                 np.ones(m, dtype=int))
            q = spec.widths**2 * (p.p_hat - p.p_hat**2)
            beta = optimal_allocation(p, spec)
            best = np.sum(q / beta)
            for _ in range(5):
                raw = rng.random(m) + 1e-3
                other = raw / raw.sum()
                assert best <= np.sum(q / other) + 1e-9


class TestOcsVariance:
    def test_perfect_control(self):
        spec = _spec([0.0, 0.5, 1.0])
        p = ConditionalProbs(np.array([1.0, 0.0]), np.ones(2, dtype=int))
        assert ocs_variance(p, spec) == 0.0

    def test_single_stratum(self):
        spec = StrataSpec((0.0, 1.0), (-np.inf, np.inf))
        p = ConditionalProbs(np.array([0.5]), np.ones(1, dtype=int))
        assert ocs_variance(p, spec) == pytest.approx(0.25)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10**4):
            m = rng.integers(1, 6)
            cut = np.sort(rng.uniform(0.02, 0.98, m - 1))
            spec = _spec([0.0, *cut, 1.0],
                         z=tuple(np.sort(rng.normal(size=m - 1))))
            p = ConditionalProbs(rng.random(m), np.ones(m, dtype=int))
            ocs = ocs_variance(p, spec)
            ps = ps_form_variance(p, spec)
            assert ocs <= ps + 1e-12
        # equality when all P_j(1-P_j) are equal
        spec = _spec([0.0, 0.3, 1.0])
        p = ConditionalProbs(np.array([0.2, 0.8]), np.ones(2, dtype=int))
        assert ocs_variance(p, spec) == pytest.approx(
            ps_form_variance(p, spec), rel=1e-12)


class TestLargestRemainder:
    def test_exact_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            m = rng.integers(1, 8)
            beta = rng.random(m) + 1e-9
            beta /= beta.sum()
            n = int(rng.integers(1, 5000))
            out = largest_remainder(beta * n)
            assert out.sum() == n
            assert np.all(out >= np.floor(beta * n))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            largest_remainder(np.array([[1.0, 2.0], [0.5, -0.5]]))

    def test_ties_go_to_the_first_and_sums_round_half_to_even(self):
        assert largest_remainder([[2.5, 2.5, 2.5, 2.5]]).tolist() == [
            [3, 3, 2, 2]]
        # Row sums 1.5, 0.5 and 2.5 round to 2, 0 and 2.
        assert largest_remainder([[0.5, 0.5, 0.5], [0.25, 0.25, 0.0],
                                  [1.25, 1.25, 0.0]]).tolist() == [
            [1, 1, 0], [0, 0, 0], [1, 1, 0]]

    # Rows of quarters (ties, sums at .5), of small and of large reals.
    @given(st.integers(1, 12).flatmap(lambda m: st.tuples(st.just(m), st.lists(
        st.lists(st.one_of(st.integers(0, 40).map(lambda k: k / 4),
                           st.floats(0, 1e6), st.floats(0, 1e17)),
                 min_size=m, max_size=m), max_size=6))))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_per_row_reference(self, case):
        m, rows = case
        t = np.array(rows, dtype=float).reshape(len(rows), m)
        got = largest_remainder(t)
        assert got.shape == t.shape and got.dtype == int
        for row, out in zip(t, got):
            want = ref.largest_remainder(row)
            assert out.tolist() == want.tolist()
            assert largest_remainder(row).tolist() == want.tolist()


def _phase_two_rows_equal_reference(beta, pilot, n, least, widths):
    """``phase_two_rows`` against the per-row reference, row by row; the
    reference's rounding gap of each row."""
    extra, floored = phase_two_rows(beta, pilot, n, least, widths)
    assert extra.shape == floored.shape == beta.shape
    assert extra.dtype == int and floored.dtype == bool
    gaps = []
    for b, e, f in zip(beta, extra, floored):
        want, want_floored = ref.phase_two_counts(b, pilot, n, least, widths)
        assert e.tolist() == want.tolist()
        assert tuple(np.flatnonzero(f).tolist()) == want_floored
        targets = ref.largest_remainder(b * n)
        targets[list(want_floored)] = least
        deficits = np.maximum(targets - pilot, 0).astype(float)
        budget = n - int(pilot.sum())
        shares = (budget * deficits / deficits.sum() if deficits.sum()
                  else budget * widths / widths.sum())
        gaps.append(budget - int(ref.largest_remainder(shares).sum()))
    return extra, floored, gaps


@st.composite
def _phase_two_case(draw):
    m = draw(st.integers(1, 6))
    fraction = st.one_of(st.integers(0, 8).map(lambda k: k / 8),
                         st.floats(0, 1))
    beta = draw(st.lists(st.lists(fraction, min_size=m, max_size=m),
                         max_size=5))
    pilot = draw(st.lists(st.integers(1, 50), min_size=m, max_size=m))
    budget = draw(st.one_of(st.integers(1, 10**4),
                            st.integers(10**15, 10**17)))
    widths = draw(st.lists(st.one_of(st.just(0.0), fraction), min_size=m,
                           max_size=m).filter(lambda w: sum(w) > 0))
    return (np.array(beta, dtype=float).reshape(len(beta), m),
            np.array(pilot), sum(pilot) + budget, draw(st.integers(1, 60)),
            np.array(widths))


class TestPhaseTwoCounts:
    def test_simple_split(self):
        extra, floored = phase_two_rows(
            np.array([[0.86, 0.14]]), np.array([200, 200]), 2000, 1,
            np.array([0.95, 0.05]))
        assert extra.sum() == 1600
        assert extra.tolist() == [[1520, 80]]
        assert not floored.any()

    def test_pilot_exceeds_target_keeps_pilot(self):
        extra, floored = phase_two_rows(
            np.array([[0.0, 0.6, 0.4]]), np.array([20, 20, 20]), 200, 1,
            np.array([0.85, 0.10, 0.05]))
        assert extra[0, 0] == 0
        assert extra.sum() == 140
        assert floored[0, 0]

    def test_budget_violation(self):
        # phase_two_rows assumes a budget left after the pilot; AcsConfig
        # refuses a pilot of n or more points.
        for per_stratum in (5, 6):
            config = AcsConfig(spec=_spec([0.0, 0.5, 1.0]), n=10,
                               pilot_per_stratum=per_stratum)
            with pytest.raises(ValueError, match="entire budget"):
                config.pilot_counts()
        assert AcsConfig(spec=_spec([0.0, 0.5, 1.0]), n=10,
                         pilot_per_stratum=4).pilot_counts().sum() == 8

    def test_cases_the_rows_must_cover(self):
        # Row 0 has zero deficits (its floored targets 4, 0, 4 are at most
        # the pilot), so its budget goes by widths; only positive widths
        # are floored.  Row 1's targets 8, 4, 4 reach the floor.
        extra, floored, gaps = _phase_two_rows_equal_reference(
            np.array([[0.0, 0.0, 0.0], [0.5, 0.25, 0.25]]),
            np.array([5, 5, 5]), 16, 4, np.array([0.5, 0.0, 0.5]))
        assert extra.tolist() == [[1, 0, 0], [1, 0, 0]]
        assert floored.tolist() == [[True, False, True], [False, False, False]]
        assert gaps == [0, 0]
        # A budget of 10**16 points leaves a rounding gap of -1.
        extra, _, gaps = _phase_two_rows_equal_reference(
            np.array([[0.1, 0.2, 0.7]]), np.array([3, 3, 3]), 10**16, 1,
            np.full(3, 1 / 3))
        assert gaps == [-1] and extra.sum() == 10**16 - 9
        # No rows.
        extra, floored = phase_two_rows(np.empty((0, 3)), np.array([3, 3, 3]),
                                        20, 1, np.full(3, 1 / 3))
        assert extra.shape == floored.shape == (0, 3)

    @given(_phase_two_case())
    @example((np.array([[0.1, 0.2, 0.7]]), np.array([3, 3, 3]), 10**16, 1,
              np.full(3, 1 / 3)))
    @example((np.array([[0.0, 0.0], [0.25, 0.75]]), np.array([4, 4]), 12, 5,
              np.array([0.25, 0.75])))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_per_row_reference(self, case):
        _phase_two_rows_equal_reference(*case)


def _perfect_pair():
    def ident(x):
        return x[:, 0]

    from scipy.stats import norm
    return ModelPair(f=ident, f_r=ident, input=standard_normal_input(1),
                     name="ident",
                     closed_form_z_quantile=lambda a: float(norm.ppf(a)))


class TestAcs:
    def test_budget_and_fractions(self):
        pair = toy1d()
        spec = strata_from_cutpoints(pair, [0.0, 0.85, 0.95, 1.0])
        config = AcsConfig(spec=spec, n=200, pilot_per_stratum=20)
        res = acs_quantile(pair, config, 0.95, RngStream(71))
        assert res.final_counts.sum() == 200
        assert res.realized_fractions.sum() == pytest.approx(1.0)
        assert res.beta_tilde.sum() == pytest.approx(1.0)
        assert res.pilot_quantile is not None

    def test_quantile_perfect_control(self):
        pair = _perfect_pair()
        spec = strata_from_cutpoints(pair, [0.0, 0.95, 1.0])
        config = AcsConfig(spec=spec, n=400, pilot_per_stratum=40)
        res = acs_quantile(pair, config, 0.95, RngStream(72))
        # active stratum is the upper tail; estimate must sit at its edge
        assert abs(res.estimate - 1.6449) < 0.15

    def test_uninformative_metamodel_goes_proportional(self):
        def noise_meta(x):
            # deterministic but unrelated to f: hash-like mixing of x
            return np.sin(1000.0 * x[:, 0]) * 1e3

        def full(x):
            return x[:, 0]

        pair = ModelPair(f=full, f_r=noise_meta, input=standard_normal_input(1))
        spec = strata_from_cutpoints(pair, [0.0, 0.5, 1.0], precision="mc",
                                     sample_count=10**5, stream=RngStream(73))
        config = AcsConfig(spec=spec, n=2000, pilot_per_stratum=500)
        res = acs_quantile(pair, config, 0.95, RngStream(74))
        # P_j(y) identical across strata: beta_tilde near widths
        assert np.allclose(res.beta_tilde, spec.widths, atol=0.05)

    def test_determinism(self):
        pair = toy1d()
        spec = strata_from_cutpoints(pair, [0.0, 0.85, 0.95, 1.0])
        config = AcsConfig(spec=spec, n=200, pilot_per_stratum=20)
        a = acs_quantile(pair, config, 0.95, RngStream(75))
        b = acs_quantile(pair, config, 0.95, RngStream(75))
        assert a.estimate == b.estimate
        assert np.array_equal(a.final_counts, b.final_counts)

    def test_beta_converges_to_optimum(self):
        pair = toy1d()
        spec = strata_from_cutpoints(pair, [0.0, 0.85, 0.95, 1.0])
        big, _ = sample_strata(pair, spec, AllocationPlan((10**5,) * 3),
                               RngStream(76))
        big = evaluate_full(pair, big)
        p_ref = conditional_probs(big, spec, 3.66)
        beta_ref = optimal_allocation(p_ref, spec)
        errs = []
        for pilot in (100, 1000, 10000):
            config = AcsConfig(spec=spec, n=3 * pilot + 300,
                               pilot_per_stratum=pilot)
            # Tuned at the pilot 0.95-quantile, which tends to 3.66.
            res = acs_quantile(pair, config, 0.95, RngStream(77, (pilot,)))
            errs.append(np.abs(res.beta_tilde - beta_ref).max())
        assert errs[2] < errs[0]

    def test_raises_the_error_of_its_row(self):
        # A stratum of width 5e-4 and one pilot point per stratum: this
        # stream's pilot misses its quota, as row 0 of acs_rows records.
        pair = identity1d()
        spec = strata_from_cutpoints(pair, [0.0, 0.5, 0.9995, 1.0])
        config = AcsConfig(spec=spec, n=200, pilot_per_stratum=1)
        stream = RngStream(21, (0,))
        (error,) = acs_rows(pair, config, stream.block(), 0.95).errors
        assert isinstance(error, SamplingError)
        with pytest.raises(SamplingError) as e:
            acs_quantile(pair, config, 0.95, stream)
        assert str(e.value) == str(error) == (
            "stratum quotas unmet after 3000 draws; remaining [0, 0, 1]")

    def test_cs_cdf_unbiased(self):
        pair = toy1d()
        spec = strata_from_cutpoints(pair, [0.0, 0.5, 0.9, 0.95, 1.0])
        plan = AllocationPlan((50, 50, 50, 50))
        y0 = 3.66
        reps = 2000
        vals = np.empty(reps)
        for r in range(reps):
            s, _ = sample_strata(pair, spec, plan, RngStream(78, (r,)))
            vals[r], _ = cs_cdf(evaluate_full(pair, s), spec, y0)
        x = pair.input.sample(RngStream(79).generator(), 10**7)
        truth = (pair.eval_full(x) <= y0).mean()
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - truth) < 3 * se + 1e-3


def strong_control_rho(alpha, F, branch):
    """Indicator correlation of 1{Y <= y} and 1{Z <= z_alpha} when the
    metamodel is a monotone map of Y, with F = F(y): the closed form behind
    ``TestTwoStrataFactor.test_matches_simulation``.

    branch "z_below": the metamodel alpha-quantile falls below the image of y;
    branch "z_at_or_above": it falls at or above.
    """
    ratio = (alpha * (1 - F)) / ((1 - alpha) * F)
    return float(np.sqrt(ratio if branch == "z_below" else 1.0 / ratio))


class TestTwoStrataFactor:
    def test_zero_correlation(self):
        K, ratio = two_strata_acs_factor(0.7, 0.4, 0.0)
        assert K == pytest.approx(1.0)
        assert ratio == pytest.approx(1.0)

    def test_small_rho_expansion(self):
        # Exact algebra: at alpha = F the ratio expands as
        # 1 - rho^2 / (4 F (1-F)) + O(rho^3); at alpha = F = 0.5 the exact
        # value is 1 - rho^2.
        _, ratio = two_strata_acs_factor(0.5, 0.5, 0.01)
        assert ratio == pytest.approx(1 - 0.01**2, abs=1e-8)

    def test_expansion_error_bound(self):
        for rho in (0.01, 0.05, 0.1):
            for F in (0.3, 0.5, 0.8):
                _, ratio = two_strata_acs_factor(F, F, rho)
                approx = 1 - rho**2 / (4 * F * (1 - F))
                assert abs(ratio - approx) < 10 * rho**3

    def test_large_rho_feasibility(self):
        # At alpha = F = 0.95 the factor stays valid up to rho_I = sqrt(...)
        K, ratio = two_strata_acs_factor(0.95, 0.95, 0.62)
        assert 0 < ratio < 1
        with pytest.raises(StrataError):
            two_strata_acs_factor(0.95, 0.5, 0.9)

    def test_matches_simulation(self):
        # Strong-control synthetic: Z = Y = U(0,1); choose y with F(y)=F.
        alpha, F = 0.9, 0.8
        rho = strong_control_rho(alpha, F, "z_at_or_above")
        _, ratio = two_strata_acs_factor(alpha, F, rho)
        rng = np.random.default_rng(80)
        n, reps = 400, 4000
        n1 = int(round(alpha * n))  # optimal allocation is proportional here
        vals = np.empty(reps)
        for r in range(reps):
            u1 = rng.uniform(0.0, alpha, n1)        # stratum 1 draws of Y=Z
            u2 = rng.uniform(alpha, 1.0, n - n1)
            p1 = (u1 <= F).mean()
            p2 = (u2 <= F).mean()
            vals[r] = alpha * p1 + (1 - alpha) * p2
        sim_ratio = vals.var(ddof=1) * n / (F * (1 - F))
        assert sim_ratio == pytest.approx(ratio, rel=0.15)


class TestStrongControlRho:
    def test_alpha_equals_f(self):
        assert strong_control_rho(0.3, 0.3, "z_below") == pytest.approx(1.0)
        assert strong_control_rho(0.3, 0.3, "z_at_or_above") == pytest.approx(1.0)

    def test_example_value(self):
        assert strong_control_rho(0.9, 0.95, "z_below") == pytest.approx(
            np.sqrt(0.045 / 0.095), rel=1e-12)

    def test_branch_product(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            a, F = rng.uniform(0.05, 0.95, 2)
            prod = (strong_control_rho(a, F, "z_below")
                    * strong_control_rho(a, F, "z_at_or_above"))
            assert prod == pytest.approx(1.0, rel=1e-9)

    def test_simulated_indicator_correlation(self):
        # Y uniform, Z = Y: indicator correlation matches the closed form.
        rng = np.random.default_rng(82)
        y = rng.uniform(0, 1, 10**6)
        alpha, F = 0.9, 0.95
        iy = (y <= F).astype(float)
        iz = (y <= alpha).astype(float)
        c = np.corrcoef(iy, iz)[0, 1]
        assert c == pytest.approx(
            strong_control_rho(alpha, F, "z_below"), abs=0.01)
