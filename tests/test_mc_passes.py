"""The large Monte Carlo passes (mc metamodel quantiles, ground truth, the
correlation report): ``evaluate_sample`` gives the outputs of one drawn
input matrix bit for bit in any run length, the passes give the values of
that matrix, and they hold a bounded share of its memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvr import sampling
from qvr.bench import ground_truth_quantile
from qvr.estimators import (
    _corrcoef_overwrite,
    correlation_report,
    draw_paired_sample,
    empirical_quantile,
    indicator_correlation,
)
from qvr.model import InputDistribution, Lognormal, Normal, toy1d, toy2d
from qvr.sampling import RngStream, evaluate_sample, metamodel_quantiles

MIB = 2**20

INPUTS = {
    "normal1": (Normal(0.0, 1.0),),
    "lognormal1": (Lognormal(0.1, 0.5),),
    "normal2": (Normal(0.0, 1.0), Normal(1.5, 2.0)),
    "lognormal2": (Lognormal(0.0, 0.3), Normal(-1.0, 0.5)),
    "mixed3": (Lognormal(0.2, 0.4), Normal(0.0, 1.0), Lognormal(-0.5, 1.0)),
}


def _signed_square_sum(x):
    return np.abs(x[:, 0]) * x[:, 0] + x[:, -1]


def _oscillating(x):
    t = x[:, 0]
    return t**2 * (1 + 0.5 * np.cos(10 * x[:, -1])) + x.sum(axis=1)


def _first_column(x):
    # A view of the input: its values must survive the output overwrite.
    return x[:, 0]


FNS = {
    "one": (_signed_square_sum,),
    "view": (_first_column,),
    "two": (_oscillating, _signed_square_sum),
    "three": (_first_column, _oscillating, _signed_square_sum),
}


@pytest.mark.parametrize("block", [None, 7, 1000])
@pytest.mark.parametrize("fns", FNS)
@pytest.mark.parametrize("marginals", INPUTS)
def test_evaluate_sample_is_fn_of_sample_input(monkeypatch, block, fns,
                                               marginals):
    if block is not None:
        monkeypatch.setattr(sampling, "BLOCK_POINTS", block)
    b = sampling.BLOCK_POINTS
    dist = InputDistribution(INPUTS[marginals])
    stream = RngStream(11, (len(INPUTS[marginals]), b))
    for count in (b - 2, b, 2 * b + 3):
        x = dist.sample(stream.generator(), count)
        want = np.stack([fn(x) for fn in FNS[fns]])
        got = evaluate_sample(dist, stream, count, *FNS[fns])
        assert got.shape == want.shape
        assert np.array_equal(got, want), (count, b)


@pytest.mark.parametrize("pair", [toy1d(), toy2d()], ids=lambda p: p.name)
def test_mc_quantiles_are_the_order_statistics_of_one_sample(pair):
    cp, N, stream = [0.5, 0.9, 0.95], 10**6, RngStream(31)
    z = np.sort(pair.eval_metamodel(pair.input.sample(stream.generator(),
                                                      N)))
    got = metamodel_quantiles(pair, cp, "mc", N, stream)
    assert np.array_equal(got, [z[math.ceil(a * N) - 1] for a in cp])


@pytest.mark.parametrize("pair", [toy1d(), toy2d()], ids=lambda p: p.name)
def test_correlation_report_is_that_of_the_paired_sample(pair):
    alpha, stream = 0.95, RngStream(33)
    s = draw_paired_sample(pair, stream, 10**5)
    rep = correlation_report(pair, alpha, 10**5, stream)
    assert rep.rho == float(np.corrcoef(s.y, s.z)[0, 1])
    assert rep.rho_indicator == indicator_correlation(
        s, empirical_quantile(s.y, alpha), empirical_quantile(s.z, alpha))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1),
       slope=st.floats(-3, 3), shift=st.floats(-1e3, 1e3))
def test_corrcoef_overwrite_is_numpys(n, seed, slope, shift):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) * 10 + shift
    z = slope * y + rng.standard_normal(n)
    want = np.corrcoef(y, z)[0, 1]
    assert _corrcoef_overwrite(np.stack([y, z])) == want


def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


# Measured before the passes were drawn in runs: 22.9, 53.4 and 61.0 MiB.
# Now about 8.1, 8.5 and 24.8 MiB.
def test_mc_quantile_pass_holds_one_output_column():
    # A cold pass: an empty cache, so the pass runs and is measured.
    sampling._mc_pass.cache_clear()
    assert _peak_mib(lambda: metamodel_quantiles(
        toy2d(), [0.5, 0.95], "mc", 10**6, RngStream(3))) <= 10


def test_ground_truth_pass_holds_one_output_column():
    assert _peak_mib(lambda: ground_truth_quantile(
        toy2d(), 0.95, 10**6, RngStream(3))) <= 10


def test_correlation_report_holds_half_the_paired_sample():
    assert _peak_mib(lambda: correlation_report(
        toy1d(), 0.95, 10**6, RngStream(21))) <= 61.0 / 2
