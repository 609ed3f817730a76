"""Baseline and control-variate cdf/quantile estimators.

Quantile conventions (README "Quantile conventions"):

* weighted cdfs are inverted with the generalized inverse, the smallest
  support point whose cumulative weight is >= alpha; with uniform weights
  this is the ceil(alpha n)-th order statistic
  (``weighted_quantile_sorted_rows``);
* the plain-sample baseline uses the (floor(alpha n) + 1)-th order
  statistic, inf{y : F_n(y) > alpha} (``empirical_quantile_rows``); the
  adaptive pilot step uses the same strict form on its weighted cdf
  (``weighted_quantile_sorted_rows(..., strict=True)``).

The two differ only when alpha*n is an integer.  The ``*_rows`` functions
invert every row of a (replications, n) array at once; the one-sample
functions (``quantile_from_weighted_cdf``, ``empirical_quantile``) are
one-row calls of them, so both give the same bits.  ``cv_weights`` are the
``stratum_weights`` of the strata Z <= z_alpha and Z > z_alpha, as
``stratified_quantile_sorted_rows`` weighs a cv row.  The ``*_sorted_rows``
functions take rows already sorted by output, stably, as ``argsort_rows``
sorts them.  A row sorted another way (the bootstrap sorts
ranks) holds the same values, but points with tied outputs and different
weights may sit in another order; the cumulative weights then differ by
rounding only, which can change a result only when one falls within the
``16 n eps`` inversion tolerance of alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelPair
from .sampling import RngStream, StrataSpec, evaluate_sample


class EstimatorError(Exception):
    pass


@dataclass(frozen=True)
class WeightedCdf:
    """Sorted support points with probability weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray
    uniform_fallback: bool = False

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.ndim != 1 or p.shape != w.shape or len(p) == 0:
            raise ValueError("points and weights must be matching nonempty 1-d arrays")
        if np.any(np.diff(p) < 0):
            raise ValueError("points must be sorted ascending")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12 * max(1.0, len(w)):
            raise ValueError(f"weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "weights", w)

    def evaluate(self, y) -> np.ndarray | float:
        """Right-continuous step cdf at y."""
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.points, np.asarray(y, dtype=float), side="right")
        out = np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)
        return float(out) if np.isscalar(y) else out


def argsort_rows(a: np.ndarray) -> np.ndarray:
    """The stable argsort of each row of ``a`` (1-D or (B, n)).

    numpy's default argsort (SIMD, not stable) orders every row; a row
    whose sorted values then increase strictly has one sorting permutation
    only, the stable one.  The other rows, those with ties, NaN or both
    signed zeros, are sorted again stably.
    """
    rows = np.atleast_2d(a)
    order = np.argsort(rows, axis=1)
    s = _take_rows(rows, order)
    ties = ~(s[:, 1:] > s[:, :-1]).all(axis=1)
    del s  # one (B, n) array fewer while the fallback sorts
    if ties.any():
        order[ties] = np.argsort(rows[ties], axis=1, kind="stable")
    return order.reshape(np.shape(a))


def weighted_cdf(y_values, weights, uniform_fallback=False) -> WeightedCdf:
    """Sort (y, w) pairs by y and normalize into a WeightedCdf."""
    y = np.asarray(y_values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = argsort_rows(y)
    return WeightedCdf(y[order], w[order] / w.sum(), uniform_fallback)


def quantile_from_weighted_cdf(cdf: WeightedCdf, alpha: float) -> float:
    """``weighted_quantile_sorted_rows`` of the one row ``cdf``."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return float(weighted_quantile_sorted_rows(
        cdf.points[None], cdf.weights[None], 1.0, alpha)[0])


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[i, idx[i]]`` for every row i, through one flat index."""
    return a.ravel()[idx + a.shape[1] * np.arange(len(a)).reshape(-1, 1)]


def weighted_quantile_sorted_rows(ys: np.ndarray, ws: np.ndarray,
                                  total: np.ndarray, alpha: float,
                                  strict: bool = False) -> np.ndarray:
    """Generalized inverse of the weighted cdf of every row of (B, n)
    outputs ``ys`` sorted ascending, with their weights ``ws`` in the same
    order: the smallest point whose cumulative weight is >= alpha.  Each row
    is normalized by its weight total ``total`` (shape (B, 1)), which
    ``weighted_cdf`` takes in the sample's own order, not in sorted order.

    With uniform weights this is the ceil(alpha*n)-th order statistic.
    ``strict=True`` switches to inf{y : F(y) > alpha}, which differs only
    when some cumulative weight hits alpha exactly.  Cumulative weights
    within a size-scaled rounding tolerance of alpha count as equal, so
    exact-mass hits (e.g. integer alpha*n) invert the same way regardless
    of accumulation error.
    """
    n = ys.shape[1]
    cum = ws / total
    np.cumsum(cum, axis=1, out=cum)  # in place: a block allocates less
    tol = 16 * n * np.finfo(float).eps
    # searchsorted(cum, alpha + tol, "right") if strict, else (alpha - tol,
    # "left"), on nondecreasing rows.
    k = ((cum <= alpha + tol) if strict else (cum < alpha - tol)).sum(axis=1)
    return _take_rows(ys, np.minimum(k, n - 1)[:, None])[:, 0]


def empirical_quantile(y_values, alpha: float) -> float:
    """``empirical_quantile_rows`` of the one sample ``y_values``."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    y = np.array(y_values, dtype=float)  # a copy, which the partition reorders
    if y.size == 0:
        raise EstimatorError("empirical quantile needs a nonempty sample")
    return float(empirical_quantile_rows(y.reshape(1, -1), alpha)[0])


def empirical_quantile_rows(y: np.ndarray, alpha: float) -> np.ndarray:
    """Plain-sample quantile of every row of a (B, n) array: the
    (floor(alpha*n) + 1)-th order statistic, by one partition of ``y`` in
    place.

    This is inf{y : F_n(y) > alpha}, one order statistic above the
    generalized inverse when alpha*n is an integer; the replication means
    and stds of the baseline estimator are calibrated to this convention.
    """
    n = y.shape[1]
    k = min(int(math.floor(alpha * n)), n - 1)
    y.partition(k, axis=1)
    return y[:, k]


# ---------------------------------------------------------------------------
# Control variates with the indicator control


@dataclass(frozen=True)
class PairedSample:
    """i.i.d. records (x, y, z) under the original input distribution."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if len(self.y) < 1 or len(self.y) != len(self.z):
            raise ValueError("paired sample needs matching nonempty y and z")


def draw_paired_sample(pair: ModelPair, stream: RngStream, n: int) -> PairedSample:
    x = pair.input.sample(stream.generator(), n)
    return PairedSample(x=x, y=pair.eval_full(x), z=pair.eval_metamodel(x))


def cv_weights(z_values, z_alpha: float, alpha: float) -> tuple[np.ndarray, bool]:
    """Hesterberg weights for the control 1{Z <= z_alpha}: the
    ``stratum_weights`` of the strata Z <= z_alpha and Z > z_alpha (NaN
    falls above), of widths alpha and 1 - alpha, and whether every Z falls
    in one stratum, where the weights fall back to uniform."""
    strat = (~(np.asarray(z_values, dtype=float).ravel() <= z_alpha)
             ).astype(np.intp)
    counts = np.bincount(strat, minlength=2)
    if 0 in counts:
        return np.full(len(strat), 1.0 / len(strat)), True
    return stratum_weights(np.diff((0.0, alpha, 1.0)), counts)[strat], False


def cv_cdf(sample: PairedSample, z_alpha: float, alpha: float) -> WeightedCdf:
    """Weighted-average form of the CV cdf estimator with indicator control."""
    w, degenerate = cv_weights(sample.z, z_alpha, alpha)
    return weighted_cdf(sample.y, w, uniform_fallback=degenerate)


def cv_cdf_general(sample: PairedSample, g, g_mean: float, y: float) -> float:
    """CV estimate of F(y) with a general control g(Z) of known mean.

    Uses the least-squares slope of 1{Y <= y} on g(Z).
    """
    gz = np.asarray(g(sample.z), dtype=float)
    gbar = gz.mean()
    dev = gz - gbar
    ss = float(np.sum(dev**2))
    if ss == 0.0:
        raise EstimatorError("control g(Z) has zero variance over the sample")
    ind = (sample.y <= y).astype(float)
    slope = float(np.sum((ind - ind.mean()) * dev)) / ss
    return float(ind.mean() - slope * (gbar - g_mean))


def indicator_correlation(below_y: np.ndarray, below_z: np.ndarray) -> float:
    """Empirical correlation of the boolean columns ``below_y`` (1{Y <= y})
    and ``below_z`` (1{Z <= z_alpha}).

    Population-style normalization (no n-1 correction), clipped to
    [-1, 1] as ``np.corrcoef`` clips, so that rounding never leaves it.
    """
    dy = below_y.astype(float)
    dy -= dy.mean()
    dz = below_z.astype(float)
    dz -= dz.mean()
    denom = np.sqrt(np.sum(dy**2)) * np.sqrt(np.sum(dz**2))
    if denom == 0.0:
        raise EstimatorError("constant indicator column; correlation undefined")
    return float(np.clip(np.sum(dy * dz) / denom, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Post-stratification


def ps_cdf(sample: PairedSample, spec: StrataSpec, y: float) -> float:
    """Post-stratified estimate of F(y) with known stratum probabilities."""
    strat = spec.stratum_of(sample.z)
    widths = spec.widths
    total = 0.0
    for j in range(spec.m):
        mask = strat == j
        if not mask.any():
            raise EstimatorError(f"stratum {j} holds no sample point")
        total += widths[j] * float((sample.y[mask] <= y).mean())
    return total


def stratum_weights(widths: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Weight width_j / N_j of one point of stratum j, for stratum counts
    ``counts`` (shape (..., m)): pooled with these weights, the points'
    weighted cdf is the stratified cdf.  An empty stratum, which has no
    point to weigh, gets width_j."""
    return widths / np.maximum(counts, 1)


def stratified_quantile_sorted_rows(ys: np.ndarray, strat: np.ndarray,
                                    widths: np.ndarray, alpha: float
                                    ) -> tuple[np.ndarray, np.ndarray]:
    """Post-stratified quantile of every row of (B, n) outputs ``ys`` sorted
    ascending, with their stratum labels ``strat`` in the same order, and
    each row's first empty stratum (-1 if none; that row's quantile is
    meaningless).

    Points weigh ``stratum_weights``, and each row is normalized by its
    weight total summed in stratum order, as the one-sample estimator pools
    its points stratum by stratum.  ps and cv (on two strata) invert with it.
    """
    B, n = strat.shape
    m = len(widths)
    at = strat + m * np.arange(B)[:, None]
    counts = np.bincount(at.ravel(), minlength=B * m)
    w = stratum_weights(widths, counts.reshape(B, m)).ravel()
    ws = w[at]
    del at  # one (B, n) array fewer while the inversion allocates its own
    total = np.repeat(w, counts).reshape(B, n).sum(axis=1, keepdims=True)
    empty = counts.reshape(B, m) == 0
    return (weighted_quantile_sorted_rows(ys, ws, total, alpha),
            np.where(empty.any(axis=1), empty.argmax(axis=1), -1))


# ---------------------------------------------------------------------------
# Correlation diagnostics


@dataclass(frozen=True)
class CorrelationReport:
    rho: float
    rho_indicator: float


def correlation_report(pair: ModelPair, alpha: float, sample_count: int,
                       stream: RngStream) -> CorrelationReport:
    """Monte Carlo estimates of corr(Y, Z) and the indicator correlation at
    the alpha-levels of Y and Z, from the (y, z) of ``draw_paired_sample``
    (drawn by ``evaluate_sample``, without x)."""
    if sample_count < 10**4:
        raise ValueError("sample_count must be at least 1e4")
    yz = evaluate_sample(pair.input, stream, sample_count, pair.eval_full,
                         pair.eval_metamodel)
    below = [v <= empirical_quantile(v, alpha) for v in yz]
    rho = _corrcoef_overwrite(yz)
    del yz  # 16 bytes a point fewer while the indicators are centered
    return CorrelationReport(rho=rho,
                             rho_indicator=indicator_correlation(*below))


def _corrcoef_overwrite(yz: np.ndarray) -> float:
    """``np.corrcoef(yz)[0, 1]`` of a (2, n) array, bit for bit, by the
    same steps (numpy's unweighted cov: center the rows, multiply by the
    transpose, scale by 1/(n - 1); then divide by both standard deviations
    and clip), but centering ``yz`` itself instead of a copy."""
    yz -= yz.mean(axis=1)[:, None]
    c = np.dot(yz, yz.T) * np.true_divide(1, yz.shape[1] - 1)
    return float(np.clip(c[0, 1] / np.sqrt(c[0, 0]) / np.sqrt(c[1, 1]), -1, 1))
