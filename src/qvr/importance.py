"""Importance sampling with a metamodel-selected biased input density.

The biased member is chosen in a parametric family (joint Gaussian, or
per-component families matching the original marginals) using only cheap
metamodel evaluations: either by moment matching the input distribution
conditioned on a metamodel tail event, or by minimizing the chi-square
divergence proxy that governs the estimator variance over that event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from .estimators import _take_rows, quantile_from_weighted_cdf, weighted_cdf
from .model import InputDistribution, Lognormal, ModelPair, Normal
from .sampling import RngStream, metamodel_quantiles


class ImportanceError(Exception):
    pass


class CisNonConvergence(ImportanceError):
    """Raised when no usable biased member exists for the target tail.

    Carries the diagnostics that triggered the failure; callers surface it
    as a non-convergence condition rather than a numeric answer.
    """

    def __init__(self, message: str, diagnostics: "CisDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class BiasedParams:
    """First-two-moment parameters (lambda, C) of a biased family member."""

    lam: np.ndarray
    C: np.ndarray
    family: str = "joint_gaussian"

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if C.shape != (len(lam), len(lam)):
            raise ValueError("C must be d x d for d-dimensional lambda")
        if not np.allclose(C, C.T, rtol=0, atol=1e-10):
            raise ValueError("C must be symmetric")
        try:
            np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            raise ValueError("C must be positive definite") from None
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "C", C)

    @property
    def dimension(self) -> int:
        return len(self.lam)


@dataclass(frozen=True)
class JointGaussian:
    """Multivariate normal member with density/sample like InputDistribution.

    The Cholesky factor and the frozen scipy distribution (one eigen
    decomposition of C) are built once per member, not once per call.
    """

    lam: np.ndarray
    C: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _dist: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_chol", np.linalg.cholesky(self.C))
        object.__setattr__(self, "_dist",
                           multivariate_normal(mean=self.lam, cov=self.C))

    def density(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        return np.atleast_1d(self._dist.pdf(pts))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        d = len(self.lam)
        if count == 0:
            return np.empty((0, d))
        return self.lam + rng.standard_normal((count, d)) @ self._chol.T


@dataclass(frozen=True)
class BiasedFamily:
    """Family of candidate biased densities.

    tag "joint_gaussian": full multivariate normal in (lambda, C).
    tag "componentwise_matched": each marginal keeps the base distribution's
    family (normal stays normal, lognormal stays lognormal) with its mean and
    variance matched to (lambda_i, C_ii); requires ``base``.
    """

    tag: str
    base: InputDistribution | None = None

    def __post_init__(self):
        if self.tag not in ("joint_gaussian", "componentwise_matched"):
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.tag == "componentwise_matched" and self.base is None:
            raise ValueError("componentwise_matched needs the base distribution")

    def member(self, params: BiasedParams):
        if self.tag == "joint_gaussian":
            return JointGaussian(lam=params.lam, C=params.C)
        comps = []
        for i, c in enumerate(self.base.components):
            m, v = float(params.lam[i]), float(params.C[i, i])
            if isinstance(c, Normal):
                comps.append(Normal(m, math.sqrt(v)))
            elif isinstance(c, Lognormal):
                comps.append(Lognormal(*lognormal_params_from_moments(m, v)))
            else:
                raise ImportanceError(f"unsupported marginal {type(c).__name__}")
        return InputDistribution(tuple(comps))


def lognormal_params_from_moments(mean: float, variance: float) -> tuple[float, float]:
    """Underlying (log-mean, log-stddev) whose lognormal has the given
    mean and variance."""
    if mean <= 0 or variance <= 0:
        raise ImportanceError("lognormal moments must be positive")
    sigma2 = math.log(1.0 + variance / mean**2)
    return math.log(mean) - 0.5 * sigma2, math.sqrt(sigma2)


# ---------------------------------------------------------------------------
# Member selection from a metamodel-only pilot


def _event_mask(z: np.ndarray, threshold: float, tail: str) -> np.ndarray:
    if tail == "lower":
        return z <= threshold
    if tail == "upper":
        return z > threshold
    raise ValueError(f"unknown tail {tail!r}")


def _event_pilot(pair: ModelPair, threshold: float, q0, pilot_count: int,
                 stream: RngStream, tail: str):
    """Pilot points drawn from q0 (default: the original input distribution)
    that fall in the metamodel event, with q_ori and q0 at those points."""
    if pilot_count < 10**3:
        raise ValueError("pilot_count must be at least 1e3")
    if q0 is None:
        q0 = pair.input
    x = q0.sample(stream.generator(), pilot_count)
    mask = _event_mask(pair.eval_metamodel(x), threshold, tail)
    if not mask.any():
        raise ImportanceError("no pilot point falls in the conditioning event")
    xe = x[mask]
    return xe, pair.input.density(xe), np.asarray(q0.density(xe), dtype=float)


def moment_match(pair: ModelPair, threshold: float, q0, pilot_count: int,
                 stream: RngStream, tail: str = "lower") -> BiasedParams:
    """Weighted conditional moments of X given the metamodel event.

    Draws the pilot from q0 (default: the original input distribution),
    restricts to {f_r(X) <= threshold} ("lower", default) or
    {f_r(X) > threshold} ("upper"), and returns the self-normalized
    weighted mean and covariance with weights q_ori/q0.  The covariance is
    regularized by eps*I with eps = 1e-8 * trace(C)/d.
    """
    return _matched_moments(
        *_event_pilot(pair, threshold, q0, pilot_count, stream, tail))


def _matched_moments(xe: np.ndarray, p: np.ndarray,
                     p0: np.ndarray) -> BiasedParams:
    w = p / p0
    w = w / w.sum()
    lam = w @ xe
    dev = xe - lam
    C = (dev * w[:, None]).T @ dev
    d = C.shape[0]
    C = C + np.eye(d) * (1e-8 * np.trace(C) / d)
    try:
        return BiasedParams(lam=lam, C=C)
    except ValueError as e:
        raise ImportanceError(f"degenerate event covariance: {e}") from e


def _pack(lam: np.ndarray, C: np.ndarray) -> np.ndarray:
    L = np.linalg.cholesky(C)
    tril = []
    for i in range(len(lam)):
        for j in range(i + 1):
            tril.append(math.log(L[i, j]) if i == j else L[i, j])
    return np.concatenate([lam, tril])


def _unpack(t: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    lam = t[:d]
    L = np.zeros((d, d))
    idx = d
    for i in range(d):
        for j in range(i + 1):
            L[i, j] = math.exp(t[idx]) if i == j else t[idx]
            idx += 1
    return lam, L


def _log_second_moment(t: np.ndarray, xt: np.ndarray, base: np.ndarray,
                       log_norm: float) -> float:
    """log sum_k exp(base_k - log q(x_k)) over the columns x_k of ``xt``
    (d, N), q the Gaussian member packed in ``t``, ``log_norm`` d/2 log 2pi.
    Forward substitution with the multipliers L_ij (1/L_jj) and the
    reciprocal diagonal, rounded as an unpivoted LU solve rounds them."""
    d = len(xt)
    lam, L = _unpack(t, d)
    inv = 1.0 / np.diag(L)
    sol = np.empty_like(xt)
    for i in range(d):
        row = np.subtract(xt[i], lam[i], out=sol[i])
        for j in range(i):
            row -= (L[i, j] * inv[j]) * sol[j]
    sol *= inv[:, None]
    log_q = (-0.5 * (sol**2).sum(axis=0)
             - np.log(np.diag(L)).sum() - log_norm)
    r = base - log_q
    mx = r.max()
    return mx + math.log(np.exp(r - mx).sum())


def variance_optimal_params(pair: ModelPair, threshold: float, q0,
                            pilot_count: int, stream: RngStream,
                            tail: str = "upper") -> BiasedParams:
    """Gaussian member minimizing the tail chi-square variance proxy.

    The asymptotic variance of the reweighted tail estimator is driven by
    E[1_event * q_ori/q]; this minimizes its pilot estimate over all
    Gaussian members (Nelder-Mead on the mean and the log-Cholesky of the
    covariance), starting from the moment-matched member of the same
    pilot, which is drawn once.  The objective uses forward substitution,
    not LAPACK, so the fit does not depend on the BLAS build; should an
    evaluation differ from a LAPACK solve in the last ulp and flip a
    Nelder-Mead comparison, the optimum moves by less than ``xatol``.
    """
    xe, p, p0 = _event_pilot(pair, threshold, q0, pilot_count, stream, tail)
    start = _matched_moments(xe, p, p0)
    log_p = np.log(p)
    base = (log_p - np.log(p0)) + log_p
    d = xe.shape[1]
    res = minimize(_log_second_moment, _pack(start.lam, start.C),
                   args=(np.ascontiguousarray(xe.T), base,
                         0.5 * d * math.log(2 * math.pi)),
                   method="Nelder-Mead",
                   options=dict(maxiter=4000, xatol=1e-6, fatol=1e-9))
    lam, L = _unpack(res.x, d)
    return BiasedParams(lam=lam, C=L @ L.T)


# ---------------------------------------------------------------------------
# Reweighted estimators


UNCOVERED_SUPPORT = ("nonpositive likelihood ratio: biased member does not "
                     "cover the support of the original distribution")


@dataclass(frozen=True)
class WeightedSample:
    """Records (x, y, likelihood ratio w = q_ori/q) from a biased draw."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    params: BiasedParams | None = None

    def __post_init__(self):
        if len(self.y) == 0 or len(self.y) != len(self.w):
            raise ValueError("weighted sample needs matching nonempty y and w")
        if np.any(np.asarray(self.w) <= 0):
            raise ImportanceError(UNCOVERED_SUPPORT)

    @property
    def n(self) -> int:
        return len(self.y)


def draw_weighted_sample(pair: ModelPair, family: BiasedFamily,
                         params: BiasedParams, stream: RngStream,
                         n: int) -> WeightedSample:
    member = family.member(params)
    x = member.sample(stream.generator(), n)
    w = likelihood_ratio(pair, member, x)
    return WeightedSample(x=x, y=pair.eval_full(x), w=w, params=params)


def likelihood_ratio(pair: ModelPair, member, x) -> np.ndarray:
    """q_ori / q at the points x drawn from the biased member."""
    return pair.input.density(x) / np.asarray(member.density(x), dtype=float)


def is_cdf(weighted: WeightedSample, y: float, mode: str = "raw") -> float:
    """Reweighted estimate of F(y); raw divides by n, self_normalized by
    the weight total."""
    ind = (weighted.y <= y).astype(float)
    if mode == "raw":
        return float(np.sum(ind * weighted.w) / weighted.n)
    if mode == "self_normalized":
        return float(np.sum(ind * weighted.w) / np.sum(weighted.w))
    raise ValueError(f"unknown mode {mode!r}")


def is_variance_estimate(weighted: WeightedSample, y: float) -> float:
    """Sample-based variance of the raw reweighted cdf estimate."""
    t = (weighted.y <= y) * weighted.w
    est = t.mean()
    return float((np.mean(t**2) - est**2) / weighted.n)


# ---------------------------------------------------------------------------
# Quantile pipeline


@dataclass(frozen=True)
class CisDiagnostics:
    """Convergence evidence for a fitted biased member."""

    mass_in_event: float
    center_in_event: bool
    z_threshold: float
    pilot_event_count: int
    converged: bool


@dataclass(frozen=True)
class CisResult:
    estimate: float
    params: BiasedParams
    diagnostics: CisDiagnostics
    sample: WeightedSample


def fit_biased_member(pair: ModelPair, family: BiasedFamily, alpha: float,
                      stream: RngStream, z_alpha: float | None = None,
                      pilot_count: int = 200_000, q0=None,
                      tail: str = "upper", selection: str = "variance",
                      mass_floor: float = 0.10,
                      check_count: int = 20_000
                      ) -> tuple[BiasedParams, CisDiagnostics]:
    """Select the biased member for the alpha-quantile and vet it.

    Selection "variance" minimizes the tail chi-square proxy (Gaussian
    family only); "moment" uses the conditional moment match directly.
    The fit fails (CisNonConvergence) when the member puts less than
    ``mass_floor`` of its mass in the tail event, or when its center does
    not itself lie in the event — the signature of a multimodal
    conditioning region that one member of the family cannot cover.
    """
    if z_alpha is None:
        if pair.closed_form_z_quantile is not None:
            z_alpha = float(pair.closed_form_z_quantile(alpha))
        else:
            z_alpha = float(metamodel_quantiles(
                pair, [alpha], precision="mc", sample_count=10**6,
                stream=stream.child(10))[0])
    if selection == "variance" and family.tag == "joint_gaussian":
        params = variance_optimal_params(pair, z_alpha, q0, pilot_count,
                                         stream.child(0), tail)
    elif selection in ("variance", "moment"):
        params = moment_match(pair, z_alpha, q0, pilot_count,
                              stream.child(0), tail)
    else:
        raise ValueError(f"unknown selection {selection!r}")
    member = family.member(params)
    probe = member.sample(stream.child(1).generator(), check_count)
    probe_z = pair.eval_metamodel(probe)
    mass = float(_event_mask(probe_z, z_alpha, tail).mean())
    center_z = float(pair.eval_metamodel(params.lam.reshape(1, -1))[0])
    center_ok = bool(_event_mask(np.array([center_z]), z_alpha, tail)[0])
    pilot_events = int(round(mass * check_count))
    converged = mass >= mass_floor and center_ok
    diag = CisDiagnostics(mass_in_event=mass, center_in_event=center_ok,
                          z_threshold=z_alpha, pilot_event_count=pilot_events,
                          converged=converged)
    if not converged:
        raise CisNonConvergence(
            "no biased member concentrates on the tail event "
            f"(mass {mass:.3f}, center_in_event={center_ok}); "
            "the conditioned input distribution is likely multimodal",
            diag,
        )
    return params, diag


def tail_quantile(weighted: WeightedSample, alpha: float) -> float:
    """``tail_quantile_sorted_rows`` of the one sample ``weighted``, sorted
    by output, stably."""
    order = np.argsort(weighted.y, kind="stable")
    return float(tail_quantile_sorted_rows(
        weighted.y[order][None], weighted.w[order][None], alpha)[0])


def tail_quantile_sorted_rows(ys: np.ndarray, ws: np.ndarray,
                              alpha: float) -> np.ndarray:
    """Invert the tail-mass form of the reweighted cdf of every row of
    (B, n) outputs ``ys`` sorted ascending, with their likelihood ratios
    ``ws`` in the same order.

    Returns the smallest sample value y with (1/n) sum w 1{Y >= y} < 1-alpha,
    i.e. the first point whose inclusive upper-tail weight has dropped below
    the target tail mass.
    """
    n = ys.shape[1]
    cw = np.cumsum(ws, axis=1)
    cdf_vals = 1.0 - (cw[:, -1:] - cw) / n
    # searchsorted(cdf_vals, alpha, "right") on nondecreasing rows.
    k = (cdf_vals <= alpha).sum(axis=1)
    return _take_rows(ys, np.minimum(k + 1, n - 1)[:, None])[:, 0]


def cis_quantile(pair: ModelPair, family: BiasedFamily, alpha: float,
                 n: int, stream: RngStream, params: BiasedParams,
                 diagnostics: CisDiagnostics | None = None,
                 mode: str = "tail") -> CisResult:
    """Quantile estimate from a biased draw of n full-model evaluations.

    ``params`` is the biased member, fitted from a metamodel-only pilot
    (see fit_biased_member); one member can be shared across replications
    since fitting never calls the full model.  ``mode`` "tail" inverts the
    tail-mass cdf; "self_normalized" inverts the weight-normalized cdf.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if mode not in ("tail", "self_normalized"):
        raise ValueError(f"unknown mode {mode!r}")
    if diagnostics is None:
        diagnostics = CisDiagnostics(mass_in_event=float("nan"),
                                     center_in_event=True,
                                     z_threshold=float("nan"),
                                     pilot_event_count=-1, converged=True)
    weighted = draw_weighted_sample(pair, family, params, stream.child(1), n)
    if mode == "tail":
        estimate = tail_quantile(weighted, alpha)
    else:
        estimate = quantile_from_weighted_cdf(
            weighted_cdf(weighted.y, weighted.w), alpha)
    return CisResult(estimate=estimate, params=params,
                     diagnostics=diagnostics, sample=weighted)
