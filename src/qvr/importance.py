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

from .estimators import _take_rows, argsort_rows
from .model import InputDistribution, Lognormal, ModelPair, Normal
from .sampling import RngStream

# log(2 pi), the Gaussian density's constant, in numpy as scipy computes it
_LOG_2PI = np.log(2 * np.pi)


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
    """Multivariate normal member, drawn by InputDistribution's ``sample``.
    One ``chol @ buf`` over many streams' columns gives each stream the bits
    of ``lam + Z @ chol.T`` on the host of the gate digests.

    The Cholesky factor (for sampling) and the whitening matrix and log
    normalizer of the density are built once per member, not once per call.
    The density takes ``scipy.stats.multivariate_normal(lam, C).pdf``'s
    operations in order on ``numpy.linalg.eigh(C)``, whose LAPACK driver
    is not scipy's: the two agree to rounding, not bit for bit.
    """

    lam: np.ndarray
    C: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _white: np.ndarray = field(init=False, repr=False, compare=False)
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, u = np.linalg.eigh(self.C)
        if s.min() <= 1e6 * np.finfo(float).eps * np.abs(s).max():
            # scipy's multivariate_normal refuses such a C the same way
            raise np.linalg.LinAlgError("C must be symmetric positive definite")
        object.__setattr__(self, "_chol", np.linalg.cholesky(self.C))
        object.__setattr__(self, "_white", u * np.sqrt(1 / s))
        object.__setattr__(self, "_log_norm",
                           len(s) * _LOG_2PI + np.sum(np.log(s)))

    @property
    def dimension(self) -> int:
        return len(self.lam)

    def density(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        maha = np.sum(np.square((pts - self.lam) @ self._white), axis=-1)
        return np.exp(-0.5 * (self._log_norm + maha))

    def normals(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """``InputDistribution.normals``, but drawn point after point."""
        out[...] = rng.standard_normal(out.shape[::-1]).T

    def transform(self, out: np.ndarray) -> None:
        """Map ``normals``' columns z (d, count) to lam + chol z, in place."""
        out[...] = self._chol @ out
        out += self.lam[:, None]

    sample = InputDistribution.sample


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


def _event_pilot(pair: ModelPair, threshold: float, pilot_count: int,
                 stream: RngStream, tail: str) -> np.ndarray:
    """Pilot points drawn from the input distribution that fall in the
    metamodel event."""
    if pilot_count < 10**3:
        raise ValueError("pilot_count must be at least 1e3")
    x = pair.input.sample(stream.generator(), pilot_count)
    mask = _event_mask(pair.eval_metamodel(x), threshold, tail)
    if not mask.any():
        raise ImportanceError("no pilot point falls in the conditioning event")
    return x[mask]


def moment_match(pair: ModelPair, threshold: float, pilot_count: int,
                 stream: RngStream, tail: str = "lower") -> BiasedParams:
    """Conditional moments of X given the metamodel event.

    Draws the pilot from the input distribution, restricts it to
    {f_r(X) <= threshold} ("lower", default) or {f_r(X) > threshold}
    ("upper"), and returns the mean and covariance of the points in the
    event.  The covariance is regularized by eps*I with
    eps = 1e-8 * trace(C)/d.
    """
    return _matched_moments(
        _event_pilot(pair, threshold, pilot_count, stream, tail))


def _matched_moments(xe: np.ndarray) -> BiasedParams:
    # Equal weights through w @ xe, not xe.mean(axis=0): the fitted members,
    # and so the cis gate digests, keep their bits.
    w = np.full(len(xe), 1.0 / len(xe))
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
                       log_norm: float, sol: np.ndarray, acc: np.ndarray
                       ) -> float:
    """log sum_k exp(base_k - log q(x_k)) over the columns x_k of ``xt``
    (d, N), q the Gaussian member packed in ``t``, ``log_norm`` d/2 log 2pi.
    Forward substitution with the multipliers L_ij (1/L_jj) and the
    reciprocal diagonal, rounded as an unpivoted LU solve rounds them.
    ``sol`` (d, N) and ``acc`` (N,) are work buffers: a fit passes the
    same ones to each evaluation, which then allocates no array of N.  The
    sum over the d rows is the row-by-row ``+=`` that numpy's sum over
    axis 0 is, so the bits are those of the allocating expression."""
    d = len(xt)
    lam, L = _unpack(t, d)
    inv = 1.0 / np.diag(L)
    for i in range(d):
        row = np.subtract(xt[i], lam[i], out=sol[i])
        for j in range(i):
            row -= np.multiply(L[i, j] * inv[j], sol[j], out=acc)
    sol *= inv[:, None]
    np.square(sol, out=sol)
    np.copyto(acc, sol[0])
    for i in range(1, d):
        acc += sol[i]
    acc *= -0.5
    acc -= np.log(np.diag(L)).sum()
    acc -= log_norm
    r = np.subtract(base, acc, out=acc)
    mx = r.max()
    r -= mx
    return mx + math.log(np.exp(r, out=r).sum())


def _nelder_mead(fun, x0: np.ndarray, args=(), maxiter: int = 4000
                 ) -> tuple[np.ndarray, int]:
    """Minimize ``fun(x, *args)`` from ``x0``; return the best vertex and
    the number of evaluations.  A port of scipy.optimize's non-adaptive,
    unbounded ``_minimize_neldermead`` at xatol 1e-6 and fatol 1e-9, step
    for step: its initial simplex (each coordinate x0_k scaled by 1.05, or
    0.00025 where it is 0), its reflection/expansion/contraction/shrink
    coefficients (1, 2, 1/2, 1/2), its ``np.argsort`` reordering and its
    convergence test, so its result bit for bit."""
    N = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([fun(v, *args) for v in sim])
    nfev = N + 1
    for _ in range(2):  # scipy orders the first simplex twice
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    for _ in range(1, maxiter):
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-6
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-9):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = fun(xr, *args)
        nfev += 1
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = fun(xe, *args)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = fun(xc, *args)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = fun(xc, *args)
                shrink = not fxc < fsim[-1]
            nfev += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = fun(sim[j], *args)
                nfev += N
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0], nfev


def variance_optimal_params(pair: ModelPair, threshold: float,
                            pilot_count: int, stream: RngStream,
                            tail: str = "upper") -> BiasedParams:
    """Gaussian member minimizing the tail chi-square variance proxy.

    The asymptotic variance of the reweighted tail estimator is driven by
    E[1_event * q_ori/q]; this minimizes its pilot estimate over all
    Gaussian members (Nelder-Mead on the mean and the log-Cholesky of the
    covariance), starting from the moment-matched member of the same
    pilot, which is drawn once.  ``_nelder_mead`` is a port of
    ``scipy.optimize.minimize(method="Nelder-Mead")`` at maxiter 4000,
    xatol 1e-6 and fatol 1e-9, bit for bit, so the fit does not depend
    on the installed scipy.  The objective uses forward substitution,
    not LAPACK, so the fit does not depend on the BLAS build; should an
    evaluation differ from a LAPACK solve in the last ulp and flip a
    Nelder-Mead comparison, the optimum moves by less than ``xatol``.
    """
    xe = _event_pilot(pair, threshold, pilot_count, stream, tail)
    start = _matched_moments(xe)
    base = np.log(pair.input.density(xe))
    d = xe.shape[1]
    xt = np.ascontiguousarray(xe.T)
    t, _ = _nelder_mead(_log_second_moment, _pack(start.lam, start.C),
                        args=(xt, base, 0.5 * d * math.log(2 * math.pi),
                              np.empty_like(xt), np.empty(len(xe))))
    lam, L = _unpack(t, d)
    return BiasedParams(lam=lam, C=L @ L.T)


# ---------------------------------------------------------------------------
# Reweighted estimators


UNCOVERED_SUPPORT = ("nonpositive likelihood ratio: biased member does not "
                     "cover the support of the original distribution")


@dataclass(frozen=True)
class WeightedSample:
    """Records (y, likelihood ratio w = q_ori/q) from a biased draw."""

    y: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if len(self.y) == 0 or len(self.y) != len(self.w):
            raise ValueError("weighted sample needs matching nonempty y and w")
        if np.any(np.asarray(self.w) <= 0):
            raise ImportanceError(UNCOVERED_SUPPORT)


def draw_weighted_sample(pair: ModelPair, family: BiasedFamily,
                         params: BiasedParams, stream: RngStream,
                         n: int) -> WeightedSample:
    member = family.member(params)
    x = member.sample(stream.generator(), n)
    w = likelihood_ratio(pair, member, x)
    return WeightedSample(y=pair.eval_full(x), w=w)


def likelihood_ratio(pair: ModelPair, member, x) -> np.ndarray:
    """q_ori / q at the points x drawn from the biased member."""
    return pair.input.density(x) / np.asarray(member.density(x), dtype=float)


def is_cdf(weighted: WeightedSample, y: float, mode: str = "raw") -> float:
    """Reweighted estimate of F(y); raw divides by n, self_normalized by
    the weight total."""
    ind = (weighted.y <= y).astype(float)
    if mode == "raw":
        return float(np.sum(ind * weighted.w) / len(weighted.y))
    if mode == "self_normalized":
        return float(np.sum(ind * weighted.w) / np.sum(weighted.w))
    raise ValueError(f"unknown mode {mode!r}")


def is_variance_estimate(weighted: WeightedSample, y: float) -> float:
    """Sample-based variance of the raw reweighted cdf estimate."""
    t = (weighted.y <= y) * weighted.w
    est = t.mean()
    return float((np.mean(t**2) - est**2) / len(weighted.y))


# ---------------------------------------------------------------------------
# Quantile pipeline


@dataclass(frozen=True)
class CisDiagnostics:
    """Convergence evidence for a fitted biased member."""

    mass_in_event: float
    center_in_event: bool


# A fitted member must put at least this share of its mass in the tail event,
# estimated from this many draws of the member.
MASS_FLOOR = 0.10
CHECK_COUNT = 20_000


def fit_biased_member(pair: ModelPair, family: BiasedFamily, z_alpha: float,
                      stream: RngStream, pilot_count: int = 200_000,
                      tail: str = "upper", selection: str = "variance"
                      ) -> tuple[BiasedParams, CisDiagnostics]:
    """Select the biased member for the metamodel tail event beyond
    ``z_alpha``, the alpha-quantile of Z = f_r(X), and vet it.

    Selection "variance" minimizes the tail chi-square proxy (Gaussian
    family only); "moment" uses the conditional moment match directly.  The
    pilot is drawn from ``stream.child(0)``, the ``CHECK_COUNT`` vetting
    draws of the member from ``stream.child(1)``.  The fit fails
    (CisNonConvergence) when the member puts less than ``MASS_FLOOR`` of its
    mass in the tail event, or when its center does not itself lie in the
    event — the signature of a multimodal conditioning region that one
    member of the family cannot cover.
    """
    if selection == "variance" and family.tag == "joint_gaussian":
        params = variance_optimal_params(pair, z_alpha, pilot_count,
                                         stream.child(0), tail)
    elif selection in ("variance", "moment"):
        params = moment_match(pair, z_alpha, pilot_count, stream.child(0),
                              tail)
    else:
        raise ValueError(f"unknown selection {selection!r}")
    member = family.member(params)
    probe = member.sample(stream.child(1).generator(), CHECK_COUNT)
    probe_z = pair.eval_metamodel(probe)
    mass = float(_event_mask(probe_z, z_alpha, tail).mean())
    center_z = float(pair.eval_metamodel(params.lam.reshape(1, -1))[0])
    center_ok = bool(_event_mask(np.array([center_z]), z_alpha, tail)[0])
    diag = CisDiagnostics(mass_in_event=mass, center_in_event=center_ok)
    if mass < MASS_FLOOR or not center_ok:
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
    order = argsort_rows(weighted.y)
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
