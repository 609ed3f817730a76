"""Test-local one-sample quantile inversions, written with ``np.sort`` and
``searchsorted`` as qvr's one-sample estimators once were.  qvr now inverts
one sample as one row of its row inversions, so these copies are the
independent references that the engine, the bootstrap and the one-sample
functions are compared against, bit for bit.  ``prepare`` and
``joint_gaussian`` hand the engine's per-experiment state to them."""

import math

import numpy as np

from qvr import importance
from qvr.designs import DESIGNS


def prepare(config):
    """The design's preparation of ``config`` on a pair of its own."""
    return DESIGNS[config.estimator].prepare(config.build_pair(), config)


def joint_gaussian(prep):
    """The family and parameters of a cis preparation's joint-Gaussian
    member, as ``importance.draw_weighted_sample`` takes them."""
    return (importance.BiasedFamily("joint_gaussian"),
            importance.BiasedParams(prep.member.lam, prep.member.C))


def weighted_quantile(y, w, alpha, strict=False):
    """Sort (y, w) stably by y, normalize w by its total in the sample's own
    order, and take the generalized inverse (smallest point whose
    cumulative weight is >= alpha) or, with ``strict``, inf{y : F(y) >
    alpha}; cumulative weights within 16 n eps of alpha count as equal."""
    y, w = np.asarray(y, dtype=float), np.asarray(w, dtype=float)
    order = np.argsort(y, kind="stable")
    cum = np.cumsum(w[order] / w.sum())
    tol = 16 * len(cum) * np.finfo(float).eps
    if strict:
        k = np.searchsorted(cum, alpha + tol, side="right")
    else:
        k = np.searchsorted(cum, alpha - tol, side="left")
    return float(y[order][min(k, len(cum) - 1)])


def stratified_quantile(ylist, widths, alpha, strict=False):
    """``weighted_quantile`` of the outputs of every stratum j, pooled in
    stratum order, each weighing width_j / N_j."""
    ys = [yj for yj in ylist if len(yj)]
    ws = [np.full(len(yj), widths[j] / len(yj))
          for j, yj in enumerate(ylist) if len(yj)]
    return weighted_quantile(np.concatenate(ys), np.concatenate(ws), alpha,
                             strict)


def empirical_quantile(y, alpha):
    """The (floor(alpha n) + 1)-th order statistic, by a full sort."""
    y = np.sort(np.asarray(y, dtype=float))
    return float(y[min(int(math.floor(alpha * y.size)), y.size - 1)])


def tail_quantile(y, w, alpha):
    """The smallest y with (1/n) sum w 1{Y >= y} < 1 - alpha."""
    order = np.argsort(y, kind="stable")
    ys, cw, n = y[order], np.cumsum(w[order]), len(y)
    k = np.searchsorted(1.0 - (cw[-1] - cw) / n, alpha, side="right")
    return float(ys[min(k + 1, n - 1)])


def cv_weights(z, z_alpha, alpha):
    """Hesterberg weights for the control 1{Z <= z_alpha} and the flag of
    the uniform fallback, taken when every Z falls on one side."""
    n = len(z)
    below = np.asarray(z) <= z_alpha
    n0 = int(below.sum())
    if n0 == 0 or n0 == n:
        return np.full(n, 1.0 / n), True
    return np.where(below, alpha / n0, (1 - alpha) / (n - n0)), False
