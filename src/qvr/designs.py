"""One draw-and-invert unit per estimator, shared by the replication engine
and the bootstrap (``qvr.bench``).

``draw(prep, streams)`` stacks the samples of replication streams, n records
each, into (y, aux, runs): ``aux`` is what the inversion needs of a record
besides y (the cv control indicator, the ps stratum, the cs/acs pooled
weight or the cis likelihood ratio); ``runs`` holds per stream the error
that stopped its draw, or its (bootstrap groups, reported extras).
``invert(prep, y, aux, rows, by_y)`` maps (c, n) record indices, one sample
per row, to c estimates and the {row: error} of rows that defeat the
estimator; ``by_y(rows)`` sorts each row by y, stably, as the caller sorts
best.  ``prep`` is ``qvr.bench._prepare``'s per-experiment state.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import estimators, importance, sampling, strata

# Failures of an estimator on its own sample (the CLI's exit 3).  A
# replication that raises one is recorded and skipped; any other exception,
# a failing model above all, ends the run.
NON_CONVERGENCE_ERRORS = (sampling.SamplingError, estimators.EstimatorError,
                          strata.StrataError, importance.ImportanceError)


class Design(NamedTuple):
    """Draw, inversion and bootstrap resampling scheme of one estimator."""

    draw: Callable
    invert: Callable
    scheme: str


def _draw_input(prep, streams, control=None):
    """n input points per stream and one f call; ``control(prep, z)`` maps
    their metamodel outputs to ``aux``."""
    x = np.concatenate([sampling.sample_input(prep.pair.input, s, prep.n)
                        for s in streams])
    y = prep.pair.eval_full(x)
    aux = None if control is None else control(prep,
                                               prep.pair.eval_metamodel(x))
    return y, aux, [([prep.n], {})] * len(streams)


def _draw_cis(prep, streams):
    member = prep.cis_member
    x = np.concatenate([member.sample(s.child(1).generator(), prep.n)
                        for s in streams])
    w = importance.likelihood_ratio(prep.pair, member, x)
    return prep.pair.eval_full(x), w, [([prep.n], {})] * len(streams)


def _draw_pooled(prep, streams, one, evaluate=False):
    """``one(prep, stream)`` gives a stream's records in stratum order (its
    inputs when ``evaluate``, which then go through f together), stratum
    counts and extras; ``aux`` is the weight width_j / N_j of a record."""
    runs, parts = [], []
    for stream in streams:
        try:
            records, counts, extras = one(prep, stream)
        except NON_CONVERGENCE_ERRORS as e:
            runs.append(e)
            continue
        runs.append((counts, extras))
        parts.append((records, np.repeat(
            estimators.stratum_weights(prep.spec.widths, counts), counts)))
    if not parts:
        return np.empty(0), np.empty(0), runs
    y, w = (np.concatenate(a) for a in zip(*parts))
    return prep.pair.eval_full(y) if evaluate else y, w, runs


def _cs_one(prep, stream):
    sample, n_r = sampling.sample_strata(prep.pair, prep.spec, prep.plan,
                                         stream)
    return np.concatenate(sample.x), list(prep.plan.counts), {"n_r": n_r}


def _acs_one(prep, stream):
    sample, _, beta_tilde, draws, _, _ = strata.acs_sample(
        prep.pair, prep.acs_config, prep.alpha, stream)
    counts = sample.counts
    return np.concatenate(sample.y), counts.tolist(), {
        "n_r": draws, "beta_tilde": beta_tilde.tolist(),
        "realized_fractions": (counts / counts.sum()).tolist()}


def _invert_weighted(prep, y, aux, rows, by_y, weigh=None):
    """Generalized inverse of each row with weights ``weigh(records)`` (by
    default ``aux``), normalized by their total in the row's own order, as
    ``weighted_cdf`` normalizes."""
    weigh = weigh or (lambda ids: aux[ids])
    srt = by_y(rows)
    return estimators.weighted_quantile_sorted_rows(
        y[srt], weigh(srt), weigh(rows).sum(axis=1, keepdims=True),
        prep.alpha), {}


def _invert_tail(prep, y, aux, rows, by_y):
    srt = by_y(rows)
    return importance.tail_quantile_sorted_rows(y[srt], aux[srt],
                                                prep.alpha), {}


def _invert_ee(prep, y, aux, rows, by_y):
    return estimators.empirical_quantile_rows(y[rows], prep.alpha), {}


def _invert_cv(prep, y, aux, rows, by_y):
    return _invert_weighted(prep, y, aux, rows, by_y, lambda ids: (
        estimators.cv_indicator_weight_rows(aux[ids], prep.alpha)))


def _invert_ps(prep, y, aux, rows, by_y):
    srt = by_y(rows)
    values, empty = estimators.ps_quantile_sorted_rows(
        y[srt], aux[srt], prep.spec.widths, prep.alpha)
    return values, {i: estimators.EstimatorError(f"stratum {j} is empty")
                    for i, j in enumerate(empty) if j >= 0}


_CIS_MODES = {"tail": _invert_tail, "self_normalized": _invert_weighted}


def _invert_cis(prep, y, aux, rows, by_y):
    values, _ = _CIS_MODES[prep.cis_mode](prep, y, aux, rows, by_y)
    uncovered = np.flatnonzero((aux[rows] <= 0).any(axis=1))
    return values, {i: importance.ImportanceError(importance.UNCOVERED_SUPPORT)
                    for i in uncovered}


DESIGNS = {
    "ee": Design(_draw_input, _invert_ee, "iid"),
    "cv": Design(partial(_draw_input, control=lambda prep, z: z <= prep.z_alpha),
                 _invert_cv, "iid"),
    "ps": Design(partial(_draw_input,
                         control=lambda prep, z: prep.spec.stratum_of(z)),
                 _invert_ps, "iid"),
    "cs": Design(partial(_draw_pooled, one=_cs_one, evaluate=True),
                 _invert_weighted, "within_strata"),
    "acs": Design(partial(_draw_pooled, one=_acs_one), _invert_weighted,
                  "within_strata"),
    "cis": Design(_draw_cis, _invert_cis, "weighted"),
}
