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
best.  ``prep`` is ``qvr.bench._prepare``'s per-experiment state.  A draw
calls f once (acs: once per phase); cs and acs route all their streams'
rejection draws together (``sampling.sample_strata_rows``).
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


def _pooled(prep, counts, y, errors, extras):
    """The draw of a stratified design: ``counts[i]`` (stratum counts) and
    ``extras[i]`` belong to the i-th stream without an error; ``aux`` is
    the weight width_j / N_j of a record."""
    w = estimators.stratum_weights(prep.spec.widths, counts)
    ok = iter(zip(counts.tolist(), extras))
    return y, np.repeat(w.ravel(), counts.ravel()), [
        e if e is not None else next(ok) for e in errors]


def _draw_cs(prep, streams):
    need = np.tile(prep.plan.counts, (len(streams), 1))
    x, _, draws, errors = sampling.sample_strata_rows(prep.pair, prep.spec,
                                                      need, streams)
    ok = [e is None for e in errors]
    y = prep.pair.eval_full(x) if len(x) else np.empty(0)
    return _pooled(prep, need[ok], y, errors,
                   [{"n_r": int(d)} for d, o in zip(draws, ok) if o])


def _draw_acs(prep, streams):
    rows = strata.acs_rows(prep.pair, prep.acs_config, streams, prep.alpha)
    return _pooled(prep, rows.counts, rows.y, rows.errors, [
        {"n_r": int(d), "beta_tilde": b.tolist(),
         "realized_fractions": (c / c.sum()).tolist()}
        for d, b, c in zip(rows.draws, rows.beta_tilde, rows.counts)])


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
        estimators.cv_indicator_weight_rows(aux[ids], prep.alpha)[0]))


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
    "cs": Design(_draw_cs, _invert_weighted, "within_strata"),
    "acs": Design(_draw_acs, _invert_weighted, "within_strata"),
    "cis": Design(_draw_cis, _invert_cis, "weighted"),
}
