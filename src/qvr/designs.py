"""One unit per estimator, shared by the replication engine and the
bootstrap (``qvr.bench``): its params, preparation, draw and inversion.

``prepare(pair, config)`` computes, once per experiment, what the design's
draw and inversion read of a config (a ``Prepared`` or one of its kin).
``draw(prep, block)`` stacks the samples of a ``sampling.StreamBlock`` (the
streams of some replications, or one stream, keyed together), n records per
stream, into (y, aux, sizes, errors, extras): ``aux`` is what the inversion
needs of a record besides y (for cv and ps the stratum of its metamodel
output, as cv is ps on two strata split at z_alpha; the cs/acs pooled
weight or the cis likelihood ratio); ``errors`` maps the position of each
stream whose draw failed to its error; ``sizes`` (one row per drawn stream)
holds the sizes of the groups the bootstrap resamples within, and
``extras`` maps each reported name to an array with one entry per drawn
stream (cs: ``n_r``; acs: ``n_r``, ``beta_tilde`` and
``realized_fractions``).
``invert(prep, y, aux, rows, by_y)`` maps (c, n) record indices, one sample
per row, to c estimates and the {row: error} of rows that defeat the
estimator; ``by_y(rows)`` sorts each row by y, stably, as the caller sorts
best (the engine: ``estimators.argsort_rows``, a SIMD argsort that is
stable on rows without ties and falls back to a stable sort on the others;
the bootstrap: a sort of the records' ranks).  A draw calls f once (acs:
once per phase).  ee, cv, ps and cis fill one (d, R n) buffer with their
streams' points (``_points``: ``normals`` per stream, then one
``transform``); cs and acs route all their streams' rejection draws
together (``sampling.sample_strata_rows``).  ee, cv and ps draw the same
points, so ``draw_inputs`` draws once for several of them on one pair.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, NamedTuple

import numpy as np

from . import estimators, importance, sampling, strata
from .model import ModelPair
from .sampling import AllocationPlan, RngStream, StrataSpec

# Failures of an estimator on its own sample (the CLI's exit 3).  A
# replication that raises one is recorded and skipped; any other exception,
# a failing model above all, ends the run.
NON_CONVERGENCE_ERRORS = (sampling.SamplingError, estimators.EstimatorError,
                          strata.StrataError, importance.ImportanceError)


class ConfigError(Exception):
    """A config that cannot run (the CLI's exit 2)."""


# What every replication reads: the pair, alpha, n and the design's own state.
Prepared = namedtuple("Prepared", "pair alpha n")  # ee
Stratified = namedtuple("Stratified", "pair alpha n spec")  # cv and ps
Allocated = namedtuple("Allocated", "pair alpha n spec plan")  # cs
Adaptive = namedtuple("Adaptive", "pair alpha n spec acs_config")  # acs
Biased = namedtuple("Biased", "pair alpha n member mode")  # cis


def spec_for(pair: ModelPair, config) -> StrataSpec:
    """The strata of ``config``'s cutpoints (default 0, .5, .9, .95, 1);
    a model without a closed form draws them from (seed, 2**32)."""
    cutpoints = config.params.get("cutpoints", [0.0, 0.5, 0.9, 0.95, 1.0])
    return sampling.strata_from_cutpoints(
        pair, cutpoints, RngStream(config.seed, (2**32,)))


def z_alpha_for(pair: ModelPair, config) -> float:
    """The metamodel alpha-quantile of ``config``; a model without a closed
    form draws it from (seed, 2**32, 1)."""
    return float(sampling.metamodel_quantiles(
        pair, [config.alpha], RngStream(config.seed, (2**32, 1)))[0])


def cs_plan(spec: StrataSpec, config) -> AllocationPlan:
    """The configured ``allocation``, by default the stratum widths times n
    rounded by largest remainder, with at least one point per stratum (each
    taken from the largest count, the first on ties): one positive count
    per stratum, summing to n."""
    alloc = config.params.get("allocation")
    if alloc is None:
        if config.n < spec.m:
            raise ConfigError(f"n = {config.n} cannot give each of the "
                              f"{spec.m} strata a point")
        alloc = strata.largest_remainder(spec.widths * config.n)
        for j in np.flatnonzero(alloc == 0):
            alloc[np.argmax(alloc)] -= 1
            alloc[j] = 1
    if len(alloc) != spec.m:
        raise ConfigError(f"allocation needs one count per stratum ({spec.m})")
    if sum(alloc) != config.n:
        raise ConfigError("allocation must sum to n")
    counts = tuple(int(a) for a in alloc)
    if 0 in counts:  # as cs_quantile refuses it
        raise ConfigError(f"stratum {counts.index(0)} has positive weight "
                          "but no points")
    return AllocationPlan(counts)


def _prepare_ee(pair, config):
    return Prepared(pair, config.alpha, config.n)


def _prepare_cv(pair, config):
    # the strata of the control 1{Z <= z_alpha}
    z_alpha = z_alpha_for(pair, config)
    return Stratified(pair, config.alpha, config.n, StrataSpec(
        (0.0, config.alpha, 1.0), (-np.inf, z_alpha, np.inf)))


def _prepare_ps(pair, config):
    return Stratified(pair, config.alpha, config.n, spec_for(pair, config))


def _prepare_cs(pair, config):
    spec = spec_for(pair, config)
    return Allocated(pair, config.alpha, config.n, spec,
                     cs_plan(spec, config))


def _given(config, *keys) -> dict:
    """The params of ``keys`` that ``config`` sets; the library call they
    feed holds the default of each other one."""
    return {k: config.params[k] for k in keys if k in config.params}


def _prepare_acs(pair, config):
    spec = spec_for(pair, config)
    return Adaptive(pair, config.alpha, config.n, spec, strata.AcsConfig(
        spec=spec, n=config.n,
        **_given(config, "pilot_per_stratum", "min_per_stratum")))


def _prepare_cis(pair, config):
    get = config.params.get
    family = importance.BiasedFamily(get("family", "joint_gaussian"),
                                     pair.input)
    params, _ = importance.fit_biased_member(
        pair, family, z_alpha_for(pair, config),
        RngStream(config.seed, (2**32, 2)),
        **_given(config, "pilot_count", "tail", "selection"))
    return Biased(pair, config.alpha, config.n, family.member(params),
                  get("mode", "tail"))


def _points(dist, n, block):
    """n points of ``dist`` per stream of ``block``, (R n, d): the streams'
    ``normals`` fill one (d, R n) buffer, ``transform`` maps it at once."""
    buf = np.empty((dist.dimension, len(block) * n))
    for g, a in zip(sampling.each_generator(block), range(0, buf.shape[1], n)):
        dist.normals(g, buf[:, a:a + n])
    dist.transform(buf)
    return buf.T


def draw_inputs(preps, block) -> list:
    """The draws of ``preps`` (ee, cv or ps, all on one pair and n) on
    ``block``, one per prep: n input points per stream, one f call and, if
    a prep has strata (cv, ps), one f_r call.  With strata, aux is each
    point's stratum of the prep's own spec, in the narrowest integer
    type."""
    pair, n = preps[0].pair, preps[0].n
    x = _points(pair.input, n, block)
    y = pair.eval_full(x)
    stratified = [isinstance(p, Stratified) for p in preps]
    z = pair.eval_metamodel(x) if any(stratified) else None
    sizes = np.full((len(block), 1), n)
    return [(y, p.spec.stratum_of(z) if s else None, sizes, {}, {})
            for p, s in zip(preps, stratified)]


def _draw_input(prep, block):
    return draw_inputs([prep], block)[0]


def _draw_cis(prep, block):
    x = _points(prep.member, prep.n, block.child(1))
    w = importance.likelihood_ratio(prep.pair, prep.member, x)
    return (prep.pair.eval_full(x), w, np.full((len(block), 1), prep.n),
            {}, {})


def _pooled(prep, y, counts, errors, extras):
    """The draw of a stratified design from its per-stream ``errors`` (None
    or the error): ``counts`` (stratum counts) and ``extras`` cover the
    streams without one; ``aux`` is the weight width_j / N_j of a record."""
    w = estimators.stratum_weights(prep.spec.widths, counts)
    return y, np.repeat(w.ravel(), counts.ravel()), counts, {
        i: e for i, e in enumerate(errors) if e is not None}, extras


def _draw_cs(prep, block):
    need = np.tile(prep.plan.counts, (len(block), 1))
    x, _, draws, errors = sampling.sample_strata_rows(prep.pair, prep.spec,
                                                      need, block)
    ok = np.array([e is None for e in errors], dtype=bool)
    y = prep.pair.eval_full(x) if len(x) else np.empty(0)
    return _pooled(prep, y, need[ok], errors, {"n_r": draws[ok]})


def _draw_acs(prep, block):
    rows = strata.acs_rows(prep.pair, prep.acs_config, block, prep.alpha)
    return _pooled(prep, rows.y, rows.counts, rows.errors, {
        "n_r": rows.draws, "beta_tilde": rows.beta_tilde,
        "realized_fractions": rows.counts / rows.counts.sum(
            axis=1, keepdims=True)})


def _invert_weighted(prep, y, aux, rows, by_y):
    """Generalized inverse of each row with weights ``aux``, normalized by
    their total in the row's own order, as ``weighted_cdf`` normalizes."""
    srt = by_y(rows)
    return estimators.weighted_quantile_sorted_rows(
        y[srt], aux[srt], aux[rows].sum(axis=1, keepdims=True),
        prep.alpha), {}


def _invert_tail(prep, y, aux, rows, by_y):
    srt = by_y(rows)
    return importance.tail_quantile_sorted_rows(y[srt], aux[srt],
                                                prep.alpha), {}


def _invert_ee(prep, y, aux, rows, by_y):
    return estimators.empirical_quantile_rows(y[rows], prep.alpha), {}


def _invert_ps(prep, y, aux, rows, by_y):
    srt = by_y(rows)
    values, empty = estimators.stratified_quantile_sorted_rows(
        y[srt], aux[srt], prep.spec.widths, prep.alpha)
    return values, {i: estimators.EstimatorError(f"stratum {j} is empty")
                    for i, j in enumerate(empty) if j >= 0}


def _invert_cv(prep, y, aux, rows, by_y):
    """``_invert_ps``, but a row with an empty stratum (every Z on one side
    of z_alpha) is inverted as one stratum, with uniform weights."""
    values, fails = _invert_ps(prep, y, aux, rows, by_y)
    if fails:
        srt = by_y(rows[list(fails)])
        values[list(fails)] = estimators.stratified_quantile_sorted_rows(
            y[srt], np.zeros_like(srt), np.ones(1), prep.alpha)[0]
    return values, {}


_CIS_MODES = {"tail": _invert_tail, "self_normalized": _invert_weighted}


def _invert_cis(prep, y, aux, rows, by_y):
    values, _ = _CIS_MODES[prep.mode](prep, y, aux, rows, by_y)
    uncovered = np.flatnonzero((aux[rows] <= 0).any(axis=1))
    return values, {i: importance.ImportanceError(importance.UNCOVERED_SUPPORT)
                    for i in uncovered}


class Design(NamedTuple):
    """One estimator's params, preparation, draw, inversion and scheme."""

    params: tuple[str, ...]
    prepare: Callable
    draw: Callable
    invert: Callable
    scheme: str


DESIGNS = {
    "ee": Design((), _prepare_ee, _draw_input, _invert_ee, "iid"),
    "cv": Design((), _prepare_cv, _draw_input, _invert_cv, "iid"),
    "ps": Design(("cutpoints",), _prepare_ps, _draw_input, _invert_ps, "iid"),
    "cs": Design(("cutpoints", "allocation"), _prepare_cs, _draw_cs,
                 _invert_weighted, "within_strata"),
    "acs": Design(("cutpoints", "pilot_per_stratum", "min_per_stratum"),
                  _prepare_acs, _draw_acs, _invert_weighted, "within_strata"),
    "cis": Design(("family", "pilot_count", "tail", "selection", "mode"),
                  _prepare_cis, _draw_cis, _invert_cis, "weighted"),
}
