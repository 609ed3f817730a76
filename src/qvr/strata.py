"""Controlled stratification: fixed allocation, optimal allocation, and the
two-phase adaptive pipelines for cdf and quantile estimation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import (argsort_rows, quantile_from_weighted_cdf,
                         stratum_weights, weighted_cdf,
                         weighted_quantile_sorted_rows)
from .model import ModelPair
from .sampling import (
    AllocationPlan,
    RngStream,
    StrataSpec,
    StratifiedSample,
    StreamBlock,
    _positions,
    sample_strata_rows,
)


class StrataError(Exception):
    pass


@dataclass(frozen=True)
class ConditionalProbs:
    """Per-stratum estimates of P_j(y) = P(Y <= y | Z in stratum j)."""

    p_hat: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_hat, dtype=float)
        c = np.asarray(self.counts, dtype=int)
        if p.shape != c.shape or p.ndim != 1:
            raise ValueError("p_hat and counts must be matching 1-d arrays")
        if np.any((p < 0) | (p > 1)):
            raise ValueError("conditional probabilities must lie in [0, 1]")
        object.__setattr__(self, "p_hat", p)
        object.__setattr__(self, "counts", c)


def _require_filled(sample: StratifiedSample, spec: StrataSpec):
    if sample.m != spec.m:
        raise StrataError("sample stratum count does not match spec")
    for j, yj in enumerate(sample.y):
        if yj is None:
            raise StrataError(f"stratum {j} has no full-model outputs")
        if len(yj) == 0 and spec.widths[j] > 0:
            raise StrataError(f"stratum {j} has positive weight but no points")


def conditional_probs(sample: StratifiedSample, spec: StrataSpec,
                      y: float) -> ConditionalProbs:
    _require_filled(sample, spec)
    p = np.array([float((yj <= y).mean()) if len(yj) else 0.0 for yj in sample.y])
    return ConditionalProbs(p_hat=p, counts=sample.counts)


def cs_cdf(sample: StratifiedSample, spec: StrataSpec,
           y: float) -> tuple[float, ConditionalProbs]:
    """Stratified estimate of F(y): sum of width_j * P_hat_j(y)."""
    p = conditional_probs(sample, spec, y)
    return float(np.sum(spec.widths * p.p_hat)), p


def cs_quantile(sample: StratifiedSample, spec: StrataSpec,
                alpha: float) -> float:
    """Quantile of the stratified cdf, inverted on the pooled sorted outputs.

    Each output in stratum j carries weight width_j / N_j, so the pooled
    weighted cdf equals the stratified cdf at every support point.
    """
    _require_filled(sample, spec)
    counts = np.array([len(yj) for yj in sample.y])
    cdf = weighted_cdf(np.concatenate(sample.y),
                       np.repeat(stratum_weights(spec.widths, counts), counts))
    return quantile_from_weighted_cdf(cdf, alpha)


def cs_variance(p: ConditionalProbs, spec: StrataSpec, plan: AllocationPlan) -> float:
    """Variance of the stratified cdf estimate at fixed allocation."""
    counts = np.asarray(plan.counts, dtype=float)
    widths = spec.widths
    active = widths > 0
    if np.any(active & (counts == 0)):
        raise StrataError("positive-weight stratum with zero allocation")
    q = widths**2 * (p.p_hat - p.p_hat**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, q / counts, 0.0)
    return float(terms.sum())


def optimal_allocation_rows(p_hat: np.ndarray, widths: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Allocation fractions minimizing the stratified variance for every row
    of conditional probabilities ``p_hat`` (shape (..., m)): beta*_j is
    proportional to width_j * sqrt(P_j (1 - P_j)).  A row in which no
    indicator varies gets ``widths`` instead and its fallback flag set."""
    root_q = widths * np.sqrt(p_hat - p_hat**2)
    total = root_q.sum(axis=-1, keepdims=True)
    fallback = total == 0.0
    beta = np.where(fallback, widths, root_q / np.where(fallback, 1.0, total))
    return beta, fallback[..., 0]


def optimal_allocation(p: ConditionalProbs, spec: StrataSpec) -> np.ndarray:
    """``optimal_allocation_rows`` of one sample, which has no fallback."""
    beta, fallback = optimal_allocation_rows(p.p_hat, spec.widths)
    if fallback:
        raise StrataError("all strata have zero indicator variance; "
                          "no allocation defined")
    return beta


def ocs_variance(p: ConditionalProbs, spec: StrataSpec) -> float:
    """n-times the variance of the optimally allocated stratified estimate."""
    return float(np.sum(spec.widths * np.sqrt(p.p_hat - p.p_hat**2)) ** 2)


def ps_form_variance(p: ConditionalProbs, spec: StrataSpec) -> float:
    """n-times the variance under proportional allocation."""
    return float(np.sum(spec.widths * (p.p_hat - p.p_hat**2)))


# ---------------------------------------------------------------------------
# Adaptive two-phase pipelines


@dataclass(frozen=True)
class AcsConfig:
    """Two-phase adaptive stratification setup.

    ``pilot_per_stratum`` defaults to n/10 points in every stratum.
    """

    spec: StrataSpec
    n: int
    pilot_per_stratum: int | None = None
    min_per_stratum: int = 1

    def __post_init__(self):
        if self.n < 2 * self.spec.m:
            raise ValueError("budget too small for a pilot phase")
        if self.min_per_stratum < 1:
            raise ValueError("min_per_stratum must be >= 1")

    def pilot_counts(self) -> np.ndarray:
        m = self.spec.m
        if self.pilot_per_stratum is not None:
            counts = np.full(m, int(self.pilot_per_stratum))
        else:
            counts = np.full(m, max(self.n // 10, 1))
        counts = np.maximum(counts, self.min_per_stratum)
        if counts.sum() >= self.n:
            raise ValueError("pilot consumes the entire budget")
        return counts


@dataclass
class AcsResult:
    """Outcome of an adaptive run: estimate, allocations and diagnostics."""

    estimate: float
    beta_tilde: np.ndarray
    final_counts: np.ndarray
    realized_fractions: np.ndarray
    pilot_quantile: float
    draw_count: int
    proportional_fallback: bool
    floored_strata: tuple[int, ...]


def largest_remainder(targets: np.ndarray) -> np.ndarray:
    """Round each row (last axis) of nonnegative reals to integers that sum
    to the row's sum rounded half to even: the floors, plus one for the
    largest remainders of the row that it needs, the first on ties."""
    t = np.asarray(targets, dtype=float)
    if np.any(t < 0):
        raise ValueError("targets must be nonnegative")
    floors = np.floor(t).astype(int)
    short = (np.rint(t.sum(axis=-1, keepdims=True)).astype(int)
             - floors.sum(axis=-1, keepdims=True))
    rank = np.argsort(np.argsort(floors - t, axis=-1, kind="stable"), axis=-1)
    return floors + (rank < short)


def phase_two_rows(beta_tilde: np.ndarray, pilot: np.ndarray, n: int,
                   min_per_stratum: int, widths: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Phase-two counts (R, m) of the allocations ``beta_tilde`` (R, m),
    toward targets beta_tilde * n, and the (R, m) flags of floored strata.

    Pilot points are kept, so a stratum whose pilot already exceeds its
    target contributes no phase-two points; its surplus is redistributed to
    the other strata proportionally to their deficits (to ``widths`` in a
    row without one).  Positive-width strata are floored at min_per_stratum
    total points.  A row's rounding gap goes to its largest count, the
    first on ties.  The pilot must leave a budget (``AcsConfig``)."""
    targets = largest_remainder(beta_tilde * n)
    floored = (widths > 0) & (targets < min_per_stratum)
    targets[floored] = min_per_stratum
    budget = n - int(pilot.sum())
    deficits = np.maximum(targets - pilot, 0).astype(float)
    total = deficits.sum(axis=1, keepdims=True)
    extra = largest_remainder(np.where(
        total > 0, budget * deficits / np.maximum(total, 1.0),
        budget * widths / widths.sum()))
    extra[np.arange(len(extra)), extra.argmax(axis=1)] += (
        budget - extra.sum(axis=1))
    return extra, floored


class AcsRows(NamedTuple):
    """``errors`` holds each stream's ``SamplingError`` or None; the other
    fields cover the rows without one: ``y`` their outputs row after row
    (each in stratum order, a stratum's pilot records first), the others one
    entry per row (``floored``: a row of ``phase_two_rows``' flags)."""

    y: np.ndarray
    counts: np.ndarray
    y_tilde: np.ndarray
    beta_tilde: np.ndarray
    draws: np.ndarray
    fallback: np.ndarray
    floored: np.ndarray
    errors: list


def acs_rows(pair: ModelPair, config: AcsConfig, block: StreamBlock,
             alpha: float) -> AcsRows:
    """Two-phase adaptive stratified samples, one row per stream of
    ``block``: a pilot on ``stream.child(0)``; the optimal allocation at
    the pilot's conditional probabilities at the strict inverse of the
    pilot's alpha-quantile (proportional when no indicator varies); phase
    two on ``stream.child(1)``, which keeps the pilot points.  Each phase
    draws its rows with one ``sample_strata_rows`` call and one f call."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    spec, widths, n = config.spec, config.spec.widths, config.n
    pilot = config.pilot_counts()
    P = int(pilot.sum())
    x1, _, d1, errors = sample_strata_rows(
        pair, spec, np.tile(pilot, (len(block), 1)), block.child(0))
    ok = [r for r, e in enumerate(errors) if e is None]
    y1 = (pair.eval_full(x1) if ok else np.empty(0)).reshape(len(ok), P)
    # The strict inverse of the pilot's stratified cdf sits one support
    # point above the generalized inverse whenever the pilot mass hits alpha
    # exactly (routine when a cutpoint equals alpha).
    w = np.repeat(stratum_weights(widths, pilot), pilot)
    order = argsort_rows(y1)
    at = weighted_quantile_sorted_rows(
        np.take_along_axis(y1, order, axis=1), w[order], w.sum(), alpha,
        strict=True)
    # conditional_probs(pilot, at) by rows.
    p = np.add.reduceat(y1 <= at[:, None], np.cumsum(pilot) - pilot, axis=1,
                        dtype=int) / pilot
    beta, fallback = optimal_allocation_rows(p, widths)
    extra, floored = phase_two_rows(beta, pilot, n, config.min_per_stratum,
                                    widths)
    x2, _, d2, errors2 = sample_strata_rows(
        pair, spec, extra, block.take(ok).child(1))
    y2 = pair.eval_full(x2) if len(x2) else np.empty(0)
    done = np.array([e is None for e in errors2], dtype=bool)
    for r, e in zip(ok, errors2):
        errors[r] = e
    extra = extra[done]
    counts = pilot + extra
    first = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    to_pilot = _positions(first, np.broadcast_to(pilot, counts.shape))
    to_two = _positions(first + pilot, extra)
    y = np.empty(n * len(counts))
    y[to_pilot] = y1[done].ravel()
    y[to_two] = y2
    return AcsRows(y, counts, at[done], beta[done],
                   d1[ok][done] + d2[done], fallback[done], floored[done],
                   errors)


def acs_quantile(pair: ModelPair, config: AcsConfig, alpha: float,
                 stream: RngStream) -> AcsResult:
    """Adaptive stratified quantile of one row of ``acs_rows``, which
    raises its ``SamplingError``: the pooled weighted cdf of ``cs_quantile``
    over the row's outputs."""
    rows = acs_rows(pair, config, stream.block(), alpha)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    counts = rows.counts[0]
    cdf = weighted_cdf(rows.y, np.repeat(
        stratum_weights(config.spec.widths, counts), counts))
    return AcsResult(quantile_from_weighted_cdf(cdf, alpha),
                     rows.beta_tilde[0], counts, counts / counts.sum(),
                     float(rows.y_tilde[0]), int(rows.draws[0]),
                     bool(rows.fallback[0]),
                     tuple(np.flatnonzero(rows.floored[0]).tolist()))


# ---------------------------------------------------------------------------
# Closed-form variance diagnostics (two strata at cutpoint alpha)


def two_strata_acs_factor(alpha: float, F: float, rho_I: float
                          ) -> tuple[float, float]:
    """Variance factor K of the adaptive two-strata scheme and the ratio
    K^2 = sigma2_ACS / sigma2_EE at the point with cdf value F."""
    if not (0 < alpha < 1 and 0 < F < 1):
        raise ValueError("alpha and F must lie in (0, 1)")
    r = np.sqrt(((1 - alpha) * (1 - F)) / (alpha * F))
    s = np.sqrt(((1 - alpha) * F) / (alpha * (1 - F)))
    b1, b2 = 1 + rho_I * r, 1 - rho_I * s
    b3, b4 = 1 + rho_I / r, 1 - rho_I / s
    if min(b1, b2, b3, b4) < 0:
        raise StrataError(
            f"infeasible (alpha={alpha}, F={F}, rho_I={rho_I}): "
            "a bracketed term is negative"
        )
    K = alpha * np.sqrt(b1) * np.sqrt(b2) + (1 - alpha) * np.sqrt(b3) * np.sqrt(b4)
    return float(K), float(K**2)
