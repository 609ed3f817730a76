"""Controlled stratification: fixed allocation, optimal allocation, and the
two-phase adaptive pipelines for cdf and quantile estimation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import (quantile_from_weighted_cdf, stratum_weights,
                         weighted_cdf, weighted_quantile_sorted_rows)
from .model import ModelPair
from .sampling import (
    AllocationPlan,
    RngStream,
    StrataSpec,
    StratifiedSample,
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
    sample: StratifiedSample


def largest_remainder(targets: np.ndarray) -> np.ndarray:
    """Round nonnegative reals to integers preserving their (rounded) sum."""
    t = np.asarray(targets, dtype=float)
    if np.any(t < 0):
        raise ValueError("targets must be nonnegative")
    floors = np.floor(t).astype(int)
    short = int(round(t.sum())) - int(floors.sum())
    if short > 0:
        order = np.argsort(-(t - floors), kind="stable")
        floors[order[:short]] += 1
    return floors


def phase_two_counts(beta_tilde: np.ndarray, pilot: np.ndarray, n: int,
                     min_per_stratum: int, widths: np.ndarray
                     ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Phase-two allocation toward targets beta_tilde * n.

    Pilot points are kept, so a stratum whose pilot already exceeds its
    target contributes no phase-two points; its surplus is redistributed to
    the other strata proportionally to their deficits.  Positive-width strata
    are floored at min_per_stratum total points; floored strata are reported.
    """
    targets = largest_remainder(beta_tilde * n)
    floored = []
    for j in range(len(targets)):
        if widths[j] > 0 and targets[j] < min_per_stratum:
            floored.append(j)
            targets[j] = min_per_stratum
    budget = n - int(pilot.sum())
    if budget < 0:
        raise StrataError("pilot already exceeds the total budget")
    deficits = np.maximum(targets - pilot, 0).astype(float)
    if deficits.sum() > 0:
        extra = largest_remainder(budget * deficits / deficits.sum())
    else:
        extra = largest_remainder(budget * widths / widths.sum())
    gap = budget - int(extra.sum())
    if gap != 0:
        extra[int(np.argmax(extra))] += gap
    return extra.astype(int), tuple(floored)


class AcsRows(NamedTuple):
    """``errors`` holds each stream's ``SamplingError`` or None; the other
    fields cover the rows without one: their records row after row (each in
    stratum order, a stratum's pilot records first), one entry per row."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    y_tilde: np.ndarray
    beta_tilde: np.ndarray
    draws: np.ndarray
    fallback: np.ndarray
    floored: list
    errors: list


def acs_rows(pair: ModelPair, config: AcsConfig, streams,
             alpha: float) -> AcsRows:
    """Two-phase adaptive stratified samples, one row per stream: a pilot on
    ``stream.child(0)``; the optimal allocation at the pilot's conditional
    probabilities at the strict inverse of the pilot's alpha-quantile
    (proportional when no indicator varies); phase two on
    ``stream.child(1)``, which keeps the pilot points.  Each phase draws its
    rows with one ``sample_strata_rows`` call and one f call."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    spec, widths, n = config.spec, config.spec.widths, config.n
    pilot = config.pilot_counts()
    P = int(pilot.sum())
    x1, z1, d1, errors = sample_strata_rows(
        pair, spec, np.tile(pilot, (len(streams), 1)),
        [s.child(0) for s in streams])
    ok = [r for r, e in enumerate(errors) if e is None]
    y1 = (pair.eval_full(x1) if ok else np.empty(0)).reshape(len(ok), P)
    # The strict inverse of the pilot's stratified cdf sits one support
    # point above the generalized inverse whenever the pilot mass hits alpha
    # exactly (routine when a cutpoint equals alpha).
    w = np.repeat(stratum_weights(widths, pilot), pilot)
    order = np.argsort(y1, axis=1, kind="stable")
    at = weighted_quantile_sorted_rows(
        np.take_along_axis(y1, order, axis=1), w[order], w.sum(), alpha,
        strict=True)
    # conditional_probs(pilot, at) by rows.
    p = np.add.reduceat(y1 <= at[:, None], np.cumsum(pilot) - pilot, axis=1,
                        dtype=int) / pilot
    beta, fallback = optimal_allocation_rows(p, widths)
    two = [phase_two_counts(b, pilot, n, config.min_per_stratum, widths)
           for b in beta]
    extra = np.array([e for e, _ in two], dtype=int).reshape(len(ok), spec.m)
    x2, z2, d2, errors2 = sample_strata_rows(
        pair, spec, extra, [streams[r].child(1) for r in ok])
    y2 = pair.eval_full(x2) if len(x2) else np.empty(0)
    done = np.array([e is None for e in errors2], dtype=bool)
    for r, e in zip(ok, errors2):
        errors[r] = e
    extra = extra[done]
    counts = pilot + extra
    first = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    to_pilot = _positions(first, np.broadcast_to(pilot, counts.shape))
    to_two = _positions(first + pilot, extra)
    keep = np.repeat(done, P)
    merged = []
    for a1, a2 in ((x1, x2), (z1, z2), (y1.ravel(), y2)):
        out = np.empty((n * len(counts),) + a1.shape[1:])
        out[to_pilot] = a1[keep]
        out[to_two] = a2
        merged.append(out)
    return AcsRows(*merged, counts, at[done], beta[done],
                   d1[ok][done] + d2[done], fallback[done],
                   [f for (_, f), d in zip(two, done) if d], errors)


def acs_quantile(pair: ModelPair, config: AcsConfig, alpha: float,
                 stream: RngStream) -> AcsResult:
    """Adaptive stratified quantile: the ``cs_quantile`` of one row of
    ``acs_rows``, which raises its ``SamplingError``."""
    rows = acs_rows(pair, config, [stream], alpha)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    cuts = np.cumsum(rows.counts[0])[:-1]
    sample = StratifiedSample(*(np.split(a, cuts) for a in rows[:3]))
    counts = sample.counts
    return AcsResult(cs_quantile(sample, config.spec, alpha),
                     rows.beta_tilde[0], counts, counts / counts.sum(),
                     float(rows.y_tilde[0]), int(rows.draws[0]),
                     bool(rows.fallback[0]), rows.floored[0], sample)


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
