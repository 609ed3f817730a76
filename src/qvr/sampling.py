"""Reproducible random streams, metamodel strata and the rejection sampler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import ModelPair


class SamplingError(Exception):
    """Raised when a sampling quota cannot be met."""


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (master_seed, path).

    Identical keys reproduce identical draw sequences; distinct paths give
    statistically independent streams regardless of scheduling, which keeps
    multi-phase pipelines deterministic.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def sample_input(dist, stream: RngStream, count: int) -> np.ndarray:
    """``count`` i.i.d. input points, deterministic given the stream key."""
    return dist.sample(stream.generator(), count)


@dataclass(frozen=True)
class StrataSpec:
    """Metamodel-output strata: cutpoint probabilities and their Z-quantiles.

    Stratum j (1-based in the math, 0-based here) is the interval
    ``(z_values[j], z_values[j+1]]`` with nominal probability
    ``cutpoints[j+1] - cutpoints[j]``; the outer z values are +-inf.
    """

    cutpoints: tuple[float, ...]
    z_values: tuple[float, ...]

    def __post_init__(self):
        c = np.asarray(self.cutpoints)
        z = np.asarray(self.z_values)
        if c[0] != 0.0 or c[-1] != 1.0:
            raise ValueError("cutpoints must start at 0 and end at 1")
        if not np.all(np.diff(c) > 0):
            raise ValueError("cutpoints must be strictly increasing")
        if len(z) != len(c):
            raise ValueError("z_values must pair with cutpoints")
        if not (np.isneginf(z[0]) and np.isposinf(z[-1])):
            raise ValueError("z_values must carry infinite sentinels")
        if not np.all(np.diff(z) > 0):
            raise ValueError("z_values must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.cutpoints) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(np.asarray(self.cutpoints))

    def stratum_of(self, z) -> np.ndarray:
        """0-based stratum index of each metamodel output."""
        return np.searchsorted(np.asarray(self.z_values)[1:-1], z, side="left")


@dataclass(frozen=True)
class AllocationPlan:
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(sum(self.counts))

    @property
    def fractions(self) -> np.ndarray:
        return np.asarray(self.counts) / max(self.total, 1)


@dataclass
class StratifiedSample:
    """Per-stratum accepted (x, z, y) triples; y may be filled later."""

    x: list[np.ndarray]
    z: list[np.ndarray]
    y: list[np.ndarray | None] = field(default_factory=list)

    def __post_init__(self):
        if not self.y:
            self.y = [None] * len(self.x)

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def counts(self) -> np.ndarray:
        return np.array([len(z) for z in self.z])

    def merged(self, other: "StratifiedSample") -> "StratifiedSample":
        """Concatenate per-stratum arrays of two samples (pilot + phase two)."""
        if other.m != self.m:
            raise ValueError("stratum count mismatch")
        x = [np.concatenate([a, b]) for a, b in zip(self.x, other.x)]
        z = [np.concatenate([a, b]) for a, b in zip(self.z, other.z)]
        y = []
        for a, b in zip(self.y, other.y):
            if a is None or b is None:
                y.append(None)
            else:
                y.append(np.concatenate([a, b]))
        return StratifiedSample(x=x, z=z, y=y)


def metamodel_quantiles(pair: ModelPair, cutpoints: Sequence[float],
                        precision: str = "closed_form",
                        sample_count: int = 10**6,
                        stream: RngStream | None = None) -> np.ndarray:
    """Quantiles of Z = f_r(X) at interior cutpoint probabilities.

    ``precision`` is "closed_form" (builtin models that declare one) or "mc";
    the mc path uses exact order statistics of one large metamodel sample,
    index ceil(alpha * N), no interpolation.
    """
    cp = np.asarray(cutpoints, dtype=float)
    if not np.all((cp > 0) & (cp < 1)):
        raise ValueError("cutpoints must lie strictly inside (0, 1)")
    if not np.all(np.diff(cp) > 0):
        raise ValueError("cutpoints must be strictly increasing")
    if precision == "closed_form":
        if pair.closed_form_z_quantile is None:
            raise ValueError(f"model {pair.name!r} has no closed-form Z quantile")
        out = np.array([pair.closed_form_z_quantile(a) for a in cp])
    elif precision == "mc":
        if sample_count < 10**4:
            raise ValueError("mc quantiles need sample_count >= 1e4")
        if stream is None:
            raise ValueError("mc quantiles need a stream")
        x = sample_input(pair.input, stream, sample_count)
        z = pair.eval_metamodel(x)
        del x
        if not z.flags.owndata:
            z = z.copy()
        # Order statistics in place: no sorted copy of 10^6 outputs.
        idx = np.ceil(cp * sample_count).astype(int) - 1
        z.partition(idx)
        out = z[idx]
    else:
        raise ValueError(f"unknown precision {precision!r}")
    if not np.all(np.diff(out) > 0):
        raise SamplingError("metamodel quantiles are not strictly increasing")
    return out


def strata_from_cutpoints(pair: ModelPair, cutpoints: Sequence[float],
                          precision: str = "closed_form",
                          sample_count: int = 10**6,
                          stream: RngStream | None = None) -> StrataSpec:
    cp = tuple(float(c) for c in cutpoints)
    zq = metamodel_quantiles(pair, cp[1:-1], precision, sample_count, stream)
    return StrataSpec(cutpoints=cp, z_values=(-np.inf,) + tuple(zq) + (np.inf,))


def _batch_for(need: np.ndarray, widths: np.ndarray) -> int:
    """Draws that fill every open quota with high probability: stratum j
    needs about need_j / width_j draws, give or take sqrt(need_j) / width_j;
    three of those spreads are added so one batch usually suffices."""
    open_ = need > 0
    return int(np.ceil(np.max((need[open_] + 3 * np.sqrt(need[open_]))
                              / widths[open_])))


def sample_strata(pair: ModelPair, spec: StrataSpec, plan: AllocationPlan,
                  stream: RngStream, max_draws: int | None = None,
                  batch: int = 1 << 20) -> tuple[StratifiedSample, int]:
    """Pooled rejection: draw X ~ q_ori, route each draw to its stratum while
    that stratum's quota is unmet, discard otherwise.  Returns the sample
    (y unfilled) and the number of metamodel evaluations N_r.

    Each batch is sized from the quotas still open (at most ``batch`` draws).
    Draws past the one that completes the last quota are not counted, so
    for one-dimensional inputs the sample and N_r do not depend on the batch
    sizes; a multi-dimensional input fills its columns one after another, so
    there they do.
    """
    if len(plan.counts) != spec.m:
        raise ValueError("plan length must match stratum count")
    total = plan.total
    if max_draws is None:
        max_draws = 1000 * max(total, 1)
    if max_draws < total:
        raise ValueError("max_draws must be at least the total quota")
    need = np.asarray(plan.counts, dtype=int).copy()
    widths = spec.widths
    xs: list[list[np.ndarray]] = [[] for _ in range(spec.m)]
    zs: list[list[np.ndarray]] = [[] for _ in range(spec.m)]
    rng = stream.generator()
    draws = 0
    while need.sum() > 0:
        if draws >= max_draws:
            raise SamplingError(
                f"stratum quotas unmet after {draws} draws; remaining {need.tolist()}"
            )
        k = min(_batch_for(need, widths), batch, max_draws - draws)
        x = pair.input.sample(rng, k)
        z = pair.eval_metamodel(x)
        strat = spec.stratum_of(z)
        # Take the first need_j draws of each open stratum; once every quota
        # is met, N_r stops at the draw that completed the last one.
        picks = []
        complete = True
        done_at = 0
        for j in np.flatnonzero(need):
            idx = np.flatnonzero(strat == j)[: need[j]]
            picks.append((j, idx))
            if len(idx) < need[j]:
                complete = False
            else:
                done_at = max(done_at, int(idx[-1]) + 1)
        draws += done_at if complete else k
        for j, idx in picks:
            if len(idx):
                xs[j].append(x[idx])
                zs[j].append(z[idx])
                need[j] -= len(idx)
    d = pair.dimension
    sample = StratifiedSample(
        x=[np.concatenate(c) if c else np.empty((0, d)) for c in xs],
        z=[np.concatenate(c) if c else np.empty(0) for c in zs],
    )
    return sample, draws


def evaluate_full(pair: ModelPair, sample: StratifiedSample) -> StratifiedSample:
    """Fill y = f(x) for every accepted triple with one f call over all
    strata; each triple is evaluated once."""
    for xj, zj in zip(sample.x, sample.z):
        if len(zj) != len(xj):
            raise ValueError("z must be filled before evaluating f")
    counts = [len(xj) for xj in sample.x]
    y = (pair.eval_full(np.concatenate(sample.x)) if sum(counts)
         else np.empty(0))
    return StratifiedSample(x=sample.x, z=sample.z,
                            y=np.split(y, np.cumsum(counts)[:-1]))


def expected_rejection_cost(spec: StrataSpec, plan: AllocationPlan) -> tuple[float, float]:
    """Expected draw count of the naive per-stratum rejection scheme.

    Returns (n * sum_j beta_j / width_j, uniform bound n / min width).
    """
    widths = spec.widths
    counts = np.asarray(plan.counts, dtype=float)
    expected = float(np.sum(counts / widths))
    bound = plan.total / float(widths.min())
    return expected, bound
