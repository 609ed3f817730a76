"""Reproducible random streams, metamodel strata and the rejection sampler."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .model import ModelPair


class SamplingError(Exception):
    """Raised when a sampling quota cannot be met."""


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (master_seed, path).

    Identical keys reproduce identical draw sequences; distinct paths give
    statistically independent streams regardless of scheduling, which keeps
    multi-phase pipelines deterministic.  Its generator is numpy's
    ``Philox(SeedSequence(master_seed, spawn_key=path))``; the samplers draw
    it as the one-row ``StreamBlock`` of ``block()``.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(map(operator.index, ids)))

    def generator(self) -> np.random.Generator:
        """A new Philox generator of this stream's key."""
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(
            operator.index(self.master_seed), spawn_key=self.path)))

    def block(self) -> "StreamBlock":
        """This stream as a block of one row."""
        return StreamBlock(operator.index(self.master_seed),
                           np.array([_path_words(self.path)], dtype=np.uint32))


@dataclass(frozen=True, eq=False)
class StreamBlock:
    """Streams of one master seed, one row of ``words`` (R, w) each: the
    uint32 words of the stream's path, as ``SeedSequence`` splits a spawn
    key.  What every draw takes, keyed in one numpy pass: ``of(root, ids)``
    for a block of replications, ``RngStream.block()`` for one stream."""

    master_seed: int
    words: np.ndarray

    @classmethod
    def of(cls, root: RngStream, ids) -> "StreamBlock":
        """The streams ``root.child(r)`` of the replications ``ids`` (each
        below 2**32), in order."""
        ids = np.asarray(ids)
        if ids.size and not (ids.dtype.kind in "iu" and ids.min() >= 0
                             and ids.max() <= _MASK):
            raise ValueError("replication ids must be integers in [0, 2**32)")
        head = root.block()
        words = np.empty((len(ids), head.words.shape[1] + 1), np.uint32)
        words[:, :-1] = head.words
        words[:, -1] = ids
        return cls(head.master_seed, words)

    def __len__(self) -> int:
        return len(self.words)

    def child(self, *ids: int) -> "StreamBlock":
        tail = np.array(_path_words(ids), dtype=np.uint32)
        return StreamBlock(self.master_seed, np.hstack(
            [self.words, np.broadcast_to(tail, (len(self), len(tail)))]))

    def take(self, rows) -> "StreamBlock":
        """The block of the streams at positions ``rows``."""
        return StreamBlock(self.master_seed, self.words[rows])

    def keys(self) -> np.ndarray:
        """The (R, 2) Philox keys, each as ``SeedSequence(master_seed,
        spawn_key=path).generate_state(2, uint64)``."""
        return _keys(self.master_seed, self.words)


# SeedSequence's hash constants (numpy.random.bit_generator), pool size 4.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF
# generate_state's xor and multiply constants for the 4 words of a key.
_STATE_XOR, _STATE_MUL = (
    np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK for i in r],
             dtype=np.uint32) for r in (range(4), range(1, 5)))


def _words(v) -> list[int]:
    """The uint32 words of a non-negative integer, least significant first
    (0 is one word), as SeedSequence splits its entropy."""
    v = operator.index(v)
    if v < 0:
        raise ValueError("expected non-negative integer")
    out = [v & _MASK]
    while v > _MASK:
        v >>= 32
        out.append(v & _MASK)
    return out


def _path_words(path) -> list[int]:
    """The uint32 words of a stream path: each id's ``_words``, in order."""
    return [w for p in path for w in _words(p)]


@lru_cache(maxsize=64)
def _hash_consts(k: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's constants of hashmix calls ``k .. k + count - 1``: the
    i-th xors with INIT_A * MULT_A**i and multiplies by INIT_A *
    MULT_A**(i+1).  Shaped (count // 4, 4): one row per word mixed into
    the pool."""
    c = [_INIT_A * pow(_MULT_A, k, 1 << 32) & _MASK]
    for _ in range(count):
        c.append(c[-1] * _MULT_A & _MASK)
    c = np.array(c, dtype=np.uint32)
    c.flags.writeable = False
    return c[:-1].reshape(-1, 4), c[1:].reshape(-1, 4)


def _absorb(pool: np.ndarray, words: np.ndarray, k: int) -> np.ndarray:
    """Mix the columns of ``words`` (R, w) into pools (R, 4), each word
    into every pool word, as SeedSequence mixes its entropy past the pool
    size; ``k`` counts the hashmix calls made before."""
    xor, mul = _hash_consts(k, 4 * words.shape[1])
    h = (words[:, :, None] ^ xor) * mul
    h ^= h >> 16
    h *= _MIX_R
    for hj in h.transpose(1, 0, 2):
        pool = _MIX_L * pool - hj
        pool ^= pool >> 16
    return pool


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence's pool (1, 4) after the words of ``seed``, and the
    number of hashmix calls that took: 4 to fill the pool, 12 to mix it and
    4 per seed word past the pool size."""
    count = 16 + 4 * max(0, len(_words(seed)) - 4)
    pool = np.random.SeedSequence(seed).pool[None]
    pool.flags.writeable = False
    return pool, count


def _keys(seed: int, words: np.ndarray) -> np.ndarray:
    """The Philox keys (R, 2) of the streams of master seed ``seed`` whose
    paths split into the uint32 words ``words`` (R, w), each as
    ``SeedSequence(seed, spawn_key=path).generate_state(2, uint64)``: the
    path words are mixed into that seed's pool (cached: every stream of a
    run shares it).  SeedSequence zero-pads the seed's words to the pool
    size when a path is present, and without one the padding does not
    change the pool."""
    pool, k = _seed_pool(seed)
    pool = _absorb(pool.repeat(len(words), axis=0), words, k)
    state = (pool ^ _STATE_XOR) * _STATE_MUL
    state ^= state >> 16
    # generate_state(2, uint64) reads its uint32 words little-endian.
    return state.astype("<u4", copy=False).view("<u8")


_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.flags.writeable = False


def _fresh(key) -> dict:
    """The state of a new Philox with ``key``: counter 0 and an empty
    buffer."""
    return {"bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": key}, "buffer": _ZEROS,
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


class _ZeroKey(ISeedSequence):
    """The seed sequence of a Philox that is re-keyed before it draws:
    ``Philox`` asks it for ``generate_state(2, uint64)`` once.  It builds
    in 2.3 µs against 7.0 µs for ``Philox(0)``, which runs a
    ``SeedSequence`` (2-core x86-64 host)."""

    def generate_state(self, n_words, dtype=np.uint32):
        return _ZEROS[:2]


def _rekeyable() -> tuple[np.random.Generator, np.random.Philox]:
    """A generator whose Philox is re-keyed per stream (``bits.state =
    _fresh(key)``), which draws what a new one would, about 4 times
    cheaper.  Each call makes its own, so that threads share none."""
    bits = np.random.Philox(_ZeroKey())
    return np.random.Generator(bits), bits


def each_generator(block: StreamBlock):
    """Yield one generator per stream of ``block``, in order, each drawing
    what the stream's ``RngStream.generator()`` would: one Philox, re-keyed
    before each yield, so a generator must be done with before the next is
    taken."""
    rng, bits = _rekeyable()
    for key in block.keys():
        bits.state = _fresh(key)
        yield rng


def evaluate_sample(dist, stream: RngStream, count: int, *fns) -> np.ndarray:
    """Row i holds ``fns[i](x)`` for ``x = dist.sample(stream.generator(),
    count)``, bit for bit, without building x: the columns but the last are
    drawn whole, and the last in runs of ``BLOCK_POINTS`` (numpy's normal
    draws split into runs are the draws of one call), each mapped by its
    marginal's ``transform``.  Each fn sees one run's points at a time, the
    transpose of a (d, run) buffer, so it must be pure and act row by row.
    With one fn and a whole column, the outputs overwrite the first column
    as the runs pass it: a pass over a d <= 2 input holds about 8 bytes a
    point."""
    *whole, last = dist.components
    rng = stream.generator()
    cols = np.empty((len(whole), count))
    for c, col in zip(whole, cols):
        rng.standard_normal(out=col)
        c.transform(col)
    out = cols[:1] if len(fns) == 1 and whole else np.empty((len(fns), count))
    for start in range(0, count, BLOCK_POINTS):
        run = slice(start, min(start + BLOCK_POINTS, count))
        x = np.empty((len(cols) + 1, run.stop - start))
        x[:-1] = cols[:, run]
        rng.standard_normal(out=x[-1])
        last.transform(x[-1])
        for row, fn in zip(out, fns):
            row[run] = fn(x.T)
    return out


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
        """0-based stratum index of each metamodel output: the number of
        interior cut values it exceeds (NaN exceeds them all), which is
        ``searchsorted(cuts, z, "left")``, in the narrowest integer type.
        One comparison pass per cut: the cost grows linearly with the cut
        count, ahead of the binary search up to about 200 cuts."""
        cuts = self.z_values[1:-1]
        z = np.asarray(z)
        out = np.zeros(z.shape, dtype=np.min_scalar_type(len(cuts)))
        for c in cuts:
            out += ~(z <= c)
        return out[()]


@dataclass(frozen=True)
class AllocationPlan:
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(sum(self.counts))


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


def metamodel_quantiles(pair: ModelPair, cutpoints: Sequence[float],
                        precision: str = "closed_form",
                        sample_count: int = 10**6,
                        stream: RngStream | None = None) -> np.ndarray:
    """Quantiles of Z = f_r(X) at interior cutpoint probabilities.

    ``precision`` is "closed_form" (builtin models that declare one) or "mc";
    the mc path uses exact order statistics of one large metamodel sample,
    index ceil(alpha * N), no interpolation.  That pass runs once per f_r
    object, input law, cutpoints, ``sample_count`` and stream in a process
    (``_mc_pass``); a repeated call gets a copy of the same bits.  An f_r
    with a ``close`` (an external model's simulator) runs its pass on every
    call, so that no cache entry holds it open.
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
        key = (pair.f_r, pair.input, tuple(cp.tolist()), sample_count,
               stream)
        # A simulator (an f_r with a close) is never cached: the cache
        # would keep it, and its child process, alive.
        run = _mc_pass.__wrapped__
        if not hasattr(pair.f_r, "close"):
            try:
                hash(key)
                run = _mc_pass
            except TypeError:  # an unhashable f_r or input law shares nothing
                pass
        out = run(*key).copy()
    else:
        raise ValueError(f"unknown precision {precision!r}")
    if not np.all(np.diff(out) > 0):
        raise SamplingError("metamodel quantiles are not strictly increasing")
    return out


@lru_cache(maxsize=16)
def _mc_pass(f_r, dist, cp: tuple, sample_count: int, stream: RngStream
             ) -> np.ndarray:
    """The order statistics ceil(cp N) of N = ``sample_count`` outputs of
    ``f_r`` on ``dist``'s points from ``stream``, read-only: one pass per
    key for the life of the process (16 keys at most).  The key holds f_r
    itself, so an f_r built anew for each config (a wrapper) never shares
    a pass."""
    (z,) = evaluate_sample(dist, stream, sample_count,
                           lambda x: np.asarray(f_r(x), dtype=float))
    # Order statistics in place: no sorted copy of 10^6 outputs.
    idx = np.ceil(np.array(cp) * sample_count).astype(int) - 1
    z.partition(idx)
    out = z[idx]
    out.flags.writeable = False
    return out


def strata_from_cutpoints(pair: ModelPair, cutpoints: Sequence[float],
                          precision: str = "closed_form",
                          sample_count: int = 10**6,
                          stream: RngStream | None = None) -> StrataSpec:
    cp = tuple(float(c) for c in cutpoints)
    zq = metamodel_quantiles(pair, cp[1:-1], precision, sample_count, stream)
    return StrataSpec(cutpoints=cp, z_values=(-np.inf,) + tuple(zq) + (np.inf,))


# bench._blocks puts max(1, BLOCK_POINTS // n) replications in a block
# (resamples in a bootstrap chunk), a rejection pass holds at most
# BLOCK_POINTS draws (or one row's batch) in its (d, P) input buffer, its
# f_r outputs and its sort, and evaluate_sample hands the evaluators of a
# large Monte Carlo pass (mc metamodel quantiles, ground truth, the
# correlation report) BLOCK_POINTS points at a time, so stacked arrays (and
# a subprocess model's pending requests) stay ~1 MB.  Rejection passes of 2
# or 4 times BLOCK_POINTS ran rep-small faster but took 7,000-24,000 minor
# page faults per table1 acs call instead of 0-300 (BENCH_passes.json).
BLOCK_POINTS = 16384

# A block's temporaries (BLOCK_POINTS doubles is 128 KiB; some are twice
# that) sit above glibc's initial 128 KiB mmap threshold, so each would be a
# fresh mmap that faults in every page it touches and is unmapped when freed.
# glibc raises the threshold to the size of any mmapped chunk that is freed
# (and its heap-trim threshold to twice that), so allocating and freeing one
# 512 KiB array here makes those temporaries reuse heap memory.  Without it a
# table1 ee call of 1000 replications takes ~17,900 minor page faults instead
# of ~2, and `qvr bench --preset table1 --reps 1000` takes 4.55 s instead of
# 4.11 s (medians of 10 alternating runs, one core of a 2-core x86-64 host);
# 640 or 704 KiB measured no faster.  Only glibc reacts to it.
np.empty(4 * BLOCK_POINTS)


def _batch_for(need: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Draws per row of quotas ``need`` (shape (R, m)) that fill every open
    quota with high probability: stratum j needs about need_j / width_j
    draws, give or take sqrt(need_j) / width_j; three of those spreads are
    added so one batch usually suffices."""
    return np.ceil(((need + 3 * np.sqrt(need)) / widths).max(axis=1)).astype(int)


def _positions(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """first[i] + k for the k-th of counts[i] records, for every i."""
    c = counts.ravel()
    return np.repeat(first.ravel() - (np.cumsum(c) - c), c) + np.arange(c.sum())


def sample_strata_rows(pair: ModelPair, spec: StrataSpec, need,
                       block: StreamBlock, max_draws=None, batch: int = 1 << 20
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Pooled rejection for the R streams of ``block``: row r draws X ~
    q_ori from the r-th stream and keeps each draw whose stratum quota
    ``need[r, j]`` is unmet.  Returns (x, z, N, errors): the records of the
    rows that met their quotas, row after row, each row's in stratum order;
    every row's metamodel evaluations N_r; and per row None or the
    ``SamplingError`` of a row that reached ``max_draws`` (default 1000
    times its quota).

    Each row draws from its own stream in batches sized from its open
    quotas (at most ``batch`` draws), as if drawn alone.  A pass takes the
    next open rows' batches, up to ``BLOCK_POINTS`` draws (or one row's
    batch): each row draws its standard normals into its own columns of a
    (d, P) buffer kept for the call, the pass transforms them in place,
    evaluates f_r once on the (P, d) transpose, finds each stratum's draws
    with one search and copies the accepted x and z out once.  Draws past
    the one that completes a row's last quota are not counted, so for
    one-dimensional inputs a row's sample and N_r do not depend on the
    batch sizes; a multi-dimensional input fills its columns one after
    another, so there they do.
    """
    need = np.array(need, dtype=int)
    if need.ndim != 2 or need.shape[1] != spec.m:
        raise ValueError("plan length must match stratum count")
    R, widths = len(need), spec.widths
    total = need.sum(axis=1)
    limit = (1000 * np.maximum(total, 1) if max_draws is None
             else np.broadcast_to(max_draws, R))
    if np.any(limit < total):
        raise ValueError("max_draws must be at least the total quota")
    # Row r's records fill [sum(total[:r]), sum(total[:r + 1])) in stratum
    # order; slot[r, j] is the next free record of stratum j.
    slot = (np.cumsum(need) - need.ravel()).reshape(need.shape)
    x_out = np.empty((int(total.sum()), pair.dimension))
    z_out = np.empty(len(x_out))
    # One Philox for every row: a row's first batch starts from its key, a
    # later one from the state its last batch left.
    rng, bits = _rekeyable()
    states = [_fresh(key) for key in block.keys()]
    draws = np.zeros(R, dtype=int)
    errors: list = [None] * R
    live = total > 0
    buf = np.empty((pair.dimension, 0))
    while live.any():
        rows = np.flatnonzero(live)
        k = np.minimum(np.minimum(_batch_for(need[rows], widths), batch),
                       limit[rows] - draws[rows])
        end = np.cumsum(k)
        g = max(1, int(np.searchsorted(end, BLOCK_POINTS, "right")))
        rows, k, end = rows[:g], k[:g], end[:g]
        start, size = end - k, int(end[-1])
        if size > buf.shape[1]:
            buf = np.empty((pair.dimension, size))
        for r, a, b in zip(rows.tolist(), start.tolist(), end.tolist()):
            bits.state = states[r]
            pair.input.normals(rng, buf[:, a:b])
            states[r] = bits.state
        pair.input.transform(buf[:, :size])
        x = buf[:, :size].T
        z = pair.eval_metamodel(x)
        # Row i takes the first need_ij draws of stratum j among its own;
        # once every quota is met, N_r stops at the draw that completed the
        # last one (last[i, j]: 1 + the position of row i's last draw taken
        # in stratum j).  The taken draws are gathered stratum by stratum,
        # each stratum's row by row, and copied out once.
        strat = spec.stratum_of(z)
        bounds = np.append(start, size)
        need_g = need[rows]
        got = np.zeros_like(need_g)
        last = np.zeros_like(need_g)
        src = []
        for j in np.flatnonzero(need_g.any(axis=0)).tolist():
            pos = np.flatnonzero(strat == j)
            first = pos.searchsorted(bounds)
            got[:, j] = gj = np.minimum(need_g[:, j], first[1:] - first[:-1])
            took = pos[_positions(first[:-1], gj)]
            if len(took):
                last[:, j] = np.where(gj > 0, took[gj.cumsum() - 1] + 1, 0)
                src.append(took)
        dest = _positions(slot[rows].T, got.T)
        src = np.concatenate(src) if src else np.empty(0, dtype=int)
        x_out[dest] = x[src]
        z_out[dest] = z[src]
        slot[rows] += got
        need_g -= got
        need[rows] = need_g
        done_at = last.max(axis=1) - start
        open_ = need_g.any(axis=1)
        draws[rows] += np.where(open_, k, done_at)
        live[rows] = open_ & (draws[rows] < limit[rows])
        for r in rows[open_ & ~live[rows]]:
            errors[r] = SamplingError(
                f"stratum quotas unmet after {draws[r]} draws; "
                f"remaining {need[r].tolist()}")
    if any(errors):
        keep = np.repeat([e is None for e in errors], total)
        x_out, z_out = x_out[keep], z_out[keep]
    return x_out, z_out, draws, errors


def sample_strata(pair: ModelPair, spec: StrataSpec, plan: AllocationPlan,
                  stream: RngStream, max_draws: int | None = None,
                  batch: int = 1 << 20) -> tuple[StratifiedSample, int]:
    """Pooled rejection: draw X ~ q_ori, route each draw to its stratum while
    that stratum's quota is unmet, discard otherwise.  Returns the sample
    (y unfilled) and the number of metamodel evaluations N_r; one row of
    ``sample_strata_rows``, which raises its ``SamplingError``."""
    x, z, draws, (error,) = sample_strata_rows(
        pair, spec, [plan.counts], stream.block(), max_draws, batch)
    if error is not None:
        raise error
    cuts = np.cumsum(plan.counts)[:-1]
    sample = StratifiedSample(x=np.split(x, cuts), z=np.split(z, cuts))
    return sample, int(draws[0])


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
