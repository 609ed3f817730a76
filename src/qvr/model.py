"""Model/metamodel pairs, input distributions and builtin toy models.

The central object is :class:`ModelPair`: an expensive model ``f``, a cheap
metamodel ``f_r`` and the input distribution of the random vector X.  All
evaluators are vectorized over a batch of points with shape ``(n, d)``, not
necessarily C-contiguous.
"""

from __future__ import annotations

import json
import math
import os
import re
import selectors
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# sqrt(2 pi), the normal density's constant, as scipy.stats computes it.
_SQRT_2PI = np.sqrt(2 * np.pi)


class ModelError(Exception):
    """Raised when a model evaluation fails (bad input, subprocess trouble)."""


@dataclass(frozen=True)
class Normal:
    """Normal marginal with mean ``mean`` and standard deviation ``stddev``."""

    mean: float
    stddev: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 < self.stddev < math.inf:
            raise ValueError(f"stddev must be positive and finite, got {self.stddev}")

    def density(self, x):
        """scipy.stats.norm.pdf(x, mean, stddev), bit for bit."""
        z = (np.asarray(x, dtype=float) - self.mean) / self.stddev
        return np.exp(-z**2 / 2.0) / _SQRT_2PI / self.stddev

    def transform(self, out):
        """Map the standard normal draws in ``out`` to this marginal's, in
        place: ``rng.normal(mean, stddev, k)`` is ``mean + stddev *
        rng.standard_normal(k)``, bit for bit."""
        out *= self.stddev
        out += self.mean


@dataclass(frozen=True)
class Lognormal:
    """Lognormal marginal parameterized by the underlying normal's (mean, stddev).

    ``log_mean``/``log_stddev`` are the moments of log X, not of X itself;
    conversion from target moments of X lives in :mod:`qvr.importance`.
    """

    log_mean: float
    log_stddev: float

    def __post_init__(self):
        if not math.isfinite(self.log_mean):
            raise ValueError(f"log_mean must be finite, got {self.log_mean}")
        if not 0 < self.log_stddev < math.inf:
            raise ValueError(
                f"log_stddev must be positive and finite, got {self.log_stddev}")

    def density(self, x):
        """Density at ``x``, 0 where x <= 0.  It is computed in log space,
        so a large ``log_mean`` neither overflows nor loses the density."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_x = np.log(x)
            z = (log_x - self.log_mean) / self.log_stddev
            log_pdf = -z**2 / 2.0 - log_x - np.log(self.log_stddev * _SQRT_2PI)
        return np.where(x <= 0, 0.0, np.exp(log_pdf))[()]

    def transform(self, out):
        """Map the standard normal draws in ``out`` to this marginal's, in
        place: ``exp(rng.normal(log_mean, log_stddev, k))``, bit for bit."""
        out *= self.log_stddev
        out += self.log_mean
        np.exp(out, out=out)


Marginal = Normal | Lognormal


@dataclass(frozen=True)
class InputDistribution:
    """Product distribution of independent univariate marginals."""

    components: tuple[Marginal, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("need at least one component")

    @property
    def dimension(self) -> int:
        return len(self.components)

    def density(self, x) -> np.ndarray | float:
        """Joint density at one point (d,) or a batch (n, d).

        Points outside the support (nonpositive coordinates for lognormal
        components) get density exactly 0.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        self._check_dim(pts)
        out = np.ones(pts.shape[0])
        for j, c in enumerate(self.components):
            out *= c.density(pts[:, j])
        out = np.nan_to_num(out, nan=0.0)
        return float(out[0]) if single else out

    def normals(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill ``out`` (d, count), whose rows are contiguous, with the
        standard normal draws of ``count`` points, one point per column:
        row j, component j's, is drawn after row j - 1.  ``transform``
        then turns them into the points; it may run on many streams'
        columns at once."""
        for j in range(len(out)):
            rng.standard_normal(out=out[j])

    def transform(self, out: np.ndarray) -> None:
        """Map ``normals``' columns (d, count) to points, in place."""
        for c, row in zip(self.components, out, strict=True):
            c.transform(row)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. points (count, d), C-contiguous: the transpose of
        ``normals`` and ``transform``'s columns (numpy refuses count < 0)."""
        out = np.empty((self.dimension, count))
        self.normals(rng, out)
        self.transform(out)
        return np.ascontiguousarray(out.T)

    def _check_dim(self, pts):
        if pts.shape[-1] != self.dimension:
            raise ModelError(
                f"point dimension {pts.shape[-1]} != distribution dimension {self.dimension}"
            )


def standard_normal_input(d: int = 1) -> InputDistribution:
    return InputDistribution(tuple(Normal(0.0, 1.0) for _ in range(d)))


@dataclass(frozen=True)
class ModelPair:
    """Expensive model ``f``, metamodel ``f_r`` and the input distribution.

    Both evaluators map a batch (n, d) to outputs (n,) and must be pure.
    A batch need not be C-contiguous: the samplers draw into (d, n) buffers
    and pass their transposes, whose columns ``x[:, j]`` are contiguous.
    ``closed_form_z_quantile`` maps a probability to the exact quantile of
    Z = f_r(X) when one is available; when it is set, every metamodel
    quantile of the pair is taken from it, and when it is None, from
    metamodel draws (``sampling.metamodel_quantiles``).
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_r: Callable[[np.ndarray], np.ndarray]
    input: InputDistribution
    name: str = "custom"
    closed_form_z_quantile: Callable[[float], float] | None = None

    @property
    def dimension(self) -> int:
        return self.input.dimension

    def _batch(self, x) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        self.input._check_dim(pts)
        return pts

    def eval_metamodel(self, x) -> np.ndarray:
        return np.asarray(self.f_r(self._batch(x)), dtype=float)

    def eval_full(self, x) -> np.ndarray:
        return np.asarray(self.f(self._batch(x)), dtype=float)


# ---------------------------------------------------------------------------
# Builtin toy models


def _toy1d_f(x):
    t = x[:, 0]
    return 0.95 * t**2 * (1 + 0.5 * np.cos(10 * t) + 0.5 * np.cos(20 * t))


def _toy1d_fr(x):
    return x[:, 0] ** 2


def _toy2d_fr(x):
    return np.abs(x[:, 0]) * x[:, 0] + x[:, 1]


def _toy2d_f(x):
    x1, x2 = x[:, 0], x[:, 1]
    return 0.95 * np.abs(x1) * x1 * (
        1 + 0.5 * np.cos(10 * x1) + 0.5 * np.cos(20 * x1)
    ) + 0.7 * x2 * (1 + 0.4 * np.cos(x2) + 0.3 * np.cos(14 * x2))


def _identity(x):
    return x[:, 0]


def _normal_quantile(p: float) -> float:
    """Standard normal quantile, -inf at p = 0 and +inf at p = 1: the
    stdlib's, Wichura's AS241."""
    if p in (0.0, 1.0):
        return math.inf if p else -math.inf
    return statistics.NormalDist().inv_cdf(p)


def toy1d() -> ModelPair:
    """1D oscillatory model with quadratic metamodel and N(0,1) input."""
    return ModelPair(
        f=_toy1d_f,
        f_r=_toy1d_fr,
        input=standard_normal_input(1),
        name="toy1d",
        closed_form_z_quantile=lambda a: _normal_quantile((1 + a) / 2) ** 2,
    )


def toy2d() -> ModelPair:
    """2D oscillatory model with signed-quadratic metamodel, N(0,1)^2 input."""
    return ModelPair(
        f=_toy2d_f,
        f_r=_toy2d_fr,
        input=standard_normal_input(2),
        name="toy2d",
    )


def identity1d() -> ModelPair:
    """Test fixture: f = f_r = identity with standard normal input."""
    return ModelPair(
        f=_identity,
        f_r=_identity,
        input=standard_normal_input(1),
        name="identity1d",
        closed_form_z_quantile=_normal_quantile,
    )


BUILTIN_MODELS = {"toy1d": toy1d, "toy2d": toy2d, "identity1d": identity1d}


def builtin_model(name: str) -> ModelPair:
    try:
        return BUILTIN_MODELS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin model {name!r}") from None


# ---------------------------------------------------------------------------
# External simulator adapter


class SubprocessModel:
    """Adapter that evaluates f through a long-running child process.

    Wire protocol (newline-delimited JSON, UTF-8): request
    ``{"id": <uint64>, "x": [<f64>...]}``, response ``{"id": ..., "y": <f64>}``.
    Responses may arrive in any order; a response carrying ``"error"``
    aborts the run.  A call is one exchange: request lines stream to the
    child while its replies are read, with at most ``batch_size`` requests
    in flight (sent and not yet answered).  ``timeout`` is the number of
    seconds the adapter waits without a reply.  A timeout or any other
    ``ModelError`` during an exchange kills and reaps the child, so the next
    call starts a fresh one.  Every row of every call is sent, repeated
    points included.
    """

    def __init__(self, command: Sequence[str] | str, batch_size: int = 64,
                 timeout: float = 60.0):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not timeout > 0:
            raise ValueError("timeout must be > 0")
        self.command = command
        self.batch_size = batch_size
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._next_id = 0
        self._lock = threading.Lock()

    def _ensure_proc(self):
        if self._proc is None or self._proc.poll() is not None:
            self._kill()
            self._proc = subprocess.Popen(
                self.command,
                shell=isinstance(self.command, str),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
            os.set_blocking(self._proc.stdin.fileno(), False)
        return self._proc

    def _kill(self):
        """End the child, reap it and close its pipes."""
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()

    def close(self):
        """Close the child's input, give it 5 s to exit, then kill it.
        The exit is awaited as the end of the child's output, which a
        selector sees at once (``Popen.wait`` with a timeout polls after
        sleeps of 0.5, 1, 2, 4, 8 ms...), or found by a poll every 50 ms
        (a grandchild may hold the output open); then the child is
        reaped."""
        proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.stdin.close()
            deadline = time.monotonic() + 5
            fd = proc.stdout.fileno()
            with selectors.PollSelector() as sel:
                sel.register(fd, selectors.EVENT_READ)
                while (proc.poll() is None
                       and (left := deadline - time.monotonic()) > 0):
                    if (sel.select(min(left, 0.05))
                            and not os.read(fd, 1 << 16)):
                        break
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
        self._kill()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[0] == 0:
            return np.empty(0)
        with self._lock:
            try:
                return self._exchange(pts)
            except BaseException:
                self._kill()  # its pipes may hold stale replies
                raise

    def _exchange(self, rows: np.ndarray) -> np.ndarray:
        """Send one request per row and return the replies in row order."""
        proc = self._ensure_proc()
        first, n = self._next_id, len(rows)
        self._next_id += n
        ys, seen = np.empty(n), bytearray(n)
        answered = queued = 0
        out, tail = memoryview(b""), b""
        rfd, wfd = proc.stdout.fileno(), proc.stdin.fileno()
        with selectors.PollSelector() as sel:
            sel.register(rfd, selectors.EVENT_READ)
            deadline = time.monotonic() + self.timeout
            while answered < n:
                stop = min(n, answered + self.batch_size)
                if not out and stop > queued:
                    out = memoryview(_request_lines(rows[queued:stop],
                                                    first + queued))
                    queued = stop
                if out:
                    try:
                        out = out[os.write(wfd, out):]
                    except BlockingIOError:
                        pass
                    except OSError as e:
                        raise ModelError("subprocess model pipe failure (exit "
                                         f"code {proc.poll()}): {e}") from e
                if out and wfd not in sel.get_map():
                    sel.register(wfd, selectors.EVENT_WRITE)
                elif not out and wfd in sel.get_map():
                    sel.unregister(wfd)
                ready = sel.select(deadline - time.monotonic())
                if not ready:
                    if time.monotonic() >= deadline:
                        raise ModelError("subprocess model sent no reply "
                                         f"within {self.timeout} s")
                    continue
                if not any(key.fd == rfd for key, _ in ready):
                    continue
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    raise ModelError("subprocess model closed its output "
                                     f"stream (exit code {proc.poll()})")
                body, newline, tail = (tail + chunk).rpartition(b"\n")
                if not newline:
                    continue
                ids = range(first, first + queued)
                fast = _REPLY.findall(body)
                if len(fast) == body.count(b"\n") + 1:
                    replies = ((int(rid), float(y)) for rid, y in fast)
                else:
                    replies = (_parse_reply(raw, ids)
                               for raw in body.split(b"\n"))
                for rid, y in replies:
                    if rid not in ids:
                        raise ModelError(f"response id {rid} was never requested")
                    answered += not seen[rid - first]
                    seen[rid - first] = 1
                    ys[rid - first] = y
                deadline = time.monotonic() + self.timeout
        return ys


# A reply line in the form json.dumps writes for an int id and a float y.
# Such a line parses to that id and float(y); any other line goes through
# json.loads and every check in _parse_reply.
_REPLY = re.compile(
    rb'^\{"id": (0|[1-9][0-9]{0,19}), "y": (-?(?:0|[1-9][0-9]*)'
    rb'(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))\}$', re.M)


def _parse_reply(raw: bytes, ids: range) -> tuple[int, float]:
    """(id, y) of one reply line; ModelError unless it answers one of ``ids``."""
    line = raw.decode(errors="replace")
    try:
        msg = json.loads(line)
        rid = int(msg["id"])
    except (ValueError, KeyError, TypeError) as e:
        raise ModelError(f"malformed response line {line!r}") from e
    if "error" in msg:
        raise ModelError(f"model reported error: {msg['error']}")
    if rid not in ids:
        raise ModelError(f"response id {rid} was never requested")
    if not isinstance(msg.get("y"), (int, float)):
        raise ModelError(f"response without numeric 'y': {line!r}")
    return rid, float(msg["y"])


def _request_lines(rows: np.ndarray, first: int) -> bytes:
    """Request lines for ``rows`` with ids from ``first``.

    Each line is ``json.dumps({"id": i, "x": [float(v) for v in row]})``;
    finite floats are formatted with ``repr``, which gives the same bytes,
    and a slice holding NaN or infinities goes through ``json.dumps``.  The
    finite lines take their fields from the ids and the columns' lists,
    zipped: that skips building a tuple per row.
    """
    if np.isfinite(rows).all():
        line = '{"id": %d, "x": [' + ", ".join(["%r"] * rows.shape[1]) + "]}\n"
        text = "".join(map(line.__mod__, zip(range(first, first + len(rows)),
                                             *rows.T.tolist())))
    else:
        text = "".join([json.dumps({"id": i, "x": row}) + "\n"
                        for i, row in enumerate(rows.tolist(), first)])
    return text.encode()


def subprocess_pair(command, input_dist: InputDistribution, f_r,
                    batch_size: int = 64, timeout: float = 60.0) -> ModelPair:
    """ModelPair whose full model runs in an external process."""
    model = SubprocessModel(command, batch_size=batch_size, timeout=timeout)
    return ModelPair(f=model, f_r=f_r, input=input_dist, name="subprocess")
