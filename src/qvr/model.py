"""Model/metamodel pairs, input distributions and builtin toy models.

The central object is :class:`ModelPair`: an expensive model ``f``, a cheap
metamodel ``f_r`` and the input distribution of the random vector X.  All
evaluators are vectorized over a batch of points with shape ``(n, d)``.
"""

from __future__ import annotations

import json
import math
import subprocess
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.stats import lognorm, norm


class ModelError(Exception):
    """Raised when a model evaluation fails (bad input, subprocess trouble)."""


@dataclass(frozen=True)
class Normal:
    """Normal marginal with mean ``mean`` and standard deviation ``stddev``."""

    mean: float
    stddev: float

    def __post_init__(self):
        if not self.stddev > 0:
            raise ValueError(f"stddev must be positive, got {self.stddev}")

    def density(self, x):
        return norm.pdf(x, loc=self.mean, scale=self.stddev)

    def sample(self, rng, count):
        return rng.normal(self.mean, self.stddev, size=count)

    def cdf(self, x):
        return norm.cdf(x, loc=self.mean, scale=self.stddev)


@dataclass(frozen=True)
class Lognormal:
    """Lognormal marginal parameterized by the underlying normal's (mean, stddev).

    ``log_mean``/``log_stddev`` are the moments of log X, not of X itself;
    conversion from target moments of X lives in :mod:`qvr.importance`.
    """

    log_mean: float
    log_stddev: float

    def __post_init__(self):
        if not self.log_stddev > 0:
            raise ValueError(f"log_stddev must be positive, got {self.log_stddev}")

    def density(self, x):
        return lognorm.pdf(x, s=self.log_stddev, scale=math.exp(self.log_mean))

    def sample(self, rng, count):
        return np.exp(rng.normal(self.log_mean, self.log_stddev, size=count))

    def cdf(self, x):
        return lognorm.cdf(x, s=self.log_stddev, scale=math.exp(self.log_mean))


Marginal = Normal | Lognormal


@dataclass(frozen=True)
class InputDistribution:
    """Product distribution of independent univariate marginals."""

    components: tuple[Marginal, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("need at least one component")
        for c in self.components:
            _check_unit_mass(c)

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

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. points, shape (count, d)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        out = np.empty((count, self.dimension))
        for j, c in enumerate(self.components):
            out[:, j] = c.sample(rng, count)
        return out

    def _check_dim(self, pts):
        if pts.shape[-1] != self.dimension:
            raise ModelError(
                f"point dimension {pts.shape[-1]} != distribution dimension {self.dimension}"
            )


def _check_unit_mass(marginal, tol=1e-6):
    """Numerically verify the marginal density integrates to 1."""
    if isinstance(marginal, Normal):
        lo = marginal.mean - 12 * marginal.stddev
        hi = marginal.mean + 12 * marginal.stddev
        mass, _ = integrate.quad(marginal.density, lo, hi, limit=200)
    else:
        # Integrate in log space: x = e^t concentrates the mass on a
        # numerically tame interval.
        lo = marginal.log_mean - 12 * marginal.log_stddev
        hi = marginal.log_mean + 12 * marginal.log_stddev
        mass, _ = integrate.quad(
            lambda t: marginal.density(math.exp(t)) * math.exp(t),
            lo, hi, limit=200)
    if abs(mass - 1.0) > tol:
        raise ValueError(f"marginal density mass {mass} deviates from 1 beyond {tol}")


def standard_normal_input(d: int = 1) -> InputDistribution:
    return InputDistribution(tuple(Normal(0.0, 1.0) for _ in range(d)))


@dataclass(frozen=True)
class ModelPair:
    """Expensive model ``f``, metamodel ``f_r`` and the input distribution.

    Both evaluators map a batch (n, d) to outputs (n,) and must be pure.
    ``closed_form_z_quantile`` maps a probability to the exact quantile of
    Z = f_r(X) when one is available.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_r: Callable[[np.ndarray], np.ndarray]
    input: InputDistribution
    name: str = "custom"
    cost_hint: tuple[float, float] | None = None
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


def evaluate_pair(pair: ModelPair, x) -> tuple[float, float]:
    """Evaluate (f_r(x), f(x)) at a single d-dimensional point."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    z = pair.eval_metamodel(x)
    y = pair.eval_full(x)
    return float(z[0]), float(y[0])


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


def toy1d() -> ModelPair:
    """1D oscillatory model with quadratic metamodel and N(0,1) input."""
    return ModelPair(
        f=_toy1d_f,
        f_r=_toy1d_fr,
        input=standard_normal_input(1),
        name="toy1d",
        closed_form_z_quantile=lambda a: float(norm.ppf((1 + a) / 2) ** 2),
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
        closed_form_z_quantile=lambda a: float(norm.ppf(a)),
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
    Responses may arrive out of order within a batch; a response carrying
    ``"error"`` aborts the run.  Results are cached per exact input bit
    pattern so an identical point is never paid for twice.
    """

    def __init__(self, command: Sequence[str] | str, batch_size: int = 64,
                 timeout: float = 60.0):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.command = command
        self.batch_size = batch_size
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._cache: dict[bytes, float] = {}
        self._next_id = 0
        self._lock = threading.Lock()

    def _ensure_proc(self):
        if self._proc is None or self._proc.poll() is not None:
            shell = isinstance(self.command, str)
            self._proc = subprocess.Popen(
                self.command,
                shell=shell,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def close(self):
        if self._proc is not None and self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
        self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(pts.shape[0])
        with self._lock:
            pending: list[tuple[int, bytes]] = []
            for i in range(pts.shape[0]):
                key = pts[i].tobytes()
                if key in self._cache:
                    out[i] = self._cache[key]
                else:
                    pending.append((i, key))
            for start in range(0, len(pending), self.batch_size):
                chunk = pending[start:start + self.batch_size]
                replies = self._roundtrip([pts[i] for i, _ in chunk])
                for (i, key), y in zip(chunk, replies):
                    self._cache[key] = y
                    out[i] = y
        return out

    def _roundtrip(self, points) -> list[float]:
        proc = self._ensure_proc()
        first = self._next_id
        self._next_id += len(points)
        ids = range(first, self._next_id)  # O(1) membership test per reply
        lines = [json.dumps({"id": rid, "x": [float(v) for v in p]})
                 for rid, p in zip(ids, points)]
        try:
            proc.stdin.write("\n".join(lines) + "\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise ModelError(f"subprocess model pipe failure: {e}") from e
        got: dict[int, float] = {}
        timer = threading.Timer(self.timeout, proc.kill)
        timer.start()
        try:
            while len(got) < len(ids):
                line = proc.stdout.readline()
                if not line:
                    raise ModelError(
                        "subprocess model closed its output stream "
                        f"(exit code {proc.poll()}) or timed out"
                    )
                try:
                    msg = json.loads(line)
                    rid = int(msg["id"])
                except (ValueError, KeyError, TypeError) as e:
                    raise ModelError(f"malformed response line {line!r}") from e
                if "error" in msg:
                    raise ModelError(f"model reported error: {msg['error']}")
                if rid not in ids:
                    raise ModelError(f"response id {rid} was never requested")
                if "y" not in msg or not isinstance(msg["y"], (int, float)):
                    raise ModelError(f"response without numeric 'y': {line!r}")
                got[rid] = float(msg["y"])
        finally:
            timer.cancel()
        return [got[rid] for rid in ids]


def subprocess_pair(command, input_dist: InputDistribution, f_r,
                    batch_size: int = 64, timeout: float = 60.0) -> ModelPair:
    """ModelPair whose full model runs in an external process."""
    model = SubprocessModel(command, batch_size=batch_size, timeout=timeout)
    return ModelPair(f=model, f_r=f_r, input=input_dist, name="subprocess")
