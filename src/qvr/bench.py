"""Replication engine, ground-truth oracles, bootstrap errors and presets.

Turns the estimator modules into reproducible experiments: a JSON-validated
config selects a model and an estimator, replications run on per-replication
random streams (deterministic for a fixed master seed regardless of how
they are grouped into blocks), and reports serialize byte-stably to JSON or
CSV.  Both the replications and the bootstrap run each estimator's draw and
inversion from ``qvr.designs``: a block of replications inverts its draw one
row per replication, and the bootstrap draws replication 0 and inverts it
and its resamples.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import estimators, importance, strata
from .designs import DESIGNS
from .model import (
    InputDistribution,
    Lognormal,
    ModelPair,
    Normal,
    builtin_model,
    subprocess_pair,
)
from .sampling import (
    BLOCK_POINTS,
    AllocationPlan,
    RngStream,
    StrataSpec,
    metamodel_quantiles,
    sample_input,
    strata_from_cutpoints,
)


class ConfigError(Exception):
    pass


_MARGINAL_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "family": {"const": "normal"},
                "mean": {"type": "number"},
                "stddev": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["family", "mean", "stddev"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "family": {"const": "lognormal"},
                "log_mean": {"type": "number"},
                "log_stddev": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["family", "log_mean", "log_stddev"],
            "additionalProperties": False,
        },
    ],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "model": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "properties": {
                        "command": {"type": "string"},
                        "metamodel_command": {"type": "string"},
                        "input": {"type": "array", "items": _MARGINAL_SCHEMA,
                                  "minItems": 1},
                        "batch_size": {"type": "integer", "minimum": 1},
                        "timeout": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["command", "metamodel_command", "input"],
                    "additionalProperties": False,
                },
            ]
        },
        "estimator": {"enum": ["ee", "cv", "ps", "cs", "acs", "cis"]},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "n": {"type": "integer", "minimum": 2},
        "replications": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "params": {
            "type": "object",
            "properties": {
                "cutpoints": {"type": "array", "items": {"type": "number"},
                              "minItems": 3},
                "allocation": {"type": "array",
                               "items": {"type": "integer", "minimum": 0}},
                "pilot_per_stratum": {"type": "integer", "minimum": 1},
                "min_per_stratum": {"type": "integer", "minimum": 1},
                "quantile_precision": {"enum": ["closed_form", "mc"]},
                "family": {"enum": ["joint_gaussian", "componentwise_matched"]},
                "pilot_count": {"type": "integer", "minimum": 1000},
                "tail": {"enum": ["upper", "lower"]},
                "selection": {"enum": ["variance", "moment"]},
                "mode": {"enum": ["tail", "self_normalized"]},
            },
            "additionalProperties": False,
        },
        "output": {"type": "string"},
    },
    "required": ["model", "estimator", "alpha", "n", "replications", "seed"],
    "additionalProperties": False,
}


def _marginal_from_dict(d: dict):
    if d["family"] == "normal":
        return Normal(d["mean"], d["stddev"])
    return Lognormal(d["log_mean"], d["log_stddev"])


@dataclass(frozen=True)
class ExperimentConfig:
    model: str | dict
    estimator: str
    alpha: float
    n: int
    replications: int
    seed: int
    params: dict = field(default_factory=dict)
    output: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        try:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        except jsonschema.ValidationError as e:
            raise ConfigError(f"invalid config: {e.message}") from e
        return ExperimentConfig(**raw)

    def build_pair(self) -> ModelPair:
        if isinstance(self.model, str):
            return builtin_model(self.model)
        dist = InputDistribution(tuple(
            _marginal_from_dict(m) for m in self.model["input"]))
        from .model import SubprocessModel
        meta = SubprocessModel(self.model["metamodel_command"],
                               batch_size=self.model.get("batch_size", 64),
                               timeout=self.model.get("timeout", 60.0))
        return subprocess_pair(self.model["command"], dist, meta,
                               batch_size=self.model.get("batch_size", 64),
                               timeout=self.model.get("timeout", 60.0))


# ---------------------------------------------------------------------------
# Ground truth


def ground_truth_quantile(pair: ModelPair, alpha: float, sample_count: int,
                          stream: RngStream) -> float:
    """Quantile of Y from one large plain Monte Carlo sample: its exact
    (floor(alpha N) + 1)-th order statistic, as ``empirical_quantile``
    takes it, no interpolation."""
    if sample_count < 10**6:
        raise ValueError("sample_count must be at least 1e6")
    x = sample_input(pair.input, stream, sample_count)
    return float(estimators.empirical_quantile_rows(pair.eval_full(x)[None],
                                                    alpha)[0])


# ---------------------------------------------------------------------------
# Per-experiment preparation


def _precision(pair: ModelPair, config: ExperimentConfig) -> str:
    """How the metamodel quantiles of ``config`` are taken: the configured
    ``quantile_precision``, by default "closed_form" when the model has one
    and "mc" otherwise.  "closed_form" on a model without one is refused
    (``ValueError``) by ``metamodel_quantiles``."""
    return config.params.get(
        "quantile_precision",
        "closed_form" if pair.closed_form_z_quantile is not None else "mc")


def _spec_for(pair: ModelPair, config: ExperimentConfig) -> StrataSpec:
    cutpoints = config.params.get("cutpoints", [0.0, 0.5, 0.9, 0.95, 1.0])
    return strata_from_cutpoints(pair, cutpoints,
                                 precision=_precision(pair, config),
                                 stream=RngStream(config.seed, (2**32,)))


def _z_alpha_for(pair: ModelPair, config: ExperimentConfig) -> float:
    return float(metamodel_quantiles(
        pair, [config.alpha], _precision(pair, config),
        stream=RngStream(config.seed, (2**32, 1)))[0])


def _cs_plan(spec: StrataSpec, config: ExperimentConfig) -> AllocationPlan:
    """The configured ``allocation``, by default the stratum widths times n
    rounded by largest remainder, with at least one point per stratum (each
    taken from the largest count, the first on ties): one count per
    stratum, summing to n."""
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
    return AllocationPlan(tuple(int(a) for a in alloc))


@dataclass
class _Prepared:
    """Model-independent per-experiment state shared by all replications."""

    pair: ModelPair
    alpha: float
    n: int
    spec: StrataSpec | None = None
    plan: AllocationPlan | None = None
    acs_config: strata.AcsConfig | None = None
    z_alpha: float | None = None
    cis_family: importance.BiasedFamily | None = None
    cis_params: importance.BiasedParams | None = None
    cis_member: importance.JointGaussian | InputDistribution | None = None
    cis_mode: str = "tail"


@contextlib.contextmanager
def _open_pair(config: ExperimentConfig):
    """The model pair of ``config``; on exit, whether its use failed or not,
    closes each of the pair's evaluators that has a ``close`` (the
    simulators of an external model)."""
    pair = config.build_pair()
    try:
        yield pair
    finally:
        for evaluator in (pair.f, pair.f_r):
            if hasattr(evaluator, "close"):
                evaluator.close()


@contextlib.contextmanager
def _prepared(config: ExperimentConfig):
    """``_prepare`` on the pair of ``_open_pair(config)``."""
    with _open_pair(config) as pair:
        yield _prepare(config, pair)


def _prepare(config: ExperimentConfig, pair: ModelPair) -> _Prepared:
    prep = _Prepared(pair=pair, alpha=config.alpha, n=config.n)
    est = config.estimator
    if est in ("cv", "cis"):
        prep.z_alpha = _z_alpha_for(pair, config)
    if est in ("ps", "cs", "acs"):
        prep.spec = _spec_for(pair, config)
    if est == "cs":
        prep.plan = _cs_plan(prep.spec, config)
        if 0 in prep.plan.counts:  # as cs_quantile refuses it
            raise ConfigError(f"stratum {prep.plan.counts.index(0)} has "
                              "positive weight but no points")
    if est == "acs":
        prep.acs_config = strata.AcsConfig(
            spec=prep.spec,
            n=config.n,
            pilot_per_stratum=config.params.get("pilot_per_stratum"),
            min_per_stratum=config.params.get("min_per_stratum", 1),
        )
    if est == "cis":
        tag = config.params.get("family", "joint_gaussian")
        base = pair.input if tag == "componentwise_matched" else None
        prep.cis_family = importance.BiasedFamily(tag=tag, base=base)
        prep.cis_mode = config.params.get("mode", "tail")
        prep.cis_params, _ = importance.fit_biased_member(
            pair, prep.cis_family, prep.z_alpha,
            RngStream(config.seed, (2**32, 2)),
            pilot_count=config.params.get("pilot_count", 200_000),
            tail=config.params.get("tail", "upper"),
            selection=config.params.get("selection", "variance"),
        )
        prep.cis_member = prep.cis_family.member(prep.cis_params)
    return prep


# ---------------------------------------------------------------------------
# Replication engine


@dataclass
class ReplicationReport:
    config: ExperimentConfig
    estimates: np.ndarray
    mean: float
    std: float
    sem: float
    errors: list[tuple[int, str]]
    beta_tilde_mean: list[float] | None = None
    beta_tilde_std: list[float] | None = None
    realized_mean: list[float] | None = None
    realized_std: list[float] | None = None
    n_r_mean: float | None = None
    histogram_edges: list[float] | None = None
    histogram_counts: list[int] | None = None

    def to_dict(self) -> dict:
        d = {
            "estimator": self.config.estimator,
            "model": self.config.model,
            "alpha": self.config.alpha,
            "n": self.config.n,
            "replications": self.config.replications,
            "seed": self.config.seed,
            "mean": self.mean,
            "std": self.std,
            "sem": self.sem,
            "estimates": [float(e) for e in self.estimates],
            "errors": [list(e) for e in self.errors],
        }
        for key in ("beta_tilde_mean", "beta_tilde_std", "realized_mean",
                    "realized_std", "n_r_mean", "histogram_edges",
                    "histogram_counts"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        return d


def _run_block(config: ExperimentConfig, prep: _Prepared, root: RngStream,
               rs: range) -> tuple[list[dict], list[tuple[int, str]]]:
    """Replications ``rs``, each drawn from its own stream ``root.child(r)``.

    The design draws the block at once, so that f runs once per block (acs:
    once per phase) and f_r once per rejection pass, and inverts one row per
    replication, sorted by a stable argsort.  Returns the results of the
    replications that succeeded, in order of r, and the (r, message) of
    every one that failed.
    """
    design = DESIGNS[config.estimator]
    y, aux, runs = design.draw(prep, [root.child(r) for r in rs])
    errors = [(r, str(run)) for r, run in zip(rs, runs)
              if isinstance(run, Exception)]
    drawn = [(r, run[1]) for r, run in zip(rs, runs)
             if not isinstance(run, Exception)]
    values, fails = design.invert(
        prep, y, aux, np.arange(len(y)).reshape(len(drawn), config.n),
        lambda rows: estimators._take_rows(
            rows, np.argsort(y[rows], axis=1, kind="stable")))
    errors += [(drawn[i][0], str(e)) for i, e in fails.items()]
    return [{"estimate": float(v), **extras}
            for i, (v, (_, extras)) in enumerate(zip(values, drawn))
            if i not in fails], errors


def _std(a: np.ndarray) -> np.ndarray:
    """Sample std along the first axis, 0 for one row (JSON has no NaN)."""
    return a.std(axis=0, ddof=1) if len(a) > 1 else np.zeros(a.shape[1:])


def run_replications(config: ExperimentConfig) -> ReplicationReport:
    """R independent replications, each on the stream path [replication_id].

    Replications run in blocks, one after another (see ``_run_block``).  A
    replication that fails with one of ``designs.NON_CONVERGENCE_ERRORS`` is
    recorded, not fatal, unless every replication fails; any other error,
    such as a ``ModelError`` from a dead simulator, propagates.
    """
    root = RngStream(config.seed)
    size = max(1, BLOCK_POINTS // config.n)
    blocks = [range(start, min(start + size, config.replications))
              for start in range(0, config.replications, size)]
    with _prepared(config) as prep:
        outcomes = [_run_block(config, prep, root, rs) for rs in blocks]
    ok = [res for results, _ in outcomes for res in results]
    errors = sorted(e for _, errs in outcomes for e in errs)
    if not ok:
        raise ConfigError("every replication failed; first error: "
                          + (errors[0][1] if errors else "unknown"))
    est = np.array([res["estimate"] for res in ok])
    std = float(_std(est))
    report = ReplicationReport(
        config=config,
        estimates=est,
        mean=float(est.mean()),
        std=std,
        sem=float(std / np.sqrt(len(est))),
        errors=errors,
    )
    if "beta_tilde" in ok[0]:
        bt = np.array([res["beta_tilde"] for res in ok])
        rf = np.array([res["realized_fractions"] for res in ok])
        report.beta_tilde_mean = [float(v) for v in bt.mean(axis=0)]
        report.beta_tilde_std = [float(v) for v in _std(bt)]
        report.realized_mean = [float(v) for v in rf.mean(axis=0)]
        report.realized_std = [float(v) for v in _std(rf)]
    if "n_r" in ok[0]:
        report.n_r_mean = float(np.mean([res["n_r"] for res in ok]))
    edges = np.histogram_bin_edges(est, bins="fd")
    counts, _ = np.histogram(est, bins=edges)
    report.histogram_edges = [float(e) for e in edges]
    report.histogram_counts = [int(c) for c in counts]
    return report


# ---------------------------------------------------------------------------
# Bootstrap


@dataclass(frozen=True)
class BootstrapReport:
    point_estimate: float
    std: float
    resamples: int
    scheme: str


def bootstrap_std(data, estimate_fn, scheme: str, B: int,
                  stream: RngStream) -> BootstrapReport:
    """Standard error of one estimator run by resampling its own sample.

    scheme "iid": data is an array (or tuple of same-length arrays) resampled
    jointly with replacement.  scheme "within_strata": data is a
    StratifiedSample; indices are resampled inside each stratum, preserving
    the per-stratum counts.  scheme "weighted": data is a (y, w) pair
    resampled jointly.  ``estimate_fn`` maps the resampled data to a float.
    """
    if B < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    rng = stream.generator()
    vals = np.empty(B)
    if scheme == "iid":
        arrays = data if isinstance(data, tuple) else (data,)
        size = len(arrays[0])
        for b in range(B):
            idx = rng.integers(0, size, size)
            pick = tuple(a[idx] for a in arrays)
            vals[b] = estimate_fn(pick if isinstance(data, tuple) else pick[0])
    elif scheme == "within_strata":
        for b in range(B):
            y = [yj[rng.integers(0, len(yj), len(yj))] if len(yj) else yj
                 for yj in data.y]
            vals[b] = estimate_fn(y)
    elif scheme == "weighted":
        y, w = data
        size = len(y)
        for b in range(B):
            idx = rng.integers(0, size, size)
            vals[b] = estimate_fn((y[idx], w[idx]))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    point = estimate_fn(data if scheme != "within_strata" else data.y)
    return BootstrapReport(point_estimate=float(point),
                           std=float(vals.std(ddof=1)),
                           resamples=B, scheme=scheme)


def estimate_with_bootstrap(config: ExperimentConfig, B: int = 500) -> dict:
    """Replication 0 of ``run_replications`` plus a bootstrap standard error.

    Resamples follow the design's ``scheme`` (see ``bootstrap_std``) with
    its draws, in chunks of ``BLOCK_POINTS`` points; each is put in order by
    sorting its records' ranks and inverted by the design, with the bits of
    the one-sample estimators except where tied outputs of different
    weights sum in another order (see ``qvr.estimators``).  The first
    resample (or else the run) that defeats its estimator raises its error.
    """
    if B < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    design = DESIGNS[config.estimator]
    root = RngStream(config.seed)
    with _prepared(config) as prep:  # the inversions call no model
        y, aux, (run,) = design.draw(prep, [root.child(0)])
    if isinstance(run, Exception):
        raise run
    sizes, extras = run
    # y is sorted once; a resample then sorts its records' ranks, small ints.
    order = np.argsort(y, kind="stable")
    rank = np.argsort(order).astype(np.int32)

    def invert(rows):
        values, fails = design.invert(
            prep, y, aux, rows, lambda rows: order[np.sort(rank[rows], axis=1)])
        if fails:
            raise fails[min(fails)]
        return values

    n, rng = len(y), root.child(1).generator()
    # Record j of a resample is drawn within its stratum: the stratum's
    # first record plus an integer below its size.  One broadcast call per
    # chunk gives the integers of a loop over resamples and strata.
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    size_of = np.repeat(sizes, sizes)
    vals = np.empty(B)
    chunk = max(1, BLOCK_POINTS // n)
    for start in range(0, B, chunk):
        c = min(chunk, B - start)
        if len(sizes) == 1:
            rows = rng.integers(0, n, (c, n))  # the same integers, faster
        else:
            rows = first + rng.integers(0, np.broadcast_to(size_of, (c, n)))
        vals[start:start + c] = invert(rows)
    return {"estimator": config.estimator, "alpha": config.alpha,
            "n": config.n, "estimate": float(invert(np.arange(n)[None])[0]),
            "bootstrap_std": float(vals.std(ddof=1)), "resamples": B,
            "scheme": design.scheme, **extras}


# ---------------------------------------------------------------------------
# Reports and presets


def emit_report(reports, fmt: str, path: str | None = None) -> str:
    """Serialize one report or a {label: report} mapping; byte-stable.

    JSON: sorted keys.  CSV: columns method, quantity, mean, std.
    Returns the serialized text; writes it to ``path`` when given.
    """
    if not isinstance(reports, dict):
        reports = {reports.config.estimator: reports}
    if fmt == "json":
        payload = {label: r.to_dict() for label, r in reports.items()}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "quantity", "mean", "std"])
        for label, r in reports.items():
            writer.writerow([label, "quantile", repr(r.mean), repr(r.std)])
            if r.realized_mean is not None:
                for j, (m, s) in enumerate(zip(r.realized_mean, r.realized_std)):
                    writer.writerow([label, f"allocation_{j + 1}",
                                     repr(m), repr(s)])
            if r.n_r_mean is not None:
                writer.writerow([label, "metamodel_draws", repr(r.n_r_mean), ""])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


_TOY1D_CUTS = [0.0, 0.5, 0.9, 0.95, 1.0]
_ACS3_CUTS = [0.0, 0.85, 0.95, 1.0]


def preset_configs(name: str, replications: int | None = None,
                   seed: int = 0) -> dict[str, ExperimentConfig]:
    """Named experiment suites replicating the published toy benchmarks;
    ``replications``, when given, overrides every suite's count."""
    if replications is not None and replications < 1:
        raise ConfigError("replications must be at least 1")

    def cfg(model, est, n, reps, **params):
        return ExperimentConfig(
            model=model, estimator=est, alpha=0.95, n=n,
            replications=reps if replications is None else replications,
            seed=seed, params=params)

    if name == "fig1":
        return {
            "ee": cfg("toy1d", "ee", 200, 10**4),
            "cv": cfg("toy1d", "cv", 200, 10**4),
            "cs": cfg("toy1d", "cs", 200, 10**4, cutpoints=_TOY1D_CUTS,
                      allocation=[50, 50, 50, 50]),
        }
    if name == "table1":
        return {
            "ee": cfg("toy1d", "ee", 2000, 10**4),
            "cv": cfg("toy1d", "cv", 2000, 10**4),
            "acs2": cfg("toy1d", "acs", 2000, 10**4,
                        cutpoints=[0.0, 0.95, 1.0]),
            "acs3": cfg("toy1d", "acs", 2000, 10**4, cutpoints=_ACS3_CUTS),
        }
    if name == "table2":
        return {
            "ee": cfg("toy1d", "ee", 200, 10**4),
            "cv": cfg("toy1d", "cv", 200, 10**4),
            "acs3": cfg("toy1d", "acs", 200, 10**4, cutpoints=_ACS3_CUTS),
        }
    if name == "fig2":
        return {
            "ee": cfg("toy2d", "ee", 200, 5000),
            "cv": cfg("toy2d", "cv", 200, 5000),
            "cs": cfg("toy2d", "cs", 200, 5000, cutpoints=_TOY1D_CUTS,
                      allocation=[50, 50, 50, 50]),
            "cis": cfg("toy2d", "cis", 200, 5000),
        }
    raise ConfigError(f"unknown preset {name!r}")


def run_preset(name: str, replications: int | None = None,
               seed: int = 0) -> dict[str, ReplicationReport]:
    return {label: run_replications(c)
            for label, c in preset_configs(name, replications, seed).items()}
