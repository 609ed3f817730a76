"""Replication engine, ground-truth oracles, bootstrap errors and presets.

Turns the estimator modules into reproducible experiments: a JSON-validated
config selects a model and an estimator, replications run on per-replication
random streams (deterministic for a fixed master seed regardless of worker
count), and reports serialize byte-stably to JSON or CSV.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import estimators, importance, strata
from .model import (
    InputDistribution,
    Lognormal,
    ModelPair,
    Normal,
    builtin_model,
    subprocess_pair,
)
from .sampling import (
    AllocationPlan,
    RngStream,
    SamplingError,
    StrataSpec,
    evaluate_full,
    sample_input,
    sample_strata,
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
        "workers": {"type": "integer", "minimum": 1},
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
        "format": {"enum": ["csv", "json"]},
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
    workers: int = 1
    params: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "json"

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        try:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        except jsonschema.ValidationError as e:
            raise ConfigError(f"invalid config: {e.message}") from e
        return ExperimentConfig(
            model=raw["model"],
            estimator=raw["estimator"],
            alpha=raw["alpha"],
            n=raw["n"],
            replications=raw["replications"],
            seed=raw["seed"],
            workers=raw.get("workers", 1),
            params=raw.get("params", {}),
            output=raw.get("output"),
            format=raw.get("format", "json"),
        )

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
    """Quantile of Y from one large plain Monte Carlo sample (exact order
    statistic, no interpolation)."""
    if sample_count < 10**6:
        raise ValueError("sample_count must be at least 1e6")
    x = sample_input(pair.input, stream, sample_count)
    y = np.sort(pair.eval_full(x))
    return float(y[min(int(np.floor(alpha * sample_count)), sample_count - 1)])


# ---------------------------------------------------------------------------
# Per-experiment preparation


def _spec_for(pair: ModelPair, config: ExperimentConfig) -> StrataSpec:
    cutpoints = config.params.get("cutpoints", [0.0, 0.5, 0.9, 0.95, 1.0])
    precision = config.params.get(
        "quantile_precision",
        "closed_form" if pair.closed_form_z_quantile is not None else "mc")
    return strata_from_cutpoints(pair, cutpoints, precision=precision,
                                 stream=RngStream(config.seed, (2**32,)))


def _z_alpha_for(pair: ModelPair, config: ExperimentConfig) -> float:
    if (config.params.get("quantile_precision") != "mc"
            and pair.closed_form_z_quantile is not None):
        return float(pair.closed_form_z_quantile(config.alpha))
    from .sampling import metamodel_quantiles
    return float(metamodel_quantiles(
        pair, [config.alpha], precision="mc", sample_count=10**6,
        stream=RngStream(config.seed, (2**32, 1)))[0])


@dataclass
class _Prepared:
    """Model-independent per-experiment state shared by all replications."""

    pair: ModelPair
    spec: StrataSpec | None = None
    plan: AllocationPlan | None = None
    acs_config: strata.AcsConfig | None = None
    z_alpha: float | None = None
    cis_family: importance.BiasedFamily | None = None
    cis_params: importance.BiasedParams | None = None
    cis_diag: importance.CisDiagnostics | None = None
    cis_member: importance.JointGaussian | InputDistribution | None = None
    cis_mode: str = "tail"


def _prepare(config: ExperimentConfig) -> _Prepared:
    pair = config.build_pair()
    prep = _Prepared(pair=pair)
    est = config.estimator
    if est in ("cv", "cis"):
        prep.z_alpha = _z_alpha_for(pair, config)
    if est in ("ps", "cs", "acs"):
        prep.spec = _spec_for(pair, config)
    if est == "cs":
        alloc = config.params.get("allocation")
        if alloc is None:
            alloc = strata.largest_remainder(prep.spec.widths * config.n)
        if sum(alloc) != config.n:
            raise ConfigError("allocation must sum to n")
        prep.plan = AllocationPlan(tuple(int(a) for a in alloc))
    if est == "acs":
        prep.acs_config = strata.AcsConfig(
            spec=prep.spec,
            n=config.n,
            pilot_per_stratum=config.params.get("pilot_per_stratum",
                                                max(config.n // 10, 1)),
            min_per_stratum=config.params.get("min_per_stratum", 1),
        )
    if est == "cis":
        tag = config.params.get("family", "joint_gaussian")
        base = pair.input if tag == "componentwise_matched" else None
        prep.cis_family = importance.BiasedFamily(tag=tag, base=base)
        prep.cis_mode = config.params.get("mode", "tail")
        prep.cis_params, prep.cis_diag = importance.fit_biased_member(
            pair, prep.cis_family, config.alpha,
            RngStream(config.seed, (2**32, 2)),
            z_alpha=prep.z_alpha,
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


# Points per block of replications: a block of max(1, BLOCK_POINTS // n)
# replications is drawn, evaluated and inverted together, which keeps the
# stacked arrays (and a subprocess model's pending requests) near 1 MB.
BLOCK_POINTS = 16384

# Failures of an estimator on its own sample (the CLI's exit 3).  A
# replication that raises one is recorded and skipped; any other exception,
# a failing model above all, ends the run.
NON_CONVERGENCE_ERRORS = (SamplingError, estimators.EstimatorError,
                          strata.StrataError, importance.ImportanceError)


def _run_block(config: ExperimentConfig, prep: _Prepared, root: RngStream,
               rs: range) -> tuple[list[dict], list[tuple[int, str]]]:
    """Replications ``rs``, each drawn from its own stream ``root.child(r)``.

    The block's draws are stacked so that f (and f_r) run once and the
    quantiles are inverted row-wise; only ACS, whose second phase depends on
    its pilot, runs one replication at a time.  Returns the results of the
    replications that succeeded, in order of r, and the (r, message) of
    every one that failed.
    """
    pair, est, alpha, n = prep.pair, config.estimator, config.alpha, config.n
    errors: list[tuple[int, str]] = []
    if est == "acs":
        results = []
        for r in rs:
            try:
                res = strata.acs_quantile(pair, prep.acs_config, alpha,
                                          root.child(r))
            except NON_CONVERGENCE_ERRORS as e:
                errors.append((r, str(e)))
                continue
            results.append({
                "estimate": res.estimate,
                "beta_tilde": res.beta_tilde.tolist(),
                "realized_fractions": res.realized_fractions.tolist(),
                "n_r": res.draw_count})
        return results, errors
    rows, extras = list(rs), [{} for _ in rs]
    fails: list[str | None] = [None] * len(rows)
    if est == "cs":
        rows, extras, xs = [], [], []
        for r in rs:
            try:
                sample, n_r = sample_strata(pair, prep.spec, prep.plan,
                                            root.child(r))
            except NON_CONVERGENCE_ERRORS as e:
                errors.append((r, str(e)))
                continue
            rows.append(r)
            extras.append({"n_r": n_r})
            xs.append(np.concatenate(sample.x))
        counts = np.asarray(prep.plan.counts)
        if not counts.all():  # as cs_quantile refuses it
            j = int(np.argmin(counts))
            return [], errors + [
                (r, f"stratum {j} has positive weight but no points")
                for r in rows]
        if not rows:
            return [], errors
        fails = [None] * len(rows)
        # Every replication holds its quotas in stratum order.
        y = pair.eval_full(np.concatenate(xs)).reshape(len(rows), n)
        w = np.tile(np.repeat(prep.spec.widths / counts, counts), (len(rows), 1))
        values = estimators.weighted_quantile_rows(y, w, alpha)
    elif est == "cis":
        member = prep.cis_member
        x = np.concatenate([member.sample(root.child(r).child(1).generator(), n)
                            for r in rs])
        w = importance.likelihood_ratio(pair, member, x).reshape(len(rs), n)
        y = pair.eval_full(x).reshape(len(rs), n)
        if prep.cis_mode == "tail":
            values = importance.tail_quantile_rows(y, w, alpha)
        else:
            values = estimators.weighted_quantile_rows(y, w, alpha)
        fails = [importance.UNCOVERED_SUPPORT if bad else None
                 for bad in (w <= 0).any(axis=1)]
    else:  # ee, cv, ps: plain draws from the input distribution
        x = np.concatenate([sample_input(pair.input, root.child(r), n)
                            for r in rs])
        y = pair.eval_full(x).reshape(len(rs), n)
        if est == "ee":
            values = estimators.empirical_quantile_rows(y, alpha)
        else:
            z = pair.eval_metamodel(x).reshape(len(rs), n)
            if est == "cv":
                w = estimators.cv_weight_rows(z, prep.z_alpha, alpha)
                values = estimators.weighted_quantile_rows(y, w, alpha)
            else:
                values, empty = estimators.ps_quantile_rows(
                    y, prep.spec.stratum_of(z), prep.spec.widths, alpha)
                fails = [f"stratum {j} is empty" if j >= 0 else None
                         for j in empty]
    errors += [(r, msg) for r, msg in zip(rows, fails) if msg is not None]
    return [{"estimate": float(v), **extra}
            for v, extra, msg in zip(values, extras, fails)
            if msg is None], errors


def run_replications(config: ExperimentConfig) -> ReplicationReport:
    """R independent replications, each on the stream path [replication_id].

    Replications run in blocks (see ``_run_block``); with ``workers`` > 1
    the blocks are spread over a thread pool.  A replication that fails with
    one of ``NON_CONVERGENCE_ERRORS`` is recorded, not fatal, unless every
    replication fails; any other error, such as a ``ModelError`` from a
    dead simulator, propagates.
    """
    prep = _prepare(config)
    root = RngStream(config.seed)
    size = max(1, BLOCK_POINTS // config.n)
    blocks = [range(start, min(start + size, config.replications))
              for start in range(0, config.replications, size)]

    def work(rs: range):
        return _run_block(config, prep, root, rs)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(work, blocks))
    else:
        outcomes = [work(rs) for rs in blocks]
    ok = [res for results, _ in outcomes for res in results]
    errors = sorted(e for _, errs in outcomes for e in errs)
    if not ok:
        raise ConfigError("every replication failed; first error: "
                          + (errors[0][1] if errors else "unknown"))
    est = np.array([res["estimate"] for res in ok])
    report = ReplicationReport(
        config=config,
        estimates=est,
        mean=float(est.mean()),
        std=float(est.std(ddof=1)) if len(est) > 1 else 0.0,
        sem=float(est.std(ddof=1) / np.sqrt(len(est))) if len(est) > 1 else 0.0,
        errors=errors,
    )
    if "beta_tilde" in ok[0]:
        bt = np.array([res["beta_tilde"] for res in ok])
        rf = np.array([res["realized_fractions"] for res in ok])
        report.beta_tilde_mean = [float(v) for v in bt.mean(axis=0)]
        report.beta_tilde_std = [float(v) for v in bt.std(axis=0, ddof=1)]
        report.realized_mean = [float(v) for v in rf.mean(axis=0)]
        report.realized_std = [float(v) for v in rf.std(axis=0, ddof=1)]
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


_BOOTSTRAP_SCHEME = {"ee": "iid", "cv": "iid", "ps": "iid",
                     "cs": "within_strata", "acs": "within_strata",
                     "cis": "weighted"}


def _bootstrap(n: int, sizes: list[int], invert, B: int,
               rng: np.random.Generator) -> tuple[float, float]:
    """(estimate, bootstrap std) of a sample of n records.

    Each group of ``sizes`` (the strata, or the whole sample) is resampled
    within itself, with the draws of ``bootstrap_std``, in chunks of
    ``BLOCK_POINTS`` points; ``invert`` maps a chunk's (c, n) record
    indices, one resample per row, to c estimates.
    """
    if B < 100:
        raise ValueError("bootstrap needs at least 100 resamples")
    starts = np.cumsum(sizes) - sizes
    vals = np.empty(B)
    chunk = max(1, BLOCK_POINTS // n)
    for start in range(0, B, chunk):
        c = min(chunk, B - start)
        if len(sizes) == 1:
            rows = rng.integers(0, n, (c, n))  # = c draws of n each
        else:
            rows = np.array([np.concatenate([s + rng.integers(0, k, k)
                                             for s, k in zip(starts, sizes)])
                             for _ in range(c)])
        vals[start:start + c] = invert(rows)
    return float(invert(np.arange(n)[None])[0]), float(vals.std(ddof=1))


def estimate_with_bootstrap(config: ExperimentConfig, B: int = 500) -> dict:
    """One estimator run plus a design-respecting bootstrap standard error.

    The resampling scheme follows the sampling design: plain records for
    EE/CV/PS, within-stratum for CS/ACS, (y, w) pairs for the reweighted
    estimator.  Resamples, drawn as ``bootstrap_std`` draws them, are
    inverted row-wise with the bits of the one-sample estimators, except
    where tied outputs of different weights sum in another order (see
    ``qvr.estimators``).
    """
    prep = _prepare(config)
    pair, est, alpha, n = prep.pair, config.estimator, config.alpha, config.n
    root = RngStream(config.seed)
    run_stream, boot_stream = root.child(0), root.child(1)
    sizes, extras, invert = [n], {}, None
    if est == "ee":
        y = pair.eval_full(sample_input(pair.input, run_stream, n))
        invert = lambda rows: estimators.empirical_quantile_rows(y[rows], alpha)
    elif est in ("cv", "ps"):
        s = estimators.draw_paired_sample(pair, run_stream, n)
        y, z = s.y, s.z
        if est == "cv":
            below = z <= prep.z_alpha
            weights = lambda ids: estimators.cv_indicator_weight_rows(
                below[ids], alpha)
        else:
            strat = prep.spec.stratum_of(z)

            def invert(rows):
                srt = by_y(rows)
                values, empty = estimators.ps_quantile_sorted_rows(
                    y[srt], strat[srt], prep.spec.widths, alpha)
                if empty.max() >= 0:
                    raise estimators.EstimatorError(
                        f"stratum {empty[empty >= 0][0]} is empty")
                return values
    elif est in ("cs", "acs"):
        if est == "cs":
            sample, extras["n_r"] = sample_strata(pair, prep.spec, prep.plan,
                                                  run_stream)
            ys = evaluate_full(pair, sample).y
        else:
            res = strata.acs_quantile(pair, prep.acs_config, alpha, run_stream)
            extras.update(n_r=res.draw_count,
                          beta_tilde=res.beta_tilde.tolist(),
                          realized_fractions=res.realized_fractions.tolist())
            ys = res.sample.y
        # Empty strata drop out of the pool; the rest is renormalized.
        counts = np.array([len(yj) for yj in ys])
        y, sizes = np.concatenate(ys), counts[counts > 0].tolist()
        w = np.repeat(prep.spec.widths / np.maximum(counts, 1), counts)
        weights = lambda ids: w[ids]
    else:  # cis
        res = importance.cis_quantile(pair, prep.cis_family, alpha, n,
                                      run_stream, params=prep.cis_params,
                                      diagnostics=prep.cis_diag,
                                      mode=prep.cis_mode)
        y, w = res.sample.y, res.sample.w
        weights = lambda ids: w[ids]
        if prep.cis_mode == "tail":
            def invert(rows):
                srt = by_y(rows)
                return importance.tail_quantile_sorted_rows(
                    y[srt], weights(srt), alpha)
    # y is sorted once; a resample then sorts its records' ranks, small ints.
    order = np.argsort(y, kind="stable")
    rank = np.argsort(order).astype(np.int32)
    by_y = lambda rows: order[np.sort(rank[rows], axis=1)]
    if invert is None:
        def invert(rows):  # normalized by the total in resample order
            srt = by_y(rows)
            return estimators.weighted_quantile_sorted_rows(
                y[srt], weights(srt), weights(rows).sum(axis=1, keepdims=True),
                alpha)
    point, std = _bootstrap(len(y), sizes, invert, B, boot_stream.generator())
    return {"estimator": est, "alpha": alpha, "n": n, "estimate": point,
            "bootstrap_std": std, "resamples": B,
            "scheme": _BOOTSTRAP_SCHEME[est], **extras}


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


def preset_configs(name: str, replications: int | None = None, seed: int = 0,
                   workers: int = 1) -> dict[str, ExperimentConfig]:
    """Named experiment suites replicating the published toy benchmarks."""

    def cfg(model, est, n, reps, **params):
        return ExperimentConfig(model=model, estimator=est, alpha=0.95, n=n,
                                replications=replications or reps, seed=seed,
                                workers=workers, params=params)

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


def run_preset(name: str, replications: int | None = None, seed: int = 0,
               workers: int = 1) -> dict[str, ReplicationReport]:
    return {label: run_replications(c)
            for label, c in preset_configs(name, replications, seed,
                                           workers).items()}
