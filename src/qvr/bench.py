"""Replication engine, ground-truth oracles, bootstrap errors and presets.

Turns the estimator modules into reproducible experiments: a config,
checked where it is built, selects a model and an estimator, replications
run on per-replication random streams (deterministic for a fixed master
seed however ``_blocks`` groups them), and reports serialize byte-stably to
JSON or CSV.  Both the replications and the bootstrap run each estimator's
draw and inversion from ``qvr.designs``: a block of replications inverts
its draw one row per replication, and the bootstrap draws replication 0 and
inverts it and its resamples in chunks that ``_blocks`` also sizes.  The
presets of ``qvr bench`` are one table, ``PRESETS``: label -> config.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import designs, estimators
from .designs import DESIGNS, ConfigError
from .model import (InputDistribution, Lognormal, ModelPair, Normal,
                    SubprocessModel, builtin_model, subprocess_pair)
from .sampling import BLOCK_POINTS, RngStream, StreamBlock, evaluate_sample


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(low: int):
    return ((lambda v: type(v) is int and v >= low),
            f"an integer at least {low}")


def _one_of(*values):
    return (lambda v: v in values), f"one of {list(values)}"


def _list_of(ok, least: int, what: str):
    return (lambda v: isinstance(v, (list, tuple)) and len(v) >= least
            and all(map(ok, v))), what


# The rule of each field, external model key and param: (test, what it is).
_STRING = (lambda v: isinstance(v, str)), "a string"
_FIELDS = {
    "model": ((lambda v: isinstance(v, (str, dict))), "a name or an object"),
    "estimator": _one_of(*DESIGNS),
    "alpha": ((lambda v: _number(v) and 0 < v < 1), "a number in (0, 1)"),
    "n": _integer(2),
    "replications": _integer(1),
    "seed": _integer(0),
    "params": ((lambda v: isinstance(v, dict)), "an object"),
    "output": ((lambda v: v is None or isinstance(v, str)), "a string"),
}
_REQUIRED = ("model", "estimator", "alpha", "n", "replications", "seed")
_MARGINALS = {"normal": Normal, "lognormal": Lognormal}
_EXTERNAL = {
    "command": _STRING,
    "metamodel_command": _STRING,
    "input": _list_of(lambda m: isinstance(m, dict) and m.get("family") in
                      tuple(_MARGINALS), 1, "a nonempty list of marginals"),
    "batch_size": _integer(1),
    "timeout": ((lambda v: _number(v) and v > 0), "a positive number"),
}
_PARAMS = {
    "cutpoints": _list_of(_number, 3, "a list of 3 or more numbers"),
    "allocation": _list_of(lambda a: type(a) is int and a >= 0, 0,
                           "a list of integers at least 0"),
    "pilot_per_stratum": _integer(1),
    "min_per_stratum": _integer(1),
    "quantile_precision": _one_of("closed_form", "mc"),
    "family": _one_of("joint_gaussian", "componentwise_matched"),
    "pilot_count": _integer(1000),
    "tail": _one_of("upper", "lower"),
    "selection": _one_of("variance", "moment"),
    "mode": _one_of("tail", "self_normalized"),
}


def _check(raw: dict, rules: dict, where: str, required=(),
           foreign="unknown key"):
    """Refuse a missing ``required`` key, a key without a rule (as
    ``foreign``) and a value that breaks its key's rule."""
    for key in required:
        if key not in raw:
            raise ConfigError(f"invalid config: {where}{key!r} is missing")
    for key, value in raw.items():
        if key not in rules:
            raise ConfigError(f"invalid config: {foreign} {where}{key!r}")
        ok, what = rules[key]
        if not ok(value):
            raise ConfigError(f"invalid config: {where}{key}: {value!r} is "
                              f"not {what}")


def _external_input(model: dict) -> InputDistribution:
    """The input distribution of a checked external model object; each
    marginal checks its own keys and the ranges of its parameters."""
    _check(model, _EXTERNAL, "model.", ("command", "metamodel_command",
                                        "input"))
    marginals = []
    for i, raw in enumerate(model["input"]):
        args = {k: v for k, v in raw.items() if k != "family"}
        _check(args, dict.fromkeys(args, (_number, "a number")),
               f"model.input[{i}].")
        try:
            marginals.append(_MARGINALS[raw["family"]](**args))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid config: model.input[{i}]: {e}") from e
    return InputDistribution(tuple(marginals))


def _read_only(self, *args, **kwargs):
    raise TypeError("a built config cannot change")


class _FrozenDict(dict):
    """A dict that refuses every change once built; it compares equal to,
    and serializes to JSON as, the dict it copies."""

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


class _FrozenList(list):
    """A list that refuses every change once built, as ``_FrozenDict``."""

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = _read_only
    pop = remove = reverse = sort = _read_only

    def __reduce__(self):
        return type(self), (list(self),)


def _frozen(value):
    """A read-only deep copy of a JSON-like value."""
    if isinstance(value, dict):
        return _FrozenDict((k, _frozen(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return (_FrozenList if isinstance(value, list) else tuple)(
            map(_frozen, value))
    return value


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

    def __post_init__(self):
        """The one check of a config, however it is built: each value's type
        and range, and that the estimator reads each param given.  The
        config keeps read-only copies of the ``model`` and ``params`` it is
        given, so that no later change, to the caller's objects or to the
        config's, can skip this check."""
        for key in ("model", "params"):
            object.__setattr__(self, key, _frozen(getattr(self, key)))
        _check(vars(self), _FIELDS, "")
        _check(self.params,
               {k: _PARAMS[k] for k in DESIGNS[self.estimator].params},
               "params.", foreign=f"{self.estimator} does not read")
        if isinstance(self.model, dict):
            _external_input(self.model)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """The config of a JSON object, which holds every required key and
        no other."""
        if not isinstance(raw, dict):
            raise ConfigError(f"invalid config: {raw!r} is not an object")
        _check(raw, _FIELDS, "", _REQUIRED)
        return ExperimentConfig(**raw)

    def build_pair(self) -> ModelPair:
        if isinstance(self.model, str):
            return builtin_model(self.model)
        dist = _external_input(self.model)
        opts = {k: self.model[k] for k in ("batch_size", "timeout")
                if k in self.model}
        meta = SubprocessModel(self.model["metamodel_command"], **opts)
        return subprocess_pair(self.model["command"], dist, meta, **opts)


# ---------------------------------------------------------------------------
# Ground truth


def ground_truth_quantile(pair: ModelPair, alpha: float, sample_count: int,
                          stream: RngStream) -> float:
    """Quantile of Y from one large plain Monte Carlo sample: its exact
    (floor(alpha N) + 1)-th order statistic, as ``empirical_quantile``
    takes it, no interpolation."""
    if sample_count < 10**6:
        raise ValueError("sample_count must be at least 1e6")
    y = evaluate_sample(pair.input, stream, sample_count, pair.eval_full)
    return float(estimators.empirical_quantile_rows(y, alpha)[0])


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
    """The design's preparation of ``config`` on ``_open_pair(config)``."""
    with _open_pair(config) as pair:
        yield DESIGNS[config.estimator].prepare(pair, config)


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
        """The config's required keys and every report field that is set."""
        d = {key: getattr(self.config, key) for key in _REQUIRED}
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name != "config" and val is not None:
                d[f.name] = (val.tolist() if isinstance(val, np.ndarray)
                             else val)
        return d


def _blocks(count: int, n: int) -> list[range]:
    """``range(count)`` in runs of the n-point rows that fit in BLOCK_POINTS
    (one at least): the replication blocks and the bootstrap's chunks."""
    size = max(1, BLOCK_POINTS // n)
    return [range(start, min(start + size, count))
            for start in range(0, count, size)]


# A block's record: the estimates of the replications that succeeded, in
# order of r, the design's extras of the same replications (name -> array,
# one entry per replication), and the (r, message) of every one that failed.
Block = namedtuple("Block", "estimates extras errors")


def _run_block(config: ExperimentConfig, prep, rs: range, draw) -> Block:
    """Replications ``rs`` from ``draw``, the design's draw of the block
    (see ``_run_group``).

    The design inverts one row per replication, sorted by
    ``estimators.argsort_rows``: numpy's SIMD argsort, which is the stable
    order on a row without ties, and a stable argsort of the rows with
    ties, so the bits are a stable sort's.
    """
    design = DESIGNS[config.estimator]
    y, aux, _, failed, extras = draw
    drawn = [r for i, r in enumerate(rs) if i not in failed]
    values, fails = design.invert(
        prep, y, aux, np.arange(len(y)).reshape(len(drawn), config.n),
        lambda rows: estimators._take_rows(
            rows, estimators.argsort_rows(y[rows])))
    keep = np.ones(len(drawn), dtype=bool)
    keep[list(fails)] = False
    errors = ([(rs[i], str(e)) for i, e in failed.items()]
              + [(drawn[i], str(e)) for i, e in fails.items()])
    return Block(values[keep], {k: v[keep] for k, v in extras.items()}, errors)


def _run_group(configs: list) -> list[list[Block]]:
    """The blocks of each of ``configs``: one config, or several that
    ``_draw_groups`` put together, which share one pair and, per block,
    one ``designs.draw_inputs`` draw (one f call, one f_r call at most).
    Every config is prepared before the first block is drawn.

    Replication r draws from its own stream ``root.child(r)``.  A block is
    drawn at once, so that f runs once per block (acs: once per phase) and
    f_r once per rejection pass.  Its streams are ``StreamBlock.of(root,
    rs)``: their keys come in one numpy pass, and each draw call re-keys
    one Philox per stream, which draws the bits of the stream's own
    generator.
    """
    first = configs[0]
    root = RngStream(first.seed)
    with _open_pair(first) as pair:
        preps = [DESIGNS[c.estimator].prepare(pair, c) for c in configs]
        out = [[] for _ in configs]
        for rs in _blocks(first.replications, first.n):
            block = StreamBlock.of(root, rs)
            draws = (designs.draw_inputs(preps, block) if len(preps) > 1
                     else [DESIGNS[first.estimator].draw(preps[0], block)])
            for blocks, c, prep, draw in zip(out, configs, preps, draws):
                blocks.append(_run_block(c, prep, rs, draw))
    return out


def _draw_groups(configs: dict) -> list[list[str]]:
    """The labels of ``configs`` in groups, each in order, the groups in
    order of their first labels: the configs of one model, n, seed and
    replication count whose designs draw with ``designs._draw_input`` (ee,
    cv, ps) form one group, and every other config is one alone."""
    groups: dict = {}
    for label, c in configs.items():
        key = ((json.dumps(c.model, sort_keys=True), c.n, c.seed,
                c.replications)
               if DESIGNS[c.estimator].draw is designs._draw_input else label)
        groups.setdefault(key, []).append(label)
    return list(groups.values())


def _std(a: np.ndarray) -> np.ndarray:
    """Sample std along the first axis, 0 for one row (JSON has no NaN)."""
    return a.std(axis=0, ddof=1) if len(a) > 1 else np.zeros(a.shape[1:])


def _report(config: ExperimentConfig, blocks: list[Block]
            ) -> ReplicationReport:
    """The report of ``config``'s replications from their blocks, in
    order."""
    est = np.concatenate([b.estimates for b in blocks])
    extras = {k: np.concatenate([b.extras[k] for b in blocks])
              for k in blocks[0].extras}
    errors = sorted(e for b in blocks for e in b.errors)
    if not len(est):
        raise ConfigError("every replication failed; first error: "
                          + errors[0][1])
    std = float(_std(est))
    report = ReplicationReport(
        config=config,
        estimates=est,
        mean=float(est.mean()),
        std=std,
        sem=float(std / np.sqrt(len(est))),
        errors=errors,
    )
    if "beta_tilde" in extras:
        bt, rf = extras["beta_tilde"], extras["realized_fractions"]
        report.beta_tilde_mean = [float(v) for v in bt.mean(axis=0)]
        report.beta_tilde_std = [float(v) for v in _std(bt)]
        report.realized_mean = [float(v) for v in rf.mean(axis=0)]
        report.realized_std = [float(v) for v in _std(rf)]
    if "n_r" in extras:
        report.n_r_mean = float(extras["n_r"].mean())
    edges = np.histogram_bin_edges(est, bins="fd")
    counts, _ = np.histogram(est, bins=edges)
    report.histogram_edges = [float(e) for e in edges]
    report.histogram_counts = [int(c) for c in counts]
    return report


def run_replications(config: ExperimentConfig) -> ReplicationReport:
    """R independent replications, each on the stream path [replication_id].

    The blocks of ``_blocks`` run one by one (see ``_run_group``).  A
    replication that fails with one of ``designs.NON_CONVERGENCE_ERRORS`` is
    recorded, not fatal, unless every replication fails; any other error,
    such as a ``ModelError`` from a dead simulator, propagates.
    """
    (blocks,) = _run_group([config])
    return _report(config, blocks)


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
    its draws, in the chunks of ``_blocks``; each is put in order by
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
        y, aux, sizes, failed, extras = design.draw(
            prep, StreamBlock.of(root, range(1)))
    if failed:
        raise failed[0]
    sizes = sizes[0]
    # y is sorted once; a resample then sorts its records' ranks, small ints.
    order = estimators.argsort_rows(y)
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
    for rs in _blocks(B, n):
        if len(sizes) == 1:  # the integers of the else branch, faster
            rows = rng.integers(0, n, (len(rs), n))
        else:
            rows = first + rng.integers(0, size_of, (len(rs), n))
        vals[rs.start:rs.stop] = invert(rows)
    return {"estimator": config.estimator, "alpha": config.alpha,
            "n": config.n, "estimate": float(invert(np.arange(n)[None])[0]),
            "bootstrap_std": float(vals.std(ddof=1)), "resamples": B,
            "scheme": design.scheme,
            **{k: v[0].tolist() for k, v in extras.items()}}


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


_ACS3_CUTS = [0.0, 0.85, 0.95, 1.0]
_CS4 = {"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0], "allocation": [50] * 4}

# The suites replicating the published toy benchmarks, all at alpha 0.95:
# label -> (model, estimator, n, replications, params).
PRESETS = {
    "fig1": {"ee": ("toy1d", "ee", 200, 10**4, {}),
             "cv": ("toy1d", "cv", 200, 10**4, {}),
             "cs": ("toy1d", "cs", 200, 10**4, _CS4)},
    "table1": {"ee": ("toy1d", "ee", 2000, 10**4, {}),
               "cv": ("toy1d", "cv", 2000, 10**4, {}),
               "acs2": ("toy1d", "acs", 2000, 10**4,
                        {"cutpoints": [0.0, 0.95, 1.0]}),
               "acs3": ("toy1d", "acs", 2000, 10**4,
                        {"cutpoints": _ACS3_CUTS})},
    "table2": {"ee": ("toy1d", "ee", 200, 10**4, {}),
               "cv": ("toy1d", "cv", 200, 10**4, {}),
               "acs3": ("toy1d", "acs", 200, 10**4,
                        {"cutpoints": _ACS3_CUTS})},
    "fig2": {"ee": ("toy2d", "ee", 200, 5000, {}),
             "cv": ("toy2d", "cv", 200, 5000, {}),
             "cs": ("toy2d", "cs", 200, 5000, _CS4),
             "cis": ("toy2d", "cis", 200, 5000, {})},
}


def preset_configs(name: str, replications: int | None = None,
                   seed: int = 0) -> dict[str, ExperimentConfig]:
    """The configs of preset ``name`` of ``PRESETS``; ``replications``, when
    given, overrides every config's count."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return {label: ExperimentConfig(
        model=model, estimator=est, alpha=0.95, n=n,
        replications=reps if replications is None else replications,
        seed=seed, params=params)
        for label, (model, est, n, reps, params) in PRESETS[name].items()}


def run_preset(name: str, replications: int | None = None,
               seed: int = 0) -> dict[str, ReplicationReport]:
    """The report of each config of preset ``name``, as ``run_replications``
    gives it, bit for bit; the configs of each of ``_draw_groups`` (a
    preset's ee and cv) run together, so each of their blocks draws its
    inputs and calls f once."""
    configs = preset_configs(name, replications, seed)
    reports = {}
    for labels in _draw_groups(configs):
        group = [configs[label] for label in labels]
        for label, c, blocks in zip(labels, group, _run_group(group)):
            reports[label] = _report(c, blocks)
    return {label: reports[label] for label in configs}
