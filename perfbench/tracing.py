"""Spans and counters around qvr's public calls, for the traced run.

``Tracer.installed()`` wraps each traced function at every qvr module
attribute that names it (so ``qvr.bench.sample_strata`` and
``qvr.strata.sample_strata`` both record), wraps methods on their class,
and wraps ``f``/``f_r`` of every model pair built through the builtin
registry ``qvr.model.BUILTIN_MODELS`` or through ``subprocess_pair``.  On
exit every original is restored.  Wrappers pass arguments and results
through untouched.

A span is ``[name, start, end, parent, points]``; spans stay in memory and
are written once, by ``write``.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import qvr
import qvr.bench
import qvr.estimators
import qvr.importance
import qvr.model
import qvr.sampling
import qvr.strata

MODULES = (qvr, qvr.model, qvr.sampling, qvr.estimators, qvr.strata,
           qvr.importance, qvr.bench)

# (span name, home module, attribute): functions wrapped at every alias.
FUNCTIONS = (
    ("sampling.sample_strata", qvr.sampling, "sample_strata"),
    ("sampling.metamodel_quantiles", qvr.sampling, "metamodel_quantiles"),
    ("estimators.weighted_cdf", qvr.estimators, "weighted_cdf"),
    ("estimators.quantile", qvr.estimators, "quantile_from_weighted_cdf"),
    ("estimators.quantile", qvr.estimators, "empirical_quantile"),
    ("estimators.cv_weights", qvr.estimators, "cv_weights"),
    ("estimators.cv_cdf", qvr.estimators, "cv_cdf"),
    ("strata.acs_quantile", qvr.strata, "acs_quantile"),
    ("strata.cs_quantile", qvr.strata, "cs_quantile"),
    ("importance.fit", qvr.importance, "fit_biased_member"),
    ("importance.draw", qvr.importance, "draw_weighted_sample"),
    ("importance.tail_quantile", qvr.importance, "tail_quantile"),
    ("bench.run_replications", qvr.bench, "run_replications"),
    ("bench.bootstrap_std", qvr.bench, "bootstrap_std"),
    ("bench.emit_report", qvr.bench, "emit_report"),
)


def _rows(args, kwargs):
    return int(np.atleast_2d(args[-1]).shape[0])


def _count_arg(args, kwargs):
    return int(kwargs["count"] if "count" in kwargs else args[2])


def _method_owner(cls, attr):
    return next(c for c in cls.__mro__ if attr in vars(c))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.points: Counter = Counter()
        self.counts: Counter = Counter()
        self.sim_seen: dict[int, set] = defaultdict(set)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, points=None, after=None, before=None):
        spans, stack, counted = self.spans, self._stack, self.points

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            k = points(args, kwargs) if points is not None else 0
            counted[name] += k
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, k]
            spans.append(rec)
            stack.append(sid)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapped

    def _wrap_pair(self, pair):
        return dataclasses.replace(
            pair,
            f=self.span("model.f", pair.f, points=_rows),
            f_r=self.span("model.fr", pair.f_r, points=_rows))

    def _wrapped_factory(self, factory):
        return lambda *args, **kwargs: self._wrap_pair(factory(*args, **kwargs))

    def _after_sample_strata(self, result):
        sample, draws = result
        self.counts["sampling.n_r"] += int(draws)
        self.counts["sampling.accepted"] += int(sum(len(z) for z in sample.z))

    def _after_cv_cdf(self, cdf):
        self.counts["estimators.cv_uniform_fallbacks"] += bool(cdf.uniform_fallback)

    def _after_acs(self, res):
        self.counts["strata.proportional_fallbacks"] += bool(res.proportional_fallback)
        self.counts["strata.floored_strata"] += len(res.floored_strata)

    def _before_subprocess(self, args, kwargs):
        # Points the adapter has already seen are served from its cache; the
        # count is kept independently of the adapter, per model instance.
        model, x = args[0], np.atleast_2d(np.asarray(args[1], dtype=float))
        seen = self.sim_seen[id(model)]
        keys = [row.tobytes() for row in x]
        self.counts["model.subprocess.repeats"] += sum(k in seen for k in keys)
        seen.update(keys)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        saved: list[tuple[object, str, object]] = []

        def put(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        after = {"sampling.sample_strata": self._after_sample_strata,
                 "estimators.cv_cdf": self._after_cv_cdf,
                 "strata.acs_quantile": self._after_acs}
        try:
            for name, home, attr in FUNCTIONS:
                original = getattr(home, attr)
                wrapped = self.span(name, original, after=after.get(name))
                for module in MODULES:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            put(module, alias, wrapped)
            put(_method_owner(qvr.model.InputDistribution, "sample"), "sample",
                self.span("model.input", qvr.model.InputDistribution.sample,
                          points=_count_arg))
            put(_method_owner(qvr.sampling.RngStream, "generator"), "generator",
                self.span("sampling.rng", qvr.sampling.RngStream.generator))
            owner = _method_owner(qvr.model.SubprocessModel, "__call__")
            put(owner, "__call__",
                self.span("model.subprocess", owner.__call__, points=_rows,
                          before=self._before_subprocess))
            registry = qvr.model.BUILTIN_MODELS
            for key, factory in list(registry.items()):
                saved.append((registry, key, factory))
                registry[key] = self._wrapped_factory(factory)
            original_pair = qvr.model.subprocess_pair
            wrapped_pair = self._wrapped_factory(original_pair)
            for module in MODULES:
                for alias, value in list(vars(module).items()):
                    if value is original_pair:
                        put(module, alias, wrapped_pair)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = value
                else:
                    setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, points, busy and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "points": 0,
                                         "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, points) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["points"] += points
            s["busy_s"] += end - start
            s["self_s"] += end - start - child[i]
        return out

    def points_under(self, name: str, parent_name: str) -> int:
        """Points of ``name`` spans whose direct parent is ``parent_name``."""
        spans = self.spans
        return sum(rec[4] for rec in spans
                   if rec[0] == name and rec[3] >= 0
                   and spans[rec[3]][0] == parent_name)

    def durations_ms(self, name: str) -> list[float]:
        return [1000.0 * (end - start) for n, start, end, _, _ in self.spans
                if n == name]

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

