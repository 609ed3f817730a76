"""Work done once and shared: the mc metamodel pass of a key, memoized for
the process (``sampling._mc_pass``), and the input draw and f
call of each block that a preset's ee, cv and ps share
(``designs.draw_inputs``).  Neither may change a report's bytes."""

import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from qvr import bench, sampling
from qvr.bench import (ExperimentConfig, emit_report, preset_configs,
                       run_preset, run_replications)
from qvr.designs import z_alpha_for
from qvr.model import BUILTIN_MODELS, ModelPair

TOY1D_SIM = Path(__file__).resolve().parents[1] / "tools" / "toy1d_sim.py"


@pytest.fixture
def passes(monkeypatch):
    """An empty pass cache, and the (stream, count) of every mc pass run
    in the test."""
    sampling._mc_pass.cache_clear()
    runs, evaluate = [], sampling.evaluate_sample

    def spy(dist, stream, count, *fns):
        runs.append((stream, count))
        return evaluate(dist, stream, count, *fns)
    monkeypatch.setattr(sampling, "evaluate_sample", spy)
    return runs


def _counting(name, counts, share_fr=False):
    """A factory of builtin pair ``name`` whose f and f_r count the points
    they get in ``counts``; with ``share_fr`` every pair it builds holds
    one f_r object, as the builtin pairs do, and otherwise a new one."""
    original = BUILTIN_MODELS[name]
    base = original()

    def f_r(x):
        counts["f_r"] += len(x)
        return base.f_r(x)

    def factory():
        def f(x):
            counts["f"] += len(x)
            counts["f_calls"] += 1
            return base.f(x)

        def own_f_r(x):
            return f_r(x)
        return ModelPair(f=f, f_r=f_r if share_fr else own_f_r,
                         input=base.input, name=base.name,
                         closed_form_z_quantile=base.closed_form_z_quantile)
    return factory


def _counts():
    return {"f": 0, "f_r": 0, "f_calls": 0}


@pytest.mark.parametrize("label", ["cv", "cis"])
def test_warm_cache_gives_the_cold_report_bytes(label, passes):
    config = preset_configs("fig2", replications=20, seed=7)[label]
    cold = emit_report(run_replications(config), "json")
    assert passes == [(sampling.RngStream(7, (2**32, 1)), 10**6)]
    warm = emit_report(run_replications(config), "json")
    assert len(passes) == 1  # the second run took the pass from the cache
    assert warm == cold


def test_hit_is_a_copy_and_the_check_still_runs(passes):
    pair = BUILTIN_MODELS["toy2d"]()
    stream = sampling.RngStream(5)
    first = sampling.metamodel_quantiles(pair, [0.5, 0.9], stream, 10**4)
    first[:] = 0.0  # a caller's array is its own
    again = sampling.metamodel_quantiles(pair, [0.5, 0.9], stream, 10**4)
    assert len(passes) == 1 and np.all(np.diff(again) > 0)
    atom = ModelPair(f=pair.f, f_r=lambda x: np.floor(x[:, 0]),
                     input=pair.input)
    for _ in range(2):  # the refusal is not cached away
        with pytest.raises(sampling.SamplingError,
                           match="not strictly increasing"):
            sampling.metamodel_quantiles(atom, [0.5, 0.9, 0.95], stream,
                                         10**4)


def test_cache_is_bounded(passes):
    pair = dataclasses.replace(BUILTIN_MODELS["toy1d"](),
                               closed_form_z_quantile=None)
    size = sampling._mc_pass.cache_info().maxsize
    for seed in range(size + 3):
        sampling.metamodel_quantiles(pair, [0.5], sampling.RngStream(seed),
                                     10**4)
    assert sampling._mc_pass.cache_info().currsize == size
    sampling.metamodel_quantiles(pair, [0.5], sampling.RngStream(0),
                                 10**4)  # evicted first
    assert len(passes) == size + 4


def _square(x, power=2):
    return x[:, 0] ** power


class _Unhashable:  # eq without hash
    def __eq__(self, other):
        return True

    def __call__(self, x):
        return _square(x)


class _Hashable:
    def __call__(self, x):
        return _square(x)


@pytest.mark.parametrize("f_r,count", [
    (_Unhashable(), 2), (_Hashable(), 2),
    (functools.partial(_square, power=2), 2), (_square, 1)],
    ids=["unhashable", "hashable_instance", "partial", "plain_function"])
def test_only_a_plain_function_shares_its_pass(f_r, count, passes):
    pair = ModelPair(f=_square, f_r=f_r,
                     input=BUILTIN_MODELS["toy1d"]().input)
    runs = [sampling.metamodel_quantiles(pair, [0.5, 0.9],
                                         sampling.RngStream(1), 10**4)
            for _ in range(2)]
    assert len(passes) == count and runs[0].tolist() == runs[1].tolist()
    assert all(r.flags.writeable for r in runs)


@pytest.mark.parametrize("stream,count", [
    (None, 10**6), (sampling.RngStream(5), 10**4),
    (sampling.RngStream(5), 10)], ids=["no_stream", "1e4", "10"])
def test_closed_form_ignores_stream_and_count(stream, count, passes):
    pair = BUILTIN_MODELS["toy1d"]()
    got = sampling.metamodel_quantiles(pair, [0.5, 0.95], stream, count)
    assert got.tolist() == [pair.closed_form_z_quantile(a)
                            for a in (0.5, 0.95)]
    assert passes == []


def test_counting_pair_never_gets_the_builtin_entry(passes, monkeypatch):
    config = preset_configs("fig2", replications=3, seed=8)["cv"]
    z_builtin = z_alpha_for(BUILTIN_MODELS["toy2d"](), config)
    counts = _counts()
    monkeypatch.setitem(BUILTIN_MODELS, "toy2d",
                        _counting("toy2d", counts, share_fr=True))
    pair = config.build_pair()
    assert z_alpha_for(pair, config) == z_builtin
    assert len(passes) == 2 and counts["f_r"] == 10**6


def test_external_config_pass_is_never_shared(passes):
    cmd = f'"{sys.executable}" "{TOY1D_SIM}"'
    config = ExperimentConfig.from_dict({
        "model": {"command": cmd + " f", "metamodel_command": cmd + " fr",
                  "input": [{"family": "normal", "mean": 0.0,
                             "stddev": 1.0}]},
        "estimator": "cv", "alpha": 0.95, "n": 50, "replications": 2,
        "seed": 0})
    stream = sampling.RngStream(0, (2**32, 1))
    values = []
    for _ in range(2):  # each build of the config starts its own simulator
        with bench._open_pair(config) as pair:
            for _ in range(2):  # nor does one pair's simulator share a pass
                values.append(sampling.metamodel_quantiles(
                    pair, [0.95], stream, 10**4).tolist())
    assert len(passes) == 4 and values.count(values[0]) == 4
    # No cache entry holds a simulator, and with it its child, open.
    assert sampling._mc_pass.cache_info().currsize == 0


def test_counting_pair_sees_the_pass_once_per_seed(passes, monkeypatch):
    counts, in_passes = _counts(), []
    monkeypatch.setitem(BUILTIN_MODELS, "toy2d",
                        _counting("toy2d", counts, share_fr=True))
    spy = sampling.evaluate_sample

    def points_of(*args):
        before = counts["f_r"]
        out = spy(*args)
        in_passes.append(counts["f_r"] - before)
        return out
    monkeypatch.setattr(sampling, "evaluate_sample", points_of)
    for seed in (3, 4):
        for label in ("cv", "cis"):  # fig2's order: cv, then cis
            run_replications(
                preset_configs("fig2", replications=2, seed=seed)[label])
    assert passes == [(sampling.RngStream(seed, (2**32, 1)), 10**6)
                      for seed in (3, 4)]
    assert in_passes == [10**6, 10**6]


# Per preset: f points per replication with its configs run one by one and
# with run_preset's shared draws, and a replication count over two blocks.
PRESET_POINTS = {"fig1": (600, 400, 82), "table1": (8000, 6000, 9),
                 "table2": (600, 400, 82), "fig2": (800, 600, 82)}


@pytest.mark.parametrize("name", list(PRESET_POINTS))
def test_preset_shares_the_draws_of_ee_and_cv(name, monkeypatch):
    solo, shared, reps = PRESET_POINTS[name]
    model = preset_configs(name)["ee"].model
    counts = _counts()
    monkeypatch.setitem(BUILTIN_MODELS, model, _counting(model, counts))
    configs = preset_configs(name, replications=reps, seed=2)
    one_by_one = {}
    for label, c in configs.items():
        before = counts["f"]
        one_by_one[label] = run_replications(c)
        assert counts["f"] - before == c.n * reps  # n per replication
    assert counts["f"] == solo * reps
    counts["f"] = 0
    together = run_preset(name, replications=reps, seed=2)
    assert counts["f"] == shared * reps
    assert list(together) == list(configs)
    assert emit_report(together, "json") == emit_report(one_by_one, "json")


def test_ee_cv_ps_share_one_f_call_per_block(monkeypatch):
    counts = _counts()
    monkeypatch.setitem(BUILTIN_MODELS, "toy1d", _counting("toy1d", counts))
    configs = {e: ExperimentConfig(model="toy1d", estimator=e, alpha=0.9,
                                   n=200, replications=90, seed=4)
               for e in ("ee", "cv", "ps")}
    alone = {e: run_replications(c) for e, c in configs.items()}
    counts.update(f=0, f_r=0, f_calls=0)
    group = list(configs.values())
    reports = {e: bench._report(c, blocks) for e, c, blocks in
               zip(configs, group, bench._run_group(group))}
    assert counts["f_calls"] == 2 and counts["f"] == 200 * 90  # two blocks
    assert counts["f_r"] == 200 * 90  # one f_r call for cv and ps together
    assert emit_report(reports, "json") == emit_report(alone, "json")


def test_draw_groups():
    def config(estimator, **over):
        raw = dict(model="toy1d", estimator=estimator, alpha=0.95, n=200,
                   replications=10, seed=0)
        raw.update(over)
        return ExperimentConfig(**raw)
    configs = {"ee": config("ee"), "cs": config("cs"), "cv": config("cv"),
               "ps9": config("ps", seed=9), "ps": config("ps"),
               "ee2d": config("ee", model="toy2d"),
               "cv2d": config("cv", model="toy2d"),
               "cis": config("cis", model="toy2d"),
               "ee_n": config("ee", n=100)}
    assert bench._draw_groups(configs) == [
        ["ee", "cv", "ps"], ["cs"], ["ps9"], ["ee2d", "cv2d"], ["cis"],
        ["ee_n"]]
