"""The block replication engine against one-replication-at-a-time runs.

``reference_estimate`` computes replication r one stream at a time, the
way each replication was run before replications were blocked; the engine
must give the same bits, whatever block a replication falls in.  The cs
and acs draws of the reference are this file's copies of the per-stream
rejection sampler and adaptive pipeline (``reference_sample_strata``,
``reference_acs_sample``), which the row-wise sampler must reproduce bit
for bit, and every inversion is a copy in ``reference_inversions``.
"""

import dataclasses
import json
import sys
import textwrap

import numpy as np
import pytest
import reference_inversions as ref
import reference_phase_two
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qvr import bench, designs, estimators, importance, strata
from qvr.bench import ExperimentConfig, emit_report, run_replications
from qvr.cli import main as cli_main
from qvr.model import (
    BUILTIN_MODELS,
    InputDistribution,
    Lognormal,
    ModelError,
    ModelPair,
    Normal,
    toy1d,
)
from qvr.sampling import (
    AllocationPlan,
    RngStream,
    SamplingError,
    StrataSpec,
    StratifiedSample,
    StreamBlock,
    evaluate_full,
    sample_strata,
    sample_strata_rows,
    strata_from_cutpoints,
)

N = 200
BLOCK = bench.BLOCK_POINTS // N
SPANNING = 2 * BLOCK + 1  # replications over three blocks

CONFIGS = {
    "ee": dict(model="toy1d", estimator="ee"),
    "cv": dict(model="toy1d", estimator="cv"),
    "ps": dict(model="toy1d", estimator="ps"),
    "cs": dict(model="toy1d", estimator="cs",
               params={"cutpoints": [0.0, 0.5, 0.9, 0.95, 1.0],
                       "allocation": [50, 50, 50, 50]}),
    "acs": dict(model="toy1d", estimator="acs",
                params={"cutpoints": [0.0, 0.85, 0.95, 1.0]}),
    "cis": dict(model="toy2d", estimator="cis",
                params={"pilot_count": 20_000}),
}


def make(label, replications, **over):
    raw = dict(alpha=0.95, n=N, replications=replications, seed=21,
               **CONFIGS[label])
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


def reference_sample_strata(pair, spec, plan, stream, max_draws=None,
                            batch=1 << 20):
    """One stream's pooled rejection, one batch at a time."""
    total = plan.total
    if max_draws is None:
        max_draws = 1000 * max(total, 1)
    need = np.asarray(plan.counts, dtype=int).copy()
    widths = spec.widths
    xs = [[] for _ in range(spec.m)]
    zs = [[] for _ in range(spec.m)]
    rng = stream.generator()
    draws = 0
    while need.sum() > 0:
        if draws >= max_draws:
            raise SamplingError(f"stratum quotas unmet after {draws} draws; "
                                f"remaining {need.tolist()}")
        open_ = need > 0
        k = min(int(np.ceil(np.max((need[open_] + 3 * np.sqrt(need[open_]))
                                   / widths[open_]))),
                batch, max_draws - draws)
        x = pair.input.sample(rng, k)
        z = pair.eval_metamodel(x)
        strat = np.searchsorted(np.asarray(spec.z_values)[1:-1], z)
        picks, complete, done_at = [], True, 0
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
    return StratifiedSample(
        x=[np.concatenate(c) if c else np.empty((0, d)) for c in xs],
        z=[np.concatenate(c) if c else np.empty(0) for c in zs]), draws


def reference_acs_sample(pair, config, alpha, stream):
    """One stream's adaptive sample: pilot, allocation tuned at the strict
    pilot quantile, phase two.  Returns the merged sample, the pilot
    quantile, beta_tilde, the draw count, the proportional-fallback flag
    and the floored strata."""
    spec = config.spec
    pilot = config.pilot_counts()
    first, d1 = reference_sample_strata(
        pair, spec, AllocationPlan(tuple(int(c) for c in pilot)),
        stream.child(0))
    first = evaluate_full(pair, first)
    y_tilde = ref.stratified_quantile(first.y, spec.widths, alpha,
                                      strict=True)
    p = strata.conditional_probs(first, spec, y_tilde)
    try:
        beta, fallback = strata.optimal_allocation(p, spec), False
    except strata.StrataError:
        beta, fallback = spec.widths.copy(), True
    extra, floored = reference_phase_two.phase_two_counts(
        beta, pilot, config.n, config.min_per_stratum, spec.widths)
    second, d2 = reference_sample_strata(
        pair, spec, AllocationPlan(tuple(int(c) for c in extra)),
        stream.child(1))
    second = evaluate_full(pair, second)
    merged = StratifiedSample(*([np.concatenate(ab) for ab in zip(a, b)]
                                for a, b in ((first.x, second.x),
                                             (first.z, second.z),
                                             (first.y, second.y))))
    return merged, y_tilde, beta, d1 + d2, fallback, floored


def reference_estimate(config, prep, r):
    pair, alpha, n = prep.pair, config.alpha, config.n
    stream = RngStream(config.seed).child(r)
    est = config.estimator
    if est == "ee":
        x = pair.input.sample(stream.generator(), n)
        return ref.empirical_quantile(pair.eval_full(x), alpha)
    if est == "cv":
        s = estimators.draw_paired_sample(pair, stream, n)
        w, _ = ref.cv_weights(s.z, prep.spec.z_values[1], alpha)
        return ref.weighted_quantile(s.y, w, alpha)
    if est == "ps":
        s = estimators.draw_paired_sample(pair, stream, n)
        strat = prep.spec.stratum_of(s.z)
        ys = [s.y[strat == j] for j in range(prep.spec.m)]
        for j, yj in enumerate(ys):
            if len(yj) == 0:
                raise estimators.EstimatorError(f"stratum {j} is empty")
        return ref.stratified_quantile(ys, prep.spec.widths, alpha)
    if est == "cs":
        sample, _ = reference_sample_strata(pair, prep.spec, prep.plan, stream)
        return ref.stratified_quantile(evaluate_full(pair, sample).y,
                                       prep.spec.widths, alpha)
    if est == "acs":
        merged = reference_acs_sample(pair, prep.acs_config, alpha, stream)[0]
        return ref.stratified_quantile(merged.y, prep.spec.widths, alpha)
    s = importance.draw_weighted_sample(pair, *ref.joint_gaussian(prep),
                                        stream.child(1), n)
    if prep.mode == "tail":
        return ref.tail_quantile(s.y, s.w, alpha)
    return ref.weighted_quantile(s.y, s.w, alpha)


@pytest.mark.parametrize("label", list(CONFIGS))
def test_estimates_do_not_depend_on_their_block(label):
    short = run_replications(make(label, 5))
    long = run_replications(make(label, SPANNING))
    assert not short.errors and not long.errors
    assert len(long.estimates) == SPANNING
    assert short.estimates.tolist() == long.estimates[:5].tolist()
    config = make(label, SPANNING)
    prep = ref.prepare(config)
    for r in (0, BLOCK - 1, BLOCK, SPANNING - 1):
        assert long.estimates[r] == reference_estimate(config, prep, r), r


@pytest.mark.parametrize("alpha", [0.5, 0.95])
@pytest.mark.parametrize("n", [2, 20, 1000])
def test_weighted_inversions_match_reference(alpha, n):
    # alpha * n is an integer for n = 20, where the inversion tolerance
    # decides between two support points.
    config = make("cis", 12, alpha=alpha, n=n,
                  params={"pilot_count": 20_000, "mode": "self_normalized"})
    report = run_replications(config)
    prep = ref.prepare(config)
    expected = [reference_estimate(config, prep, r) for r in range(12)]
    assert report.estimates.tolist() == expected


def test_cv_inversions_match_reference():
    # cv on both toys over the n and alpha of the cv/ps census.  At small
    # n and extreme alpha some samples have every Z on one side of
    # z_alpha, where cv falls back to uniform weights; the grid must hold
    # such samples, so that the fallback is compared too.  z_alpha does
    # not depend on n, so one preparation serves every n.
    fallbacks = 0
    for model in ("toy1d", "toy2d"):
        for alpha in (0.05, 0.5, 0.95, 0.99):
            config = make("cv", 12, model=model, alpha=alpha)
            prep = ref.prepare(config)
            for n in (2, 7, 20, 200, 1000):
                config = make("cv", 12, model=model, alpha=alpha, n=n)
                root = RngStream(config.seed)
                prep_n = prep._replace(n=n)
                block = bench._run_block(
                    config, prep_n, range(12), designs.DESIGNS["cv"].draw(
                        prep_n, StreamBlock.of(root, range(12))))
                expected = [reference_estimate(config, prep, r)
                            for r in range(12)]
                assert not block.errors and block.extras == {}
                assert block.estimates.tolist() == expected, (model, alpha, n)
                fallbacks += sum(ref.cv_weights(
                    estimators.draw_paired_sample(prep.pair, root.child(r),
                                                  n).z,
                    prep.spec.z_values[1], alpha)[1] for r in range(12))
    assert fallbacks


def test_one_sample_primitives_match_the_engine():
    # A library user who composes the kept one-sample calls gets the
    # engine's estimates bit for bit: acs_quantile on the table2 acs3
    # config, where every replication floors a stratum, and the cis draw
    # plus tail inversion with the engine's fitted member on toy2d.
    for preset, label in (("table2", "acs3"), ("fig2", "cis")):
        config = bench.preset_configs(preset, replications=20)[label]
        report = run_replications(config)
        assert not report.errors
        prep = ref.prepare(config)
        for r in range(20):
            stream = RngStream(config.seed).child(r)
            if label == "acs3":
                res = strata.acs_quantile(prep.pair, prep.acs_config,
                                          config.alpha, stream)
                assert res.floored_strata, r
                estimate = res.estimate
            else:
                estimate = importance.tail_quantile(
                    importance.draw_weighted_sample(
                        prep.pair, *ref.joint_gaussian(prep),
                        stream.child(1), config.n), config.alpha)
            assert estimate == report.estimates[r], (label, r)


def test_ps_empty_strata_recorded_per_replication():
    config = make("ps", 60, n=20)
    report = run_replications(config)
    prep = ref.prepare(config)
    expected_errors, expected = [], []
    for r in range(60):
        try:
            expected.append(reference_estimate(config, prep, r))
        except estimators.EstimatorError as e:
            expected_errors.append((r, str(e)))
    assert expected_errors
    assert report.errors == expected_errors
    assert report.estimates.tolist() == expected


# A stratum of width 5e-4 leaves about a fifth of the acs pilots (one point
# per stratum, 3000 draws) without its point.
FAILING_PILOTS = dict(model="identity1d", params={
    "cutpoints": [0.0, 0.5, 0.9995, 1.0], "pilot_per_stratum": 1})


@pytest.mark.parametrize("label,over", [("cs", {}), ("acs", {}),
                                        ("acs", FAILING_PILOTS)],
                         ids=["cs", "acs", "acs-failing-pilots"])
def test_extras_stay_aligned_across_blocks(label, over):
    # The report's n_r, beta_tilde and realized fractions are those of the
    # per-stream reference pipeline over the replications that succeed, bit
    # for bit, over three blocks.
    config = make(label, SPANNING, **over)
    report = run_replications(config)
    prep = ref.prepare(config)
    n_r, beta, realized, errors = [], [], [], []
    for r in range(SPANNING):
        stream = RngStream(config.seed).child(r)
        try:
            if label == "cs":
                _, draws = reference_sample_strata(prep.pair, prep.spec,
                                                   prep.plan, stream)
            else:
                merged, _, b, draws, _, _ = reference_acs_sample(
                    prep.pair, prep.acs_config, config.alpha, stream)
                beta.append(b.tolist())
                realized.append((merged.counts
                                 / merged.counts.sum()).tolist())
        except SamplingError as e:
            errors.append((r, str(e)))
            continue
        n_r.append(draws)
    assert report.errors == errors
    assert (0 < len(errors) < SPANNING // 2) == (over is FAILING_PILOTS)
    assert report.n_r_mean == float(np.mean(n_r))
    if label == "cs":
        assert report.beta_tilde_mean is report.realized_mean is None
        return
    for name, rows in (("beta_tilde", beta), ("realized", realized)):
        rows = np.array(rows)
        assert getattr(report, f"{name}_mean") == [
            float(v) for v in rows.mean(axis=0)]
        assert getattr(report, f"{name}_std") == [
            float(v) for v in rows.std(axis=0, ddof=1)]


PARTITIONED = 23


@pytest.mark.parametrize("label,over", [
    ("ee", {"n": 20}), ("cv", {"n": 20}), ("ps", {"n": 20}), ("cs", {}),
    ("acs", {}), ("cs", {"model": "toy2d"}), ("cis", {}),
    ("acs", FAILING_PILOTS)], ids=["ee", "cv", "ps", "cs", "acs", "cs-toy2d",
                                   "cis", "acs-failing-pilots"])
def test_report_bytes_do_not_depend_on_the_blocks(label, over):
    # Any partition of range(R) into contiguous blocks folds into the bytes
    # of the engine's own blocks.  Some replications fail (ps on an empty
    # stratum at n = 20, acs on a pilot), so the fold must also keep each
    # block's errors.
    config = make(label, PARTITIONED, **over)
    report = run_replications(config)
    assert bool(report.errors) == (label == "ps" or over is FAILING_PILOTS)
    expected = emit_report(report, "json")

    @given(st.sets(st.integers(1, PARTITIONED - 1)))
    @settings(max_examples=6, deadline=None)
    def check(cuts):
        edges = [0, *sorted(cuts), PARTITIONED]
        blocks = [range(a, b) for a, b in zip(edges, edges[1:])]

        def partition(count, n):
            assert (count, n) == (PARTITIONED, config.n)
            return blocks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench, "_blocks", partition)
            assert emit_report(run_replications(config), "json") == expected
    check()


def test_estimate_exits_3_when_replication_0_fails(tmp_path):
    # At seed 21 replication 0's acs pilot misses its quota; the run
    # records it and `qvr estimate`, which draws replication 0, exits 3.
    config = make("acs", 3, **FAILING_PILOTS)
    message = "stratum quotas unmet after 3000 draws; remaining [0, 0, 1]"
    assert run_replications(config).errors == [(0, message)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(
        model=config.model, estimator="acs", alpha=config.alpha, n=config.n,
        replications=1, seed=config.seed, params=dict(config.params))))
    res = CliRunner().invoke(cli_main, ["estimate", "--config", str(path),
                                        "--bootstrap", "100"])
    assert res.exit_code == 3
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("label,extras", [
    ("cs", {"n_r"}), ("acs", {"n_r", "beta_tilde", "realized_fractions"})])
def test_bootstrap_payload_is_plain_json(label, extras):
    # A design's extras are arrays; the bootstrap reports replication 0's
    # as plain Python numbers.
    out = bench.estimate_with_bootstrap(make(label, 1), B=100)
    assert json.loads(json.dumps(out)) == out
    assert set(out) - {"estimator", "alpha", "n", "estimate",
                       "bootstrap_std", "resamples", "scheme"} == extras
    assert type(out["n_r"]) is int
    assert all(type(v) is float for v in out.get("beta_tilde", [])
               + out.get("realized_fractions", []))


def _counting_factory(name, counts, fail_after=None, rows=None):
    """Builtin pair ``name`` whose ``f`` counts its points and calls; with
    ``rows``, ``f`` and ``f_r`` also keep a copy of every batch they get in
    ``rows["f"]`` and ``rows["f_r"]``."""
    original = BUILTIN_MODELS[name]

    def factory():
        pair = original()

        def f(x):
            counts["f"] += len(x)
            counts["calls"] = counts.get("calls", 0) + 1
            if fail_after is not None and counts["f"] > fail_after:
                raise ModelError("simulator died")
            if rows is not None:
                rows["f"].append(np.array(x))
            return pair.f(x)

        def f_r(x):
            if rows is not None:
                rows["f_r"].append(np.array(x))
            return pair.f_r(x)
        return ModelPair(f=f, f_r=f_r, input=pair.input, name=pair.name,
                         closed_form_z_quantile=pair.closed_form_z_quantile)
    return factory


def _coarse_factory(name):
    """Builtin pair ``name`` whose ``f`` rounds its outputs to a 0.1 grid,
    so that a sample of n=200 outputs holds ties."""
    original = BUILTIN_MODELS[name]

    def factory():
        pair = original()
        return ModelPair(f=lambda x: np.round(pair.f(x), 1), f_r=pair.f_r,
                         input=pair.input, name=pair.name,
                         closed_form_z_quantile=pair.closed_form_z_quantile)
    return factory


@pytest.mark.parametrize("label,mode", [("ps", None), ("cs", None),
                                        ("acs", None), ("cis", "tail"),
                                        ("cis", "self_normalized")])
def test_tied_outputs_match_the_stable_references(label, mode, monkeypatch):
    # Rows with tied outputs take argsort_rows' stable fallback; the
    # engine's estimates stay those of the stable-sort references.
    model = CONFIGS[label]["model"]
    monkeypatch.setitem(BUILTIN_MODELS, model, _coarse_factory(model))
    sorted_rows, tied_rows, argsort_rows = [], [], estimators.argsort_rows

    def spy(a):
        ties = (np.diff(np.sort(a, axis=-1), axis=-1) == 0).any(axis=-1)
        sorted_rows.append(ties.size)
        tied_rows.append(int(ties.sum()))
        return argsort_rows(a)
    monkeypatch.setattr(estimators, "argsort_rows", spy)
    params = dict(CONFIGS[label].get("params", {}))
    if mode is not None:
        params["mode"] = mode
    config = make(label, 12, params=params)
    report = run_replications(config)
    assert not report.errors
    assert sum(sorted_rows) == 12 and sum(tied_rows) > 0.9 * 12
    prep = ref.prepare(config)
    assert report.estimates.tolist() == [
        reference_estimate(config, prep, r) for r in range(12)]


@pytest.mark.parametrize("label", list(CONFIGS))
def test_f_receives_n_points_per_replication(label, monkeypatch):
    counts = {"f": 0}
    model = CONFIGS[label]["model"]
    monkeypatch.setitem(BUILTIN_MODELS, model,
                        _counting_factory(model, counts))
    report = run_replications(make(label, BLOCK + 3))
    assert len(report.estimates) == BLOCK + 3
    assert counts["f"] == N * (BLOCK + 3)
    if label == "acs":  # a pilot and a phase two per block of replications
        assert counts["calls"] == 2 * 2


@pytest.mark.parametrize("run", ["replications", "bootstrap"])
@pytest.mark.parametrize("label", list(CONFIGS))
def test_no_evaluator_sees_a_row_twice(label, run, monkeypatch):
    # The premise of an adapter without a point cache: every design
    # evaluates f (and f_r) once per sampled input, so a memo of seen
    # points would never be hit.
    counts, rows = {"f": 0}, {"f": [], "f_r": []}
    model = CONFIGS[label]["model"]
    monkeypatch.setitem(BUILTIN_MODELS, model,
                        _counting_factory(model, counts, rows=rows))
    if run == "replications":  # over two blocks
        report = run_replications(make(label, BLOCK + 1))
        assert len(report.estimates) == BLOCK + 1
        expected = N * (BLOCK + 1)
    else:
        bench.estimate_with_bootstrap(make(label, 1), B=100)
        expected = N
    for key, batches in rows.items():
        if batches:
            seen = np.concatenate(batches)
            assert len(np.unique(seen, axis=0)) == len(seen), key
    assert sum(map(len, rows["f"])) == counts["f"] == expected


@pytest.mark.parametrize("label", list(CONFIGS))
def test_model_error_ends_the_run(label, monkeypatch):
    model = CONFIGS[label]["model"]
    monkeypatch.setitem(BUILTIN_MODELS, model, _counting_factory(
        model, {"f": 0}, fail_after=N * (BLOCK + 1)))
    with pytest.raises(ModelError):
        run_replications(make(label, 2 * BLOCK))


@pytest.mark.parametrize("label", list(CONFIGS))
def test_too_few_resamples_refused_before_the_draw(label, monkeypatch,
                                                   tmp_path):
    counts = {"f": 0}
    model = CONFIGS[label]["model"]
    monkeypatch.setitem(BUILTIN_MODELS, model,
                        _counting_factory(model, counts))
    message = "bootstrap needs at least 100 resamples"
    with pytest.raises(ValueError, match=message):
        bench.estimate_with_bootstrap(make(label, 1), B=99)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(alpha=0.95, n=N, replications=1,
                                    seed=21, **CONFIGS[label])))
    res = CliRunner().invoke(cli_main, ["estimate", "--config", str(path),
                                        "--bootstrap", "99"])
    assert res.exit_code == 2 and message in res.output
    assert counts["f"] == 0


def test_sample_strata_does_not_depend_on_batch_size_in_one_dimension():
    pair = toy1d()
    spec = strata_from_cutpoints(pair, [0.0, 0.5, 0.9, 0.95, 1.0])
    plan = AllocationPlan((50, 50, 50, 50))
    for r in range(8):
        stream = RngStream(4, (r,))
        ref, ref_draws = sample_strata(pair, spec, plan, stream)
        for batch in (1, 37, 700, 4096):
            got, draws = sample_strata(pair, spec, plan, stream, batch=batch)
            assert draws == ref_draws, batch
            for j in range(spec.m):
                assert np.array_equal(got.x[j], ref.x[j]), batch
                assert np.array_equal(got.z[j], ref.z[j]), batch


DYING_SIMULATOR = textwrap.dedent("""
    import json, sys
    served = 0
    for line in sys.stdin:
        msg = json.loads(line)
        print(json.dumps({"id": msg["id"], "y": sum(msg["x"])}), flush=True)
        served += 1
        if served == int(sys.argv[1]):
            sys.exit(0)
""")


def test_dead_simulator_is_fatal(tmp_path):
    script = tmp_path / "dying.py"
    script.write_text(DYING_SIMULATOR)
    command = f'"{sys.executable}" "{script}" 25'
    config = ExperimentConfig.from_dict({
        "model": {"command": command, "metamodel_command": command,
                  "input": [{"family": "normal", "mean": 0.0,
                             "stddev": 1.0}],
                  "timeout": 10},
        "estimator": "ee", "alpha": 0.9, "n": 10, "replications": 6,
        "seed": 1,
    })
    with pytest.raises(ModelError):
        run_replications(config)


# ---------------------------------------------------------------------------
# Row-wise rejection and adaptive pipeline against the per-stream copies


def assert_rows_match_reference(pair, spec, plans, root, max_draws=None,
                                batch=1 << 20):
    """The rows of the block of ``root``'s children 0, 1, ... against the
    per-stream sampler; returns the number of rows that failed."""
    block = StreamBlock.of(root, range(len(plans)))
    x, z, draws, errors = sample_strata_rows(pair, spec, plans, block,
                                             max_draws, batch)
    at, failed = 0, 0
    for r, plan in enumerate(plans):
        stream = root.child(r)
        limit = max_draws if np.ndim(max_draws) == 0 else max_draws[r]
        try:
            ref, ref_draws = reference_sample_strata(
                pair, spec, AllocationPlan(tuple(plan)), stream, limit, batch)
        except SamplingError as e:
            assert str(errors[r]) == str(e), r
            failed += 1
            continue
        assert errors[r] is None, r
        assert draws[r] == ref_draws, r
        k = sum(plan)
        assert np.array_equal(x[at:at + k], np.concatenate(ref.x)), r
        assert np.array_equal(z[at:at + k], np.concatenate(ref.z)), r
        at += k
    assert at == len(x) == len(z)
    return failed


PLANS = [(50, 50, 50, 50), (0, 0, 0, 0), (10, 0, 3, 7), (0, 0, 0, 40),
         (120, 60, 9, 1), (1, 1, 1, 1)] * 3


def _mixed3d_fr(x):
    return x[:, 0] + x[:, 1] * x[:, 2]


def mixed3d():
    """A 3-d pair whose marginals mix Normal and Lognormal, which map
    their standard normals each in their own way."""
    return ModelPair(f=_mixed3d_fr, f_r=_mixed3d_fr, name="mixed3d",
                     input=InputDistribution((Normal(0.5, 2.0),
                                              Lognormal(0.1, 0.7),
                                              Normal(-1.0, 0.3))))


PAIRS = dict(BUILTIN_MODELS, mixed3d=mixed3d)


@pytest.mark.parametrize("model", ["toy1d", "toy2d", "mixed3d"])
@pytest.mark.parametrize("batch", [1, 37, 700, 4096, 1 << 20])
def test_sample_strata_rows_matches_per_stream_draws(model, batch):
    pair = PAIRS[model]()
    spec = strata_from_cutpoints(
        dataclasses.replace(pair, closed_form_z_quantile=None),
        [0.0, 0.5, 0.9, 0.95, 1.0], RngStream(3), sample_count=10**4)
    assert assert_rows_match_reference(pair, spec, PLANS, RngStream(8),
                                       batch=batch) == 0


@pytest.mark.parametrize("model", ["toy1d", "toy2d", "mixed3d"])
@pytest.mark.parametrize("points", [1, 5000])
def test_rows_need_more_passes_when_a_pass_is_small(points, model,
                                                    monkeypatch):
    # One row per pass, or a few; rows short of a quota draw again later,
    # from where their last batch left their stream (toy2d, mixed3d: a
    # batch draws one input column after the other).
    from qvr import sampling
    monkeypatch.setattr(sampling, "BLOCK_POINTS", points)
    pair = PAIRS[model]()
    spec = strata_from_cutpoints(
        dataclasses.replace(pair, closed_form_z_quantile=None),
        [0.0, 0.5, 0.9, 0.95, 1.0], RngStream(3), sample_count=10**4)
    assert assert_rows_match_reference(pair, spec, PLANS, RngStream(9),
                                       batch=300) == 0


def _recording(model):
    """``model``'s pair whose f records the points it gets and returns
    their first coordinate, and the list it records in."""
    seen = []

    def f(x):
        seen.append(np.array(x))
        return x[:, 0]

    return dataclasses.replace(PAIRS[model](), f=f), seen


@pytest.mark.parametrize("model", ["toy1d", "toy2d", "mixed3d"])
def test_iid_draw_equals_per_stream_samples(model):
    # ee, cv and ps draw n points per stream into one buffer; f and f_r
    # get the per-stream samples, concatenated.
    pair, seen = _recording(model)
    spec = StrataSpec((0.0, 0.5, 1.0), (-np.inf, 0.3, np.inf))
    root, n = RngStream(13), 7
    want = np.concatenate([pair.input.sample(root.child(r).generator(), n)
                           for r in range(5)])
    y, aux, sizes, errors, extras = designs._draw_input(
        designs.Stratified(pair, 0.95, n, spec),
        StreamBlock.of(root, range(5)))
    (x,) = seen
    assert x.tobytes() == want.tobytes()
    assert y.tobytes() == want[:, 0].tobytes()
    assert aux.tolist() == spec.stratum_of(pair.f_r(want)).tolist()
    assert sizes.tolist() == [[n]] * 5 and errors == extras == {}


def _fitted_member(model, tag):
    """The member of family ``tag`` that cis fits on ``model`` for its
    upper 5% metamodel tail."""
    pair = PAIRS[model]()
    stream = RngStream(17)
    z_alpha = strata_from_cutpoints(
        dataclasses.replace(pair, closed_form_z_quantile=None),
        [0.0, 0.95, 1.0], stream.child(0), sample_count=10**5).z_values[1]
    family = importance.BiasedFamily(tag, pair.input)
    params, _ = importance.fit_biased_member(pair, family, z_alpha,
                                             stream.child(1),
                                             pilot_count=20_000)
    return family.member(params)


@pytest.mark.parametrize("R", [1, 7, 81])
@pytest.mark.parametrize("model,tag", [("toy2d", "joint_gaussian"),
                                       ("mixed3d", "componentwise_matched")])
def test_cis_draw_equals_per_stream_samples(model, tag, R):
    # cis draws n points of its member per stream (from the stream's child
    # 1) into one buffer, mapped by one transform, which for the joint
    # Gaussian is one BLAS product over every stream's columns; f gets the
    # per-stream samples, concatenated, and aux is their likelihood ratio.
    pair, seen = _recording(model)
    member = _fitted_member(model, tag)
    root = RngStream(13)
    want = np.concatenate([member.sample(root.child(r).child(1).generator(), N)
                           for r in range(R)])
    y, aux, sizes, errors, extras = designs._draw_cis(
        designs.Biased(pair, 0.95, N, member, "tail"),
        StreamBlock.of(root, range(R)))
    (x,) = seen
    assert x.tobytes() == want.tobytes()
    assert y.tobytes() == want[:, 0].tobytes()
    assert aux.tobytes() == importance.likelihood_ratio(pair, member,
                                                        want).tobytes()
    assert sizes.tolist() == [[N]] * R and errors == extras == {}


def test_rows_that_reach_max_draws_fail_alone():
    pair = toy1d()
    spec = strata_from_cutpoints(pair, [0.0, 0.5, 0.9, 0.95, 1.0])
    plans = [(5, 5, 5, 5)] * 12
    limit = np.array([20, 4000, 150, 20000] * 3)
    root = RngStream(10)
    failed = assert_rows_match_reference(pair, spec, plans, root, limit,
                                         batch=64)
    assert 0 < failed < 12
    assert assert_rows_match_reference(pair, spec, plans, root, 130,
                                       batch=37) > 0
    with pytest.raises(ValueError):
        sample_strata_rows(pair, spec, plans,
                           StreamBlock.of(root, range(12)), 19)


def assert_acs_matches_reference(pair, config, alpha, root, R):
    """``acs_rows`` on the block of ``root``'s children 0 .. R - 1 against
    the per-stream pipeline; returns the count of each outcome."""
    rows = strata.acs_rows(pair, config, StreamBlock.of(root, range(R)),
                           alpha)
    i = at = 0
    outcome = {"ok": 0, "failed": 0, "fallback": 0, "floored": 0}
    for r in range(R):
        try:
            merged, y_tilde, beta, draws, fallback, floored = (
                reference_acs_sample(pair, config, alpha, root.child(r)))
        except SamplingError as e:
            assert str(rows.errors[r]) == str(e), r
            outcome["failed"] += 1
            continue
        assert rows.errors[r] is None, r
        n = config.n
        assert np.array_equal(rows.y[at:at + n], np.concatenate(merged.y)), r
        assert rows.counts[i].tolist() == merged.counts.tolist(), r
        assert rows.y_tilde[i] == y_tilde, r
        assert rows.beta_tilde[i].tolist() == beta.tolist(), r
        assert (rows.draws[i], rows.fallback[i],
                tuple(np.flatnonzero(rows.floored[i]).tolist())) == (
            draws, fallback, floored), r
        outcome["ok"] += 1
        outcome["fallback"] += fallback
        outcome["floored"] += bool(floored)
        i, at = i + 1, at + n
    assert i == len(rows.counts) and at == len(rows.y)
    return outcome


def test_acs_rows_match_per_stream_pipeline():
    pair = toy1d()
    root = RngStream(11)
    # Floored strata in every row (the table2 acs3 setting).
    spec = strata_from_cutpoints(pair, [0.0, 0.85, 0.95, 1.0])
    config = strata.AcsConfig(spec=spec, n=200, pilot_per_stratum=20)
    out = assert_acs_matches_reference(pair, config, 0.95, root, 40)
    assert out["floored"] == out["ok"] == 40
    # Some rows fall back to the proportional allocation, others do not.
    spec = strata_from_cutpoints(pair, [0.0, 0.94, 1.0])
    config = strata.AcsConfig(spec=spec, n=40, pilot_per_stratum=5)
    out = assert_acs_matches_reference(pair, config, 0.95, root, 40)
    assert 0 < out["fallback"] < out["ok"] == 40
    # f = f_r: the pilot mass below the cutpoint is exactly alpha, where
    # the strict inverse and the generalized inverse differ.
    pair = BUILTIN_MODELS["identity1d"]()
    spec = strata_from_cutpoints(pair, [0.0, 0.95, 1.0])
    config = strata.AcsConfig(spec=spec, n=200, pilot_per_stratum=20)
    out = assert_acs_matches_reference(pair, config, 0.95, root, 40)
    assert out["ok"] == 40


def test_acs_rows_keep_the_rows_whose_phases_succeed():
    # Stratum 2 holds P(Z > 3.3) ~ 5e-4 of the draws, not its nominal half:
    # some pilots fail, some phase twos fail, the other rows succeed.
    pair = BUILTIN_MODELS["identity1d"]()
    spec = StrataSpec((0.0, 0.5, 1.0), (-np.inf, 3.3, np.inf))
    config = strata.AcsConfig(spec=spec, n=40, pilot_per_stratum=1)
    root = RngStream(6)
    rows = strata.acs_rows(pair, config, StreamBlock.of(root, range(30)),
                           0.95)
    messages = [str(e) for e in rows.errors if e is not None]
    pilot_failures = sum("after 2000 draws" in m for m in messages)
    assert 0 < pilot_failures < len(messages) < 30
    out = assert_acs_matches_reference(pair, config, 0.95, root, 30)
    assert out["failed"] == len(messages)


@pytest.mark.parametrize("path", [(), (2**32, 9)])
def test_one_stream_draws_match_the_per_stream_references(path):
    # Streams that only RngStream.block() builds: an empty path, and a path
    # whose head takes two words, unlike any root.child(r) of the engine.
    stream = RngStream(12, path)
    pair = toy1d()
    spec = strata_from_cutpoints(pair, [0.0, 0.5, 0.9, 0.95, 1.0])
    plan = AllocationPlan((50, 50, 50, 50))
    got, draws = sample_strata(pair, spec, plan, stream)
    want, want_draws = reference_sample_strata(pair, spec, plan, stream)
    assert draws == want_draws
    for a, b in zip(got.x + got.z, want.x + want.z, strict=True):
        assert np.array_equal(a, b)
    spec = strata_from_cutpoints(pair, [0.0, 0.85, 0.95, 1.0])
    config = strata.AcsConfig(spec=spec, n=200, pilot_per_stratum=20)
    res = strata.acs_quantile(pair, config, 0.95, stream)
    merged, y_tilde, beta, draws, fallback, floored = reference_acs_sample(
        pair, config, 0.95, stream)
    assert res.estimate == ref.stratified_quantile(merged.y, spec.widths,
                                                   0.95)
    assert res.final_counts.tolist() == merged.counts.tolist()
    assert res.pilot_quantile == y_tilde
    assert res.beta_tilde.tolist() == beta.tolist()
    assert (res.draw_count, res.proportional_fallback,
            res.floored_strata) == (draws, fallback, floored)
