from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qvr.model import ModelPair, identity1d, standard_normal_input, toy1d
from qvr.sampling import (
    AllocationPlan,
    RngStream,
    SamplingError,
    StrataSpec,
    StreamBlock,
    _ZeroKey,
    each_generator,
    evaluate_full,
    expected_rejection_cost,
    metamodel_quantiles,
    sample_strata,
    strata_from_cutpoints,
)


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(7, (1, 2)).generator().standard_normal(100)
        b = RngStream(7, (1, 2)).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStream(7, (1,)).generator().standard_normal(100)
        b = RngStream(7, (2,)).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_child_extends_path(self):
        assert RngStream(7).child(3, 4).path == (3, 4)

    def test_child_refuses_non_integer_ids(self):
        with pytest.raises(TypeError):
            RngStream(3).child(1.9)

    @pytest.mark.parametrize("seed, path", [
        (0, ()), (2**32 - 1, ()), (2**32, ()), (2**64 + 1, ()),
        (0, (0,)), (2**32 - 1, (2**32,)), (2**32, (2**32, 1)),
        (2**64 + 1, (2**32, 2)), (11, (2**32 - 1, 0, 2**40)),
        (2**130 + 7, (3,)), (5, (2**64 + 1, 9)),
    ])
    def test_key_equals_seed_sequence(self, seed, path):
        assert_keys_equal(RngStream(seed, path))

    def test_mixed_seeds_and_paths_key_as_one_row_blocks(self):
        for s, p in [(3, (1,)), (0, ()), (3, (2**32, 1)), (2**64 + 1, (4,)),
                     (3, (2,)), (0, (7, 0)), (3, ()), (2**32, (2**32, 2)),
                     (3, (0,))]:
            assert_keys_equal(RngStream(s, p))

    def test_numpy_integer_path_ids(self):
        stream = RngStream(np.uint64(9), (np.int64(4), np.uint32(1)))
        assert_keys_equal(stream)
        assert_keys_equal(RngStream(9, (np.uint64(2**40),)))
        want = RngStream(9, (4, 1)).block().keys()
        assert np.array_equal(stream.block().keys(), want)
        assert np.array_equal(StreamBlock.of(
            RngStream(np.uint64(9)), np.array([4], dtype=np.uint32)).child(
                np.int64(1)).keys(), want)

    def test_draws_equal_seed_sequence(self):
        ref = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(7, spawn_key=(2**32, 1))))
        got = RngStream(7, (2**32, 1)).generator()
        assert np.array_equal(got.standard_normal(50),
                              ref.standard_normal(50))

    @given(st.lists(st.tuples(
        st.one_of(st.integers(0, 2**32), st.integers(0, 2**80)),
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**70)),
                 max_size=4)), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_keys_equal_seed_sequence_property(self, cases):
        for s, p in cases:
            assert_keys_equal(RngStream(s, tuple(p)))

    @pytest.mark.parametrize("stream", [RngStream(-1), RngStream(1, (-2,)),
                                        RngStream(1, (3, -2**40))])
    def test_negative_keys_raise(self, stream):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            stream.generator()
        with pytest.raises(ValueError, match="expected non-negative integer"):
            stream.block().keys()

    def test_seed_must_be_an_integer(self):
        # SeedSequence(None) would draw fresh entropy from the OS.
        for make in (RngStream(None).generator, RngStream(None).block,
                     RngStream(1.0).generator, RngStream(1.0).block):
            with pytest.raises(TypeError):
                make()


def seed_sequence_key(seed, path):
    return np.random.Philox(np.random.SeedSequence(
        seed, spawn_key=path)).state["state"]["key"]


class TestStreamBlock:
    @given(st.one_of(st.integers(0, 2**32), st.integers(0, 2**80)),
           st.lists(st.one_of(st.integers(0, 3),
                              st.integers(2**32 - 2, 2**32 + 1),
                              st.integers(0, 2**70)), max_size=3),
           st.lists(st.one_of(st.integers(0, 5),
                              st.integers(2**32 - 4, 2**32 - 1)), max_size=6),
           st.sampled_from([(), (0,), (1,), (2**40, 3)]))
    @settings(max_examples=200, deadline=None)
    def test_keys_equal_seed_sequence_property(self, seed, root, ids, suffix):
        root = RngStream(seed, tuple(root))
        block = StreamBlock.of(root, ids).child(*suffix)
        keys = block.keys()
        assert len(block) == len(ids)
        assert keys.shape == (len(ids), 2) and keys.dtype == np.uint64
        for r, key in zip(ids, keys):
            assert np.array_equal(
                key, seed_sequence_key(seed, root.path + (r,) + suffix))
        rows = list(range(len(ids)))[::-2]
        assert np.array_equal(block.take(rows).keys(), keys[rows])
        assert np.array_equal(
            StreamBlock.of(root, ids).take(rows).child(*suffix).keys(),
            keys[rows])

    def test_engine_ids_as_a_range(self):
        block = StreamBlock.of(RngStream(21), range(3, 84)).child(1)
        assert len(block) == 81
        assert np.array_equal(block.keys(), [
            seed_sequence_key(21, (r, 1)) for r in range(3, 84)])
        assert StreamBlock.of(RngStream(21), []).keys().shape == (0, 2)

    @pytest.mark.parametrize("ids", [[2**32], [0, 2**32 + 5], [-1],
                                     range(2**32 - 1, 2**32 + 1), [2**70]])
    def test_ids_outside_one_word_are_refused(self, ids):
        with pytest.raises(ValueError, match=r"in \[0, 2\*\*32\)"):
            StreamBlock.of(RngStream(0), ids)

    def test_each_generator_draws_what_new_generators_draw(self):
        # Each draw leaves a different state behind (a half-used buffer, a
        # spare 32-bit word after three); the next stream must not see it.
        draws = [lambda g: g.standard_normal(7),
                 lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                 lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                 lambda g: g.random(5)]
        streams = [RngStream(5, (r,)) for r in range(8)]
        want = [draws[i % 4](s.generator()) for i, s in enumerate(streams)]
        for gens in (each_generator(StreamBlock.of(RngStream(5), range(8))),
                     (g for s in streams for g in each_generator(s.block()))):
            got = [draws[i % 4](g) for i, g in enumerate(gens)]
            assert len(got) == len(want) == 8
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("n_words,dtype", [(2, np.uint64), (4, np.uint32),
                                               (3, np.uint64)])
    def test_zero_key_answers_any_request(self, n_words, dtype):
        # The re-keyed Philox's seed sequence must not depend on what numpy's
        # constructor happens to ask of it.
        state = _ZeroKey().generate_state(n_words, dtype)
        assert state.dtype == dtype and state.tolist() == [0] * n_words


def assert_keys_equal(stream):
    """The stream's Philox key is numpy's SeedSequence key: in its one-row
    block and in its own generator."""
    want = seed_sequence_key(stream.master_seed, stream.path)
    block = stream.block()
    keys = block.keys()
    assert len(block) == 1
    assert keys.shape == (1, 2) and keys.dtype == np.uint64
    assert np.array_equal(keys[0], want)
    assert np.array_equal(
        stream.generator().bit_generator.state["state"]["key"], want)


class TestStrataSpec:
    def test_valid(self):
        s = StrataSpec((0.0, 0.5, 1.0), (-np.inf, 0.4549, np.inf))
        assert s.m == 2
        assert np.allclose(s.widths, [0.5, 0.5])

    @pytest.mark.parametrize("cut,z", [
        ((0.1, 0.5, 1.0), (-np.inf, 0.0, np.inf)),
        ((0.0, 0.5, 0.9), (-np.inf, 0.0, np.inf)),
        ((0.0, 0.5, 0.4, 1.0), (-np.inf, 0.0, 1.0, np.inf)),
        ((0.0, 0.5, 1.0), (0.0, 1.0, np.inf)),
        ((0.0, 0.5, 1.0), (-np.inf, 2.0, np.inf)[::-1]),
    ])
    def test_invalid(self, cut, z):
        with pytest.raises(ValueError):
            StrataSpec(cut, z)

    def test_stratum_of_boundaries(self):
        s = StrataSpec((0.0, 0.5, 1.0), (-np.inf, 1.0, np.inf))
        # stratum j is the half-open interval (z_{j-1}, z_j]
        assert list(s.stratum_of(np.array([0.5, 1.0, 1.5]))) == [0, 0, 1]

    def test_stratum_of_matches_searchsorted(self):
        cuts = (-1.5, 0.0, 0.25, 3.0)
        edges = np.array(cuts + (-np.inf, np.inf, np.nan, -0.0, 1e300, -1e300)
                         + tuple(np.nextafter(cuts, np.inf))
                         + tuple(np.nextafter(cuts, -np.inf)))
        # 300 cuts: labels past 255 need a wider count than one byte
        for inner in (cuts, tuple(np.linspace(-4, 4, 12)),
                      tuple(np.linspace(-4, 4, 300))):
            spec = StrataSpec(tuple(np.linspace(0, 1, len(inner) + 2)),
                              (-np.inf,) + inner + (np.inf,))
            z = np.concatenate([edges, np.asarray(inner),
                                np.random.default_rng(0).normal(0, 3, 1000)])
            got = spec.stratum_of(z)
            assert got.dtype == np.min_scalar_type(len(inner))
            assert np.array_equal(got, np.searchsorted(inner, z, side="left"))
            for v in edges:
                one = spec.stratum_of(float(v))
                assert np.ndim(one) == 0
                assert one == np.searchsorted(inner, v, side="left"), v
            assert spec.stratum_of(np.nan) == len(inner)


class TestMetamodelQuantiles:
    def test_toy1d_closed_form(self):
        z = metamodel_quantiles(toy1d(), [0.5, 0.95])
        assert z[0] == pytest.approx(0.4549, abs=2e-4)
        assert z[1] == pytest.approx(3.8415, abs=2e-4)

    def test_toy2d_without_a_stream_is_refused(self):
        from qvr.model import toy2d
        with pytest.raises(ValueError):
            metamodel_quantiles(toy2d(), [0.5])

    def test_identity_mc(self):
        pair = replace(identity1d(), closed_form_z_quantile=None)
        z = metamodel_quantiles(pair, [0.95], RngStream(5), 10**7)
        assert z[0] == pytest.approx(1.6449, abs=0.002)

    def test_atoms_refused(self):
        # Z = floor(X) puts its 0.9 and 0.95 quantiles on one atom, 1
        pair = ModelPair(f=lambda x: x[:, 0], f_r=lambda x: np.floor(x[:, 0]),
                         input=standard_normal_input(1))
        with pytest.raises(SamplingError, match="not strictly increasing"):
            metamodel_quantiles(pair, [0.5, 0.9, 0.95], RngStream(6),
                                sample_count=10**4)

    def test_mc_convergence_rate(self):
        truth = toy1d().closed_form_z_quantile(0.95)
        pair = replace(toy1d(), closed_form_z_quantile=None)
        sizes = [10**4, 10**5, 10**6]
        errs = []
        for s in sizes:
            vals = [metamodel_quantiles(pair, [0.95], RngStream(s, (r,)),
                                        sample_count=s)[0]
                    for r in range(20)]
            errs.append(np.sqrt(np.mean((np.array(vals) - truth) ** 2)))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


def _toy1d_spec():
    return strata_from_cutpoints(toy1d(), [0.0, 0.5, 0.9, 0.95, 1.0])


class TestSampleStrata:
    def test_single_stratum_no_rejection(self):
        spec = StrataSpec((0.0, 1.0), (-np.inf, np.inf))
        sample, n_r = sample_strata(toy1d(), spec, AllocationPlan((5,)),
                                    RngStream(1))
        assert n_r == 5
        assert sample.counts.tolist() == [5]

    def test_quota_contract(self):
        spec = strata_from_cutpoints(toy1d(), [0.0, 0.5, 1.0])
        sample, _ = sample_strata(toy1d(), spec, AllocationPlan((2, 3)),
                                  RngStream(2))
        assert sample.counts.tolist() == [2, 3]
        z_half = spec.z_values[1]
        assert np.all(sample.z[0] <= z_half)
        assert np.all(sample.z[1] > z_half)

    def test_rare_stratum_draw_count(self):
        spec = strata_from_cutpoints(toy1d(), [0.0, 0.95, 1.0])
        draws = []
        for r in range(10):
            _, n_r = sample_strata(toy1d(), spec, AllocationPlan((0, 1000)),
                                   RngStream(3, (r,)))
            draws.append(n_r / 1000)
        assert np.mean(draws) == pytest.approx(20.0, rel=0.05)

    def test_quota_unmet_raises(self):
        spec = strata_from_cutpoints(toy1d(), [0.0, 0.95, 1.0])
        with pytest.raises(SamplingError):
            sample_strata(toy1d(), spec, AllocationPlan((0, 50)),
                          RngStream(4), max_draws=60)

    def test_reproducible(self):
        spec = _toy1d_spec()
        plan = AllocationPlan((10, 10, 10, 10))
        a, nra = sample_strata(toy1d(), spec, plan, RngStream(9, (1,)))
        b, nrb = sample_strata(toy1d(), spec, plan, RngStream(9, (1,)))
        assert nra == nrb
        for j in range(4):
            assert np.array_equal(a.x[j], b.x[j])

    def test_rejection_matches_conditional_law(self):
        spec = _toy1d_spec()
        plan = AllocationPlan((0, 10**5, 0, 0))
        sample, _ = sample_strata(toy1d(), spec, plan, RngStream(10))
        z = np.sort(sample.z[1])
        # Z = X^2 with X ~ N(0,1): F_Z(z) = 2 Phi(sqrt z) - 1.
        fz = 2 * stats.norm.cdf(np.sqrt(z)) - 1
        cond = (fz - 0.5) / 0.4
        emp = np.arange(1, len(z) + 1) / len(z)
        assert np.abs(emp - cond).max() < 0.01

    def test_pooled_beats_naive_on_average(self):
        spec = strata_from_cutpoints(toy1d(), [0.0, 0.9, 1.0])
        plan = AllocationPlan((10, 10))
        pooled = np.mean([
            sample_strata(toy1d(), spec, plan, RngStream(11, (r,)))[1]
            for r in range(200)
        ])
        naive, _ = expected_rejection_cost(spec, plan)
        assert pooled <= naive


class TestEvaluateFull:
    def test_fills_y_and_counts_calls(self):
        pair = toy1d()
        calls = {"n": 0}
        orig = pair.f

        def counting(x):
            calls["n"] += len(x)
            return orig(x)

        from qvr.model import ModelPair
        counted = ModelPair(f=counting, f_r=pair.f_r, input=pair.input,
                            closed_form_z_quantile=pair.closed_form_z_quantile)
        spec = strata_from_cutpoints(counted, [0.0, 0.5, 1.0])
        sample, _ = sample_strata(counted, spec, AllocationPlan((2, 3)),
                                  RngStream(12))
        assert calls["n"] == 0
        filled = evaluate_full(counted, sample)
        assert calls["n"] == 5
        for j in range(2):
            assert np.allclose(filled.y[j], orig(sample.x[j]))

    def test_empty_plan_no_calls(self):
        spec = StrataSpec((0.0, 1.0), (-np.inf, np.inf))
        sample, _ = sample_strata(toy1d(), spec, AllocationPlan((0,)),
                                  RngStream(13))
        filled = evaluate_full(toy1d(), sample)
        assert len(filled.y[0]) == 0


class TestExpectedRejectionCost:
    def test_proportional_plan(self):
        spec = _toy1d_spec()
        plan = AllocationPlan((100, 80, 10, 10))
        expected, _ = expected_rejection_cost(spec, plan)
        assert expected == pytest.approx(200 * 4)

    def test_half_half_two_strata(self):
        spec = strata_from_cutpoints(toy1d(), [0.0, 0.95, 1.0])
        n = 1000
        expected, _ = expected_rejection_cost(
            spec, AllocationPlan((n // 2, n // 2)))
        assert expected == pytest.approx(n * (0.5 / 0.95 + 0.5 / 0.05),
                                         rel=1e-12)

    def test_uniform_bound(self):
        spec = _toy1d_spec()
        _, bound = expected_rejection_cost(spec, AllocationPlan((1, 1, 1, 1)))
        assert bound == pytest.approx(4 / 0.05, rel=1e-9)


def test_sample_input_deterministic():
    d = toy1d().input
    a = d.sample(RngStream(1, (5,)).generator(), 50)
    b = d.sample(RngStream(1, (5,)).generator(), 50)
    assert np.array_equal(a, b)
