import math
from functools import partial

import numpy as np
import pytest

from divknn.core import (AttributeTable, SimilarityFn, VectorSet,
                         WelfareParams, utilities, welfare)
from divknn.oracle import AlphaOracleConfig, alpha_topk, exact_topk
from divknn.reference import brute_force_opt
from divknn.solvers import (GreedyStats, greedy_select, nash_ann, p_mean_ann,
                            prefetch_streams)
from divknn.suites import (complete_diversity_instance,
                           complete_relevance_instance,
                           random_single_instance)


def test_complete_diversity_behavior():
    # equal similarities and c >= k: at most one pick per attribute
    q, data, attrs, fn, _ = complete_diversity_instance(c=6, k=4)
    for eta in (0.01, 1.0, 50.0):
        sel = nash_ann(q, 4, WelfareParams(p=0.0, eta=eta), data, attrs, fn)
        counts = np.bincount(attrs.labels[list(sel.ids)], minlength=6)
        assert counts.max() <= 1
        assert len(sel) == 4 and not sel.truncated


def test_complete_relevance_behavior():
    # only one attribute has similarity mass: all k picks come from it
    q, data, attrs, fn, _ = complete_relevance_instance(c=5, k=3, star=2,
                                                        star_size=4)
    sel = nash_ann(q, 3, WelfareParams(p=0.0, eta=1.0), data, attrs, fn)
    assert all(attrs.labels[v] == 2 for v in sel.ids)
    assert len(sel) == 3


def test_nash_matches_brute_force_example_size():
    rng = np.random.default_rng(20)
    data = VectorSet(rng.normal(size=(18, 5)))
    attrs = AttributeTable.from_labels(rng.integers(0, 4, 18), c=4)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=5)
    params = WelfareParams(p=0.0, eta=1.0)
    sel = nash_ann(q, 4, params, data, attrs, fn)
    _, opt_log = brute_force_opt(q, 4, params, data, attrs, fn)
    assert sel.objective == pytest.approx(math.exp(opt_log), rel=1e-9)


@pytest.mark.parametrize("p", [-1.0, 0.5])
def test_p_mean_matches_brute_force(p):
    rng = np.random.default_rng(21)
    data = VectorSet(rng.normal(size=(16, 4)))
    attrs = AttributeTable.from_labels(rng.integers(0, 3, 16), c=3)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=4)
    params = WelfareParams(p=p, eta=1.0)
    sel = p_mean_ann(q, 4, params, data, attrs, fn)
    _, opt = brute_force_opt(q, 4, params, data, attrs, fn)
    assert sel.objective == pytest.approx(opt, rel=1e-9)


def test_p_one_equals_plain_top_k():
    rng = np.random.default_rng(22)
    data = VectorSet(rng.normal(size=(25, 4)))
    attrs = AttributeTable.from_labels(rng.integers(0, 5, 25), c=5)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=4)
    sel = p_mean_ann(q, 6, WelfareParams(p=1.0, eta=1.0), data, attrs, fn)
    sims = fn.batch(q, data.data)
    expected = set(np.argsort(-sims)[:6].tolist())
    assert set(sel.ids) == expected


def test_very_negative_p_spreads_like_nash():
    # equal similarities: p = -10 spreads across attributes exactly like
    # the Nash solution's per-attribute counts, and matches brute force
    q, data, attrs, fn, _ = complete_diversity_instance(c=5, k=3)
    data = VectorSet(data.data[:15])
    attrs = AttributeTable.from_labels(attrs.labels[:15], c=5)
    params = WelfareParams(p=-10.0, eta=1.0)
    sel = p_mean_ann(q, 3, params, data, attrs, fn)
    nash = nash_ann(q, 3, WelfareParams(p=0.0, eta=1.0), data, attrs, fn)
    counts_p = np.bincount(attrs.labels[list(sel.ids)], minlength=5)
    counts_n = np.bincount(attrs.labels[list(nash.ids)], minlength=5)
    assert sorted(counts_p.tolist()) == sorted(counts_n.tolist())
    _, opt = brute_force_opt(q, 3, params, data, attrs, fn)
    assert sel.objective == pytest.approx(opt, rel=1e-9)


def test_p_zero_dispatches_to_nash():
    rng = np.random.default_rng(23)
    q, data, attrs, fn, k = random_single_instance(rng)
    params = WelfareParams(p=0.0, eta=0.5)
    a = p_mean_ann(q, k, params, data, attrs, fn)
    b = nash_ann(q, k, params, data, attrs, fn)
    assert a.ids == b.ids


def test_multi_attribute_table_is_config_error():
    data = VectorSet([[1.0], [2.0]])
    attrs = AttributeTable.from_rows([[0, 1], [1]], c=2)
    fn = SimilarityFn("dot-product")
    with pytest.raises(ValueError):
        nash_ann([1.0], 1, WelfareParams(), data, attrs, fn)


def test_truncated_when_too_few_vectors():
    data = VectorSet([[1.0], [2.0]])
    attrs = AttributeTable.from_labels([0, 1], c=3)
    fn = SimilarityFn("dot-product")
    sel = nash_ann([1.0], 5, WelfareParams(), data, attrs, fn)
    assert sel.truncated
    assert sorted(sel.ids) == [0, 1]


def test_selection_invariants_hold():
    rng = np.random.default_rng(24)
    for _ in range(30):
        q, data, attrs, fn, k = random_single_instance(rng)
        params = WelfareParams(p=float(rng.choice([-2.0, 0.0, 0.7])),
                               eta=float(rng.uniform(0.05, 3.0)))
        sel = p_mean_ann(q, k, params, data, attrs, fn)
        u = utilities(q, sel.ids, data, attrs, fn)
        assert np.allclose(sel.utilities, u, rtol=1e-9, atol=1e-12)
        assert sel.objective == pytest.approx(welfare(u, params), rel=1e-9)
        assert len(set(sel.ids)) == len(sel.ids)


def test_greedy_counters_bound():
    rng = np.random.default_rng(25)
    q, data, attrs, fn, _ = random_single_instance(rng, n_max=20, c_max=6)
    k = 4
    oracle = partial(exact_topk, data=data, attrs=attrs, fn=fn)
    streams = prefetch_streams(q, k, attrs, oracle)
    bounds = np.cumsum([0] + [len(st) for st in streams])
    stats = GreedyStats()
    chosen, _, _ = greedy_select(np.concatenate([st.ids for st in streams]),
                                 np.concatenate([st.sims for st in streams]),
                                 bounds, k, WelfareParams(), stats)
    assert stats.rounds == len(chosen) <= k
    assert stats.comparisons <= stats.rounds * attrs.c
    # the lists and picks of the solver itself
    assert tuple(chosen) == nash_ann(q, k, WelfareParams(), data, attrs,
                                     fn).ids


def test_tie_breaks_to_lowest_attribute_id():
    # two attributes with identical similarity profiles: greedy must pick
    # attribute 0 first, then 1 (round-robin by construction)
    data = VectorSet([[1.0], [1.0], [1.0], [1.0]])
    attrs = AttributeTable.from_labels([1, 0, 1, 0], c=2)
    fn = SimilarityFn("dot-product")
    sel = nash_ann([1.0], 2, WelfareParams(p=0.0, eta=1.0), data, attrs, fn)
    # first pick: attribute 0's best = id 1 (ties inside an attribute break
    # by ascending vector id); second: attribute 1's best = id 0
    assert sel.ids == (1, 0)


def test_attribute_stream_prefix_sums():
    # every prefetched list is attribute l's top-min(k, |D_l|), and its
    # similarity sum is the utility of taking the whole list
    rng = np.random.default_rng(26)
    q, data, attrs, fn, k = random_single_instance(rng)
    oracle = partial(exact_topk, data=data, attrs=attrs, fn=fn)
    streams = prefetch_streams(q, k, attrs, oracle)
    assert len(streams) == attrs.c
    for a, st in enumerate(streams):
        assert len(st) == min(k, len(attrs.inverted[a]))
        expect = utilities(q, st.ids, data, attrs, fn)[a]
        assert float(np.sum(st.sims)) == pytest.approx(expect, rel=1e-12,
                                                       abs=1e-15)


def test_stream_marginals_match_cumulative_transform():
    # the greedy's per-stream state reproduces log(prefix + eta) and
    # (prefix + eta)^p step by step
    rng = np.random.default_rng(27)
    q, data, attrs, fn, k = random_single_instance(rng)
    oracle = partial(exact_topk, data=data, attrs=attrs, fn=fn)
    streams = prefetch_streams(q, k, attrs, oracle)
    eta = 0.7
    for st in streams:
        prefix = np.concatenate([[0.0], np.cumsum(st.sims)])
        f_log = np.log(prefix + eta)
        f_pow = np.power(prefix + eta, -0.5)
        running = 0.0
        for i in range(len(st)):
            s = float(st.sims[i])
            assert math.log(running + eta + s) - math.log(running + eta) == \
                pytest.approx(f_log[i + 1] - f_log[i], rel=1e-12, abs=1e-12)
            assert (running + eta + s) ** -0.5 - (running + eta) ** -0.5 == \
                pytest.approx(f_pow[i + 1] - f_pow[i], rel=1e-12, abs=1e-12)
            running += s


def test_size_match_optimality():
    # among all subsets with the same per-attribute counts as the greedy's
    # answer, the greedy's welfare is maximal
    import itertools
    rng = np.random.default_rng(28)
    for _ in range(10):
        q, data, attrs, fn, k = random_single_instance(rng, n_max=10,
                                                       c_max=3, k_max=3)
        params = WelfareParams(p=0.0, eta=1.0)
        sel = nash_ann(q, k, params, data, attrs, fn)
        target = np.bincount(attrs.labels[list(sel.ids)], minlength=attrs.c)
        for combo in itertools.combinations(range(data.n), len(sel.ids)):
            counts = np.bincount(attrs.labels[list(combo)], minlength=attrs.c)
            if np.array_equal(counts, target):
                val = welfare(utilities(q, combo, data, attrs, fn), params)
                assert sel.objective >= val - 1e-9 * max(1.0, val)


def test_alpha_oracle_guarantee_spot():
    rng = np.random.default_rng(29)
    for alpha in (0.5, 0.9):
        q, data, attrs, fn, k = random_single_instance(rng)
        params = WelfareParams(p=0.0, eta=1.0)
        oracle = partial(alpha_topk, data=data, attrs=attrs, fn=fn,
                         cfg=AlphaOracleConfig(alpha=alpha, seed=3))
        sel = nash_ann(q, k, params, data, attrs, fn, oracle=oracle)
        _, opt_log = brute_force_opt(q, k, params, data, attrs, fn)
        assert sel.objective >= alpha * math.exp(opt_log) * (1 - 1e-12)


def test_exhausted_attribute_is_skipped():
    # attribute 0 has one vector with huge similarity; greedy must continue
    # to other attributes once it is used up
    data = VectorSet([[10.0], [1.0], [1.0], [0.5]])
    attrs = AttributeTable.from_labels([0, 1, 1, 2], c=3)
    fn = SimilarityFn("dot-product")
    sel = nash_ann([1.0], 3, WelfareParams(p=0.0, eta=1.0), data, attrs, fn)
    assert 0 in sel.ids and len(sel.ids) == 3 and not sel.truncated

