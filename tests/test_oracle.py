from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divknn import oracle
from divknn.baselines import div_ann, fetch_union, top_k
from divknn.core import AttributeTable, SimilarityFn, VectorSet, WelfareParams
from divknn.multi import multi_div_ann, multi_nash_ann, multi_p_mean_ann
from divknn.oracle import (AlphaOracleConfig, alpha_topk, block_pools,
                           exact_topk, full_scan_pool, rank)
from divknn.solvers import nash_ann, p_mean_ann


@st.composite
def _rank_inputs(draw):
    """Tie-heavy integer similarities, ids absent or a permutation, and a
    limit at the edges: 1, n - 1, n, n + 1 or None (those that are >= 1)."""
    sims = np.array(draw(st.lists(st.integers(0, 4), max_size=60)),
                    dtype=np.float64)
    n = len(sims)
    ids = (np.array(draw(st.permutations(range(n))), dtype=np.intp)
           if draw(st.booleans()) else None)
    limit = draw(st.sampled_from(
        [None] + [m for m in (1, n - 1, n, n + 1) if m >= 1]))
    return sims, ids, limit


@given(_rank_inputs())
def test_rank_is_the_lexsort_by_similarity_then_id(inputs):
    sims, ids, limit = inputs
    keys = np.arange(len(sims)) if ids is None else ids
    order = np.lexsort((keys, -sims))[:limit]
    got = rank(sims, ids, limit)
    assert got.ids.dtype == np.intp and got.sims.dtype == np.float64
    assert got.ids.tolist() == keys[order].tolist()
    assert got.sims.tolist() == sims[order].tolist()
    assert not got.ids.flags.writeable and not got.sims.flags.writeable


def naive_topk(q, attribute, k, data, attrs, fn):
    """Independent reference: full sort by (-similarity, id), truncate."""
    members = attrs.inverted[attribute]
    scored = sorted(((float(fn.batch(q, data.data[[v]])[0]), int(v))
                     for v in members), key=lambda t: (-t[0], t[1]))
    return scored[:min(k, len(members))]


def test_exact_topk_three_values():
    data = VectorSet([[0.1], [0.9], [0.5]])
    attrs = AttributeTable.from_labels([0, 0, 0], c=1)
    fn = SimilarityFn("dot-product")
    r = exact_topk([1.0], 0, 2, data, attrs, fn)
    assert r.ids.tolist() == [1, 2]
    assert r.sims.tolist() == [pytest.approx(0.9), pytest.approx(0.5)]


def test_exact_topk_k_exceeds_class():
    data = VectorSet([[0.1], [0.9], [0.5]])
    attrs = AttributeTable.from_labels([0, 0, 0], c=1)
    fn = SimilarityFn("dot-product")
    r = exact_topk([1.0], 0, 10, data, attrs, fn)
    assert r.ids.tolist() == [1, 2, 0]


def test_exact_topk_empty_attribute():
    data = VectorSet([[1.0]])
    attrs = AttributeTable.from_labels([0], c=2)
    fn = SimilarityFn("dot-product")
    r = exact_topk([1.0], 1, 3, data, attrs, fn)
    assert len(r) == 0


def test_exact_topk_matches_naive_full_sort():
    rng = np.random.default_rng(10)
    data = VectorSet(rng.normal(size=(50, 8)))
    attrs = AttributeTable.from_labels(rng.integers(0, 4, 50), c=4)
    for kind, delta in (("one-plus-cosine", 0.0),
                        ("reciprocal-euclidean", 0.05)):
        fn = SimilarityFn(kind, delta=delta)
        q = rng.normal(size=8)
        for a in range(4):
            for k in (1, 5, 100):
                got = exact_topk(q, a, k, data, attrs, fn)
                ref = naive_topk(q, a, k, data, attrs, fn)
                assert [int(i) for i in got.ids] == [v for _, v in ref]
                assert np.allclose(got.sims, [s for s, _ in ref], rtol=1e-12)


def test_exact_topk_ties_break_by_ascending_id():
    # duplicated vectors: equal similarity, ids must come back ascending
    data = VectorSet([[1.0], [1.0], [1.0], [2.0]])
    attrs = AttributeTable.from_labels([0, 0, 0, 0], c=1)
    fn = SimilarityFn("dot-product")
    r = exact_topk([1.0], 0, 3, data, attrs, fn)
    assert [int(i) for i in r.ids] == [3, 0, 1]


def test_exact_topk_boundary_tie_across_k():
    # ties straddling the k-th slot still resolve to the lowest ids
    data = VectorSet([[5.0], [3.0], [3.0], [3.0], [1.0]])
    attrs = AttributeTable.from_labels([0] * 5, c=1)
    fn = SimilarityFn("dot-product")
    r = exact_topk([1.0], 0, 2, data, attrs, fn)
    assert [int(i) for i in r.ids] == [0, 1]


def test_exact_topk_validation():
    data = VectorSet([[1.0]])
    attrs = AttributeTable.from_labels([0], c=1)
    fn = SimilarityFn("dot-product")
    with pytest.raises(ValueError):
        exact_topk([1.0], 0, 0, data, attrs, fn)
    with pytest.raises(ValueError):
        exact_topk([1.0], 2, 1, data, attrs, fn)


def test_alpha_one_is_exact():
    rng = np.random.default_rng(11)
    data = VectorSet(rng.normal(size=(30, 5)))
    attrs = AttributeTable.from_labels(rng.integers(0, 3, 30), c=3)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=5)
    cfg = AlphaOracleConfig(alpha=1.0, seed=99)
    for a in range(3):
        exact = exact_topk(q, a, 4, data, attrs, fn)
        degraded = alpha_topk(q, a, 4, data, attrs, fn, cfg)
        assert [int(i) for i in degraded.ids] == [int(i) for i in exact.ids]


@pytest.mark.parametrize("alpha", [0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_alpha_per_rank_guarantee(alpha, seed):
    rng = np.random.default_rng(12)
    data = VectorSet(rng.normal(size=(10, 4)) + 3.0)
    attrs = AttributeTable.from_labels([0] * 10, c=1)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=4) + 3.0
    cfg = AlphaOracleConfig(alpha=alpha, seed=seed)
    exact = exact_topk(q, 0, 6, data, attrs, fn)
    got = alpha_topk(q, 0, 6, data, attrs, fn, cfg)
    assert len(got) == len(exact)
    for i in range(len(got)):
        assert got.sims[i] >= alpha * exact.sims[i] - 1e-15
    # entries are real members carrying their true similarity
    assert got.sims == pytest.approx(fn.batch(q, data.data[got.ids]))


def test_alpha_empty_attribute():
    data = VectorSet([[1.0]])
    attrs = AttributeTable.from_labels([0], c=2)
    fn = SimilarityFn("dot-product")
    r = alpha_topk([1.0], 1, 3, data, attrs, fn,
                   AlphaOracleConfig(alpha=0.5, seed=1))
    assert len(r) == 0


def test_alpha_deterministic_and_order_independent():
    rng = np.random.default_rng(13)
    data = VectorSet(rng.normal(size=(40, 6)))
    attrs = AttributeTable.from_labels(rng.integers(0, 4, 40), c=4)
    fn = SimilarityFn("one-plus-cosine")
    oracle = partial(alpha_topk, data=data, attrs=attrs, fn=fn,
                     cfg=AlphaOracleConfig(alpha=0.6, seed=42))
    q1, q2 = rng.normal(size=6), rng.normal(size=6)
    first = [oracle(q1, a, 5) for a in range(4)]
    # interleave other calls, then repeat: results must be unchanged
    _ = oracle(q2, 2, 5)
    second = [oracle(q1, a, 5) for a in reversed(range(4))][::-1]
    for a, b in zip(first, second):
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.sims, b.sims)


def test_alpha_degrades_for_small_alpha():
    # with a permissive alpha and many near-duplicates, some perturbation
    # must actually happen for at least one (query, attribute) pair
    rng = np.random.default_rng(14)
    data = VectorSet(np.abs(rng.normal(size=(60, 3))) + 1.0)
    attrs = AttributeTable.from_labels([0] * 60, c=1)
    fn = SimilarityFn("one-plus-cosine")
    cfg = AlphaOracleConfig(alpha=0.3, seed=5)
    changed = False
    for _ in range(10):
        q = np.abs(rng.normal(size=3)) + 1.0
        exact = exact_topk(q, 0, 8, data, attrs, fn)
        got = alpha_topk(q, 0, 8, data, attrs, fn, cfg)
        if [int(i) for i in got.ids] != [int(i) for i in exact.ids]:
            changed = True
    assert changed


def test_alpha_config_validation():
    with pytest.raises(ValueError):
        AlphaOracleConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AlphaOracleConfig(alpha=1.2)


def test_exact_oracle_callable_wrapper():
    rng = np.random.default_rng(15)
    data = VectorSet(rng.normal(size=(20, 4)))
    attrs = AttributeTable.from_labels(rng.integers(0, 2, 20), c=2)
    fn = SimilarityFn("one-plus-cosine")
    oracle = partial(exact_topk, data=data, attrs=attrs, fn=fn)
    q = rng.normal(size=4)
    direct = exact_topk(q, 1, 3, data, attrs, fn)
    got = oracle(q, 1, 3)
    assert np.array_equal(got.ids, direct.ids)
    assert np.array_equal(got.sims, direct.sims)


# every public entry point that takes a single query, called with a
# (2, d) block of two: (name, call(q, data, attrs, fn))
SINGLE_QUERY_CALLS = {
    "exact_topk": lambda q, v, a, fn: exact_topk(q, 0, 3, v, a, fn),
    "alpha_topk": lambda q, v, a, fn: alpha_topk(
        q, 0, 3, v, a, fn, AlphaOracleConfig(alpha=0.5)),
    "full_scan_pool": lambda q, v, a, fn: full_scan_pool(q, v, fn, 5),
    "top_k": lambda q, v, a, fn: top_k(q, 3, v, fn),
    "div_ann": lambda q, v, a, fn: div_ann(q, 3, 2, v, a, fn),
    "fetch_union": lambda q, v, a, fn: fetch_union(
        q, 3, 10, WelfareParams(), v, a, fn),
    "nash_ann": lambda q, v, a, fn: nash_ann(q, 3, WelfareParams(), v, a,
                                             fn),
    "p_mean_ann": lambda q, v, a, fn: p_mean_ann(
        q, 3, WelfareParams(p=-1.0), v, a, fn),
    "multi_nash_ann": lambda q, v, a, fn: multi_nash_ann(q, 3, 1.0, v, a,
                                                         fn),
    "multi_p_mean_ann": lambda q, v, a, fn: multi_p_mean_ann(
        q, 3, WelfareParams(p=0.5), v, a, fn),
    "multi_div_ann": lambda q, v, a, fn: multi_div_ann(q, 3, 2, v, a, fn),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(SINGLE_QUERY_CALLS))
def test_a_block_to_a_single_query_entry_point_is_rejected(name, dtype):
    rng = np.random.default_rng(16)
    data = VectorSet(rng.normal(size=(60, 4)).astype(dtype))
    attrs = AttributeTable.from_labels(rng.integers(0, 3, 60), c=3)
    for kind in ("one-plus-cosine", "dot-product"):
        with pytest.raises(ValueError,
                           match="^a single query must be one vector$"):
            SINGLE_QUERY_CALLS[name](rng.normal(size=(2, 4)), data, attrs,
                                     SimilarityFn(kind))


# inverted-list lengths: empty, below k, both sides of the 4096-row floor
# of the float32 filter, and above one 65536-row streamed block
_LIST_LENGTHS = (0, 3, 4000, 4097, 65539)


@pytest.mark.parametrize("kind", ["one-plus-cosine", "reciprocal-euclidean",
                                  "dot-product"])
@pytest.mark.parametrize("base", ["float32", "float64", "int"])
def test_block_of_list_rankings_equals_exact_topk(monkeypatch, kind, base):
    # block_pools over each inverted list routes it as exact_topk does: the
    # same ids for every query of the block; similarities equal up to the
    # last place (a block's GEMM against a query's GEMV), exactly on
    # integer data
    filtered = []
    real = oracle._filter_pools

    def filter_pools(qs, data, fn, limit, ids=None):
        filtered.append(len(ids))
        return real(qs, data, fn, limit, ids)

    monkeypatch.setattr(oracle, "_filter_pools", filter_pools)
    rng = np.random.default_rng([81, len(kind), len(base)])
    n, d, k = sum(_LIST_LENGTHS), 4, 5
    # integer rows have no zero row: one-plus-cosine rejects one
    x = (rng.integers(1, 4, size=(n, d)) if base == "int"
         else rng.normal(size=(n, d)))
    data = VectorSet(x.astype(np.float64 if base == "float64"
                              else np.float32))
    labels = rng.permutation(np.repeat(np.arange(len(_LIST_LENGTHS)),
                                       _LIST_LENGTHS))
    attrs = AttributeTable.from_labels(labels, len(_LIST_LENGTHS))
    fn = SimilarityFn(kind, delta=0.5 if kind == "reciprocal-euclidean"
                      else 0.0)
    qs = (rng.integers(1, 3, size=(3, d)) if base == "int"
          else rng.normal(size=(3, d)))
    for a, ids in enumerate(attrs.inverted):
        assert len(ids) == _LIST_LENGTHS[a]
        filtered.clear()
        pools = block_pools(qs, data, fn, k, ids)
        assert len(pools) == len(qs)
        for q, got in zip(qs, pools):
            want = exact_topk(q, a, k, data, attrs, fn)
            assert len(got) == min(k, len(ids))
            assert got.ids.tolist() == want.ids.tolist()
            if base == "int":
                assert got.sims.tobytes() == want.sims.tobytes()
            else:
                np.testing.assert_allclose(got.sims, want.sims, rtol=1e-12,
                                           atol=1e-12)
        # the float32 filter takes a float32 base's lists above 4096 rows,
        # once for the block and once per query
        filters = base != "float64" and len(ids) > 4096
        assert filtered == [len(ids)] * (1 + len(qs)) * filters
