import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divknn.baselines import fetch_union, top_k
from divknn.core import (AttributeTable, SimilarityFn, VectorSet,
                         WelfareParams, log_nsw, utilities, welfare)
from divknn.metrics import entropy
from divknn.multi import multi_div_ann, multi_nash_ann, multi_p_mean_ann
from divknn.oracle import RankedList, block_pools, full_scan_pool
from divknn.reference import brute_force_opt
from divknn.solvers import nash_ann
from divknn.suites import random_multi_instance, random_single_instance


def test_pool_sorted_and_distinct():
    rng = np.random.default_rng(30)
    data = VectorSet(rng.normal(size=(40, 4)))
    fn = SimilarityFn("one-plus-cosine")
    pool = full_scan_pool(rng.normal(size=4), data, fn, limit=10)
    assert len(pool) == 10
    assert all(pool.sims[i] >= pool.sims[i + 1] for i in range(9))
    assert len(set(pool.ids.tolist())) == 10


@pytest.mark.parametrize("ids, sims, match", [
    # duplicates need not be neighbours
    pytest.param([1, 1], None, "pool ids must be distinct", id="dup-next"),
    pytest.param([3, 1, 3], None, "pool ids must be distinct",
                 id="dup-apart"),
    # numpy would read row n - 1 for -1, and fail on 4
    pytest.param([3, -1], None, r"pool ids must lie in \[0, 4\)",
                 id="negative-id"),
    pytest.param([0, 4], None, r"pool ids must lie in \[0, 4\)",
                 id="id-past-n"),
    pytest.param([0, 1, 2], [1.0, 0.5], "the same length", id="short-sims"),
    pytest.param([0, 1], [1.0, 0.5, 0.2], "the same length",
                 id="long-sims"),
    pytest.param([0, 1, 2], [1.0, 0.5, 0.7], "must be non-increasing",
                 id="unsorted-sims"),
])
def test_every_pool_entry_point_rejects_a_bad_pool(ids, sims, match):
    # every entry point that takes a caller's pool checks it
    data = VectorSet(np.eye(4))
    attrs = AttributeTable.from_labels([0, 1, 0, 1], c=2)
    fn = SimilarityFn("dot-product")
    if sims is None:
        sims = np.linspace(1.0, 0.5, len(ids))
    pool = RankedList(ids=np.array(ids, dtype=np.intp),
                      sims=np.array(sims, dtype=np.float64))
    q = np.ones(4)
    params = WelfareParams(p=0.0, eta=1.0)
    calls = [
        lambda: top_k(q, 1, data, fn, pool=pool),
        lambda: fetch_union(q, 1, 2, params, data, attrs, fn, pool=pool),
        lambda: multi_nash_ann(q, 1, 1.0, data, attrs, fn, pool=pool),
        lambda: multi_p_mean_ann(q, 1, params, data, attrs, fn, pool=pool),
        lambda: multi_div_ann(q, 1, 1, data, attrs, fn, pool=pool),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("q, match", [
    pytest.param(np.ones((2, 4)), "one vector", id="two-queries"),
    pytest.param(np.array([1.0, np.nan, 0.0, 0.0]), "NaN or Inf", id="nan"),
    pytest.param(np.ones(5), "dimension mismatch", id="wrong-d"),
])
def test_every_pool_entry_point_checks_the_query(q, match):
    # a caller's pool is read instead of the base, but the query is still
    # checked as the scan would check it
    data = VectorSet(np.eye(4))
    attrs = AttributeTable.from_labels([0, 1, 0, 1], c=2)
    fn = SimilarityFn("one-plus-cosine")
    pool = full_scan_pool(np.ones(4), data, fn)
    params = WelfareParams(p=-1.0, eta=1.0)
    calls = [
        lambda: top_k(q, 1, data, fn, attrs=attrs, pool=pool),
        lambda: fetch_union(q, 1, 2, params, data, attrs, fn, pool=pool),
        lambda: multi_nash_ann(q, 1, 1.0, data, attrs, fn, pool=pool),
        lambda: multi_p_mean_ann(q, 1, params, data, attrs, fn, pool=pool),
        lambda: multi_div_ann(q, 1, 1, data, attrs, fn, pool=pool),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


def test_a_pool_that_rank_made_is_not_sorted_again(monkeypatch):
    # a pool from full_scan_pool has distinct ids and its sims best first
    # by construction: only its id range is checked, for it may rank
    # another base; a hand-made copy is checked in full
    rng = np.random.default_rng(33)
    data = VectorSet(rng.normal(size=(40, 4)))
    attrs = AttributeTable.from_labels(rng.integers(0, 3, 40), c=3)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=4)
    pool = full_scan_pool(q, data, fn, limit=20)
    hand = RankedList(ids=pool.ids.copy(), sims=pool.sims.copy())
    want = multi_nash_ann(q, 5, 1.0, data, attrs, fn, pool=hand)
    sorted_arrays = []
    real_sort = np.sort

    def spy_sort(a, *args, **kwargs):
        sorted_arrays.append(a)
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy_sort)
    got = multi_nash_ann(q, 5, 1.0, data, attrs, fn, pool=pool)
    assert got.ids == want.ids
    assert not any(a is pool.ids for a in sorted_arrays)
    multi_nash_ann(q, 5, 1.0, data, attrs, fn, pool=hand)
    assert any(a is hand.ids for a in sorted_arrays)
    monkeypatch.undo()
    small = VectorSet(data.data[:10])
    with pytest.raises(ValueError, match=r"pool ids must lie in \[0, 10\)"):
        multi_nash_ann(q, 5, 1.0, small, AttributeTable.from_labels(
            [0] * 10, c=1), fn, pool=pool)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("limit", [0, -3])
def test_pool_limit_below_one_is_an_error(dtype, limit):
    rng = np.random.default_rng(32)
    data = VectorSet(rng.normal(size=(40, 4)).astype(dtype))
    fn = SimilarityFn("one-plus-cosine")
    qs = rng.normal(size=(2, 4))
    with pytest.raises(ValueError, match="limit must be >= 1"):
        full_scan_pool(qs[0], data, fn, limit=limit)
    with pytest.raises(ValueError, match="limit must be >= 1"):
        block_pools(qs, data, fn, limit)


def test_pool_tie_break_by_id():
    data = VectorSet([[1.0], [2.0], [1.0]])
    fn = SimilarityFn("dot-product")
    pool = full_scan_pool([1.0], data, fn, limit=2)
    assert pool.ids.tolist() == [1, 0]


def test_greedy_bound_small_instances():
    rng = np.random.default_rng(31)
    factor = 1.0 - 1.0 / math.e
    for _ in range(40):
        q, data, attrs, fn, k = random_multi_instance(rng, n_max=12)
        sel = multi_nash_ann(q, k, eta=1.0, data=data, attrs=attrs, fn=fn)
        greedy_log = log_nsw(sel.utilities, 1.0)
        _, opt_log = brute_force_opt(q, k, WelfareParams(p=0.0, eta=1.0),
                                     data, attrs, fn)
        assert factor * opt_log <= greedy_log + 1e-12
        assert greedy_log <= opt_log + 1e-9


def _row(attrs, v):
    """Attribute ids of vector v, read from the CSR arrays."""
    return attrs.indices[attrs.indptr[v]:attrs.indptr[v + 1]]


def _scalar_greedy(k, pool, attrs, eta, p):
    """Reference greedy: each round rescans every remaining candidate and
    scores it one at a time; strict improvement keeps the first best."""
    nash = p == 0.0
    sign = 1.0 if (nash or p > 0) else -1.0
    u = np.zeros(attrs.c)
    remaining = list(range(len(pool)))
    chosen = []
    for _ in range(min(k, len(pool))):
        best_pos, best_gain = 0, -np.inf
        for pos, i in enumerate(remaining):
            ul = u[_row(attrs, pool.ids[i])]
            s = float(pool.sims[i])
            if nash:
                g = np.sum(np.log(ul + eta + s) - np.log(ul + eta))
            else:
                g = np.sum(np.power(ul + eta + s, p) - np.power(ul + eta, p))
            if sign * float(g) > best_gain:
                best_pos, best_gain = pos, sign * float(g)
        i = remaining.pop(best_pos)
        chosen.append(int(pool.ids[i]))
        for a in _row(attrs, pool.ids[i]):
            u[a] += float(pool.sims[i])
    return tuple(chosen), u


def _assert_engine_matches_scalar(q, k, data, attrs, fn, eta, p, pool=None):
    params = WelfareParams(p=p, eta=eta)
    sel = multi_p_mean_ann(q, k, params, data, attrs, fn, pool=pool)
    if pool is None:
        pool = full_scan_pool(q, data, fn)
    ids, u = _scalar_greedy(k, pool, attrs, eta, p)
    assert sel.ids == ids
    assert sel.utilities.tobytes() == u.tobytes()


def test_lazy_equals_naive():
    # the vectorized engine against the scalar reference: same ids, and
    # bit-identical utilities
    rng = np.random.default_rng(32)
    for _ in range(40):
        q, data, attrs, fn, k = random_multi_instance(rng)
        for p in (0.0, -2.0, 0.5):
            _assert_engine_matches_scalar(q, k, data, attrs, fn, 1.0, p)


def test_engine_ties_and_pools_match_scalar():
    # equal similarities and equal attribute sets: ties go to the lowest
    # pool index. At eta = 1e-3 and p = -200, (u + eta)^p overflows, so the
    # marginals are infinite, and NaN (inf - inf) where a similarity is 0
    data = VectorSet([[2.0], [1.0], [2.0], [1.0], [2.0], [0.0], [-1.0],
                      [2.0]])
    attrs = AttributeTable.from_rows(
        [[0], [1], [0], [1], [0, 1], [2], [2], [0, 1]], c=3)
    fn = SimilarityFn("dot-product")
    with np.errstate(over="ignore", invalid="ignore"):
        for eta, p in ((1.0, 0.0), (1.0, -2.0), (1.0, 0.5), (1e-3, -200.0)):
            for k in (1, 3, 8):
                _assert_engine_matches_scalar([1.0], k, data, attrs, fn, eta,
                                              p)
    # round 1: 4 and 7 tie, 4 comes first; round 3: 0 and 2 tie
    sel = multi_nash_ann([1.0], 3, 1.0, data, attrs, fn)
    assert sel.ids == (4, 7, 0)
    # a larger table, over its full pool and over a top-50 pool
    rng = np.random.default_rng(40)
    data = VectorSet(rng.normal(size=(300, 5)))
    attrs = AttributeTable.from_rows(
        [rng.choice(12, size=rng.integers(1, 5), replace=False)
         for _ in range(300)], c=12)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=5)
    for pool in (None, full_scan_pool(q, data, fn, limit=50)):
        for p in (0.0, -2.0, 0.5):
            _assert_engine_matches_scalar(q, 12, data, attrs, fn, 0.5, p,
                                          pool=pool)


@st.composite
def _greedy_cases(draw):
    """A table (one-per-class or ragged) over 1-D vectors whose dot-product
    similarities tie often, with k and a pool: all of P, or the top m rows,
    which may be fewer than k."""
    n = draw(st.integers(1, 16))
    c = draw(st.integers(1, 7))
    if draw(st.booleans()):
        # one-per-class: classes are consecutive runs of [0, c)
        cuts = draw(st.sets(st.integers(1, c - 1), max_size=3)) if c > 1 \
            else set()
        edges = [0, *sorted(cuts), c]
        classes = [list(range(a, b)) for a, b in zip(edges, edges[1:])]
        rows = [[draw(st.sampled_from(cls)) for cls in classes]
                for _ in range(n)]
        attrs = AttributeTable.from_rows(rows, c=c, classes=classes)
    else:
        rows = [draw(st.lists(st.integers(0, c - 1), min_size=1,
                              max_size=c, unique=True)) for _ in range(n)]
        attrs = AttributeTable.from_rows(rows, c=c)
    # small integers tie; negative values clamp to similarity 0
    values = draw(st.lists(st.one_of(
        st.integers(-1, 3).map(float),
        st.floats(-1.0, 3.0, allow_nan=False)), min_size=n, max_size=n))
    data = VectorSet(np.array(values)[:, None])
    fn = SimilarityFn("dot-product")
    k = draw(st.integers(1, n + 2))
    limit = draw(st.none() | st.integers(1, n))
    pool = None if limit is None else full_scan_pool([1.0], data, fn, limit)
    return data, attrs, fn, k, pool


# p = -200 at eta = 1e-3: (u + eta)^p overflows, so marginals are infinite,
# and NaN (inf - inf) where a similarity is 0
_P_ETA = [(0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (-1.0, 0.5), (-200.0, 1e-3)]


@pytest.mark.parametrize("p, eta", _P_ETA)
@given(case=_greedy_cases())
def test_incremental_engine_matches_scalar_property(p, eta, case):
    data, attrs, fn, k, pool = case
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_engine_matches_scalar([1.0], k, data, attrs, fn, eta, p,
                                      pool=pool)


@pytest.mark.parametrize("p, eta", _P_ETA)
def test_engine_matches_scalar_on_padding_heavy_table(p, eta):
    # vector 17 carries all c attributes and every other vector one, so
    # every other column of the slot matrix is padding below its first row.
    # The query sits next to vector 17, which is picked first and moves
    # every attribute; vector 5, the next best, carries only attribute 0,
    # the first of vector 17's, so in round 2 a marginal left stale on any
    # other attribute would outrank it
    rng = np.random.default_rng(43)
    c, n = 6, 40
    rows = [[int(a)] for a in rng.integers(0, c, n)]
    rows[17], rows[5] = list(range(c)), [0]
    attrs = AttributeTable.from_rows(rows, c=c)
    x = rng.normal(size=(n, 3))
    x[5] = x[17] + 0.05 * rng.normal(size=3)
    data = VectorSet(x)
    fn = SimilarityFn("one-plus-cosine")
    q = data.data[17] + 0.3 * rng.normal(size=3)
    with np.errstate(over="ignore", invalid="ignore"):
        for pool in (None, full_scan_pool(q, data, fn, limit=25)):
            for k in (1, 4, 12, n):
                _assert_engine_matches_scalar(q, k, data, attrs, fn, eta, p,
                                              pool=pool)


def test_single_attribute_coincides_with_stream_greedy():
    rng = np.random.default_rng(33)
    for _ in range(15):
        q, data, attrs, fn, k = random_single_instance(rng, n_max=20)
        eta = float(rng.uniform(0.1, 2.0))
        a = multi_nash_ann(q, k, eta=eta, data=data, attrs=attrs, fn=fn)
        b = nash_ann(q, k, WelfareParams(p=0.0, eta=eta), data, attrs, fn)
        assert a.objective == pytest.approx(b.objective, rel=1e-9)


def test_multi_p_one_is_pool_top_k():
    rng = np.random.default_rng(34)
    q, data, attrs, fn, _ = random_multi_instance(rng, n_max=16)
    pool = full_scan_pool(q, data, fn)
    sel = multi_p_mean_ann(q, 5, WelfareParams(p=1.0, eta=1.0), data, attrs,
                           fn, pool=pool)
    assert set(sel.ids) == set(int(i) for i in pool.ids[:5])


def test_multi_negative_p_spreads_at_least_as_much_as_nash():
    # equal-similarity multi-attribute instance: strongly negative p must
    # reach an attribute entropy no lower than the Nash variant's
    vecs = np.ones((12, 1))
    data = VectorSet(vecs)
    atb = [[i % 4] for i in range(12)]
    attrs = AttributeTable.from_rows(atb, c=4)
    fn = SimilarityFn("dot-product")
    q = [1.0]
    nash = multi_nash_ann(q, 4, eta=1.0, data=data, attrs=attrs, fn=fn)
    neg = multi_p_mean_ann(q, 4, WelfareParams(p=-10.0, eta=1.0), data,
                           attrs, fn)
    assert entropy(neg.ids, attrs) >= entropy(nash.ids, attrs) - 1e-9


def test_multi_k_equal_one_picks_best_gain():
    rng = np.random.default_rng(35)
    q, data, attrs, fn, _ = random_multi_instance(rng, n_max=10)
    sel = multi_nash_ann(q, 1, eta=1.0, data=data, attrs=attrs, fn=fn)
    # exhaustively confirm no single vector does better
    best = max(welfare(utilities(q, [v], data, attrs, fn),
                       WelfareParams(p=0.0, eta=1.0))
               for v in range(data.n))
    assert sel.objective == pytest.approx(best, rel=1e-12)


def test_pool_of_exactly_k_returns_pool():
    rng = np.random.default_rng(36)
    q, data, attrs, fn, _ = random_multi_instance(rng, n_max=12)
    pool = full_scan_pool(q, data, fn, limit=3)
    sel = multi_nash_ann(q, 3, eta=1.0, data=data, attrs=attrs, fn=fn,
                         pool=pool)
    assert set(sel.ids) == set(int(i) for i in pool.ids)


def test_pool_smaller_than_k_truncates():
    rng = np.random.default_rng(37)
    q, data, attrs, fn, _ = random_multi_instance(rng, n_max=12)
    pool = full_scan_pool(q, data, fn, limit=2)
    sel = multi_nash_ann(q, 5, eta=1.0, data=data, attrs=attrs, fn=fn,
                         pool=pool)
    assert sel.truncated and len(sel.ids) == 2


def test_empty_pool_is_error():
    data = VectorSet([[1.0]])
    attrs = AttributeTable.from_labels([0], c=1)
    fn = SimilarityFn("dot-product")
    pool = RankedList(ids=np.empty(0, dtype=np.intp), sims=np.empty(0))
    with pytest.raises(ValueError):
        multi_nash_ann([1.0], 1, eta=1.0, data=data, attrs=attrs, fn=fn,
                       pool=pool)
    with pytest.raises(ValueError):
        multi_div_ann([1.0], 1, 1, data, attrs, fn, pool=pool)


def test_f_empty_is_zero_at_eta_one():
    assert log_nsw(np.zeros(5), 1.0) == 0.0


def test_multi_div_cap_never_binds_when_large():
    rng = np.random.default_rng(38)
    q, data, attrs, fn, _ = random_multi_instance(rng, n_max=14)
    k = 4
    pool = full_scan_pool(q, data, fn)
    capped = multi_div_ann(q, k, kprime=k, data=data, attrs=attrs, fn=fn,
                           pool=pool)
    assert set(capped.ids) == set(int(i) for i in pool.ids[:k])


def test_multi_div_single_attribute_cap_one():
    data = VectorSet([[5.0], [4.0], [3.0], [2.0]])
    attrs = AttributeTable.from_labels([0, 0, 1, 1], c=2)
    fn = SimilarityFn("dot-product")
    sel = multi_div_ann([1.0], 2, 1, data, attrs, fn)
    assert sel.ids == (0, 2)  # best of each attribute, greedily by sim


def test_multi_div_stall_returns_truncated():
    # six vectors; after two picks every remaining vector touches a
    # saturated attribute, so greedy stalls at 2 < 3 picks. Enumeration
    # over all size-3 subsets confirms none is cap-feasible.
    import itertools
    atb = [[0], [1], [0, 1], [0, 1], [0, 1], [0, 1]]
    sims = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    data = VectorSet([[s] for s in sims])
    attrs = AttributeTable.from_rows(atb, c=2)
    fn = SimilarityFn("dot-product")
    sel = multi_div_ann([1.0], 3, 1, data, attrs, fn)
    assert sel.truncated and len(sel.ids) == 2
    for combo in itertools.combinations(range(6), 3):
        counts = np.zeros(2, dtype=int)
        for v in combo:
            for a in atb[v]:
                counts[a] += 1
        assert counts.max() > 1  # no feasible size-3 subset exists


def test_multi_div_cap_respected_on_randoms():
    rng = np.random.default_rng(39)
    for _ in range(25):
        q, data, attrs, fn, k = random_multi_instance(rng)
        kprime = int(rng.integers(1, 3))
        sel = multi_div_ann(q, k, kprime, data, attrs, fn)
        counts = np.zeros(attrs.c, dtype=int)
        for v in sel.ids:
            counts[_row(attrs, v)] += 1
        assert counts.max() <= kprime
