"""The certified float32 filter behind ``full_scan_pool`` over float32 bases,
and the float64 paths that read a float32 base by blocks.

Each pool is compared with an independent whole-array float64 rank: one
``SimilarityFn.batch`` call on a float64 copy of the base and a lexsort by
(similarity descending, id ascending).
"""

import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divknn import core, data as data_io, oracle
from divknn.core import AttributeTable, SimilarityFn, VectorSet, WelfareParams
from divknn.oracle import (_max_survivors, block_pools, exact_topk,
                           full_scan_pool)
from divknn.solvers import nash_ann, p_mean_ann
from divknn.suites import float64_topk

KINDS = {"one-plus-cosine": SimilarityFn("one-plus-cosine"),
         "reciprocal-euclidean": SimilarityFn("reciprocal-euclidean",
                                              delta=0.05),
         "dot-product": SimilarityFn("dot-product")}


def assert_pool_is_exact(q, x, fn, limit):
    pool = full_scan_pool(q, VectorSet(x), fn, limit=limit)
    ids, sims = float64_topk(q, x, fn, limit)
    assert pool.ids.tolist() == ids.tolist()
    # survivors are re-scored by a gather, whose GEMV may differ from the
    # whole-array one in the last place
    np.testing.assert_allclose(pool.sims, sims, rtol=1e-12,
                               atol=1e-12 * np.abs(sims).max())
    return pool


def pick_limit(n, which):
    return (1, min(10, n - 1), n - 1)[which]


# ---------------------------------------------------------------------------
# property tests against the whole-array rank
# ---------------------------------------------------------------------------

@given(n=st.integers(2, 300), d=st.integers(1, 24),
       scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30]),
       kind=st.sampled_from(sorted(KINDS)), which=st.integers(0, 2),
       float32_query=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_random_float32_bases(n, d, scale, kind, which, float32_query, seed):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(n, d)) * scale).astype(np.float32)
    q = rng.normal(size=d)
    if float32_query:
        q = q.astype(np.float32).astype(np.float64)
    assert_pool_is_exact(q, x, KINDS[kind], pick_limit(n, which))


@given(n=st.integers(3, 200), d=st.integers(1, 6), which=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_integer_bases_tie_at_place_limit(n, d, which, seed):
    # small integers: float32 and float64 dot products are exact and tie;
    # a copy of the row at place L (with a larger id) makes a tie there
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 4, size=(n, d)).astype(np.float32)
    q = rng.integers(-1, 3, size=d).astype(np.float64)
    fn = KINDS["dot-product"]
    limit = pick_limit(n, which)
    ids, _ = float64_topk(q, x, fn, limit)
    x = np.vstack([x, x[ids[-1]]])
    sims = fn.batch(q, x.astype(np.float64))
    assert sims[ids[-1]] == sims[-1]
    assert_pool_is_exact(q, x, fn, limit)


@given(n=st.integers(3, 200), d=st.integers(2, 24),
       kind=st.sampled_from(sorted(KINDS)), which=st.integers(0, 2),
       weight=st.sampled_from([1e-2, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_near_ties_below_float32_resolution(n, d, kind, which, weight, seed):
    # copies of one row a few ulps apart in a component the query barely
    # weighs: similarities at the threshold differ by about 1e-9 relative,
    # which float32 cannot resolve and float64 resolves by far
    rng = np.random.default_rng(seed)
    x = np.tile(rng.normal(size=d).astype(np.float32), (n, 1))
    x[:, 0] += rng.permutation(np.arange(n) % 7 - 3) * np.spacing(x[0, 0])
    q = rng.normal(size=d)
    q[0] *= weight
    if x[0] @ q < 0:
        q = -q                                  # no dot product clamps to 0
    dots = x.astype(np.float64) @ q
    gaps = np.diff(np.unique(dots))
    scale = np.linalg.norm(x[0]) * np.linalg.norm(q)
    assert gaps.size and gaps.max() < 1e-7 * scale
    assert_pool_is_exact(q, x, KINDS[kind], pick_limit(n, which))


@given(n=st.integers(4, 200), d=st.integers(1, 24),
       kind=st.sampled_from(sorted(KINDS)), which=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_rows_whose_float32_score_overflows_survive(n, d, kind, which, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    big = rng.choice(n, size=3, replace=False)
    x[big] = 3e38 / math.sqrt(d)             # |x.q| overflows float32
    x = x.astype(np.float32)
    q = np.abs(rng.normal(size=d)) * 10.0 + 1.0
    with np.errstate(over="ignore"):
        assert not np.isfinite(x[big] @ q.astype(np.float32)).any()
    fn = KINDS[kind]
    limit = pick_limit(n, which)
    pool = assert_pool_is_exact(q, x, fn, limit)
    if kind == "dot-product" and limit >= 3:   # the most similar rows
        assert set(big.tolist()) <= set(pool.ids.tolist())


# ---------------------------------------------------------------------------
# the margin: each term is needed
# ---------------------------------------------------------------------------

# q is so small that float32 holds it only to multiples of 2^-149:
# (100.49, 99.51) 2^-149 rounds to (100, 100) 2^-149, an error of 0.49 units
# along (1, -1). Row 1 beats row 0 in float64, but lies along that error and
# row 0 against it, so float32 ranks row 0 first by more than half the
# certified margin 2 |x| |q - q32| (in key units). Row 2 lies far below both.
# In the "half" case of each kind row 0 carries a float32 error under half
# the margin, so halving the margin drops row 1 and still certifies row 0;
# in the "q-term" case row 0 carries no error from q's rounding, so a
# margin without that term drops row 1 and certifies row 0.
UNIT = 2.0 ** -149
ADVERSARIES = [
    ("half", "dot-product", [100.49, 99.51],
     [[471859, 1625293], [2089298, -7864], [-104858, -104858]]),
    ("q-term", "dot-product", [100.49, 99.51],
     [[1048576, 1048576], [2092120, -5033], [-104858, -104858]]),
    ("half", "one-plus-cosine", [100.49, 99.51, 141.0],
     [[381442, 974606, -64479], [907737, -278591, 444873],
      [-90774, 27859, -44487]]),
    ("q-term", "one-plus-cosine", [100.49, 99.51, 141.0],
     [[734209, 734209, -146235], [907737, -278591, 444873],
      [-90774, 27859, -44487]]),
]


@pytest.mark.parametrize("defeats, kind, q, x", ADVERSARIES)
def test_margin_covers_the_query_rounding(defeats, kind, q, x):
    q = np.array(q) * UNIT
    x = np.array(x, dtype=np.float32)
    fn = KINDS[kind]
    sims = fn.batch(q, x.astype(np.float64))
    assert sims[1] > sims[0] > sims[2]          # row 1 is the best
    g = oracle._f32_scores(fn.query(q), VectorSet(x))
    norms = np.linalg.norm(x.astype(np.float64), axis=1)
    key = g if kind == "dot-product" else g / norms
    rounding = q - q.astype(np.float32)
    if defeats == "half":
        # float32 ranks row 0 first by more than half the margin
        half = np.linalg.norm(rounding)
        if kind == "dot-product":
            half *= norms.max()
        assert key[0] - key[1] > half
    else:
        # float32 ranks row 0 first, and q's rounding does not move row 0
        assert key[0] > key[1]
        assert math.fsum(a * r for a, r in zip(x[0].tolist(),
                                               rounding.tolist())) == 0.0
    assert full_scan_pool(q, VectorSet(x), fn, limit=1).ids.tolist() == [1]


# The float64 terms e64 and e_d are within the slack _SAFE puts on err (and,
# for reciprocal-euclidean, theta's 2^-40 r (r + delta)), so no input can
# reach them alone; these tests check the bounds that _Filter's docstring
# gives, so a change to _SAFE or to a term cannot make them reachable
# unnoticed.
SAFE = oracle._SAFE


def filter_terms(monkeypatch, kind, d, xnorm, safe=SAFE):
    """(err, e64 or e_d) of the filter of the float32 query e_1 over rows
    xnorm e_1 in d dimensions, with ``_SAFE`` at ``safe``."""
    monkeypatch.setattr(oracle, "_SAFE", safe)
    q = np.zeros(d)
    q[0] = 1.0
    x = np.zeros((2, d), dtype=np.float32)
    x[:, 0] = xnorm
    vs, fn = VectorSet(x), KINDS[kind]
    f = oracle._Filter(fn.query(q), vs, fn, 1, None,
                       oracle._row_norms(vs, fn, None))
    return f.err, f.e_d if kind == "reciprocal-euclidean" else f.e64


@pytest.mark.parametrize("kind, times", [("dot-product", 85),
                                         ("one-plus-cosine", 30)])
def test_safe_slack_outweighs_e64(monkeypatch, kind, times):
    # a non-survivor ranks below every row with key >= tau while the two
    # rows' float64 errors, at most 2 e64 in key units, stay below
    # 2 (err - err*), err* being err without _SAFE's slack
    for d in (1, 2, 3, 32, 96, 4096, 2 ** 20):
        err, e64 = filter_terms(monkeypatch, kind, d, 1.0)
        bare, _ = filter_terms(monkeypatch, kind, d, 1.0, safe=1.0)
        assert 2.0 * (err - bare) >= times * 4.0 * e64, d


@pytest.mark.parametrize("d", [1, 2, 96, 4096])
def test_safe_slack_or_distance_term_outweighs_e_d(monkeypatch, d):
    # reciprocal-euclidean, |q| = 1: a row that could outrank one with key
    # >= tau lies within the threshold distance r of q, r^2 >= 2 err, so
    # both rows' norms lie in [1 - r, min(xmax, 1 + r)]; their float64
    # errors in key units, each half the e_d of that norm (a squared
    # distance moves twice as much as the key) plus 4 u64 r^2 for the root
    # and the division, stay below 2 (err - err*) + 4 2^-40 r^2
    e_d = {}
    for lx in range(-40, 41, 2):
        xmax = 2.0 ** lx
        err, _ = filter_terms(monkeypatch, "reciprocal-euclidean", d, xmax)
        bare, _ = filter_terms(monkeypatch, "reciprocal-euclidean", d, xmax,
                               safe=1.0)
        for lr in np.arange(-40.0, 41.0, 0.5):
            r = 2.0 ** lr
            if r * r < 2.0 * err or not 1.0 - xmax <= r <= 1.0 + xmax:
                continue
            a = min(xmax, 1.0 + r)
            if a not in e_d:
                e_d[a] = filter_terms(monkeypatch, "reciprocal-euclidean", d,
                                      a)[1]
            need = e_d[a] + 8.0 * 2.0 ** -53 * r * r
            assert 2.0 * (err - bare) + 4.0 * 2.0 ** -40 * r * r \
                >= 100.0 * need, (lx, lr)


def linalg_norm_terms(q, vs, fn, ids):
    """_Filter's (exact, overflow, err, e64 or e_d) for the checked query
    q of ``vs``'s rows ``ids``, by its formulas with every norm of the
    query taken by ``np.linalg.norm``."""
    v, d = q.vec, vs.d
    if abs(v).max() > oracle._F32_MAX:
        return (True,)
    safe, gamma, u32, u64 = oracle._SAFE, oracle._gamma, 2.0 ** -24, 2.0 ** -53
    _, _, xmin, xmax = oracle._row_norms(vs, fn, ids)
    q32 = v.astype(np.float32).astype(np.float64)
    nq32 = np.linalg.norm(q32)
    nq = np.linalg.norm(v) * safe
    under = d * 2.0 ** -149
    per_norm = (np.linalg.norm(v - q32) + gamma(d, u32) * nq32) * safe
    overflow = xmax * nq32 * (1.0 + gamma(d, u32)) >= oracle._F32_MAX
    xmax *= safe
    if fn.kind == "dot-product":
        return (False, overflow, (xmax * per_norm + under) * safe,
                gamma(d + 8, u64) * xmax * nq * safe)
    if fn.kind == "one-plus-cosine":
        err = (per_norm + 2.0 * u64 * nq32 + 2.0 * under / xmin) * safe
        return (False, overflow, err, (gamma(d, u64) * nq + 16.0 * u64
                                       * np.linalg.norm(v)) * safe)
    xsq = xmax * xmax * safe
    err = (xmax * per_norm + under + 2.0 * u64 * (xmax * nq32 + xsq)) * safe
    return (False, overflow, err,
            (2.0 * gamma(d + 2, u64) * xmax * nq
             + 4.0 * u64 * (xsq + v @ v + xmax * nq)) * safe)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_filter_terms_equal_the_linalg_norm_formulas(kind):
    # _Filter roots one dot product per norm of the query (or reads the
    # block's norm), which is what np.linalg.norm computes for a
    # contiguous vector: every term, and so every survivor set, is the
    # same to the bit, for single queries and for each row of a block
    fn, rng = KINDS[kind], np.random.default_rng(sorted(KINDS).index(kind))
    for d in list(range(1, 33)) + [47, 96, 128, 199, 200]:
        x = rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-20, 20)
        vs = VectorSet(x.astype(np.float32))
        for ids in (None, np.arange(3, 40, 3)):
            rows = oracle._row_norms(vs, fn, ids)
            scales = 10.0 ** rng.uniform(-20, 20, size=3)
            block = rng.standard_normal((3, d)) * scales[:, None]
            if rng.integers(2):
                block[2] *= 1e40   # beyond float32's range: exact
            qs = fn.query(block)
            for q in [fn.query(v) for v in block] + [qs.row(i)
                                                     for i in range(3)]:
                f = oracle._Filter(q, vs, fn, 5, ids, rows)
                got = (f.exact,) if f.exact else (
                    f.exact, f.overflow, f.err,
                    f.e_d if kind == "reciprocal-euclidean" else f.e64)
                want = linalg_norm_terms(q, vs, fn, ids)
                assert got == want, (d, ids is None)


def test_a_float32_base_from_d_2_23_on_is_ranked_in_float64():
    # gamma_d of float32, the filter's rounding bound, has no value from
    # d = 2^24 on; from 2^23 (d u32 >= 1/2) a base never reaches it. Empty
    # sets of these widths allocate nothing
    for d, filters in ((2 ** 23 - 1, True), (2 ** 23, False),
                       (2 ** 24, False)):
        vs = VectorSet(np.empty((0, d), np.float32))
        for listed in (False, True):
            assert oracle._filters(vs, 10, 10 ** 6, listed) == filters, d
    assert 0.0 < oracle._gamma(2 ** 24 - 1, oracle._U32) < math.inf
    for m in (2 ** 24, 2 ** 24 + 1):
        with pytest.raises(ValueError, match="no bound"):
            oracle._gamma(m, oracle._U32)


def test_filter_rescores_few_rows(monkeypatch):
    # on Gaussian bases the filter certifies and re-scores L plus a few rows
    rescored = []
    real = SimilarityFn.batch_ids

    def batch_ids(self, q, data, ids):
        rescored.append(len(ids))
        return real(self, q, data, ids)

    monkeypatch.setattr(SimilarityFn, "batch_ids", batch_ids)
    monkeypatch.setattr(SimilarityFn, "scan", None)   # no float64 fallback
    rng = np.random.default_rng(40)
    x = rng.standard_normal((5000, 32), dtype=np.float32)
    vs = VectorSet(x)
    for fn in KINDS.values():
        for limit in (1, 10, 200):
            for _ in range(3):
                q = rng.normal(size=32)
                rescored.clear()
                pool = full_scan_pool(q, vs, fn, limit=limit)
                assert rescored and limit <= rescored[0] <= limit + 8
                ids, _ = float64_topk(q, x, fn, limit)
                assert pool.ids.tolist() == ids.tolist()


def test_filter_gathers_at_most_an_eighth_of_a_large_base(monkeypatch):
    # past n / 8 rows (n = 40000: 5000) the survivors' gather costs more
    # than the blockwise float64 scan, which then ranks every row: for a
    # larger limit, and for ties that keep more rows than that
    gathered = []
    real = SimilarityFn.batch_ids

    def batch_ids(self, q, data, ids):
        gathered.append(len(ids))
        return real(self, q, data, ids)

    monkeypatch.setattr(SimilarityFn, "batch_ids", batch_ids)
    rng = np.random.default_rng(46)
    n = 40000
    x = rng.standard_normal((n, 8), dtype=np.float32)
    vs = VectorSet(x)
    q = rng.normal(size=8)
    for fn in KINDS.values():
        for limit in (5000, 5001, n - 1):
            gathered.clear()
            assert_pool_is_exact(q, x, fn, limit)
            assert (5000 <= gathered[0] <= 5000 + 8 if limit == 5000
                    else gathered == [])
            gathered.clear()                     # a block decides alike
            block_pools(q[None], vs, fn, limit)
            assert (5000 <= gathered[0] <= 5000 + 8 if limit == 5000
                    else gathered == [])
    ties = np.ones((n, 8), dtype=np.float32)
    gathered.clear()
    pool = full_scan_pool(np.ones(8), VectorSet(ties), KINDS["dot-product"],
                          limit=10)
    assert pool.ids.tolist() == list(range(10)) and gathered == []


def test_block_pools_score_a_block_in_float32_and_match_single_queries(
        monkeypatch):
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3000, 16), dtype=np.float32)
    vs = VectorSet(x)
    qs = rng.normal(size=(8, 16))
    scored = []
    real = oracle._f32_scores

    def f32_scores(q, data, *args):
        g = real(q, data, *args)
        scored.append((g.dtype, g.shape))
        return g

    monkeypatch.setattr(oracle, "_f32_scores", f32_scores)
    for fn in KINDS.values():
        for limit in (20, None):
            scored.clear()
            pools = block_pools(qs, vs, fn, limit=limit)
            # one sgemm for the block; no filter without a limit below n
            assert scored == ([(np.float32, (8, 3000))] if limit else [])
            for q, got in zip(qs, pools):
                want = full_scan_pool(q, vs, fn, limit=limit)
                assert got.ids.tolist() == want.ids.tolist()
                # the block's sgemm and the single query's sgemv may keep
                # different survivors, whose gathers differ in the last
                # place, as may the float64 GEMM and GEMV
                np.testing.assert_allclose(
                    got.sims, want.sims, rtol=1e-12,
                    atol=1e-12 * np.abs(want.sims).max())


@given(n=st.sampled_from([2, 40, 4100, 9000]), d=st.integers(1, 8),
       b=st.integers(1, 4), kind=st.sampled_from(sorted(KINDS)),
       which=st.integers(0, 5), float32=st.booleans(),
       beyond=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_pools_equal_single_query_pools(n, d, b, kind, which, float32,
                                              beyond, seed):
    # limits 1, k, the filter's most survivors and one above, n - 1 and
    # every row; over float32 bases with n above 4096 the filter applies
    # up to _max_survivors(n) and the float64 scan above it
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    vs = VectorSet(x.astype(np.float32) if float32 else x)
    qs = rng.normal(size=(b, d))
    if beyond:
        qs[rng.integers(b)] *= 1e39      # beyond float32's range
    limit = (1, 10, _max_survivors(n), _max_survivors(n) + 1, n - 1,
             None)[which]
    fn = KINDS[kind]
    pools = block_pools(qs, vs, fn, limit=limit)
    assert len(pools) == b
    for q, got in zip(qs, pools):
        want = full_scan_pool(q, vs, fn, limit=limit)
        assert got.ids.tolist() == want.ids.tolist()
        np.testing.assert_allclose(got.sims, want.sims, rtol=1e-12,
                                   atol=1e-12 * np.abs(want.sims).max())


@given(n=st.sampled_from([2, 40, 4100, 9000]), d=st.integers(1, 8),
       b=st.integers(1, 3), kind=st.sampled_from(sorted(KINDS)),
       which=st.integers(0, 4), float32=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_block_pools_of_listed_rows_rank_them_as_base_ids(n, d, b, kind,
                                                          which, float32,
                                                          seed):
    # a random half of the rows, ranked through the filter or in float64:
    # each query's pool is the float64 rank of those rows, in base ids
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2 * n, d))
    vs = VectorSet(x.astype(np.float32) if float32 else x)
    ids = np.sort(rng.choice(2 * n, size=n, replace=False))
    qs = rng.normal(size=(b, d))
    limit = (1, 10, _max_survivors(n) + 1, n - 1, None)[which]
    fn = KINDS[kind]
    pools = block_pools(qs, vs, fn, limit, ids)
    assert len(pools) == b
    for q, got in zip(qs, pools):
        want, sims = float64_topk(q, vs.data[ids], fn, limit or n)
        assert got.ids.tolist() == ids[want].tolist()
        np.testing.assert_allclose(got.sims, sims, rtol=1e-12,
                                   atol=1e-12 * np.abs(sims).max())


def test_zero_query_in_a_block_is_rejected_as_one_query():
    rng = np.random.default_rng(47)
    vs = VectorSet(rng.standard_normal((100, 4), dtype=np.float32))
    qs = rng.normal(size=(3, 4))
    qs[1] = 0.0
    fn = KINDS["one-plus-cosine"]
    message = "^zero query vector under one-plus-cosine$"
    for limit in (5, None):
        with pytest.raises(ValueError, match=message):
            full_scan_pool(qs[1], vs, fn, limit=limit)
        with pytest.raises(ValueError, match=message):
            block_pools(qs, vs, fn, limit=limit)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_block_pools_rejects_a_bad_block_or_bad_ids(dtype):
    # a block is (b, d) and ids strictly ascend within [0, n); anything else
    # is a ValueError on either base dtype, through the filter (limit 2 of
    # 3 rows over float32) and the float64 rank
    rng = np.random.default_rng(54)
    vs = VectorSet(rng.standard_normal((100, 4)).astype(dtype))
    qs = rng.normal(size=(2, 4))
    block = r"^a block of queries must be a \(b, d\) array$"
    bad_ids = r"^ids must ascend strictly in \[0, 100\)$"
    for fn in KINDS.values():
        for limit in (2, None):
            for ids in (None, np.arange(0, 100, 7)):
                with pytest.raises(ValueError, match=block):
                    block_pools(qs[0], vs, fn, limit, ids)
            for ids in ([-1, 3, 5], [3, 3, 5], [3, 5, 100], [5, 3, 1]):
                with pytest.raises(ValueError, match=bad_ids):
                    block_pools(qs, vs, fn, limit, np.array(ids))
            # the end rows themselves are valid ids
            for q, pool in zip(qs, block_pools(qs, vs, fn, limit,
                                               [0, 3, 99])):
                ids, _ = float64_topk(q, vs.data[[0, 3, 99]], fn, limit or 3)
                assert pool.ids.tolist() == np.array([0, 3, 99])[ids].tolist()


def test_query_beyond_float32_range_is_ranked_in_float64():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((500, 4), dtype=np.float32)
    q = rng.normal(size=4) * 1e39          # beyond float32, not float64
    for fn in KINDS.values():
        assert_pool_is_exact(q, x, fn, 7)


def uncertifiable(case, rng):
    """(kinds, q, x): a float32 base whose top 10 the filter cannot
    certify, over every row and over any large subset of them."""
    if case == "beyond-float32":
        return sorted(KINDS), rng.normal(size=8) * 1e39, \
            rng.standard_normal((300, 8), dtype=np.float32)
    if case == "ties-past-max-survivors":
        # every row ties: more survive than _max_survivors allows
        return sorted(KINDS), np.ones(4), np.ones((6000, 4), np.float32)
    # every dot product is negative, so every similarity is clamped to 0
    # and the survivors' 10th similarity cannot be told from the rest
    return ["dot-product"], np.ones(8), \
        -abs(rng.standard_normal((300, 8), dtype=np.float32))


@pytest.mark.parametrize("case", ["beyond-float32", "ties-past-max-survivors",
                                  "clamped-dot-products"])
def test_filter_ranks_its_own_rows_in_float64_when_it_cannot_certify(
        monkeypatch, case):
    ranked = []
    real = oracle._exact_rank

    def exact_rank(q, data, fn, limit, ids=None):
        ranked.append(ids)
        return real(q, data, fn, limit, ids)

    monkeypatch.setattr(oracle, "_exact_rank", exact_rank)
    kinds, q, x = uncertifiable(case, np.random.default_rng(52))
    vs, limit = VectorSet(x), 10
    for kind in kinds:
        fn = KINDS[kind]
        # the subset leaves out the base's own top 10, so a ranking of
        # every row in place of the subset's shows
        top, _ = float64_topk(q, x, fn, limit)
        sub = np.setdiff1d(np.arange(len(x)), top)
        for rows in (None, sub):
            ranked.clear()
            # the filter itself: block_pools ranks a list of at most 4096
            # rows in float64 without it
            pool = oracle._filter_pools(fn.query(q[None]), vs, fn, limit,
                                        rows)[0]
            ids, sims = float64_topk(q, x if rows is None else x[rows], fn,
                                     limit)
            assert pool.ids.tolist() == (ids if rows is None
                                         else rows[ids]).tolist(), kind
            assert pool.sims.tobytes() == sims.tobytes(), kind
            # the fallback ranked them, after the survivors alone where
            # only the certificate failed
            assert ranked[-1] is rows, kind
            assert len(ranked) == 1 + (case == "clamped-dot-products"), kind


# ---------------------------------------------------------------------------
# the streamed scan: a base of more than one block of _STREAM_ROWS rows
# ---------------------------------------------------------------------------

BLOCK = 4096   # _STREAM_ROWS in these tests, so small bases span blocks


def pools_both_ways(monkeypatch, qs, vs, fn, limit, attrs=None):
    """(one-block, streamed): the block's pools and the first query's
    ``full_scan_pool``, each with the ids of every float64 re-score, from
    one sgemm of the whole base and from blocks of BLOCK rows. With
    ``attrs``, the pools of attribute 0's list and the first query's
    ``exact_topk`` of it instead."""
    ids = None if attrs is None else attrs.inverted[0]
    rescored = []
    real = SimilarityFn.batch_ids

    def batch_ids(self, q, data, ids):
        rescored.append(ids.tolist())
        return real(self, q, data, ids)

    monkeypatch.setattr(SimilarityFn, "batch_ids", batch_ids)
    out = []
    for rows in (vs.n, BLOCK):
        monkeypatch.setattr(oracle, "_STREAM_ROWS", rows)
        rescored.clear()
        pools = block_pools(qs, vs, fn, limit, ids)
        pools.append(full_scan_pool(qs[0], vs, fn, limit) if attrs is None
                     else exact_topk(qs[0], 0, limit, vs, attrs, fn))
        out.append((pools, list(rescored)))
    return out


def assert_same_pools(monkeypatch, qs, vs, fn, limit, attrs=None):
    """The streamed scan re-scores the rows the one-block scan does and
    returns its pools to the byte."""
    (whole, whole_rescored), (streamed, streamed_rescored) = \
        pools_both_ways(monkeypatch, qs, vs, fn, limit, attrs)
    assert streamed_rescored == whole_rescored
    for a, b in zip(whole, streamed):
        assert a.ids.tobytes() == b.ids.tobytes()
        assert a.sims.tobytes() == b.sims.tobytes()
    return whole


# Bases of at most 4 * BLOCK rows: on longer ones OpenBLAS's sgemv of a
# single query may round rows differently from the same rows in blocks,
# which the filter's bound covers but which may change its survivors
@pytest.mark.parametrize("n", [2 * BLOCK + 1, 3 * BLOCK + 1, 4 * BLOCK,
                               3 * BLOCK + 777])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_streamed_pools_equal_one_block_pools(monkeypatch, kind, n):
    # limits 1, k and n / 8; n = m * BLOCK + 1 leaves a one-row tail,
    # which the block before takes
    rng = np.random.default_rng([n, sorted(KINDS).index(kind)])
    x = rng.standard_normal((n, 8), dtype=np.float32)
    vs, fn = VectorSet(x), KINDS[kind]
    qs = rng.normal(size=(3, 8))
    for limit in (1, 10, n // 8):
        pools = assert_same_pools(monkeypatch, qs, vs, fn, limit)
        ids, _ = float64_topk(qs[0], x, fn, limit)
        assert pools[0].ids.tolist() == ids.tolist()


def near_best_rows(n, kind, rng):
    """(q, x): a base whose 40 best rows (best first: j = 0, 1, ...) have
    keys about 2^-23 apart, inside the filter's margin, with the best 10
    in the first block and the rest spread over the later blocks. The
    other rows point away from q."""
    d = 8
    q = np.ones(d) / math.sqrt(d)
    w = np.zeros(d)
    w[:2] = 1.0, -1.0
    w /= math.sqrt(2.0)
    x = -np.abs(rng.normal(size=(n, d))) * 0.05
    j = np.arange(40)[:, None]
    near = q + 0.5 * w + j * 2.0 ** -23 * (w - q)
    rows = np.concatenate([rng.choice(BLOCK, size=10, replace=False),
                           rng.choice(np.arange(BLOCK, n), size=30,
                                      replace=False)])
    x[rows] = near
    return q.astype(np.float32).astype(np.float64), x.astype(np.float32)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_streamed_scan_keeps_rows_inside_the_margin(monkeypatch, kind):
    # after the first block the running tau is the final one; the later
    # blocks' rows within the margin below it survive in one sgemm, so the
    # streamed scan keeps them too
    rng = np.random.default_rng(60 + sorted(KINDS).index(kind))
    n = 4 * BLOCK
    q, x = near_best_rows(n, kind, rng)
    vs, fn = VectorSet(x), KINDS[kind]
    # one sgemm re-scores rows of the later blocks for a top 10 that the
    # first block holds
    (_, rescored), _ = pools_both_ways(monkeypatch, q[None], vs, fn, 10)
    assert any(i >= BLOCK for i in rescored[0])
    for limit in (1, 10):
        assert_same_pools(monkeypatch, np.stack([q, q * 3.0]), vs, fn, limit)


def test_streamed_ties_past_max_survivors_fall_back(monkeypatch):
    # every third row is the best vector: its ties span every block and
    # outnumber _max_survivors (4096 rows), so each pool is a float64 rank
    # of every row
    n = 3 * BLOCK + 1
    rng = np.random.default_rng(61)
    x = -np.abs(rng.standard_normal((n, 8), dtype=np.float32))
    x[::3] = 1.0
    vs = VectorSet(x)
    ranked = []
    real = oracle._exact_rank

    def exact_rank(q, data, fn, limit, ids=None):
        ranked.append(ids is None)
        return real(q, data, fn, limit, ids)

    monkeypatch.setattr(oracle, "_exact_rank", exact_rank)
    qs = np.ones((2, 8)) + rng.normal(size=(2, 8)) * 1e-9
    for kind in sorted(KINDS):
        for limit in (1, 10):
            ranked.clear()
            pools = assert_same_pools(monkeypatch, qs, vs, KINDS[kind], limit)
            assert ranked and all(ranked)
            assert pools[0].ids.tolist() == list(range(0, 3 * limit, 3))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_streamed_scan_near_float32_max_keeps_non_finite_scores(
        monkeypatch, kind):
    # a query within float32's range whose scores overflow on 40 rows
    # spread over every block: each of their products is beyond float32's
    # range, so they overflow in any summation order, and always survive
    n = 3 * BLOCK + 1
    rng = np.random.default_rng(62 + sorted(KINDS).index(kind))
    x = rng.standard_normal((n, 8), dtype=np.float32) * 1e-3
    q = np.sign(rng.normal(size=8)) * rng.uniform(0.5e38, 1e38, size=8)
    big = rng.choice(n, size=40, replace=False)
    x[big] = np.sign(q) * np.where(np.arange(40) % 2, 8.0, -8.0)[:, None]
    vs, fn = VectorSet(x), KINDS[kind]
    g = oracle._f32_scores(fn.query(q[None]), vs)[0]
    assert np.isinf(g[big]).all() and np.isfinite(np.delete(g, big)).all()
    for limit in (1, 10, n // 8):
        pools = assert_same_pools(monkeypatch, np.stack([q, -q]), vs, fn,
                                  limit)
        ids, _ = float64_topk(q, x, fn, limit)
        assert pools[0].ids.tolist() == ids.tolist()


def test_streamed_scan_holds_no_score_row_of_the_base(monkeypatch):
    # on a four-block base, a pool's scan peaks below one n-length float32
    # row: it holds a block's scores and keys, never the base's
    monkeypatch.setattr(oracle, "_STREAM_ROWS", BLOCK)
    n = 4 * BLOCK
    rng = np.random.default_rng(63)
    vs = VectorSet(rng.standard_normal((n, 8), dtype=np.float32))
    for fn in KINDS.values():
        q = fn.query(rng.normal(size=8))
        full_scan_pool(q, vs, fn, 10)
        tracemalloc.start()
        try:
            full_scan_pool(q, vs, fn, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n, fn.kind


# ---------------------------------------------------------------------------
# tau from a 1-in-16 sample of the keys
# ---------------------------------------------------------------------------

def filter_and_keys(q, vs, fn, limit):
    """The one-block filter of q over every row of vs, and its keys."""
    qs = fn.query(q[None])
    f = oracle._Filter(qs.row(0), vs, fn, limit, None,
                       oracle._row_norms(vs, fn, None))
    return f, f.keys(oracle._f32_scores(qs, vs)[0])


def sampled_rows_best(n, rng, copies=None):
    """(q, x): a base whose rows at positions 0, 16, 32, ... point along q
    and all others away from it, so they hold the best keys under every
    kind; with ``copies``, the first that many of them are q itself, the
    best row under every kind."""
    d = 8
    q = np.ones(d) / math.sqrt(d)
    x = -np.abs(rng.normal(size=(n, d))) * 0.05
    x[::16] = (q + rng.normal(size=(len(x[::16]), d)) * 0.01) * 0.9
    if copies:
        x[:16 * copies:16] = q
    return q.astype(np.float32).astype(np.float64), x.astype(np.float32)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_floor_falls_back_to_tau_when_the_sample_holds_the_best_keys(
        monkeypatch, kind):
    # the sample's r-th best key is the r-th best of all, which fewer than
    # limit keys reach, so the count fails and the floor is tau itself
    n = 4 * BLOCK
    q, x = sampled_rows_best(n, np.random.default_rng(64))
    vs, fn = VectorSet(x), KINDS[kind]
    for limit in (10, 200, n // 8):
        f, key = filter_and_keys(q, vs, fn, limit)
        s = limit // 16
        t = np.sort(key[::16])[-(s + 2 * math.isqrt(s) + 2)]
        assert np.count_nonzero(key >= t) < limit
        assert f._floor(key) == f._tau(key)
        pools = assert_same_pools(monkeypatch, np.stack([q, q * 3.0]), vs,
                                  fn, limit)
        ids, sims = float64_topk(q, x, fn, limit)
        assert pools[0].ids.tobytes() == ids.tobytes()
        np.testing.assert_allclose(pools[0].sims, sims, rtol=1e-12)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_floor_equals_tau_on_duplicate_best_rows(monkeypatch, kind):
    # 64 sampled rows are one best row: the sample's r-th best key is that
    # row's, tau whenever 64 keys reach the limit, and the next key's tau
    # from the count's fallback past it
    n = 4 * BLOCK
    q, x = sampled_rows_best(n, np.random.default_rng(65), copies=64)
    vs, fn = VectorSet(x), KINDS[kind]
    for limit in (10, 40, 64, 65):
        f, key = filter_and_keys(q, vs, fn, limit)
        tau = f._tau(key)
        assert f._floor(key) == tau
        assert (tau == key.max()) == (limit <= 64)
        pools = assert_same_pools(monkeypatch, q[None], vs, fn, limit)
        ids, sims = float64_topk(q, x, fn, limit)
        assert pools[0].ids.tobytes() == ids.tobytes()
        assert ids[:min(limit, 64)].tolist() == list(range(0, 16 * min(
            limit, 64), 16))
        np.testing.assert_allclose(pools[0].sims, sims, rtol=1e-12)


def test_one_block_pool_partitions_a_few_keys(monkeypatch):
    # n = 50k, limit 2000: a 1-in-16 sample and the keys at or above its
    # bound are partitioned, never the n keys
    sizes = []
    real = np.partition

    def partition(a, kth, *args, **kwargs):
        sizes.append(len(a))
        return real(a, kth, *args, **kwargs)

    monkeypatch.setattr(np, "partition", partition)
    rng = np.random.default_rng(66)
    n, limit = 50_000, 2000
    x = rng.standard_normal((n, 32), dtype=np.float32)
    vs = VectorSet(x)
    for fn in KINDS.values():
        for _ in range(3):
            q = rng.normal(size=32)
            sizes.clear()
            pool = full_scan_pool(q, vs, fn, limit)
            assert sizes and max(sizes) < n // 4, fn.kind
            ids, _ = float64_topk(q, x, fn, limit)
            assert pool.ids.tobytes() == ids.tobytes()


# ---------------------------------------------------------------------------
# the filter over an inverted list
# ---------------------------------------------------------------------------

# above the filter's 4096-row survivor floor, so exact_topk filters the list
LIST_ROWS = 4500
FLAVOURS = ("gaussian", "integer-ties", "near-duplicates", "overflow")


def list_instance(flavour, d, rng, rows=LIST_ROWS):
    """(q, x): a query and ``rows`` float32 rows in one of the flavours of
    ``random_float32_instance``."""
    q = rng.normal(size=d)
    if flavour == "integer-ties":
        # small integers: at d = 3 each row has many exact copies, so rows
        # tie at the k-th place under every kind; no zero row, which
        # one-plus-cosine rejects
        x = rng.integers(-2, 4, size=(rows, d))
        x[~x.any(axis=1)] = 1
        q = rng.integers(-1, 3, size=d).astype(np.float64)
    elif flavour == "near-duplicates":
        x = np.tile(rng.normal(size=d).astype(np.float32), (rows, 1))
        x[:, 0] += rng.integers(-3, 4, size=rows) * np.spacing(x[0, 0])
        q[0] *= 0.02
    else:
        x = rng.normal(size=(rows, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if flavour == "overflow":
            big = rng.choice(rows, size=3, replace=False)
            x[big] = np.sign(x[big]) * 3e38 / math.sqrt(d)
            q *= 10.0
    return q, x.astype(np.float32)


def with_other_list(x, other, rng):
    """A float32 base whose attribute 0 holds the rows x and attribute 1
    the rows ``other``, interleaved at random, so that a list position is
    not a base id."""
    labels = rng.permutation(np.repeat([0, 1], [len(x), len(other)]))
    base = np.empty((len(labels), x.shape[1]), dtype=np.float32)
    base[labels == 0] = x
    base[labels == 1] = other
    return VectorSet(base), AttributeTable.from_labels(labels, 2)


def assert_list_is_exact(q, vs, attrs, fn, k):
    members = attrs.inverted[0]
    got = exact_topk(q, 0, k, vs, attrs, fn)
    ids, sims = float64_topk(q, vs.data[members], fn, k)
    assert got.ids.tolist() == members[ids].tolist()
    np.testing.assert_allclose(got.sims, sims, rtol=1e-12,
                               atol=1e-12 * np.abs(sims).max())


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_exact_topk_ranks_a_large_float32_list_exactly(kind, flavour):
    rng = np.random.default_rng([sorted(KINDS).index(kind),
                                 FLAVOURS.index(flavour)])
    for d in (3, 16):
        q, x = list_instance(flavour, d, rng)
        other = rng.standard_normal((300, d), dtype=np.float32)
        vs, attrs = with_other_list(x, other, rng)
        for k in (1, 10):
            assert_list_is_exact(q, vs, attrs, KINDS[kind], k)


def test_exact_topk_hands_a_large_list_straight_to_the_filter(monkeypatch):
    # the list is the table's own and the query was checked once: a list
    # the filter takes goes to _filter_pools once, never via block_pools
    calls = []
    real = oracle._filter_pools

    def filter_pools(qs, data, fn, limit, ids=None):
        calls.append(len(ids))
        return real(qs, data, fn, limit, ids)

    def block_pools(*args, **kwargs):
        raise AssertionError("exact_topk called block_pools")

    monkeypatch.setattr(oracle, "_filter_pools", filter_pools)
    monkeypatch.setattr(oracle, "block_pools", block_pools)
    rng = np.random.default_rng(54)
    q, x = list_instance("gaussian", 8, rng)
    vs, attrs = with_other_list(x, rng.standard_normal((300, 8)), rng)
    for fn in KINDS.values():
        for attribute, filtered in ((0, [LIST_ROWS]), (1, [])):
            calls.clear()
            assert len(exact_topk(q, attribute, 10, vs, attrs, fn)) == 10
            assert calls == filtered
        assert_list_is_exact(q, vs, attrs, fn, 10)


def large_list_with_extreme_rows_elsewhere(rng, d=16):
    """A Gaussian list of LIST_ROWS rows, and another list holding a zero
    row, a row of norm about 1e-30 and one of about 1e30."""
    x = rng.standard_normal((LIST_ROWS, d), dtype=np.float32)
    other = rng.standard_normal((300, d), dtype=np.float32)
    other[0] = 0.0
    other[1] *= 1e-30
    other[2] *= 1e30
    return with_other_list(x, other, rng)


def test_large_list_filter_reads_its_own_norms(monkeypatch):
    # the bounds come from the list's own norms: the other list's zero row
    # raises nothing under one-plus-cosine, and its extreme norms do not
    # widen the threshold, so the filter re-scores k plus a few rows
    rescored = []
    real = SimilarityFn.batch_ids

    def batch_ids(self, q, data, ids):
        rescored.append(len(ids))
        return real(self, q, data, ids)

    monkeypatch.setattr(SimilarityFn, "batch_ids", batch_ids)
    rng = np.random.default_rng(48)
    vs, attrs = large_list_with_extreme_rows_elsewhere(rng)
    # in one block, and streamed in blocks of BLOCK rows
    for rows in (oracle._STREAM_ROWS, BLOCK):
        monkeypatch.setattr(oracle, "_STREAM_ROWS", rows)
        for fn in KINDS.values():
            for k in (1, 10):
                for _ in range(3):
                    rescored.clear()
                    assert_list_is_exact(rng.normal(size=16), vs, attrs, fn,
                                         k)
                    assert len(rescored) == 1 and k <= rescored[0] <= k + 8


# list lengths as in test_streamed_pools_equal_one_block_pools, where a
# single query's sgemv rounds the rows as the same rows in blocks
@pytest.mark.parametrize("n", [2 * BLOCK + 1, 3 * BLOCK + 1, 4 * BLOCK,
                               3 * BLOCK + 777])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_streamed_lists_equal_one_block_lists(monkeypatch, kind, n):
    # an inverted list of n rows interleaved with another attribute's 500:
    # ranked by blocks of BLOCK gathered rows, it re-scores the rows that
    # one sgemm of the whole list does and gives its pools to the byte
    rng = np.random.default_rng([n, sorted(KINDS).index(kind), 1])
    x = rng.standard_normal((n, 8), dtype=np.float32)
    vs, attrs = with_other_list(
        x, rng.standard_normal((500, 8), dtype=np.float32), rng)
    fn = KINDS[kind]
    qs = rng.normal(size=(3, 8))
    for limit in (1, 10, n // 8):
        pools = assert_same_pools(monkeypatch, qs, vs, fn, limit, attrs)
        ids, _ = float64_topk(qs[0], x, fn, limit)
        assert pools[0].ids.tolist() == attrs.inverted[0][ids].tolist()
        assert pools[-1].ids.tolist() == pools[0].ids.tolist()


def test_streamed_list_holds_none_of_its_gathered_rows_whole(monkeypatch):
    # a four-block list peaks below its own gathered float32 rows: it
    # holds one block of them at a time
    monkeypatch.setattr(oracle, "_STREAM_ROWS", BLOCK)
    rng = np.random.default_rng(64)
    x = rng.standard_normal((4 * BLOCK, 16), dtype=np.float32)
    vs, attrs = with_other_list(
        x, rng.standard_normal((300, 16), dtype=np.float32), rng)
    for fn in KINDS.values():
        q = fn.query(rng.normal(size=16))
        exact_topk(q, 0, 10, vs, attrs, fn)
        tracemalloc.start()
        try:
            exact_topk(q, 0, 10, vs, attrs, fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes, fn.kind


def test_zero_row_in_a_large_list_is_rejected_under_cosine():
    rng = np.random.default_rng(49)
    vs, attrs = large_list_with_extreme_rows_elsewhere(rng)
    zero = attrs.inverted[1][np.flatnonzero(vs.norms[attrs.inverted[1]]
                                            == 0.0)]
    labels = attrs.labels.copy()
    labels[zero] = 0                 # the zero row joins the large list
    attrs = AttributeTable.from_labels(labels, 2)
    with pytest.raises(ValueError, match="^zero input vector under "
                                         "one-plus-cosine$"):
        exact_topk(rng.normal(size=16), 0, 10, vs, attrs,
                   KINDS["one-plus-cosine"])
    for kind in ("dot-product", "reciprocal-euclidean"):
        assert_list_is_exact(rng.normal(size=16), vs, attrs, KINDS[kind], 10)


@pytest.mark.parametrize("float32", [True, False])
def test_query_of_the_wrong_length_is_rejected(float32):
    # the float64 path's message, also where float32 scores are made: a
    # pool with and without the filter, a large list and a small one
    rng = np.random.default_rng(53)
    x = rng.standard_normal((LIST_ROWS, 8))
    vs, attrs = with_other_list(x, rng.standard_normal((300, 8)), rng)
    if not float32:
        vs = VectorSet(vs.data.astype(np.float64))
    message = "^dimension mismatch between query and vectors$"
    for fn in KINDS.values():
        for q in (rng.normal(size=7), rng.normal(size=9)):
            for limit in (10, None):
                with pytest.raises(ValueError, match=message):
                    full_scan_pool(q, vs, fn, limit)
            for attribute in (0, 1):
                with pytest.raises(ValueError, match=message):
                    exact_topk(q, attribute, 10, vs, attrs, fn)
            # with a pool handed in, ranked by rank or not, the query is
            # checked though only the pool is read
            for pool in (full_scan_pool(np.ones(8), vs, fn, 10),
                         oracle.RankedList(np.arange(3), np.zeros(3))):
                with pytest.raises(ValueError, match=message):
                    oracle._caller_pool(q, vs, fn, 10, pool)


def test_query_beyond_float32_range_ranks_a_large_list_exactly():
    rng = np.random.default_rng(50)
    vs, attrs = large_list_with_extreme_rows_elsewhere(rng)
    q = rng.normal(size=16) * 1e39       # beyond float32, not float64
    for fn in KINDS.values():
        assert_list_is_exact(q, vs, attrs, fn, 10)


# ---------------------------------------------------------------------------
# streamed scans split across worker threads
# ---------------------------------------------------------------------------

def split_into(monkeypatch, workers):
    """Stream by blocks of BLOCK rows, and split every scan into
    ``workers`` shares whatever its length."""
    monkeypatch.setattr(oracle, "_STREAM_ROWS", BLOCK)
    monkeypatch.setattr(core, "_workers", lambda n, rows: workers)


@pytest.mark.parametrize("flavour", FLAVOURS + ("beyond-float32",))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_pools_do_not_depend_on_the_worker_count(monkeypatch, kind, flavour):
    # a base and an inverted list of 3 to 9 blocks, split into 1, 2 or 3
    # shares: the same float64 re-scores, in the same order, and the same
    # pools to the byte; a query beyond float32's range ranks every row
    # in float64, by a scan that the shares split too
    rng = np.random.default_rng([sorted(KINDS).index(kind),
                                 FLAVOURS.index(flavour)
                                 if flavour in FLAVOURS else 9])
    fn = KINDS[kind]
    rescored = []
    real = SimilarityFn.batch_ids

    def batch_ids(self, q, data, ids):
        rescored.append(ids.tobytes())
        return real(self, q, data, ids)

    monkeypatch.setattr(SimilarityFn, "batch_ids", batch_ids)
    for rows in (3 * BLOCK + 1, 9 * BLOCK - 5):
        q, x = list_instance(flavour if flavour in FLAVOURS else "gaussian",
                             8, rng, rows)
        if flavour not in FLAVOURS:
            q = q * 1e39
        qs = np.stack([q, -q, rng.normal(size=8)])
        listed, attrs = with_other_list(
            x, rng.standard_normal((300, 8), dtype=np.float32), rng)
        for vs, ids in ((VectorSet(x), None), (listed, attrs.inverted[0])):
            for limit in (1, 10, rows // 8):
                seen = []
                for workers in (1, 2, 3):
                    split_into(monkeypatch, workers)
                    rescored.clear()
                    pools = block_pools(qs, vs, fn, limit, ids)
                    seen.append(([(p.ids.tobytes(), p.sims.tobytes())
                                  for p in pools], list(rescored)))
                assert seen[1] == seen[0] and seen[2] == seen[0], \
                    (rows, limit, ids is None)
                want, _ = float64_topk(q, x, fn, limit)
                got = pools[0].ids if ids is None else \
                    np.searchsorted(ids, pools[0].ids)
                assert got.tolist() == want.tolist()


@pytest.mark.parametrize("raiser", [0, 1])
def test_an_error_in_a_share_is_raised_after_every_share_ends(monkeypatch,
                                                              raiser):
    # share 0 runs in the caller, share 1 on a worker thread: whichever
    # raises, block_pools raises it, and only once the other share has
    # scored all its blocks
    split_into(monkeypatch, 2)
    rng = np.random.default_rng(65)
    vs = VectorSet(rng.standard_normal((4 * BLOCK, 8), dtype=np.float32))
    qs = rng.normal(size=(2, 8))
    fn = KINDS["one-plus-cosine"]
    want = [p.ids.tolist() for p in block_pools(qs, vs, fn, 10)]
    real = oracle._f32_scores
    scored = []

    def f32_scores(qs, data, ids=None, lo=0, hi=None):
        share = int(lo >= 2 * BLOCK)
        if share == raiser:
            raise RuntimeError(f"share {share}")
        time.sleep(0.05)
        scored.append(lo)
        return real(qs, data, ids, lo, hi)

    monkeypatch.setattr(oracle, "_f32_scores", f32_scores)
    with pytest.raises(RuntimeError, match=f"^share {raiser}$"):
        block_pools(qs, vs, fn, 10)
    other = 2 * BLOCK * (1 - raiser)
    assert scored == [other, other + BLOCK]
    monkeypatch.setattr(oracle, "_f32_scores", real)
    assert [p.ids.tolist() for p in block_pools(qs, vs, fn, 10)] == want


def test_the_cpus_at_hand_decide_the_split(monkeypatch):
    # by the process's real CPU affinity: one share on one CPU (as under
    # taskset -c 0), two on more, with two streamed blocks of BLOCK rows
    # in flight; the pools are those of one share
    monkeypatch.setattr(oracle, "_STREAM_ROWS", 2 * BLOCK)
    rng = np.random.default_rng(66)
    vs = VectorSet(rng.standard_normal((8 * BLOCK, 8), dtype=np.float32))
    qs = rng.normal(size=(3, 8))
    split = []
    real = oracle._on_shares

    def on_shares(work, shares):
        split.append(len(shares))
        return real(work, shares)

    monkeypatch.setattr(oracle, "_on_shares", on_shares)
    rule = core._workers
    for fn in KINDS.values():
        seen = []
        for workers in (rule, lambda n, rows: 1):
            monkeypatch.setattr(core, "_workers", workers)
            split.clear()
            seen.append(([(p.ids.tobytes(), p.sims.tobytes())
                          for p in block_pools(qs, vs, fn, 10)], split[:]))
        assert seen[0][1] == [min(len(os.sched_getaffinity(0)), 2)]
        assert seen[1][1] == [1] and seen[0][0] == seen[1][0]


@pytest.mark.parametrize("cpus", [1, 2, 3, 8, 64])
def test_worker_rule_and_shares(monkeypatch, cpus):
    # one worker per CPU, at most one per 65536 rows and 16 in all (each
    # streams blocks of at least 4096 of the 65536 rows in flight);
    # shares cover the rows in order, cut at multiples of 4096
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    rows = core._STREAM_ROWS
    for n, most in ((0, 1), (rows + 1, 1), (2 * rows - 1, 1),
                    (2 * rows, 2), (10**6, 15), (10**8, 16)):
        w = core._workers(n, rows)
        assert w == min(cpus, most), n
        shares = core._shares(n, rows)
        assert len(shares) == w
        assert shares[0][0] == 0 and shares[-1][1] == n
        for (_, hi), (lo, _) in zip(shares, shares[1:]):
            assert hi == lo and lo % core._NORM_BLOCK == 0
        assert all(abs(hi - lo - n / w) < core._NORM_BLOCK
                   for lo, hi in shares)
    assert core._workers(10**6, BLOCK) == 1


# ---------------------------------------------------------------------------
# float64 paths over a float32 base
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4095, 4096, 4097, 10001])
def test_block_scans_equal_one_whole_array_call(n):
    # the limit=None and reference scans upcast 4096-row blocks; the result
    # is bit for bit one call on the float64 copy
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 24), dtype=np.float32)
    vs = VectorSet(x)
    wide = x.astype(np.float64)
    sqnorms = np.einsum("ij,ij->i", wide, wide)
    norms = np.sqrt(sqnorms)
    for fn in KINDS.values():
        for q in (rng.normal(size=(5, 24)), rng.normal(size=24)):
            want = fn.batch(q, wide, row_norms=norms, row_sqnorms=sqnorms)
            assert fn.scan(q, vs).tobytes() == want.tobytes()
        pool = full_scan_pool(q, vs, fn)
        order = np.lexsort((np.arange(n), -want))
        assert pool.ids.tolist() == order.tolist()
        assert pool.sims.tobytes() == want[order].tobytes()


@pytest.mark.parametrize("n", [3 * BLOCK + 1, 5 * BLOCK + 17])
def test_split_scans_equal_one_thread_scans(monkeypatch, n):
    # the shares' 4096-row blocks are one thread's, written into one
    # output. (Against one whole-array call, a BLAS that threads a single
    # query's GEMV may round a row differently at some lengths, 20497 one.)
    rng = np.random.default_rng(n)
    vs = VectorSet(rng.standard_normal((n, 24), dtype=np.float32))
    for fn in KINDS.values():
        for q in (rng.normal(size=(5, 24)), rng.normal(size=24)):
            scans = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(core, "_workers",
                                    lambda n, rows: workers)
                scans.append(fn.scan(q, vs).tobytes())
            assert scans[1] == scans[0] and scans[2] == scans[0], fn.kind


@pytest.mark.parametrize("chunks", [None, 2])
def test_cluster_attrs_same_on_float32_and_float64_storage(tmp_path, chunks):
    rng = np.random.default_rng(43)
    x = rng.standard_normal((600, 8), dtype=np.float32)
    paths = []
    for arr in (x, x.astype(np.float64)):
        vs = VectorSet(arr)
        paths.append(tmp_path / f"{vs.data.dtype}.txt")
        data_io.write_attrs(str(paths[-1]), data_io.cluster_attrs(
            vs, c=5, seed=3, chunks=chunks))
    assert VectorSet(x).data.dtype == np.float32
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gathers_upcast_only_the_rows_they_take():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((200, 6), dtype=np.float32)
    vs = VectorSet(x)
    ids = np.array([5, 17, 3])
    q = rng.normal(size=6)
    for fn in KINDS.values():
        want = fn.batch(q, x[ids].astype(np.float64),
                        row_norms=vs.norms[ids], row_sqnorms=vs.sqnorms[ids])
        assert fn.batch_ids(q, vs, ids).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# checks made once
# ---------------------------------------------------------------------------

def count_query_checks(monkeypatch):
    """The list that gets one entry per query (or block) checked and
    normed: each ``SimilarityFn.query`` call on anything but a Query."""
    made = []
    real = SimilarityFn.query

    def query(self, q):
        if not isinstance(q, core.Query):
            made.append(1)
        return real(self, q)

    monkeypatch.setattr(SimilarityFn, "query", query)
    return made


def test_query_is_checked_once_per_exact_solve(monkeypatch):
    # c = 20 attributes: the exact solvers make the query once, not per scan
    made = count_query_checks(monkeypatch)
    rng = np.random.default_rng(45)
    vs = VectorSet(rng.standard_normal((400, 8), dtype=np.float32))
    attrs = AttributeTable.from_labels(rng.integers(0, 20, size=400), 20)
    for kind, fn in KINDS.items():
        for params, solve in ((WelfareParams(p=0.0, eta=0.5), nash_ann),
                              (WelfareParams(p=-1.0, eta=0.5), p_mean_ann)):
            made.clear()
            solve(rng.normal(size=8), 5, params, vs, attrs, fn)
            assert len(made) == 1, kind


def test_query_block_is_checked_once(monkeypatch):
    # the block is checked and normed as a whole; its rows are not again
    made = count_query_checks(monkeypatch)
    rng = np.random.default_rng(51)
    vs = VectorSet(rng.standard_normal((400, 8), dtype=np.float32))
    qs = rng.normal(size=(5, 8))
    for kind, fn in KINDS.items():
        for limit in (10, None):
            made.clear()
            pools = block_pools(qs, vs, fn, limit)
            assert len(pools) == 5 and len(made) == 1, kind


def test_zero_row_under_cosine_is_found_without_a_scan():
    x = np.ones((50, 3), dtype=np.float32)
    x[7] = 0.0
    vs = VectorSet(x)
    fn = KINDS["one-plus-cosine"]
    assert vs.min_norm == 0.0
    for limit in (None, 5):
        with pytest.raises(ValueError, match="^zero input vector under "
                                             "one-plus-cosine$"):
            full_scan_pool(np.ones(3), vs, fn, limit=limit)
    # a gather that leaves the zero row out still works
    attrs = AttributeTable.from_labels(np.arange(50) == 7, 2)
    assert len(exact_topk(np.ones(3), 0, 3, vs, attrs, fn)) == 3
    with pytest.raises(ValueError, match="zero input vector"):
        exact_topk(np.ones(3), 1, 3, vs, attrs, fn)
