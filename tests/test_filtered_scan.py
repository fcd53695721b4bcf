"""The certified float32 filter behind ``full_scan_pool`` over float32 bases,
and the float64 paths that read a float32 base by blocks.

Each pool is compared with an independent whole-array float64 rank: one
``SimilarityFn.batch`` call on a float64 copy of the base and a lexsort by
(similarity descending, id ascending).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divknn import core, data as data_io, oracle
from divknn.core import AttributeTable, SimilarityFn, VectorSet, WelfareParams
from divknn.oracle import (_filtered_pool, _max_survivors, block_pools,
                           exact_topk, full_scan_pool)
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
    g = oracle._f32_scores(fn.query(q), VectorSet(x), fn)
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

    def f32_scores(q, data, fn):
        g = real(q, data, fn)
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
            pool = _filtered_pool(fn.query(q), vs, fn, limit, ids=rows)
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
# the filter over an inverted list
# ---------------------------------------------------------------------------

# above the filter's 4096-row survivor floor, so exact_topk filters the list
LIST_ROWS = 4500
FLAVOURS = ("gaussian", "integer-ties", "near-duplicates", "overflow")


def list_instance(flavour, d, rng):
    """(q, x): a query and LIST_ROWS float32 rows in one of the flavours of
    ``random_float32_instance``."""
    q = rng.normal(size=d)
    if flavour == "integer-ties":
        # small integers: at d = 3 each row has many exact copies, so rows
        # tie at the k-th place under every kind; no zero row, which
        # one-plus-cosine rejects
        x = rng.integers(-2, 4, size=(LIST_ROWS, d))
        x[~x.any(axis=1)] = 1
        q = rng.integers(-1, 3, size=d).astype(np.float64)
    elif flavour == "near-duplicates":
        x = np.tile(rng.normal(size=d).astype(np.float32), (LIST_ROWS, 1))
        x[:, 0] += rng.integers(-3, 4, size=LIST_ROWS) * np.spacing(x[0, 0])
        q[0] *= 0.02
    else:
        x = rng.normal(size=(LIST_ROWS, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if flavour == "overflow":
            big = rng.choice(LIST_ROWS, size=3, replace=False)
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
    for fn in KINDS.values():
        for k in (1, 10):
            for _ in range(3):
                rescored.clear()
                assert_list_is_exact(rng.normal(size=16), vs, attrs, fn, k)
                assert len(rescored) == 1 and k <= rescored[0] <= k + 8


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


def test_query_beyond_float32_range_ranks_a_large_list_exactly():
    rng = np.random.default_rng(50)
    vs, attrs = large_list_with_extreme_rows_elsewhere(rng)
    q = rng.normal(size=16) * 1e39       # beyond float32, not float64
    for fn in KINDS.values():
        assert_list_is_exact(q, vs, attrs, fn, 10)


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
