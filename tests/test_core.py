import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from divknn import core, data as data_io
from divknn.core import (AttributeTable, Selection, SimilarityFn, VectorSet,
                         WelfareParams, log_nsw, utilities, welfare)
from divknn.reference import _weight_matrix


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_vectorset_rejects_nonfinite():
    with pytest.raises(ValueError):
        VectorSet([[1.0, np.nan]])
    with pytest.raises(ValueError):
        VectorSet([[np.inf, 0.0]])
    # rows are checked in blocks: a late Inf is still found, and a block
    # whose sum overflows while every entry is finite is accepted
    late = np.zeros((300_000, 1))
    late[-1, 0] = np.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        VectorSet(late)
    assert VectorSet(np.full((3, 2), 1e308)).n == 3
    assert VectorSet(np.full((2, 2), 2**62, dtype=np.int64)).n == 2


def test_vectorset_immutable():
    vs = VectorSet([[1.0, 2.0]])
    with pytest.raises(ValueError):
        vs.data[0, 0] = 5.0
    for arr in (vs.norms, vs.sqnorms):
        with pytest.raises(ValueError):
            arr[0] = 5.0


@pytest.mark.parametrize("n", [3, 4, 5, 9])
@pytest.mark.parametrize("d", [1, 7, 32])
def test_vectorset_norms_match_whole_array_formulas(monkeypatch, n, d):
    # blocks of 4 rows: one partial block, exact blocks and a ragged tail
    monkeypatch.setattr(core, "_NORM_BLOCK", 4)
    x = np.random.default_rng(n * 100 + d).normal(size=(n, d)) * 1e3
    vs = VectorSet(x)
    sqnorms = np.einsum("ij,ij->i", x, x)
    assert vs.norms.tobytes() == np.sqrt(sqnorms).tobytes()
    assert vs.sqnorms.tobytes() == sqnorms.tobytes()


def test_vectorset_finite_check_per_block(monkeypatch):
    monkeypatch.setattr(core, "_NORM_BLOCK", 4)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.ones((10, 3))
        x[-1, 1] = bad                      # in the last, partial block
        with pytest.raises(ValueError, match="NaN or Inf"):
            VectorSet(x)
    # squares overflow to inf while every entry is finite
    big = np.full((10, 3), 1e200)
    vs = VectorSet(big)
    assert np.isinf(vs.sqnorms).all() and np.isinf(vs.norms).all()
    # int64 is stored in float64, uint8 in float32: both hold the values
    for ints, dtype in ((np.full((6, 2), 2**62, dtype=np.int64), np.float64),
                        (np.arange(12, dtype=np.uint8).reshape(6, 2),
                         np.float32)):
        vs = VectorSet(ints)
        assert vs.data.tobytes() == ints.astype(dtype).tobytes()
        wide = ints.astype(np.float64)
        assert vs.sqnorms.tobytes() == np.einsum(
            "ij,ij->i", wide, wide).tobytes()


def test_vectorset_setup_pass_peak_memory():
    # the norms are taken by row blocks: no temporary of the matrix's size
    x = np.random.default_rng(82).normal(size=(20_000, 64))
    tracemalloc.start()
    try:
        VectorSet(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * x.nbytes


@pytest.mark.parametrize("n", [4, 10])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
def test_vectorset_norms_are_roots_of_the_float64_sqnorms(monkeypatch, n,
                                                          dtype):
    # blocks of 4 rows: n = 10 ends on a ragged block of 2
    monkeypatch.setattr(core, "_NORM_BLOCK", 4)
    rng = np.random.default_rng(n)
    x = (rng.integers(0, 256, size=(n, 7)) if dtype == np.uint8
         else rng.normal(size=(n, 7)) * 1e3).astype(dtype)
    vs = VectorSet(x)
    wide = x.astype(np.float64)
    sqnorms = np.einsum("ij,ij->i", wide, wide)
    assert vs.sqnorms.tobytes() == sqnorms.tobytes()
    assert vs.norms.tobytes() == np.sqrt(sqnorms).tobytes()


def test_vectorset_float32_setup_peak_memory():
    # one reused float64 block plus the two norm arrays, nothing per block
    n, d = 20_000, 64
    x = np.random.default_rng(84).standard_normal((n, d), dtype=np.float32)
    tracemalloc.start()
    try:
        VectorSet(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * (core._NORM_BLOCK * d * 8 + 2 * n * 8)


# the set-up pass split into 1, 2 or 3 shares: a share ends on a bound of
# one thread's 4096-row blocks, so every row is summed as one thread sums it
SPLIT_ROWS = (0, 3 * 4096, 3 * 4096 + 5, 5 * 4096 + 17)


def split_into(monkeypatch, workers):
    monkeypatch.setattr(core, "_workers", lambda n, rows: workers)


def setup_pass_at_each_split(monkeypatch, make):
    """The sqnorms and norms bytes of ``make()`` at 1, 2 and 3 shares."""
    seen = []
    for workers in (1, 2, 3):
        split_into(monkeypatch, workers)
        vs = make()
        seen.append((vs.sqnorms.tobytes(), vs.norms.tobytes()))
    return seen


@pytest.mark.parametrize("n", SPLIT_ROWS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
def test_split_setup_pass_equals_one_thread_pass(monkeypatch, n, dtype):
    rng = np.random.default_rng(n)
    x = (rng.integers(0, 256, size=(n, 24)) if dtype == np.uint8
         else rng.normal(size=(n, 24)) * 1e3).astype(dtype)
    seen = setup_pass_at_each_split(monkeypatch, lambda: VectorSet(x))
    assert seen[1] == seen[0] and seen[2] == seen[0]
    wide = x.astype(np.float64)
    sqnorms = np.einsum("ij,ij->i", wide, wide)
    assert seen[0] == (sqnorms.tobytes(), np.sqrt(sqnorms).tobytes())


@pytest.mark.parametrize("n", SPLIT_ROWS[1:])   # an empty file has no map
def test_split_setup_pass_over_a_mapped_record_matrix(monkeypatch, tmp_path,
                                                      n):
    x = np.random.default_rng(n).standard_normal((n, 24), dtype=np.float32)
    path = str(tmp_path / "x.fvecs")
    data_io.write_fvecs(path, x)
    copied = data_io.read_fvecs(path)
    monkeypatch.setattr(data_io, "_MAP_BYTES", 0)
    seen = setup_pass_at_each_split(monkeypatch,
                                    lambda: data_io.read_fvecs(path))
    assert data_io.read_fvecs(path)._records is not None
    assert seen == [(copied.sqnorms.tobytes(), copied.norms.tobytes())] * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_split_setup_pass_finds_a_bad_entry_in_any_share(monkeypatch,
                                                         tmp_path, bad):
    # at 3 workers the shares are rows [0, 4096), [4096, 8192), [8192, n);
    # at 2, [0, 4096) and [4096, n): each share's verdict counts
    n, d = 3 * 4096 + 5, 8
    x = np.random.default_rng(86).standard_normal((n, d), dtype=np.float32)
    path = str(tmp_path / "bad.fvecs")
    monkeypatch.setattr(data_io, "_MAP_BYTES", 0)
    for row in (0, n // 2, n - 1):
        y = x.copy()
        y[row, row % d] = bad
        data_io.write_fvecs(path, y)
        for workers in (1, 2, 3):
            split_into(monkeypatch, workers)
            for data in (y, y.astype(np.float64)):
                with pytest.raises(ValueError, match="^vector payload "
                                   "contains NaN or Inf$"):
                    VectorSet(data)
            with pytest.raises(ValueError, match="^" + re.escape(path)
                               + ": payload contains NaN or Inf$"):
                data_io.read_fvecs(path)


def test_setup_pass_splits_as_a_scan_does(monkeypatch):
    # by the real worker rule: from twice _STREAM_ROWS rows on, one share
    # per CPU at hand, at most one per _STREAM_ROWS rows
    monkeypatch.setattr(core, "_STREAM_ROWS", 2 * 4096)
    split = []
    real = core._on_shares

    def on_shares(work, shares):
        split.append(len(shares))
        return real(work, shares)

    monkeypatch.setattr(core, "_on_shares", on_shares)
    x = np.random.default_rng(87).standard_normal((8 * 4096, 8),
                                                  dtype=np.float32)
    whole = VectorSet(x)
    assert split == [min(len(os.sched_getaffinity(0)), 2)]
    split.clear()
    head = VectorSet(x[:4 * 4096 - 1])
    assert split == [1]
    assert head.sqnorms.tobytes() == whole.sqnorms[:4 * 4096 - 1].tobytes()


def test_vectorset_shape_checks():
    with pytest.raises(ValueError):
        VectorSet(np.zeros(3))
    with pytest.raises(ValueError):
        VectorSet(np.zeros((2, 0)))
    assert VectorSet(np.zeros((0, 0))).n == 0  # empty set allowed, unusable


def read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("records", [
    np.zeros((4, 3), dtype=np.float32),                  # writable
    read_only(np.zeros((4, 3))),                         # float64
    read_only(np.zeros(12, dtype=np.float32)),           # 1-D
    read_only(np.zeros((4, 1), dtype=np.float32)),       # d = 0
    read_only(np.zeros((4, 3, 1), dtype=np.float32)),    # 3-D
    [[3.0, 1.0, 2.0]],                                   # not an array
], ids=["writable", "float64", "1-D", "no-payload", "3-D", "list"])
def test_vectorset_rejects_a_bad_record_matrix(records):
    with pytest.raises(ValueError, match="^a record matrix must be a "
                       r"read-only float32 \(n, d \+ 1\) array with d >= 1$"):
        VectorSet(records, records=True)


def test_vectorset_keeps_a_record_matrix_in_place():
    rec = np.arange(12, dtype=np.float32).reshape(4, 3)
    rec.setflags(write=False)
    vs = VectorSet(rec, records=True)
    assert np.shares_memory(vs.data, rec)
    assert vs.data.tobytes() == rec[:, 1:].tobytes()
    assert vs.take([3, 0]).tobytes() == rec[[3, 0], 1:].tobytes()


def test_attribute_table_inverted_is_transpose():
    rng = np.random.default_rng(0)
    atb = [sorted(rng.choice(5, size=rng.integers(1, 4), replace=False))
           for _ in range(30)]
    t = AttributeTable.from_rows(atb, c=5)
    for v in range(t.n):
        row = t.indices[t.indptr[v]:t.indptr[v + 1]]
        assert row.tolist() == sorted(atb[v])
        for a in range(5):
            assert (a in row) == (v in t.inverted[a])
    for a in range(5):
        assert list(t.inverted[a]) == sorted(t.inverted[a])


def test_attribute_table_validation():
    with pytest.raises(ValueError):
        AttributeTable.from_rows([[]], c=3)            # no attributes
    with pytest.raises(ValueError):
        AttributeTable.from_rows([[0, 0]], c=3)        # duplicate
    with pytest.raises(ValueError):
        AttributeTable.from_rows([[3]], c=3)           # out of range
    with pytest.raises(ValueError):
        AttributeTable.from_rows([[0]], c=2, classes=[[0]])  # not a partition
    for classes in ([[-1], [0]], [[0], [5]]):   # ids outside [0, c)
        with pytest.raises(ValueError, match="partition"):
            AttributeTable.from_labels([0, 1, 0], 2, classes=classes)
    with pytest.raises(ValueError, match="nonempty"):  # empty class
        AttributeTable.from_rows([[0], [1]], c=2, classes=[[], [0, 1]])
    with pytest.raises(ValueError, match="1-D"):
        AttributeTable([1, 1], [[0], [1]], c=2)        # indices not 1-D
    with pytest.raises(ValueError, match="sum"):
        AttributeTable([1, 2], [0, 1], c=2)            # lengths/ids mismatch


def test_attribute_table_builders_agree():
    rows = [[2, 0], [1], [0, 1]]
    t = AttributeTable([2, 1, 2], [2, 0, 1, 0, 1], c=3)
    assert t.indptr.tolist() == [0, 2, 3, 5]
    assert t.indices.tolist() == [0, 2, 1, 0, 1]
    r = AttributeTable.from_rows(rows, c=3)
    assert np.array_equal(r.indptr, t.indptr)
    assert np.array_equal(r.indices, t.indices)
    # gather returns constructor input: rows 2 and 0 as a new table
    g = AttributeTable(*t.gather([2, 0]), c=3)
    assert g.indices.tolist() == [0, 1, 0, 2]


@pytest.mark.parametrize("fewest, most", [(1, 3), (1, 1), (3, 3)])
def test_attribute_table_ascending_and_shuffled_rows_agree(fewest, most):
    # rows in ascending order skip the sort, shuffled rows take it; both
    # give the same table, whose inverted lists are its transpose, for
    # ragged rows, one id a vector and three ids per vector
    rng = np.random.default_rng(fewest * 10 + most)
    atb = [sorted(rng.choice(6, size=rng.integers(fewest, most + 1),
                             replace=False)) for _ in range(200)]
    shuffled = [list(rng.permutation(row)) for row in atb]
    for t in (AttributeTable.from_rows(atb, c=6),
              AttributeTable.from_rows(shuffled, c=6)):
        assert t.indices.tolist() == [a for row in atb for a in row]
        for a in range(6):
            assert t.inverted[a].tolist() == [v for v, row in enumerate(atb)
                                              if a in row]


def test_attribute_table_ascent_is_checked_within_rows():
    # ascending rows may descend across a row boundary
    assert AttributeTable.from_rows([[1, 2], [0, 1], [2]], c=3).indices \
        .tolist() == [1, 2, 0, 1, 2]
    for dup in ([[0, 1], [2, 1, 2]], [[1, 0, 1]], [[0, 1], [1, 1]]):
        with pytest.raises(ValueError, match=f"vector {len(dup) - 1} has "
                           "duplicate"):
            AttributeTable.from_rows(dup, c=3)


def test_attribute_table_keeps_its_own_arrays():
    for lengths, ids in ((np.ones(4, dtype=np.intp),
                          np.array([2, 0, 1, 2], dtype=np.intp)),
                         (np.full(2, 2, dtype=np.intp),
                          np.array([0, 2, 1, 2], dtype=np.intp))):
        t = AttributeTable(lengths, ids, c=3)
        ids[:] = 0                       # the caller's array stays writable
        assert t.indices.tolist() == ([2, 0, 1, 2] if t.is_single
                                      else [0, 2, 1, 2])
    # a strided view, as the attribute-file parser passes, is copied too
    grid = np.array([[0, 1], [1, 0], [2, 2]], dtype=np.intp)
    t = AttributeTable(np.ones(3, dtype=np.intp), grid[:, 1], c=3)
    assert t.indices.flags.c_contiguous and t.labels.tolist() == [1, 0, 2]


def _csr_gather(t, ids):
    """CSR entries of rows ``ids``, read one row slice at a time."""
    rows = [t.indices[t.indptr[v]:t.indptr[v + 1]] for v in ids]
    return ([len(r) for r in rows],
            np.concatenate(rows).tolist() if rows else [])


@pytest.mark.parametrize("width", [1, 4, None])
def test_attribute_table_gather_matches_csr_rows(width):
    rng = np.random.default_rng(7)
    n, c = 50, 12
    if width is None:
        t = AttributeTable.from_rows(
            [rng.choice(c, size=rng.integers(1, 5), replace=False)
             for _ in range(n)], c=c)
    else:
        t = AttributeTable(np.full(n, width),
                           rng.permuted(np.tile(np.arange(c), (n, 1)),
                                        axis=1)[:, :width].ravel(), c=c)
    # a fixed width takes the one-row-gather path; a ragged table the CSR
    assert t.width == width
    for ids in ([], [3], rng.integers(0, n, size=40), np.arange(n)[::-1]):
        lengths, entries = t.gather(ids)
        assert (lengths.tolist(), entries.tolist()) == _csr_gather(t, ids)
        assert lengths.dtype == entries.dtype == np.intp
        # slots: row j holds each vector's j-th attribute, or the pad c
        rows = [t.indices[t.indptr[v]:t.indptr[v + 1]].tolist() for v in ids]
        w = t.width or max(map(len, rows), default=0)
        slots = t.slots(ids)
        assert slots.flags.c_contiguous and slots.shape == (w, len(ids))
        assert slots.T.tolist() == [r + [c] * (w - len(r)) for r in rows]


def test_attribute_table_single_mode():
    t = AttributeTable.from_labels([0, 1, 1], c=2)
    assert t.is_single
    assert list(t.labels) == [0, 1, 1]
    m = AttributeTable.from_rows([[0], [0, 1]], c=2)
    assert not m.is_single
    with pytest.raises(ValueError):
        m.require_single()


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def pair(fn, u, v) -> float:
    """Similarity of one vector pair through ``SimilarityFn.batch``."""
    return float(fn.batch(np.asarray(u, dtype=float),
                          np.asarray([v], dtype=float))[0])


def test_similarity_one_plus_cosine_identical_unit():
    fn = SimilarityFn("one-plus-cosine")
    assert pair(fn, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(2.0)


def test_similarity_one_plus_cosine_orthogonal():
    fn = SimilarityFn("one-plus-cosine")
    assert pair(fn, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_similarity_reciprocal_zero_distance():
    fn = SimilarityFn("reciprocal-euclidean", delta=0.01)
    assert pair(fn, [3.0, 4.0], [3.0, 4.0]) == pytest.approx(100.0)


def test_similarity_errors():
    fn = SimilarityFn("one-plus-cosine")
    with pytest.raises(ValueError):
        pair(fn, [1.0], [1.0, 2.0])                    # dim mismatch
    with pytest.raises(ValueError):
        pair(fn, [0.0, 0.0], [1.0, 0.0])               # zero query
    with pytest.raises(ValueError):
        pair(fn, [1.0, 0.0], [0.0, 0.0])               # zero row
    with pytest.raises(ValueError):
        SimilarityFn("reciprocal-euclidean", delta=0.0)
    with pytest.raises(ValueError):
        SimilarityFn("cosine")                         # unknown kind


def test_dot_product_clamp():
    fn = SimilarityFn("dot-product")
    assert pair(fn, [1.0, 0.0], [-2.0, 0.0]) == 0.0
    assert pair(fn, [1.0, 0.0], [2.0, 0.0]) == pytest.approx(2.0)
    s = fn.batch(np.array([1.0, 0.0]), np.array([[-2.0, 0.0], [3.0, 1.0]]))
    assert s.tolist() == [0.0, 3.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fn.kind = "one-plus-cosine"    # shared by every --threads worker


def test_similarity_always_nonnegative():
    rng = np.random.default_rng(1)
    for kind, delta in (("one-plus-cosine", 0.0),
                        ("reciprocal-euclidean", 0.05), ("dot-product", 0.0)):
        fn = SimilarityFn(kind, delta=delta)
        for _ in range(50):
            u, v = rng.normal(size=4), rng.normal(size=4)
            s = pair(fn, u, v)
            assert s >= 0.0 and np.isfinite(s)


KINDS = (("one-plus-cosine", 0.0), ("reciprocal-euclidean", 0.05),
         ("dot-product", 0.0))


@pytest.mark.parametrize("kind, delta", KINDS)
def test_similarity_block_rows_match_single_queries(kind, delta):
    rng = np.random.default_rng(12)
    rows, qs = rng.normal(size=(500, 24)), rng.normal(size=(7, 24))
    fn = SimilarityFn(kind, delta=delta)
    block = fn.batch(qs, rows)
    assert block.shape == (7, 500) and block.flags.c_contiguous
    for q, got in zip(qs, block):
        want = fn.batch(q, rows)
        # GEMM and GEMV dot products may differ in the last place
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_similarity_block_is_exact_on_integer_dot_products():
    rng = np.random.default_rng(13)
    rows = rng.integers(-3, 4, size=(400, 16)).astype(np.float64)
    qs = rng.integers(-3, 4, size=(6, 16)).astype(np.float64)
    fn = SimilarityFn("dot-product")
    block = fn.batch(qs, rows)
    for q, got in zip(qs, block):
        assert np.array_equal(got, fn.batch(q, rows))


def test_similarity_single_query_is_the_documented_transform():
    rng = np.random.default_rng(14)
    rows, q = rng.normal(size=(300, 12)), rng.normal(size=12)
    sqnorms = np.einsum("ij,ij->i", rows, rows)
    norms = np.sqrt(sqnorms)
    cos = SimilarityFn("one-plus-cosine").batch(q, rows)
    assert np.array_equal(cos, rows @ q / norms / np.linalg.norm(q) + 1.0)
    rec = SimilarityFn("reciprocal-euclidean", delta=0.05).batch(q, rows)
    d2 = (rows @ q) * -2.0 + sqnorms + q @ q
    assert np.array_equal(rec, 1.0 / (np.sqrt(np.maximum(d2, 0.0)) + 0.05))
    dot = SimilarityFn("dot-product").batch(q, rows)
    assert np.array_equal(dot, np.maximum(rows @ q, 0.0))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_norms_itself_as_the_base_does(dtype):
    # batch without row_norms takes the norm the VectorSet stores
    rng = np.random.default_rng(16)
    vs = VectorSet(rng.normal(size=(300, 12)).astype(dtype))
    fn = SimilarityFn("one-plus-cosine")
    for q in (rng.normal(size=12), rng.normal(size=(3, 12))):
        assert fn.batch(q, vs.data).tobytes() == fn.batch(
            q, vs.data, row_norms=vs.norms).tobytes()


def test_similarity_block_errors_match_single_queries():
    rng = np.random.default_rng(15)
    rows, qs = rng.normal(size=(50, 4)), rng.normal(size=(5, 4))
    fn = SimilarityFn("one-plus-cosine")
    zero = qs.copy()
    zero[3] = 0.0
    with pytest.raises(ValueError,
                       match="^zero query vector under one-plus-cosine$"):
        fn.batch(zero, rows)
    nan = qs.copy()
    nan[2, 1] = np.nan
    for kind, delta in KINDS:
        with pytest.raises(ValueError, match="^query contains NaN or Inf$"):
            SimilarityFn(kind, delta=delta).batch(nan, rows)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fn.batch(qs[:, :3], rows)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fn.batch(qs[None], rows)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

def test_utilities_empty_selection():
    data = VectorSet([[1.0], [2.0]])
    attrs = AttributeTable.from_labels([0, 1], c=2)
    fn = SimilarityFn("dot-product")
    assert utilities([1.0], [], data, attrs, fn).tolist() == [0.0, 0.0]


def test_utilities_single_term():
    # one selected vector with attribute 3 and sigma = 1.5
    data = VectorSet([[1.5]])
    attrs = AttributeTable.from_labels([3], c=5)
    fn = SimilarityFn("dot-product")
    u = utilities([1.0], [0], data, attrs, fn)
    assert u.tolist() == [0.0, 0.0, 0.0, 1.5, 0.0]


def test_utilities_multi_attribute_vector():
    # sigma = 2, atb = {0, 2}: contributes to both attributes it carries
    data = VectorSet([[2.0]])
    attrs = AttributeTable.from_rows([[0, 2]], c=3)
    fn = SimilarityFn("dot-product")
    u = utilities([1.0], [0], data, attrs, fn)
    assert u.tolist() == [2.0, 0.0, 2.0]
    # cross-check against the reference weight-matrix summation
    w = _weight_matrix(np.array([1.0]), data, attrs, fn)
    assert np.allclose(u, w[[0]].sum(axis=0))


def test_utilities_random_cross_check():
    rng = np.random.default_rng(2)
    data = VectorSet(rng.normal(size=(12, 4)))
    atb = [sorted(rng.choice(4, size=rng.integers(1, 3), replace=False))
           for _ in range(12)]
    attrs = AttributeTable.from_rows(atb, c=4)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=4)
    ids = [0, 3, 7, 11]
    u = utilities(q, ids, data, attrs, fn)
    w = _weight_matrix(q, data, attrs, fn)
    assert np.allclose(u, w[ids].sum(axis=0), rtol=1e-12)


def test_utilities_invalid_id():
    data = VectorSet([[1.0]])
    attrs = AttributeTable.from_labels([0], c=1)
    fn = SimilarityFn("dot-product")
    with pytest.raises(ValueError):
        utilities([1.0], [5], data, attrs, fn)


# ---------------------------------------------------------------------------
# welfare
# ---------------------------------------------------------------------------

def test_welfare_nash_equal_utilities():
    assert welfare(np.array([1.0, 1.0]),
                   WelfareParams(p=0.0, eta=1.0)) == pytest.approx(2.0)


def test_welfare_arithmetic_mean():
    # u + eta = (2, 4) at p = 1
    assert welfare(np.array([1.0, 3.0]),
                   WelfareParams(p=1.0, eta=1.0)) == pytest.approx(3.0)


def test_welfare_harmonic_mean():
    # u + eta = (2, 4) at p = -1 -> 8/3
    assert welfare(np.array([1.0, 3.0]),
                   WelfareParams(p=-1.0, eta=1.0)) == pytest.approx(8.0 / 3.0)


def test_welfare_large_p_matches_scipy_logsumexp():
    from scipy.special import logsumexp
    u = np.array([0.0, 1e-300, 3e-9, 0.5, 7.0, 4e5, 2e12, 9e150])
    for eta in (1e-3, 1.0):
        w = np.log(u + eta)
        for p in (-1000.0, -1e6, 0.5):
            got = welfare(u, WelfareParams(p=p, eta=eta))
            ref = np.exp((logsumexp(p * w) - np.log(u.size)) / p)
            assert math.isfinite(got)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_welfare_infinite_utilities_match_scipy_logsumexp():
    from scipy.special import logsumexp
    for u in (np.array([0.0, 2.0, np.inf]), np.array([np.inf, np.inf])):
        w = np.log(u + 1.0)
        for p in (0.5, -2.0):
            got = welfare(u, WelfareParams(p=p, eta=1.0))
            ref = np.exp((logsumexp(p * w) - np.log(u.size)) / p)
            assert not math.isnan(got)
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_welfare_errors():
    with pytest.raises(ValueError):
        WelfareParams(p=0.0, eta=0.0)
    with pytest.raises(ValueError):
        WelfareParams(p=1.5, eta=1.0)
    for p, eta in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            WelfareParams(p=p, eta=eta)
    with pytest.raises(ValueError):
        welfare(np.array([-0.1, 1.0]), WelfareParams())
    with pytest.raises(ValueError):
        log_nsw(np.array([-0.1]), 1.0)


def test_delta_and_log_nsw_eta_must_be_finite_and_positive():
    # NaN fails every check too
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SimilarityFn("reciprocal-euclidean", delta=bad)
        with pytest.raises(ValueError):
            log_nsw(np.array([0.5, 1.0]), bad)
    assert SimilarityFn("reciprocal-euclidean", delta=1e300).delta == 1e300
    assert log_nsw(np.array([0.0]), 1.0) == 0.0


def test_generalized_mean_ordering():
    rng = np.random.default_rng(3)
    for _ in range(300):
        u = rng.random(rng.integers(1, 8)) * 10
        eta = float(rng.uniform(0.01, 5.0))
        p1, p2 = sorted(rng.uniform(-10, 1, size=2))
        w1 = welfare(u, WelfareParams(p=float(p1), eta=eta))
        w2 = welfare(u, WelfareParams(p=float(p2), eta=eta))
        assert w1 <= w2 * (1 + 1e-12)
        # min <= GM <= AM
        gm = welfare(u, WelfareParams(p=0.0, eta=eta))
        am = welfare(u, WelfareParams(p=1.0, eta=eta))
        assert (u + eta).min() <= gm * (1 + 1e-12)
        assert gm <= am * (1 + 1e-12)


def test_welfare_strict_monotonicity():
    rng = np.random.default_rng(4)
    for p in (-10.0, -1.0, 0.0, 0.5, 1.0):
        u = rng.random(5)
        base = welfare(u, WelfareParams(p=p, eta=0.5))
        for i in range(5):
            bumped = u.copy()
            bumped[i] += 0.25
            assert welfare(bumped, WelfareParams(p=p, eta=0.5)) > base


def test_scaling_preserves_nash_argmax():
    # NSW(lam*u + lam*eta) = lam * NSW(u + eta): argmax over any fixed
    # family of candidate utility vectors is invariant
    rng = np.random.default_rng(5)
    for _ in range(50):
        fam = rng.random((6, 4)) * 5
        eta = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.1, 10.0))
        vals = [welfare(u, WelfareParams(p=0.0, eta=eta)) for u in fam]
        scaled = [welfare(lam * u, WelfareParams(p=0.0, eta=lam * eta))
                  for u in fam]
        assert int(np.argmax(vals)) == int(np.argmax(scaled))


def test_p_to_zero_continuity():
    rng = np.random.default_rng(6)
    for _ in range(200):
        u = rng.random(rng.integers(1, 10)) * 20
        eta = float(rng.uniform(0.01, 5.0))
        w0 = welfare(u, WelfareParams(p=0.0, eta=eta))
        for p in (1e-6, -1e-6):
            wp = welfare(u, WelfareParams(p=p, eta=eta))
            assert abs(wp - w0) <= 1e-4 * w0


def test_log_nsw_matches_welfare():
    rng = np.random.default_rng(7)
    u = rng.random(6) * 3
    assert math.exp(log_nsw(u, 0.7)) == pytest.approx(
        welfare(u, WelfareParams(p=0.0, eta=0.7)), rel=1e-12)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def test_selection_distinct_ids():
    with pytest.raises(ValueError):
        Selection(ids=(1, 1))
