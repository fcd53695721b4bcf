import os
import re
import struct
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from divknn import data as data_io
from divknn import oracle
from divknn.baselines import fetch_union
from divknn.cli import main
from divknn.core import AttributeTable, SimilarityFn, VectorSet, WelfareParams
from divknn.data import (PRESETS, cluster_attrs, prob_attrs, read_attrs,
                         read_bvecs, read_fvecs, write_attrs, write_bvecs,
                         write_fvecs)
from divknn.solvers import nash_ann


# ---------------------------------------------------------------------------
# binary containers
# ---------------------------------------------------------------------------

def test_fvecs_hand_built_record(tmp_path):
    path = tmp_path / "one.fvecs"
    path.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0))
    vs = read_fvecs(str(path))
    assert vs.n == 1 and vs.d == 2
    assert vs.data.tolist() == [[1.0, 2.0]]


def test_fvecs_empty_file(tmp_path):
    path = tmp_path / "empty.fvecs"
    path.write_bytes(b"")
    vs = read_fvecs(str(path))
    assert vs.n == 0
    fn = SimilarityFn("dot-product")
    with pytest.raises(ValueError):
        fn.batch(np.ones(2), vs.data)  # unusable until populated


def test_fvecs_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(70)
    original = rng.normal(size=(100, 16)).astype(np.float32)
    path = tmp_path / "rt.fvecs"
    write_fvecs(str(path), original)
    back = read_fvecs(str(path))
    assert back.n == 100 and back.d == 16
    assert np.array_equal(back.data.astype(np.float32), original)


def test_bvecs_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    original = rng.integers(0, 256, size=(40, 8)).astype(np.uint8)
    path = tmp_path / "rt.bvecs"
    write_bvecs(str(path), original)
    back = read_bvecs(str(path))
    assert np.array_equal(back.data.astype(np.uint8), original)


def test_read_vectors_dispatch(tmp_path):
    rng = np.random.default_rng(69)
    from divknn.data import read_vectors
    fpath = tmp_path / "x.fvecs"
    write_fvecs(str(fpath), rng.normal(size=(5, 3)).astype(np.float32))
    bpath = tmp_path / "x.bvecs"
    write_bvecs(str(bpath), rng.integers(0, 255, size=(5, 3)).astype(np.uint8))
    assert read_vectors(str(fpath)).n == 5
    assert read_vectors(str(bpath)).n == 5
    with pytest.raises(ValueError, match="unsupported"):
        read_vectors(str(tmp_path / "x.txt"))


def test_fvecs_truncated_file(tmp_path):
    path = tmp_path / "trunc.fvecs"
    path.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0)[:-2])
    with pytest.raises(ValueError, match="record size|truncated"):
        read_fvecs(str(path))
    path.write_bytes(b"\x02\x00")
    with pytest.raises(ValueError, match=r"truncated file \(no dimension"):
        read_fvecs(str(path))


def test_fvecs_inconsistent_dimension(tmp_path):
    path = tmp_path / "mixed.fvecs"
    path.write_bytes(struct.pack("<i2f", 2, 1.0, 2.0)
                     + struct.pack("<i2f", 3, 1.0, 2.0))
    with pytest.raises(ValueError, match="inconsistent|record size"):
        read_fvecs(str(path))


def test_fvecs_nonpositive_dimension(tmp_path):
    path = tmp_path / "bad.fvecs"
    path.write_bytes(struct.pack("<i", 0))
    with pytest.raises(ValueError, match="dimension"):
        read_fvecs(str(path))


def test_fvecs_rejects_nan(tmp_path):
    path = tmp_path / "nan.fvecs"
    path.write_bytes(struct.pack("<i2f", 2, float("nan"), 1.0))
    with pytest.raises(ValueError, match="NaN|Inf"):
        read_fvecs(str(path))


def reference_records(path: str, payload_dtype) -> np.ndarray:
    """Whole-file reader kept as the reference for the block-streamed one:
    the same checks in the same order, on one array of every record."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        return np.empty((0, 0), dtype=np.float64)
    if raw.size < 4:
        raise ValueError(f"{path}: truncated file (no dimension header)")
    d = int(raw[:4].view("<i4")[0])
    if d <= 0:
        raise ValueError(f"{path}: nonpositive dimension {d}")
    rec = 4 + d * np.dtype(payload_dtype).itemsize
    if raw.size % rec != 0:
        raise ValueError(f"{path}: file size {raw.size} is not a multiple of "
                         f"the record size {rec}")
    rows = raw.reshape(-1, rec)
    if not (rows[:, :4].copy().view("<i4").ravel() == d).all():
        raise ValueError(f"{path}: inconsistent dimensions across records")
    out = rows[:, 4:].view(payload_dtype).astype(np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: payload contains NaN or Inf")
    return out


CONTAINERS = {  # name -> (writer, reader returning an array, payload dtype)
    "fvecs": (write_fvecs, lambda p: read_fvecs(p).data, "<f4"),
    "bvecs": (write_bvecs, lambda p: read_bvecs(p).data, np.uint8),
}
BLOCK = 4    # small block, so record counts around it stay tiny


def outcome(read, *args):
    """What a reader returns, or the message of the ValueError it raises."""
    try:
        return read(*args)
    except ValueError as e:
        return str(e)


@pytest.fixture(scope="module")
def tmp_files(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@example(kind="fvecs", n=BLOCK + 1, d=2, seed=0, bad_dim=(BLOCK, 1),
         bad_value=(0, np.nan), cut=0, mapped=False)   # a later bad
@example(kind="fvecs", n=BLOCK + 1, d=2, seed=0, bad_dim=(BLOCK, 1),
         bad_value=(0, np.nan), cut=0, mapped=True)    # dimension wins
@example(kind="fvecs", n=BLOCK, d=3, seed=0, bad_dim=None,
         bad_value=(BLOCK - 1, np.inf), cut=0, mapped=True)
@example(kind="fvecs", n=BLOCK, d=1, seed=0, bad_dim=(BLOCK, -1),
         bad_value=None, cut=0, mapped=True)           # d = 0 in row 0
@example(kind="fvecs", n=BLOCK, d=2, seed=0, bad_dim=None,
         bad_value=None, cut=3, mapped=True)
@example(kind="bvecs", n=2 * BLOCK + 1, d=1, seed=0, bad_dim=(2 * BLOCK, 7),
         bad_value=None, cut=0, mapped=False)
@given(kind=st.sampled_from(sorted(CONTAINERS)),
       n=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
       d=st.integers(1, 4), seed=st.integers(0, 2**16),
       bad_dim=st.none() | st.tuples(st.integers(0, 2 * BLOCK),
                                     st.sampled_from([0, -1, 1, 7])),
       bad_value=st.none() | st.tuples(st.integers(0, 2 * BLOCK),
                                       st.sampled_from([np.nan, np.inf,
                                                        -np.inf])),
       cut=st.integers(0, 9), mapped=st.booleans())
def test_block_reader_matches_whole_file_reader(tmp_files, kind, n, d,
                                                seed, bad_dim, bad_value,
                                                cut, mapped):
    # ``mapped`` maps every fvecs file; bvecs files are always copied
    write, read, payload = CONTAINERS[kind]
    x = np.random.default_rng(seed).uniform(0, 255, size=(n, d))
    # a new file each time: a mapped file is never rewritten
    fd, name = tempfile.mkstemp(suffix=f".{kind}", dir=tmp_files)
    os.close(fd)
    path = tmp_files / os.path.basename(name)
    write(str(path), x.astype(payload))
    raw = bytearray(path.read_bytes())
    rec = len(raw) // n
    if bad_dim is not None:        # a record whose dimension is off
        row, delta = bad_dim
        raw[rec * (row % n):rec * (row % n) + 4] = struct.pack("<i", d + delta)
    if bad_value is not None and kind == "fvecs":
        row, value = bad_value
        at = rec * (row % n) + 4 + 4 * (row % d)
        raw[at:at + 4] = struct.pack("<f", value)
    if cut:                        # drop trailing bytes: truncated
        raw = raw[:-cut]
    path.write_bytes(bytes(raw))
    with mock.patch.object(data_io, "_BLOCK_RECORDS", BLOCK), \
            mock.patch.object(data_io, "_MAP_BYTES",
                              0 if mapped else data_io._MAP_BYTES):
        got = outcome(read, str(path))
    want = outcome(reference_records, str(path), payload)
    if isinstance(want, str):
        assert got == want
    else:
        # fvecs and bvecs payloads are stored in float32, which holds them
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.astype(np.float32).tobytes()


def test_fvecs_read_peak_memory_is_about_the_matrix(tmp_path):
    x = np.random.default_rng(81).standard_normal((20_000, 64),
                                                  dtype=np.float32)
    path = tmp_path / "m.fvecs"
    write_fvecs(str(path), x)
    tracemalloc.start()
    try:
        vs = read_fvecs(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 matrix plus one read buffer, then the float64 upcast of
    # one block of rows for the norms; no copy of the whole file
    assert vs.data.dtype == np.float32
    assert vs.data.nbytes == 20_000 * 64 * 4
    assert peak < 2 * vs.data.nbytes


# ---------------------------------------------------------------------------
# mapped fvecs files
# ---------------------------------------------------------------------------

def read_mapped(path) -> VectorSet:
    """``read_fvecs`` with every fvecs file above 0 bytes mapped."""
    with mock.patch.object(data_io, "_MAP_BYTES", 0):
        return read_fvecs(str(path))


def assert_same_set(mapped: VectorSet, copied: VectorSet) -> None:
    d = copied.d
    # mapped rows stay in their records, d + 1 floats apart, read-only
    assert mapped.data.strides == (4 * (d + 1), 4)
    assert copied.data.strides == (4 * d, 4)
    assert not mapped.data.flags.writeable
    assert mapped.data.dtype == copied.data.dtype == np.float32
    assert mapped.data.tobytes() == copied.data.tobytes()
    assert mapped.norms.tobytes() == copied.norms.tobytes()
    assert mapped.sqnorms.tobytes() == copied.sqnorms.tobytes()
    assert mapped.min_norm == copied.min_norm
    assert mapped.max_norm == copied.max_norm


def test_mapped_read_equals_copied_read(tmp_path):
    x = np.random.default_rng(84).standard_normal((3000, 7),
                                                  dtype=np.float32)
    path = tmp_path / "m.fvecs"
    write_fvecs(str(path), x)
    assert_same_set(read_mapped(path), read_fvecs(str(path)))


def test_file_just_above_the_size_constant_is_mapped(tmp_path):
    # one 4096-byte record more than the constant: the real constant maps
    # the file, and a constant of the file's size copies it
    d = 1023
    n = data_io._MAP_BYTES // (4 * (d + 1)) + 1
    rng = np.random.default_rng(85)
    path = tmp_path / "big.fvecs"
    with open(path, "wb") as f:
        for lo in range(0, n, 2048):
            rec = np.empty((min(2048, n - lo), d + 1), dtype=np.float32)
            rec[:, 0].view(np.int32)[:] = d
            rec[:, 1:] = rng.standard_normal((len(rec), d), dtype=np.float32)
            f.write(rec.tobytes())
    size = os.path.getsize(path)
    assert size == data_io._MAP_BYTES + 4 * (d + 1)
    mapped = read_fvecs(str(path))
    with mock.patch.object(data_io, "_MAP_BYTES", size):
        copied = read_fvecs(str(path))
    assert_same_set(mapped, copied)


@pytest.mark.parametrize("raw, message", [
    (struct.pack("<i2f", 2, 1.0, 2.0) + struct.pack("<i2f", 3, 1.0, 2.0),
     "inconsistent dimensions across records"),
    (struct.pack("<i2f", 2, 1.0, 2.0)[:-2],
     "file size 10 is not a multiple of the record size 12"),
    (struct.pack("<i2f", 2, float("nan"), 1.0), "payload contains NaN or Inf"),
    (struct.pack("<i2f", 0, 1.0, 2.0), "nonpositive dimension 0"),
    (struct.pack("<i2f", -3, 1.0, 2.0), "nonpositive dimension -3"),
])
def test_mapped_read_errors_are_the_copied_read_errors(tmp_path, raw,
                                                       message):
    path = tmp_path / "bad.fvecs"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as copied:
        read_fvecs(str(path))
    with pytest.raises(ValueError) as mapped:
        read_mapped(path)
    assert str(mapped.value) == str(copied.value) == f"{path}: {message}"


def test_a_file_that_shrinks_before_it_is_mapped(tmp_path, capsys):
    # the size check sees one record more than the file holds by the time
    # it is mapped; mmap's own error becomes the reader's
    rng = np.random.default_rng(86)
    base, queries = tmp_path / "base.fvecs", tmp_path / "q.fvecs"
    write_fvecs(str(base), rng.standard_normal((50, 4), dtype=np.float32))
    write_fvecs(str(queries), rng.standard_normal((2, 4), dtype=np.float32))
    write_attrs(str(tmp_path / "a.txt"), prob_attrs(50, seed=1))
    fstat = os.fstat

    def grown(fd):
        st = fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 20, *st[7:]))

    with mock.patch.object(data_io.os, "fstat", grown):
        with pytest.raises(ValueError, match="^" + re.escape(str(base)) +
                           ": file changed while being read$"):
            read_mapped(base)
        with mock.patch.object(data_io, "_MAP_BYTES", 0):
            code = main(["run", "--base", str(base), "--queries",
                         str(queries), "--attrs", str(tmp_path / "a.txt"),
                         "--algo", "nash", "--k", "3",
                         "--out", str(tmp_path / "o.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {base}: file changed while being read")


@pytest.fixture(scope="module")
def mapped_and_copied(tmp_path_factory):
    """A 70000 x 8 float32 base above one streamed block of 65536 rows,
    read mapped and copied, with a skewed table whose head attribute
    holds about 30% of the rows."""
    rng = np.random.default_rng(87)
    path = tmp_path_factory.mktemp("mapped") / "base.fvecs"
    write_fvecs(str(path), rng.standard_normal((70_000, 8), dtype=np.float32))
    return (read_mapped(path), read_fvecs(str(path)),
            prob_attrs(70_000, seed=3),
            rng.standard_normal((8, 8)).astype(np.float64))


def same_list(a, b) -> bool:
    return a.ids.tobytes() == b.ids.tobytes() and \
        a.sims.tobytes() == b.sims.tobytes()


@pytest.mark.parametrize("kind", ["one-plus-cosine", "reciprocal-euclidean",
                                  "dot-product"])
def test_mapped_and_copied_bases_give_identical_outputs(mapped_and_copied,
                                                        kind):
    mapped, copied, attrs, qs = mapped_and_copied
    fn = SimilarityFn(kind, delta=0.01 if kind == "reciprocal-euclidean"
                      else 0.0)
    ids = attrs.inverted[0]
    assert len(ids) > 4096   # exact_topk ranks it through block_pools
    sub = np.sort(np.random.default_rng(88).choice(70_000, size=500,
                                                   replace=False))
    assert fn.batch_ids(qs[0], mapped, sub).tobytes() == \
        fn.batch_ids(qs[0], copied, sub).tobytes()
    assert same_list(oracle.exact_topk(qs[1], 0, 10, mapped, attrs, fn),
                     oracle.exact_topk(qs[1], 0, 10, copied, attrs, fn))
    for limit, rows in [(100, None), (100, ids), (None, sub)]:
        for a, b in zip(oracle.block_pools(qs, mapped, fn, limit, rows),
                        oracle.block_pools(qs, copied, fn, limit, rows)):
            assert same_list(a, b)
    params = WelfareParams(p=0.0, eta=0.01)
    for q in qs[:3]:
        got = [(fetch_union(q, 10, 2000, params, base, attrs, fn),
                nash_ann(q, 10, params, base, attrs, fn))
               for base in (mapped, copied)]
        for a, b in zip(*got):
            assert a.ids == b.ids and a.objective == b.objective
            assert a.utilities.tobytes() == b.utilities.tobytes()


def test_a_gather_from_a_mapped_base_copies_only_its_rows(tmp_path):
    # numpy's take over the row-strided matrix would first copy the whole
    # 6.4 MB base; each gather must take the records alone
    path = tmp_path / "m.fvecs"
    write_fvecs(str(path), np.random.default_rng(89).standard_normal(
        (100_000, 16), dtype=np.float32))
    vs = read_mapped(path)
    fn = SimilarityFn("one-plus-cosine")
    q = fn.query(np.ones((1, 16)))
    ids = np.arange(5, 100_000, 10_000)
    assert len(ids) == 10
    for gather in (lambda: vs.take(ids),
                   lambda: fn.batch_ids(q, vs, ids),
                   lambda: oracle._f32_scores(q, vs, ids)):
        tracemalloc.start()
        try:
            gather()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# synthetic attributes
# ---------------------------------------------------------------------------

def test_cluster_attrs_recovers_separated_blobs():
    rng = np.random.default_rng(72)
    blob_a = rng.normal(size=(60, 4)) + 50.0
    blob_b = rng.normal(size=(60, 4)) - 50.0
    data = VectorSet(np.vstack([blob_a, blob_b]))
    attrs = cluster_attrs(data, c=2, seed=5)
    labels = attrs.labels
    # exact partition match up to label swap (equivalent to ARI = 1)
    first, second = set(labels[:60].tolist()), set(labels[60:].tolist())
    assert len(first) == 1 and len(second) == 1 and first != second


def test_cluster_attrs_c_equals_n():
    rng = np.random.default_rng(73)
    data = VectorSet(rng.normal(size=(8, 3)) * 10)
    attrs = cluster_attrs(data, c=8, seed=1)
    assert sorted(attrs.labels.tolist()) == list(range(8))


def test_cluster_attrs_chunked_one_per_class():
    rng = np.random.default_rng(74)
    data = VectorSet(rng.normal(size=(30, 8)))
    attrs = cluster_attrs(data, c=3, seed=2, chunks=4)
    assert attrs.c == 12
    assert [g.tolist() for g in attrs.classes] == \
        [list(range(3 * i, 3 * i + 3)) for i in range(4)]
    # one attribute per class: rows are ascending and the classes are
    # consecutive blocks, so each row's class ids read 0, 1, 2, 3
    assert (np.diff(attrs.indptr) == 4).all()
    class_of = np.repeat(np.arange(4), 3)
    assert (class_of[attrs.indices].reshape(-1, 4) == np.arange(4)).all()


def test_cluster_attrs_deterministic():
    rng = np.random.default_rng(75)
    data = VectorSet(rng.normal(size=(50, 4)))
    a = cluster_attrs(data, c=5, seed=9)
    b = cluster_attrs(data, c=5, seed=9)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def test_attribute_builders_agree_on_cluster_rows():
    # cluster_attrs, from_rows and from_labels give the same CSR arrays
    data = VectorSet(np.random.default_rng(80).normal(size=(40, 6)))
    multi = cluster_attrs(data, c=4, seed=3, chunks=3)
    rows = [multi.indices[a:b].tolist()
            for a, b in zip(multi.indptr[:-1], multi.indptr[1:])]
    again = AttributeTable.from_rows(rows, c=12, classes=multi.classes)
    assert np.array_equal(again.indptr, multi.indptr)
    assert np.array_equal(again.indices, multi.indices)
    single = cluster_attrs(data, c=4, seed=3)
    rows = [[a] for a in single.labels.tolist()]
    for t in (AttributeTable.from_rows(rows, c=4),
              AttributeTable.from_labels(single.labels, c=4)):
        assert np.array_equal(t.indptr, single.indptr)
        assert np.array_equal(t.indices, single.indices)


def test_cluster_attrs_validation():
    data = VectorSet(np.random.default_rng(0).normal(size=(5, 4)))
    with pytest.raises(ValueError):
        cluster_attrs(data, c=6, seed=0)     # more clusters than vectors
    with pytest.raises(ValueError):
        cluster_attrs(data, c=1, seed=0)
    with pytest.raises(ValueError):
        cluster_attrs(data, c=2, seed=0, chunks=3)  # 4 % 3 != 0


def test_prob_attrs_head_mass():
    attrs = prob_attrs(100_000, seed=6)
    labels = attrs.labels
    head = np.count_nonzero(labels < 3) / len(labels)
    assert abs(head - 0.9) <= 0.01
    assert labels.min() >= 0 and labels.max() < 20 and attrs.c == 20


def test_prob_attrs_deterministic():
    a = prob_attrs(500, seed=4)
    b = prob_attrs(500, seed=4)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(prob_attrs(500, seed=5).labels, a.labels)


def test_prob_attrs_copies_its_labels_only_into_the_table():
    # the labels reach the table narrow, so its intp conversion is their
    # only copy: the peak is the table plus 4 bytes per row (the intp
    # labels and their copy peaked at the table plus 9.3 MiB)
    n = 1_000_000
    tracemalloc.start()
    try:
        attrs = prob_attrs(n, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = attrs.indices.nbytes + attrs.indptr.nbytes + sum(
        lst.nbytes for lst in attrs.inverted)
    assert peak < table + 4 * n
    # the same int64 draws as ever, so the same labels
    rng = np.random.default_rng(7)
    head = rng.random(n) < 0.9
    want = np.where(head, rng.integers(0, 3, size=n),
                    rng.integers(3, 20, size=n))
    assert attrs.indices.tobytes() == want.astype(np.intp).tobytes()


@pytest.mark.parametrize("chunks", [None, 3])
def test_cluster_attrs_hands_the_table_narrow_labels(monkeypatch, chunks):
    # a label array of intp would be copied by the table; a narrow one is
    # converted, which is its only copy
    seen = []
    real = AttributeTable.__init__

    def init(self, lengths, indices, *args, **kwargs):
        seen.append(np.asarray(indices).dtype)
        real(self, lengths, indices, *args, **kwargs)

    rng = np.random.default_rng(12)
    vs = VectorSet(rng.standard_normal((300, 6)))
    monkeypatch.setattr(AttributeTable, "__init__", init)
    attrs = cluster_attrs(vs, c=4, seed=3, chunks=chunks)
    assert seen == [np.uint8] and attrs.indices.dtype == np.intp


def test_prob_attrs_single_vector():
    attrs = prob_attrs(1, seed=0)
    assert attrs.n == 1 and 0 <= attrs.labels[0] < 20


# ---------------------------------------------------------------------------
# attribute file format
# ---------------------------------------------------------------------------

def test_attrs_file_three_lines(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("#c=4\n0,1\n1,0\n2,3\n")
    assert data_io._parse_attrs_fast(str(path)) is not None
    t = read_attrs(str(path))
    assert t.n == 3 and t.c == 4
    assert t.indptr.tolist() == [0, 1, 2, 3]
    assert t.indices.tolist() == [1, 0, 3]


def test_attrs_file_rows_out_of_id_order(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("#c=3\n2,0\n0,1\n1,2\n")
    t = read_attrs(str(path))
    assert t.indptr.tolist() == [0, 1, 2, 3]
    assert t.indices.tolist() == [1, 2, 0]
    multi = tmp_path / "m.txt"
    multi.write_text("#c=4;classes=2+2\n1,3,1\n0,0,2\n2,1,2\n")
    t = read_attrs(str(multi))
    assert t.indptr.tolist() == [0, 2, 4, 6]
    assert t.indices.tolist() == [0, 2, 1, 3, 1, 2]
    assert [g.tolist() for g in t.classes] == [[0, 1], [2, 3]]
    # table errors name the vector id, not the row's position in the file
    bad = tmp_path / "bad.txt"
    bad.write_text("#c=3\n2,1,1\n0,1\n1,2\n")
    with pytest.raises(ValueError, match=r"bad\.txt: vector 2 has duplicate"):
        read_attrs(str(bad))


def test_attrs_file_missing_id_named(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("#c=4\n0,1\n2,3\n")
    with pytest.raises(ValueError, match="vector id 1"):
        read_attrs(str(path))


def test_attrs_file_multi_attribute_classes(tmp_path):
    path = tmp_path / "a.txt"
    lines = ["#c=10;classes=5+5"]
    for i in range(6):
        lines.append(f"{i},{i % 5},{5 + (i % 5)}")
    lines[1 + 5] = "5,0,7"
    path.write_text("\n".join(lines) + "\n")
    t = read_attrs(str(path))
    assert t.indices[t.indptr[5]:t.indptr[6]].tolist() == [0, 7]
    assert t.classes is not None and len(t.classes) == 2
    assert 0 in t.classes[0] and 7 in t.classes[1]


def test_attrs_file_duplicate_and_range_errors(tmp_path):
    dup = tmp_path / "dup.txt"
    dup.write_text("#c=2\n0,1\n0,0\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_attrs(str(dup))
    rng_ = tmp_path / "rng.txt"
    rng_.write_text("#c=2\n0,2\n")
    with pytest.raises(ValueError, match="outside"):
        read_attrs(str(rng_))
    neg = tmp_path / "neg.txt"
    neg.write_text("#c=3\n0,1\n-1,2\n")
    with pytest.raises(ValueError, match=r"neg\.txt:3: negative vector id"):
        read_attrs(str(neg))
    hdrless = tmp_path / "hdr.txt"
    hdrless.write_text("0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_attrs(str(hdrless))
    for name, text, msg in [
            ("vid.txt", "#c=2\nx,0\n", r"vid\.txt:2: ids must be integers"),
            ("comma.txt", "#c=2\n0,1\n1,1,\n",
             r"comma\.txt:3: ids must be integers"),
            ("attr.txt", "#c=2\n0,1\n1,1,1\n",
             r"attr\.txt: vector 1 has duplicate attributes"),
            ("cls.txt", "#c=4;classes=2+1\n0,1\n",
             r"cls\.txt: classes must partition"),
            ("empty.txt", "#c=2;classes=0+2\n0,1\n1,0\n",
             r"empty\.txt: classes must partition \[0, c\) into nonempty"),
            ("twice.txt", "#c=2\n0,1\n1,0\n1,1\n",
             r"twice\.txt: duplicate vector id 1"),
            ("gap.txt", "#c=2\n3,1\n0,0\n1,1\n",
             r"gap\.txt: missing attribute row for vector id 2"),
            ("huge.txt", "#c=2\n0,99999999999999999999\n",
             r"huge\.txt: .*too large")]:
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(ValueError, match=msg):
            read_attrs(str(bad))


def test_attrs_round_trip(tmp_path):
    rng = np.random.default_rng(78)
    atb = [rng.choice(6, size=rng.integers(1, 3), replace=False)
           for _ in range(20)]
    t = AttributeTable.from_rows(atb, c=6)
    path = tmp_path / "rt.txt"
    write_attrs(str(path), t)
    lines = path.read_text().splitlines()
    assert lines[0] == "#c=6"
    assert lines[1:] == [",".join(map(str, [v, *sorted(row)]))
                         for v, row in enumerate(atb)]
    back = read_attrs(str(path))
    assert np.array_equal(back.indptr, t.indptr) and back.c == t.c
    assert np.array_equal(back.indices, t.indices)


def test_attrs_round_trip_with_classes(tmp_path):
    data = VectorSet(np.random.default_rng(79).normal(size=(20, 4)))
    t = cluster_attrs(data, c=3, seed=0, chunks=2)
    path = tmp_path / "cls.txt"
    write_attrs(str(path), t)
    assert data_io._parse_attrs_fast(str(path)) is not None
    back = read_attrs(str(path))
    assert np.array_equal(back.indptr, t.indptr)
    assert np.array_equal(back.indices, t.indices)
    assert [g.tolist() for g in back.classes] == [g.tolist() for g in t.classes]


def table_or_error(read, path):
    """A table as comparable lists, the message of the ValueError reading
    raised, or None when the vectorised parse declined the file."""
    try:
        t = read(str(path))
    except ValueError as e:
        return str(e)
    if t is None:
        return None
    classes = None if t.classes is None else [g.tolist() for g in t.classes]
    return (t.c, t.indptr.tolist(), t.indices.tolist(),
            [g.tolist() for g in t.inverted], classes)


def via(parse):
    """Reader that builds the table from one parser's output."""
    def read(path):
        parsed = parse(path)
        return None if parsed is None else data_io._build_table(path, *parsed)
    return read


INSERTED = {"blank": "", "comment": "# note", "header-again": "#c=99"}
TOKEN_EDITS = {"space": " {}", "plus": "+{}", "zeros": "00{}",
               "negative": "-{}", "letter": "x", "huge": "9" * 20}
ROW_EDITS = ("trailing-comma", "double-comma", "drop-field", "extra-field",
             "out-of-range", "repeat-vid")


@st.composite
def attr_files(draw):
    """A valid attribute file, then up to three edits that make it
    malformed or move it off the vectorised parse's file shape."""
    n, c = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    m = draw(st.integers(1, min(c, 3)))
    header = f"#c={c}"
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(0, c), min_size=1, max_size=3))
        header += ";classes=" + "+".join(map(str, sizes))
    rows = [[str(v)] + [str(a) for a in draw(st.permutations(range(c)))[:m]]
            for v in draw(st.permutations(range(n)))]
    inserts = []
    edits = st.sampled_from([*INSERTED, *TOKEN_EDITS, *ROW_EDITS, "no-header"])
    for edit in draw(st.lists(edits, max_size=3)):
        r = draw(st.integers(0, n - 1))
        row = rows[r]
        j = draw(st.integers(0, len(row) - 1))
        if edit in INSERTED:
            inserts.append((r, INSERTED[edit]))
        elif edit in TOKEN_EDITS:
            row[j] = TOKEN_EDITS[edit].format(row[j])
        elif edit == "trailing-comma":
            row.append("")
        elif edit == "double-comma":
            row.insert(j + 1, "")
        elif edit == "drop-field":
            row.pop()
        elif edit == "extra-field":
            row.append(str(j))
        elif edit == "out-of-range":
            row[j] = str(c + j)
        elif edit == "repeat-vid":
            row[0] = rows[(r + 1) % n][0]
        else:
            header = None
    lines = [",".join(row) for row in rows]
    for r, text in sorted(inserts, reverse=True):
        lines.insert(r, text)
    if header is not None:
        lines.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@example(text="#c=3\n0,1\n\n1,2\n")                    # blank line
@example(text="#c=3\n0,1\n# note\n1,2\n")              # comment mid-file
@example(text="#c=3\r\n0,1\r\n1,2\r\n")                # CRLF
@example(text="#c=3\n0, 1\n1,2\n")                     # a space
@example(text="#c=3\n0,+1\n1,2\n")                     # a sign
@example(text="#c=3\n00,01\n1,002\n")                  # leading zeros
@example(text="#c=3\n0,1,\n1,2,\n")                    # trailing commas
@example(text="#c=3\n0,,1\n1,2,0\n")                   # an empty field
@example(text="#c=3\n0,1\n1,2,0\n")                    # unequal fields
@example(text="#c=3\n0,99999999999999999999\n")        # beyond 64 bits
@example(text="#c=3\n99999999999999999999,1\n")
@example(text="#c=3\n0,9223372036854775807\n")         # int64 max
@example(text="#c=3\n0,1\n-1,2\n")                     # negative id
@example(text="0,1\n1,2\n")                            # no header
@example(text="#c=4;classes=2+2\n1,1,3\n0,0,2\n")      # classes clause
@example(text="#c=4;classes=2+1\n0,0\n")
@example(text="#c=3\n0\n1\n")                          # one field
@example(text="#c=3\n")                                # no rows
@example(text="#c=3\n\n\n")
@example(text="")
@example(text="#c=3\n0,1\n0,2\n")                      # repeated id
@example(text="#c=3\n0,1")                             # no final newline
@given(text=attr_files())
def test_attrs_fast_path_matches_line_parser(tmp_files, text):
    path = tmp_files / "a.txt"
    path.write_bytes(text.encode("ascii"))
    lines = table_or_error(via(data_io._parse_attrs_lines), path)
    fast = table_or_error(via(data_io._parse_attrs_fast), path)
    assert fast is None or fast == lines
    assert table_or_error(read_attrs, path) == lines


@pytest.mark.parametrize("at", ["first-chunk", "chunk-end", "last-chunk"])
def test_attrs_file_with_any_byte_in_a_row(tmp_path, monkeypatch, at):
    # the fast parse checks its bytes by chunks of _CHECK_BYTES (8 here):
    # a file holding any one of the 256 byte values in a row takes the
    # fast parse exactly when the byte is a digit, a comma or a newline,
    # and reads as the line parser reads it, as a table or an error
    monkeypatch.setattr(data_io, "_CHECK_BYTES", 8)
    body = "".join(f"{i},{i % 3}\n" for i in range(12)).encode("ascii")
    pos = {"first-chunk": 2, "chunk-end": 15, "last-chunk": len(body) - 2}
    path = tmp_path / "a.txt"
    for b in range(256):
        path.write_bytes(b"#c=3\n" + body[:pos[at]] + bytes([b])
                         + body[pos[at]:])
        lines = table_or_error(via(data_io._parse_attrs_lines), path)
        fast = table_or_error(via(data_io._parse_attrs_fast), path)
        row_byte = bytes([b]) in b"0123456789,\n"
        # the byte check admits the body exactly then
        assert data_io._holds_rows(np.frombuffer(
            path.read_bytes()[len(b"#c=3\n"):], dtype=np.uint8)) == row_byte, b
        if not row_byte:
            assert fast is None, b
        assert fast is None or fast == lines, b
        assert table_or_error(read_attrs, path) == lines, b


@pytest.mark.parametrize("text, fast", [
    ("#c=3\n0,2\n2147483647,1\n", True),            # int32 max: parsed
    ("#c=3\n0,2\n2147483648,1\n", False),           # beyond int32
    ("#c=3\n0,4294967298\n", False),                # 2 modulo 2**32
])
def test_attrs_beyond_int32_take_the_line_parser(tmp_path, text, fast):
    path = tmp_path / "a.txt"
    path.write_text(text)
    lines = table_or_error(via(data_io._parse_attrs_lines), path)
    assert isinstance(lines, str)   # a gap or an attribute beyond c
    parsed = table_or_error(via(data_io._parse_attrs_fast), path)
    assert parsed == (lines if fast else None)
    assert table_or_error(read_attrs, path) == lines


def test_attrs_loadtxt_overflow_error_takes_the_line_parser(tmp_path,
                                                            monkeypatch):
    # some numpy versions raise OverflowError, not ValueError, for a
    # value beyond the parse's dtype
    path = tmp_path / "a.txt"
    path.write_text("#c=3\n1,2\n0,1\n")

    def overflow(*args, **kwargs):
        raise OverflowError("Python int too large to convert to C int")

    monkeypatch.setattr(np, "loadtxt", overflow)
    assert data_io._parse_attrs_fast(str(path)) is None
    assert read_attrs(str(path)).labels.tolist() == [1, 2]


@pytest.mark.parametrize("shuffled", [False, True])
def test_attrs_fast_path_matches_line_parser_at_width_four(tmp_path,
                                                           shuffled):
    # one-per-class rows of four ids with a classes clause, in vector-id
    # order and shuffled: the int32 parse and the line parser agree
    rng = np.random.default_rng(96)
    data = VectorSet(rng.normal(size=(300, 8)))
    t = cluster_attrs(data, c=5, seed=4, chunks=4)
    path = tmp_path / "w4.txt"
    write_attrs(str(path), t)
    if shuffled:
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], *rng.permuted(lines[1:])])
                        + "\n")
    fast = data_io._parse_attrs_fast(str(path))
    assert fast is not None and fast[1].dtype == np.int32
    lines = table_or_error(via(data_io._parse_attrs_lines), path)
    assert table_or_error(via(data_io._parse_attrs_fast), path) == lines
    back = read_attrs(str(path))
    assert table_or_error(read_attrs, path) == lines
    assert back.width == 4 and back.indices.tolist() == t.indices.tolist()
    assert [g.tolist() for g in back.classes] == [g.tolist()
                                                  for g in t.classes]


def test_attrs_read_peak_memory_is_about_the_table(tmp_path):
    path = tmp_path / "big.txt"
    write_attrs(str(path), prob_attrs(200_000, seed=97))
    tracemalloc.start()
    try:
        t = read_attrs(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = t.indptr.nbytes + t.indices.nbytes + sum(
        g.nbytes for g in t.inverted)
    assert table == 3 * 8 * 200_000 + 8
    # the table plus one int32 column of parsed ids (a sixth of it) and
    # the sort keys; parsing as int64 and holding the row matrix, a
    # length array and a copy of the ids while the table is built took
    # 2.7 times the table
    assert peak < 1.4 * table


# ---------------------------------------------------------------------------
# presets and bundles
# ---------------------------------------------------------------------------

def test_presets_shapes():
    assert PRESETS["amazon"].similarity == "one-plus-cosine"
    assert PRESETS["amazon"].eta == 50.0
    assert PRESETS["arxiv"].eta == 0.01
    arxiv = PRESETS["arxiv"]
    assert arxiv.similarity == "reciprocal-euclidean" and arxiv.delta == 0.01
