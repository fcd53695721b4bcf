import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from divknn import data as data_io
from divknn.core import AttributeTable, SimilarityFn, VectorSet
from divknn.data import (PRESETS, cluster_attrs, prob_attrs, read_attrs,
                         read_bvecs, read_fvecs, write_attrs, write_bvecs,
                         write_fvecs)


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
         bad_value=(0, np.nan), cut=0)       # a later bad dimension wins
@example(kind="fvecs", n=BLOCK, d=3, seed=0, bad_dim=None,
         bad_value=(BLOCK - 1, np.inf), cut=0)
@example(kind="bvecs", n=2 * BLOCK + 1, d=1, seed=0, bad_dim=(2 * BLOCK, 7),
         bad_value=None, cut=0)
@given(kind=st.sampled_from(sorted(CONTAINERS)),
       n=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
       d=st.integers(1, 4), seed=st.integers(0, 2**16),
       bad_dim=st.none() | st.tuples(st.integers(0, 2 * BLOCK),
                                     st.sampled_from([0, -1, 1, 7])),
       bad_value=st.none() | st.tuples(st.integers(0, 2 * BLOCK),
                                       st.sampled_from([np.nan, np.inf,
                                                        -np.inf])),
       cut=st.integers(0, 9))
def test_block_reader_matches_whole_file_reader(tmp_files, kind, n, d,
                                                seed, bad_dim, bad_value,
                                                cut):
    write, read, payload = CONTAINERS[kind]
    x = np.random.default_rng(seed).uniform(0, 255, size=(n, d))
    path = tmp_files / f"v.{kind}"
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
    with mock.patch.object(data_io, "_BLOCK_RECORDS", BLOCK):
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


# ---------------------------------------------------------------------------
# presets and bundles
# ---------------------------------------------------------------------------

def test_presets_shapes():
    assert PRESETS["amazon"].similarity == "one-plus-cosine"
    assert PRESETS["amazon"].eta == 50.0
    assert PRESETS["arxiv"].eta == 0.01
    arxiv = PRESETS["arxiv"]
    assert arxiv.similarity == "reciprocal-euclidean" and arxiv.delta == 0.01
