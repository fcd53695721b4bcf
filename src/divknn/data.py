"""Dataset ingestion and synthetic attribute generation.

Binary vector containers (bit-exact):

  fvecs  per record: little-endian int32 d, then d little-endian float32
  bvecs  per record: little-endian int32 d, then d unsigned bytes

Every record in a file must share the same d; the record count is inferred
from the file size, and truncated files are rejected. fvecs and bvecs
payloads are kept in float32, which holds their values exactly (see
``core.VectorSet``); fvecs payloads holding NaN or Inf are refused. On a
little-endian host an fvecs file above ``_MAP_BYTES`` (64 MiB) is mapped
read-only, not copied: its vectors stay where they are in the file, rows
d + 1 floats apart, and the mapped file, 4 header bytes per row included,
counts in the resident memory of the process as it is read. Such a file
must not change while a run reads it; one that shrinks kills the process
with SIGBUS. Every other file (smaller fvecs files, whose copied rows stay
aligned, and every bvecs file, whose bytes are converted) is read
in blocks of records straight into the output matrix, so peak memory is
about that matrix.

Attribute files are line-oriented text:

  #c=<int>[;classes=<s1>+<s2>+...]
  <vector_id>,<attr_id>[,<attr_id>...]

Lines starting with ``#`` are comments (the first must be the header above).
Vector ids must cover 0..N-1 exactly once, in any order. A file whose first
line is the header and whose rows hold only digits and commas, all with one
field count and no value beyond int32, is parsed in one vectorised pass;
every other file is read line by line, with the same table or the same error
as a result. The vectorised pass peaks at about the finished table plus one
int32 column of attribute ids.

Synthetic attributes come in two flavors: ``cluster_attrs`` labels vectors by
k-means cluster (optionally per dimension slice, producing a one-per-class
multi-attribute table), and ``prob_attrs`` draws a skewed categorical label
per vector (90% of the mass on three of twenty attributes).
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import AttributeTable, VectorSet


# ---------------------------------------------------------------------------
# binary vector containers
# ---------------------------------------------------------------------------

# Records read per block: the read buffer stays a few MB while the output
# matrix is filled block by block, so peak memory is about that matrix.
_BLOCK_RECORDS = 4096
# fvecs files above this size are mapped in place; smaller ones are
# copied. Mapping saves the copy, about 0.5 ms per MB of set-up, but its
# rows lose their alignment: on the 6.6 MB 50000 x 32 base, exact-oracle
# queries ran 4-8% slower mapped (10 pairs on each of two seeds), while on
# the 388 MB 1M x 96 base the query metrics held and set-up fell by 0.2 s.
# The constant lies between those two measured sizes, not at a measured
# crossover: the copy's cost at 64 MiB, about 35 ms, is the slowdown of
# 150-300 such queries.
_MAP_BYTES = 64 << 20


def _read_records(path: str, payload_dtype) -> tuple[np.ndarray, bool]:
    """Every record's payload as an (n, d) float32 array, and False; or,
    for an fvecs file above ``_MAP_BYTES`` on a little-endian host, the
    file's (n, d + 1) float32 record matrix, mapped read-only, and True."""
    payload_dtype = np.dtype(payload_dtype)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0:
            return np.empty((0, 0), dtype=np.float32), False
        if size < 4:
            raise ValueError(f"{path}: truncated file (no dimension header)")
        d = int(np.frombuffer(f.read(4), dtype="<i4")[0])
        if d <= 0:
            raise ValueError(f"{path}: nonpositive dimension {d}")
        rec = 4 + d * payload_dtype.itemsize
        if size % rec != 0:
            raise ValueError(f"{path}: file size {size} is not a multiple of "
                             f"the record size {rec}")
        n = size // rec
        if (payload_dtype.kind == "f" and size > _MAP_BYTES
                and sys.byteorder == "little"):
            try:
                records = np.asarray(np.memmap(f, dtype=np.float32, mode="r",
                                               shape=(n, d + 1)))
            except ValueError:   # mmap: the file shrank since fstat
                raise ValueError(f"{path}: file changed while being "
                                 "read") from None
            heads = records[:, 0].view("<i4")
            for lo in range(0, n, _BLOCK_RECORDS):
                _check_heads(path, heads[lo:lo + _BLOCK_RECORDS], d)
            return records, True
        out = np.empty((n, d), dtype=np.float32)
        buf = np.empty((min(n, _BLOCK_RECORDS), rec), dtype=np.uint8)
        f.seek(0)
        for lo in range(0, n, _BLOCK_RECORDS):
            rows = buf[:min(_BLOCK_RECORDS, n - lo)]
            if f.readinto(rows) != rows.nbytes:
                raise ValueError(f"{path}: file changed while being read")
            _check_heads(path, rows[:, :4].view("<i4"), d)
            out[lo:lo + len(rows)] = rows[:, 4:].view(payload_dtype)
    return out, False


def _check_heads(path: str, heads: np.ndarray, d: int) -> None:
    """Every record's header must give the file's dimension d."""
    if not (heads == d).all():
        raise ValueError(f"{path}: inconsistent dimensions across records")


def read_fvecs(path: str) -> VectorSet:
    """Load an fvecs file (int32 dim + float32 payload per record). A file
    above ``_MAP_BYTES`` on a little-endian host is mapped read-only and
    its vectors kept in place, rows d + 1 floats apart (see the module
    docstring): it must not change while the set is in use."""
    out, records = _read_records(path, "<f4")
    try:
        return VectorSet(out, records=records)
    except ValueError:  # the only check VectorSet can fail on this array
        raise ValueError(f"{path}: payload contains NaN or Inf") from None


def read_bvecs(path: str) -> VectorSet:
    """Load a bvecs file (int32 dim + uint8 payload per record)."""
    return VectorSet(_read_records(path, np.uint8)[0])


def _write_records(path: str, data: np.ndarray, payload_dtype) -> None:
    arr = np.ascontiguousarray(data, dtype=payload_dtype)
    n, d = arr.shape
    out = np.empty((n, 4 + arr.itemsize * d), dtype=np.uint8)
    out[:, :4] = np.full(n, d, dtype="<i4")[:, None].view(np.uint8)
    out[:, 4:] = arr.view(np.uint8)
    out.tofile(path)


def write_fvecs(path: str, data: np.ndarray) -> None:
    _write_records(path, data, "<f4")


def write_bvecs(path: str, data: np.ndarray) -> None:
    _write_records(path, data, np.uint8)


def read_vectors(path: str) -> VectorSet:
    """Dispatch on extension: .fvecs or .bvecs."""
    if path.endswith(".fvecs"):
        return read_fvecs(path)
    if path.endswith(".bvecs"):
        return read_bvecs(path)
    raise ValueError(f"{path}: unsupported vector container "
                     "(expected .fvecs or .bvecs)")


# ---------------------------------------------------------------------------
# synthetic attributes
# ---------------------------------------------------------------------------

def _kmeans_pp_init(x: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((c, x.shape[1]), dtype=np.float64)
    centers[0] = x[int(rng.integers(0, n))]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total <= 0:
            centers[j] = x[int(rng.integers(0, n))]
            continue
        centers[j] = x[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(x: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd iterations with k-means++ seeding; stops after 50 rounds or
    when the relative inertia improvement drops below 1e-4.
    Deterministic given the generator state; ties go to the lowest center."""
    centers = _kmeans_pp_init(x, c, rng)
    sq = np.einsum("ij,ij->i", x, x)
    prev_inertia = math.inf
    labels = np.zeros(len(x), dtype=np.intp)
    for _ in range(50):
        d2 = sq[:, None] - 2.0 * (x @ centers.T) + np.einsum("ij,ij->i", centers, centers)[None, :]
        np.maximum(d2, 0.0, out=d2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(len(x)), labels].sum())
        for j in range(c):
            mask = labels == j
            if mask.any():
                centers[j] = x[mask].mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its center
                far = int(np.argmax(d2[np.arange(len(x)), labels]))
                centers[j] = x[far]
        if prev_inertia < math.inf and prev_inertia > 0:
            if (prev_inertia - inertia) < 1e-4 * prev_inertia:
                break
        prev_inertia = inertia
    return labels


def cluster_attrs(data: VectorSet, c: int, seed: int,
                  chunks: Optional[int] = None) -> AttributeTable:
    """Cluster-derived attributes: each vector is labeled by its k-means
    cluster. With ``chunks=m`` the dimensions are split into m equal slices,
    each clustered independently into c clusters, yielding a one-per-class
    table with m classes and c*m attributes total. k-means runs on a
    float64 copy, so a float32-stored set gets the labels of a float64 set
    with the same values."""
    if c < 2:
        raise ValueError("c must be >= 2")
    if c > data.n:
        raise ValueError("more clusters than vectors")
    if chunks is None:
        # narrowed labels: the table's intp conversion is their only copy
        return AttributeTable.from_labels(_lloyd(
            np.asarray(data.data, dtype=np.float64), c,
            np.random.default_rng(seed)).astype(np.min_scalar_type(c - 1)), c)
    m = int(chunks)
    if m < 1 or data.d % m != 0:
        raise ValueError("d must be divisible by chunks")
    width = data.d // m
    # entry v * m + i is vector v's cluster in slice i, narrow as above
    flat = np.empty(data.n * m, dtype=np.min_scalar_type(c * m - 1))
    for i in range(m):
        sl = np.ascontiguousarray(data.data[:, i * width:(i + 1) * width],
                                  dtype=np.float64)
        flat[i::m] = i * c + _lloyd(sl, c, np.random.default_rng([seed, i]))
    return AttributeTable(np.broadcast_to(np.intp(m), data.n), flat, c=c * m,
                          classes=[range(i * c, (i + 1) * c) for i in range(m)])


PROB_ATTR_COUNT = 20
PROB_HEAD = 3          # attributes {0, 1, 2} share 90% of the mass
PROB_HEAD_MASS = 0.9


def prob_attrs(n: int, seed: int) -> AttributeTable:
    """Skewed random single-attribute table with c = 20: with probability
    0.9 a uniform draw from {0, 1, 2}, otherwise uniform over {3..19}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    # the draws stay int64, which fixes their stream, and are narrowed at
    # once, so the table's intp conversion is the labels' only copy
    labels = np.where(
        rng.random(n) < PROB_HEAD_MASS,
        rng.integers(0, PROB_HEAD, size=n).astype(np.uint8),
        rng.integers(PROB_HEAD, PROB_ATTR_COUNT, size=n).astype(np.uint8))
    return AttributeTable.from_labels(labels, PROB_ATTR_COUNT)


# ---------------------------------------------------------------------------
# attribute file format
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^#c=(\d+)(?:;classes=(\d+(?:\+\d+)*))?$")

# bytes of a file body checked at a time, so no check is file-sized
_CHECK_BYTES = 1 << 18


def write_attrs(path: str, attrs: AttributeTable) -> None:
    with open(path, "w", encoding="ascii") as f:
        header = f"#c={attrs.c}"
        if attrs.classes is not None:
            header += ";classes=" + "+".join(str(len(g)) for g in attrs.classes)
        f.write(header + "\n")
        ids = list(map(str, attrs.indices.tolist()))
        ptr = attrs.indptr.tolist()
        for i in range(attrs.n):
            f.write(f"{i},{','.join(ids[ptr[i]:ptr[i + 1]])}\n")


def _parse_header(line: str):
    """``(c, classes)`` of a header line, or None if it is not one."""
    m = _HEADER_RE.match(line)
    if m is None:
        return None
    classes = None
    if m.group(2):
        ends = np.cumsum([0, *map(int, m.group(2).split("+"))])
        classes = [range(a, b) for a, b in zip(ends, ends[1:])]
    return int(m.group(1)), classes


def _parse_attrs_fast(path: str):
    """Vectorised parse of the common file shape: the header on the first
    line, then rows of digits and commas with one field count and no
    value beyond int32. Returns what :func:`_parse_attrs_lines` returns,
    with the ids as one int32 column and the row matrix freed, or None
    for any other file, which the per-line parser then reads."""
    with open(path, "rb") as f:
        first = f.readline()
        body = np.fromfile(f, dtype=np.uint8)
    if not first.endswith(b"\n") or not _holds_rows(body):
        return None
    del body   # loadtxt reads the file again
    header = _parse_header(first[:-1].decode("latin-1"))
    if header is None:
        return None
    try:
        # one C parse of the admitted rows; a changed field count, an empty
        # field or a value beyond int32 raises ValueError (OverflowError on
        # some numpy versions). loadtxt reads the file again: given a path
        # it runs about twice as fast as on bytes.
        rows = np.loadtxt(path, dtype=np.int32, delimiter=",", skiprows=1,
                          comments=None, ndmin=2)
    except (OverflowError, ValueError):
        return None
    n, width = rows.shape[0], rows.shape[1] - 1
    if width < 1:
        return None
    # one width for every row: a broadcast, not an n-length array
    return (*_in_id_order(path, rows[:, 0], np.broadcast_to(np.intp(width), n),
                          rows[:, 1:].ravel()), *header)


def _holds_rows(body: np.ndarray) -> bool:
    """Whether the bytes after the header hold rows of the vectorised path
    alone: digits, commas and newlines, and not newlines alone (a body of
    line ends has no rows, and would make loadtxt warn)."""
    rows = False
    for lo in range(0, len(body), _CHECK_BYTES):
        part = body[lo:lo + _CHECK_BYTES]
        # digits, commas and newlines; uint8 arithmetic wraps, so part - 48
        # is below 10 for the digits alone. Built in place, so no more than
        # two chunk-sized temporaries live at once: they count in set-up's
        # peak memory
        ok = (part - 48) < 10
        ok |= part == 44
        ok |= part == 10
        if not ok.all():
            return False
        rows = rows or not (part == ord("\n")).all()
    return rows


def _parse_attrs_lines(path: str):
    """Per-line parse of any attribute file: ``(lengths, ids, c, classes)``
    with the rows in vector-id order. Syntax errors name the line."""
    vids: list[int] = []
    lengths: list[int] = []
    ids: list[int] = []
    header = None
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header is None:
                    header = _parse_header(line)
                continue
            if header is None:
                raise ValueError(f"{path}:{lineno}: missing #c=<int> header")
            parts = line.split(",")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected vector_id,attr_id[,...]")
            try:
                vid = int(parts[0])
                ids.extend(map(int, parts[1:]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: ids must be integers, "
                                 f"got {line!r}") from None
            if vid < 0:
                raise ValueError(f"{path}:{lineno}: negative vector id {vid}")
            vids.append(vid)
            lengths.append(len(parts) - 1)
    if header is None:
        raise ValueError(f"{path}: missing #c=<int> header")
    try:  # an id beyond 64 bits raises OverflowError here
        vids, lengths, ids = (np.asarray(a, dtype=np.intp)
                              for a in (vids, lengths, ids))
    except OverflowError as e:
        raise ValueError(f"{path}: {e}") from None
    return (*_in_id_order(path, vids, lengths, ids), *header)


def _in_id_order(path: str, vids: np.ndarray, lengths: np.ndarray,
                 ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, ids)`` of the parsed rows in vector-id order, given the
    vector id of each row; unless the vector ids cover 0..N-1 once each,
    an error that names ``path``."""
    n = len(vids)
    if not n:
        raise ValueError(f"{path}: no attribute rows")
    # N strictly ascending integers from 0 to N - 1 are 0..N-1
    if vids[0] == 0 and vids[-1] == n - 1 and (vids[1:] > vids[:-1]).all():
        return lengths, ids
    order = np.argsort(vids, kind="stable")
    # sorted ids must read 0..N-1; a mismatch is a repeat or a gap
    gap = vids[order] != np.arange(n)
    if gap.any():
        i = int(np.argmax(gap))
        if vids[order[i]] < i:
            raise ValueError(f"{path}: duplicate vector id {i - 1}")
        raise ValueError(f"{path}: missing attribute row for vector id {i}")
    # out of id order: a stable sort by vector id keeps rows whole
    return lengths[order], ids[np.argsort(np.repeat(vids, lengths),
                                          kind="stable")]


def _build_table(path: str, lengths, ids, c: int,
                 classes) -> AttributeTable:
    """The table of parsed rows in vector-id order; errors name ``path``.
    The fast parse's ids are int32: the table's intp conversion is their
    only copy."""
    try:
        return AttributeTable(lengths, ids, c, classes=classes)
    except (OverflowError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


def read_attrs(path: str) -> AttributeTable:
    """Parse an attribute file; ids must cover 0..N-1 with no duplicates,
    in any order. Syntax errors name ``path:line``, the others ``path``."""
    parsed = _parse_attrs_fast(path)
    if parsed is None:
        parsed = _parse_attrs_lines(path)
    return _build_table(path, *parsed)


# ---------------------------------------------------------------------------
# dataset presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    """Per-dataset defaults: similarity kind, smoothing and, for
    reciprocal-euclidean, the offset delta."""

    similarity: str
    eta: float
    delta: Optional[float] = None


PRESETS: dict[str, Preset] = {
    "amazon": Preset("one-plus-cosine", eta=50.0),
    "arxiv": Preset("reciprocal-euclidean", eta=0.01, delta=0.01),
    "sift-clus": Preset("reciprocal-euclidean", eta=0.01, delta=0.01),
    "sift-prob": Preset("reciprocal-euclidean", eta=0.01, delta=0.01),
    "deep-clus": Preset("one-plus-cosine", eta=50.0),
    "deep-prob": Preset("one-plus-cosine", eta=50.0),
}
