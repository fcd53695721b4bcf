"""Dataset ingestion and synthetic attribute generation.

Binary vector containers (bit-exact):

  fvecs  per record: little-endian int32 d, then d little-endian float32
  bvecs  per record: little-endian int32 d, then d unsigned bytes

Every record in a file must share the same d; the record count is inferred
from the file size, and truncated files are rejected. Files are read in
blocks of records straight into the output matrix, so peak memory is about
that matrix. fvecs and bvecs payloads are kept in float32, which holds
their values exactly (see ``core.VectorSet``); fvecs payloads holding NaN
or Inf are refused.

Attribute files are line-oriented text:

  #c=<int>[;classes=<s1>+<s2>+...]
  <vector_id>,<attr_id>[,<attr_id>...]

Lines starting with ``#`` are comments (the first must be the header above).
Vector ids must cover 0..N-1 exactly once, in any order. A file whose first
line is the header and whose rows hold only digits and commas, all with one
field count, is parsed in one vectorised pass; every other file is read line
by line, with the same table or the same error as a result.

Synthetic attributes come in two flavors: ``cluster_attrs`` labels vectors by
k-means cluster (optionally per dimension slice, producing a one-per-class
multi-attribute table), and ``prob_attrs`` draws a skewed categorical label
per vector (90% of the mass on three of twenty attributes).
"""

from __future__ import annotations

import math
import os
import re
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


def _read_records(path: str, payload_dtype) -> np.ndarray:
    """Read every record's payload into an (n, d) float32 array."""
    payload_dtype = np.dtype(payload_dtype)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0:
            return np.empty((0, 0), dtype=np.float32)
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
        out = np.empty((n, d), dtype=np.float32)
        buf = np.empty((min(n, _BLOCK_RECORDS), rec), dtype=np.uint8)
        f.seek(0)
        for lo in range(0, n, _BLOCK_RECORDS):
            rows = buf[:min(_BLOCK_RECORDS, n - lo)]
            if f.readinto(rows) != rows.nbytes:
                raise ValueError(f"{path}: file changed while being read")
            if not (rows[:, :4].view("<i4") == d).all():
                raise ValueError(f"{path}: inconsistent dimensions across "
                                 "records")
            out[lo:lo + len(rows)] = rows[:, 4:].view(payload_dtype)
    return out


def read_fvecs(path: str) -> VectorSet:
    """Load an fvecs file (int32 dim + float32 payload per record)."""
    out = _read_records(path, "<f4")
    try:
        return VectorSet(out)
    except ValueError:  # the only check VectorSet can fail on this array
        raise ValueError(f"{path}: payload contains NaN or Inf") from None


def read_bvecs(path: str) -> VectorSet:
    """Load a bvecs file (int32 dim + uint8 payload per record)."""
    return VectorSet(_read_records(path, np.uint8))


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


def _lloyd(x: np.ndarray, c: int, rng: np.random.Generator,
           max_iter: int = 50, tol: float = 1e-4) -> np.ndarray:
    """Lloyd iterations with k-means++ seeding; stops after ``max_iter``
    rounds or when the relative inertia improvement drops below ``tol``.
    Deterministic given the generator state; ties go to the lowest center."""
    centers = _kmeans_pp_init(x, c, rng)
    sq = np.einsum("ij,ij->i", x, x)
    prev_inertia = math.inf
    labels = np.zeros(len(x), dtype=np.intp)
    for _ in range(max_iter):
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
            if (prev_inertia - inertia) < tol * prev_inertia:
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
        labels = _lloyd(np.asarray(data.data, dtype=np.float64), c,
                        np.random.default_rng(seed))
        return AttributeTable.from_labels(labels, c)
    m = int(chunks)
    if m < 1 or data.d % m != 0:
        raise ValueError("d must be divisible by chunks")
    width = data.d // m
    columns = []
    for i in range(m):
        sl = np.ascontiguousarray(data.data[:, i * width:(i + 1) * width],
                                  dtype=np.float64)
        columns.append(i * c + _lloyd(sl, c, np.random.default_rng([seed, i])))
    return AttributeTable(np.full(data.n, m),
                          np.column_stack(columns).ravel(), c=c * m,
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
    head = rng.random(n) < PROB_HEAD_MASS
    labels = np.where(head, rng.integers(0, PROB_HEAD, size=n),
                      rng.integers(PROB_HEAD, PROB_ATTR_COUNT, size=n))
    return AttributeTable.from_labels(labels, PROB_ATTR_COUNT)


# ---------------------------------------------------------------------------
# attribute file format
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^#c=(\d+)(?:;classes=(\d+(?:\+\d+)*))?$")

# bytes of a data row on the vectorised path: digits, commas and newlines
_ROW_BYTES = np.zeros(256, dtype=bool)
_ROW_BYTES[list(b"0123456789,\n")] = True


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
    line, then rows of digits and commas with one field count. Returns
    None for any other file, which the per-line parser then reads."""
    with open(path, "rb") as f:
        first = f.readline()
        body = np.fromfile(f, dtype=np.uint8)
    # a body of line ends alone has no rows (and would make loadtxt warn)
    if not first.endswith(b"\n") or not _ROW_BYTES[body].all() \
            or (body == ord("\n")).all():
        return None
    header = _parse_header(first[:-1].decode("latin-1"))
    if header is None:
        return None
    try:
        # one C parse of the admitted rows; a changed field count, an empty
        # field or a value beyond int64 raises ValueError. loadtxt reads the
        # file again: given a path it runs about twice as fast as on bytes.
        rows = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1,
                          comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] < 2:
        return None
    return (rows[:, 0], np.full(len(rows), rows.shape[1] - 1, dtype=np.intp),
            rows[:, 1:].ravel(), *header)


def _parse_attrs_lines(path: str):
    """Per-line parse of any attribute file; syntax errors name the line."""
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
    return vids, lengths, ids, *header


def _build_table(path: str, vids, lengths, ids, c: int,
                 classes) -> AttributeTable:
    """Check that the vector ids cover 0..N-1 once each and build the
    table in vector-id order; errors name ``path``."""
    if not len(vids):
        raise ValueError(f"{path}: no attribute rows")
    try:  # an id beyond 64 bits raises OverflowError here
        vid_arr = np.asarray(vids, dtype=np.intp)
        id_arr = np.asarray(ids, dtype=np.intp)
        len_arr = np.asarray(lengths, dtype=np.intp)
        # N strictly ascending integers from 0 to N - 1 are 0..N-1
        if not (vid_arr[0] == 0 and vid_arr[-1] == len(vid_arr) - 1
                and (vid_arr[1:] > vid_arr[:-1]).all()):
            order = np.argsort(vid_arr, kind="stable")
            # sorted ids must read 0..N-1; a mismatch is a repeat or a gap
            gap = vid_arr[order] != np.arange(len(order))
            if gap.any():
                i = int(np.argmax(gap))
                if vid_arr[order[i]] < i:
                    raise ValueError(f"duplicate vector id {i - 1}")
                raise ValueError(f"missing attribute row for vector id {i}")
            # out of id order: a stable sort by vector id keeps rows whole
            id_arr = id_arr[np.argsort(np.repeat(vid_arr, len_arr),
                                       kind="stable")]
            len_arr = len_arr[order]
        return AttributeTable(len_arr, id_arr, c, classes=classes)
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
