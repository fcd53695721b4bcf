"""Domain types and welfare objectives shared by solvers, baselines, and metrics.

Building blocks:

* :class:`VectorSet` -- immutable n x d matrix of input vectors.
* :class:`AttributeTable` -- per-vector attribute sets plus inverted lists.
* :class:`SimilarityFn` -- nonnegative similarity between vectors.
* :class:`Query` -- a query checked once, with the norms its kind reads.
* :class:`WelfareParams` -- welfare exponent ``p`` and smoothing ``eta``.
* :func:`welfare` / :func:`log_nsw` -- Nash (geometric-mean) and generalized
  p-mean welfare over per-attribute utilities.

All types are immutable after construction and safe to share across threads;
the operations are pure functions. Similarity values are always nonnegative
because utilities are sums of similarities and the welfare objectives assume
nonnegative utility. A base whose values are float32 or uint8 is stored in
float32, half the bytes of float64; every similarity, norm and utility is
computed from float64 upcasts of its rows and accumulates in 64-bit floats.
A row's norm is always the square root of its float64 squared norm,
``np.sqrt(np.einsum("ij,ij->i", rows, rows))``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SIMILARITY_KINDS = ("one-plus-cosine", "reciprocal-euclidean", "dot-product")


# Rows per block of the set-up pass: a block and its squares stay in L2.
_NORM_BLOCK = 4096


class VectorSet:
    """Immutable dense matrix of input vectors; row i is vector id i.

    The matrix is stored in float32 when the input's dtype converts to
    float32 without loss (float32 or uint8, as fvecs and bvecs files give),
    and in float64 otherwise. The per-row squared norms are float64, taken
    at construction from float64 upcasts of blocks of rows in the same pass
    that rejects NaN and Inf entries, and equal ``np.einsum("ij,ij->i")``
    on a float64 copy of the matrix. The norms are their square roots,
    ``np.sqrt(sqnorms)``.
    """

    def __init__(self, data) -> None:
        arr = np.asarray(data)
        arr = np.ascontiguousarray(arr, dtype=np.float32 if arr.dtype in (
            np.float32, np.uint8) else np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        # an empty set (e.g. from an empty file) may be constructed; any
        # actual use of its vectors fails with a dimension/id error
        if arr.shape[0] > 0 and arr.shape[1] < 1:
            raise ValueError("dimension must be >= 1")
        n = arr.shape[0]
        sqnorms = np.empty(n, dtype=np.float64)
        # float32 rows are upcast into one reused float64 block
        wide = (np.empty((min(n, _NORM_BLOCK), arr.shape[1]))
                if arr.dtype == np.float32 else None)
        # a NaN or Inf entry makes its row's squared norm non-finite; a
        # non-finite squared norm of finite entries (an overflow) is told
        # apart by the exact test
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, _NORM_BLOCK):
                block = arr[lo:lo + _NORM_BLOCK]
                if wide is not None:
                    block = wide[:len(block)]
                    np.copyto(block, arr[lo:lo + len(block)])
                sq = np.einsum("ij,ij->i", block, block,
                               out=sqnorms[lo:lo + len(block)])
                if not np.isfinite(sq).all() and not np.isfinite(block).all():
                    raise ValueError("vector payload contains NaN or Inf")
        norms = np.sqrt(sqnorms)
        for a in (arr, norms, sqnorms):
            a.setflags(write=False)
        self._data = arr
        self._norms = norms
        self._sqnorms = sqnorms
        # the extremes bound a float32 scan's rounding error; a zero
        # minimum means a zero row, an error under one-plus-cosine
        self.min_norm = float(norms.min(initial=np.inf))
        self.max_norm = float(norms.max(initial=0.0))

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def d(self) -> int:
        return self._data.shape[1]

    @property
    def norms(self) -> np.ndarray:
        """Per-row Euclidean norms: ``np.sqrt(sqnorms)``."""
        return self._norms

    @property
    def sqnorms(self) -> np.ndarray:
        """Per-row squared norms."""
        return self._sqnorms

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"VectorSet(n={self.n}, d={self.d})"


class AttributeTable:
    """Attribute assignments ``atb(v)`` over [0, c) plus inverted lists D_l.

    Stored in CSR form: the attributes of vector v are
    ``indices[indptr[v]:indptr[v + 1]]``, ascending. ``inverted[l]`` is the
    ascending array of vector ids carrying attribute l. ``classes``, when
    present, partitions [0, c) into disjoint nonempty attribute classes; in
    one-per-class mode every vector carries exactly one attribute from each
    class.

    The constructor takes CSR entries as :meth:`gather` returns them: each
    vector's attribute count, and the ids concatenated in vector order.
    ``width`` is the common attribute count when every vector has the same
    one (single-attribute and one-per-class tables), else None.
    """

    def __init__(self, lengths, indices, c: int,
                 classes: Optional[Sequence[Sequence[int]]] = None) -> None:
        if c < 1:
            raise ValueError("attribute count c must be >= 1")
        self.c = int(c)
        lengths = np.asarray(lengths, dtype=np.intp)
        flat = np.asarray(indices, dtype=np.intp)
        if lengths.ndim != 1 or flat.shape != (lengths.sum(),):
            raise ValueError("indices must be 1-D with sum(lengths) entries")
        fewest, most = ((lengths.min(), lengths.max()) if len(lengths)
                        else (1, 1))
        if fewest < 1:
            raise ValueError(f"vector {np.argmin(lengths)} has no attributes")
        self.indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(lengths, out=self.indptr[1:])
        if flat.size and (flat.min() < 0 or flat.max() >= self.c):
            entry = np.argmax((flat < 0) | (flat >= self.c))
            vector = np.searchsorted(self.indptr, entry, side="right") - 1
            raise ValueError(f"vector {vector} has attribute id outside "
                             f"[0, {self.c})")
        if most > 1:
            # rows whose ids strictly ascend are sorted and hold no
            # duplicates; only other input pays for the sort and the check
            ascends = flat[1:] > flat[:-1]
            ascends[self.indptr[1:-1] - 1] = True
            if not ascends.all():
                rows = np.repeat(np.arange(len(lengths)), lengths)
                flat = flat[np.argsort(rows * self.c + flat, kind="stable")]
                dup = (flat[1:] == flat[:-1]) & (rows[1:] == rows[:-1])
                if dup.any():
                    raise ValueError(f"vector {rows[np.argmax(dup)]} has "
                                     "duplicate attributes")
        if flat is indices or flat.base is not None:
            flat = flat.copy()   # never keep an array the caller can write
        self.indices = flat
        # a stable sort by attribute keeps each list's ids ascending; keys of
        # the narrowest unsigned type let numpy use radix sort
        members = np.argsort(flat.astype(np.min_scalar_type(self.c)),
                             kind="stable")
        self.width: Optional[int] = int(most) if fewest == most else None
        if self.width:   # m ids per vector: entry e is vector e // m
            np.floor_divide(members, most, out=members)
        else:
            members = np.repeat(np.arange(len(lengths)), lengths)[members]
        for arr in (self.indptr, self.indices, members):
            arr.setflags(write=False)
        self.inverted: tuple[np.ndarray, ...] = tuple(np.split(
            members, np.cumsum(np.bincount(flat, minlength=self.c))[:-1]))
        self.classes: Optional[tuple[np.ndarray, ...]] = None
        if classes is not None:
            cls = tuple(np.asarray(sorted(int(a) for a in grp), dtype=np.intp)
                        for grp in classes)
            flat = np.concatenate(cls) if cls else np.empty(0, dtype=np.intp)
            # a partition of [0, c) sorts to 0, 1, ..., c - 1
            if (not np.array_equal(np.sort(flat), np.arange(self.c))
                    or not all(map(len, cls))):
                raise ValueError("classes must partition [0, c) into "
                                 "nonempty groups")
            self.classes = cls

    @classmethod
    def from_labels(cls, labels, c: int,
                    classes: Optional[Sequence[Sequence[int]]] = None) -> "AttributeTable":
        """Build a single-attribute table from one label per vector."""
        return cls(np.ones(np.size(labels), dtype=np.intp), labels, c,
                   classes=classes)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], c: int,
                  classes: Optional[Sequence[Sequence[int]]] = None) -> "AttributeTable":
        """Build a table from one attribute-id sequence per vector."""
        lengths = np.fromiter(map(len, rows), dtype=np.intp)
        indices = np.fromiter(itertools.chain.from_iterable(rows),
                              dtype=np.intp, count=int(lengths.sum()))
        return cls(lengths, indices, c, classes=classes)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def gather(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """CSR entries of vectors ``ids``: how many attributes each carries,
        and their attribute ids concatenated in the order of ``ids``."""
        ids = np.asarray(ids, dtype=np.intp)
        if self.width:   # one row gather, 4x faster than the CSR arithmetic
            return (np.full(len(ids), self.width, dtype=np.intp),
                    np.take(self.indices.reshape(-1, self.width), ids,
                            axis=0).ravel())
        lo = self.indptr[ids]
        lengths = self.indptr[ids + 1] - lo
        starts = np.cumsum(lengths) - lengths
        entries = np.repeat(lo - starts, lengths) + np.arange(lengths.sum())
        return lengths, self.indices[entries]

    def slots(self, ids) -> np.ndarray:
        """(w, len(ids)) attribute ids of vectors ``ids``, w the most any
        of them carries: row j of column i holds the j-th smallest
        attribute of ``ids[i]``, or the pad id c, which no vector carries,
        past its last one."""
        lengths, attr = self.gather(ids)
        if self.width:
            return np.ascontiguousarray(attr.reshape(-1, self.width).T)
        out = np.full((len(lengths), lengths.max(initial=0)), self.c,
                      dtype=np.intp)
        out[np.arange(out.shape[1]) < lengths[:, None]] = attr
        return np.ascontiguousarray(out.T)

    @property
    def is_single(self) -> bool:
        return self.width == 1

    @property
    def labels(self) -> np.ndarray:
        """Label array for single-attribute tables (``indices`` itself);
        error otherwise."""
        if not self.is_single:
            raise ValueError("table is multi-attribute; no scalar labels")
        return self.indices

    def require_single(self) -> None:
        if not self.is_single:
            raise ValueError("operation requires a single-attribute table "
                             "(every vector must carry exactly one attribute)")

    def __repr__(self) -> str:
        mode = "single" if self.is_single else "multi"
        return f"AttributeTable(n={self.n}, c={self.c}, {mode})"


@dataclass(frozen=True, eq=False)
class Query:
    """A query made ready by :meth:`SimilarityFn.query`: one vector or a
    (b, d) block in float64, checked for NaN and Inf, with each query's norm
    (one-plus-cosine) or squared norm (reciprocal-euclidean) when the kind
    reads it."""

    vec: np.ndarray
    norms: Optional[list] = None
    sqnorms: Optional[list] = None

    def row(self, i: int) -> "Query":
        """Query i of a block, checked and normed with the block."""
        return Query(self.vec[i],
                     None if self.norms is None else self.norms[i:i + 1],
                     None if self.sqnorms is None else self.sqnorms[i:i + 1])


@dataclass(frozen=True)
class SimilarityFn:
    """Similarity configuration; all kinds return finite values >= 0.

    kinds:
      one-plus-cosine      1 + <u,v> / (|u||v|), in [0, 2]
      reciprocal-euclidean 1 / (|u - v| + delta), finite delta > 0
      dot-product          max(<u,v>, 0); negative products are clamped to 0

    Every method takes a query as an array or as the :class:`Query` that
    :meth:`query` made of it; a caller that scores one query many times
    makes it once, so the query is checked and normed once.
    """

    kind: str
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        if self.kind == "reciprocal-euclidean" and not (
                0 < self.delta < math.inf):   # NaN fails too
            raise ValueError("reciprocal-euclidean requires a finite "
                             "delta > 0")

    def query(self, q) -> Query:
        """Check q (one query or a (b, d) block) and take the per-query
        norms this kind reads; a :class:`Query` is returned as it is."""
        if isinstance(q, Query):
            return q
        q = np.asarray(q, dtype=np.float64)
        if q.ndim not in (1, 2):
            raise ValueError("dimension mismatch between query and vectors")
        if not np.isfinite(q).all():
            raise ValueError("query contains NaN or Inf")
        queries = (q,) if q.ndim == 1 else q
        if self.kind == "one-plus-cosine":
            qn = [np.linalg.norm(v) for v in queries]
            if 0.0 in qn:
                raise ValueError("zero query vector under one-plus-cosine")
            return Query(q, norms=qn)
        if self.kind == "reciprocal-euclidean":
            return Query(q, sqnorms=[v @ v for v in queries])
        return Query(q)

    def batch(self, q, rows: np.ndarray,
              row_norms: Optional[np.ndarray] = None,
              row_sqnorms: Optional[np.ndarray] = None) -> np.ndarray:
        """Similarity of query q against every row of ``rows`` (float64).

        A (b, d) block of queries gives (b, n) scores, query-major, so each
        query's scores are one contiguous row; every step after the dot
        products is the 1-D one, broadcast by row. ``rows`` is upcast to
        float64. Norms passed as ``row_norms`` are the caller's to have
        checked for zeros; norms computed here are checked.
        """
        q = self.query(q)
        v = q.vec
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != v.shape[-1]:
            raise ValueError("dimension mismatch between query and vectors")

        def per_query(values):
            # one value per query: a scalar for one query (numpy's fast
            # in-place path), a column that broadcasts over a block's rows
            return values[0] if v.ndim == 1 else np.array(values)[:, None]

        def dots():
            return rows @ v if v.ndim == 1 else v @ rows.T

        if self.kind == "one-plus-cosine":
            if row_norms is None:
                row_norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
                _reject_zero_norms(row_norms.min(initial=np.inf))
            s = dots()
            s /= row_norms
            s /= per_query(q.norms)
            s += 1.0
            return s
        if self.kind == "reciprocal-euclidean":
            if row_sqnorms is None:
                row_sqnorms = np.einsum("ij,ij->i", rows, rows)
            d2 = dots()
            d2 *= -2.0
            d2 += row_sqnorms
            d2 += per_query(q.sqnorms)
            np.maximum(d2, 0.0, out=d2)
            np.sqrt(d2, out=d2)
            d2 += self.delta
            np.divide(1.0, d2, out=d2)
            return d2
        # dot-product
        s = dots()
        if (s < 0.0).any():
            np.maximum(s, 0.0, out=s)
        return s

    def batch_ids(self, q, data: "VectorSet",
                  ids: np.ndarray) -> np.ndarray:
        """Similarity of q against data rows ``ids``, gathering (and
        upcasting) only those rows and the cached auxiliary the kind
        actually needs."""
        q = self.query(q)
        rows = np.take(data.data, ids, axis=0)   # 2x faster than data[ids]
        if self.kind == "one-plus-cosine":
            norms = data.norms[ids]
            _reject_zero_norms(norms.min(initial=np.inf))
            return self.batch(q, rows, row_norms=norms)
        if self.kind == "reciprocal-euclidean":
            return self.batch(q, rows, row_sqnorms=data.sqnorms[ids])
        return self.batch(q, rows)

    def check_rows(self, data: "VectorSet") -> None:
        """Reject a base this kind cannot score: one with a zero row under
        one-plus-cosine. The set-up pass found any, so this reads no row."""
        if self.kind == "one-plus-cosine":
            _reject_zero_norms(data.min_norm)

    def scan(self, q, data: "VectorSet") -> np.ndarray:
        """Similarity of q (one query or a (b, d) block) against every row
        of ``data``, in float64.

        A float64 base is scored in one call; a float32 base is upcast by
        blocks of ``_NORM_BLOCK`` rows, never whole. The block size is a
        multiple of every BLAS kernel's row group, so the result is bit
        for bit that of one call on a float64 copy of the base.
        """
        q = self.query(q)
        self.check_rows(data)
        n = data.n
        step = _NORM_BLOCK if data.data.dtype == np.float32 else max(n, 1)
        starts = list(range(0, max(n, 1), step))
        if len(starts) > 1 and n - starts[-1] == 1:
            # one row would be a dot product, not a GEMV: the block before
            # takes it, as the whole-array call's tail does
            starts.pop()
        parts = [self.batch(q, data.data[lo:hi], row_norms=data.norms[lo:hi],
                            row_sqnorms=data.sqnorms[lo:hi])
                 for lo, hi in zip(starts, starts[1:] + [n])]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _reject_zero_norms(least: float) -> None:
    """A zero row has no cosine: reject it under one-plus-cosine, given the
    least norm of the rows scored."""
    if least == 0.0:
        raise ValueError("zero input vector under one-plus-cosine")


@dataclass(frozen=True)
class WelfareParams:
    """Welfare exponent p in (-inf, 1] and finite smoothing eta > 0.

    p = 0 denotes the Nash (geometric-mean) objective; it is a tagged special
    case, not a limit evaluation.
    """

    p: float = 0.0
    eta: float = 1.0

    def __post_init__(self) -> None:
        # written so that NaN fails both checks
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be finite and > 0")
        if not -math.inf < self.p <= 1:
            raise ValueError("p must lie in (-inf, 1]")

    @property
    def is_nash(self) -> bool:
        return self.p == 0.0


@dataclass(frozen=True, eq=False)
class Selection:
    """Result of a solver: chosen ids (in selection order), the induced
    per-attribute utilities, and the configured welfare value.

    ``truncated`` is set when fewer than k vectors could be selected.
    """

    ids: tuple[int, ...]
    utilities: Optional[np.ndarray] = None
    objective: Optional[float] = None
    truncated: bool = False

    def __post_init__(self) -> None:
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("selection ids must be distinct")

    def __len__(self) -> int:
        return len(self.ids)


def utilities(q, ids: Sequence[int], data: VectorSet, attrs: AttributeTable,
              fn: SimilarityFn) -> np.ndarray:
    """Per-attribute utilities of the id set: entry l sums sigma(q, v) over
    selected v carrying attribute l. A multi-attribute vector contributes to
    every attribute it carries."""
    idx = np.asarray(list(ids), dtype=np.intp)
    u = np.zeros(attrs.c, dtype=np.float64)
    if idx.size == 0:
        return u
    if idx.min() < 0 or idx.max() >= data.n:
        raise ValueError("selection contains an invalid vector id")
    sims = fn.batch_ids(q, data, idx)
    # unbuffered and in entry order, so each u[l] sums in selection order
    lengths, attr = attrs.gather(idx)
    np.add.at(u, attr, np.repeat(sims, lengths))
    return u


def welfare(util: np.ndarray, params: WelfareParams) -> float:
    """Welfare M_p(u + eta) of a utility array.

    p = 0 gives the geometric mean prod(u_l + eta)^(1/c), evaluated in
    log-space; p != 0 gives ((1/c) sum (u_l + eta)^p)^(1/p), evaluated via
    a shifted log-sum-exp so that large |p| neither overflows nor underflows.
    """
    u = np.asarray(util, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("utilities must be a nonempty 1-D array")
    if np.any(u < 0):
        raise ValueError("negative utility")
    w = np.log(u + params.eta)
    if params.is_nash:
        return float(np.exp(w.mean()))
    # log-mean-exp shifted by its largest term: no overflow or underflow.
    # An infinite largest term means some u_l is inf (p > 0) or all are
    # (p < 0); either way M_p is inf, and shifting by it would give NaN.
    z = params.p * w
    top = z.max()
    if np.isinf(top):
        return np.inf
    return float(np.exp((top + np.log(np.mean(np.exp(z - top)))) / params.p))


def log_nsw(util: np.ndarray, eta: float) -> float:
    """Logarithm of the Nash welfare: (1/c) sum log(u_l + eta)."""
    u = np.asarray(util, dtype=np.float64)
    if np.any(u < 0):
        raise ValueError("negative utility")
    if not 0 < eta < math.inf:   # NaN fails too
        raise ValueError("eta must be finite and > 0")
    return float(np.mean(np.log(u + eta)))

