"""Every top-L of the package: the ranked-list type, the ranking rule, the
candidate pools and the per-attribute oracles.

A :class:`RankedList` holds candidates with distinct ids, best first, and
:func:`rank` makes one: by similarity descending, ascending id on ties.
:func:`block_pools` ranks, for a block of queries, the rows of the base
or of an inverted list most similar to each, reading them once
(:func:`full_scan_pool` is a block of one); :func:`_caller_pool` checks a
pool a solver is handed. ``exact_topk`` is the exact oracle over one
inverted list: the true top-min(k, |D_l|) vectors of the attribute.
``alpha_topk`` is a degraded oracle for tests: its i-th best similarity is
at least ``alpha`` times the i-th best exact one, for every rank i.
Each input is checked once, where it enters or by the code that made it:
``SimilarityFn.query`` checks a query, :func:`_one_query` a single query's
shape, :func:`block_pools` a caller's block and ids, and the attribute
table the inverted lists that ``exact_topk`` hands on unchecked.

Over a float32 base, pools of at most an eighth of the base and inverted
lists above 4096 rows go through the certified float32 filter
:class:`_Filter` (:func:`_filter_pools`), which re-scores in float64 only
the rows above a proven threshold; where it cannot certify, it ranks all
its rows in float64 itself (:func:`_exact_rank`), so no caller has a
fallback. The threshold follows the ``limit``-th best float32 key, tau,
which is selected only among the keys at or above a lower bound on it
that a 1-in-16 sample of the keys proves (:meth:`_Filter._floor`). More
than ``_STREAM_ROWS`` rows stream through it by row blocks, split across
worker threads as :func:`block_pools` states, so no query holds a row of
n scores, nor a list its whole gathered rows.

A solver takes its oracle as a plain callable ``(q, attribute, k) ->
RankedList``, such as ``functools.partial(exact_topk, data=data,
attrs=attrs, fn=fn)``, so an external index backend can be slotted in
later. Oracles are stateless with respect to queries; the degraded oracle
derives its randomness from (seed, query bytes, attribute), so results do
not depend on thread count or call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (_NORM_BLOCK, _STREAM_ROWS, AttributeTable, Query,
                   SimilarityFn, VectorSet, _on_shares, _reject_zero_norms,
                   _row_blocks, _shares)


@dataclass(frozen=True, eq=False)
class RankedList:
    """Candidates with distinct ids ranked by similarity, best first."""

    ids: np.ndarray    # intp, ascending id within equal similarity
    sims: np.ndarray   # float64, non-increasing
    # made by :func:`rank`, so ranked by construction
    _ranked: bool = field(default=False, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class AlphaOracleConfig:
    """Degradation factor alpha in (0, 1] and the seed driving it."""

    alpha: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")


def rank(sims: np.ndarray, ids: np.ndarray | None = None,
         limit: int | None = None) -> RankedList:
    """The ``limit`` best candidates (all by default; a limit is >= 1),
    ordered by similarity descending, ascending id on ties, as a
    :class:`RankedList` with read-only arrays. Ids must be distinct;
    without them a candidate's id is its position."""
    n = len(sims)
    # ndarray methods, not the numpy functions that wrap them: an oracle
    # call on a list of a few hundred rows is mostly call overhead
    if limit is not None and limit < n:
        # the top block of an ascending partition at n - limit holds the
        # limit best; when the threshold value also occurs below the block,
        # every candidate tied with it joins, so the id order decides
        part = sims.argpartition(n - limit)
        above = sims >= sims[part[n - limit]]
        cand = (part[n - limit:] if np.count_nonzero(above) == limit
                else above.nonzero()[0])
    else:
        cand = np.arange(n)
    cand_sims = sims[cand]
    order = (-cand_sims).argsort()
    ranked = cand_sims[order]
    if (ranked[1:] == ranked[:-1]).any():
        # the unstable sort leaves equal similarities in any order
        order = np.lexsort((cand if ids is None else ids[cand], -cand_sims))
    pos = cand[order[:limit]]
    out = RankedList(ids=pos if ids is None else ids[pos], sims=sims[pos])
    out.ids.setflags(write=False)
    out.sims.setflags(write=False)
    object.__setattr__(out, "_ranked", True)
    return out


# unit roundoffs of float32 and float64
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
# relative slack on every bound: it covers the float64 rounding of the
# stored norms and of computing the bound itself, for any d below 2^30;
# the float32 terms need d u32 < 1/2, so _filters takes d below 2^23
_SAFE = 1.0 + 2.0 ** -20
_F32_MAX = float(np.finfo(np.float32).max)


def _gamma(m: int, u: float) -> float:
    """Higham's gamma_m = m u / (1 - m u), a bound only for m u < 1."""
    if m * u >= 1.0:
        raise ValueError(f"gamma_{m} has no bound at unit roundoff {u}")
    return m * u / (1.0 - m * u)


# the filter may always keep this many rows (the floor of _max_survivors);
# an inverted list of at most this many rows could survive it whole, so it
# is ranked in float64 directly
_SURVIVOR_FLOOR = 4096


def _max_survivors(n: int) -> int:
    """Most rows the float32 filter gathers and re-scores out of n. Past
    an eighth of a base the gather and float64 upcast of the survivors
    cost more than the blockwise float64 scan of every row (1M x 96, one
    BLAS thread: 136 against 159 ms per query at L = n/8, 234 against 167
    ms at n/4). Below 32768 rows the bound is 4096 rows, a gather small
    enough not to matter either way."""
    return max(n // 8, _SURVIVOR_FLOOR)


def _filters(data: VectorSet, limit: int | None, n: int,
             listed: bool = False) -> bool:
    """Whether the top-``limit`` of n rows of ``data``, the whole base or
    an inverted list (``listed``), is ranked through the float32 filter.
    Below about 2000-4000 rows (d = 32) the filter costs a list more than
    it saves. A base of d >= 2^23 (d u32 >= 1/2) is ranked in float64:
    near there the filter's float32 rounding bound, gamma_d, stops being
    one."""
    return not (listed and n <= _SURVIVOR_FLOOR) and \
        data.data.dtype == np.float32 and data.d * _U32 < 0.5 and \
        limit is not None and limit < n and limit <= _max_survivors(n)


def exact_topk(q, attribute: int, k: int, data: VectorSet,
               attrs: AttributeTable, fn: SimilarityFn) -> RankedList:
    """True top-min(k, |D_l|) of attribute l by sigma(q, .); an empty
    inverted list yields an empty list.

    The query is checked by :func:`_one_query`; the list, the table's own,
    is not. Where :func:`_filters` says so (a float32 base, a list above
    4096 rows), the certified filter ranks it as :func:`block_pools` ranks
    a block of one; else its rows are gathered and scored in float64.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= attribute < attrs.c):
        raise ValueError(f"attribute id {attribute} outside [0, {attrs.c})")
    q = _one_query(q, fn, data)
    members = attrs.inverted[attribute]
    if _filters(data, k, len(members), listed=True):
        return _filter_pools(_block_of_one(q), data, fn, k, members)[0]
    return _exact_rank(q, data, fn, k, members)


def _one_query(q, fn: SimilarityFn, data: VectorSet) -> Query:
    """q checked and normed as one vector of ``data``'s dimension."""
    q = fn.query(q)
    if q.vec.ndim != 1:
        raise ValueError("a single query must be one vector")
    if q.vec.shape[0] != data.d:
        raise ValueError("dimension mismatch between query and vectors")
    return q


def _block_of_one(q: Query) -> Query:
    """The checked single query q as a block of one, normed with it."""
    return Query(q.vec[None], q.norms, q.sqnorms)


def _exact_rank(q, data: VectorSet, fn: SimilarityFn, limit: int | None,
                ids: np.ndarray | None = None) -> RankedList:
    """The top-``limit`` of the rows ``ids`` of ``data`` (every row by
    default, by a scan), as base ids, ranked by float64 similarity."""
    sims = fn.scan(q, data) if ids is None else fn.batch_ids(q, data, ids)
    return rank(sims, ids, limit)


def _f32_scores(qs: Query, data: VectorSet, ids: np.ndarray | None = None,
                lo: int = 0, hi: int | None = None) -> np.ndarray:
    """float32 dot products of the float32-rounded (b, d) block of queries
    with the rows lo:hi of the base, or the rows ``ids[lo:hi]`` gathered
    ``_NORM_BLOCK`` at a time, each block still in cache for its sgemm
    (15k x 32 rows, one BLAS thread: 330 against 440 us as one gather).
    The product is rows times queries (an sgemv for one query), 1.5x
    faster than the query-major one, and is returned as its (b, rows)
    transposed view, not copied: a query's scores lie b floats apart
    (contiguous in a block of one), and its float64 keys copy them once
    anyway. A query beyond float32's range or an overflow gives inf or
    NaN scores, which :class:`_Filter` handles."""
    with np.errstate(over="ignore", invalid="ignore"):
        q32 = qs.vec.astype(np.float32).T
        if ids is None:
            return (data.data[lo:hi] @ q32).T
        ids = ids[lo:hi]
        g = np.empty((len(ids), len(qs.vec)), dtype=np.float32)
        for a, b in _row_blocks(len(ids), _NORM_BLOCK):
            np.matmul(data.take(ids[a:b]), q32, out=g[a:b])
        return g.T


def full_scan_pool(q, data: VectorSet, fn: SimilarityFn,
                   limit: int | None = None) -> RankedList:
    """The pool of the ``limit`` most similar vectors to ``q`` (all of
    them by default): ``block_pools`` of the block that holds q alone."""
    return block_pools(_block_of_one(_one_query(q, fn, data)), data, fn,
                       limit)[0]


def block_pools(qs, data: VectorSet, fn: SimilarityFn,
                limit: int | None = None,
                ids: np.ndarray | None = None) -> list[RankedList]:
    """For each query of a (b, d) block, the :class:`RankedList` of the
    ``limit`` rows most similar to it (all by default; a limit is >= 1),
    as base ids with float64 similarities, reading the rows once for the
    block: every row of the base, or the rows ``ids``, a 1-D integer array
    strictly ascending in [0, n) (an inverted list). Any other query shape
    or ``ids`` raises ValueError.

    Over a float64 base, for ``limit=None``, a limit at or above the row
    count, one above :func:`_max_survivors` of it, or an inverted list of
    at most 4096 rows, the block is scored in float64 by one scan of every
    row (:meth:`SimilarityFn.scan`, split across the same worker threads;
    one ``batch_ids`` GEMM of a list), (b, rows) float64 at once, and
    each query's row is ranked; :func:`exact_topk` routes each list by the
    same rule, a block of one query. Otherwise each query's certified
    :class:`_Filter` ranks the rows from their float32 scores, re-scoring
    in float64 only the rows that survive. At most ``_STREAM_ROWS`` rows
    (65536) are scored by one sgemm with the block. More are streamed: one
    sgemm per block of rows, after which each query keeps the block's rows
    at or above its running threshold. The rows are split into W
    contiguous shares cut at multiples of 4096 rows, W the CPUs the
    process may run on, at most one per ``_STREAM_ROWS`` rows and 16 in
    all (``core._workers``). The calling thread streams the first share
    and a module-level thread pool the others, each by blocks of
    ``_STREAM_ROWS`` / W rows rounded down to a multiple of 4096, with its
    own filter per query; each query's kept rows are then joined in share
    order and ranked as one thread's. A share's running threshold is at
    most the final one, so its kept rows hold every survivor among its
    rows, and the survivors are re-scored in the same order whatever W.
    The call returns once every share has ended, and raises the error of
    any share. The blocks in flight hold their scores once (the sgemm
    outputs, 256 KB per query in all, read by each query in place) plus,
    per share, one query's float64 keys (512 KB in all), about 2.5 MB for
    8 queries at any row count; ``ids`` add 4096 gathered rows per share
    (1.5 MB at d = 96) and, per filter, the float64 norms of the list.
    Both give the same ids and order, up to rows whose float64
    similarities differ only in the last place: the filter scores its
    survivors by a gather's GEMV, whose last bits may differ from those of
    a whole-array scan, and a row of a block's GEMM may differ in the last
    place from the same query's in another block.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    qs = fn.query(qs)
    if qs.vec.ndim != 2:
        raise ValueError("a block of queries must be a (b, d) array")
    if qs.vec.shape[1] != data.d:
        raise ValueError("dimension mismatch between query and vectors")
    if ids is not None:
        ids = np.asarray(ids)
        # strict ascent from ids[0] >= 0 to ids[-1] < n: distinct, in range
        if ids.ndim != 1 or ids.dtype.kind not in "iu" or len(ids) and (
                ids[0] < 0 or ids[-1] >= data.n
                or (ids[1:] <= ids[:-1]).any()):
            raise ValueError(f"ids must ascend strictly in [0, {data.n})")
    n = data.n if ids is None else len(ids)
    if not _filters(data, limit, n, listed=ids is not None):
        return [rank(row, ids, limit) for row in (
            fn.scan(qs, data) if ids is None else fn.batch_ids(qs, data, ids))]
    return _filter_pools(qs, data, fn, limit, ids)


def _filter_pools(qs: Query, data: VectorSet, fn: SimilarityFn, limit: int,
                  ids: np.ndarray | None = None) -> list[RankedList]:
    """:func:`block_pools` of the checked block ``qs`` (and valid ``ids``)
    through each query's certified :class:`_Filter`, for a float32 base
    and a limit below the row count, within :func:`_max_survivors` of it."""
    n = data.n if ids is None else len(ids)
    # each query was checked and normed with the block, and the rows' norms
    # are gathered once for all its filters
    rows = _row_norms(data, fn, ids)

    def filters() -> list[_Filter]:
        return [_Filter(qs.row(i), data, fn, limit, ids, rows)
                for i in range(len(qs.vec))]

    if n <= _STREAM_ROWS + 1:   # one block: _row_blocks folds a 1-row tail
        return [f.pool(g)
                for f, g in zip(filters(), _f32_scores(qs, data, ids))]
    shares = _shares(n, _STREAM_ROWS)
    # the blocks of all shares in flight hold _STREAM_ROWS rows at most
    step = max(_STREAM_ROWS // len(shares) // _NORM_BLOCK * _NORM_BLOCK,
               _NORM_BLOCK)

    def stream(lo: int, hi: int) -> list[_Filter]:
        # each share has its own filters: kept rows and running thresholds
        own = filters()
        blocks = _row_blocks(hi - lo, step)
        # one block's float64 keys, made for one query at a time
        buf = np.empty(max(b - a for a, b in blocks))
        for a, b in blocks:
            scores = _f32_scores(qs, data, ids, lo + a, lo + b)
            for f, g in zip(own, scores):
                f.take(g, lo + a, buf[:b - a])
            scores = g = None   # freed before the next block's sgemm
        return own

    # a share's running threshold is at most the final one, so its kept
    # rows hold every final survivor among its rows; joined in share order,
    # each query's kept positions ascend as one thread's do
    first, *later = _on_shares(stream, shares)
    for f, *others in zip(first, *later):
        f.pos = np.concatenate([f.pos] + [o.pos for o in others])
        f.key = np.concatenate([f.key] + [o.key for o in others])
    return [f.pool() for f in first]


def _row_norms(data: VectorSet, fn: SimilarityFn, ids: np.ndarray | None):
    """(norms, sqnorms, least norm, largest norm) of the rows ``ids`` of
    ``data`` (every row for None), as a :class:`_Filter` reads them;
    sqnorms only under reciprocal-euclidean."""
    if ids is None:
        return data.norms, data.sqnorms, data.min_norm, data.max_norm
    norms = data.norms[ids]
    sqnorms = (data.sqnorms[ids] if fn.kind == "reciprocal-euclidean"
               else None)
    return norms, sqnorms, float(norms.min()), float(norms.max())


def _caller_pool(q, data: VectorSet, fn: SimilarityFn, limit: int | None,
                 pool: RankedList | None) -> RankedList:
    """The pool a caller handed in, checked to be a :class:`RankedList`
    of the base: one similarity per id, distinct ids in [0, n), and
    similarities best first. One that :func:`rank` made has distinct ids
    and its similarities best first already, so only its id range is
    checked: it may rank another base. The query is checked by
    :func:`_one_query`, though only the pool is read. Without a pool, the
    ``limit``-row pool of :func:`full_scan_pool`."""
    if pool is None:
        return full_scan_pool(q, data, fn, limit)
    _one_query(q, fn, data)
    if len(pool.ids) != len(pool.sims):
        raise ValueError("pool ids and sims must have the same length")
    ordered = pool.ids if pool._ranked else np.sort(pool.ids)
    if len(ordered) and (ordered.min() < 0 or ordered.max() >= data.n):
        raise ValueError(f"pool ids must lie in [0, {data.n})")
    if pool._ranked:
        return pool
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("pool ids must be distinct")
    if np.any(pool.sims[1:] > pool.sims[:-1]):
        raise ValueError("pool sims must be non-increasing")
    return pool


class _Filter:
    """The certified float32 filter of one query q for the top-``limit``
    of the rows ``ids`` of a float32 base (every row for None), whose
    :func:`_row_norms` are ``rows``, from their float32 scores. q is a
    row of a checked block: |q| is the norm it took under one-plus-cosine,
    and otherwise, like |q32| and |q - q32|, the root of a dot product, as
    ``np.linalg.norm`` takes it. :meth:`pool` takes the scores of every
    row at once; a streamed scan hands them to :meth:`take` by blocks first.

    When q is beyond float32's range, when more rows survive than
    :func:`_max_survivors` allows (ties at the threshold) or when the
    certificate fails, :meth:`pool` ranks all the rows by their float64
    similarities instead (:func:`_exact_rank`). Every bound below reads
    the norms of the rows ranked, never those of the rest of the base; a
    zero row among them is an error under one-plus-cosine.

    Each kind ranks by a key in which its similarity increases: the dot
    product P = x.q (dot-product), P / |x| (one-plus-cosine) or
    P - |x|^2 / 2 (reciprocal-euclidean), estimated in float64 from the
    float64 upcast of g = fl32(x.q32), with q32 = fl32(q); the dot-product
    key is that upcast. For every row with finite g, ``|key - K| <= err``
    for the exact key K:

    * |g - x.q32| <= gamma_d(u32) |x|.|q32| + d 2^-149 for a dot product
      of d terms in any summation order, the last term covering products
      that underflow (Higham, *Accuracy and Stability of Numerical
      Algorithms*, 2002, section 3.1), and |x.q32 - x.q| <= |x| |q - q32|,
      q's own float32 rounding; by Cauchy-Schwarz |x|.|q32| <= |x| |q32|.
      So |g - P| <= |x| (|q - q32| + gamma_d(u32) |q32|) + d 2^-149.
    * The key's own float64 arithmetic adds its rounding, u64 times its
      magnitude per operation; the stored norms are within _SAFE of |x|.

    A row whose float32 score overflowed (inf or NaN) always survives.

    With tau the ``limit``-th best key, every row whose key is at least
    theta = tau - 2 err - 4 e64, compared exactly, survives; e64 bounds
    the float64 path's own error in key units. The survivors are scored
    by ``batch_ids`` and ranked by ``rank``. A non-survivor has K < theta
    + err, so its float64 similarity is at most ``upper(theta + err)``, an
    upper bound that counts every rounding of the float64 path. If the
    ``limit``-th survivor's similarity exceeds that bound, each
    non-survivor ranks below ``limit`` survivors, so the survivors'
    top-``limit`` is that of every row, ties included. The rows with key
    >= tau have K >= tau - err, which puts their similarities above that
    bound by at least e64, so the certificate fails only where the float64
    similarity itself stops separating rows: a threshold among dot
    products clamped to 0, or reciprocal-euclidean distances rounded to 0.

    tau itself is selected from few keys. :meth:`_floor` bounds it from
    below by a key of a 1-in-16 sample that at least ``limit`` keys reach
    (else it is tau). theta grows with tau, so the keys at or above the
    bound's theta hold every survivor, and tau is their ``limit``-th best:
    :meth:`pool` partitions only those. A streamed scan's first block sets
    its running threshold from its own keys' bound.

    No input reaches e64 (dot-product, one-plus-cosine) or e_d
    (reciprocal-euclidean) alone: a non-survivor ranks below each row with
    key >= tau unless both rows' float64 errors, in key units, exceed
    their gap, over 2 (err - err*) + 4 e64 with err* err without _SAFE's
    slack; that slack, or the 2^-40 r (r + delta) of a reciprocal-euclidean
    e64 where a norm is far from |q|, is at least 60 times those errors
    (tests/test_filtered_scan.py checks it).
    """

    def __init__(self, q, data: VectorSet, fn: SimilarityFn, limit: int,
                 ids: np.ndarray | None, rows: tuple) -> None:
        self.q, self.data, self.fn, self.limit, self.ids = \
            q, data, fn, limit, ids
        # a streamed scan's kept rows, their keys and its running threshold
        self.pos = np.empty(0, dtype=np.intp)
        self.key = np.empty(0)
        self.t = -np.inf
        v = q.vec
        self.exact = abs(v).max() > _F32_MAX
        if self.exact:
            return
        d = data.d
        self.n = data.n if ids is None else len(ids)
        norms, sqnorms, xmin, xmax = rows
        if fn.kind == "one-plus-cosine":
            _reject_zero_norms(xmin)
        q32 = v.astype(np.float32).astype(np.float64)
        nq32 = math.sqrt(q32 @ q32)
        nq = (q.norms[0] if q.norms else math.sqrt(v @ v)) * _SAFE
        under = d * 2.0 ** -149
        # bound on |g - P| per unit of |x|, q's rounding first
        dq = v - q32
        per_norm = (math.sqrt(dq @ dq) + _gamma(d, _U32) * nq32) * _SAFE
        # some partial sum may overflow: non-finite keys are set aside
        self.overflow = xmax * nq32 * (1.0 + _gamma(d, _U32)) >= _F32_MAX
        xmax *= _SAFE
        if fn.kind == "dot-product":
            self.err = (xmax * per_norm + under) * _SAFE
            # gamma_{d+8}: the extra 8 u64 covers evaluating ``upper``
            self.e64 = _gamma(d + 8, _U64) * xmax * nq * _SAFE
        elif fn.kind == "one-plus-cosine":
            self.norms = norms
            self.err = (per_norm + 2.0 * _U64 * nq32
                        + 2.0 * under / xmin) * _SAFE
            self.qn = q.norms[0]
            self.e64 = (_gamma(d, _U64) * nq + 16.0 * _U64 * self.qn) * _SAFE
        else:
            self.sqnorms = sqnorms
            xsq = xmax * xmax * _SAFE
            self.err = (xmax * per_norm + under
                        + 2.0 * _U64 * (xmax * nq32 + xsq)) * _SAFE
            self.qq = q.sqnorms[0]
            # float64 error of |x|^2 - 2 p + |q|^2, the squared distance
            self.e_d = (2.0 * _gamma(d + 2, _U64) * xmax * nq
                        + 4.0 * _U64 * (xsq + self.qq + xmax * nq)) * _SAFE

    def keys(self, g: np.ndarray, lo: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
        """The float64 keys of the rows lo, lo + 1, ... of the filter's rows
        from their float32 scores g, made in ``out`` if given. The float64
        upcast of g is copied in first, so no ufunc mixes float32 and
        float64 through a cast buffer; it is the dot-product key."""
        hi = lo + len(g)
        key = np.empty(len(g)) if out is None else out
        key[...] = g
        if self.fn.kind == "dot-product":
            return key
        if self.fn.kind == "one-plus-cosine":
            key /= self.norms[lo:hi]
            return key
        # g - |x|^2 / 2 as (2 g - |x|^2) / 2, the same float64 value:
        # doubling and halving are exact, since every finite g - |x|^2 / 2
        # is 0 or a normal number (g is a float32 value and |x|^2 >= 2^-298
        # unless 0); an overflowed g stays inf or NaN
        key *= 2.0
        key -= self.sqnorms[lo:hi]
        key *= 0.5
        return key

    def _lift(self, tau: float) -> float:
        """Set and return the threshold for a ``limit``-th best key tau:
        theta = tau - 2 err - 4 e64, compared exactly with the keys."""
        if self.fn.kind == "reciprocal-euclidean":
            # the distance at the threshold sets how far apart in key two
            # rows must be for their float64 similarities to differ; a
            # lower tau gives a larger e64, so a lower theta
            r = np.sqrt(max(self.qq - 2.0 * tau + 4.0 * self.err, 0.0))
            e64 = self.e_d + 2.0 ** -40 * r * (r + self.fn.delta)
        else:
            e64 = self.e64
        theta = tau - 2.0 * self.err - 4.0 * e64
        self.t = theta
        return theta

    def upper(self, k: float) -> float:
        """An upper bound on the float64 similarity of a row with exact
        key below k, counting every rounding of the float64 path."""
        kind = self.fn.kind
        if kind == "dot-product":
            return max(k + self.e64 * 2.0, 0.0)
        if kind == "one-plus-cosine":
            # 1 + (k + e64) / |q| bounds fl(fl(fl(p / |x|) / |q|) + 1);
            # the second e64 covers evaluating it
            return 1.0 + (k + self.e64 * 2.0) / self.qn
        d2 = max(self.qq - 2.0 * k - 2.0 * self.e_d, 0.0)
        return (1.0 + 16.0 * _U64) / (np.sqrt(d2) + self.fn.delta)

    def _tau(self, key: np.ndarray) -> float | None:
        """The ``limit``-th best key, of the finite ones where scores may
        overflow; None when fewer keys are."""
        if self.overflow:
            finite = np.isfinite(key)
            if np.count_nonzero(finite) < self.limit:
                return None
            key = np.where(finite, key, -np.inf)
        elif len(key) < self.limit:
            return None
        m = len(key) - self.limit
        return float(np.partition(key, m)[m])

    def _floor(self, key: np.ndarray) -> float | None:
        """A lower bound on :meth:`_tau` of ``key``, from the r-th best of
        every 16th key, r = limit / 16 plus twice its square root plus 2:
        when at least ``limit`` keys reach it, it is at most tau. Where
        that count fails, the sample is short or scores may overflow, it
        is tau itself (Floyd and Rivest, "Expected time bounds for
        selection", CACM 1975, select from a sample the same way)."""
        if not self.overflow:
            s = self.limit // 16
            sample = key[::16]
            m = len(sample) - (s + 2 * math.isqrt(s) + 2)
            if m >= 0:
                t = float(np.partition(sample, m)[m])
                if np.count_nonzero(key >= t) >= self.limit:
                    return t
        return self._tau(key)

    def _kept(self, key: np.ndarray) -> np.ndarray:
        """The positions of the keys at or above the threshold, and of the
        non-finite ones where scores may overflow."""
        keep = key >= self.t
        if self.overflow:
            keep |= ~np.isfinite(key)
        return keep.nonzero()[0]

    def take(self, g: np.ndarray, lo: int, out: np.ndarray) -> None:
        """Keep the rows lo, lo + 1, ... of a block, with float32 scores g,
        whose keys reach the running threshold, then raise it; ``out``
        takes the block's keys.

        The running threshold is that of the ``limit``-th best key seen so
        far, which is at most the final tau: theta grows with tau, so
        every row that survives the final threshold is kept. Until there
        is one, a block sets it from the :meth:`_floor` of its own keys,
        at most their tau.
        """
        if self.exact:
            return
        key = self.keys(g, lo, out)
        if self.t == -np.inf:
            floor = self._floor(key)
            if floor is not None:
                self._lift(floor)
        keep = self._kept(key)
        if not keep.size:
            return
        self.pos = np.concatenate((self.pos, keep + lo))
        self.key = np.concatenate((self.key, key[keep]))
        tau = self._tau(self.key)
        if tau is not None:
            self._lift(tau)
            keep = self._kept(self.key)
            self.pos, self.key = self.pos[keep], self.key[keep]

    def pool(self, g: np.ndarray | None = None) -> RankedList:
        """The top-``limit`` of the filter's rows, as base ids, from the
        float32 scores g of every row, or by default from the rows that
        :meth:`take` kept, which hold every row that survives."""
        q, data, fn, limit, ids = self.q, self.data, self.fn, self.limit, \
            self.ids
        if self.exact:
            return _exact_rank(q, data, fn, limit, ids)
        if g is None:
            key, pos = self.key, self.pos
        else:
            # the rows at or above the threshold of a lower bound on tau
            # hold every row the threshold of tau keeps, since theta grows
            # with tau, and tau is the limit-th best of their keys
            key = self.keys(g)
            floor = self._floor(key)
            if floor is None:   # fewer than limit finite keys
                return _exact_rank(q, data, fn, limit, ids)
            self._lift(floor)
            pos = self._kept(key)
            key = key[pos]
        tau = self._tau(key)
        if tau is None:   # fewer than limit finite keys
            return _exact_rank(q, data, fn, limit, ids)
        theta = self._lift(tau)
        keep = pos[self._kept(key)]
        if keep.size > _max_survivors(self.n):
            return _exact_rank(q, data, fn, limit, ids)
        if ids is not None:
            keep = ids[keep]
        pool = _exact_rank(q, data, fn, limit, keep)   # the survivors alone
        if pool.sims[-1] <= self.upper(theta + self.err):   # not certified
            return _exact_rank(q, data, fn, limit, ids)
        return pool


def alpha_topk(q, attribute: int, k: int, data: VectorSet,
               attrs: AttributeTable, fn: SimilarityFn,
               cfg: AlphaOracleConfig) -> RankedList:
    """Deterministically degraded top-k satisfying the per-rank guarantee
    sims[i] >= alpha * exact_sims[i] for every rank i.

    The output is a subsequence of the full exact ranking of D_l: at each
    rank the pick may jump forward past better vectors, but only while the
    remaining suffix can still fill every later rank within its own alpha
    bound. alpha = 1 short-circuits to the exact oracle.
    """
    if cfg.alpha == 1.0:
        return exact_topk(q, attribute, k, data, attrs, fn)
    full = exact_topk(q, attribute, k=max(k, len(attrs.inverted[attribute])),
                      data=data, attrs=attrs, fn=fn)
    m = len(full)
    kk = min(k, m)
    if kk == 0:
        return full
    sims = full.sims
    import hashlib   # here, not at module load: only this test oracle uses it
    qbytes = np.ascontiguousarray(np.asarray(q, dtype=np.float64)).tobytes()
    qhash = int.from_bytes(hashlib.blake2b(qbytes, digest_size=8).digest(), "little")
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFF, attribute, qhash, kk])

    def suffix_ok(start: int, r: int) -> bool:
        # consecutive picks from `start` must satisfy every remaining rank
        for t in range(r, kk):
            if sims[start + (t - r)] < cfg.alpha * sims[t]:
                return False
        return True

    picks: list[int] = []
    pos = 0
    for r in range(kk):
        hi = pos
        while (hi + 1 <= m - (kk - r)
               and sims[hi + 1] >= cfg.alpha * sims[r]
               and suffix_ok(hi + 1, r)):
            hi += 1
        pick = int(rng.integers(pos, hi + 1))
        picks.append(pick)
        pos = pick + 1
    idx = np.asarray(picks, dtype=np.intp)
    # a subsequence of a ranked list is ranked already
    return rank(sims[idx], full.ids[idx])
