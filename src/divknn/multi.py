"""Multi-attribute greedy solvers over a candidate pool.

In the multi-attribute setting exact welfare maximization is intractable, so
these solvers greedily grow the answer one vector at a time. Each round
scores every remaining candidate v by the change its inclusion causes in the
objective; only the attributes of v move, so the score is a sum over atb(v):

* Nash:      (1/c) sum_l [log(u_l + s_v + eta) - log(u_l + eta)], maximized.
             With eta = 1 this is the marginal of a monotone submodular
             function that is 0 on the empty set, so k rounds of greedy are
             within a (1 - 1/e) factor of the optimal log Nash welfare.
* p in (0,1]: marginal of sum_l (u_l + eta)^p, maximized.
* p < 0:      the same marginal, minimized (largest decrease wins).

Every round evaluates every remaining candidate's marginal exactly, in one
batch over the pool's (candidate, attribute) entries; there is no lazy heap
of stale upper bounds. Ties go to the earliest candidate in pool order.

``multi_div_ann`` is the hard-capped baseline: greedy by similarity, skipping
any candidate that would lift some attribute above k' picks. It may stall
before reaching k (finding a feasible size-k set is itself intractable in
general); the result is then truncated rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AttributeTable, Selection, SimilarityFn, VectorSet,
                   WelfareParams, welfare)
from .oracle import rank


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Candidates for one query: distinct ids sorted by similarity
    descending, ascending id on ties."""

    ids: np.ndarray    # intp
    sims: np.ndarray   # float64

    def __post_init__(self) -> None:
        ordered = np.sort(self.ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("pool ids must be distinct")

    def __len__(self) -> int:
        return len(self.ids)


# unit roundoffs of float32 and float64
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53
# relative slack on every bound: it covers the float64 rounding of the
# stored norms and of computing the bound itself, for any d below 2^30
_SAFE = 1.0 + 2.0 ** -20
_F32_MAX = float(np.finfo(np.float32).max)


def _gamma(m: int, u: float) -> float:
    """Higham's gamma_m = m u / (1 - m u)."""
    return m * u / (1.0 - m * u)


def _max_survivors(n: int) -> int:
    """Most rows the float32 filter gathers and re-scores over an n-row
    base. Past an eighth of the base the gather and float64 upcast of the
    survivors cost more than the blockwise float64 scan of every row (1M x
    96, one BLAS thread: 136 against 159 ms per query at L = n/8, 234
    against 167 ms at n/4). Below 32768 rows the bound is 4096 rows, a
    gather small enough not to matter either way."""
    return max(n // 8, 4096)


def _filters(data: VectorSet, limit: int | None) -> bool:
    """Whether a pool of ``limit`` rows of ``data`` is ranked through the
    float32 filter."""
    return data.data.dtype == np.float32 and limit is not None and \
        limit < data.n and limit <= _max_survivors(data.n)


def _f32_scores(q, data: VectorSet, fn: SimilarityFn) -> np.ndarray:
    """float32 dot products of the float32-rounded query, or (b, d) block
    of queries, with every row, in one sgemv or sgemm. A block is scored as
    base times queries, which sgemm runs about 1.5x faster than the
    query-major product, and transposed so each query's row is contiguous.
    A query beyond float32's range or an overflowing dot product gives inf
    or NaN scores, which :func:`_ranked_pool` handles."""
    fn.check_rows(data)
    with np.errstate(over="ignore", invalid="ignore"):
        q32 = q.vec.astype(np.float32)
        return np.ascontiguousarray((data.data @ q32.T).T)


def full_scan_pool(q, data: VectorSet, fn: SimilarityFn,
                   limit: int | None = None) -> CandidatePool:
    """Pool of the ``limit`` most similar vectors (all of them by default),
    with their float64 similarities; :func:`block_pools` makes the same
    pools for a block of queries in one pass over the base.

    Over a float64 base, and for ``limit=None``, ``limit >= n`` or a limit
    above :func:`_max_survivors` (an eighth of a large base), every row's
    float64 similarity is ranked. Over a float32 base a smaller ``limit``
    goes through :func:`_filtered_pool`: float32 scores, a certified
    threshold, and float64 only for the rows that survive it. Both give
    the same ids and order, up to rows whose float64 similarities differ
    only in the last place: the filter scores its survivors by a gather's
    GEMV, whose last bits may differ from those of a whole-array scan.
    """
    q = fn.query(q)
    # a query beyond float32's range is ranked in float64 at once
    scores = (_f32_scores(q, data, fn) if _filters(data, limit)
              and np.abs(q.vec).max() <= _F32_MAX else fn.scan(q, data))
    return _ranked_pool(q, data, fn, limit, scores)


def block_pools(qs, data: VectorSet, fn: SimilarityFn,
                limit: int | None = None) -> list[CandidatePool]:
    """``[full_scan_pool(q, data, fn, limit) for q in qs]`` for a (b, d)
    block of queries, reading the base once for the whole block: one sgemm
    where the pools are filtered, one float64 block scan otherwise. A row
    of the block's GEMM may differ from the single query's GEMV in the
    last place, so similarities may too, and ids only where two rows' true
    similarities are that close."""
    qs = fn.query(qs)
    scores = (_f32_scores(qs, data, fn) if _filters(data, limit)
              else fn.scan(qs, data))
    return [_ranked_pool(fn.query(v), data, fn, limit, row)
            for v, row in zip(qs.vec, scores)]


def _ranked_pool(q, data: VectorSet, fn: SimilarityFn, limit: int | None,
                 scores: np.ndarray) -> CandidatePool:
    """The pool from one query's float32 scores, through the filter, or
    its float64 similarities. A query beyond float32's range, or a filter
    that cannot certify its pool, ranks every row in float64 instead."""
    if scores.dtype == np.float32:
        pool = (_filtered_pool(q, data, fn, limit, scores)
                if np.abs(q.vec).max() <= _F32_MAX else None)
        if pool is not None:
            return pool
        scores = fn.scan(q, data)
    ids = rank(scores, limit=limit)
    return CandidatePool(ids=ids, sims=scores[ids])


def _filtered_pool(q, data: VectorSet, fn: SimilarityFn, limit: int,
                   g: np.ndarray) -> CandidatePool | None:
    """The top-``limit`` pool over a float32 base from its float32 scores
    ``g``, re-scoring only the rows that survive a certified threshold; None
    when more rows survive than :func:`_max_survivors` allows (ties at the
    threshold) or the certificate fails, and every row must be ranked in
    float64.

    Each kind ranks by a key in which its similarity increases: the dot
    product P = x.q (dot-product), P / |x| (one-plus-cosine) or
    P - |x|^2 / 2 (reciprocal-euclidean), estimated from g = fl32(x.q32)
    with q32 = fl32(q). For every row with finite g, ``|key - K| <= err``
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

    With tau the ``limit``-th best key, every row with key >= theta =
    tau - 2 err - 4 e64 survives; e64 bounds the float64 path's own error
    in key units. The survivors are scored by ``batch_ids`` and ranked by
    ``rank``. A non-survivor has K < theta + err, so its float64
    similarity is at most ``upper(theta + err)``, an upper bound that
    counts every rounding of the float64 path. If the ``limit``-th
    survivor's similarity exceeds that bound, each non-survivor ranks below
    ``limit`` survivors, so the survivors' top-``limit`` is the whole
    base's, ties included. The rows with key >= tau have K >= tau - err,
    which puts their similarities above that bound by at least e64, so the
    certificate fails only where the float64 similarity itself stops
    separating rows: a threshold among dot products clamped to 0, or
    reciprocal-euclidean distances rounded to 0.
    """
    n, d = data.n, data.d
    v = q.vec
    q32 = v.astype(np.float32).astype(np.float64)
    nq32 = np.linalg.norm(q32)
    nq = np.linalg.norm(v) * _SAFE
    under = d * 2.0 ** -149
    # bound on |g - P| per unit of |x|, q's rounding first
    per_norm = (np.linalg.norm(v - q32) + _gamma(d, _U32) * nq32) * _SAFE
    xmax = data.max_norm * _SAFE
    if fn.kind == "dot-product":
        key = g
        err = (xmax * per_norm + under) * _SAFE
        # gamma_{d+8}: the extra 8 u64 covers evaluating ``upper``
        e64 = _gamma(d + 8, _U64) * xmax * nq * _SAFE

        def upper(k):
            return max(k + e64 * 2.0, 0.0)
    elif fn.kind == "one-plus-cosine":
        key = g / data.norms
        err = (per_norm + 2.0 * _U64 * nq32
               + 2.0 * under / data.min_norm) * _SAFE
        qn = q.norms[0]
        e64 = (_gamma(d, _U64) * nq + 16.0 * _U64 * qn) * _SAFE

        def upper(k):
            # 1 + (k + e64) / |q| bounds fl(fl(fl(p / |x|) / |q|) + 1);
            # the second e64 covers evaluating it
            return 1.0 + (k + e64 * 2.0) / qn
    else:
        with np.errstate(invalid="ignore"):   # inf - inf from an overflow
            key = g - 0.5 * data.sqnorms
        xsq = xmax * xmax * _SAFE
        err = (xmax * per_norm + under
               + 2.0 * _U64 * (xmax * nq32 + xsq)) * _SAFE
        qq = q.sqnorms[0]
        # float64 error of |x|^2 - 2 p + |q|^2, the squared distance
        e_d = (2.0 * _gamma(d + 2, _U64) * xmax * nq
               + 4.0 * _U64 * (xsq + qq + xmax * nq)) * _SAFE

        def upper(k):
            d2 = max(qq - 2.0 * k - 2.0 * e_d, 0.0)
            return (1.0 + 16.0 * _U64) / (np.sqrt(d2) + fn.delta)

    finite = None
    if xmax * nq32 * (1.0 + _gamma(d, _U32)) >= _F32_MAX:
        # some partial sum may overflow: non-finite keys are set aside
        finite = np.isfinite(key)
        if np.count_nonzero(finite) < limit:
            return None
        tau = float(np.partition(np.where(finite, key, -np.inf),
                                 n - limit)[n - limit])
    else:
        tau = float(np.partition(key, n - limit)[n - limit])
    if fn.kind == "reciprocal-euclidean":
        # the distance at the threshold sets how far apart in key two
        # rows must be for their float64 similarities to differ
        r = np.sqrt(max(qq - 2.0 * tau + 4.0 * err, 0.0))
        e64 = e_d + 2.0 ** -40 * r * (r + fn.delta)
    theta = tau - 2.0 * err - 4.0 * e64
    # compare in the key's dtype (float32 for dot-product) against theta
    # rounded down, never up
    with np.errstate(over="ignore"):
        t = key.dtype.type(theta)
    if t > theta:
        t = np.nextafter(t, key.dtype.type(-np.inf))
    keep = key >= t
    if finite is not None:
        keep |= ~finite
    keep = np.flatnonzero(keep)
    if keep.size > _max_survivors(n):
        return None
    sims = fn.batch_ids(q, data, keep)
    order = rank(sims, keep, limit)
    if sims[order[-1]] <= upper(theta + err):
        return None
    return CandidatePool(ids=keep[order], sims=sims[order])


def _greedy_pool(q, k: int, params: WelfareParams, data: VectorSet,
                 attrs: AttributeTable, fn: SimilarityFn,
                 pool: CandidatePool | None) -> Selection:
    """Shared greedy engine behind :func:`multi_nash_ann` and
    :func:`multi_p_mean_ann`; the pool defaults to all of P."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if pool is None:
        pool = full_scan_pool(q, data, fn)
    if len(pool) == 0:
        raise ValueError("empty candidate pool")
    nash, p, eta = params.is_nash, params.p, params.eta
    sign = 1.0 if (nash or p > 0) else -1.0  # maximize sign * marginal
    # one entry per (candidate, attribute) pair, candidates in pool order
    lengths, attr = attrs.gather(pool.ids)
    starts = np.cumsum(lengths) - lengths
    s = np.repeat(pool.sims, lengths)
    u = np.zeros(attrs.c, dtype=np.float64)
    taken = np.zeros(len(pool), dtype=bool)
    chosen: list[int] = []
    kk = min(k, len(pool))
    for _ in range(kk):
        # the same values as (u[attr] + eta) + s and f(u[attr] + eta), with
        # f evaluated once per attribute rather than once per entry
        ue = u + eta
        if nash:
            g = np.log(ue[attr] + s) - np.log(ue)[attr]
        else:
            g = np.power(ue[attr] + s, p) - np.power(ue, p)[attr]
        key = sign * np.add.reduceat(g, starts)
        # argmax takes the first of equal keys, i.e. the lowest pool index;
        # a NaN marginal (inf - inf) never wins, and when no candidate left
        # scores above -inf the first one left is taken
        key[taken | np.isnan(key)] = -np.inf
        i = int(np.argmax(key))
        if key[i] == -np.inf:
            i = int(np.argmin(taken))
        taken[i] = True
        chosen.append(int(pool.ids[i]))
        u[attr[starts[i]:starts[i] + lengths[i]]] += pool.sims[i]
    return Selection(ids=tuple(chosen), utilities=u,
                     objective=welfare(u, params), truncated=kk < k)


def multi_nash_ann(q, k: int, eta: float, data: VectorSet,
                   attrs: AttributeTable, fn: SimilarityFn,
                   pool: CandidatePool | None = None) -> Selection:
    """Greedy log-Nash-welfare maximization over a pool (or all of P).

    The (1 - 1/e) guarantee on log Nash welfare holds for eta = 1 over the
    full vector set; other eta values and restricted pools run the same
    greedy heuristically.
    """
    return _greedy_pool(q, k, WelfareParams(p=0.0, eta=eta), data, attrs, fn,
                        pool)


def multi_p_mean_ann(q, k: int, params: WelfareParams, data: VectorSet,
                     attrs: AttributeTable, fn: SimilarityFn,
                     pool: CandidatePool | None = None) -> Selection:
    """Greedy p-mean heuristic over a pool: maximize the per-round change of
    sum (u_l + eta)^p for p > 0, minimize it for p < 0; p = 0 runs the Nash
    greedy of :func:`multi_nash_ann`. No approximation guarantee is
    asserted."""
    return _greedy_pool(q, k, params, data, attrs, fn, pool)


def multi_div_ann(q, k: int, kprime: int, data: VectorSet,
                  attrs: AttributeTable, fn: SimilarityFn,
                  pool: CandidatePool | None = None,
                  eta: float = 1.0) -> Selection:
    """Similarity-greedy selection under a hard per-attribute cap k'.

    A candidate is admitted only if every attribute it carries stays within
    k' picks. When every remaining candidate touches a saturated attribute,
    the selection stalls and returns truncated.
    """
    if k < 1 or kprime < 1:
        raise ValueError("k and kprime must be >= 1")
    if pool is None:
        pool = full_scan_pool(q, data, fn)
    if len(pool) == 0:
        raise ValueError("empty candidate pool")
    counts = np.zeros(attrs.c, dtype=np.intp)
    chosen: list[int] = []
    u = np.zeros(attrs.c, dtype=np.float64)
    for i in range(len(pool)):
        if len(chosen) == k:
            break
        v = int(pool.ids[i])
        row = attrs.indices[attrs.indptr[v]:attrs.indptr[v + 1]].tolist()
        if all(counts[a] < kprime for a in row):
            chosen.append(v)
            s = float(pool.sims[i])
            for a in row:
                counts[a] += 1
                u[a] += s
    params = WelfareParams(p=0.0, eta=eta)
    return Selection(ids=tuple(chosen), utilities=u,
                     objective=welfare(u, params), truncated=len(chosen) < k)
