"""The ranked-list type, the ranking rule and the per-attribute oracles.

A :class:`RankedList` holds candidates with distinct ids, best first, and
:func:`rank` is how one is made: by similarity descending, ascending id on
ties. Every top-k in the package goes through it, so the per-attribute
oracle lists here and the global candidate pools of :mod:`divknn.multi`
are the same type.

``exact_topk`` is the exact oracle over one inverted list: the true
top-min(k, |D_l|) vectors of the attribute by that rule. It ranks the
list's float64 similarities, or, for a list above 4096 rows of a float32
base, goes through the certified float32 filter of :func:`_filtered_pool`,
which re-scores in float64 only the rows that survive a proven threshold.
The global pools of :mod:`divknn.multi` go through the same filter.
``alpha_topk`` is a synthetic degraded oracle for test harnesses: it
returns real vectors whose i-th best similarity is at least ``alpha``
times the i-th best exact similarity, for every rank i.

A solver takes its oracle as a plain callable ``(q, attribute, k) ->
RankedList``, such as ``functools.partial(exact_topk, data=data,
attrs=attrs, fn=fn)``, so an external index backend can be slotted in
later. Oracles are stateless with respect to queries; the degraded oracle
derives its randomness from (seed, query bytes, attribute), so results do
not depend on thread count or call order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import AttributeTable, SimilarityFn, VectorSet, _reject_zero_norms


@dataclass(frozen=True, eq=False)
class RankedList:
    """Candidates with distinct ids ranked by similarity, best first."""

    ids: np.ndarray    # intp, ascending id within equal similarity
    sims: np.ndarray   # float64, non-increasing

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
    return out


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


# the filter may always keep this many rows (the floor of _max_survivors);
# a list of at most this many rows could survive it whole, so
# :func:`exact_topk` ranks it in float64 directly
_SURVIVOR_FLOOR = 4096


def _max_survivors(n: int) -> int:
    """Most rows the float32 filter gathers and re-scores out of n. Past
    an eighth of a base the gather and float64 upcast of the survivors
    cost more than the blockwise float64 scan of every row (1M x 96, one
    BLAS thread: 136 against 159 ms per query at L = n/8, 234 against 167
    ms at n/4). Below 32768 rows the bound is 4096 rows, a gather small
    enough not to matter either way."""
    return max(n // 8, _SURVIVOR_FLOOR)


def _filters(data: VectorSet, limit: int | None, n: int) -> bool:
    """Whether the top-``limit`` of n rows of ``data`` is ranked through
    the float32 filter."""
    return data.data.dtype == np.float32 and limit is not None and \
        limit < n and limit <= _max_survivors(n)


def exact_topk(q, attribute: int, k: int, data: VectorSet,
               attrs: AttributeTable, fn: SimilarityFn) -> RankedList:
    """True top-min(k, |D_l|) of attribute l by sigma(q, .); an empty
    inverted list yields an empty list.

    The list's rows are gathered and scored in float64, except over a
    float32 base for a list above 4096 rows: there one sgemv scores the
    gathered float32 rows and :func:`_filtered_pool` re-scores in float64
    only the rows above its certified threshold, with the same ids and
    order. Below about 2000-4000 rows (d = 32) the filter costs more than
    it saves. A query beyond float32's range, or a filter that cannot
    certify its list, scores every row of the list in float64.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= attribute < attrs.c):
        raise ValueError(f"attribute id {attribute} outside [0, {attrs.c})")
    members = attrs.inverted[attribute]
    if len(members) > _SURVIVOR_FLOOR and _filters(data, k, len(members)):
        q = fn.query(q)
        pool = _filtered_pool(q, data, fn, k, ids=members)
        if pool is not None:
            return pool
    return rank(fn.batch_ids(q, data, members), members, k)


def _filtered_pool(q, data: VectorSet, fn: SimilarityFn, limit: int,
                   g: np.ndarray | None = None,
                   ids: np.ndarray | None = None) -> RankedList | None:
    """The top-``limit`` of the rows ``ids`` of a float32 base (every row
    by default), as base ids, from their float32 scores ``g`` (by default
    one sgemv of the gathered rows), re-scoring only the rows that survive
    a certified threshold. ``limit`` is below the row count. None when q
    is beyond float32's range, when more rows survive than
    :func:`_max_survivors` allows (ties at the threshold) or when the
    certificate fails: then every row must be ranked in float64. Every
    bound below reads the norms of the rows ranked, never those of the
    rest of the base; a zero row among them is an error under
    one-plus-cosine.

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
    ``limit`` survivors, so the survivors' top-``limit`` is that of every
    row, ties included. The rows with key >= tau have K >= tau - err,
    which puts their similarities above that bound by at least e64, so the
    certificate fails only where the float64 similarity itself stops
    separating rows: a threshold among dot products clamped to 0, or
    reciprocal-euclidean distances rounded to 0.
    """
    v = q.vec
    if abs(v).max() > _F32_MAX:
        return None
    d = data.d
    if ids is None:
        n, norms, xmin, xmax = data.n, data.norms, data.min_norm, data.max_norm
    else:
        n, norms = len(ids), data.norms[ids]
        xmin, xmax = float(norms.min()), float(norms.max())
    if fn.kind == "one-plus-cosine":
        _reject_zero_norms(xmin)
    if g is None:
        rows = data.data if ids is None else np.take(data.data, ids, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            g = rows @ v.astype(np.float32)
    q32 = v.astype(np.float32).astype(np.float64)
    nq32 = np.linalg.norm(q32)
    nq = np.linalg.norm(v) * _SAFE
    under = d * 2.0 ** -149
    # bound on |g - P| per unit of |x|, q's rounding first
    per_norm = (np.linalg.norm(v - q32) + _gamma(d, _U32) * nq32) * _SAFE
    xmax *= _SAFE
    if fn.kind == "dot-product":
        key = g
        err = (xmax * per_norm + under) * _SAFE
        # gamma_{d+8}: the extra 8 u64 covers evaluating ``upper``
        e64 = _gamma(d + 8, _U64) * xmax * nq * _SAFE

        def upper(k):
            return max(k + e64 * 2.0, 0.0)
    elif fn.kind == "one-plus-cosine":
        key = g / norms
        err = (per_norm + 2.0 * _U64 * nq32 + 2.0 * under / xmin) * _SAFE
        qn = q.norms[0]
        e64 = (_gamma(d, _U64) * nq + 16.0 * _U64 * qn) * _SAFE

        def upper(k):
            # 1 + (k + e64) / |q| bounds fl(fl(fl(p / |x|) / |q|) + 1);
            # the second e64 covers evaluating it
            return 1.0 + (k + e64 * 2.0) / qn
    else:
        with np.errstate(invalid="ignore"):   # inf - inf from an overflow
            key = g - 0.5 * (data.sqnorms if ids is None
                             else data.sqnorms[ids])
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
    keep = keep.nonzero()[0]
    if keep.size > _max_survivors(n):
        return None
    if ids is not None:
        keep = ids[keep]
    pool = rank(fn.batch_ids(q, data, keep), keep, limit)
    return None if pool.sims[-1] <= upper(theta + err) else pool


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
