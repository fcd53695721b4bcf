"""Standard top-k search, the hard-capped baseline, and the
fetch-then-select heuristic.

``div_ann`` maximizes total similarity under a cap of k' picks per
attribute; a partition-matroid constraint in the single-attribute setting,
so top-k' per attribute followed by a global top-k of the capped union is
exact. ``fetch_union`` pulls the L globally most similar candidates in one
pass and runs the welfare greedy inside that pool, trading a little welfare
for one scan instead of one per attribute.
"""

from __future__ import annotations

import numpy as np

from .core import (AttributeTable, Selection, SimilarityFn, VectorSet,
                   WelfareParams, utilities, welfare)
from .oracle import RankedList, _caller_pool, rank
from .solvers import GreedyStats, _prefetch, _selection


def top_k(q, k: int, data: VectorSet, fn: SimilarityFn,
          attrs: AttributeTable | None = None,
          params: WelfareParams | None = None,
          pool: RankedList | None = None) -> Selection:
    """The k most similar vectors, ties by ascending id.

    Utilities and objective are filled when an attribute table (and
    optionally welfare params) are supplied. A caller that already holds
    ``full_scan_pool(q, data, fn, limit=m)`` for some m >= k passes it as
    ``pool``; its head is the answer.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = fn.query(q)
    pool = _caller_pool(q, data, fn, k, pool)
    ids = pool.ids[:k].tolist()
    if attrs is None:
        return Selection(ids=tuple(ids), truncated=len(ids) < k)
    return _scored(q, ids, k, data, attrs, fn, params)


def _scored(q, ids: list[int], k: int, data: VectorSet,
            attrs: AttributeTable, fn: SimilarityFn,
            params: WelfareParams | None) -> Selection:
    """The picks ``ids`` of a size-k request with their utilities and
    welfare (Nash, eta = 1, unless ``params`` says otherwise)."""
    u = utilities(q, ids, data, attrs, fn)
    return Selection(ids=tuple(ids), utilities=u,
                     objective=welfare(u, params or WelfareParams()),
                     truncated=len(ids) < k)


def div_ann(q, k: int, kprime: int, data: VectorSet, attrs: AttributeTable,
            fn: SimilarityFn, oracle=None,
            params: WelfareParams | None = None) -> Selection:
    """Most similar k vectors subject to at most k' per attribute
    (single-attribute setting; exact for this separable constraint)."""
    attrs.require_single()
    if k < 1 or kprime < 1:
        raise ValueError("k and kprime must be >= 1")
    q, ids, sims, _ = _prefetch(q, kprime, data, attrs, fn, oracle)
    return _scored(q, rank(sims, ids, k).ids.tolist(), k, data, attrs, fn,
                   params)


def fetch_union(q, k: int, L: int, params: WelfareParams, data: VectorSet,
                attrs: AttributeTable, fn: SimilarityFn,
                stats: GreedyStats | None = None,
                pool: RankedList | None = None) -> Selection:
    """Welfare greedy restricted to the top-L global candidates.

    The pool is fetched in one pass regardless of attributes, grouped into
    per-attribute lists (already similarity-sorted), and the same greedy
    rule as the exact solvers picks k vectors inside it. L = n recovers the
    exact solver; L = k degenerates to plain top-k. A caller that holds
    ``full_scan_pool(q, data, fn, limit=m)``, m >= L, passes it as ``pool``
    and its head L rows are the candidates.
    """
    attrs.require_single()
    if k < 1:
        raise ValueError("k must be >= 1")
    if L < k:
        raise ValueError("pool size L must be >= k")
    pool = _caller_pool(q, data, fn, L, pool)
    ids, sims = pool.ids[:L], pool.sims[:L]
    labels = attrs.labels[ids]
    # group the pool by attribute in one stable pass; within an attribute
    # the pool order (similarity descending) is preserved. Keys of the
    # narrowest unsigned type let numpy's stable sort use radix sort.
    order = np.argsort(labels.astype(np.min_scalar_type(attrs.c)),
                       kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(attrs.c + 1))
    if stats is not None:
        stats.pool_attributes = int(np.count_nonzero(np.diff(bounds)))
    return _selection(ids[order], sims[order], bounds, k, params, stats)
