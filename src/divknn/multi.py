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


def full_scan_pool(q, data: VectorSet, fn: SimilarityFn,
                   limit: int | None = None,
                   sims: np.ndarray | None = None) -> CandidatePool:
    """Pool of the ``limit`` most similar vectors (all of them by default).

    A caller that already holds q's similarities to every row of ``data``
    (one row of a query block's scores) passes them as ``sims``, and the
    base is not scanned again.
    """
    if sims is None:
        sims = fn.batch(q, data.data, row_norms=data.norms,
                        row_sqnorms=data.sqnorms)
    ids = rank(sims, limit=limit)
    return CandidatePool(ids=ids, sims=sims[ids])


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
