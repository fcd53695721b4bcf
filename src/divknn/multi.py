"""The multi-attribute greedy solvers, over a candidate pool that
:mod:`divknn.oracle` ranks: a pool handed in is checked there, and without
one a solver scans for its own (:func:`~divknn.oracle.full_scan_pool`).

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

The greedy is exact: every round picks the remaining candidate with the
best marginal, ties to the earliest in pool order; there is no lazy heap of
stale upper bounds. The engine keeps the marginals in a (w, m) slot
matrix, w the most attributes any of the m candidates carries: slot j of
candidate i holds the marginal of its j-th attribute, and the slots past a
candidate's last attribute hold 0.0. A round's keys are w - 1 in-order
adds of the matrix rows, ((g_0 + g_1) + g_2) + ..., and a pick changes the
utility of its own attributes only, so after it only their entries are
recomputed. A ragged table pays m * w marginals however few attributes
most candidates carry: one vector with all c attributes makes it m * c.

``multi_div_ann`` is the hard-capped baseline: greedy by similarity, skipping
any candidate that would lift some attribute above k' picks. It may stall
before reaching k (finding a feasible size-k set is itself intractable in
general); the result is then truncated rather than an error.
"""

from __future__ import annotations

import numpy as np

from .core import (AttributeTable, Selection, SimilarityFn, VectorSet,
                   WelfareParams, welfare)
# full_scan_pool is unused here: the benchmark calls and traces it by this name
from .oracle import RankedList, _caller_pool, full_scan_pool  # noqa: F401


def _greedy_pool(q, k: int, params: WelfareParams, data: VectorSet,
                 attrs: AttributeTable, fn: SimilarityFn,
                 pool: RankedList | None) -> Selection:
    """Shared greedy engine behind :func:`multi_nash_ann` and
    :func:`multi_p_mean_ann`; the pool defaults to all of P."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = _caller_pool(q, data, fn, None, pool)
    if len(pool) == 0:
        raise ValueError("empty candidate pool")
    nash, p, eta = params.is_nash, params.p, params.eta
    sign = 1.0 if (nash or p > 0) else -1.0  # maximize sign * marginal

    def f(x, out=None):
        return np.log(x, out=out) if nash else np.power(x, p, out=out)

    # the marginals as a (w, m) slot matrix: slot j of candidate i holds the
    # marginal of its j-th attribute, and a pad slot (attribute c) 0.0. One
    # stable radix sort of the slots puts the matrix positions of attribute
    # a's entries in order[bounds[a]:bounds[a + 1]]; the pads sort last
    slots = attrs.slots(pool.ids).astype(np.min_scalar_type(attrs.c))
    w, m = slots.shape
    order = slots.ravel().argsort(kind="stable")
    bounds = slots.ravel()[order].searchsorted(np.arange(attrs.c + 1))
    order = order[:bounds[-1]]
    bounds = bounds.tolist()
    s = pool.sims[None].repeat(w, axis=0).ravel()[order]
    # marginals f(u_a + eta + s) - f(u_a + eta), with f(u + eta) evaluated
    # once per attribute; at u = 0 they depend on the candidate alone
    u = np.zeros(attrs.c, dtype=np.float64)
    ue = u + eta
    g = np.where(slots < attrs.c, f(ue[0] + pool.sims) - f(ue)[0], 0.0)
    flat = g.ravel()
    # keys are sign * (((g0 + g1) + g2) + ...), the rows added in order,
    # never pairwise as sum(axis=0) may; a pad adds 0.0, which changes no
    # key. Under a negative sign each row is subtracted from the negated
    # first, as (-a) - b is -(a + b) exactly. The first row's factor turns
    # from sign to NaN when its candidate is taken
    add = np.add if sign > 0 else np.subtract
    weight = np.full(m, sign)
    key = np.empty(m)
    chosen: list[int] = []
    kk = min(k, m)
    while True:
        np.multiply(g[0], weight, out=key)
        for gj in g[1:]:
            add(key, gj, out=key)
        # argmax takes the first of equal keys, i.e. the lowest pool index;
        # fmax makes a NaN key (taken, or inf - inf) -inf, and when no
        # candidate left scores above -inf the first one left is taken
        np.fmax(key, -np.inf, out=key)
        i = int(key.argmax())
        if key[i] == -np.inf:
            i = int(np.isnan(weight).argmin())
        weight[i] = np.nan
        v = int(pool.ids[i])
        chosen.append(v)
        row = attrs.indices[attrs.indptr[v]:attrs.indptr[v + 1]]
        u[row] += pool.sims[i]
        if len(chosen) == kk:
            break
        # the pick moved its own attributes only: recompute their entries,
        # with f(u + eta) taken over all c attributes as in the first pass
        ue = u + eta
        fue = f(ue)
        for a in row.tolist():
            lo, hi = bounds[a], bounds[a + 1]
            x = ue[a] + s[lo:hi]
            f(x, out=x)
            x -= fue[a]
            flat[order[lo:hi]] = x
    return Selection(ids=tuple(chosen), utilities=u,
                     objective=welfare(u, params), truncated=kk < k)


def multi_nash_ann(q, k: int, eta: float, data: VectorSet,
                   attrs: AttributeTable, fn: SimilarityFn,
                   pool: RankedList | None = None) -> Selection:
    """Greedy log-Nash-welfare maximization over a pool (or all of P).

    The (1 - 1/e) guarantee on log Nash welfare holds for eta = 1 over the
    full vector set; other eta values and restricted pools run the same
    greedy heuristically.
    """
    return _greedy_pool(q, k, WelfareParams(p=0.0, eta=eta), data, attrs, fn,
                        pool)


def multi_p_mean_ann(q, k: int, params: WelfareParams, data: VectorSet,
                     attrs: AttributeTable, fn: SimilarityFn,
                     pool: RankedList | None = None) -> Selection:
    """Greedy p-mean heuristic over a pool: maximize the per-round change of
    sum (u_l + eta)^p for p > 0, minimize it for p < 0; p = 0 runs the Nash
    greedy of :func:`multi_nash_ann`. No approximation guarantee is
    asserted."""
    return _greedy_pool(q, k, params, data, attrs, fn, pool)


def multi_div_ann(q, k: int, kprime: int, data: VectorSet,
                  attrs: AttributeTable, fn: SimilarityFn,
                  pool: RankedList | None = None,
                  eta: float = 1.0) -> Selection:
    """Similarity-greedy selection under a hard per-attribute cap k'.

    A candidate is admitted only if every attribute it carries stays within
    k' picks. When every remaining candidate touches a saturated attribute,
    the selection stalls and returns truncated.
    """
    if k < 1 or kprime < 1:
        raise ValueError("k and kprime must be >= 1")
    pool = _caller_pool(q, data, fn, None, pool)
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
