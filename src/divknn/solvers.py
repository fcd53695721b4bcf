"""Exact single-attribute welfare solvers.

Both solvers share the same two-phase shape: prefetch the per-attribute
top-min(k, |D_l|) ranked lists through an oracle, then run k greedy rounds.
Each round scores, for every live attribute, the marginal effect of taking
that attribute's next-ranked vector on the configured welfare:

* Nash (p = 0): maximize log(w_l + eta + s) - log(w_l + eta).
* p in (0, 1]:  maximize (w_l + eta + s)^p - (w_l + eta)^p.
* p < 0:        minimize the same quantity (it is <= 0; the most negative
                marginal is the largest gain in M_p).

Here w_l is the running utility of attribute l and s the similarity of its
next unselected prefetched vector. With an exact oracle the returned set is
welfare-optimal; with an alpha-approximate oracle the welfare is within a
factor alpha of optimal. Ties break to the lowest attribute id, and within
an attribute the oracle order (descending similarity, ascending id) applies.

A round changes only the picked attribute's (w_l, next s), so only that
attribute's marginal is recomputed; the others carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (AttributeTable, Selection, SimilarityFn, VectorSet,
                   WelfareParams, welfare)
from .oracle import RankedList, exact_topk


@dataclass
class GreedyStats:
    """Counters for the greedy phase; useful to verify the O(kc) bound."""

    rounds: int = 0
    comparisons: int = 0
    pool_attributes: int = 0


def prefetch_streams(q, k: int, attrs: AttributeTable,
                     oracle) -> list[RankedList]:
    """Fetch min(k, |D_l|) ranked entries for every attribute."""
    return [oracle(q, a, k) for a in range(attrs.c)]


def _gain(w, s, params: WelfareParams):
    """Marginal of adding similarity s to running utility w, signed so that
    larger is better (elementwise on arrays)."""
    base = w + params.eta
    if params.is_nash:
        return np.log(base + s) - np.log(base)
    g = np.power(base + s, params.p) - np.power(base, params.p)
    return g if params.p > 0 else -g


def greedy_select(ids: np.ndarray, sims: np.ndarray, bounds: np.ndarray,
                  k: int, params: WelfareParams,
                  stats: GreedyStats | None = None
                  ) -> tuple[list[int], np.ndarray, bool]:
    """Run the k greedy rounds over grouped ranked lists.

    Attribute l's list is ``ids[bounds[l]:bounds[l + 1]]`` with similarities
    ``sims[bounds[l]:bounds[l + 1]]``, best first. Returns the chosen vector
    ids in selection order, the per-attribute utilities and a truncation
    flag (set when every list exhausts before k picks). ``live`` stays
    ascending and max() keeps the first maximum, so ties resolve to the
    lowest attribute id.
    """
    c = len(bounds) - 1
    head = bounds[:-1].tolist()   # next unselected position per attribute
    end = bounds[1:].tolist()
    live = [a for a in range(c) if head[a] < end[a]]
    w = [0.0] * c
    gain = [0.0] * c
    for a, g in zip(live, _gain(0.0, sims[bounds[live]], params).tolist()):
        gain[a] = g
    chosen: list[int] = []
    while live and len(chosen) < k:
        a = max(live, key=gain.__getitem__)
        if stats is not None:
            stats.rounds += 1
            stats.comparisons += len(live)
        i = head[a]
        chosen.append(int(ids[i]))
        w[a] += float(sims[i])
        head[a] = i + 1
        if i + 1 < end[a]:
            gain[a] = _gain(w[a], sims[i + 1], params)
        else:
            live.remove(a)
    return chosen, np.array(w), len(chosen) < k


def _prefetch(q, k: int, data: VectorSet, attrs: AttributeTable,
              fn: SimilarityFn, oracle):
    """(q, ids, sims, bounds): every attribute's top-k through the oracle
    (the exact one by default, q checked once for its c scans), grouped."""
    if oracle is None:
        oracle = partial(exact_topk, data=data, attrs=attrs, fn=fn)
        q = fn.query(q)
    ranked = prefetch_streams(q, k, attrs, oracle)
    bounds = np.cumsum([0] + [len(r) for r in ranked])
    return (q, np.concatenate([r.ids for r in ranked]),
            np.concatenate([r.sims for r in ranked]), bounds)


def _selection(ids, sims, bounds, k: int, params: WelfareParams,
               stats: GreedyStats | None = None) -> Selection:
    """The :func:`greedy_select` picks over grouped lists as a Selection."""
    chosen, u, truncated = greedy_select(ids, sims, bounds, k, params, stats)
    return Selection(ids=tuple(chosen), utilities=u,
                     objective=welfare(u, params), truncated=truncated)


def nash_ann(q, k: int, params: WelfareParams, data: VectorSet,
             attrs: AttributeTable, fn: SimilarityFn,
             oracle=None) -> Selection:
    """Greedy Nash-welfare selection of k vectors (single-attribute setting).

    With an exact oracle the result maximizes the Nash welfare over all
    size-k subsets. If fewer than k prefetched vectors exist in total, the
    returned selection is truncated rather than an error.
    """
    if not params.is_nash:
        raise ValueError("nash_ann requires p = 0; use p_mean_ann for p != 0")
    return p_mean_ann(q, k, params, data, attrs, fn, oracle)


def p_mean_ann(q, k: int, params: WelfareParams, data: VectorSet,
               attrs: AttributeTable, fn: SimilarityFn,
               oracle=None) -> Selection:
    """Greedy p-mean selection of k vectors (single-attribute setting).

    p = 0 runs the Nash greedy of :func:`nash_ann`. With an exact oracle the
    result maximizes M_p over all size-k subsets, for every p in (-inf, 1].
    """
    attrs.require_single()
    if k < 1:
        raise ValueError("k must be >= 1")
    _, ids, sims, bounds = _prefetch(q, k, data, attrs, fn, oracle)
    return _selection(ids, sims, bounds, k, params)
