"""Brute-force welfare oracles and a set-packing instance generator.

``brute_force_opt`` enumerates every size-k subset and reports a maximizer of
the configured welfare. It is the independent yardstick against which the
greedy solvers are checked, so it shares no code path with them: utilities
come from a dense per-vector attribute weight matrix and the welfare of all
subsets in a chunk is evaluated at once. A tiny recursive enumerator
(:func:`brute_force_opt_recursive`) cross-checks the vectorized one on small
cases.

``ErspInstance`` models exact regular set packing: m subsets of a universe of
n elements, each of size tau, and a target packing size k. The reduction
:func:`ersp_reduction` turns such an instance into a multi-attribute search
instance whose best achievable log Nash welfare reaches the threshold
W = tau * k * log(2) / c exactly when a perfect packing exists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (AttributeTable, SimilarityFn, VectorSet, WelfareParams,
                   log_nsw, welfare)

ENUMERATION_GUARD = 10_000_000
_CHUNK = 65536   # subsets whose welfare is evaluated at once


def _weight_matrix(q, data: VectorSet, attrs: AttributeTable,
                   fn: SimilarityFn) -> np.ndarray:
    """(n, c) matrix whose row v spreads sigma(q, v) over atb(v)."""
    sims = fn.scan(q, data)
    w = np.zeros((data.n, attrs.c), dtype=np.float64)
    rows = np.repeat(np.arange(attrs.n), np.diff(attrs.indptr))
    w[rows, attrs.indices] = sims[rows]
    return w


def _chunk_values(util: np.ndarray, params: WelfareParams) -> np.ndarray:
    """Welfare of each utility row: log-NSW for p = 0, M_p otherwise."""
    shifted = util + params.eta
    if params.is_nash:
        return np.mean(np.log(shifted), axis=1)
    return np.power(np.mean(np.power(shifted, params.p), axis=1),
                    1.0 / params.p)


def brute_force_opt(q, k: int, params: WelfareParams, data: VectorSet,
                    attrs: AttributeTable,
                    fn: SimilarityFn) -> tuple[tuple[int, ...], float]:
    """Exhaustive optimum over all size-k subsets.

    Returns (ids, value) where value is the log Nash welfare when p = 0 and
    M_p otherwise. Ties resolve to the lexicographically first subset.
    Guarded at C(n, k) <= 10^7 enumerated subsets.
    """
    n = data.n
    if not (1 <= k <= n):
        raise ValueError(f"k must lie in [1, {n}]")
    if math.comb(n, k) > ENUMERATION_GUARD:
        raise ValueError("instance too large for exhaustive enumeration")
    w = _weight_matrix(q, data, attrs, fn)
    best_val = -np.inf
    best_ids: Optional[tuple[int, ...]] = None
    combos = itertools.combinations(range(n), k)
    while True:
        block = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(combos, _CHUNK)), dtype=np.intp)
        if block.size == 0:
            break
        block = block.reshape(-1, k)
        util = w[block].sum(axis=1)
        vals = _chunk_values(util, params)
        pos = int(np.argmax(vals))
        if vals[pos] > best_val:
            best_val = float(vals[pos])
            best_ids = tuple(int(i) for i in block[pos])
    assert best_ids is not None
    return best_ids, best_val


def brute_force_opt_recursive(q, k: int, params: WelfareParams,
                              data: VectorSet, attrs: AttributeTable,
                              fn: SimilarityFn) -> tuple[tuple[int, ...], float]:
    """Independent recursive enumerator used to cross-check the vectorized
    path on tiny instances. Welfare is recomputed per leaf via the scalar
    welfare functions."""
    n = data.n
    sims = fn.scan(q, data)
    best: list = [None, -math.inf]

    def value(util: np.ndarray) -> float:
        # incremental add/subtract leaves ~1e-17 residue on empty entries
        clean = np.maximum(util, 0.0)
        if params.is_nash:
            return log_nsw(clean, params.eta)
        return welfare(clean, params)

    def rec(start: int, picked: list[int], util: np.ndarray) -> None:
        if len(picked) == k:
            v = value(util)
            if v > best[1]:
                best[0] = tuple(picked)
                best[1] = v
            return
        for v in range(start, n - (k - len(picked)) + 1):
            row = attrs.indices[attrs.indptr[v]:attrs.indptr[v + 1]]
            util[row] += sims[v]
            picked.append(v)
            rec(v + 1, picked, util)
            picked.pop()
            util[row] -= sims[v]

    rec(0, [], np.zeros(attrs.c, dtype=np.float64))
    return best[0], float(best[1])


@dataclass(frozen=True)
class ErspInstance:
    """Exact regular set packing: does a k-sub-collection of pairwise
    disjoint sets exist?"""

    n: int
    tau: int
    sets: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.tau < 1 or self.k < 1:
            raise ValueError("n, tau, k must be >= 1")
        for s in self.sets:
            if len(s) != self.tau:
                raise ValueError("every set must have exactly tau elements")
            if any(e < 0 or e >= self.n for e in s):
                raise ValueError("set elements must lie in [0, n)")

    @property
    def m(self) -> int:
        return len(self.sets)


def random_ersp(rng: np.random.Generator, n: int, tau: int, m: int,
                k: int) -> ErspInstance:
    """Sample m random tau-subsets of [0, n)."""
    sets = tuple(frozenset(int(e) for e in rng.choice(n, size=tau,
                                                      replace=False))
                 for _ in range(m))
    return ErspInstance(n=n, tau=tau, sets=sets, k=k)


def packing_exists(inst: ErspInstance) -> bool:
    """Direct enumeration over all size-k sub-collections (bitmask based)."""
    masks = []
    for s in inst.sets:
        bits = 0
        for e in s:
            bits |= 1 << e
        masks.append(bits)
    for combo in itertools.combinations(masks, inst.k):
        union = 0
        total = 0
        for b in combo:
            union |= b
            total += inst.tau
        if union.bit_count() == total:
            return True
    return False


def ersp_reduction(inst: ErspInstance) -> tuple[VectorSet, AttributeTable,
                                               np.ndarray, float]:
    """Build the search instance whose optimum certifies a perfect packing.

    One vector per set: the characteristic vector of the set scaled by
    1/tau, so its dot product with the all-ones query is exactly 1. One
    attribute per universe element; a vector carries every element of its
    set. The threshold is W = tau * k * log(2) / c with c = n attributes
    (eta = 1): a size-k selection attains log Nash welfare >= W iff its sets
    are pairwise disjoint.
    """
    c = inst.n
    vecs = np.zeros((inst.m, c), dtype=np.float64)
    atb = []
    for i, s in enumerate(inst.sets):
        members = sorted(s)
        vecs[i, members] = 1.0 / inst.tau
        atb.append(members)
    data = VectorSet(vecs)
    attrs = AttributeTable.from_rows(atb, c=c)
    query = np.ones(c, dtype=np.float64)
    threshold = inst.tau * inst.k * math.log(2.0) / c
    return data, attrs, query, threshold


def log_ineq_check(a: float, samples: int = 10_000) -> bool:
    """Numeric sweep of x * log(1 + a/x) <= a * log(2) on x in (0, a].

    Checks the bound with 1e-12 slack on a geometric grid and that equality
    (within 1e-9) occurs only at x = a.
    """
    if not a > 0:
        raise ValueError("a must be > 0")
    x = np.geomspace(a * 1e-9, a, samples)
    lhs = x * np.log1p(a / x)
    bound = a * math.log(2.0)
    if np.any(lhs > bound + 1e-12):
        return False
    near_equal = np.abs(lhs - bound) <= 1e-9 * max(1.0, abs(bound))
    at_a = np.abs(x - a) <= 1e-9 * a
    return bool(np.all(at_a[near_equal]))


def max_log_nsw(inst: ErspInstance) -> float:
    """Brute-force maximum log Nash welfare of the reduction instance."""
    data, attrs, query, _ = ersp_reduction(inst)
    fn = SimilarityFn("dot-product")
    _, val = brute_force_opt(query, inst.k, WelfareParams(p=0.0, eta=1.0),
                             data, attrs, fn)
    return val
