"""The ranking rule and the per-attribute top-k neighbor oracles.

:func:`rank` orders candidates by similarity descending, ascending vector id
on ties; every top-k in the package goes through it. ``exact_topk`` is a
brute-force scan over one inverted list: the true top-min(k, |D_l|) vectors
of the attribute by that rule. ``alpha_topk`` is a synthetic degraded
oracle for test harnesses: it returns real vectors whose i-th best
similarity is at least ``alpha`` times the i-th best exact similarity, for
every rank i.

Both are exposed behind a small callable interface ``(q, attribute, k) ->
RankedList`` so that an external index backend can be slotted in later.
Oracles are stateless with respect to queries; the degraded oracle derives
its randomness from (seed, query bytes, attribute), so results do not depend
on thread count or call order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import AttributeTable, SimilarityFn, VectorSet


@dataclass(frozen=True, eq=False)
class RankedList:
    """Vectors of one attribute ranked by similarity, best first."""

    attribute: int
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


def _ranked(attribute: int, ids: np.ndarray, sims: np.ndarray) -> RankedList:
    ids = np.asarray(ids, dtype=np.intp)
    sims = np.asarray(sims, dtype=np.float64)
    ids.setflags(write=False)
    sims.setflags(write=False)
    return RankedList(attribute=int(attribute), ids=ids, sims=sims)


def rank(sims: np.ndarray, ids: np.ndarray | None = None,
         limit: int | None = None) -> np.ndarray:
    """Positions of the ``limit`` best candidates (all by default), ordered
    by similarity descending, ascending id on ties. Ids must be distinct;
    without them a candidate's id is its position."""
    n = len(sims)
    if limit is not None and limit < n:
        # the top block of an ascending partition at n - limit holds the
        # limit best; when the threshold value also occurs below the block,
        # every candidate tied with it joins, so the id order decides
        part = np.argpartition(sims, n - limit)
        above = sims >= sims[part[n - limit]]
        cand = (part[n - limit:] if np.count_nonzero(above) == limit
                else np.flatnonzero(above))
    else:
        cand = np.arange(n)
    cand_sims = sims[cand]
    order = np.argsort(-cand_sims)
    ranked = cand_sims[order]
    if np.any(ranked[1:] == ranked[:-1]):
        # the unstable sort leaves equal similarities in any order
        order = np.lexsort((cand if ids is None else ids[cand], -cand_sims))
    return cand[order[:limit]]


def exact_topk(q, attribute: int, k: int, data: VectorSet,
               attrs: AttributeTable, fn: SimilarityFn) -> RankedList:
    """True top-min(k, |D_l|) of attribute l by sigma(q, .).

    An empty inverted list yields an empty RankedList, not an error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= attribute < attrs.c):
        raise ValueError(f"attribute id {attribute} outside [0, {attrs.c})")
    members = attrs.inverted[attribute]
    if len(members) == 0:
        return _ranked(attribute, np.empty(0, dtype=np.intp),
                       np.empty(0, dtype=np.float64))
    sims = fn.batch_ids(q, data, members)
    order = rank(sims, members, k)
    return _ranked(attribute, members[order], sims[order])


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

    def suffix_ok(start: int, rank: int) -> bool:
        # consecutive picks from `start` must satisfy every remaining rank
        for t in range(rank, kk):
            if sims[start + (t - rank)] < cfg.alpha * sims[t]:
                return False
        return True

    picks: list[int] = []
    pos = 0
    for rank in range(kk):
        hi = pos
        while (hi + 1 <= m - (kk - rank)
               and sims[hi + 1] >= cfg.alpha * sims[rank]
               and suffix_ok(hi + 1, rank)):
            hi += 1
        pick = int(rng.integers(pos, hi + 1))
        picks.append(pick)
        pos = pick + 1
    idx = np.asarray(picks, dtype=np.intp)
    return _ranked(attribute, full.ids[idx], sims[idx])


class ExactScanOracle:
    """Callable (q, attribute, k) -> RankedList backed by the exact scan."""

    def __init__(self, data: VectorSet, attrs: AttributeTable,
                 fn: SimilarityFn) -> None:
        self.data = data
        self.attrs = attrs
        self.fn = fn

    def __call__(self, q, attribute: int, k: int) -> RankedList:
        return exact_topk(q, attribute, k, self.data, self.attrs, self.fn)


class AlphaScanOracle:
    """Callable oracle wrapping :func:`alpha_topk`; test harness use only."""

    def __init__(self, data: VectorSet, attrs: AttributeTable,
                 fn: SimilarityFn, cfg: AlphaOracleConfig) -> None:
        self.data = data
        self.attrs = attrs
        self.fn = fn
        self.cfg = cfg

    def __call__(self, q, attribute: int, k: int) -> RankedList:
        return alpha_topk(q, attribute, k, self.data, self.attrs, self.fn,
                          self.cfg)
