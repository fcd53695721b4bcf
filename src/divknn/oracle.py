"""The ranked-list type, the ranking rule and the per-attribute oracles.

A :class:`RankedList` holds candidates with distinct ids, best first, and
:func:`rank` is how one is made: by similarity descending, ascending id on
ties. Every top-k in the package goes through it, so the per-attribute
oracle lists here and the global candidate pools of :mod:`divknn.multi`
are the same type.

``exact_topk`` is a brute-force scan over one inverted list: the true
top-min(k, |D_l|) vectors of the attribute by that rule. ``alpha_topk`` is
a synthetic degraded oracle for test harnesses: it returns real vectors
whose i-th best similarity is at least ``alpha`` times the i-th best exact
similarity, for every rank i.

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

from .core import AttributeTable, SimilarityFn, VectorSet


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
    pos = cand[order[:limit]]
    out = RankedList(ids=pos if ids is None else ids[pos], sims=sims[pos])
    out.ids.setflags(write=False)
    out.sims.setflags(write=False)
    return out


def exact_topk(q, attribute: int, k: int, data: VectorSet,
               attrs: AttributeTable, fn: SimilarityFn) -> RankedList:
    """True top-min(k, |D_l|) of attribute l by sigma(q, .); an empty
    inverted list yields an empty list."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= attribute < attrs.c):
        raise ValueError(f"attribute id {attribute} outside [0, {attrs.c})")
    members = attrs.inverted[attribute]
    return rank(fn.batch_ids(q, data, members), members, k)


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
