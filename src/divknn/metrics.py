"""Relevance and diversity measurements for retrieved sets.

Relevance is always judged against the exact top-k set of the query, even
when the solver under study used an approximate oracle. Diversity
summarizes the attribute histogram of the selection; in the multi-attribute
one-per-class setting the entropy and inverse Simpson index are also
reported per attribute class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import AttributeTable, SimilarityFn, VectorSet
from .baselines import top_k


@dataclass(frozen=True)
class MetricsReport:
    """Relevance plus diversity of one retrieved set."""

    approx_ratio: float
    recall: float
    entropy: float
    inverse_simpson: float
    distinct_count: int
    per_class: Optional[tuple[tuple[int, float, float], ...]] = None
    truncated: bool = False


def attribute_counts(ids: Sequence[int], attrs: AttributeTable) -> np.ndarray:
    """Histogram |S intersect D_l| over all attributes; a multi-attribute
    vector counts once per attribute it carries."""
    return np.bincount(attrs.gather(list(ids))[1], minlength=attrs.c)


def approx_ratio(ids: Sequence[int], q, k: int, data: VectorSet,
                 fn: SimilarityFn,
                 o_ids: Optional[Sequence[int]] = None) -> float:
    """Similarity mass of the set over that of the exact top-k set O.

    Defined as 1 when both masses are zero (all-zero similarities).
    """
    if o_ids is None:
        o_ids = top_k(q, k, data, fn).ids
    sel = np.asarray(list(ids), dtype=np.intp)
    opt = np.asarray(list(o_ids), dtype=np.intp)
    num = float(np.sum(fn.batch_ids(q, data, sel))) if sel.size else 0.0
    den = float(np.sum(fn.batch_ids(q, data, opt))) if opt.size else 0.0
    if den == 0.0:
        return 1.0 if num == 0.0 else math.inf
    return num / den


def recall(ids: Sequence[int], o_ids: Sequence[int]) -> float:
    """|S intersect O| / |O|."""
    o = set(int(i) for i in o_ids)
    if not o:
        raise ValueError("reference set O must be nonempty")
    return len(o.intersection(int(i) for i in ids)) / len(o)


def _shares(ids: Sequence[int], attrs: AttributeTable,
            restrict: Optional[int]) -> np.ndarray:
    if len(ids) < 1:
        raise ValueError("set must be nonempty")
    counts = attribute_counts(ids, attrs)
    if restrict is not None:
        if attrs.classes is None:
            raise ValueError("no attribute classes configured")
        counts = counts[attrs.classes[restrict]]
    return counts / len(ids)


def entropy(ids: Sequence[int], attrs: AttributeTable,
            restrict: Optional[int] = None, base2: bool = False) -> float:
    """Shannon entropy of attribute shares p_l = |S n D_l| / |S|, summed over
    l with p_l > 0 (optionally only over one attribute class)."""
    p = _shares(ids, attrs, restrict)
    p = p[p > 0]
    # 0 - sum rather than -sum: one attribute gives 0.0, not -0.0
    h = 0.0 - float(np.sum(p * np.log(p)))
    return h / math.log(2.0) if base2 else h


def inverse_simpson(ids: Sequence[int], attrs: AttributeTable,
                    restrict: Optional[int] = None) -> float:
    """Inverse Simpson index 1 / sum p_l^2 of the attribute shares."""
    p = _shares(ids, attrs, restrict)
    return float(1.0 / np.sum(p * p))


def distinct_count(ids: Sequence[int], attrs: AttributeTable) -> int:
    """Number of attributes with at least one selected vector."""
    if len(ids) == 0:
        return 0
    return int(np.count_nonzero(attribute_counts(ids, attrs)))


def compute_report(ids: Sequence[int], q, k: int, data: VectorSet,
                   attrs: AttributeTable, fn: SimilarityFn,
                   base2: bool = False,
                   truncated: bool = False,
                   o_ids: Optional[Sequence[int]] = None) -> MetricsReport:
    """All metrics of one retrieved set against the exact top-k reference
    ``o_ids``, found by a scan of the base when not given."""
    q = fn.query(q)
    if o_ids is None:
        o_ids = top_k(q, k, data, fn).ids
    per_class = None
    if attrs.classes is not None:
        per_class = tuple(
            (ci, entropy(ids, attrs, restrict=ci, base2=base2),
             inverse_simpson(ids, attrs, restrict=ci))
            for ci in range(len(attrs.classes)))
    return MetricsReport(
        approx_ratio=approx_ratio(ids, q, k, data, fn, o_ids=o_ids),
        recall=recall(ids, o_ids),
        entropy=entropy(ids, attrs, base2=base2),
        inverse_simpson=inverse_simpson(ids, attrs),
        distinct_count=distinct_count(ids, attrs),
        per_class=per_class,
        truncated=truncated,
    )


def aggregate(values: Sequence[float]) -> tuple[float, float, float]:
    """Mean, sample stddev, and standard error of a metric over queries."""
    arr = np.asarray(list(values), dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0, 0.0
    std = float(arr.std(ddof=1))
    return mean, std, std / math.sqrt(arr.size)
