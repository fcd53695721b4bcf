import math

import numpy as np
import pytest

from divknn.baselines import div_ann, top_k
from divknn.core import AttributeTable, SimilarityFn, VectorSet
from divknn.metrics import (aggregate, approx_ratio, compute_report,
                            distinct_count, entropy, inverse_simpson, recall)
from divknn.suites import random_single_instance


def test_approx_ratio_identity():
    rng = np.random.default_rng(60)
    data = VectorSet(rng.normal(size=(30, 4)))
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=4)
    o = top_k(q, 5, data, fn)
    assert approx_ratio(o.ids, q, 5, data, fn) == pytest.approx(1.0)
    assert recall(o.ids, o.ids) == 1.0


def test_approx_ratio_simple_fraction():
    # similarity masses 9 vs 10
    data = VectorSet([[6.0], [4.0], [5.0], [4.0]])
    fn = SimilarityFn("dot-product")
    q = [1.0]
    # O = {0, 2} with mass 11; S = {0, 2} replaced... use masses directly:
    assert approx_ratio([1, 2], q, 2, data, fn) == pytest.approx(9.0 / 11.0)
    data2 = VectorSet([[5.0], [5.0], [4.5], [4.5]])
    assert approx_ratio([2, 3], [1.0], 2, data2,
                        SimilarityFn("dot-product")) == pytest.approx(0.9)


def test_remark_style_instance_high_ratio_zero_recall():
    # the k most similar vectors all share one attribute at similarity 1;
    # a fully diverse set at similarity 0.99 has ratio 0.99 but recall 0
    k = 5
    vecs = [[1.0, 0.0]] * k + [[0.99, 0.0]] * k
    labels = [0] * k + list(range(1, k + 1))
    data = VectorSet(vecs)
    attrs = AttributeTable.from_labels(labels, c=k + 1)
    fn = SimilarityFn("dot-product")
    q = [1.0, 0.0]
    o = top_k(q, k, data, fn)
    assert set(o.ids) == set(range(k))
    diverse = list(range(k, 2 * k))
    assert approx_ratio(diverse, q, k, data, fn) == pytest.approx(0.99)
    assert recall(diverse, o.ids) == 0.0
    assert entropy(diverse, attrs) == pytest.approx(math.log(k))


def test_recall_trivials():
    assert recall([1, 2], [1, 2]) == 1.0
    assert recall([3, 4], [1, 2]) == 0.0
    assert recall([0, 1, 2, 3, 4], list(range(5, 15)) + [0, 1, 2, 3, 4][:0]) == 0.0
    assert recall(list(range(5)), list(range(3)) + [7, 8]) == pytest.approx(3 / 5)
    with pytest.raises(ValueError):
        recall([1], [])


def test_entropy_identities():
    attrs = AttributeTable.from_labels([0, 0, 0, 0, 1, 1, 2, 3], c=4)
    assert entropy([0, 1, 2, 3], attrs) == 0.0                    # one attr
    assert entropy([0, 4, 6, 7], attrs) == pytest.approx(math.log(4))
    assert entropy([0, 1, 4, 5], attrs) == pytest.approx(math.log(2))
    assert entropy([0, 4], attrs, base2=True) == pytest.approx(1.0)


def test_inverse_simpson_identities():
    attrs = AttributeTable.from_labels([0, 0, 0, 1, 2, 3], c=4)
    assert inverse_simpson([0, 1, 2], attrs) == pytest.approx(1.0)
    assert inverse_simpson([0, 3, 4, 5], attrs) == pytest.approx(4.0)
    assert inverse_simpson([0, 1, 2, 3], attrs) == pytest.approx(16.0 / 10.0)


def test_distinct_count():
    attrs = AttributeTable.from_labels([0, 1, 2, 0], c=3)
    assert distinct_count([], attrs) == 0
    assert distinct_count([0, 1, 2], attrs) == 3
    assert distinct_count([0, 3], attrs) == 1


def test_div_ann_distinct_count_floor():
    # untruncated capped selection spans at least ceil(k / k') attributes
    rng = np.random.default_rng(61)
    for _ in range(20):
        q, data, attrs, fn, k = random_single_instance(rng, n_max=20)
        kprime = int(rng.integers(1, 4))
        sel = div_ann(q, k, kprime, data, attrs, fn)
        if not sel.truncated:
            assert distinct_count(sel.ids, attrs) >= math.ceil(k / kprime)


def test_permutation_invariance_of_diversity_metrics():
    rng = np.random.default_rng(62)
    labels = rng.integers(0, 5, 30)
    attrs = AttributeTable.from_labels(labels, c=5)
    perm = rng.permutation(5)
    attrs2 = AttributeTable.from_labels(perm[labels], c=5)
    ids = list(rng.choice(30, size=8, replace=False))
    assert entropy(ids, attrs) == pytest.approx(entropy(ids, attrs2))
    assert inverse_simpson(ids, attrs) == pytest.approx(
        inverse_simpson(ids, attrs2))
    assert distinct_count(ids, attrs) == distinct_count(ids, attrs2)


def test_zero_similarity_ratio_defined_as_one():
    data = VectorSet([[0.0, 1.0], [0.0, 2.0]])
    fn = SimilarityFn("dot-product")
    q = [1.0, 0.0]  # orthogonal to everything -> all similarities clamp to 0
    assert approx_ratio([0], q, 1, data, fn) == 1.0


def test_per_class_restriction_and_share_sums():
    # one attribute per class: within-class shares sum to 1
    atb = [[0, 2], [0, 3], [1, 2], [1, 3]]
    attrs = AttributeTable.from_rows(atb, c=4, classes=[[0, 1], [2, 3]])
    class_of = np.array([0, 0, 1, 1])
    assert (class_of[attrs.indices].reshape(-1, 2) == [0, 1]).all()
    ids = [0, 1, 2]
    from divknn.metrics import _shares
    for ci in range(2):
        assert _shares(ids, attrs, ci).sum() == pytest.approx(1.0)
    assert entropy(ids, attrs, restrict=0) == pytest.approx(
        -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3))
    assert inverse_simpson(ids, attrs, restrict=1) == pytest.approx(
        1.0 / ((2 / 3) ** 2 + (1 / 3) ** 2))
    with pytest.raises(ValueError):  # no classes
        entropy(ids, AttributeTable.from_rows(atb, c=4), restrict=0)


def test_entropy_of_one_attribute_is_positive_zero():
    # -sum(1 * log 1) would be -0.0, which a CSV writes as "-0"
    attrs = AttributeTable.from_rows([[0, 2], [0, 2], [1, 3]], c=4,
                                     classes=[[0, 1], [2, 3]])
    for h in (entropy([0, 1], attrs), entropy([0, 1], attrs, restrict=0),
              entropy([0, 1], attrs, restrict=1),
              entropy([0, 1], attrs, restrict=1, base2=True)):
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    # whole selection over a single-attribute table, and through the report
    data = VectorSet([[4.0], [3.0], [2.0]])
    rep = compute_report([0, 1], [1.0], 2, data, attrs,
                         SimilarityFn("dot-product"))
    assert math.copysign(1.0, rep.per_class[0][1]) == 1.0
    single = AttributeTable.from_labels([1, 1, 0], c=2)
    assert math.copysign(1.0, entropy([0, 1], single)) == 1.0


def test_compute_report_fields():
    rng = np.random.default_rng(63)
    q, data, attrs, fn, k = random_single_instance(rng)
    sel = top_k(q, k, data, fn)
    rep = compute_report(sel.ids, q, k, data, attrs, fn)
    assert rep.approx_ratio == pytest.approx(1.0)
    assert rep.recall == 1.0
    assert rep.entropy <= math.log(k) + 1e-12
    assert rep.inverse_simpson <= min(attrs.c, k) + 1e-12
    assert rep.distinct_count <= min(attrs.c, k)
    assert rep.per_class is None


def test_compute_report_per_class():
    atb = [[0, 2], [1, 3], [0, 3], [1, 2]]
    attrs = AttributeTable.from_rows(atb, c=4, classes=[[0, 1], [2, 3]])
    data = VectorSet([[4.0], [3.0], [2.0], [1.0]])
    fn = SimilarityFn("dot-product")
    rep = compute_report([0, 1], [1.0], 2, data, attrs, fn)
    assert rep.per_class is not None and len(rep.per_class) == 2
    for ci, ent, inv in rep.per_class:
        assert ent == pytest.approx(math.log(2))
        assert inv == pytest.approx(2.0)


def test_aggregate():
    mean, std, se = aggregate([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)
    assert se == pytest.approx(1.0 / math.sqrt(3))
    assert aggregate([5.0]) == (5.0, 0.0, 0.0)
