import math

import numpy as np
import pytest

from divknn.core import (AttributeTable, SimilarityFn, VectorSet,
                         WelfareParams)
from divknn.reference import (ErspInstance, brute_force_opt,
                              brute_force_opt_recursive, ersp_reduction,
                              log_ineq_check, max_log_nsw, packing_exists,
                              random_ersp)
from divknn.suites import random_multi_instance, random_single_instance


def test_brute_force_whole_set_when_n_equals_k():
    data = VectorSet([[1.0], [2.0], [3.0]])
    attrs = AttributeTable.from_labels([0, 1, 0], c=2)
    fn = SimilarityFn("dot-product")
    ids, _ = brute_force_opt([1.0], 3, WelfareParams(), data, attrs, fn)
    assert ids == (0, 1, 2)


def test_brute_force_k1_p1_is_most_similar():
    rng = np.random.default_rng(50)
    data = VectorSet(rng.normal(size=(12, 3)))
    attrs = AttributeTable.from_labels(rng.integers(0, 2, 12), c=2)
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=3)
    ids, _ = brute_force_opt(q, 1, WelfareParams(p=1.0, eta=1.0), data,
                             attrs, fn)
    sims = fn.batch(q, data.data)
    assert ids[0] == int(np.argmax(sims))


def test_vectorized_matches_recursive_enumerator():
    rng = np.random.default_rng(51)
    for _ in range(25):
        if rng.random() < 0.5:
            q, data, attrs, fn, k = random_single_instance(rng, n_max=9,
                                                           k_max=3)
        else:
            q, data, attrs, fn, k = random_multi_instance(rng, n_max=9,
                                                          k_max=3)
        params = WelfareParams(p=float(rng.choice([0.0, -1.0, 0.5])),
                               eta=float(rng.uniform(0.1, 2.0)))
        fast_ids, fast_val = brute_force_opt(q, k, params, data, attrs, fn)
        slow_ids, slow_val = brute_force_opt_recursive(q, k, params, data,
                                                       attrs, fn)
        assert fast_val == pytest.approx(slow_val, rel=1e-12, abs=1e-12)
        assert fast_ids == slow_ids


def test_brute_force_value_invariant_under_permutation():
    rng = np.random.default_rng(52)
    q, data, attrs, fn, k = random_single_instance(rng, n_max=10, k_max=3)
    params = WelfareParams(p=0.0, eta=1.0)
    _, val = brute_force_opt(q, k, params, data, attrs, fn)
    perm = rng.permutation(data.n)
    data2 = VectorSet(data.data[perm])
    attrs2 = AttributeTable.from_labels(attrs.labels[perm], attrs.c)
    _, val2 = brute_force_opt(q, k, params, data2, attrs2, fn)
    assert val == pytest.approx(val2, rel=1e-12)


def test_brute_force_guard():
    data = VectorSet(np.random.default_rng(0).normal(size=(60, 2)))
    attrs = AttributeTable.from_labels([0] * 60, c=1)
    fn = SimilarityFn("dot-product")
    with pytest.raises(ValueError):
        brute_force_opt(np.ones(2), 30, WelfareParams(), data, attrs, fn)


def test_ersp_perfect_packing_reaches_threshold():
    inst = ErspInstance(n=4, tau=2,
                        sets=(frozenset({0, 1}), frozenset({2, 3})), k=2)
    assert packing_exists(inst)
    _, _, _, w = ersp_reduction(inst)
    assert max_log_nsw(inst) == pytest.approx(w, abs=1e-12)


def test_ersp_packing_among_overlapping_sets():
    inst = ErspInstance(n=4, tau=2,
                        sets=(frozenset({0, 1}), frozenset({1, 2}),
                              frozenset({2, 3})), k=2)
    assert packing_exists(inst)
    _, _, _, w = ersp_reduction(inst)
    assert max_log_nsw(inst) == pytest.approx(w, abs=1e-12)


def test_ersp_no_packing_stays_below_threshold():
    inst = ErspInstance(n=3, tau=2,
                        sets=(frozenset({0, 1}), frozenset({1, 2})), k=2)
    assert not packing_exists(inst)
    _, _, _, w = ersp_reduction(inst)
    assert max_log_nsw(inst) < w - 1e-12


def test_ersp_reduction_structure():
    inst = ErspInstance(n=5, tau=2,
                        sets=(frozenset({0, 4}), frozenset({1, 2})), k=1)
    data, attrs, query, w = ersp_reduction(inst)
    assert data.n == 2 and data.d == 5 and attrs.c == 5
    assert w == pytest.approx(2 * 1 * math.log(2) / 5)
    # every constructed vector has dot-product similarity exactly 1
    fn = SimilarityFn("dot-product")
    assert np.allclose(fn.batch(query, data.data), 1.0)
    assert attrs.indptr.tolist() == [0, 2, 4]
    assert attrs.indices.tolist() == [0, 4, 1, 2]


def test_ersp_instance_validation():
    with pytest.raises(ValueError):
        ErspInstance(n=3, tau=2, sets=(frozenset({0}),), k=1)   # wrong size
    with pytest.raises(ValueError):
        ErspInstance(n=3, tau=2, sets=(frozenset({0, 5}),), k=1)  # range


def test_random_ersp_shapes():
    rng = np.random.default_rng(53)
    inst = random_ersp(rng, n=8, tau=3, m=5, k=2)
    assert inst.m == 5
    assert all(len(s) == 3 for s in inst.sets)


def test_log_inequality_equality_case():
    # x = a achieves a*log(2) exactly
    a = 1.0
    assert a * math.log(1 + a / a) == pytest.approx(math.log(2))
    assert log_ineq_check(1.0, samples=2000)


def test_log_inequality_interior_point():
    # x = 0.5, a = 1: 0.5 * log(3) < log(2)
    assert 0.5 * math.log(3.0) < math.log(2.0)
    assert 0.5 * math.log(3.0) == pytest.approx(0.5493061443, abs=1e-9)


def test_log_inequality_sweep():
    assert log_ineq_check(7.3, samples=10_000)
    with pytest.raises(ValueError):
        log_ineq_check(0.0)
