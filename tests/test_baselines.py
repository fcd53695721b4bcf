import itertools

import numpy as np
import pytest

from divknn.baselines import div_ann, fetch_union, top_k
from divknn.core import (AttributeTable, SimilarityFn, VectorSet,
                         WelfareParams, utilities, welfare)
from divknn.metrics import approx_ratio, entropy
from divknn.oracle import full_scan_pool
from divknn.solvers import GreedyStats, nash_ann, p_mean_ann
from divknn.suites import random_single_instance


def _six_vector_instance():
    # three attributes, two vectors each, similarities 9..4
    data = VectorSet([[9.0], [8.0], [7.0], [6.0], [5.0], [4.0]])
    attrs = AttributeTable.from_labels([0, 0, 1, 1, 2, 2], c=3)
    return data, attrs, SimilarityFn("dot-product"), [1.0]


def capped_optimum(q, k, kprime, data, attrs, fn):
    """Enumeration oracle: best total similarity under the per-attribute
    cap, over all subsets of size <= k (maximal feasible size wins)."""
    sims = fn.batch(q, data.data)
    best, best_size = None, -1
    for size in range(min(k, data.n), 0, -1):
        for combo in itertools.combinations(range(data.n), size):
            counts = np.bincount(attrs.labels[list(combo)],
                                 minlength=attrs.c)
            if counts.max() > kprime:
                continue
            tot = float(sims[list(combo)].sum())
            if best is None or tot > best:
                best, best_size = tot, size
        if best is not None:
            break
    return best, best_size


def test_top_k_whole_set():
    data = VectorSet([[1.0], [3.0], [2.0]])
    fn = SimilarityFn("dot-product")
    sel = top_k([1.0], 3, data, fn)
    assert set(sel.ids) == {0, 1, 2}


def test_top_k_simple_order():
    data = VectorSet([[5.0], [4.0], [3.0], [2.0], [1.0]])
    fn = SimilarityFn("dot-product")
    sel = top_k([1.0], 2, data, fn)
    assert sel.ids == (0, 1)


def test_top_k_matches_full_sort():
    rng = np.random.default_rng(40)
    data = VectorSet(rng.normal(size=(200, 6)))
    fn = SimilarityFn("one-plus-cosine")
    q = rng.normal(size=6)
    sel = top_k(q, 10, data, fn)
    sims = fn.batch(q, data.data)
    ref = sorted(range(200), key=lambda v: (-sims[v], v))[:10]
    assert list(sel.ids) == ref


def test_top_k_truncates():
    data = VectorSet([[1.0], [2.0]])
    fn = SimilarityFn("dot-product")
    sel = top_k([1.0], 5, data, fn)
    assert sel.truncated and len(sel.ids) == 2


def test_top_k_fills_utilities_when_attrs_given():
    rng = np.random.default_rng(41)
    q, data, attrs, fn, k = random_single_instance(rng)
    params = WelfareParams(p=0.0, eta=1.0)
    sel = top_k(q, k, data, fn, attrs=attrs, params=params)
    u = utilities(q, sel.ids, data, attrs, fn)
    assert np.allclose(sel.utilities, u)
    assert sel.objective == pytest.approx(welfare(u, params))


def test_div_ann_cap_not_binding_equals_top_k():
    data, attrs, fn, q = _six_vector_instance()
    a = div_ann(q, 4, 4, data, attrs, fn)
    b = top_k(q, 4, data, fn)
    assert set(a.ids) == set(b.ids)


def test_div_ann_cap_one_stalls_truncated():
    data, attrs, fn, q = _six_vector_instance()
    sel = div_ann(q, 4, 1, data, attrs, fn)
    assert sel.truncated
    assert set(sel.ids) == {0, 2, 4}  # 9, 7, 5: the best of each attribute
    opt, size = capped_optimum(q, 4, 1, data, attrs, fn)
    assert size == 3 and opt == pytest.approx(9.0 + 7.0 + 5.0)


def test_div_ann_cap_two_exact():
    data, attrs, fn, q = _six_vector_instance()
    sel = div_ann(q, 4, 2, data, attrs, fn)
    assert not sel.truncated
    assert set(sel.ids) == {0, 1, 2, 3}  # 9, 8, 7, 6
    opt, _ = capped_optimum(q, 4, 2, data, attrs, fn)
    assert opt == pytest.approx(9.0 + 8.0 + 7.0 + 6.0)


def test_div_ann_tie_break_by_id():
    # five vectors tie at similarity 1 across three attributes, and the cut
    # at k = 3 falls inside the tie: ascending id decides, not attribute order
    data = VectorSet([[2.0], [1.0], [1.0], [1.0], [1.0], [1.0]])
    attrs = AttributeTable.from_labels([0, 2, 1, 0, 2, 1], c=3)
    fn = SimilarityFn("dot-product")
    assert div_ann([1.0], 3, 2, data, attrs, fn).ids == (0, 1, 2)
    assert div_ann([1.0], 6, 1, data, attrs, fn).ids == (0, 1, 2)


def test_div_ann_matches_capped_optimum_on_randoms():
    rng = np.random.default_rng(42)
    for _ in range(20):
        q, data, attrs, fn, k = random_single_instance(rng, n_max=10,
                                                       c_max=4, k_max=4)
        kprime = int(rng.integers(1, 4))
        sel = div_ann(q, k, kprime, data, attrs, fn)
        sims = fn.batch(q, data.data)
        got = float(sims[list(sel.ids)].sum())
        opt, opt_size = capped_optimum(q, k, kprime, data, attrs, fn)
        assert len(sel.ids) == opt_size
        assert got == pytest.approx(opt, rel=1e-12)


def test_fetch_union_full_pool_equals_exact_solver():
    # with L = n the pool holds every vector, so the greedy sees the same
    # per-attribute rankings as the exact solver and must pick the same ids
    # in the same order, for Nash, p < 0 and p in (0, 1]
    rng = np.random.default_rng(43)
    for p in (0.0, -2.0, -0.5, 0.5, 1.0):
        for _ in range(15):
            q, data, attrs, fn, k = random_single_instance(rng, n_max=50)
            params = WelfareParams(p=p, eta=0.5)
            a = fetch_union(q, k, data.n, params, data, attrs, fn)
            b = (nash_ann if p == 0.0 else p_mean_ann)(q, k, params, data,
                                                      attrs, fn)
            assert a.ids == b.ids
            assert a.utilities == pytest.approx(b.utilities, rel=1e-12)
            assert a.objective == pytest.approx(b.objective, rel=1e-9)
            assert a.truncated == b.truncated


def test_fetch_union_tie_break_by_id():
    # similarities 2, 3, 2, 1, 2 with attributes 0, 1, 0, 1, 1. At L = 3 ids
    # 0, 2 and 4 tie at the pool boundary, so id 4 is left out; inside
    # attribute 0, ids 0 and 2 tie, so id 0 is picked first
    data = VectorSet([[2.0], [3.0], [2.0], [1.0], [2.0]])
    attrs = AttributeTable.from_labels([0, 1, 0, 1, 1], c=2)
    fn = SimilarityFn("dot-product")
    sel = fetch_union([1.0], 3, 3, WelfareParams(), data, attrs, fn)
    assert sel.ids == (1, 0, 2)
    assert sel.utilities.tolist() == [4.0, 3.0]
    # similarities alternate 1, 2 over ids 0..63 and attributes cycle 0, 1,
    # 2: a pool of 40 mixes both levels, and inside each level and attribute
    # the lowest ids must come first, as in the exact solver
    data = VectorSet(np.resize([1.0, 2.0], 64)[:, None])
    attrs = AttributeTable.from_labels(np.arange(64) % 3, c=3)
    sel = fetch_union([1.0], 6, 40, WelfareParams(), data, attrs, fn)
    exact = nash_ann([1.0], 6, WelfareParams(), data, attrs, fn)
    assert sel.ids == exact.ids == (3, 1, 5, 9, 7, 11)


def test_fetch_union_pool_k_equals_top_k():
    rng = np.random.default_rng(44)
    q, data, attrs, fn, k = random_single_instance(rng)
    params = WelfareParams(p=0.0, eta=1.0)
    a = fetch_union(q, k, k, params, data, attrs, fn)
    b = top_k(q, k, data, fn)
    assert set(a.ids) == set(b.ids)


def test_fetch_union_never_beats_exact_solver():
    rng = np.random.default_rng(45)
    for _ in range(25):
        q, data, attrs, fn, k = random_single_instance(rng, n_max=30)
        params = WelfareParams(p=0.0, eta=1.0)
        L = int(rng.integers(k, data.n + 1))
        a = fetch_union(q, k, L, params, data, attrs, fn)
        b = nash_ann(q, k, params, data, attrs, fn)
        assert a.objective <= b.objective * (1 + 1e-12)


def test_fetch_union_directional_on_skewed_instance():
    # skewed synthetic data: the union heuristic is more diverse than plain
    # top-k and at least as relevant as the exact welfare solver
    rng = np.random.default_rng(46)
    n, d, k = 3000, 8, 5
    data = VectorSet(rng.normal(size=(n, d)))
    labels = np.where(rng.random(n) < 0.85, rng.integers(0, 2, n),
                      rng.integers(2, 10, n))
    attrs = AttributeTable.from_labels(labels, c=10)
    fn = SimilarityFn("one-plus-cosine")
    params = WelfareParams(p=0.0, eta=0.01)
    e_gain, r_gain = [], []
    for _ in range(10):
        q = rng.normal(size=d)
        fu = fetch_union(q, k, 10 * k, params, data, attrs, fn)
        tk = top_k(q, k, data, fn)
        na = nash_ann(q, k, params, data, attrs, fn)
        e_gain.append(entropy(fu.ids, attrs) - entropy(tk.ids, attrs))
        r_gain.append(approx_ratio(fu.ids, q, k, data, fn)
                      - approx_ratio(na.ids, q, k, data, fn))
    assert np.mean(e_gain) >= 0.0
    assert np.mean(r_gain) >= -1e-12


def test_fetch_union_pool_coverage_stat():
    rng = np.random.default_rng(47)
    q, data, attrs, fn, k = random_single_instance(rng, n_max=30)
    stats = GreedyStats()
    fetch_union(q, k, data.n, WelfareParams(), data, attrs, fn, stats=stats)
    nonempty = sum(1 for a in range(attrs.c) if len(attrs.inverted[a]) > 0)
    assert stats.pool_attributes == nonempty


def test_fetch_union_uses_the_head_l_rows_of_a_longer_pool():
    # a ranked pool of 500 rows handed in for L = 10: the greedy runs over
    # its head 10 rows, as fetch_union without a pool does
    rng = np.random.default_rng(50)
    data = VectorSet(rng.normal(size=(2000, 8)))
    attrs = AttributeTable.from_labels(rng.integers(0, 10, size=2000), 10)
    fn = SimilarityFn("one-plus-cosine")
    params = WelfareParams(p=0.0, eta=0.5)
    for _ in range(10):
        q = rng.normal(size=8)
        want = fetch_union(q, 10, 10, params, data, attrs, fn)
        got = fetch_union(q, 10, 10, params, data, attrs, fn,
                          pool=full_scan_pool(q, data, fn, limit=500))
        assert got.ids == want.ids
        assert got.utilities.tobytes() == want.utilities.tobytes()


def test_fetch_union_validation():
    rng = np.random.default_rng(48)
    q, data, attrs, fn, k = random_single_instance(rng)
    with pytest.raises(ValueError):
        fetch_union(q, k, k - 1, WelfareParams(), data, attrs, fn)


def test_baselines_deterministic():
    rng = np.random.default_rng(49)
    q, data, attrs, fn, k = random_single_instance(rng, n_max=40)
    params = WelfareParams(p=-0.5, eta=0.3)
    runs = [(top_k(q, k, data, fn).ids,
             div_ann(q, k, 2, data, attrs, fn).ids,
             fetch_union(q, k, max(k, 10), params, data, attrs, fn).ids,
             p_mean_ann(q, k, params, data, attrs, fn).ids)
            for _ in range(2)]
    assert runs[0] == runs[1]
