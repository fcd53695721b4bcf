"""Randomized verification suites for the solver guarantees.

Each suite generates random instances, checks one provable property of the
library against the brute-force reference, and reports the number of
violations. They back the ``verify`` CLI command and the acceptance tests.

Covered properties:

* exact optimality of the single-attribute greedy solvers (Nash and p-mean)
  against exhaustive enumeration;
* the multiplicative guarantee under a degraded (alpha-approximate) oracle;
* the (1 - 1/e) bound of the multi-attribute greedy on log Nash welfare;
* diminishing / increasing marginals of per-attribute cumulative welfare,
  monotonicity and submodularity of log Nash welfare at eta = 1, and the
  x * log(1 + a/x) <= a * log 2 inequality;
* the set-packing reduction round-trip (threshold met iff a perfect packing
  exists);
* the two stylized behaviors: equal similarities spread across attributes,
  single-attribute relevance concentrates on it;
* the certified float32 filter over float32 bases, through
  ``full_scan_pool`` and over a subset of the rows as ``exact_topk`` runs
  it on a large inverted list: the same ids and order as a float64 rank,
  and similarities within the last-place differences of a gather's GEMV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (AttributeTable, SimilarityFn, VectorSet, WelfareParams,
                   log_nsw)
from .multi import multi_nash_ann
from .oracle import (AlphaOracleConfig, _filtered_pool, alpha_topk,
                     full_scan_pool)
from .reference import (_weight_matrix, brute_force_opt, ersp_reduction,
                        log_ineq_check, max_log_nsw, packing_exists,
                        random_ersp)
from .solvers import nash_ann, p_mean_ann

REL_TOL = 1e-9
SWEEP_ETAS = (0.01, 1.0, 50.0)
SWEEP_PS = (-10.0, -1.0, -0.5, 0.5, 1.0)


@dataclass
class SuiteResult:
    name: str
    checks: int
    violations: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{status} {self.name}: {self.checks} checks, " \
               f"{self.violations} violations{extra}"


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

def _random_fn(rng: np.random.Generator) -> SimilarityFn:
    kind = ("one-plus-cosine", "reciprocal-euclidean",
            "dot-product")[int(rng.integers(0, 3))]
    return SimilarityFn(kind, delta=0.05 if kind == "reciprocal-euclidean" else 0.0)


def random_single_instance(rng: np.random.Generator, n_max: int = 20,
                           c_max: int = 6, k_max: int = 5):
    """(q, data, attrs, fn, k) with one attribute per vector."""
    n = int(rng.integers(2, n_max + 1))
    c = int(rng.integers(1, c_max + 1))
    k = int(rng.integers(1, min(k_max, n) + 1))
    d = int(rng.integers(2, 7))
    data = VectorSet(rng.normal(size=(n, d)))
    q = rng.normal(size=d)
    attrs = AttributeTable.from_labels(rng.integers(0, c, size=n), c)
    return q, data, attrs, _random_fn(rng), k


def random_multi_instance(rng: np.random.Generator, n_max: int = 16,
                          c_max: int = 6, atb_max: int = 3, k_max: int = 4):
    """(q, data, attrs, fn, k) with 1..atb_max attributes per vector."""
    n = int(rng.integers(2, n_max + 1))
    c = int(rng.integers(2, c_max + 1))
    k = int(rng.integers(1, min(k_max, n) + 1))
    d = int(rng.integers(2, 7))
    data = VectorSet(rng.normal(size=(n, d)))
    q = rng.normal(size=d)
    atb = []
    for _ in range(n):
        sz = int(rng.integers(1, min(atb_max, c) + 1))
        atb.append(sorted(int(a) for a in rng.choice(c, size=sz, replace=False)))
    attrs = AttributeTable.from_rows(atb, c=c)
    return q, data, attrs, _random_fn(rng), k


def complete_diversity_instance(c: int, k: int, copies: int = 2):
    """Every vector has similarity exactly 1 (dot product with the query);
    c attributes with ``copies`` vectors each."""
    n = c * copies
    vecs = np.zeros((n, 2))
    vecs[:, 0] = 1.0
    labels = np.arange(n) % c
    q = np.array([1.0, 0.0])
    return q, VectorSet(vecs), AttributeTable.from_labels(labels, c), \
        SimilarityFn("dot-product"), k


def complete_relevance_instance(c: int, k: int, star: int, star_size: int):
    """Vectors of one attribute have similarity 1, all others 0."""
    others = 2 * (c - 1)
    n = star_size + others
    vecs = np.zeros((n, 2))
    labels = np.empty(n, dtype=np.intp)
    vecs[:star_size, 0] = 1.0
    labels[:star_size] = star
    rest = [a for a in range(c) if a != star]
    for j in range(others):
        vecs[star_size + j, 1] = 1.0
        labels[star_size + j] = rest[j % len(rest)]
    q = np.array([1.0, 0.0])
    return q, VectorSet(vecs), AttributeTable.from_labels(labels, c), \
        SimilarityFn("dot-product"), k


# ---------------------------------------------------------------------------
# optimality suites
# ---------------------------------------------------------------------------

def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def suite_single_optimality(trials: int = 500, seed: int = 0,
                            etas=SWEEP_ETAS) -> SuiteResult:
    """Nash greedy with the exact oracle matches exhaustive enumeration."""
    rng = np.random.default_rng(seed)
    bad = 0
    for t in range(trials):
        q, data, attrs, fn, k = random_single_instance(rng)
        params = WelfareParams(p=0.0, eta=etas[t % len(etas)])
        sel = nash_ann(q, k, params, data, attrs, fn)
        _, opt_log = brute_force_opt(q, k, params, data, attrs, fn)
        if not _rel_close(sel.objective, math.exp(opt_log)):
            bad += 1
    return SuiteResult("single-attribute Nash optimality", trials, bad)


def suite_pmean_optimality(trials: int = 500, seed: int = 1,
                           ps=SWEEP_PS, etas=SWEEP_ETAS) -> SuiteResult:
    """p-mean greedy with the exact oracle matches exhaustive enumeration."""
    rng = np.random.default_rng(seed)
    bad = 0
    for t in range(trials):
        q, data, attrs, fn, k = random_single_instance(rng)
        params = WelfareParams(p=ps[t % len(ps)], eta=etas[t % len(etas)])
        sel = p_mean_ann(q, k, params, data, attrs, fn)
        _, opt = brute_force_opt(q, k, params, data, attrs, fn)
        if not _rel_close(sel.objective, opt):
            bad += 1
    return SuiteResult("single-attribute p-mean optimality", trials, bad)


def suite_alpha_guarantee(trials: int = 200, seed: int = 2,
                          alphas=(0.5, 0.9),
                          ps=(0.0, -1.0, 0.5)) -> SuiteResult:
    """With a per-rank alpha-degraded oracle, the greedy welfare stays
    within a factor alpha of the exhaustive optimum."""
    rng = np.random.default_rng(seed)
    bad = 0
    for t in range(trials):
        q, data, attrs, fn, k = random_single_instance(rng)
        alpha = alphas[t % len(alphas)]
        params = WelfareParams(p=ps[t % len(ps)], eta=1.0)
        oracle = partial(alpha_topk, data=data, attrs=attrs, fn=fn,
                         cfg=AlphaOracleConfig(alpha=alpha, seed=seed + t))
        sel = p_mean_ann(q, k, params, data, attrs, fn, oracle=oracle)
        _, opt = brute_force_opt(q, k, params, data, attrs, fn)
        opt_w = math.exp(opt) if params.is_nash else opt
        if sel.objective < alpha * opt_w * (1.0 - 1e-12):
            bad += 1
    return SuiteResult("alpha-approximate oracle guarantee", trials, bad)


def suite_submodular_bound(trials: int = 300, seed: int = 3) -> SuiteResult:
    """Multi-attribute greedy attains at least (1 - 1/e) of the optimal log
    Nash welfare at eta = 1, and never exceeds it."""
    rng = np.random.default_rng(seed)
    bad = 0
    factor = 1.0 - 1.0 / math.e
    for _ in range(trials):
        q, data, attrs, fn, k = random_multi_instance(rng)
        sel = multi_nash_ann(q, k, eta=1.0, data=data, attrs=attrs, fn=fn)
        greedy_log = log_nsw(sel.utilities, 1.0)
        _, opt_log = brute_force_opt(q, k, WelfareParams(p=0.0, eta=1.0),
                                     data, attrs, fn)
        if not (factor * opt_log <= greedy_log + 1e-12
                and greedy_log <= opt_log + 1e-9):
            bad += 1
    return SuiteResult("multi-attribute greedy (1-1/e) bound", trials, bad)


# ---------------------------------------------------------------------------
# lemma suites
# ---------------------------------------------------------------------------

def _marginal_rows(rng: np.random.Generator, rows: int, length: int):
    sims = np.sort(rng.random((rows, length)) * 5.0, axis=1)[:, ::-1]
    etas = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), size=(rows, 1)))
    return sims, etas


def suite_marginals(checks: int = 10_000, seed: int = 4) -> SuiteResult:
    """Per-attribute cumulative welfare has non-increasing marginals for the
    log and p in (0, 1] paths and non-decreasing marginals for p < 0."""
    rng = np.random.default_rng(seed)
    rows = checks // 3 + 1
    length = 12
    bad = 0

    sims, etas = _marginal_rows(rng, rows, length)
    cum = np.cumsum(sims, axis=1) + etas
    f = np.log(np.concatenate([etas, cum], axis=1))
    diffs = np.diff(f, axis=1)
    bad += int(np.count_nonzero(np.diff(diffs, axis=1) > 1e-12))

    sims, etas = _marginal_rows(rng, rows, length)
    p = rng.uniform(0.01, 1.0, size=(rows, 1))
    cum = np.cumsum(sims, axis=1) + etas
    f = np.power(np.concatenate([etas, cum], axis=1), p)
    diffs = np.diff(f, axis=1)
    bad += int(np.count_nonzero(np.diff(diffs, axis=1) > 1e-12))

    sims, etas = _marginal_rows(rng, rows, length)
    p = rng.uniform(-10.0, -0.01, size=(rows, 1))
    cum = np.cumsum(sims, axis=1) + etas
    f = np.power(np.concatenate([etas, cum], axis=1), p)
    diffs = np.diff(f, axis=1)
    bad += int(np.count_nonzero(np.diff(diffs, axis=1) < -1e-12))

    return SuiteResult("marginal monotonicity lemmas", 3 * rows, bad)


def suite_submodularity(checks: int = 10_000, seed: int = 5) -> SuiteResult:
    """log Nash welfare at eta = 1 is monotone and submodular, and is zero
    on the empty set."""
    rng = np.random.default_rng(seed)
    bad = 0
    done = 0
    while done < checks:
        q, data, attrs, fn, _ = random_multi_instance(rng, n_max=12)
        w = _weight_matrix(q, data, attrs, fn)

        def f(mask: np.ndarray) -> float:
            return float(np.mean(np.log1p(w[mask].sum(axis=0))))

        if abs(f(np.zeros(data.n, dtype=bool))) > 1e-15:
            bad += 1
        batch = min(checks - done, 50)
        for _ in range(batch):
            t_mask = rng.random(data.n) < 0.5
            s_mask = t_mask & (rng.random(data.n) < 0.5)
            outside = np.flatnonzero(~t_mask)
            if outside.size == 0:
                continue
            v = int(outside[int(rng.integers(0, outside.size))])
            v_mask = np.zeros(data.n, dtype=bool)
            v_mask[v] = True
            gain_s = f(s_mask | v_mask) - f(s_mask)
            gain_t = f(t_mask | v_mask) - f(t_mask)
            if not (gain_s >= gain_t - 1e-12 and gain_t >= -1e-12):
                bad += 1
            if f(t_mask) < f(s_mask) - 1e-12:  # monotonicity
                bad += 1
        done += batch
    return SuiteResult("log Nash welfare monotone + submodular", done, bad)


def suite_log_inequality(checks: int = 10_000, seed: int = 6) -> SuiteResult:
    """x log(1 + a/x) <= a log 2 on (0, a], equality only at x = a."""
    rng = np.random.default_rng(seed)
    n_a = 50
    per = checks // n_a
    bad = 0
    for a in np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=n_a)):
        if not log_ineq_check(float(a), samples=per):
            bad += 1
    return SuiteResult("log inequality sweep", n_a * per, bad)


# ---------------------------------------------------------------------------
# behavioral and reduction suites
# ---------------------------------------------------------------------------

def suite_examples(trials: int = 50, seed: int = 7) -> SuiteResult:
    """Equal similarities spread (at most one pick per attribute when
    c >= k); all-relevance concentrates (every pick from the hot attribute)."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trials):
        c = int(rng.integers(2, 8))
        k = int(rng.integers(1, c + 1))
        eta = float(np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
        params = WelfareParams(p=0.0, eta=eta)

        q, data, attrs, fn, _ = complete_diversity_instance(c, k)
        sel = nash_ann(q, k, params, data, attrs, fn)
        counts = np.bincount(attrs.labels[list(sel.ids)], minlength=c)
        if counts.max() > 1 or len(sel) != k:
            bad += 1

        star = int(rng.integers(0, c))
        star_size = k + int(rng.integers(0, 3))
        q, data, attrs, fn, _ = complete_relevance_instance(c, k, star,
                                                            star_size)
        sel = nash_ann(q, k, params, data, attrs, fn)
        if not all(attrs.labels[v] == star for v in sel.ids) or len(sel) != k:
            bad += 1
    return SuiteResult("complete diversity / complete relevance", 2 * trials,
                       bad)


def suite_ersp(trials: int = 100, seed: int = 8) -> SuiteResult:
    """Reduction round-trip: the optimal log Nash welfare reaches the
    threshold exactly when a perfect packing exists."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(2, 13))
        tau = int(rng.integers(1, min(3, n) + 1))
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(m, max(1, n // tau)) + 1))
        inst = random_ersp(rng, n=n, tau=tau, m=m, k=k)
        _, _, _, threshold = ersp_reduction(inst)
        best = max_log_nsw(inst)
        if packing_exists(inst):
            if abs(best - threshold) > 1e-12:
                bad += 1
        else:
            if not best < threshold - 1e-12:
                bad += 1
    return SuiteResult("set-packing reduction round-trip", trials, bad)


# ---------------------------------------------------------------------------
# float32 scan suite
# ---------------------------------------------------------------------------

def random_float32_instance(rng: np.random.Generator, n_max: int = 300,
                            d_max: int = 24):
    """(q, x, fn, limit) with x a float32 base of one of four flavors:
    Gaussian rows at a random scale; small integers under dot-product, so
    dot products tie; copies of one row a few ulps apart in a component the
    query barely weighs, so similarities differ by about 1e-9 relative,
    below what float32 resolves; Gaussian rows plus a few whose float32 dot
    product overflows. ``limit`` is 1, about k or n - 1."""
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    flavor = int(rng.integers(0, 4))
    fn = _random_fn(rng)
    q = rng.normal(size=d)
    if flavor == 1:
        fn = SimilarityFn("dot-product")
        x = rng.integers(-2, 4, size=(n, d))
        q = rng.integers(-1, 3, size=d).astype(np.float64)
    elif flavor == 2:
        x = np.tile(rng.normal(size=d).astype(np.float32), (n, 1))
        x[:, 0] += rng.integers(-3, 4, size=n) * np.spacing(x[0, 0])
        q[0] *= 0.02
    else:
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if flavor == 3:
            big = rng.choice(n, size=min(n, 3), replace=False)
            x[big] = np.sign(x[big]) * 3e38 / math.sqrt(d)
            q *= 10.0
    limit = (1, min(10, n - 1), n - 1)[int(rng.integers(0, 3))]
    return q, np.asarray(x, dtype=np.float32), fn, limit


def float64_topk(q, x: np.ndarray, fn: SimilarityFn,
                 limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids and similarities of the ``limit`` best rows of x by one
    whole-array float64 similarity call, ascending id on ties."""
    sims = fn.batch(q, np.asarray(x, dtype=np.float64))
    ids = np.lexsort((np.arange(len(sims)), -sims))[:limit]
    return ids, sims[ids]


def suite_float32_scan(trials: int = 200, seed: int = 9) -> SuiteResult:
    """Over float32 bases, ``full_scan_pool`` with a limit below n (float32
    scores, a certified threshold, float64 re-scoring of the survivors)
    returns the ids and order of a whole-array float64 rank, and its
    similarities to within the last-place differences of a GEMV. The same
    filter over a random subset of the rows returns, in base ids, the
    float64 rank of that subset, through its own float64 ranking where it
    cannot certify. ``exact_topk`` filters only lists above 4096 rows, so
    the subset goes to the filter directly."""
    rng = np.random.default_rng(seed)
    # subsets draw from their own stream: the instances stay those of seed
    sub_rng = np.random.default_rng([seed, 1])
    bad = 0

    def same(pool, ids, sims):
        return (np.array_equal(pool.ids, ids)
                and np.allclose(pool.sims, sims, rtol=1e-12,
                                atol=1e-12 * np.abs(sims).max()))

    for _ in range(trials):
        q, x, fn, limit = random_float32_instance(rng)
        vs = VectorSet(x)
        ids, sims = float64_topk(q, x, fn, limit)
        m = int(sub_rng.integers(2, len(x) + 1))
        sub = np.sort(sub_rng.choice(len(x), size=m, replace=False))
        sub_limit = (1, min(10, m - 1), m - 1)[int(sub_rng.integers(0, 3))]
        part = _filtered_pool(fn.query(q), vs, fn, sub_limit, ids=sub)
        sub_ids, sub_sims = float64_topk(q, x[sub], fn, sub_limit)
        if not (same(full_scan_pool(q, vs, fn, limit=limit), ids, sims)
                and same(part, sub[sub_ids], sub_sims)):
            bad += 1
    return SuiteResult("certified float32 scan", trials, bad)


# registry used by the CLI
SUITES = {
    "single-opt": suite_single_optimality,
    "pmean-opt": suite_pmean_optimality,
    "alpha": suite_alpha_guarantee,
    "submodular": suite_submodular_bound,
    "marginals": suite_marginals,
    "submodularity": suite_submodularity,
    "log-ineq": suite_log_inequality,
    "examples": suite_examples,
    "ersp": suite_ersp,
    "float32-scan": suite_float32_scan,
}
