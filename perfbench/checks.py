"""Output checks: every selection the benchmark times is verified here.

A selection passes when it holds k distinct in-range ids (or carries its
truncation flag) and its objective equals ``core.welfare(core.utilities(...))``
within 1e-9 relative. On single-attribute exact workloads its objective must
also equal the true optimum, found by :func:`exact_optimum` from a plain
numpy scan of the generated files that never calls the program's oracle or
solvers. The ``divknn run`` CSV must hold one row per query whose
``approx_ratio`` and ``entropy`` equal the library loop's values.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from divknn import core

REL_TOL = 1e-9


def read_fvecs_plain(path: str) -> np.ndarray:
    """fvecs payload as float64, read without the program's reader."""
    raw = np.fromfile(path, dtype="<i4")
    d = int(raw[0])
    return raw.reshape(-1, d + 1)[:, 1:].view("<f4").astype(np.float64)


def read_labels_plain(path: str) -> np.ndarray:
    """Labels of a single-attribute file, read without the program."""
    rows = np.loadtxt(path, dtype=np.int64, delimiter=",", comments="#")
    labels = np.empty(len(rows), dtype=np.int64)
    labels[rows[:, 0]] = rows[:, 1]
    return labels


def exact_optimum(sims: np.ndarray, labels: np.ndarray, c: int, k: int,
                  p: float, eta: float) -> float:
    """Best welfare over all k-subsets in the single-attribute setting.

    Taking j vectors of attribute l is best done with its j most similar,
    so attribute l contributes a welfare term that depends on j alone; a
    knapsack DP over attributes with total budget k finds the optimum.
    """
    sign = 1.0 if (p == 0.0 or p > 0) else -1.0
    best = np.full(k + 1, -np.inf)
    best[0] = 0.0
    for a in range(c):
        top = np.sort(sims[labels == a])[::-1][:k]
        util = np.concatenate(([0.0], np.cumsum(top))) + eta
        gain = np.log(util) if p == 0.0 else sign * util ** p
        nxt = np.full(k + 1, -np.inf)
        for j, g in enumerate(gain):
            nxt[j:] = np.maximum(nxt[j:], best[:k + 1 - j] + g)
        best = nxt
    total = best[k]
    if p == 0.0:
        return math.exp(total / c)
    return (sign * total / c) ** (1.0 / p)


class SelectionChecker:
    """Checks selections of one loaded workload; returns a reason or None.

    Results are deterministic per query, so a selection identical to one
    already checked for the same query is not recomputed.
    """

    def __init__(self, base, attrs, fn, queries: np.ndarray,
                 optimum_of=None) -> None:
        self.base, self.attrs, self.fn = base, attrs, fn
        self.queries = queries
        self.optimum_of = optimum_of   # qi -> optimal welfare, or None
        self._seen: dict = {}

    def check(self, qi: int, sel, params: core.WelfareParams,
              k: int) -> str | None:
        if isinstance(sel, Exception):
            return f"raised {type(sel).__name__}: {sel}"
        key = (qi, tuple(sel.ids), sel.objective, sel.truncated)
        if key not in self._seen:
            self._seen[key] = self._check(qi, sel, params, k)
        return self._seen[key]

    def _check(self, qi, sel, params, k) -> str | None:
        ids = [int(i) for i in sel.ids]
        if len(set(ids)) != len(ids):
            return "duplicate id"
        if any(i < 0 or i >= self.base.n for i in ids):
            return "id out of range"
        if len(ids) != k and not sel.truncated:
            return f"{len(ids)} ids without the truncation flag"
        q = self.queries[qi]
        want = core.welfare(
            core.utilities(q, ids, self.base, self.attrs, self.fn), params)
        if sel.objective is None or not math.isclose(
                sel.objective, want, rel_tol=REL_TOL):
            return f"objective {sel.objective} != recomputed {want}"
        if self.optimum_of is not None:
            opt = self.optimum_of(qi)
            if not math.isclose(sel.objective, opt, rel_tol=REL_TOL):
                return f"objective {sel.objective} != optimum {opt}"
        return None


def plain_optimum(base_path: str, attrs_path: str, queries: np.ndarray,
                  w, k: int, eta: float, p_by_algo: dict):
    """Return qi -> optimal welfare, computed from the files with numpy."""
    x = read_fvecs_plain(base_path)
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    labels = read_labels_plain(attrs_path)
    with open(attrs_path, encoding="ascii") as f:
        c = int(f.readline().strip().split("=")[1].split(";")[0])
    cache: dict = {}

    def optimum(qi: int) -> float:
        if qi not in cache:
            q = np.asarray(queries[qi], dtype=np.float64)
            sims = 1.0 + (x @ q) / (norms * np.linalg.norm(q))
            cache[qi] = exact_optimum(sims, labels, c, k,
                                      p_by_algo[w.algo_of(qi)], eta)
        return cache[qi]

    return optimum


def check_csv(path: str | None, algo: str, qis: list, lib: dict) -> list:
    """Compare one ``divknn run`` CSV with the library loop's metrics.

    ``qis[j]`` is the workload query behind CSV row j; ``lib[qi]`` holds the
    library's (approx_ratio, entropy). ``path`` is None when ``divknn run``
    failed. Returns one failure reason per query that is missing or differs.
    """
    if path is None:
        return [f"divknn run --algo {algo} failed"] * len(qis)
    try:
        with open(path, newline="", encoding="ascii") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        return [f"csv unreadable: {exc}"] * len(qis)
    if not rows:
        return ["csv empty"] * len(qis)
    col = {name: i for i, name in enumerate(rows[0])}
    query_rows = [row for row in rows[1:] if row and row[0].isdigit()]
    found = {int(row[0]): row for row in query_rows}
    failures = []
    if len(query_rows) > len(qis):
        failures.append(f"csv has {len(query_rows)} query rows, "
                        f"expected {len(qis)}")
    for j, qi in enumerate(qis):
        row = found.get(j)
        if row is None:
            failures.append(f"csv row {j} missing")
            continue
        if row[col["algo"]] != algo:
            failures.append(f"csv row {j} algo {row[col['algo']]}")
            continue
        ratio, ent = lib.get(qi, (None, None))
        got = (float(row[col["approx_ratio"]]), float(row[col["entropy"]]))
        if ratio is None or not (math.isclose(got[0], ratio, rel_tol=REL_TOL)
                                 and math.isclose(got[1], ent,
                                                  rel_tol=REL_TOL)):
            failures.append(f"csv row {j} metrics {got} != {(ratio, ent)}")
    return failures
