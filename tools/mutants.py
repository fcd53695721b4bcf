"""Run the committed mutant list: small edits to the package that the
tests must catch, or that they are known to miss.

    python3 tools/mutants.py [NAME ...]

Each mutant names a file under ``src/divknn``, an exact old snippet, the
new snippet that replaces it, the test files to run, the reason it exists
and its expected outcome. The tool copies ``src/``, ``tests/`` and
``pyproject.toml`` of this checkout into a temporary directory once and
runs the chosen mutants' test files there unmutated: if they do not pass,
a kill would say nothing, and it exits 1 before any mutant. Then for each
mutant (all of them, or those NAMEd) it replaces the old snippet in the
copy, runs ``python -m pytest -q -x`` on the mutant's test files there and
puts the file back. The outcome is ``killed`` when a test fails,
``survived`` when every test passes, ``stale`` when the old snippet is
not found exactly once, ``timeout`` when pytest runs longer than
RUN_TIMEOUT_S, and ``error`` when pytest fails otherwise (a collection or
usage error). The exit status is 1 when any outcome differs from the
expected one, else 0.

A survivor is expected only where CHANGES.md records it: as found, a
check that no test makes, or as a term that no input can reach alone.
Remove a mutant only when its code is gone, and add one for each check a
change relies on.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str            # under src/divknn
    old: str             # found exactly once in the file
    new: str
    tests: tuple[str, ...]
    reason: str
    expect: str          # "killed" or "survived"


MUTANTS = (
    Mutant(
        "greedy-tie-to-highest-attribute", "solvers.py",
        "a = max(live, key=gain.__getitem__)",
        "a = max(reversed(live), key=gain.__getitem__)",
        ("tests/test_solvers.py", "tests/test_baselines.py"),
        "equal marginals go to the lowest attribute id",
        "killed"),
    Mutant(
        "greedy-never-truncated", "solvers.py",
        "return chosen, np.array(w), len(chosen) < k",
        "return chosen, np.array(w), False",
        ("tests/test_solvers.py", "tests/test_baselines.py"),
        "a selection whose lists run out before k picks is truncated",
        "killed"),
    Mutant(
        "no-list-floor", "oracle.py",
        "return not (listed and n <= _SURVIVOR_FLOOR) and \\",
        "return not (listed and n < 0) and \\",
        ("tests/test_oracle.py",),
        "an inverted list of at most 4096 rows is ranked in float64",
        "killed"),
    Mutant(
        "share-cuts-off-4096", "core.py",
        "cuts = [0] + [n * i // w // _NORM_BLOCK * _NORM_BLOCK",
        "cuts = [0] + [n * i // w",
        ("tests/test_filtered_scan.py",),
        "a share starts where a single thread's 4096-row block does, so "
        "every row's float32 score has the same bits at any worker count",
        "killed"),
    Mutant(
        "setup-share-writes-at-share-offset", "core.py",
        "out=sqnorms[a:a + len(block)])",
        "out=sqnorms[a - lo:a - lo + len(block)])",
        ("tests/test_core.py",),
        "each share of the set-up pass writes its rows' squared norms at "
        "their own places",
        "killed"),
    Mutant(
        "setup-share-finite-check-passes", "core.py",
        "                            or np.isfinite(block).all()):\n"
        "                        return False\n",
        "                            or np.isfinite(block).all()):\n"
        "                        pass\n",
        ("tests/test_core.py",),
        "a share of the set-up pass reports a row with a NaN or Inf entry",
        "killed"),
    Mutant(
        "setup-reads-first-share-only", "core.py",
        "if not all(_on_shares(fill, _shares(n, _STREAM_ROWS))):",
        "if not _on_shares(fill, _shares(n, _STREAM_ROWS))[0]:",
        ("tests/test_core.py",),
        "the set-up pass rejects a NaN or Inf entry in any share, not only "
        "in the first",
        "killed"),
    Mutant(
        "filter-any-width", "oracle.py",
        "data.data.dtype == np.float32 and data.d * _U32 < 0.5 and \\",
        "data.data.dtype == np.float32 and \\",
        ("tests/test_filtered_scan.py",),
        "a float32 base of d >= 2^23, where the filter's float32 rounding "
        "bound fails, is ranked in float64",
        "killed"),
    Mutant(
        "filter-no-e64-dot-product", "oracle.py",
        "self.e64 = _gamma(d + 8, _U64) * xmax * nq * _SAFE",
        "self.e64 = 0.0",
        ("tests/test_filtered_scan.py", "tests/test_oracle.py"),
        "the float64 rounding term of the dot-product filter; no input "
        "reaches it alone, since _SAFE's slack on err outweighs it (see "
        "_Filter's docstring and test_safe_slack_outweighs_e64)",
        "survived"),
    Mutant(
        "filter-no-e64-one-plus-cosine", "oracle.py",
        "self.e64 = (_gamma(d, _U64) * nq + 16.0 * _U64 * self.qn) * _SAFE",
        "self.e64 = 0.0",
        ("tests/test_filtered_scan.py", "tests/test_oracle.py"),
        "the float64 rounding term of the one-plus-cosine filter; no input "
        "reaches it alone, since _SAFE's slack on err outweighs it (see "
        "_Filter's docstring and test_safe_slack_outweighs_e64)",
        "survived"),
    Mutant(
        "filter-no-e_d-reciprocal-euclidean", "oracle.py",
        "self.e_d = (2.0 * _gamma(d + 2, _U64) * xmax * nq\n"
        "                        + 4.0 * _U64 * (xsq + self.qq + xmax * nq))"
        " * _SAFE",
        "self.e_d = 0.0",
        ("tests/test_filtered_scan.py", "tests/test_oracle.py"),
        "the float64 error of the reciprocal-euclidean squared distance; "
        "no input reaches it alone, since _SAFE's slack on err or theta's "
        "2^-40 r (r + delta) outweighs it (see _Filter's docstring and "
        "test_safe_slack_or_distance_term_outweighs_e_d)",
        "survived"),
    Mutant(
        "filter-safe-slack-below-float64-terms", "oracle.py",
        "_SAFE = 1.0 + 2.0 ** -20",
        "_SAFE = 1.0 + 2.0 ** -28",
        ("tests/test_filtered_scan.py",),
        "the slack _SAFE puts on err outweighs the float64 terms, which is "
        "why no input reaches them alone",
        "killed"),
    Mutant(
        "filter-threshold-without-margin", "oracle.py",
        "        self.t = theta\n",
        "        self.t = tau\n",
        ("tests/test_filtered_scan.py", "tests/test_oracle.py"),
        "a row survives when its float64 key reaches tau - 2 err - 4 e64, "
        "not tau",
        "killed"),
    Mutant(
        "filter-floor-without-count", "oracle.py",
        "                if np.count_nonzero(key >= t) >= self.limit:\n"
        "                    return t\n",
        "                return t\n",
        ("tests/test_filtered_scan.py", "tests/test_oracle.py"),
        "the sample's key bounds tau from below only when at least limit "
        "keys reach it; else the floor is tau",
        "killed"),
    Mutant(
        "filter-pool-narrows-at-the-floor", "oracle.py",
        "            self._lift(floor)\n"
        "            pos = self._kept(key)\n",
        "            self.t = floor\n"
        "            pos = self._kept(key)\n",
        ("tests/test_filtered_scan.py", "tests/test_oracle.py"),
        "a one-block pool keeps the rows at or above the floor's theta, "
        "which holds the rows within the margin below tau, not the floor",
        "killed"),
    Mutant(
        "filter-pool-narrowing-drops-non-finite-keys", "oracle.py",
        "            pos = self._kept(key)\n",
        "            pos = (key >= self.t).nonzero()[0]\n",
        ("tests/test_filtered_scan.py", "tests/test_oracle.py"),
        "a one-block pool's narrowing keeps the rows whose float32 scores "
        "overflowed",
        "killed"),
    Mutant(
        "filter-no-query-rounding-term", "oracle.py",
        "per_norm = (np.linalg.norm(v - q32) + _gamma(d, _U32) * nq32)"
        " * _SAFE",
        "per_norm = _gamma(d, _U32) * nq32 * _SAFE",
        ("tests/test_filtered_scan.py",),
        "the filter's margin covers the query's own float32 rounding "
        "|q - q32|",
        "killed"),
    Mutant(
        "share-join-drops-later-shares", "oracle.py",
        "        f.pos = np.concatenate([f.pos] + [o.pos for o in others])\n"
        "        f.key = np.concatenate([f.key] + [o.key for o in others])\n",
        "        pass\n",
        ("tests/test_filtered_scan.py",),
        "each query's kept rows of every share are joined before its pool "
        "is ranked",
        "killed"),
    Mutant(
        "rank-no-lexsort-tie-branch", "oracle.py",
        "if (ranked[1:] == ranked[:-1]).any():",
        "if False:",
        ("tests/test_oracle.py",),
        "equal similarities are ranked by ascending id, which the unstable "
        "sort alone does not give",
        "killed"),
    Mutant(
        "rank-threshold-strict", "oracle.py",
        "above = sims >= sims[part[n - limit]]",
        "above = sims > sims[part[n - limit]]",
        ("tests/test_oracle.py",),
        "every candidate tied with the limit-th best joins the candidates "
        "before the id order decides",
        "killed"),
    Mutant(
        "run-checks-raw-query", "cli.py",
        "q = qs.row(i)",
        "q = queries.data[qi]",
        ("tests/test_cli.py",),
        "divknn run hands the solver, the reference and the report the "
        "query its block checked, so no query is checked twice",
        "killed"),
    Mutant(
        "run-reference-skips-attribute-0", "cli.py",
        "        def reference(q, lists):\n",
        "        def reference(q, lists):\n            lists = lists[1:]\n",
        ("tests/test_cli.py",),
        "a list algorithm's report ranks the union of every list for its "
        "reference top-k",
        "killed"),
    Mutant(
        "run-list-oracle-ignores-depth", "cli.py",
        "head(top[attribute], depth)",
        "top[attribute]",
        ("tests/test_cli.py",),
        "div reads its lists to max(k, k') rows; its oracle returns each "
        "list's head k' rows",
        "killed"),
)


def _copy(dst: str) -> None:
    """This checkout's src/, tests/ and pyproject.toml, without caches."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dst, name),
                        ignore=skip)
    shutil.copy2(os.path.join(ROOT, "pyproject.toml"), dst)


def _env(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # no bytecode: a mutant of the same size and mtime second as the
    # original must never run the original's cached code
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _pytest(tree: str, tests) -> str:
    """``survived`` when every test in the files ``tests`` of the copy
    ``tree`` passes, ``killed`` when one fails, else ``timeout`` or
    ``error``."""
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", *tests],
            cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "survived", 1: "killed"}.get(code, "error")


def run(m: Mutant, tree: str) -> str:
    """The outcome of mutant m in the copy ``tree``, which it leaves as it
    found it."""
    path = os.path.join(tree, "src", "divknn", m.file)
    with open(path, encoding="utf-8") as f:
        original = f.read()
    if original.count(m.old) != 1:
        return "stale"
    with open(path, "w", encoding="utf-8") as f:
        f.write(original.replace(m.old, m.new))
    try:
        return _pytest(tree, m.tests)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default all)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or list(MUTANTS)
    wrong = []
    with tempfile.TemporaryDirectory(prefix="divknn-mutants-") as tree:
        _copy(tree)
        # the copy, not an installed package, is what the tests import
        where = subprocess.run(
            [sys.executable, "-c", "import divknn; print(divknn.__file__)"],
            cwd=tree, env=_env(tree), capture_output=True, text=True)
        if not where.stdout.startswith(tree):
            print(f"the copy's package is not imported: {where.stdout!r}"
                  f"{where.stderr!r}", file=sys.stderr)
            return 1
        tests = sorted({t for m in chosen for t in m.tests})
        base = _pytest(tree, tests)
        if base != "survived":
            print(f"the unmutated tests do not pass in the copy ({base}): "
                  f"{' '.join(tests)}", file=sys.stderr)
            return 1
        for m in chosen:
            t0 = time.perf_counter()
            outcome = run(m, tree)
            ok = outcome == m.expect
            print(f"{'ok  ' if ok else 'FAIL'} {m.name}: {outcome} "
                  f"(expected {m.expect}, {time.perf_counter() - t0:.1f} s)",
                  flush=True)
            if not ok:
                wrong.append(m.name)
    print(f"{len(chosen) - len(wrong)} of {len(chosen)} mutants as expected"
          + (f"; not as expected: {', '.join(wrong)}" if wrong else ""))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
