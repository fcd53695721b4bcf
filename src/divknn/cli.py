"""Benchmark runner.

Three subcommands:

  gen-attrs   derive an attribute file from a vector file (k-means clusters
              or the skewed categorical distribution)
  run         execute one algorithm over a query batch and write per-query
              metrics plus summary rows as CSV
  verify      run the randomized property suites and exit nonzero on any
              violation

Exit codes: 0 success, 1 verification failure, 2 usage error (a bad flag,
config value or flag combination, a --seed below 0 or a config file that
is not ASCII, found before any other file is read; for ``verify`` a
--trials or --checks below 1, a --seed below 0 or an --alpha outside
(0, 1], found before any suite runs), 3 I/O error, 4 invalid data (a
malformed or empty vector file, a malformed attribute file, files that
disagree in shape, a zero base vector under one-plus-cosine, rejected at
load, or a zero query under one-plus-cosine, which aborts the whole
batch).

``run`` resolves its settings with precedence flags > config file > preset
defaults. Config files are ``key=value`` lines with ``#`` comments; a key
is a long flag name of one of the settings in ``CONFIG_KEYS``, in any case,
with dashes or underscores. Any other key is a usage error.

``run`` splits the selected queries, in order, into ceil(m / 8) near-equal
consecutive blocks. For the scan algorithms (``ann``, ``fetch-union``,
``multi-*``) one ``oracle.block_pools`` call per block reads the base once
for all its queries, with one GEMM: float32 dot products, which each
query's certified filter turns into its exact float64 ranking, over a
float32 base (fvecs, bvecs) ranked to at most an eighth of its rows; the
float64 similarities otherwise. Each query ranks once, and that ranking
gives both its pool and the exact top-k reference of the relevance
metrics. ``nash``, ``pmean`` and ``div`` never scan the base in their
solve, so their report scans once per query for the reference.
``--threads`` runs blocks concurrently, each holding 8 score rows of n
float32 (float64 where the block is scored in float64) while in flight.
Timing uses a monotonic clock; a query's latency is its share of its
block's scan and ranking (their time over the block size) plus its own
solve (not dataset load, not metric evaluation), and QPS is the query
count over the batch wall time. All timing lands in the ``latency_us``
column, and the block split depends on the query list alone, so output is
reproducible modulo that column at a fixed seed, for any thread count.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from .baselines import div_ann, fetch_union, top_k
from .core import SimilarityFn, WelfareParams
from .data import PRESETS, cluster_attrs, prob_attrs, read_attrs, \
    read_vectors, write_attrs
from .metrics import aggregate, compute_report
from .multi import multi_div_ann, multi_nash_ann, multi_p_mean_ann
from .oracle import RankedList, block_pools
from .solvers import nash_ann, p_mean_ann
from . import suites

ALGOS = ("ann", "div", "nash", "pmean", "multi-nash", "multi-pmean",
         "multi-div", "fetch-union")
WELFARE_P_ALGOS = ("pmean", "multi-pmean", "fetch-union")
CAPPED_ALGOS = ("div", "multi-div")
POOLED_ALGOS = ("multi-nash", "multi-pmean", "multi-div", "fetch-union")
# algorithms whose solve ranks the whole base: ``run`` scores them by blocks
SCAN_ALGOS = ("ann",) + POOLED_ALGOS
# queries per similarity GEMM in ``run``
_QUERY_BLOCK = 8
# the settings a ``run`` config file may hold
CONFIG_KEYS = ("algo", "k", "p", "eta", "kprime", "pool_l", "threads",
               "seed", "similarity", "delta")


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def load_config(path: str) -> dict[str, str]:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.isascii():
        raise UsageError(f"{path}: a config file must be ASCII")
    cfg: dict[str, str] = {}
    # bytes split at \n, \r\n and \r, as a file read as text does
    for lineno, line in enumerate(raw.decode().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_").lower()] = val.strip()
    return cfg


def _resolve(flag, cfg: dict[str, str], key: str, cast, fallback):
    if flag is not None:
        return flag
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError:
            raise UsageError(f"config value {key}={cfg[key]!r} is not "
                             f"a valid {cast.__name__}") from None
    return fallback


def _read_nonempty(path: str):
    vs = read_vectors(path)
    if vs.n == 0:
        raise ValueError(f"{path}: no vectors")
    return vs


def cmd_gen_attrs(args) -> int:
    if args.mode == "prob" and (args.c not in (None, 20)
                                or args.chunks is not None):
        raise UsageError("prob mode takes no --chunks and a fixed --c of 20")
    if args.c is not None and args.c < 2:
        raise UsageError("--c must be >= 2")
    if args.chunks is not None and args.chunks < 1:
        raise UsageError("--chunks must be >= 1")
    data = _read_nonempty(args.base)
    if args.mode == "prob":
        attrs = prob_attrs(data.n, seed=args.seed)
    else:
        c = args.c if args.c is not None else 20
        attrs = cluster_attrs(data, c=c, seed=args.seed, chunks=args.chunks)
    write_attrs(args.out, attrs)
    print(f"wrote {args.out}: n={attrs.n} c={attrs.c}"
          + (f" classes={len(attrs.classes)}" if attrs.classes else ""))
    return 0


def _make_runner(algo: str, k: int, p: float, eta: float,
                 kprime: Optional[int], pool_l: Optional[int], data, attrs,
                 fn):
    """``solve(q, pool)`` for ``algo`` and the limit its pool is ranked to
    (None: every row). SCAN_ALGOS are handed q's pool; ``nash``, ``pmean``
    and ``div`` are handed None and never scan the base."""
    params = WelfareParams(p=p if algo in WELFARE_P_ALGOS else 0.0, eta=eta)
    L = pool_l if pool_l is not None else 200 * k
    return {
        "ann": (lambda q, pool: top_k(q, k, data, fn, attrs=attrs,
                                      params=params, pool=pool), k),
        "div": (lambda q, pool: div_ann(q, k, kprime, data, attrs, fn,
                                        params=params), None),
        "nash": (lambda q, pool: nash_ann(q, k, params, data, attrs, fn),
                 None),
        "pmean": (lambda q, pool: p_mean_ann(q, k, params, data, attrs, fn),
                  None),
        "multi-nash": (lambda q, pool: multi_nash_ann(
            q, k, eta, data, attrs, fn, pool=pool), pool_l),
        "multi-pmean": (lambda q, pool: multi_p_mean_ann(
            q, k, params, data, attrs, fn, pool=pool), pool_l),
        "multi-div": (lambda q, pool: multi_div_ann(
            q, k, kprime, data, attrs, fn, pool=pool, eta=eta), pool_l),
        "fetch-union": (lambda q, pool: fetch_union(
            q, k, L, params, data, attrs, fn, pool=pool), L),
    }[algo]


def cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise UsageError(f"{args.config}: unknown config key {key!r}; "
                             f"accepted: {', '.join(CONFIG_KEYS)}")
    preset = PRESETS.get(args.preset) if args.preset else None
    if args.preset and preset is None:
        raise UsageError(f"unknown preset {args.preset!r}; "
                         f"choices: {', '.join(sorted(PRESETS))}")

    algo = args.algo or cfg.get("algo")
    if algo not in ALGOS:
        raise UsageError(f"--algo must be one of {', '.join(ALGOS)}")
    k = _resolve(args.k, cfg, "k", int, None)
    if k is None or k < 1:
        raise UsageError("--k is required and must be >= 1")
    p = _resolve(args.p, cfg, "p", float, None)
    eta = _resolve(args.eta, cfg, "eta", float,
                   preset.eta if preset else 1.0)
    kprime = _resolve(args.kprime, cfg, "kprime", int, None)
    pool_l = _resolve(args.pool_l, cfg, "pool_l", int, None)
    threads = _resolve(args.threads, cfg, "threads", int, 1)
    seed = _resolve(args.seed, cfg, "seed", int, 0)
    sim_kind = _resolve(args.similarity, cfg, "similarity", str,
                        preset.similarity if preset else "one-plus-cosine")
    delta = _resolve(args.delta, cfg, "delta", float,
                     preset.delta if preset and preset.delta else eta)

    if kprime is not None and algo not in CAPPED_ALGOS:
        raise UsageError(f"--kprime is incompatible with --algo {algo}")
    if kprime is None and algo in CAPPED_ALGOS:
        raise UsageError(f"--algo {algo} requires --kprime")
    if p is not None and algo not in WELFARE_P_ALGOS:
        raise UsageError(f"--p is incompatible with --algo {algo}")
    if pool_l is not None and algo not in POOLED_ALGOS:
        raise UsageError(f"--pool-L is incompatible with --algo {algo}")
    if p is None:
        p = 0.0
    # written so that NaN fails every check
    if not -math.inf < p <= 1.0:
        raise UsageError("--p must lie in (-inf, 1]")
    if not 0 < eta < math.inf:
        raise UsageError("--eta must be finite and > 0")
    if threads < 1:
        raise UsageError("--threads must be >= 1")
    if seed < 0:
        raise UsageError("--seed must be >= 0")
    if args.num_queries is not None and args.num_queries < 1:
        raise UsageError("--num-queries must be >= 1")
    if kprime is not None and kprime < 1:
        raise UsageError("--kprime must be >= 1")
    if pool_l is not None and pool_l < 1:
        raise UsageError("--pool-L must be >= 1")
    if algo == "fetch-union" and pool_l is not None and pool_l < k:
        raise UsageError("--pool-L must be >= --k for fetch-union")
    try:
        fn = SimilarityFn(sim_kind, delta=delta
                          if sim_kind == "reciprocal-euclidean" else 0.0)
    except ValueError as e:
        raise UsageError(str(e)) from None

    data = _read_nonempty(args.base)
    queries = _read_nonempty(args.queries)
    attrs = read_attrs(args.attrs)
    if attrs.n != data.n:
        raise ValueError(f"attribute file covers {attrs.n} vectors, "
                         f"base has {data.n}")
    if data.d != queries.d:
        raise ValueError("base and query dimensions differ")
    if fn.kind == "one-plus-cosine" and data.min_norm == 0.0:
        zero = np.flatnonzero(data.norms == 0.0)
        raise ValueError(f"{args.base}: vector {zero[0]} is zero; "
                         "one-plus-cosine needs nonzero vectors")

    qidx = np.arange(queries.n)
    if args.num_queries is not None and args.num_queries < queries.n:
        rng = np.random.default_rng(seed)
        qidx = np.sort(rng.choice(queries.n, size=args.num_queries,
                                  replace=False))

    solve, limit = _make_runner(algo, k, p, eta, kprime, pool_l, data,
                                attrs, fn)
    # rank is a total order on (similarity, id), so one ranking to
    # max(limit, k) rows holds the pool (its head limit rows) and the exact
    # top-k reference of the report (its head k rows)
    top_l = None if limit is None else max(limit, k)
    base2 = args.entropy_base == "2"

    def work(block: np.ndarray):
        # one GEMM reads the base once for the whole block
        t0 = time.perf_counter()
        tops = (block_pools(queries.data[block], data, fn, top_l)
                if algo in SCAN_ALGOS else [None] * len(block))
        share = (time.perf_counter() - t0) / len(block)
        out = []
        for qi, top in zip(block, tops):
            q = queries.data[qi]
            t1 = time.perf_counter()
            pool = (top if top is None or limit is None or limit >= k
                    else RankedList(ids=top.ids[:limit],
                                    sims=top.sims[:limit]))
            sel = solve(q, pool)
            latency_us = (share + time.perf_counter() - t1) * 1e6
            # without a ranking the report scans for its own reference
            ref = None if top is None else top.ids[:k]
            rep = compute_report(sel.ids, q, k, data, attrs, fn, base2=base2,
                                 truncated=sel.truncated, o_ids=ref)
            out.append((qi, rep, latency_us))
        return out

    # the split depends on the query list alone, never on --threads, so
    # every query's scores come from the same GEMM at any thread count
    blocks = np.array_split(qidx, -(-len(qidx) // _QUERY_BLOCK))
    wall0 = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            done = list(ex.map(work, blocks))
    else:
        done = [work(block) for block in blocks]
    wall = time.perf_counter() - wall0
    results = [r for out in done for r in out]

    n_classes = len(attrs.classes) if attrs.classes is not None else 0
    header = ["query_id", "algo", "k", "p", "eta", "kprime",
              "approx_ratio", "recall", "entropy", "inverse_simpson",
              "distinct_count"]
    for ci in range(n_classes):
        header += [f"entropy_class{ci}", f"inverse_simpson_class{ci}"]
    header += ["truncated", "latency_us"]

    fixed = [algo, _fmt(k), _fmt(float(p)), _fmt(float(eta)),
             _fmt(kprime) if kprime is not None else ""]

    rows = []
    for qi, rep, lat in results:
        row = [str(qi)] + fixed + [_fmt(rep.approx_ratio), _fmt(rep.recall),
                                   _fmt(rep.entropy),
                                   _fmt(rep.inverse_simpson),
                                   _fmt(rep.distinct_count)]
        for ci in range(n_classes):
            row += [_fmt(rep.per_class[ci][1]), _fmt(rep.per_class[ci][2])]
        row += [_fmt(rep.truncated), _fmt(lat)]
        rows.append(row)

    lat_all = np.array([lat for _, _, lat in results]) if results else np.zeros(1)
    metric_cols = list(range(6, len(header) - 2))

    def summary_row(label: str, stat_idx: int) -> list[str]:
        row = [label] + fixed + [""] * (len(header) - 6)
        for col in metric_cols:
            vals = [float(r[col]) for r in rows]
            row[col] = _fmt(aggregate(vals)[stat_idx])
        row[-1] = _fmt(float(aggregate(lat_all.tolist())[stat_idx]))
        return row

    summaries = [summary_row("mean", 0), summary_row("stddev", 1),
                 summary_row("stderr", 2)]
    p999 = [""] * len(header)
    p999[0] = "p99.9_latency"
    p999[1:6] = fixed
    p999[-1] = _fmt(float(np.percentile(lat_all, 99.9)))
    qps = [""] * len(header)
    qps[0] = "qps"
    qps[1:6] = fixed
    qps[-1] = _fmt(len(results) / wall if wall > 0 else 0.0)

    with open(args.out, "w", encoding="ascii", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
        w.writerows(summaries)
        w.writerow(p999)
        w.writerow(qps)
    print(f"wrote {args.out}: {len(rows)} queries, algo={algo}, k={k}, "
          f"qps={len(results) / wall if wall > 0 else 0.0:.1f}")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.checks < 1:
        raise UsageError("--checks must be >= 1")
    if args.alpha is not None and not 0.0 < args.alpha <= 1.0:
        raise UsageError("--alpha must lie in (0, 1]")
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        fnc = suites.SUITES[name]
        kwargs = {"seed": args.seed}
        if name in ("marginals", "submodularity", "log-ineq"):
            kwargs["checks"] = args.checks
        else:
            kwargs["trials"] = args.trials
        if name == "alpha" and args.alpha is not None:
            kwargs["alphas"] = (args.alpha,)
        res = fnc(**kwargs)
        print(res.line())
        failed = failed or not res.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divknn",
        description="diversity-aware nearest-neighbor benchmark runner")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-attrs", help="derive an attribute file")
    g.add_argument("--base", required=True, help="vector file (.fvecs/.bvecs)")
    g.add_argument("--mode", choices=("clus", "prob"), required=True)
    g.add_argument("--c", type=int, default=None,
                   help="cluster count (clus mode; default 20)")
    g.add_argument("--chunks", type=int, default=None,
                   help="dimension slices for a multi-attribute table")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_attrs)

    r = sub.add_parser("run", help="run one algorithm over a query batch")
    r.add_argument("--base", required=True)
    r.add_argument("--queries", required=True)
    r.add_argument("--attrs", required=True)
    r.add_argument("--preset", default=None,
                   help=f"dataset preset ({', '.join(sorted(PRESETS))})")
    r.add_argument("--algo", choices=ALGOS, default=None)
    r.add_argument("--k", type=int, default=None)
    r.add_argument("--p", type=float, default=None)
    r.add_argument("--eta", type=float, default=None)
    r.add_argument("--kprime", type=int, default=None)
    r.add_argument("--pool-L", dest="pool_l", type=int, default=None)
    r.add_argument("--threads", type=int, default=None)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--similarity", choices=("one-plus-cosine",
                                            "reciprocal-euclidean",
                                            "dot-product"), default=None)
    r.add_argument("--delta", type=float, default=None)
    r.add_argument("--num-queries", type=int, default=None)
    r.add_argument("--entropy-base", choices=("e", "2"), default="e")
    r.add_argument("--config", default=None, help="key=value config file")
    r.add_argument("--out", required=True, help="results CSV path")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="run the property suites")
    v.add_argument("--suite", choices=tuple(suites.SUITES) + ("all",),
                   default="all")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--checks", type=int, default=10_000)
    v.add_argument("--alpha", type=float, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        # every command takes --seed; run also reads it from its config
        if args.seed is not None and args.seed < 0:
            raise UsageError("--seed must be >= 0")
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
