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

``run`` takes each setting from the first layer that sets it: flags,
config file, preset, built-in default; ``--delta`` falls back to eta last.
Config files are ``key=value`` lines with ``#`` comments; a key is a long
flag name of one of the settings in ``CONFIG_KEYS``, in any case, with
dashes or underscores. Any other key is a usage error, and so is a value
that is not of its setting's type (an ``algo`` or ``similarity`` outside
its choices), also where a flag overrides it.

``run`` splits the selected queries, in order, into ceil(m / 8) near-equal
consecutive blocks. For the scan algorithms (``ann``, ``fetch-union``,
``multi-*``) one ``oracle.block_pools`` call per block reads the base once
for all its queries, with one GEMM: float32 dot products, which each
query's certified filter turns into its exact float64 ranking, over a
float32 base (fvecs, bvecs) ranked to at most an eighth of its rows; the
float64 similarities otherwise. ``nash``, ``pmean`` and ``div`` never
scan the base: one ``oracle.block_pools`` call per inverted list and block
reads each list once for all the block's queries and ranks it to k rows
(max(k, k') for ``div``), by one float64 GEMM of the list's rows or, for a
list above 4096 rows of a float32 base, by sgemms of at most 65536 list
rows, gathered 4096 at a time, and each query's certified filter; a
solver's oracle reads the head k (k') rows of its lists. Every report's
exact top-k reference is the head k rows of one ranking the block already
read, outside the timed solve: the query's ranking of the base, or
``oracle.rank`` of the union of its lists, which partition the base of a
single-attribute table (checked before any block is read); so ``div``
with k' < k reads its lists to k rows in its timed reads.
``--threads`` runs blocks concurrently; a block in flight holds the score
memory that ``oracle.block_pools`` states. Apart from ``--threads``, a
scan of a float32 base of at least 131072 rows (or an inverted list of
as many) splits its rows across the CPUs the process may run on, one
share per worker thread (``core._workers``), with the same output.
Timing uses a monotonic clock; a query's latency is its share of its
block's reads and rankings (their time over the block size) plus its own
solve (not dataset load, not metric evaluation), and QPS is the query
count over the batch wall time. All timing lands in the ``latency_us``
column, and the block split depends on the query list alone, so output is
reproducible modulo that column at a fixed seed, for any thread count.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from typing import Optional

import numpy as np

from .baselines import div_ann, fetch_union, top_k
from .core import SIMILARITY_KINDS, SimilarityFn, WelfareParams
from .data import PRESETS, cluster_attrs, prob_attrs, read_attrs, \
    read_vectors, write_attrs
from .metrics import aggregate, compute_report
from .multi import multi_div_ann, multi_nash_ann, multi_p_mean_ann
from .oracle import AlphaOracleConfig, RankedList, block_pools, rank
from .solvers import nash_ann, p_mean_ann
from . import suites

# each algorithm and what it takes beyond --k and --eta: the welfare
# exponent --p, the cap --kprime (then required) and the pool size --pool-L
ALGO_FLAGS = {
    "ann": (), "div": ("--kprime",), "nash": (), "pmean": ("--p",),
    "multi-nash": ("--pool-L",), "multi-pmean": ("--p", "--pool-L"),
    "multi-div": ("--kprime", "--pool-L"), "fetch-union": ("--p", "--pool-L"),
}
ALGOS = tuple(ALGO_FLAGS)
# queries per similarity GEMM in ``run``
_QUERY_BLOCK = 8
# the settings a ``run`` config file may hold, with their types
CONFIG_KEYS = {"algo": str, "k": int, "p": float, "eta": float,
               "kprime": int, "pool_l": int, "threads": int, "seed": int,
               "similarity": str, "delta": float}
# the values a setting of text may take
_CHOICES = {"algo": ALGOS, "similarity": SIMILARITY_KINDS}
# the layer below flags, config file and preset
_DEFAULTS = {"eta": 1.0, "threads": 1, "seed": 0,
             "similarity": "one-plus-cosine"}


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` for nonempty values free of NaN, by the
    same linear interpolation, without the import of ``numpy.ma`` that
    its first call makes, a large share of a short run's start-up."""
    ordered = np.sort(values)
    # numpy's virtual index and its interpolation, in the same steps
    h = (len(ordered) - 1) * (q / 100)
    lo = int(h)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    t = h - lo
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


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


def _make_runner(algo: str, k: int, params: WelfareParams,
                 kprime: Optional[int], pool_l: Optional[int], data, attrs,
                 fn):
    """``(rank_block, solve, reference)`` for ``algo``. ``rank_block(qs)``
    reads once what a checked block of queries needs and gives each query
    its share ``top`` for ``solve(q, top)`` and ``reference(q, top)``, the
    report's exact top-k ids. ``ann``, ``fetch-union`` and ``multi-*`` get
    q's ranking of the base to max(pool size, k) rows (all for ``multi-*``
    without --pool-L), whose head is the reference. ``nash``, ``pmean`` and
    ``div`` get q's top k (max(k, k') for ``div``) of each list: the oracle
    reads each head k (k'), the reference ranks their union."""
    eta = params.eta
    L = pool_l if pool_l is not None else 200 * k

    def head(top, m):
        # the head m rows of a ranking: a pool's --pool-L, a list's depth
        return (top if m is None or m >= len(top)
                else RankedList(ids=top.ids[:m], sims=top.sims[:m]))

    def listed(top):
        return lambda q, attribute, depth: head(top[attribute], depth)

    solve = {
        "ann": lambda q, top: top_k(q, k, data, fn, attrs=attrs,
                                    params=params, pool=top),
        "div": lambda q, top: div_ann(q, k, kprime, data, attrs, fn,
                                      oracle=listed(top), params=params),
        "nash": lambda q, top: nash_ann(q, k, params, data, attrs, fn,
                                        oracle=listed(top)),
        "pmean": lambda q, top: p_mean_ann(q, k, params, data, attrs, fn,
                                           oracle=listed(top)),
        "multi-nash": lambda q, top: multi_nash_ann(
            q, k, eta, data, attrs, fn, pool=head(top, pool_l)),
        "multi-pmean": lambda q, top: multi_p_mean_ann(
            q, k, params, data, attrs, fn, pool=head(top, pool_l)),
        "multi-div": lambda q, top: multi_div_ann(
            q, k, kprime, data, attrs, fn, pool=head(top, pool_l), eta=eta),
        "fetch-union": lambda q, top: fetch_union(
            q, k, L, params, data, attrs, fn, pool=top),
    }[algo]
    if algo in ("div", "nash", "pmean"):
        attrs.require_single()
        depth = max(k, kprime or k)

        def reference(q, lists):
            # the lists partition the base: their union holds its top-k
            top = rank(np.concatenate([r.sims for r in lists]),
                       np.concatenate([r.ids for r in lists]), k)
            return top_k(q, k, data, fn, pool=top).ids

        # one read of each list for the block; query i's lists are row i
        return (lambda qs: list(zip(*(block_pools(qs, data, fn, depth, ids)
                                      for ids in attrs.inverted)))), \
            solve, reference
    limit = {"ann": k, "fetch-union": L}.get(algo, pool_l)
    top_l = None if limit is None else max(limit, k)
    return (lambda qs: block_pools(qs, data, fn, top_l)), solve, \
        lambda q, top: top.ids[:k]


def _settings(args) -> tuple[dict, WelfareParams, SimilarityFn]:
    """The ``run`` settings of ``CONFIG_KEYS`` (None where unset), their
    welfare parameters and similarity, checked before any data file is
    read."""
    cfg = load_config(args.config) if args.config else {}
    # every value is checked as it is read, also one a flag overrides
    for key, val in cfg.items():
        if key not in CONFIG_KEYS:
            raise UsageError(f"{args.config}: unknown config key {key!r}; "
                             f"accepted: {', '.join(CONFIG_KEYS)}")
        cast = CONFIG_KEYS[key]
        try:
            cfg[key] = cast(val)
        except ValueError:
            raise UsageError(f"{args.config}: config value {key}={val!r} "
                             f"is not a valid {cast.__name__}") from None
        if key in _CHOICES and cfg[key] not in _CHOICES[key]:
            raise UsageError(f"{args.config}: config value {key}={val!r} "
                             f"is not one of {', '.join(_CHOICES[key])}")
    preset = PRESETS.get(args.preset) if args.preset else None
    if args.preset and preset is None:
        raise UsageError(f"unknown preset {args.preset!r}; "
                         f"choices: {', '.join(sorted(PRESETS))}")

    layers = (vars(args), cfg, vars(preset) if preset else {}, _DEFAULTS)
    s = {key: next((lay[key] for lay in layers if lay.get(key) is not None),
                   None) for key in CONFIG_KEYS}
    if s["delta"] is None:
        s["delta"] = s["eta"]

    algo, k = s["algo"], s["k"]
    if algo not in ALGOS:
        raise UsageError(f"--algo must be one of {', '.join(ALGOS)}")
    if k is None or k < 1:
        raise UsageError("--k is required and must be >= 1")
    takes = ALGO_FLAGS[algo]
    for flag, key in (("--kprime", "kprime"), ("--p", "p"),
                      ("--pool-L", "pool_l")):
        if s[key] is not None and flag not in takes:
            raise UsageError(f"{flag} is incompatible with --algo {algo}")
        if s[key] is None and flag in takes and key == "kprime":
            raise UsageError(f"--algo {algo} requires --kprime")
    try:
        params = WelfareParams(p=0.0 if s["p"] is None else s["p"],
                               eta=s["eta"])
    except ValueError as e:
        raise UsageError(f"--{e}") from None
    for flag, value, low in (("--threads", s["threads"], 1),
                             ("--seed", s["seed"], 0),
                             ("--num-queries", args.num_queries, 1),
                             ("--kprime", s["kprime"], 1),
                             ("--pool-L", s["pool_l"], 1)):
        if value is not None and value < low:
            raise UsageError(f"{flag} must be >= {low}")
    if algo == "fetch-union" and s["pool_l"] is not None and s["pool_l"] < k:
        raise UsageError("--pool-L must be >= --k for fetch-union")
    kind = s["similarity"]
    try:
        fn = SimilarityFn(kind, delta=s["delta"]
                          if kind == "reciprocal-euclidean" else 0.0)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return s, params, fn


def cmd_run(args) -> int:
    s, params, fn = _settings(args)
    algo, k, kprime = s["algo"], s["k"], s["kprime"]

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
        rng = np.random.default_rng(s["seed"])
        qidx = np.sort(rng.choice(queries.n, size=args.num_queries,
                                  replace=False))

    rank_block, solve, reference = _make_runner(
        algo, k, params, kprime, s["pool_l"], data, attrs, fn)
    base2 = args.entropy_base == "2"

    def work(block: np.ndarray):
        t0 = time.perf_counter()
        qs = fn.query(queries.data[block])
        tops = rank_block(qs)
        share = (time.perf_counter() - t0) / len(block)
        out = []
        for i, (qi, top) in enumerate(zip(block, tops)):
            q = qs.row(i)   # checked and normed with its block, once
            t1 = time.perf_counter()
            sel = solve(q, top)
            latency_us = (share + time.perf_counter() - t1) * 1e6
            o_ids = reference(q, top)
            rep = compute_report(sel.ids, q, k, data, attrs, fn, base2=base2,
                                 truncated=sel.truncated, o_ids=o_ids)
            out.append((qi, rep, latency_us))
        return out

    # the split depends on the query list alone, never on --threads, so
    # every query's scores come from the same GEMM at any thread count
    blocks = np.array_split(qidx, -(-len(qidx) // _QUERY_BLOCK))
    wall0 = time.perf_counter()
    if s["threads"] > 1:
        # imported here, not at module load: a single-thread run skips it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=s["threads"]) as ex:
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

    fixed = [algo, _fmt(k), _fmt(params.p), _fmt(params.eta),
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

    lat_all = [lat for _, _, lat in results]
    qps = len(results) / wall if wall > 0 else 0.0

    def tail_row(label: str, latency: float) -> list[str]:
        # a row below the queries: its label, the settings and one figure
        # in the latency column
        return [label] + fixed + [""] * (len(header) - 7) + [_fmt(latency)]

    # (mean, stddev, stderr) of each metric column and of the latencies
    stats = [aggregate([float(r[col]) for r in rows])
             for col in range(6, len(header) - 2)]
    lat_stats = aggregate(lat_all)
    tail = []
    for i, label in enumerate(("mean", "stddev", "stderr")):
        row = tail_row(label, lat_stats[i])
        row[6:-2] = [_fmt(st[i]) for st in stats]
        tail.append(row)
    tail += [tail_row("p99.9_latency", _percentile(np.array(lat_all), 99.9)),
             tail_row("qps", qps)]

    with open(args.out, "w", encoding="ascii", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
        w.writerows(tail)
    print(f"wrote {args.out}: {len(rows)} queries, algo={algo}, k={k}, "
          f"qps={qps:.1f}")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.checks < 1:
        raise UsageError("--checks must be >= 1")
    if args.alpha is not None:
        try:
            AlphaOracleConfig(args.alpha)
        except ValueError as e:
            raise UsageError(f"--{e}") from None
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
    r.add_argument("--similarity", choices=SIMILARITY_KINDS, default=None)
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
