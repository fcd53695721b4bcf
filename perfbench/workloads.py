"""Workload definitions and seeded input generation.

Every input is made from the workload seed alone and written as files in the
formats the program reads (fvecs vectors, text attribute files). Files are
cached per dataset, seed and generator version under ``perfbench/.cache``,
so generation is never paid inside a measured region and repeated runs on
one seed reuse it. The program under test only ever sees the files.
"""

from __future__ import annotations

import os
import shutil
import zlib
from dataclasses import dataclass

import numpy as np

from divknn import baselines, core, data, multi, solvers

# Bump when the generated files change for a given seed.
GEN_VERSION = 1
# Generated datasets beyond this size are evicted, least recently used first:
# each union-1m seed writes about 0.4 GB, and runs over many seeds would
# otherwise fill the disk of the checkout.
CACHE_LIMIT_BYTES = 1_500_000_000

# The acceptance settings shared by every workload.
K = 10
ETA = 0.01
# Every workload has this many distinct queries and pools this many rows;
# p95 keeps ten samples beyond it only from 200 queries on.
N_QUERIES = 200
POOL_L = 2000
SIMILARITY = "one-plus-cosine"
P_BY_ALGO = {"nash": 0.0, "pmean": -1.0, "fetch-union": 0.0,
             "multi-nash": 0.0, "multi-pmean": -1.0}
POOLED_ALGOS = ("fetch-union", "multi-nash", "multi-pmean")


@dataclass(frozen=True)
class Dataset:
    """A standard-normal float32 base set of n rows in d dimensions."""

    name: str
    n: int
    d: int


@dataclass(frozen=True)
class Workload:
    """One input set and query stream.

    Query i of the stream is query ``i % N_QUERIES`` of the workload's query
    file, solved with ``algos[i % len(algos)]``; ``N_QUERIES`` is a multiple
    of ``len(algos)``, so each query always meets the same algorithm. The
    first ``cli_queries`` of them also go through ``divknn run``, and the
    first ``quality_queries`` give the quality metrics.
    """

    name: str
    dataset: Dataset
    attrs: str             # "prob" (skewed single label) or "clus" (k-means)
    algos: tuple[str, ...]
    cli_queries: int
    # Quality needs an exact top-k scan per query: cheap at 50k rows, about
    # 0.1 s at 1M, so union-1m takes fewer to keep a run short. At least
    # cli_queries: the CSV rows are compared with these values.
    quality_queries: int
    setups: int            # set-ups per run; setup_s is their median
    cli_rounds: int        # divknn run rounds per run; run_s is their median
    # Whether times are scaled by the calibration probe (calib.py). The
    # probe's working set sits in cache; every phase of union-1m moves
    # hundreds of MB through DRAM, and scaling widened its run-to-run spread.
    calibrated: bool = True

    def algo_of(self, qi: int) -> str:
        return self.algos[qi % len(self.algos)]


SYNTH50K = Dataset("synth50k", 50_000, 32)
BASE1M = Dataset("base1m", 1_000_000, 96)

WORKLOADS = {w.name: w for w in (
    Workload("synth50k-exact", SYNTH50K, "prob", ("nash", "pmean"),
             cli_queries=100, quality_queries=200,
             setups=8, cli_rounds=4),
    Workload("synth50k-union", SYNTH50K, "prob", ("fetch-union",),
             cli_queries=200, quality_queries=200,
             setups=8, cli_rounds=4),
    Workload("multi50k-pool", SYNTH50K, "clus", ("multi-nash", "multi-pmean"),
             cli_queries=30, quality_queries=200,
             setups=8, cli_rounds=3),
    Workload("union-1m", BASE1M, "prob", ("fetch-union",),
             cli_queries=10, quality_queries=20,
             setups=2, cli_rounds=2, calibrated=False),
)}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated files."""

    base: str
    attrs: str
    queries: str                  # every query of the workload, in order
    queries_by_algo: dict         # algo -> its share of the queries


def _rng(seed: int, *tags: str) -> np.random.Generator:
    return np.random.default_rng(
        [GEN_VERSION, seed] + [zlib.crc32(t.encode()) for t in tags])


def _publish(path: str, write) -> None:
    """Write through a temporary name so a killed run leaves no torn file."""
    if os.path.exists(path):
        return
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _evict(cache_root: str, keep: str) -> None:
    dirs = [e.path for e in os.scandir(cache_root) if e.is_dir()]
    dirs.sort(key=os.path.getmtime, reverse=True)
    total = 0
    for path in dirs:
        total += _dir_bytes(path)
        if total > CACHE_LIMIT_BYTES and path != keep:
            shutil.rmtree(path)


def prepare(w: Workload, seed: int, cache_root: str) -> Inputs:
    """Generate (or reuse) the files of workload ``w`` at ``seed``."""
    ds = w.dataset
    root = os.path.join(cache_root,
                        f"{ds.name}-n{ds.n}-d{ds.d}-g{GEN_VERSION}-s{seed}")
    os.makedirs(root, exist_ok=True)
    os.utime(root)
    base = os.path.join(root, "base.fvecs")

    def write_base(path):
        x = _rng(seed, ds.name).standard_normal((ds.n, ds.d),
                                                dtype=np.float32)
        data.write_fvecs(path, x)

    _publish(base, write_base)

    attrs = os.path.join(root, f"attrs-{w.attrs}.txt")
    if w.attrs == "prob":
        _publish(attrs, lambda p: data.write_attrs(
            p, data.prob_attrs(ds.n, seed=seed)))
    else:
        _publish(attrs, lambda p: data.write_attrs(
            p, data.cluster_attrs(data.read_fvecs(base), c=10, seed=seed,
                                  chunks=4)))

    qs = _rng(seed, w.name).standard_normal((N_QUERIES, ds.d),
                                           dtype=np.float32)
    queries = os.path.join(root, f"{w.name}-q{N_QUERIES}.fvecs")
    _publish(queries, lambda p: data.write_fvecs(p, qs))
    by_algo = {}
    for j, algo in enumerate(w.algos):
        path = os.path.join(root, f"{w.name}-c{w.cli_queries}.{algo}.fvecs")
        _publish(path, lambda p, j=j: data.write_fvecs(
            p, qs[j:w.cli_queries:len(w.algos)]))
        by_algo[algo] = path
    _evict(cache_root, keep=root)
    return Inputs(base=base, attrs=attrs, queries=queries,
                  queries_by_algo=by_algo)


def solve(w: Workload, algo: str, q, base, attrs, fn):
    """One query through the library's public solvers.

    Functions are looked up on their modules at call time, so a traced run
    sees its wrappers.
    """
    params = core.WelfareParams(p=P_BY_ALGO[algo], eta=ETA)
    if algo == "nash":
        return solvers.nash_ann(q, K, params, base, attrs, fn)
    if algo == "pmean":
        return solvers.p_mean_ann(q, K, params, base, attrs, fn)
    if algo == "fetch-union":
        return baselines.fetch_union(q, K, POOL_L, params, base, attrs, fn)
    pool = multi.full_scan_pool(q, base, fn, limit=POOL_L)
    if algo == "multi-nash":
        return multi.multi_nash_ann(q, K, ETA, base, attrs, fn, pool=pool)
    return multi.multi_p_mean_ann(q, K, params, base, attrs, fn, pool=pool)


def cli_args(w: Workload, algo: str, inputs: Inputs, out_csv: str) -> list:
    """``divknn run`` arguments equivalent to :func:`solve` for ``algo``."""
    args = ["run", "--base", inputs.base,
            "--queries", inputs.queries_by_algo[algo],
            "--attrs", inputs.attrs, "--algo", algo, "--k", str(K),
            "--eta", str(ETA), "--similarity", SIMILARITY,
            "--threads", "1", "--out", out_csv]
    if algo in ("pmean", "multi-pmean"):
        args += ["--p", str(P_BY_ALGO[algo])]
    if algo in POOLED_ALGOS:
        args += ["--pool-L", str(POOL_L)]
    return args
