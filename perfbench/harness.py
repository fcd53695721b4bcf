"""Measurement of one workload: the untraced run and the traced run.

Load model: a closed loop with one client in one process. Each query is sent
after the previous one returns; BLAS runs on one thread (set by ``run.py``),
and ``divknn run`` is invoked with ``--threads 1``.

The untraced run is cut into ``setups`` rounds. Each round may start with
``divknn run`` in a child process over the CLI queries, once per algorithm
(``cli_rounds`` of the rounds do); then comes one set-up in this process,
from nothing loaded to ready, and a share of the query stream on that
set-up. Over the rounds:

- ``run_s`` is the median per-round ``divknn run`` wall time and
  ``peak_rss_mb`` the largest high-water resident memory of those children;
- ``setup_s`` is the median set-up time;
- the stream runs ``seconds`` and at least ``N_QUERIES`` queries in all,
  giving ``qps``, ``latency_p50_ms`` and ``latency_p95_ms``.

Where the workload is ``calibrated``, every time behind these metrics is
scaled to the reference speed of the calibration probe of :mod:`calib`,
timed between the measured items; the raw times are reported in the
``info`` line.

Every timed selection and every CSV row is then checked, and the quality
metrics are taken over the first ``quality_queries`` distinct queries.

The traced run repeats ``divknn run`` in this process, one set-up and two
passes over the first ``cli_queries`` queries with the wrappers of
:mod:`tracing` installed; two untraced passes interleaved with them give
``trace.overhead_frac``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from divknn import cli, core, data, metrics

import calib
import checks
import tracing
import workloads
from workloads import ETA, K, N_QUERIES, P_BY_ALGO, SIMILARITY, Workload

WARMUP_QUERIES = 2
CLI_TIMEOUT_S = 150


def _units(section: str) -> dict:
    """metric -> unit for one section of BENCHMARK.json."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="ascii") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


END_TO_END_UNITS = _units("end_to_end")
# per-layer metric -> unit; "calls", "total_s", "self_s" come from spans,
# the rest from the counters the wrappers record
PER_LAYER_UNITS = _units("per_layer")
# counters reported per call of their function rather than summed
PER_CALL = {"baselines.fetch_union.pool_attributes": "baselines.fetch_union",
            "multi.full_scan_pool.pool_size": "multi.full_scan_pool"}


@dataclass
class Loaded:
    base: core.VectorSet
    queries: core.VectorSet
    attrs: core.AttributeTable
    fn: core.SimilarityFn


@dataclass
class Outcome:
    """What one run reports: metrics plus the check tally."""

    metrics: dict
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def count(self, reasons) -> None:
        self.attempted += len(reasons)
        bad = [r for r in reasons if r is not None]
        self.failed += len(bad)
        self.failures.extend(bad[:20 - len(self.failures)])

    @property
    def correct(self) -> bool:
        return self.failed == 0


def setup(inputs: workloads.Inputs) -> tuple[Loaded, float]:
    """From nothing loaded to ready: parse the files, build the tables and
    touch the cached norms the query path reads."""
    t0 = time.perf_counter()
    base = data.read_vectors(inputs.base)
    queries = data.read_vectors(inputs.queries)
    attrs = data.read_attrs(inputs.attrs)
    _ = base.norms, base.sqnorms
    elapsed = time.perf_counter() - t0
    if attrs.n != base.n or queries.d != base.d:
        raise ValueError("generated inputs disagree in shape")
    return Loaded(base, queries, attrs, core.SimilarityFn(SIMILARITY)), elapsed


def run_cli(w: Workload, inputs, out_dir: str, cal: calib.Calibrator,
            tag: str = "") -> tuple[float, float, float, dict]:
    """``divknn run`` in a child process per algorithm.

    A child's time runs from its start to the end of ``divknn run`` in it.
    It is scaled by the median of the calibration probes this process takes
    just before the child starts and those the child takes just after its
    run ends, or by this process's probes alone if the child failed.
    Returns the summed seconds, raw and scaled, the largest child peak RSS
    in MB and the CSV path per algorithm whose child exited 0.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(here), "src"),
                    env.get("PYTHONPATH")) if p)
    wall, scaled, peak_kb, csvs = 0.0, 0.0, 0, {}
    for algo in w.algos:
        out_csv = os.path.join(out_dir, f"{w.name}.{algo}{tag}.csv")
        report = out_csv + ".child.json"
        for path in (out_csv, report):
            if os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, os.path.join(here, "cli_child.py"),
                report] + workloads.cli_args(w, algo, inputs, out_csv)
        log = os.path.join(out_dir, f"{w.name}.{algo}.stderr")
        cal.probes()
        before = cal.times[-calib.BATCH:]
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            try:
                status = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                                        stderr=err, timeout=CLI_TIMEOUT_S
                                        ).returncode
            except subprocess.TimeoutExpired:
                status = None
            t1 = time.perf_counter()
        # a failed child's CSV is not trusted; its rows count as missing
        if status == 0:
            csvs[algo] = out_csv
            with open(report, encoding="ascii") as f:
                child = json.load(f)
            peak_kb = max(peak_kb, child["peak_kb"])
            # perf_counter is CLOCK_MONOTONIC, shared by all processes
            wall += child["end"] - t0
            scaled += (child["end"] - t0) * calib.REF_S / statistics.median(
                before + child["probes"])
        else:
            cal.probes()
            wall += t1 - t0
            scaled += cal.scaled(t0, t1 - t0)
    return wall, scaled, peak_kb / 1024.0, csvs


def _run_queries(w: Workload, ld: Loaded, order, solve, tracer=None,
                 pass_no: int = 0, cal=None):
    """Solve the queries ``order`` back to back; returns (qi, result,
    start, seconds) per query, an exception standing in for a failed
    result. With ``cal``, a calibration probe runs between queries when
    one is due. Traced queries get the span id ``"<pass_no>.<qi>"``."""
    out = []
    q_all = ld.queries.data
    for qi in order:
        if cal is not None:
            cal.due()
        algo = w.algo_of(qi)
        ctx = (tracer.span("bench.query", query=f"{pass_no}.{qi}") if tracer
               else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with ctx:
                sel = solve(w, algo, q_all[qi], ld.base, ld.attrs, ld.fn)
        except Exception as exc:  # one bad query must not end the run
            sel = exc
        out.append((qi, sel, t0, time.perf_counter() - t0))
    return out


def _stream(w: Workload, ld: Loaded, start: int, seconds: float,
            min_queries: int, solve, cal: calib.Calibrator):
    """Queries ``start``, ``start + 1``, ... of the stream, for ``seconds``
    and at least ``min_queries`` queries, after an untimed warm-up."""
    nq = ld.queries.n
    _run_queries(w, ld, range(min(nq, WARMUP_QUERIES)), solve)
    results = []
    t_start = time.perf_counter()
    i = start
    while True:
        results += _run_queries(w, ld, [i % nq], solve, cal=cal)
        i += 1
        if i - start >= min_queries and \
                time.perf_counter() - t_start >= seconds:
            break
    return results


def _check(w: Workload, ld: Loaded, inputs, results, rounds,
           out: Outcome):
    """Check every selection, and every CSV row of each ``divknn run``
    round; return (approx ratios, entropies) over the queries that have a
    passing result, from each query's first one."""
    optimum = None
    if set(w.algos) <= {"nash", "pmean"}:
        optimum = checks.plain_optimum(inputs.base, inputs.attrs,
                                       ld.queries.data, w, K, ETA, P_BY_ALGO)
    checker = checks.SelectionChecker(ld.base, ld.attrs, ld.fn,
                                      ld.queries.data, optimum)
    reasons = [checker.check(qi, sel, core.WelfareParams(
        p=P_BY_ALGO[w.algo_of(qi)], eta=ETA), K) for qi, sel, *_ in results]
    out.count(reasons)
    first = {}
    for (qi, sel, *_), reason in zip(results, reasons):
        if qi not in first and reason is None:
            first[qi] = sel
    lib = {}
    for qi, sel in sorted(first.items()):
        if qi >= w.quality_queries:
            break
        rep = metrics.compute_report(sel.ids, ld.queries.data[qi], K,
                                     ld.base, ld.attrs, ld.fn,
                                     truncated=sel.truncated)
        lib[qi] = (rep.approx_ratio, rep.entropy)
    for csvs in rounds:
        for j, algo in enumerate(w.algos):
            qis = list(range(j, w.cli_queries, len(w.algos)))
            fails = checks.check_csv(csvs.get(algo), algo, qis, lib)
            out.count([None] * (len(qis) - len(fails)) + fails)
    return ([r for r, _ in lib.values()], [e for _, e in lib.values()])


def _timings(setup_s, latencies: np.ndarray, run_s) -> dict:
    """The timing metrics from set-up, query and ``divknn run`` seconds."""
    return {"setup_s": statistics.median(setup_s),
            "qps": len(latencies) / latencies.sum(),
            "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "latency_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
            "run_s": statistics.median(run_s)}


def measure(w: Workload, seed: int, seconds: float, cache_root: str,
            out_dir: str, solve=workloads.solve) -> Outcome:
    """The untraced run: every end-to-end metric.

    Repeated measurements are spread over the whole run, and on a
    calibrated workload every time is scaled by the calibration probes
    around it (see :mod:`calib`): on a shared host the machine's speed
    drifts by tens of percent over minutes.
    """
    inputs = workloads.prepare(w, seed, cache_root)
    t_run = time.perf_counter()
    cal = calib.Calibrator()
    cal.probes()
    share = math.ceil(N_QUERIES / w.setups)
    setups, cli_raw, cli_scaled, rounds, results = [], [], [], [], []
    peak_mb = 0.0
    ld = None
    for r in range(w.setups):
        ld = None    # free the previous set-up before the next one
        gc.collect()
        if r % max(1, w.setups // w.cli_rounds) == 0 and \
                len(rounds) < w.cli_rounds:
            wall, scaled, mb, csvs = run_cli(w, inputs, out_dir, cal,
                                             tag=f".r{r}")
            cli_raw.append(wall)
            cli_scaled.append(scaled)
            peak_mb = max(peak_mb, mb)
            rounds.append(csvs)
        cal.probes()
        t0 = time.perf_counter()
        ld, t = setup(inputs)
        cal.probes()
        setups.append((t0, t))
        seg = _stream(w, ld, len(results), seconds / w.setups, share, solve,
                      cal)
        results += seg
    cal.probes()
    out = Outcome(metrics={})
    t_check = time.perf_counter()
    ratios, ents = _check(w, ld, inputs, results, rounds, out)
    raw = _timings([t for _, t in setups],
                   np.array([t for *_, t in results]), cli_raw)
    values = raw
    if w.calibrated:
        values = _timings([cal.scaled(*s) for s in setups],
                          np.array([cal.scaled(t0, t)
                                    for *_, t0, t in results]), cli_scaled)
    values = {
        **values,
        "peak_rss_mb": peak_mb,
        "ok_rate": (out.attempted - out.failed) / out.attempted,
        "approx_ratio_mean": float(np.mean(ratios)) if ratios else math.nan,
        "entropy_mean": float(np.mean(ents)) if ents else math.nan,
    }
    out.metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    out.info = {"queries": len(results),
                "speed": cal.speed(), "probes": len(cal.times),
                "raw": raw, "setup_s_each": [t for _, t in setups],
                "run_s_each": cli_raw,
                "error_rate": out.failed / out.attempted,
                "check_s": time.perf_counter() - t_check,
                "wall_s": time.perf_counter() - t_run}
    return out


def trace(w: Workload, seed: int, cache_root: str, out_dir: str,
          solve=workloads.solve) -> Outcome:
    """The traced run: every per-layer metric."""
    inputs = workloads.prepare(w, seed, cache_root)
    tracer = tracing.Tracer()
    csvs = {}
    with tracer.installed():
        for algo in w.algos:
            csvs[algo] = os.path.join(out_dir, f"{w.name}.{algo}.traced.csv")
            if os.path.exists(csvs[algo]):
                os.remove(csvs[algo])
            argv = workloads.cli_args(w, algo, inputs, csvs[algo])
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main(argv)
            except Exception:  # counted by the CSV check, like a failed run
                status = None
            if status != 0:
                del csvs[algo]
        gc.collect()
        with tracer.span("bench.setup"):
            ld, _ = setup(inputs)
    # untraced and traced passes alternate, so drift hits both alike
    order = list(range(w.cli_queries))
    _run_queries(w, ld, order[:WARMUP_QUERIES], solve)
    walls = {False: 0.0, True: 0.0}
    results = []
    for pass_no, traced in enumerate((False, True, False, True)):
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            res = _run_queries(w, ld, order, solve,
                               tracer if traced else None, pass_no)
            walls[traced] += time.perf_counter() - t0
        results += res
    out = Outcome(metrics={})
    _check(w, ld, inputs, results, [csvs], out)

    totals = tracer.layer_totals()
    values = {}
    for name in PER_LAYER_UNITS:
        fn_name, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            values[name] = totals.get(fn_name, {}).get(stat, 0)
        elif name in PER_CALL:
            calls = totals.get(PER_CALL[name], {}).get("calls", 0)
            values[name] = tracer.counts.get(name, 0) / calls if calls else 0
        else:
            values[name] = tracer.counts.get(name, 0)
    rows = tracer.counts.get("oracle.exact_topk.rows", 0)
    values["oracle.exact_topk.kept_per_row"] = (
        tracer.counts.get("oracle.exact_topk.kept", 0) / rows if rows else 0)
    values["cli.csv_bytes"] = sum(os.path.getsize(p) for p in csvs.values()
                                  if os.path.exists(p))
    values["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    out.metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
    tracer.dump(os.path.join(out_dir, f"trace-{w.name}-seed{seed}.jsonl"))
    out.info = {"spans": len(tracer.spans), "traced_s": walls[True],
                "span_calls": {k: t["calls"] for k, t in totals.items()},
                "untraced_s": walls[False],
                "error_rate": out.failed / out.attempted}
    return out
