"""The benchmark's tracer wraps library names by (owner, attribute) and
fails on a missing one, so a rename here would break the benchmark while the
other tests stay green."""

import importlib.util
import inspect
import pathlib
import sys

from divknn import baselines, cli, core, multi, oracle, solvers

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracing_targets_exist():
    targets = _load_tracing().TARGETS
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in owner.__dict__, name
    for fn in (solvers.greedy_select, baselines.fetch_union):
        assert "stats" in inspect.signature(fn).parameters, fn.__name__


def test_benchmark_call_shapes_are_kept():
    # the tracer wraps VectorSet.norms as a property, and the benchmark
    # calls fetch_union with these positional arguments
    assert isinstance(core.VectorSet.__dict__["norms"], property)
    params = list(inspect.signature(baselines.fetch_union).parameters)
    assert params[:8] == ["q", "k", "L", "params", "data", "attrs", "fn",
                          "stats"]


def test_scan_signatures_are_kept():
    # the tracer reads batch's rows by name; the benchmark's library loop
    # passes full_scan_pool's q, data and fn by position and limit by name
    params = list(inspect.signature(core.SimilarityFn.batch).parameters)
    assert params[1:5] == ["q", "rows", "row_norms", "row_sqnorms"]
    params = list(inspect.signature(multi.full_scan_pool).parameters)
    assert params[:4] == ["q", "data", "fn", "limit"]


def test_exact_topk_arguments_keep_their_names():
    # the tracer counts each call's rows from exact_topk's ``attribute`` and
    # ``attrs`` arguments, read by name: a rename, a reorder or a new
    # required parameter fails here, not in the benchmark
    x = object()
    sig = inspect.signature(oracle.exact_topk)
    assert list(sig.parameters) == ["q", "attribute", "k", "data", "attrs",
                                    "fn"]
    sig.bind(q=x, attribute=x, k=x, data=x, attrs=x, fn=x)


def test_frozen_benchmark_calls_bind():
    # the call shapes of perfbench/workloads.py::solve, of the self-test's
    # suboptimal solve (top_k with attrs and params by name) and of the
    # harness's cli.main(argv): a signature change that breaks them fails
    x = object()
    sig = inspect.signature
    sig(core.WelfareParams).bind(p=x, eta=x)
    sig(solvers.nash_ann).bind(x, x, x, x, x, x)
    sig(solvers.p_mean_ann).bind(x, x, x, x, x, x)
    sig(baselines.fetch_union).bind(x, x, x, x, x, x, x)
    sig(multi.full_scan_pool).bind(x, x, x, limit=x)
    sig(multi.multi_nash_ann).bind(x, x, x, x, x, x, pool=x)
    sig(multi.multi_p_mean_ann).bind(x, x, x, x, x, x, pool=x)
    sig(baselines.top_k).bind(x, x, x, x, attrs=x, params=x)
    sig(cli.main).bind(x)
