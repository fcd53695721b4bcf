import csv

import numpy as np
import pytest

from divknn import cli, oracle
from divknn.cli import main
from divknn.baselines import fetch_union, top_k
from divknn.core import SimilarityFn, WelfareParams
from divknn.data import read_attrs, read_vectors, write_fvecs
from divknn.metrics import compute_report
from divknn.multi import multi_div_ann, multi_nash_ann, multi_p_mean_ann
from divknn.oracle import full_scan_pool
from divknn.suites import SuiteResult


def _float_dataset(tmp_path, n_queries):
    rng = np.random.default_rng(90)
    base = str(tmp_path / "base.fvecs")
    queries = str(tmp_path / "queries.fvecs")
    write_fvecs(base, rng.normal(size=(120, 6)).astype(np.float32))
    write_fvecs(queries, rng.normal(size=(n_queries, 6)).astype(np.float32))
    attrs = str(tmp_path / "attrs.txt")
    assert main(["gen-attrs", "--base", base, "--mode", "prob",
                 "--seed", "7", "--out", attrs]) == 0
    return base, queries, attrs


@pytest.fixture()
def dataset(tmp_path):
    return _float_dataset(tmp_path, 8)


@pytest.fixture()
def dataset20(tmp_path):
    """20 queries: ``run`` scores them in blocks of 7, 7 and 6."""
    return _float_dataset(tmp_path, 20)


def read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


def strip_timing(rows):
    """Drop the latency_us column (the only nondeterministic one)."""
    header = rows[0]
    drop = header.index("latency_us")
    return [r[:drop] + r[drop + 1:] for r in rows]


def test_gen_attrs_prob_header(dataset):
    _, _, attrs = dataset
    t = read_attrs(attrs)
    assert t.c == 20 and t.n == 120
    with open(attrs) as f:
        assert f.readline().strip() == "#c=20"


def test_gen_attrs_clus_distinct_ids(tmp_path, dataset):
    base, _, _ = dataset
    out = str(tmp_path / "clus.txt")
    assert main(["gen-attrs", "--base", base, "--mode", "clus",
                 "--c", "20", "--seed", "3", "--out", out]) == 0
    t = read_attrs(out)
    assert t.is_single and len(np.unique(t.indices)) == 20


def test_gen_attrs_missing_base_flag_is_usage_error(capsys):
    assert main(["gen-attrs", "--mode", "prob", "--out", "/tmp/x.txt"]) == 2


def test_gen_attrs_prob_chunks_is_usage_error(tmp_path, capsys):
    # rejected before the base file is read: a missing file is not an
    # I/O error here, and no attribute file is written
    out = tmp_path / "o.txt"
    assert main(["gen-attrs", "--base", str(tmp_path / "nope.fvecs"),
                 "--mode", "prob", "--chunks", "4", "--out", str(out)]) == 2
    assert "--chunks" in capsys.readouterr().err
    assert not out.exists()


def test_gen_attrs_nonexistent_file_is_io_error(tmp_path):
    assert main(["gen-attrs", "--base", str(tmp_path / "nope.fvecs"),
                 "--mode", "prob", "--out", str(tmp_path / "o.txt")]) == 3


def test_run_ann_ratio_is_one(dataset, tmp_path):
    base, queries, attrs = dataset
    out = str(tmp_path / "ann.csv")
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--algo", "ann", "--k", "5", "--out", out]) == 0
    rows = read_csv(out)
    header = rows[0]
    ratio_col = header.index("approx_ratio")
    recall_col = header.index("recall")
    data_rows = [r for r in rows[1:] if r[0].isdigit()]
    assert len(data_rows) == 8
    for r in data_rows:
        assert float(r[ratio_col]) == 1.0
        assert float(r[recall_col]) == 1.0


def test_run_pmean_p1_matches_ann(dataset, tmp_path):
    base, queries, attrs = dataset
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--algo", "ann", "--k", "5", "--out", a]) == 0
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--algo", "pmean", "--p", "1", "--k", "5",
                 "--out", b]) == 0
    ra, rb = read_csv(a), read_csv(b)
    cols = [ra[0].index(c) for c in ("approx_ratio", "recall", "entropy",
                                     "inverse_simpson", "distinct_count")]
    for qa, qb in zip(ra[1:], rb[1:]):
        if not qa[0].isdigit():
            continue
        for c in cols:
            assert qa[c] == qb[c]


def test_run_incompatible_flags(dataset, tmp_path):
    base, queries, attrs = dataset
    out = str(tmp_path / "x.csv")
    common = ["run", "--base", base, "--queries", queries, "--attrs", attrs,
              "--out", out]
    assert main(common + ["--algo", "nash", "--k", "3", "--kprime", "2"]) == 2
    assert main(common + ["--algo", "div", "--k", "3"]) == 2          # no k'
    assert main(common + ["--algo", "ann", "--k", "3", "--p", "0.5"]) == 2
    assert main(common + ["--algo", "nash", "--k", "3",
                          "--pool-L", "10"]) == 2
    assert main(common + ["--algo", "pmean", "--k", "3", "--p", "2"]) == 2
    assert main(common + ["--algo", "nash", "--k", "3",
                          "--eta", "-1"]) == 2
    assert main(common + ["--algo", "nash"]) == 2                     # no k


def test_run_threads_below_one_is_usage_error(dataset, tmp_path):
    base, queries, attrs = dataset
    out = tmp_path / "t.csv"
    for threads in ("0", "-3"):
        assert main(["run", "--base", base, "--queries", queries, "--attrs",
                     attrs, "--algo", "ann", "--k", "3", "--threads",
                     threads, "--out", str(out)]) == 2
    assert not out.exists()  # rejected before any query ran


def test_run_num_queries_below_one_is_usage_error(tmp_path, capsys):
    # rejected before any file is read: the missing files are not I/O errors
    missing = [str(tmp_path / f) for f in ("b.fvecs", "q.fvecs", "a.txt")]
    out = tmp_path / "n.csv"
    for count in ("0", "-2"):
        assert main(["run", "--base", missing[0], "--queries", missing[1],
                     "--attrs", missing[2], "--algo", "ann", "--k", "3",
                     "--num-queries", count, "--out", str(out)]) == 2
        assert "--num-queries" in capsys.readouterr().err
    assert not out.exists()


def test_run_bad_settings_are_usage_errors(tmp_path):
    missing = ["--base", str(tmp_path / "b.fvecs"), "--queries",
               str(tmp_path / "q.fvecs"), "--attrs", str(tmp_path / "a.txt"),
               "--out", str(tmp_path / "x.csv")]
    for delta in ("0", "inf", "nan"):
        assert main(["run", *missing, "--algo", "ann", "--k", "3",
                     "--similarity", "reciprocal-euclidean",
                     "--delta", delta]) == 2, delta
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k=three\n")
    assert main(["run", *missing, "--algo", "ann", "--config", str(cfg)]) == 2
    cfg.write_text("similarity=cosine\n")
    assert main(["run", *missing, "--algo", "ann", "--k", "3",
                 "--config", str(cfg)]) == 2
    cfg.write_text("seed=-1\n")
    assert main(["run", *missing, "--algo", "ann", "--k", "3",
                 "--num-queries", "5", "--config", str(cfg)]) == 2
    cfg.write_bytes(b"k=3\n# caf\xc3\xa9\n")   # a non-ASCII byte
    assert main(["run", *missing, "--algo", "ann", "--config", str(cfg)]) == 2
    assert main(["run", *missing, "--algo", "ann", "--k", "3",
                 "--seed", "-1", "--num-queries", "5"]) == 2
    assert main(["run", *missing, "--algo", "div", "--k", "3",
                 "--kprime", "0"]) == 2
    assert main(["run", *missing, "--algo", "multi-nash", "--k", "3",
                 "--pool-L", "0"]) == 2
    assert main(["run", *missing, "--algo", "fetch-union", "--k", "3",
                 "--pool-L", "2"]) == 2
    # NaN and infinite welfare settings are found before any file is read
    for flags in (["--p", "nan"], ["--p=-inf"], ["--eta", "inf"]):
        assert main(["run", *missing, "--algo", "pmean", "--k", "3",
                     *flags]) == 2, flags
    for flags in (["--c", "1"], ["--chunks", "0"], ["--seed", "-1"]):
        assert main(["gen-attrs", "--base", missing[1], "--mode", "clus",
                     "--out", missing[-1], *flags]) == 2


def test_run_exit_codes_split_io_from_invalid_data(dataset, tmp_path, capsys):
    base, queries, attrs = dataset
    out = str(tmp_path / "e.csv")

    def run(b=base, q=queries, a=attrs):
        code = main(["run", "--base", b, "--queries", q, "--attrs", a,
                     "--algo", "nash", "--k", "3", "--out", out])
        return code, capsys.readouterr().err

    assert run(b=str(tmp_path / "nope.fvecs"))[0] == 3          # I/O
    bad_attrs = tmp_path / "bad.txt"
    bad_attrs.write_text("#c=20\n0,x\n")
    code, err = run(a=str(bad_attrs))
    assert code == 4 and "bad.txt:2: ids must be integers" in err
    nan_q = str(tmp_path / "nan.fvecs")
    write_fvecs(nan_q, np.full((2, 6), np.nan, dtype=np.float32))
    code, err = run(q=nan_q)
    assert code == 4 and "NaN or Inf" in err
    zero_q = str(tmp_path / "zero.fvecs")
    write_fvecs(zero_q, np.zeros((2, 6), dtype=np.float32))
    code, err = run(q=zero_q)              # one-plus-cosine by default
    assert code == 4 and "zero query" in err
    short = tmp_path / "short.txt"
    short.write_text("#c=20\n0,1\n")
    code, err = run(a=str(short))
    assert code == 4 and "covers 1 vectors" in err
    assert not (tmp_path / "e.csv").exists()


def test_run_rejects_zero_base_vector_at_load(tmp_path, capsys):
    x = np.random.default_rng(92).normal(size=(30, 4)).astype(np.float32)
    x[7] = 0.0
    base, queries = str(tmp_path / "z.fvecs"), str(tmp_path / "q.fvecs")
    write_fvecs(base, x)
    write_fvecs(queries, x[:3] + 1.0)
    attrs = str(tmp_path / "a.txt")
    assert main(["gen-attrs", "--base", base, "--mode", "prob",
                 "--out", attrs]) == 0
    out = tmp_path / "z.csv"
    run = ["run", "--base", base, "--queries", queries, "--attrs", attrs,
           "--algo", "ann", "--k", "3", "--out", str(out)]
    capsys.readouterr()
    assert main(run) == 4
    assert (f"{base}: vector 7 is zero; one-plus-cosine needs nonzero "
            "vectors") in capsys.readouterr().err
    assert not out.exists()
    # the other similarities admit a zero vector
    assert main(run + ["--similarity", "dot-product"]) == 0


def test_run_names_the_first_of_several_zero_base_vectors(tmp_path, capsys):
    x = np.random.default_rng(93).normal(size=(30, 4)).astype(np.float32)
    x[[21, 9, 14]] = 0.0
    base, queries = str(tmp_path / "z.fvecs"), str(tmp_path / "q.fvecs")
    write_fvecs(base, x)
    write_fvecs(queries, x[:3] + 1.0)
    attrs = str(tmp_path / "a.txt")
    assert main(["gen-attrs", "--base", base, "--mode", "prob",
                 "--out", attrs]) == 0
    capsys.readouterr()
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--algo", "fetch-union", "--k", "3", "--out",
                 str(tmp_path / "z.csv")]) == 4
    assert f"{base}: vector 9 is zero;" in capsys.readouterr().err


def test_empty_vector_files_are_invalid_data(dataset, tmp_path, capsys):
    base, queries, attrs = dataset
    empty = tmp_path / "empty.fvecs"
    empty.write_bytes(b"")
    out = tmp_path / "e.csv"
    for b, q in ((base, str(empty)), (str(empty), queries)):
        assert main(["run", "--base", b, "--queries", q, "--attrs", attrs,
                     "--algo", "ann", "--k", "3", "--out", str(out)]) == 4
        assert f"{empty}: no vectors" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen-attrs", "--base", str(empty), "--mode", "prob",
                 "--out", str(tmp_path / "a.txt")]) == 4
    assert f"{empty}: no vectors" in capsys.readouterr().err


def _count_full_scans(monkeypatch, n):
    """Record the query shape of each read of all n base rows: a
    block_pools call (one GEMM or GEMV, float32 or float64; a single
    query's scan is a block of one), or a per-query scan inside one or
    outside: a float32 sgemv, or a SimilarityFn.batch call over n rows."""
    scans, inside = [], []
    real_pools, real_f32 = oracle.block_pools, oracle._f32_scores
    real_batch = SimilarityFn.batch

    def block_pools(qs, *args, **kwargs):
        # full_scan_pool hands in its query as a checked block of one
        scans.append(np.shape(getattr(qs, "vec", qs)))
        inside.append(True)
        try:
            return real_pools(qs, *args, **kwargs)
        finally:
            inside.pop()

    def f32_scores(q, data, fn):
        if not inside:
            scans.append(np.shape(q.vec))
        return real_f32(q, data, fn)

    def batch(self, q, rows, *args, **kwargs):
        shape = np.shape(self.query(q).vec)
        # a block's own float64 scan is its block_pools call
        if rows.shape[0] == n and not (inside and len(shape) == 2):
            scans.append(shape)
        return real_batch(self, q, rows, *args, **kwargs)

    monkeypatch.setattr(oracle, "block_pools", block_pools)
    monkeypatch.setattr(cli, "block_pools", block_pools)
    monkeypatch.setattr(oracle, "_f32_scores", f32_scores)
    monkeypatch.setattr(SimilarityFn, "batch", batch)
    return scans


@pytest.mark.parametrize("extra", [
    ["--algo", "fetch-union"],
    ["--algo", "fetch-union", "--pool-L", "40"],
    ["--algo", "ann"],
    ["--algo", "multi-nash"],
    ["--algo", "multi-nash", "--pool-L", "30"],
    ["--algo", "multi-pmean", "--p", "0.5"],
    ["--algo", "multi-pmean", "--p", "-1", "--pool-L", "4"],
    ["--algo", "multi-div", "--kprime", "2"],
    ["--algo", "multi-div", "--kprime", "2", "--pool-L", "30"],
    ["--algo", "multi-nash", "--pool-L", "2"],
    ["--algo", "nash"],
    ["--algo", "pmean", "--p", "-1"],
    ["--algo", "div", "--kprime", "2"],
])
def test_run_scans_the_base_once_per_block(dataset20, tmp_path, monkeypatch,
                                           extra):
    # a scan algorithm scores each block of queries with one GEMM and takes
    # its report's reference top-k from that ranking, also when --pool-L
    # is below k; the per-attribute solvers scan once per query for it
    base, queries, attrs = dataset20
    scans = _count_full_scans(monkeypatch, 120)
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--k", "4", "--out", str(tmp_path / "s.csv")]
                + extra) == 0
    if extra[1] in cli.SCAN_ALGOS:
        assert scans == [(7, 6), (7, 6), (6, 6)]
    else:
        assert scans == [(1, 6)] * 20


def _int_dataset(tmp_path, k, n_queries=6):
    """Small integer vectors: dot products tie often, one at place k."""
    rng = np.random.default_rng(93)
    x = rng.integers(0, 3, size=(120, 4)).astype(np.float32)
    qs = rng.integers(1, 3, size=(n_queries, 4)).astype(np.float32)
    base, queries = str(tmp_path / "ib.fvecs"), str(tmp_path / "iq.fvecs")
    write_fvecs(base, x)
    write_fvecs(queries, qs)
    attrs = str(tmp_path / "ia.txt")
    assert main(["gen-attrs", "--base", base, "--mode", "prob",
                 "--seed", "5", "--out", attrs]) == 0
    sims = -np.sort(-(x.astype(np.float64) @ qs.T.astype(np.float64)), axis=0)
    assert np.any(sims[k - 1] == sims[k])
    return base, queries, attrs


@pytest.mark.parametrize("data_kind, extra", [
    ("float", ["--algo", "multi-nash", "--pool-L", "2"]),
    ("float", ["--algo", "multi-div", "--kprime", "1", "--pool-L", "3"]),
    ("int", ["--algo", "fetch-union", "--pool-L", "5"]),
    ("int", ["--algo", "ann"]),
    ("int", ["--algo", "multi-nash", "--pool-L", "7"]),
    ("int", ["--algo", "multi-pmean", "--p", "-1"]),
    ("int", ["--algo", "multi-div", "--kprime", "2", "--pool-L", "2"]),
])
def test_run_reference_matches_a_full_scan(dataset, tmp_path, monkeypatch,
                                           data_kind, extra):
    # each row's relevance equals the report computed with its own scan,
    # also when the pool is shorter than k or similarities tie at place k
    k = 5
    base, queries, attrs = (dataset if data_kind == "float"
                            else _int_dataset(tmp_path, k))
    sim = [] if data_kind == "float" else ["--similarity", "dot-product"]
    real = cli.compute_report
    calls = []

    def spy(ids, q, *args, **kwargs):
        calls.append((tuple(ids), q))
        return real(ids, q, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_report", spy)
    out = str(tmp_path / "r.csv")
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--k", str(k), "--out", out] + sim + extra) == 0
    rows = read_csv(out)
    ratio, rec = rows[0].index("approx_ratio"), rows[0].index("recall")
    data_rows = [r for r in rows[1:] if r[0].isdigit()]
    assert len(data_rows) == len(calls) == read_vectors(queries).n
    data, table = read_vectors(base), read_attrs(attrs)
    fn = SimilarityFn(sim[1] if sim else "one-plus-cosine")
    for row, (ids, q) in zip(data_rows, calls):
        rep = real(ids, q, k, data, table, fn)
        assert row[ratio] == cli._fmt(rep.approx_ratio)
        assert row[rec] == cli._fmt(rep.recall)


def _library_selection(extra, q, k, data, attrs, fn):
    """The library call that ``divknn run`` with ``extra`` makes for q."""
    opt = dict(zip(extra[::2], extra[1::2]))
    algo, eta = opt["--algo"], 1.0
    L = int(opt["--pool-L"]) if "--pool-L" in opt else None
    params = WelfareParams(p=float(opt.get("--p", 0.0)), eta=eta)
    if algo == "ann":
        return top_k(q, k, data, fn, attrs=attrs, params=params)
    if algo == "fetch-union":
        return fetch_union(q, k, L or 200 * k, params, data, attrs, fn)
    pool = full_scan_pool(q, data, fn, limit=L) if L else None
    if algo == "multi-nash":
        return multi_nash_ann(q, k, eta, data, attrs, fn, pool=pool)
    if algo == "multi-pmean":
        return multi_p_mean_ann(q, k, params, data, attrs, fn, pool=pool)
    return multi_div_ann(q, k, int(opt["--kprime"]), data, attrs, fn,
                         pool=pool, eta=eta)


@pytest.mark.parametrize("extra", [
    ["--algo", "ann"],
    ["--algo", "fetch-union"],
    ["--algo", "fetch-union", "--pool-L", "7"],
    ["--algo", "multi-nash"],
    ["--algo", "multi-nash", "--pool-L", "3"],
    ["--algo", "multi-pmean", "--p", "-1", "--pool-L", "30"],
    ["--algo", "multi-div", "--kprime", "2"],
    ["--algo", "multi-div", "--kprime", "1", "--pool-L", "2"],
])
@pytest.mark.parametrize("data_kind", ["one-plus-cosine",
                                       "reciprocal-euclidean", "dot-product",
                                       "int"])
def test_run_block_path_equals_the_per_query_path(tmp_path, data_kind,
                                                  extra):
    # every query's row of its block's scores gives the CSV row of the
    # library's own solve and report, at any thread count
    k = 5
    if data_kind == "int":
        base, queries, attrs = _int_dataset(tmp_path, k, n_queries=20)
        kind = "dot-product"
    else:
        base, queries, attrs = _float_dataset(tmp_path, 20)
        kind = data_kind
    outs = []
    for threads in ("1", "2", "4"):
        out = str(tmp_path / f"b{threads}.csv")
        assert main(["run", "--base", base, "--queries", queries, "--attrs",
                     attrs, "--k", str(k), "--similarity", kind,
                     "--threads", threads, "--out", out] + extra) == 0
        outs.append(strip_timing(read_csv(out)))
    assert outs[0] == outs[1] == outs[2]
    rows = outs[0]
    col = {name: i for i, name in enumerate(rows[0])}
    data_rows = [r for r in rows[1:] if r[0].isdigit()]
    data, table = read_vectors(base), read_attrs(attrs)
    qs = read_vectors(queries)
    fn = SimilarityFn(kind, delta=1.0 if kind == "reciprocal-euclidean"
                      else 0.0)
    assert len(data_rows) == qs.n == 20
    for row in data_rows:
        q = qs.data[int(row[0])]
        sel = _library_selection(extra, q, k, data, table, fn)
        rep = compute_report(sel.ids, q, k, data, table, fn, o_ids=None)
        for name in ("approx_ratio", "recall", "entropy"):
            assert row[col[name]] == cli._fmt(getattr(rep, name)), (row, name)


def test_run_zero_query_in_a_block_is_invalid_data(tmp_path, capsys):
    rng = np.random.default_rng(94)
    base = str(tmp_path / "b.fvecs")
    queries = str(tmp_path / "q.fvecs")
    qs = rng.normal(size=(20, 6)).astype(np.float32)
    qs[11] = 0.0
    write_fvecs(base, rng.normal(size=(120, 6)).astype(np.float32))
    write_fvecs(queries, qs)
    attrs = str(tmp_path / "a.txt")
    assert main(["gen-attrs", "--base", base, "--mode", "prob",
                 "--out", attrs]) == 0
    out = tmp_path / "z.csv"
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--algo", "fetch-union", "--k", "4",
                 "--out", str(out)]) == 4
    assert "zero query" in capsys.readouterr().err
    assert not out.exists()


def test_run_all_algorithms_produce_csv(dataset, tmp_path):
    base, queries, attrs = dataset
    cases = [
        ["--algo", "ann", "--k", "4"],
        ["--algo", "div", "--k", "4", "--kprime", "1"],
        ["--algo", "nash", "--k", "4", "--eta", "0.01"],
        ["--algo", "pmean", "--k", "4", "--p", "-1"],
        ["--algo", "multi-nash", "--k", "4"],
        ["--algo", "multi-pmean", "--k", "4", "--p", "0.5",
         "--pool-L", "50"],
        ["--algo", "multi-div", "--k", "4", "--kprime", "2"],
        ["--algo", "fetch-union", "--k", "4", "--pool-L", "40"],
    ]
    for i, extra in enumerate(cases):
        out = str(tmp_path / f"case{i}.csv")
        args = ["run", "--base", base, "--queries", queries, "--attrs",
                attrs, "--out", out] + extra
        assert main(args) == 0, extra
        rows = read_csv(out)
        assert rows[0][0] == "query_id"
        assert rows[-1][0] == "qps"
        assert len([r for r in rows[1:] if r[0].isdigit()]) == 8


def test_run_deterministic_across_threads(dataset, tmp_path):
    base, queries, attrs = dataset
    outs = []
    for i, threads in enumerate(("1", "1", "4")):
        out = str(tmp_path / f"det{i}.csv")
        assert main(["run", "--base", base, "--queries", queries,
                     "--attrs", attrs, "--algo", "nash", "--k", "5",
                     "--eta", "0.5", "--seed", "11", "--threads", threads,
                     "--out", out]) == 0
        outs.append(strip_timing(read_csv(out)))
    assert outs[0] == outs[1] == outs[2]


def test_run_config_file_precedence(dataset, tmp_path):
    base, queries, attrs = dataset
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# benchmark defaults\nk=3\neta=0.5\nalgo=nash\n")
    out1 = str(tmp_path / "cfg1.csv")
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--config", str(cfg), "--out", out1]) == 0
    rows = read_csv(out1)
    k_col, eta_col = rows[0].index("k"), rows[0].index("eta")
    assert rows[1][k_col] == "3" and rows[1][eta_col] == "0.5"
    # flag overrides config
    out2 = str(tmp_path / "cfg2.csv")
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--config", str(cfg), "--eta", "2", "--out",
                 out2]) == 0
    rows2 = read_csv(out2)
    assert rows2[1][eta_col] == "2"


def test_run_config_keys_are_flag_names_in_any_case(dataset, tmp_path,
                                                    monkeypatch):
    base, queries, attrs = dataset
    limits = []
    real = cli.block_pools

    def block_pools(qs, data, fn, limit=None):
        limits.append(limit)
        return real(qs, data, fn, limit)

    monkeypatch.setattr(cli, "block_pools", block_pools)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pool-L=40\n")
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--algo", "fetch-union", "--k", "4", "--config",
                 str(cfg), "--out", str(tmp_path / "ok.csv")]) == 0
    assert limits == [40]   # the 8 queries make one block


@pytest.mark.parametrize("line", ["preset=amazon", "num_queries=2",
                                  "pool_lx=7", "entropy-base=2"])
def test_run_unknown_config_key_is_a_usage_error(tmp_path, capsys, line):
    # found before any file is read: the data files do not exist
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k=3\n{line}\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--base", str(tmp_path / "b.fvecs"), "--queries",
                 str(tmp_path / "q.fvecs"), "--attrs", str(tmp_path / "a.txt"),
                 "--algo", "ann", "--config", str(cfg), "--out",
                 str(out)]) == 2
    err = capsys.readouterr().err
    key = line.split("=")[0].replace("-", "_")
    assert str(cfg) in err and repr(key) in err
    assert not out.exists()


def test_run_preset_defaults(dataset, tmp_path):
    base, queries, attrs = dataset
    out = str(tmp_path / "preset.csv")
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--preset", "sift-prob", "--algo", "nash", "--k",
                 "4", "--out", out]) == 0
    rows = read_csv(out)
    assert rows[1][rows[0].index("eta")] == "0.01"
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--preset", "bogus", "--algo", "nash", "--k", "4",
                 "--out", out]) == 2


def test_run_multi_attribute_per_class_columns(tmp_path):
    rng = np.random.default_rng(91)
    base = str(tmp_path / "b.fvecs")
    queries = str(tmp_path / "q.fvecs")
    write_fvecs(base, rng.normal(size=(60, 8)).astype(np.float32))
    write_fvecs(queries, rng.normal(size=(5, 8)).astype(np.float32))
    attrs = str(tmp_path / "a.txt")
    assert main(["gen-attrs", "--base", base, "--mode", "clus", "--c", "3",
                 "--chunks", "2", "--seed", "1", "--out", attrs]) == 0
    out = str(tmp_path / "m.csv")
    assert main(["run", "--base", base, "--queries", queries, "--attrs",
                 attrs, "--algo", "multi-nash", "--k", "4", "--out",
                 out]) == 0
    rows = read_csv(out)
    assert "entropy_class0" in rows[0] and "inverse_simpson_class1" in rows[0]


def test_run_entropy_base_flag(dataset, tmp_path):
    base, queries, attrs = dataset
    nat = str(tmp_path / "nat.csv")
    bits = str(tmp_path / "bits.csv")
    for out, extra in ((nat, []), (bits, ["--entropy-base", "2"])):
        assert main(["run", "--base", base, "--queries", queries, "--attrs",
                     attrs, "--algo", "nash", "--k", "5", "--eta", "0.01",
                     "--out", out] + extra) == 0
    rn, rb = read_csv(nat), read_csv(bits)
    col = rn[0].index("entropy")
    import math
    for qa, qb in zip(rn[1:], rb[1:]):
        if qa[0].isdigit() and float(qa[col]) > 0:
            assert float(qb[col]) == pytest.approx(
                float(qa[col]) / math.log(2), rel=1e-9)


def test_verify_passes(capsys):
    assert main(["verify", "--suite", "ersp", "--trials", "15"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    from divknn import suites as suites_mod

    def failing(trials=0, seed=0):
        return SuiteResult(name="synthetic failure", checks=1, violations=1)

    monkeypatch.setitem(suites_mod.SUITES, "ersp", failing)
    assert main(["verify", "--suite", "ersp"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_alpha_flag():
    assert main(["verify", "--suite", "alpha", "--trials", "20",
                 "--alpha", "0.5"]) == 0


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"), ("--trials", "-3"), ("--checks", "0"),
    ("--checks", "-5"), ("--alpha", "0"), ("--alpha", "nan"),
    ("--alpha", "1.5"), ("--alpha", "-0.5"), ("--seed", "-1"),
])
def test_verify_bad_flags_are_usage_errors(monkeypatch, capsys, flag, value):
    # rejected before any suite runs
    from divknn import suites as suites_mod

    def never(**kwargs):
        raise AssertionError("a suite ran")

    for name in list(suites_mod.SUITES):
        monkeypatch.setitem(suites_mod.SUITES, name, never)
    assert main(["verify", flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


def test_missing_subcommand_usage():
    assert main([]) == 2
