"""stages.aggregate.combine: the one aggregation path. It equals a
pandas oracle for count, sum, min, max, distinct and keyless totals
over int, string and timestamp keys, through both finals (the driver
final, and the exchange final a small session block target forces);
an input without rows keeps its named, typed columns; and the ported
catalog aggregates run without ``Dataset.groupby`` and match their
DuckDB oracles."""

import os
import pathlib
import re
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data as rd
from ves_ray.stages.aggregate import combine, grouped_counts, route_counts

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.check_queries import value_hash  # noqa: E402

AGGS = {"n": ([], "count_all"), "s": ("v", "sum"), "lo": ("v", "min"),
        "hi": ("t", "max")}


def _table(key_type: str, n: int = 600) -> pa.Table:
    rng = np.random.default_rng(3)
    k = rng.integers(0, 7, n)
    keys = {"int": pa.array(k, pa.int64()),
            "string": pa.array([f"k{x}" for x in k]),
            "timestamp": pa.array(k * 3_600_000_000, pa.timestamp("us"))}
    return pa.table({"k": keys[key_type],
                     "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
                     "t": pa.array(rng.integers(0, 10**9, n),
                                   pa.timestamp("us"))})


def _blocks(t: pa.Table):
    """``t`` as 8 blocks, with empty blocks between them."""
    step = -(-len(t) // 8)
    parts = [t.slice(i, step) for i in range(0, len(t), step)]
    return rd.from_arrow([t.slice(0, 0)] + parts[:4] + [t.slice(0, 0)]
                         + parts[4:])


@pytest.fixture(params=["driver", "exchange"])
def final(request):
    """Which final ``combine`` runs: a session block target of 1 byte
    puts every keyed partial past one block."""
    ctx = rd.DataContext.get_current()
    old = ctx.target_max_block_size
    if request.param == "exchange":
        ctx.target_max_block_size = 1
    try:
        yield request.param
    finally:
        ctx.target_max_block_size = old


def _sorted(df: pd.DataFrame, by) -> pd.DataFrame:
    return df.sort_values(by, ignore_index=True)


@pytest.mark.parametrize("key_type", ["int", "string", "timestamp"])
def test_combine_matches_pandas(key_type, final):
    t = _table(key_type)
    out = combine(_blocks(t), "k", AGGS)
    assert out._logical_plan.dag.name == {
        "driver": "FromArrow",
        "exchange": "MapBatches(exchange_kernel)"}[final]
    df = t.to_pandas()
    exp = df.groupby("k", as_index=False).agg(
        n=("v", "size"), s=("v", "sum"), lo=("v", "min"), hi=("t", "max"))
    got = _sorted(out.to_pandas(), "k")
    assert list(got.columns) == ["k", "n", "s", "lo", "hi"]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    distinct = _sorted(combine(_blocks(t), ["k"], {}).to_pandas(), "k")
    pd.testing.assert_frame_equal(
        distinct, _sorted(df[["k"]].drop_duplicates(), "k"))

    pairs = combine(_blocks(t), ["k", "v"], {"n": ([], "count_all")})
    exp2 = df.groupby(["k", "v"], as_index=False).size() \
             .rename(columns={"size": "n"})
    pd.testing.assert_frame_equal(_sorted(pairs.to_pandas(), ["k", "v"]),
                                  _sorted(exp2, ["k", "v"]),
                                  check_dtype=False)


def test_combine_final_form_resums_partial_rows(final):
    """A map that already emits partial rows passes the final form; a
    block's rows summed again give the same totals."""
    t = _table("string")
    parts = _blocks(t).map_batches(
        lambda b: pa.TableGroupBy(b, ["k"]).aggregate([("v", "sum")])
        .rename_columns(["k", "s"]), batch_format="pyarrow")
    got = _sorted(combine(parts, ["k"], {"s": ("s", "sum")}).to_pandas(), "k")
    exp = t.to_pandas().groupby("k", as_index=False)["v"].sum() \
           .rename(columns={"v": "s"})
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_combine_keyless_total():
    t = _table("int")
    got = combine(_blocks(t), [], {"n": ([], "count_all"),
                                   "s": ("v", "sum")}).to_pandas()
    assert got.to_dict("records") == [
        {"n": len(t), "s": int(t["v"].to_numpy().sum())}]
    # SQL's total over no rows: one row, count 0, a null sum
    empty = combine(rd.from_arrow(t.slice(0, 0)), [],
                    {"n": ([], "count_all"), "s": ("v", "sum")})
    assert empty.take_all() == [{"n": 0, "s": None}]


def _no_rows(t: pa.Table, how: str):
    if how == "empty_input":
        return rd.from_arrow(t.slice(0, 0))
    return rd.from_arrow(t).filter(expr="n_tok < 0")


@pytest.mark.parametrize("how", ["empty_input", "all_filtered"])
def test_aggregate_without_rows_keeps_typed_columns(how):
    """An aggregate over no rows names and types its columns from the
    input schema, for a string key and a timestamp key, in its schema
    and in its one empty block."""
    t = pa.table({"route": ["a", "b"], "n_tok": pa.array([3, 4], pa.int32()),
                  "ts_hour": pa.array([0, 3_600_000_000], pa.timestamp("us"))})
    counts = route_counts(_no_rows(t, how))
    assert counts.schema().base_schema == pa.schema(
        [("route", pa.string()), ("events", pa.int64()),
         ("n_tok_sum", pa.int64())])
    block, = ray.get(counts.to_arrow_refs())
    assert block.schema == counts.schema().base_schema
    assert block.num_rows == 0
    hourly = grouped_counts(_no_rows(t, how), ["ts_hour"])
    assert hourly.schema().base_schema == pa.schema(
        [("ts_hour", pa.timestamp("us")), ("events", pa.int64())])
    assert hourly.count() == 0


def _oracle_hash(sf_dir: str, sql: str) -> str:
    con = duckdb.connect()
    for f in os.listdir(sf_dir):
        if f.endswith(".parquet"):
            con.execute(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                        f"read_parquet('{os.path.join(sf_dir, f)}')")
    return value_hash(con.sql(sql).df())


@pytest.mark.parametrize("name", ["route_counts", "events_hourly",
                                  "region_revenue", "dedup_exact"])
def test_ported_queries_never_call_dataset_groupby(name, sf_dir,
                                                   monkeypatch):
    from ves_ray.pipelines.queries import ORACLE_SQL, QUERIES

    def native(*_a, **_k):
        raise AssertionError("Dataset.groupby called")

    monkeypatch.setattr(rd.Dataset, "groupby", native)
    got = QUERIES[name](sf_dir).to_pandas()
    assert value_hash(got) == _oracle_hash(sf_dir, ORACLE_SQL[name])


def test_no_native_aggregate_in_the_package():
    """``combine`` is the one aggregation final: no module imports Ray's
    ``ray.data.aggregate``."""
    root = pathlib.Path(__file__).resolve().parents[1] / "ves_ray"
    hits = [f"{p.relative_to(root)}:{i}"
            for p in root.rglob("*.py")
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if re.search(r"ray\.data\.aggregate", line)]
    assert not hits
