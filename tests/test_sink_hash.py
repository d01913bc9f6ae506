"""The --from-sink conformance protocol (tools/check_queries.py):
Dataset results are written to parquet by the Ray write tasks and
hashed by DuckDB from the sink files — never gathered into a driver
DataFrame — with the oracle hashed by the same canonical expression.
These tests pin the protocol's semantics: order-insensitive, float
rounding at 6 decimals, and loud on row/column/value mismatches.
(VERDICT r4 item 7: row-scale outputs at large sf must not funnel
through one pandas gather.)"""

import os
import sys

import duckdb
import pytest
import ray.data as rd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.check_queries import sink_compare  # noqa: E402

ROWS = [{"k": 1, "v": 1.5, "s": "a"},
        {"k": 2, "v": 2.5, "s": "b"},
        {"k": 3, "v": 3.5, "s": "c"}]

SQL = ("SELECT * FROM (VALUES (1, 1.5, 'a'), (2, 2.5, 'b'),"
       " (3, 3.5, 'c')) AS t(k, v, s)")


@pytest.fixture()
def con():
    c = duckdb.connect()
    yield c
    c.close()


def test_match_is_clean(con):
    rec, problems = sink_compare(con, rd.from_items(ROWS), SQL)
    assert problems == []
    assert rec["rows"] == 3
    assert rec["sink_hash"]


def test_order_insensitive(con):
    rec, problems = sink_compare(con, rd.from_items(ROWS[::-1]), SQL)
    assert problems == []
    assert rec["rows"] == 3


def test_float_rounds_at_six_decimals(con):
    # 1.5000000004 rounds to 1.5 at 6 decimals -> still a match,
    # mirroring the pandas protocol's %.6f formatting
    rows = [dict(r) for r in ROWS]
    rows[0]["v"] = 1.5000000004
    _, problems = sink_compare(con, rd.from_items(rows), SQL)
    assert problems == []


def test_value_mismatch_detected(con):
    rows = [dict(r) for r in ROWS]
    rows[1]["v"] = 99.0
    _, problems = sink_compare(con, rd.from_items(rows), SQL)
    assert problems == ["sink value-hash mismatch"]


def test_row_count_mismatch_detected(con):
    _, problems = sink_compare(con, rd.from_items(ROWS[:2]), SQL)
    assert problems and problems[0].startswith("rows 2 != 3")


def test_column_mismatch_detected(con):
    rows = [{"k": r["k"], "v": r["v"], "OTHER": r["s"]} for r in ROWS]
    rec, problems = sink_compare(con, rd.from_items(rows), SQL)
    assert problems and problems[0].startswith("cols ")


def test_int_widths_canonicalize(con):
    # parquet int32 vs oracle int64 hash identically (both -> BIGINT)
    import pyarrow as pa
    tbl = pa.table({"k": pa.array([1, 2, 3], type=pa.int32())})
    _, problems = sink_compare(
        con, rd.from_arrow(tbl),
        "SELECT * FROM (VALUES (CAST(1 AS BIGINT)), (2), (3)) AS t(k)")
    assert problems == []


def test_sink_dir_holds_the_temp_sink(con, tmp_path, monkeypatch):
    """--sink-dir: the temp sink is made under the given directory (a
    mount every node sees) and removed afterwards."""
    import tempfile
    made = []
    mkdtemp = tempfile.mkdtemp

    def spy(*a, **kw):
        made.append(mkdtemp(*a, **kw))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", spy)
    rec, problems = sink_compare(con, rd.from_items(ROWS), SQL,
                                 sink_dir=str(tmp_path))
    assert problems == [] and rec["rows"] == 3
    sink, = made
    assert os.path.dirname(sink) == str(tmp_path)
    assert os.listdir(tmp_path) == []
