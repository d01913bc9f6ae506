"""Query catalog. ``CATALOG`` (at the end) is its one registry: every
query name once, with its builder and exactly one check — a DuckDB
oracle over the driver testdata views (SURVEY.md §5.2.1), or for a
rows-only entry (sketches, ANN, packing, codecs) an ``Invariant``
(pipelines/invariants.py) that runs inside the call. ``QUERIES``,
``ORACLE_SQL`` and ``INVARIANTS`` are derived from it, in its order.
Where two names give one answer, both name the same builder
(``heavy_hitter_words``, ``dedup_keep_dist`` and
``value_percent_rank_banded``): one plan per answer.

Naming contract: every computed column is named identically in the Ray
implementation and the oracle SQL (the driver's compare hashes values
under sorted column names). Floating-point outputs are either avoided,
converted to exact integer cents, or rounded identically on both
sides.

Each callable takes ``sf_dir`` and returns a Dataset / DataFrame /
pyarrow Table. Ray is already initialised by the caller (driver
contract — nothing here calls ray.init).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..hashing import round_half_away, sql_splitmix64
from ..sources.sequences import documents_as_sequences, read_parquet_sized
from ..stages import aggregate as agg
from ..stages import dedup, parse, similarity, textstats
from ..stages.exchange import _group_starts, bucket_exchange, exchange_groups
from . import invariants as inv
from .invariants import Invariant

# ---------------------------------------------------------------------------
# shared: the derived lookup for driver testdata sources ("srcK")
# ---------------------------------------------------------------------------
SEVERITIES = ["debug", "info", "warn", "error"]


def testdata_lookup(n: int = 64) -> pa.Table:
    """source 'srcK' → tenant-(K%5) / severity[K%4] / route-(K%6).
    Superset of the sources present at any sf; pure function of K so
    the oracle can derive the same mapping in SQL."""
    k = np.arange(n)
    return pa.table({
        "source": [f"src{v}" for v in k],
        "tenant": [f"tenant-{v % 5}" for v in k],
        "severity": [SEVERITIES[v % 4] for v in k],
        "route": [f"route-{v % 6}" for v in k],
        "hot": [False] * n,
    })


_SRC_K = r"CAST(regexp_extract(source, 'src(\d+)', 1) AS INT)"
_ROUTE_SQL = f"'route-' || ({_SRC_K} % 6)"
_NTOK_SQL = r"len(regexp_split_to_array(text, '\s+'))"


def _read(sf_dir: str, table: str, columns=None):
    return read_parquet_sized(os.path.join(sf_dir, f"{table}.parquet"),
                              columns=columns)


def _cents(col):
    return pc.cast(pc.round(pc.multiply(col, 100.0)), pa.int64())


def add_cents(b: pa.Table) -> pa.Table:
    """``b`` with its ``value`` column as exact integer ``value_cents``
    (the last column)."""
    return pa.table({**{c: b[c] for c in b.column_names if c != "value"},
                     "value_cents": _cents(b["value"])})


# ===========================================================================
# parse family (T1–T3)
# ===========================================================================

def q_parse_extract(sf_dir: str):
    """Regex field extraction: src_num pulled out of `source`."""
    def fn(b: pa.Table) -> pa.Table:
        ext = pc.extract_regex(b["source"].combine_chunks()
                               if isinstance(b["source"], pa.ChunkedArray)
                               else b["source"], pattern=r"src(?P<n>\d+)")
        n = pc.cast(pc.struct_field(ext, "n"), pa.int64())
        return pa.table({"doc_id": b["doc_id"], "source": b["source"],
                         "src_num": n})
    return _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True)


SQL_PARSE_EXTRACT = r"""
SELECT doc_id, source,
       CAST(regexp_extract(source, 'src(\d+)', 1) AS BIGINT) AS src_num
FROM documents
"""


def q_events_json(sf_dir: str):
    """JSON props scalar extraction (T3)."""
    ds = _read(sf_dir, "events", ["event_id", "props"])
    ds = ds.map_batches(parse.extract_json_int_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
    return ds.select_columns(["event_id", "props_k"])


SQL_EVENTS_JSON = """
SELECT event_id, CAST(json_extract_string(props, '$.k') AS BIGINT) AS props_k
FROM events
"""


def q_events_hourly(sf_dir: str):
    """Tumbling-hour window aggregate (T2 + T6)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(b: pa.Table) -> pa.Table:
        b = parse.truncate_to_hour(b)
        return pa.table({"event_type": b["event_type"], "ts_hour": b["ts_hour"],
                         "value_cents": _cents(b["value"])})
    prepped = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return agg.combine(prepped, ["event_type", "ts_hour"],
                       {"events": ([], "count_all"),
                        "value_cents_sum": ("value_cents", "sum")})


SQL_EVENTS_HOURLY = """
SELECT event_type, date_trunc('hour', ts) AS ts_hour,
       COUNT(*) AS events,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS value_cents_sum
FROM events GROUP BY 1, 2
"""


def q_events_by_type(sf_dir: str):
    """Grouped aggregate with a distinct-count (two-level groupby)."""
    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"event_type": b["event_type"], "user_id": b["user_id"],
                         "value_cents": _cents(b["value"])})
    p = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    t = agg.combine_pandas(p, ["event_type"],
                           {"events": ([], "count_all"),
                            "value_cents_sum": ("value_cents", "sum")})
    pairs = agg.combine(p, ["event_type", "user_id"], {})
    u = agg.combine_pandas(pairs, ["event_type"], {"users": ([], "count_all")})
    return t.merge(u, on="event_type").sort_values("event_type",
                                                   ignore_index=True)


SQL_EVENTS_BY_TYPE = """
SELECT event_type, COUNT(*) AS events,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS value_cents_sum,
       COUNT(DISTINCT user_id) AS users
FROM events GROUP BY 1
"""


def q_user_sessions(sf_dir: str):
    """Gap-based sessionization (30-min gap) — streaming-shaped per-key
    ordered scan, one output row per session."""
    from ..stages.window import sessionize
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return sessionize(ds, gap_s=1800)


SQL_USER_SESSIONS = """
WITH flagged AS (
  SELECT user_id, ts, event_id,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), numbered AS (
  -- event_id in the ORDER BY so duplicate (user_id, ts) rows number
  -- deterministically, matching sessionize()'s mergesort tie order
  SELECT user_id, ts,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS session_id
  FROM flagged
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       COUNT(*) AS events,
       (epoch_us(MAX(ts)) - epoch_us(MIN(ts))) // 1000000 AS duration_s
FROM numbered GROUP BY 1, 2
"""

def q_event_sessions(sf_dir: str):
    """Session ATTRIBUTION (stages.window.assign_sessions): every
    event tagged with its gap-based session number — the per-event
    assignment downstream joins need (revenue by session, first event
    of each session), versus user_sessions' per-session rollup. Same
    one-exchange bucketed multi-key scan."""
    from ..stages.window import assign_sessions
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return assign_sessions(ds, gap_s=1800)


SQL_EVENT_SESSIONS = """
WITH flagged AS (
  SELECT user_id, ts, event_id,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT event_id, user_id,
       CAST(SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS session_id
FROM flagged
"""


LOG_LEVEL_OF = {"click": "INFO", "view": "DEBUG", "purchase": "WARN",
                "signup": "TRACE", "error": "ERROR"}


def q_log_pipeline(sf_dir: str):
    """The reference's NATIVE dataflow end-to-end: structured events
    rendered to raw .log text files (distributed formatting, one file
    per block — the write side of a log agent), re-discovered with the
    S1/S4 walker, line-framed, grok-parsed (T1) and aggregated (T6) —
    all verified against an oracle over the original events table.

    Filesystem assumption: render tasks write .log files to
    ``log_dir`` and the re-discovery walks the same path, so on a
    multi-node cluster ``log_dir`` MUST be a shared filesystem (NFS /
    fuse-mounted object store); a node-local tmpdir silently yields a
    partial corpus. The driver harness runs single-node, where the
    local tmpdir is correct."""
    import tempfile

    from ..sources.logs import parse_log_lines, read_log_lines

    ds = _read(sf_dir, "events", ["event_type", "user_id", "ts", "value"])
    log_dir = tempfile.mkdtemp(prefix="ves_logs_")
    lut = ray_level_lut()

    def render(b: pa.Table) -> pa.Table:
        import uuid as _uuid
        ts = pc.strftime(b["ts"], format="%Y-%m-%dT%H:%M:%S")
        et = b["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        enc = et.dictionary_encode()
        levels = np.array([lut[v] for v in enc.dictionary.to_pylist()])
        level = pa.array(levels[enc.indices.to_numpy(zero_copy_only=False)])
        uid = pc.cast(b["user_id"], pa.string())
        cents = pc.cast(_cents(b["value"]), pa.string())
        line = pc.binary_join_element_wise(
            ts, level, pc.binary_join_element_wise(
                pa.array(["user-"] * len(b)), uid, ""),
            pc.binary_join_element_wise(
                pa.array(["value="] * len(b)), cents, ""), " ")
        path = os.path.join(log_dir, f"{_uuid.uuid4().hex}.log")
        with open(path, "w") as f:
            f.write("\n".join(line.to_pylist()) + "\n")
        return pa.table({"path": pa.array([path]),
                         "rows": pa.array([len(b)], type=pa.int64())})

    # force the render/write stage (tiny marker output)
    ds.map_batches(render, batch_format="pyarrow",
                   zero_copy_batch=True).materialize()

    lines = read_log_lines(log_dir)
    parsed = parse_log_lines(
        lines, grok="%{TIMESTAMP_ISO8601:ts} %{LOGLEVEL:level} "
                    "%{NOTSPACE:who} value=%{NOTSPACE:val}")

    def prep(b: pa.Table) -> pa.Table:
        ok = b.filter(b["parse_ok"])
        return pa.table({"level": ok["level"],
                         "value_cents": pc.cast(ok["val"], pa.int64())})

    prepped = parsed.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
    df = agg.combine_pandas(prepped, ["level"],
                            {"events": ([], "count_all"),
                             "value_cents_sum": ("value_cents", "sum")})
    df = df.sort_values("level", ignore_index=True)
    import shutil
    shutil.rmtree(log_dir, ignore_errors=True)
    return df


def ray_level_lut() -> dict:
    return dict(LOG_LEVEL_OF)


SQL_LOG_PIPELINE = """
SELECT CASE event_type WHEN 'click' THEN 'INFO'
                       WHEN 'view' THEN 'DEBUG'
                       WHEN 'purchase' THEN 'WARN'
                       WHEN 'signup' THEN 'TRACE'
                       ELSE 'ERROR' END AS level,
       COUNT(*) AS events,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
           AS value_cents_sum
FROM events GROUP BY 1 ORDER BY level
"""


def q_users_approx_distinct(sf_dir: str):
    """HyperLogLog per-group approximate distinct users — the
    sketch counterpart of events_by_type's exact distinct (no SQL
    oracle: approximate by construction; pytest bounds the error)."""
    from ..stages.sketch import grouped_approx_distinct
    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return grouped_approx_distinct(ds, "event_type", "user_id")


def q_user_running_value(sf_dir: str):
    """Cumulative window (SUM OVER ... ROWS UNBOUNDED PRECEDING): per
    user, running total of value cents in (ts, event_id) order. Same
    exchange shape as sessionize — one ``bucket_exchange``, one
    vectorized multi-user cumsum per partition."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        starts = _group_starts(t, ["user_id"])
        cs = np.cumsum(t["value_cents"].to_numpy())
        # minus the running total before each user's first row
        before = np.repeat(np.append(0, cs)[starts[:-1]], np.diff(starts))
        return pa.table({"user_id": t["user_id"], "event_id": t["event_id"],
                         "running_cents": cs - before})

    cents = ds.map_batches(
        lambda b: b.append_column("value_cents", _cents(b["value"])),
        batch_format="pyarrow", zero_copy_batch=True)
    return bucket_exchange(cents, "user_id", per_bucket)


SQL_USER_RUNNING_VALUE = """
SELECT user_id, event_id,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents
FROM events
"""


def q_value_moments(sf_dir: str):
    """Distributed moment aggregation (the variance/stddev building
    block): per event_type n, Σx, Σx² over exact integer cents —
    block-local partials, one tiny exchange; variance derives exactly
    downstream without float-summation-order hazards."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        cents = _cents(b["value"])
        return pa.table({"event_type": b["event_type"], "s": cents,
                         "s2": pc.multiply(cents, cents)})

    return agg.combine(ds.map_batches(prep, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       ["event_type"], {"n": ([], "count_all"),
                                        "s": ("s", "sum"),
                                        "s2": ("s2", "sum")})


SQL_VALUE_MOMENTS = """
SELECT event_type, COUNT(*) AS n,
       CAST(SUM(c) AS BIGINT) AS s,
       CAST(SUM(c * c) AS BIGINT) AS s2
FROM (SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS c
      FROM events)
GROUP BY event_type
"""


def q_user_event_gaps(sf_dir: str):
    """LAG window function: per-user inter-event gap stats in exact
    integer microseconds."""
    from ..stages.window import event_gaps
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return event_gaps(ds)


SQL_USER_EVENT_GAPS = """
WITH g AS (
  SELECT user_id,
         epoch_us(ts) - epoch_us(lag(ts) OVER (
             PARTITION BY user_id ORDER BY ts, event_id)) AS gap_us
  FROM events
)
SELECT user_id, COUNT(*) AS n_gaps,
       CAST(MAX(gap_us) AS BIGINT) AS max_gap_us,
       CAST(SUM(gap_us) AS BIGINT) AS sum_gap_us
FROM g WHERE gap_us IS NOT NULL GROUP BY user_id
"""


# ===========================================================================
# enrich + route + aggregate family (T4–T6) over documents-as-sequences
# ===========================================================================


def _enriched_sequences(sf_dir: str):
    """Broadcast-small-side enrich on warm task workers (the lookup is
    a few KB; flagship's actor-pool mode is exercised separately)."""
    import ray

    from ..stages.enrich import make_task_enricher
    ds = documents_as_sequences(sf_dir)
    ref = ray.put(testdata_lookup())
    return ds.map_batches(make_task_enricher(ref), batch_format="pyarrow",
                          zero_copy_batch=True)


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_user_event_pivot(sf_dir: str):
    """Long→wide pivot: per-user event-type counts as columns."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return agg.pivot_counts(ds, key_col="user_id", col_col="event_type",
                            values=EVENT_TYPES)


SQL_USER_EVENT_PIVOT = """
SELECT user_id,
       COUNT(*) FILTER (event_type = 'click')    AS n_click,
       COUNT(*) FILTER (event_type = 'error')    AS n_error,
       COUNT(*) FILTER (event_type = 'purchase') AS n_purchase,
       COUNT(*) FILTER (event_type = 'signup')   AS n_signup,
       COUNT(*) FILTER (event_type = 'view')     AS n_view
FROM events GROUP BY user_id
"""


def q_enrich_routes(sf_dir: str):
    """Broadcast-lookup enrichment (T4): source → tenant/severity/route."""
    import ray

    from ..stages.enrich import make_task_enricher
    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    ref = ray.put(testdata_lookup())
    ds = ds.map_batches(make_task_enricher(ref), batch_format="pyarrow",
                        zero_copy_batch=True)
    return ds.select_columns(["doc_id", "source", "tenant", "severity", "route"])


SQL_ENRICH_ROUTES = f"""
SELECT doc_id, source,
       'tenant-' || ({_SRC_K} % 5) AS tenant,
       CASE ({_SRC_K} % 4) WHEN 0 THEN 'debug' WHEN 1 THEN 'info'
            WHEN 2 THEN 'warn' ELSE 'error' END AS severity,
       {_ROUTE_SQL} AS route
FROM documents
"""


def q_route_counts(sf_dir: str):
    """Flagship per-sink aggregate (T6): events + token sums per route."""
    return agg.route_counts(_enriched_sequences(sf_dir))


SQL_ROUTE_COUNTS = f"""
SELECT {_ROUTE_SQL} AS route, COUNT(*) AS events,
       CAST(SUM({_NTOK_SQL}) AS BIGINT) AS n_tok_sum
FROM documents GROUP BY 1
"""


def q_source_histogram(sf_dir: str):
    """Per-sink source histogram (T6), exploded form."""
    return agg.source_histogram(_enriched_sequences(sf_dir))


SQL_SOURCE_HISTOGRAM = f"""
SELECT {_ROUTE_SQL} AS route, source, COUNT(*) AS events
FROM documents GROUP BY 1, 2
"""


def q_flagship_routed(sf_dir: str):
    """Row-level flagship output: composed doc_id, parse, enrich."""
    ds = _enriched_sequences(sf_dir)
    ds = ds.map_batches(parse.parse_batch, batch_format="pyarrow",
                        zero_copy_batch=True)
    return ds.select_columns(["doc_id", "source", "src", "route", "n_tok",
                              "parse_ok"])


SQL_FLAGSHIP_ROUTED = f"""
SELECT source || '-' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS doc_id,
       source, source AS src, {_ROUTE_SQL} AS route,
       {_NTOK_SQL} AS n_tok, TRUE AS parse_ok
FROM documents
"""


def q_top_sources(sf_dir: str):
    """Top-k hot groups (sort + limit over a pre-aggregated groupby)."""
    ds = _read(sf_dir, "documents", ["source"])
    counts = agg.grouped_counts(ds, ["source"])
    return counts.sort(["events", "source"], descending=[True, False]).limit(10)


SQL_TOP_SOURCES = """
SELECT source, COUNT(*) AS events FROM documents
GROUP BY 1 ORDER BY events DESC, source ASC LIMIT 10
"""

# ===========================================================================
# TPC-H-style relational coverage (joins / sort / limit)
# ===========================================================================


def q_pricing_summary(sf_dir: str):
    """Grouped multi-aggregate over lineitem (pre-aggregated partials
    before the shuffle). Money kept exact as integer cents."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        price_c = _cents(b["l_extendedprice"])
        # 4-decimal product ⇒ exact .5-cent cases exist; use explicit
        # half-up (floor(x+0.5)) so Arrow and the SQL oracle agree
        # (Arrow's round is half-even, DuckDB's is half-away).
        disc = pc.multiply(b["l_extendedprice"],
                           pc.subtract(pa.scalar(1.0), b["l_discount"]))
        disc_c = pc.cast(pc.floor(pc.add(pc.multiply(disc, 100.0), 0.5)),
                         pa.int64())
        return pa.table({
            "l_returnflag": b["l_returnflag"], "l_linestatus": b["l_linestatus"],
            "qty": pc.cast(b["l_quantity"], pa.int64()),
            "price_cents": price_c, "disc_price_cents": disc_c,
        })

    p = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return agg.combine(p, ["l_returnflag", "l_linestatus"],
                       {"n": ([], "count_all"), "sum_qty": ("qty", "sum"),
                        "sum_price_cents": ("price_cents", "sum"),
                        "sum_disc_cents": ("disc_price_cents", "sum")})


SQL_PRICING_SUMMARY = """
SELECT l_returnflag, l_linestatus, COUNT(*) AS n,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents
FROM lineitem GROUP BY 1, 2
"""


def q_orders_by_segment(sf_dir: str):
    """Broadcast hash join (small side = customer) + grouped aggregate."""
    import ray
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    ref = ray.put(cust)

    class JoinSegment:
        def __init__(self, lookup):
            t = ray.get(lookup)
            self.keys = t["c_custkey"].combine_chunks()
            self.seg = t["c_mktsegment"].combine_chunks()

        def __call__(self, b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["o_custkey"].combine_chunks()
                              if isinstance(b["o_custkey"], pa.ChunkedArray)
                              else b["o_custkey"], value_set=self.keys)
            return pa.table({"c_mktsegment": self.seg.take(idx),
                             "total_cents": _cents(b["o_totalprice"])})

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = ds.map_batches(JoinSegment, fn_constructor_kwargs=dict(lookup=ref),
                            batch_format="pyarrow", zero_copy_batch=True,
                            concurrency=2, num_cpus=0.5)
    return agg.combine(joined, ["c_mktsegment"],
                       {"orders": ([], "count_all"),
                        "total_cents_sum": ("total_cents", "sum")})


SQL_ORDERS_BY_SEGMENT = """
SELECT c.c_mktsegment, COUNT(*) AS orders,
       CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents_sum
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1
"""


def q_nations_per_region(sf_dir: str):
    """Tiny-dimension broadcast join: nation ⋈ region."""
    import ray
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    ref = ray.put(region)

    def join(b: pa.Table) -> pa.Table:
        r = ray.get(ref)
        idx = pc.index_in(b["n_regionkey"].combine_chunks()
                          if isinstance(b["n_regionkey"], pa.ChunkedArray)
                          else b["n_regionkey"],
                          value_set=r["r_regionkey"].combine_chunks())
        return pa.table({"r_name": r["r_name"].combine_chunks().take(idx)})

    ds = _read(sf_dir, "nation", ["n_regionkey"])
    joined = ds.map_batches(join, batch_format="pyarrow", zero_copy_batch=True)
    return agg.combine(joined, ["r_name"], {"nations": ([], "count_all")})


SQL_NATIONS_PER_REGION = """
SELECT r.r_name, COUNT(*) AS nations
FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY 1
"""


def q_top_orders(sf_dir: str):
    """Global sort + limit (top-k by value, deterministic tiebreak)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "total_cents": _cents(b["o_totalprice"])})
    p = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return p.sort(["total_cents", "o_orderkey"],
                  descending=[True, False]).limit(10)


SQL_TOP_ORDERS = """
SELECT o_orderkey, CAST(ROUND(o_totalprice * 100) AS BIGINT) AS total_cents
FROM orders ORDER BY total_cents DESC, o_orderkey ASC LIMIT 10
"""

# ===========================================================================
# text analysis
# ===========================================================================


def q_token_counts(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(textstats.token_count_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.select_columns(["doc_id", "n_words", "n_tok_bpe"])


SQL_TOKEN_COUNTS = r"""
SELECT doc_id, len(regexp_split_to_array(text, '\s+')) AS n_words,
       len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS n_tok_bpe
FROM documents
"""

def q_top_words(sf_dir: str):
    """Flat-map / unnest coverage: explode documents into words and
    count — the row-multiplying transform. Block-local word counts
    (one partial row per distinct word per block) pre-aggregate before
    the final; the global sort runs over the tiny aggregate."""
    counts = textstats.word_counts(_read(sf_dir, "documents", ["text"]))
    return counts.sort(["n", "word"], descending=[True, False]).limit(20)


SQL_TOP_WORDS = r"""
SELECT word, COUNT(*) AS n FROM (
  SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS word
  FROM documents
) GROUP BY 1 ORDER BY n DESC, word ASC LIMIT 20
"""


def q_top_terms(sf_dir: str):
    """Corpus vocabulary stats (the TF-IDF building block): term
    frequency AND document frequency in ONE pass — each doc lives in
    exactly one block, so per-block distinct (doc, word) pairs are
    globally distinct and df sums exactly like tf. One tiny exchange
    over per-block word partials; sort/limit runs on the aggregate."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern_regex(pc.utf8_lower(text), pattern=r"\s+")
        off = words.offsets.to_numpy(zero_copy_only=False)
        flat = words.values[words.offsets[0].as_py():
                            words.offsets[-1].as_py()]
        rows = np.repeat(np.arange(len(b), dtype=np.int64),
                         np.diff(off - off[0]))
        t = pa.table({"word": flat, "row": pa.array(rows)})
        tf = (pa.TableGroupBy(t, ["word"]).aggregate([([], "count_all")])
              .rename_columns(["word", "tf"]))
        dw = (pa.TableGroupBy(t, ["word", "row"])
              .aggregate([([], "count_all")]))
        df = (pa.TableGroupBy(dw.select(["word"]), ["word"])
              .aggregate([([], "count_all")])
              .rename_columns(["word", "df"]))
        return tf.join(df, keys=["word"])

    out = agg.combine(ds.map_batches(partial, batch_format="pyarrow",
                                     zero_copy_batch=True),
                      ["word"], {"tf": ("tf", "sum"), "df": ("df", "sum")})
    return out.sort(["tf", "word"], descending=[True, False]).limit(20)


SQL_TOP_TERMS = r"""
SELECT word, COUNT(*) AS tf, COUNT(DISTINCT doc_id) AS df
FROM (SELECT doc_id,
             unnest(regexp_split_to_array(lower(text), '\s+')) AS word
      FROM documents)
GROUP BY word ORDER BY tf DESC, word ASC LIMIT 20
"""


_STOPLIST_SQL = ", ".join(f"'{w}'" for w in sorted(textstats.STOPWORDS["en"]))


def q_clean_text(sf_dir: str):
    """Text normalization: lowercase + control strip + whitespace
    collapse/trim, all Arrow string kernels."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: textstats.clean_text_batch(b),
        batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(["doc_id", "text_clean"])


SQL_CLEAN_TEXT = r"""
SELECT doc_id,
       trim(regexp_replace(
           regexp_replace(lower(text), '[\x00-\x08\x0e-\x1f\x7f]', '', 'g'),
           '\s+', ' ', 'g')) AS text_clean
FROM documents
"""


def q_pii_scrub(sf_dir: str):
    """PII redaction (emails / phones / IPv4 → placeholder tokens) —
    the pre-training privacy scrub. The synthetic corpus contains no
    PII, so both sides first append deterministic PII derived from
    doc_id; the operator under test is the chained RE2 scrub
    (textstats.PII_PATTERNS), bit-identical in Arrow and DuckDB."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        d = b["doc_id"]
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        dn = d.to_numpy(zero_copy_only=False)

        def s(arr):
            return pc.cast(pa.array(arr), pa.string())
        aug = pc.binary_join_element_wise(
            text, " contact user", s(dn), "@mail", s(dn % 7),
            ".example.com call 555-123-", s(1000 + dn % 9000),
            " from 10.", s(dn % 256), ".0.", s(dn % 200), "")
        out = textstats.pii_scrub_batch(
            pa.table({"doc_id": d, "text": aug}))
        return out.select(["doc_id", "text_scrubbed"])

    return ds.map_batches(fn, batch_format="pyarrow",
                          zero_copy_batch=True)


_PII_SQL_INNER = "t"
for _pat, _repl in textstats.PII_PATTERNS:
    _PII_SQL_INNER = (f"regexp_replace({_PII_SQL_INNER}, "
                      f"'{_pat}', '{_repl}', 'g')")

SQL_PII_SCRUB = f"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || doc_id || '@mail' || (doc_id % 7)
              || '.example.com call 555-123-' || (1000 + doc_id % 9000)
              || ' from 10.' || (doc_id % 256) || '.0.' || (doc_id % 200)
           AS t
  FROM documents)
SELECT doc_id, {_PII_SQL_INNER} AS text_scrubbed FROM aug
"""


def _explode_bigrams(b: pa.Table) -> pa.Table:
    """One ``bigram`` row ("a b") per pair of adjacent words within a
    row of ``b``'s lower-cased ``text``: two shifted slices of the flat
    word array joined element-wise, row-crossing pairs masked out."""
    words = textstats._words(b["text"])
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values[off[0]:off[-1]]
    off0 = off - off[0]
    nf = len(flat)
    if nf < 2:
        return pa.table({"bigram": pa.array([], type=pa.string())})
    big = pc.binary_join_element_wise(
        flat.slice(0, nf - 1), flat.slice(1, nf - 1), " ")
    valid = np.ones(nf - 1, dtype=bool)
    bnd = off0[1:-1] - 1     # last-word positions: pair crosses rows
    valid[bnd[(bnd >= 0) & (bnd < nf - 1)]] = False
    return pa.table({"bigram": big.filter(pa.array(valid))})


def _bigram_counts(ds):
    """``(bigram, n)``: every adjacent-word pair's count, one combine."""
    return agg.combine(ds.map_batches(_explode_bigrams, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       ["bigram"], {"n": ([], "count_all")})


def q_bigram_counts(sf_dir: str):
    """Adjacent-word bigram counts (n-gram LM / contamination
    analysis): two shifted slices of the flat word array joined
    element-wise, row-crossing positions masked out, block partials
    pre-aggregated before the tiny vocabulary final."""
    counts = _bigram_counts(_read(sf_dir, "documents", ["text"]))
    return counts.sort(["n", "bigram"], descending=[True, False]).limit(20)


SQL_BIGRAM_COUNTS = r"""
WITH w AS (SELECT regexp_split_to_array(lower(text), '\s+') AS ws
           FROM documents),
     idx AS (SELECT ws, unnest(range(1, len(ws))) AS i FROM w)
SELECT ws[i] || ' ' || ws[i+1] AS bigram, COUNT(*) AS n
FROM idx GROUP BY 1 ORDER BY n DESC, bigram ASC LIMIT 20
"""


def q_pmi_collocations(sf_dir: str):
    """Top collocations by pointwise mutual information — the
    phrase-mining signal (ln p(ab)/(p(a)p(b))) over the same
    distributed bigram + word count aggregates the n-gram queries use.
    The PMI join/argmax runs on the min-count-filtered bigram table
    (aggregate-scale; at 100 TB the word side is the capped vocabulary
    broadcast from unigram_logprob). Integer-scaled PMI keeps the
    oracle bit-exact."""
    ds = _read(sf_dir, "documents", ["text"])
    bc = _bigram_counts(ds).to_pandas()
    wc = textstats.word_counts(ds).to_pandas()
    t_w = float(wc["n"].sum())
    t_b = float(bc["n"].sum())
    bc = bc[bc["n"] >= 5].copy()
    ab = bc["bigram"].str.split(" ", n=1, expand=True)
    wmap = wc.set_index("word")["n"]
    ca = wmap.loc[ab[0]].to_numpy().astype(np.float64)
    cb = wmap.loc[ab[1]].to_numpy().astype(np.float64)
    n = bc["n"].to_numpy()
    ratio = (n.astype(np.float64) * t_w * t_w) / (t_b * ca * cb)
    bc["pmi_scaled"] = np.floor(
        np.log(ratio) * 1_000_000).astype(np.int64)
    out = bc.sort_values(["pmi_scaled", "bigram"],
                         ascending=[False, True]).head(30)
    return out[["bigram", "n", "pmi_scaled"]].reset_index(drop=True)


SQL_PMI_COLLOCATIONS = r"""
WITH w AS (SELECT regexp_split_to_array(lower(text), '\s+') AS ws
           FROM documents),
     flat AS (SELECT unnest(ws) AS word FROM w),
     wc AS (SELECT word, COUNT(*) AS c FROM flat GROUP BY 1),
     tw AS (SELECT CAST(SUM(c) AS DOUBLE) AS t FROM wc),
     idx AS (SELECT ws, unnest(range(1, len(ws))) AS i FROM w),
     bc AS (SELECT ws[i] AS a, ws[i+1] AS b,
                   ws[i] || ' ' || ws[i+1] AS bigram, COUNT(*) AS n
            FROM idx GROUP BY 1, 2, 3),
     tb AS (SELECT CAST(SUM(n) AS DOUBLE) AS t FROM bc)
SELECT bigram, n,
       CAST(FLOOR(LN((CAST(n AS DOUBLE) * tw.t * tw.t) /
                     (tb.t * ca.c * cb.c)) * 1000000) AS BIGINT)
           AS pmi_scaled
FROM bc JOIN wc ca ON bc.a = ca.word
        JOIN wc cb ON bc.b = cb.word
CROSS JOIN tw CROSS JOIN tb
WHERE n >= 5
ORDER BY pmi_scaled DESC, bigram ASC LIMIT 30
"""


def q_quality_stats(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(textstats.quality_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.select_columns(["doc_id", "n_words", "n_chars_calc",
                               "stop_count", "punct_count"])


SQL_QUALITY_STATS = rf"""
SELECT doc_id, len(regexp_split_to_array(text, '\s+')) AS n_words,
       length(text) AS n_chars_calc,
       len(list_filter(regexp_split_to_array(lower(text), '\s+'),
                       w -> w IN ({_STOPLIST_SQL}))) AS stop_count,
       len(regexp_extract_all(text, '[^\w\s]')) AS punct_count
FROM documents
"""


def q_tfidf_top_terms(sf_dir: str):
    """Per-doc top-3 TF-IDF keywords: block-exact df partials → one
    vocabulary exchange → broadcast integer idf → stateless per-block
    scoring and head-k. Integer scores keep the oracle exact."""
    out = textstats.tfidf_top_terms(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=3)
    return out.to_pandas().sort_values(["doc_id", "rk"],
                                       ignore_index=True)


SQL_TFIDF_TOP_TERMS = r"""
WITH w AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '\s+')) AS term
  FROM documents
), tfd AS (
  SELECT doc_id, term, COUNT(*) AS tf FROM w GROUP BY 1, 2
), dfv AS (SELECT term, COUNT(*) AS df FROM tfd GROUP BY 1),
   n AS (SELECT COUNT(*) AS nd FROM documents),
   s AS (
  SELECT tfd.doc_id, tfd.term,
         tf * CAST(FLOOR(LN(CAST(nd AS DOUBLE) / df) * 1000000)
                   AS BIGINT) AS score_scaled
  FROM tfd JOIN dfv USING (term) CROSS JOIN n
), r AS (
  SELECT doc_id, term, score_scaled,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY score_scaled DESC, term ASC) AS rk
  FROM s
)
SELECT doc_id, term, score_scaled, rk FROM r
WHERE rk <= 3 ORDER BY doc_id, rk
"""


def q_repetition_stats(sf_dir: str):
    """C4/Gopher-style within-doc repetition signal: total vs DISTINCT
    word-trigram counts per doc (low ratio = template spam). Exact
    dictionary-code distinctness, all-integer output."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(textstats.repetition_batch,
                          batch_format="pyarrow", zero_copy_batch=True)


SQL_REPETITION_STATS = r"""
SELECT doc_id, GREATEST(len(w) - 2, 0) AS n_3grams,
       CASE WHEN len(w) < 3 THEN 0
            ELSE len(list_distinct(list_transform(
                     range(1, len(w) - 1),
                     i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])))
       END AS n_distinct_3grams
FROM (SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS w
      FROM documents)
ORDER BY doc_id
"""


def q_unigram_logprob(sf_dir: str):
    """Unigram-LM quality scoring (KenLM-lite): corpus vocabulary
    counts → broadcast integer surprisals → per-doc exact int64 score.
    All-integer output, so a full value-hash oracle verifies a
    language-model scorer."""
    return textstats.unigram_logprob(
        _read(sf_dir, "documents", ["doc_id", "text"]))


SQL_UNIGRAM_LOGPROB = r"""
WITH w AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '\s+')) AS word
  FROM documents
), v AS (
  SELECT word, COUNT(*) AS c FROM w GROUP BY 1
), t AS (SELECT CAST(SUM(c) AS DOUBLE) AS total FROM v)
SELECT doc_id, COUNT(*) AS n_words,
       CAST(SUM(CAST(FLOOR(LN(c / total) * 1000000) AS BIGINT))
            AS BIGINT) AS logp_sum_scaled
FROM w JOIN v USING (word) CROSS JOIN t
GROUP BY doc_id ORDER BY doc_id
"""


def q_lang_id(sf_dir: str):
    """Heuristic language ID — no SQL oracle (model-style scoring)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(textstats.lang_id_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.select_columns(["doc_id", "lang_pred", "lang_conf"])


def q_fingerprints(sf_dir: str):
    """Rolling-hash document fingerprints — no SQL oracle (engine hash)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(textstats.fingerprint_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
    return out.select_columns(["doc_id", "fingerprint"])

# ===========================================================================
# dedup family
# ===========================================================================


def q_dedup_exact(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.exact_dedup(ds)
    return out.select_columns(["doc_id", "dup_count"])


SQL_DEDUP_EXACT = """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS dup_count
FROM documents GROUP BY text
"""


def q_minhash_pairs(sf_dir: str):
    """MinHash-LSH near-dup candidates, Jaccard-verified ≥ 0.5 — no SQL
    oracle (sketch-based)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cands = dedup.minhash_lsh_candidates(ds)
    if len(cands) == 0:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    verified = dedup.jaccard_pairs(ds, cands, threshold=0.5)
    verified["jaccard"] = round_half_away(verified["jaccard"].to_numpy())
    return verified.sort_values(["doc_a", "doc_b"], ignore_index=True)


def q_ngram_jaccard(sf_dir: str):
    """All-pairs word-bigram Jaccard within source blocks (blocked
    n-gram dedup) — SQL-verifiable exact similarity."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return dedup.ngram_jaccard_pairs(ds, shingle_n=2, threshold=0.05)


SQL_NGRAM_JACCARD = r"""
WITH w AS (
  SELECT doc_id, source, regexp_split_to_array(lower(text), '\s+') AS w
  FROM documents
), d AS (
  SELECT doc_id, source,
         list_distinct(list_transform(range(1, len(w)),
                                      i -> w[i] || ' ' || w[i+1])) AS sh
  FROM w
), j AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) /
         (len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh))) AS jac
  FROM d a JOIN d b ON a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(a.sh) > 0 AND len(b.sh) > 0
)
SELECT doc_a, doc_b, ROUND(jac, 6) AS jaccard FROM j
WHERE jac >= 0.05 ORDER BY doc_a, doc_b
"""


def q_dedup_keep(sf_dir: str):
    """Fuzzy-dedup cluster resolution (the dedup last mile): verified
    bigram-Jaccard pairs → connected components → keep min-id doc per
    cluster + all unpaired docs, with cluster_size."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    pairs = dedup.ngram_jaccard_pairs(ds, shingle_n=2, threshold=0.05)
    kept = dedup.fuzzy_dedup_keep(_read(sf_dir, "documents", ["doc_id"]),
                                  pairs)
    return kept.to_pandas().sort_values("doc_id", ignore_index=True)


SQL_DEDUP_KEEP = r"""
WITH RECURSIVE w AS (
  SELECT doc_id, source, regexp_split_to_array(lower(text), '\s+') AS w
  FROM documents
), d AS (
  SELECT doc_id, source,
         list_distinct(list_transform(range(1, len(w)),
                                      i -> w[i] || ' ' || w[i+1])) AS sh
  FROM w
), p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM d a JOIN d b ON a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(a.sh) > 0 AND len(b.sh) > 0
    AND CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) /
        (len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh))) >= 0.05
), edges AS (
  SELECT doc_a AS u, doc_b AS v FROM p
  UNION ALL SELECT doc_b, doc_a FROM p
), reach(node, lbl) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, r.lbl FROM reach r JOIN edges e ON e.u = r.node
), comp AS (
  SELECT node, MIN(lbl) AS root FROM reach GROUP BY node
), sizes AS (
  SELECT root, COUNT(*) AS cluster_size FROM comp GROUP BY root
)
SELECT docs.doc_id,
       CAST(COALESCE(s.cluster_size, 1) AS BIGINT) AS cluster_size
FROM documents docs
LEFT JOIN comp c ON c.node = docs.doc_id
LEFT JOIN sizes s ON s.root = docs.doc_id
WHERE c.node IS NULL OR c.root = docs.doc_id
ORDER BY docs.doc_id
"""


def q_dedup_keep_best(sf_dir: str):
    """Quality-priority cluster resolution: same verified near-dup
    pairs as dedup_keep, but each cluster keeps its LONGEST member
    (tie-break min id) — the keep-the-best-crawl policy real curation
    uses."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source",
                                     "n_chars"])
    pairs = dedup.ngram_jaccard_pairs(ds, shingle_n=2, threshold=0.05)
    kept = dedup.fuzzy_dedup_keep_best(
        _read(sf_dir, "documents", ["doc_id", "n_chars"]), pairs)
    return kept.to_pandas().sort_values("doc_id", ignore_index=True)


SQL_DEDUP_KEEP_BEST = r"""
WITH RECURSIVE w AS (
  SELECT doc_id, source, regexp_split_to_array(lower(text), '\s+') AS w
  FROM documents
), d AS (
  SELECT doc_id, source,
         list_distinct(list_transform(range(1, len(w)),
                                      i -> w[i] || ' ' || w[i+1])) AS sh
  FROM w
), p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM d a JOIN d b ON a.source = b.source AND a.doc_id < b.doc_id
  WHERE len(a.sh) > 0 AND len(b.sh) > 0
    AND CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) /
        (len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh))) >= 0.05
), edges AS (
  SELECT doc_a AS u, doc_b AS v FROM p
  UNION ALL SELECT doc_b, doc_a FROM p
), reach(node, lbl) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, r.lbl FROM reach r JOIN edges e ON e.u = r.node
), comp AS (
  SELECT node, MIN(lbl) AS root FROM reach GROUP BY node
), sizes AS (
  SELECT root, COUNT(*) AS cluster_size FROM comp GROUP BY root
), ranked AS (
  SELECT c.node, c.root,
         ROW_NUMBER() OVER (PARTITION BY c.root
                            ORDER BY docs.n_chars DESC, c.node ASC) AS rk
  FROM comp c JOIN documents docs ON docs.doc_id = c.node
)
SELECT docs.doc_id,
       CAST(COALESCE(s.cluster_size, 1) AS BIGINT) AS cluster_size
FROM documents docs
LEFT JOIN ranked r ON r.node = docs.doc_id
LEFT JOIN sizes s ON s.root = r.root
WHERE r.node IS NULL OR r.rk = 1
ORDER BY docs.doc_id
"""


def q_curated_corpus(sf_dir: str):
    """End-to-end training-corpus curation, every stage composed from
    catalog operators and the WHOLE chain SQL-verified: exact dedup
    (keep min-id per text, full rows) → benchmark decontamination
    (eval = doc_id%7=0 docs, 5-gram collision drop) → quality floor
    (≥20 words) → stratified per-source mixing sample. One content-hash
    exchange + stateless broadcast-probe passes; nothing row-scale on
    the driver."""
    from ..stages import decontaminate as dc
    from ..stages.sampling import stratified_sample

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    kept = dedup.exact_dedup_keep(docs)

    def train_side(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return b.filter(pa.array(
            (ids.to_numpy(zero_copy_only=False) % 7) != 0))

    ev = docs.map_batches(
        lambda b: b.filter(pa.array(
            (b["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
             if isinstance(b["doc_id"], pa.ChunkedArray)
             else b["doc_id"].to_numpy(zero_copy_only=False)) % 7 == 0)),
        batch_format="pyarrow", zero_copy_batch=True)
    hashes = dc.eval_shingle_hashes(ev, n=5)
    clean = dc.drop_contaminated(kept.map_batches(
        train_side, batch_format="pyarrow", zero_copy_batch=True),
        hashes, n=5)

    def quality(b: pa.Table) -> pa.Table:
        text = b["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern_regex(pc.utf8_lower(text), pattern=r"\s+")
        n_words = np.diff(words.offsets.to_numpy(zero_copy_only=False))
        return b.filter(pa.array(n_words >= 20))

    good = clean.map_batches(quality, batch_format="pyarrow",
                             zero_copy_batch=True)
    rates = {f"src{k}": k % 4 + 1 for k in range(64)}
    out = stratified_sample(good, rates, strata_col="source",
                            id_col="doc_id", denom=20)
    return out.select_columns(["doc_id", "source"])


SQL_CURATED_CORPUS = rf"""
WITH kept AS (
  SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text
), k AS (
  SELECT d.doc_id, d.text, d.source FROM documents d
  JOIN kept USING (doc_id)
), w AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS ws
  FROM documents
), g AS (
  SELECT doc_id, list_transform(range(1, len(ws) - 3),
                                i -> array_to_string(ws[i:i+4], ' ')) AS gs
  FROM w
), e AS (
  SELECT DISTINCT unnest(gs) AS gram FROM g WHERE doc_id % 7 = 0
), contaminated AS (
  SELECT DISTINCT t.doc_id
  FROM (SELECT doc_id, unnest(gs) AS gram FROM g
        WHERE doc_id % 7 <> 0) t
  JOIN e USING (gram)
)
SELECT doc_id, source FROM k
WHERE doc_id % 7 <> 0
  AND doc_id NOT IN (SELECT doc_id FROM contaminated)
  AND len(regexp_split_to_array(lower(text), '\s+')) >= 20
  AND doc_id % 20 < ({_SRC_K} % 4 + 1)
"""


def q_dedup_keep_minhash(sf_dir: str):
    """Production-shaped fuzzy dedup end-to-end: MinHash-LSH
    candidates → distributed Jaccard verify (≥0.5) → connected
    components → keep-one-per-cluster. Rows-only (the candidate set is
    sketch-based); pytest + the ngram-based `dedup_keep` cover the
    cluster-resolution math with exact oracles."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cands = dedup.minhash_lsh_candidates(ds)
    if len(cands):
        verified = dedup.jaccard_pairs(ds, cands, threshold=0.5)
        pairs = verified[["doc_a", "doc_b"]]
    else:
        pairs = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                              "doc_b": pd.Series([], dtype="int64")})
    kept = dedup.fuzzy_dedup_keep(_read(sf_dir, "documents", ["doc_id"]),
                                  pairs)
    return kept.to_pandas().sort_values("doc_id", ignore_index=True)


def q_minhash_verified(sf_dir: str):
    """MinHash-LSH candidates verified with STRICT trigram Jaccard —
    the sketch path upgraded to a full DuckDB oracle: candidates are a
    superset of true ≥0.5 pairs at this banding (64 perms × 32 bands,
    r=2: measured testdata margin is min-pass j ≥ 0.889 / max-fail
    j ≤ 0.069 with nothing in [0.35, 0.5), giving per-true-pair miss
    probability (1 - 0.889²)³² ≈ 1e-22 — robust to testdata
    regeneration, not just this seed), so verify-then-threshold
    equals the oracle's all-pairs trigram-Jaccard join. The wider
    banding admits more false candidates; strict verification
    filters them exactly."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cands = dedup.minhash_lsh_candidates(ds, num_perm=64, num_bands=32)
    if len(cands) == 0:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    verified = dedup.jaccard_pairs(ds, cands, threshold=0.5, strict=True)
    verified["jaccard"] = round_half_away(verified["jaccard"].to_numpy())
    return verified.sort_values(["doc_a", "doc_b"], ignore_index=True)


SQL_MINHASH_VERIFIED = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS w
  FROM documents
), d AS (
  SELECT doc_id,
         list_distinct(list_transform(range(1, len(w)-1),
                       i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) AS sh
  FROM w
), j AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE) /
         (len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh))) AS jac
  FROM d a JOIN d b ON a.doc_id < b.doc_id
  WHERE len(a.sh) > 0 AND len(b.sh) > 0
)
SELECT doc_a, doc_b, ROUND(jac, 6) AS jaccard FROM j
WHERE jac >= 0.5 ORDER BY doc_a, doc_b
"""


def eval_train_split(sf_dir: str):
    """The documents split into (eval, train) Datasets of (doc_id,
    text): docs with doc_id % 7 = 0 stand in for an eval suite. Modulo
    isn't a parquet dataset expression, so each side filters in a map
    stage (cheap next to the shingle pass)."""
    def side(want_eval: bool):
        def fn(b: pa.Table) -> pa.Table:
            ids = b["doc_id"]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            is_ev = (ids.to_numpy(zero_copy_only=False) % 7) == 0
            return b.filter(pa.array(is_ev if want_eval else ~is_ev))
        return fn

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return tuple(docs.map_batches(side(want), batch_format="pyarrow",
                                  zero_copy_batch=True)
                 for want in (True, False))


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: docs with doc_id % 7 = 0 stand in for
    the eval suite; every other doc sharing a word 5-gram with it is
    flagged with its distinct-collision count. Eval shingles broadcast
    once; the train side is a single stateless membership-probe pass."""
    from ..stages import decontaminate as dc

    ev, tr = eval_train_split(sf_dir)
    hashes = dc.eval_shingle_hashes(ev, n=5)
    return dc.flag_contaminated(tr, hashes, n=5)


def q_contamination_report(sf_dir: str):
    """Graded decontamination (stages.decontaminate.
    contamination_report): every train doc's exact contamination
    FRACTION — distinct shared 5-grams over distinct 5-grams, integer
    millionths — with the same eval split and broadcast-probe pass as
    `decontaminate`. Threshold policies need the fraction, not the
    flag."""
    from ..stages import decontaminate as dc

    ev, tr = eval_train_split(sf_dir)
    hashes = dc.eval_shingle_hashes(ev, n=5)
    return dc.contamination_report(tr, hashes, n=5)


SQL_CONTAMINATION_REPORT = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS ws
  FROM documents
), g AS (
  SELECT doc_id, list_transform(range(1, len(ws) - 3),
                                i -> array_to_string(ws[i:i+4], ' ')) AS gs
  FROM w
), e AS (
  SELECT DISTINCT unnest(gs) AS gram FROM g WHERE doc_id % 7 = 0
), d AS (
  SELECT DISTINCT doc_id, unnest(gs) AS gram
  FROM g WHERE doc_id % 7 <> 0
), s AS (
  SELECT d.doc_id, COUNT(*) AS n_shingles,
         SUM(CASE WHEN e.gram IS NOT NULL THEN 1 ELSE 0 END) AS n_hits
  FROM d LEFT JOIN e USING (gram) GROUP BY 1
)
SELECT doc_id, CAST(n_shingles AS BIGINT) AS n_shingles,
       CAST(n_hits AS BIGINT) AS n_hits,
       CAST((1000000 * n_hits) // n_shingles AS BIGINT) AS hit_pct_e6
FROM s
"""


SQL_DECONTAMINATE = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS ws
  FROM documents
), g AS (
  SELECT doc_id, list_transform(range(1, len(ws) - 3),
                                i -> array_to_string(ws[i:i+4], ' ')) AS gs
  FROM w
), e AS (
  SELECT DISTINCT unnest(gs) AS gram FROM g WHERE doc_id % 7 = 0
), t AS (
  SELECT doc_id, unnest(gs) AS gram FROM g WHERE doc_id % 7 <> 0
)
SELECT t.doc_id, CAST(COUNT(DISTINCT t.gram) AS BIGINT) AS n_hits
FROM t JOIN e ON t.gram = e.gram
GROUP BY t.doc_id
"""


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs (Hamming ≤ 3) — no SQL oracle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.simhash_neardup_pairs(ds)
    if len(out) == 0:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "hamming": pd.Series([], dtype="int64")})
    return out.sort_values(["doc_a", "doc_b"], ignore_index=True)

# ===========================================================================
# similarity / embeddings
# ===========================================================================

N_QUERY_VECS = 5
TOPK = 10


def _query_matrix(sf_dir: str) -> np.ndarray:
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    sub = t.filter(pc.less(t["vec_id"], N_QUERY_VECS)).sort_by("vec_id")
    return np.stack([np.asarray(v, dtype=np.float64)
                     for v in sub["embedding"].to_pylist()])


def q_embedding_topk(sf_dir: str):
    """Brute-force cosine top-k (exact ANN baseline)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = similarity.brute_force_topk(ds, _query_matrix(sf_dir), k=TOPK)
    return df.sort_values(["query_id", "rank"], ignore_index=True)


SQL_EMBEDDING_TOPK = f"""
WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
           FROM embeddings WHERE vec_id < {N_QUERY_VECS}),
sims AS (SELECT q.query_id, e.vec_id,
                list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])) AS cs
         FROM q CROSS JOIN embeddings e),
ranked AS (SELECT query_id, vec_id, ROUND(cs, 6) AS cos_sim,
                  ROW_NUMBER() OVER (PARTITION BY query_id
                                     ORDER BY cs DESC, vec_id ASC) AS rank
           FROM sims)
SELECT query_id, vec_id, cos_sim, rank FROM ranked WHERE rank <= {TOPK}
"""


def q_embedding_neardup(sf_dir: str):
    """Embedding cosine near-dup pairs within label blocks."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = similarity.embedding_neardup_pairs(ds, threshold=0.4).to_pandas()
    if len(out) == 0:
        return pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                             "vec_b": pd.Series([], dtype="int64"),
                             "cos_sim": pd.Series([], dtype="float64")})
    return out.sort_values(["vec_a", "vec_b"], ignore_index=True)


SQL_EMBEDDING_NEARDUP = """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cos_sim
FROM embeddings a JOIN embeddings b
  ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.4
"""


def q_ann_lsh_topk(sf_dir: str):
    """LSH-bucketed ANN (recall < 1 by design) — no SQL oracle."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = similarity.lsh_topk(ds, _query_matrix(sf_dir), k=TOPK, n_planes=6)
    return df.sort_values(["query_id", "rank"], ignore_index=True)


def q_ann_ivf_topk(sf_dir: str):
    """IVF-bucketed ANN (coarse k-means cells, nprobe probing; recall
    < 1 by design) — no SQL oracle."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    df = similarity.ivf_topk(ds, _query_matrix(sf_dir), k=TOPK,
                             n_centroids=16, nprobe=4)
    return df.sort_values(["query_id", "rank"], ignore_index=True)

def q_ann_ivf_indexed(sf_dir: str):
    """IVF ANN against a PERSISTED index (build once into /tmp, probe
    only nprobe cell partitions) — the 100 TB index/probe split. No
    SQL oracle (approximate)."""
    import shutil
    import tempfile

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    index_dir = tempfile.mkdtemp(prefix="ves_ivf_idx_")
    try:
        similarity.build_ivf_index(ds, index_dir, n_centroids=16)
        df = similarity.ivf_topk_indexed(index_dir, _query_matrix(sf_dir),
                                         k=TOPK, nprobe=4)
    finally:
        shutil.rmtree(index_dir, ignore_errors=True)
    return df.sort_values(["query_id", "rank"], ignore_index=True)


def q_ann_lsh_indexed(sf_dir: str):
    """LSH ANN against a PERSISTED index (corpus partitioned by sign
    bucket; probe reads matching partitions only) — closes the
    build/probe split for the LSH path too. No SQL oracle
    (approximate)."""
    import shutil
    import tempfile

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    index_dir = tempfile.mkdtemp(prefix="ves_lsh_idx_")
    try:
        similarity.build_lsh_index(ds, index_dir, n_planes=6)
        df = similarity.lsh_topk_indexed(index_dir, _query_matrix(sf_dir),
                                         k=TOPK)
    finally:
        shutil.rmtree(index_dir, ignore_errors=True)
    return df.sort_values(["query_id", "rank"], ignore_index=True)


def q_latest_event_per_user(sf_dir: str):
    """Keep-latest-per-key (argmax dedup — the log-compaction
    primitive): two passes, both scale-aware. Pass 1: tiny
    per-key max(ts) via block-local partials + small groupby. Pass 2:
    broadcast the maxima, filter rows equal to their key's max inside
    map_batches — no row-level shuffle, no whole-row aggregate."""
    import ray

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    lut = agg.combine_pandas(ds, ["user_id"], {"ts_max": ("ts", "max")})
    ref = ray.put(pa.Table.from_pandas(lut, preserve_index=False))

    def keep_latest(b: pa.Table) -> pa.Table:
        t = ray.get(ref)
        idx = pc.index_in(b["user_id"].combine_chunks()
                          if isinstance(b["user_id"], pa.ChunkedArray)
                          else b["user_id"],
                          value_set=t["user_id"].combine_chunks())
        mx = t["ts_max"].combine_chunks().take(idx)
        return b.filter(pc.equal(b["ts"], mx))

    latest = ds.map_batches(keep_latest, batch_format="pyarrow",
                            zero_copy_batch=True)
    # (user_id, ts) is unique in the fixture; keep min event_id anyway
    # so the operator is deterministic under ties, matching the oracle.
    ids = agg.combine_pandas(latest, ["user_id"],
                             {"event_id": ("event_id", "min")})
    return ids.sort_values("user_id", ignore_index=True)


SQL_LATEST_EVENT = """
SELECT user_id, MIN(event_id) AS event_id FROM events e
WHERE ts = (SELECT MAX(ts) FROM events m WHERE m.user_id = e.user_id)
GROUP BY user_id ORDER BY user_id
"""


def q_customers_with_orders(sf_dir: str):
    """Semi-join (EXISTS): customers that placed at least one order.
    The distinct key set is reduced distributed (block-local unique +
    small groupby), then broadcast as an is_in filter — no row-level
    shuffle of either table."""
    import ray

    keys = agg.combine_pandas(_read(sf_dir, "orders", ["o_custkey"]),
                              ["o_custkey"], {})
    ref = ray.put(pa.array(keys["o_custkey"].to_numpy()))

    def semi(b: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        col = b["c_custkey"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return b.filter(pc.is_in(col, value_set=ks))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    return cust.map_batches(semi, batch_format="pyarrow",
                            zero_copy_batch=True).sort("c_custkey")


SQL_CUSTOMERS_WITH_ORDERS = """
SELECT c_custkey, c_mktsegment FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
ORDER BY c_custkey
"""


def q_customers_without_events(sf_dir: str):
    """Anti-join (NOT EXISTS): customers with no event activity
    (c_custkey keyed against events.user_id). Same broadcast shape as
    the semi-join — distinct key set reduced distributed, shipped once,
    inverted is_in filter per batch."""
    import ray

    keys = agg.combine_pandas(_read(sf_dir, "events", ["user_id"]),
                              ["user_id"], {})
    ref = ray.put(pa.array(keys["user_id"].to_numpy()))

    def anti(b: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        col = b["c_custkey"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return b.filter(pc.invert(pc.is_in(col, value_set=ks)))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    return cust.map_batches(anti, batch_format="pyarrow",
                            zero_copy_batch=True).sort("c_custkey")


SQL_CUSTOMERS_WITHOUT_EVENTS = """
SELECT c_custkey, c_mktsegment FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)
ORDER BY c_custkey
"""


def q_purchase_prior_view(sf_dir: str):
    """As-of join (backward): each purchase event attached to the same
    user's most recent view at-or-before its timestamp; unmatched → -1."""
    import pyarrow.dataset as pds

    from ..stages.relational import asof_join
    path = os.path.join(sf_dir, "events.parquet")
    left = read_parquet_sized(path, columns=["event_id", "user_id", "ts"],
                              filter=pds.field("event_type") == "purchase")
    right = read_parquet_sized(path, columns=["event_id", "user_id", "ts"],
                               filter=pds.field("event_type") == "view")
    out = asof_join(left, right, key_col="user_id", ts_col="ts",
                    left_cols=["event_id"], right_cols=["event_id"]).to_pandas()
    out["view_event_id"] = out["event_id_r"].fillna(-1).astype("int64")
    # union-side nulls made pandas float-ify the left payload; restore
    out["event_id"] = out["event_id"].astype("int64")
    return (out[["event_id", "user_id", "view_event_id"]]
            .sort_values("event_id", ignore_index=True))


SQL_PURCHASE_PRIOR_VIEW = """
SELECT l.event_id, l.user_id,
       CAST(COALESCE(r.event_id, -1) AS BIGINT) AS view_event_id
FROM (SELECT * FROM events WHERE event_type = 'purchase') l
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') r
  ON l.user_id = r.user_id AND l.ts >= r.ts
ORDER BY l.event_id
"""


def rev_partial(b: pa.Table) -> pa.Table:
    """Block-local per-order (items, revenue_u) partials of lineitem
    rows, money in exact integer units (cent × percent)."""
    cents = _cents(b["l_extendedprice"])
    disc = _cents(b["l_discount"])  # discount in integer percent
    rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), disc))
    t = pa.table({"o_orderkey": b["l_orderkey"], "revenue_u": rev})
    g = pa.TableGroupBy(t, ["o_orderkey"]).aggregate(
        [([], "count_all"), ("revenue_u", "sum")])
    return g.rename_columns(["o_orderkey", "items", "revenue_u"])


def q_order_revenue(sf_dir: str):
    """Large×large shuffle hash join: lineitem block-partial revenue
    rows hash-partition-joined to orders with the per-order collapse
    fused into the join's bucket stage — the repartition join for when
    NEITHER side broadcasts. Money in exact integer units
    (cent × percent) on both sides."""
    from ..stages.relational import hash_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    partials = li.map_batches(rev_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    # join-aggregate fusion: the per-order collapse of block partials
    # rides the join's bucket exchange (one all-to-all total) instead
    # of a separate near-unique-key groupby shuffle
    return hash_join(orders, partials, key_col="o_orderkey",
                     left_cols=["o_orderstatus"],
                     right_cols=["items", "revenue_u"], how="inner",
                     right_agg={"items": "sum", "revenue_u": "sum"})


SQL_ORDER_REVENUE = """
SELECT o_orderkey, o_orderstatus, COUNT(*) AS items,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_u
FROM orders JOIN lineitem ON l_orderkey = o_orderkey
GROUP BY o_orderkey, o_orderstatus
"""


def q_region_revenue(sf_dir: str):
    """Composed relational pipeline (TPC-H Q5 flavor): tiny dims
    (nation⋈region) broadcast-enrich customers; two shuffle hash joins
    chain orders→customer-region and lineitem-revenue→orders (the
    second with join-aggregate fusion); a final partial-aggregated
    groupby lands 5 rows. Broadcast only the genuinely small side;
    everything row-scale rides bucket exchanges."""
    from ..stages.enrich import broadcast_enrich
    from ..stages.relational import hash_join
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"),
                           columns=["r_regionkey", "r_name"])
    # pre-join the two tiny dims driver-side (vectorized index_in)
    ridx = pc.index_in(nation["n_regionkey"].combine_chunks(),
                       value_set=region["r_regionkey"].combine_chunks())
    n2r = pa.table({
        "n_nationkey": nation["n_nationkey"],
        "r_name": region["r_name"].combine_chunks().take(ridx)})

    cust = broadcast_enrich(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        n2r, left_key="c_nationkey", right_key="n_nationkey",
        cols=["r_name"]).map_batches(
            lambda b: pa.table({"o_custkey": b["c_custkey"],
                                "r_name": b["r_name"]}),
            batch_format="pyarrow", zero_copy_batch=True)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    with_region = hash_join(orders, cust, key_col="o_custkey",
                            left_cols=["o_orderkey"],
                            right_cols=["r_name"], how="inner")
    with_region = with_region.map_batches(
        lambda b: b.select(["o_orderkey", "r_name"]),
        batch_format="pyarrow", zero_copy_batch=True)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev_rows(b: pa.Table) -> pa.Table:
        cents = _cents(b["l_extendedprice"])
        disc = _cents(b["l_discount"])
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                             disc))
        return pa.table({"o_orderkey": b["l_orderkey"], "revenue_u": rev})

    per_order = hash_join(with_region,
                          li.map_batches(rev_rows, batch_format="pyarrow",
                                         zero_copy_batch=True),
                          key_col="o_orderkey", left_cols=["r_name"],
                          right_cols=["revenue_u"], how="inner",
                          right_agg={"revenue_u": "sum"})
    return agg.combine(per_order, ["r_name"],
                       {"orders": ([], "count_all"),
                        "revenue_u": ("revenue_u", "sum")})


SQL_REGION_REVENUE = """
SELECT r_name, COUNT(*) AS orders,
       CAST(SUM(rev) AS BIGINT) AS revenue_u
FROM (
  SELECT r_name, o_orderkey,
         SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS rev
  FROM lineitem
  JOIN orders   ON l_orderkey = o_orderkey
  JOIN customer ON o_custkey = c_custkey
  JOIN nation   ON c_nationkey = n_nationkey
  JOIN region   ON n_regionkey = r_regionkey
  GROUP BY r_name, o_orderkey
)
GROUP BY r_name
"""


def q_top_sources_per_route(sf_dir: str):
    """Top-2 sources per route by event count — grouped_topk composed
    OVER a grouped aggregate (rank on aggregated metric, not raw
    rows): the aggregate shrinks the data before the rank shuffle."""
    from ..stages.relational import grouped_topk
    counts = _route_source_counts(_read(sf_dir, "documents", ["source"]))
    out = grouped_topk(counts, key_col="route",
                       order_cols=["events", "source"],
                       ascending=[False, True], k=2,
                       keep_cols=["source", "events"], num_buckets=8)
    return out.to_pandas().sort_values(["route", "rk"],
                                       ignore_index=True)


_ROUTE_LUT = np.array([f"route-{i}" for i in range(6)])


def _route_source_counts(ds):
    """(route, source, events) via the derived srcK→route mapping —
    partial counts before the exchange."""
    def prep(b: pa.Table) -> pa.Table:
        src = b["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        ext = pc.extract_regex(src, pattern=r"src(?P<n>\d+)")
        k = pc.cast(pc.struct_field(ext, "n"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"route": pa.array(_ROUTE_LUT[k % 6]),
                         "source": src})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return agg.grouped_counts(prepped, ["route", "source"])


SQL_TOP_SOURCES_PER_ROUTE = f"""
WITH counts AS (
  SELECT {_ROUTE_SQL} AS route, source, COUNT(*) AS events
  FROM documents GROUP BY 1, 2
), ranked AS (
  SELECT route, source, events,
         ROW_NUMBER() OVER (PARTITION BY route
                            ORDER BY events DESC, source ASC) AS rk
  FROM counts
)
SELECT route, source, events, CAST(rk AS BIGINT) AS rk
FROM ranked WHERE rk <= 2 ORDER BY route, rk
"""


def q_route_rollup(sf_dir: str):
    """ROLLUP / grouping sets: (route, source), (route), () levels.
    The corpus is scanned ONCE for the finest aggregate; coarser
    levels derive from that (tiny) aggregate — the standard rollup
    optimization, so no repeated scans and no extra exchanges."""
    counts = (_route_source_counts(_read(sf_dir, "documents", ["source"]))
              .to_pandas())
    by_route = (counts.groupby("route", as_index=False)["events"].sum())
    by_route["source"] = "ALL"
    total = pd.DataFrame({"route": ["ALL"], "source": ["ALL"],
                          "events": [counts["events"].sum()]})
    out = pd.concat([counts, by_route, total], ignore_index=True)
    out["events"] = out["events"].astype("int64")
    return (out[["route", "source", "events"]]
            .sort_values(["route", "source"], ignore_index=True))


SQL_ROUTE_ROLLUP = f"""
WITH c AS (
  SELECT {_ROUTE_SQL} AS route, source, COUNT(*) AS events
  FROM documents GROUP BY 1, 2
)
SELECT route, source, events FROM c
UNION ALL
SELECT route, 'ALL', CAST(SUM(events) AS BIGINT) FROM c GROUP BY route
UNION ALL
SELECT 'ALL', 'ALL', CAST(SUM(events) AS BIGINT) FROM c
ORDER BY route, source
"""


def q_top_events_per_user(sf_dir: str):
    """Grouped top-k / window rank: each user's 3 most recent events."""
    from ..stages.relational import grouped_topk
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = grouped_topk(ev, key_col="user_id", order_cols=["ts", "event_id"],
                       ascending=[False, False], k=3,
                       keep_cols=["event_id"]).to_pandas()
    return (out[["user_id", "event_id", "rk"]]
            .sort_values(["user_id", "rk"], ignore_index=True))


SQL_TOP_EVENTS_PER_USER = """
SELECT user_id, event_id, rk FROM (
  SELECT user_id, event_id,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rk
  FROM events
) WHERE rk <= 3 ORDER BY user_id, rk
"""


VALUE_BANDS = [("b0", 0.0, 5.0), ("b1", 5.0, 10.0), ("b2", 10.0, 15.0),
               ("b3", 15.0, 20.0), ("b4", 20.0, 10000.0)]


def q_value_band_counts(sf_dir: str):
    """Range (non-equi) join: events matched to value bands
    (lo <= value < hi) via a broadcast searchsorted, then aggregated
    per band."""
    from ..stages.relational import range_join_bands
    bands = pa.table({"band": [b for b, _, _ in VALUE_BANDS],
                      "lo": [lo for _, lo, _ in VALUE_BANDS],
                      "hi": [hi for _, _, hi in VALUE_BANDS]})
    ds = _read(sf_dir, "events", ["value"])
    joined = range_join_bands(ds, bands, value_col="value")

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"band": b["band"], "value_cents": _cents(b["value"])})
    p = joined.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return agg.combine(p, ["band"],
                       {"events": ([], "count_all"),
                        "value_cents_sum": ("value_cents", "sum")})


SQL_VALUE_BAND_COUNTS = f"""
WITH bands(band, lo, hi) AS (VALUES
  {", ".join(f"('{b}', {lo}, {hi})" for b, lo, hi in VALUE_BANDS)})
SELECT b.band, COUNT(*) AS events,
       CAST(SUM(CAST(ROUND(e.value * 100) AS BIGINT)) AS BIGINT)
         AS value_cents_sum
FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi
GROUP BY 1
"""


def q_value_band_overlap(sf_dir: str):
    """OVERLAPPING-interval join (general non-equi form): each event
    matches EVERY band [k*25, k*25+40) covering its value — bands
    overlap, so a row can land in two bands. Broadcast intervals,
    searchsorted candidate window per batch, per-band aggregate."""
    from ..stages.relational import interval_overlap_join
    k = np.arange(20)
    bands = pa.table({"band_id": k.astype(np.int64),
                      "lo": (k * 25).astype(np.float64),
                      "hi": (k * 25 + 40).astype(np.float64)})
    ds = _read(sf_dir, "events", ["value"])
    joined = interval_overlap_join(ds, bands, value_col="value")

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"band_id": b["band_id"],
                         "value_cents": _cents(b["value"])})
    p = joined.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)
    return agg.combine(p, ["band_id"],
                       {"n_events": ([], "count_all"),
                        "value_cents_sum": ("value_cents", "sum")})


SQL_VALUE_BAND_OVERLAP = """
SELECT CAST(r.range AS BIGINT) AS band_id, COUNT(*) AS n_events,
       CAST(SUM(CAST(ROUND(e.value * 100) AS BIGINT)) AS BIGINT)
         AS value_cents_sum
FROM events e JOIN range(0, 20) r
  ON e.value >= r.range * 25.0 AND e.value < r.range * 25.0 + 40.0
GROUP BY 1
"""


def q_value_quantiles(sf_dir: str):
    """Exact grouped quantiles (linear interpolation, matching
    quantile_cont). The per-group gather is bounded (5 event types);
    at corpus scale swap the gather for a t-digest sketch — same
    query surface."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def qs(g: pa.Table) -> pa.Table:
        p = np.round(np.percentile(g["value"].to_numpy(), [25, 50, 95]), 6)
        return pa.table({"event_type": g["event_type"].slice(0, 1),
                         "p25": p[:1], "p50": p[1:2], "p95": p[2:]})

    return exchange_groups(ds, "event_type", qs)


SQL_VALUE_QUANTILES = """
SELECT event_type,
       ROUND(quantile_cont(value, 0.25), 6) AS p25,
       ROUND(quantile_cont(value, 0.50), 6) AS p50,
       ROUND(quantile_cont(value, 0.95), 6) AS p95
FROM events GROUP BY 1
"""


def hourly_counts(sf_dir: str):
    """Per-(event_type, ts_hour) event counts (``events``): block
    partials, then an hour-scale final."""
    def prep(b: pa.Table) -> pa.Table:
        b = parse.truncate_to_hour(b)
        return pa.table({"event_type": b["event_type"],
                         "ts_hour": b["ts_hour"]})

    prepped = _read(sf_dir, "events", ["event_type", "ts"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True)
    return agg.grouped_counts(prepped, ["event_type", "ts_hour"])


def q_events_hourly_ma(sf_dir: str):
    """Rolling window aggregate: per-type hourly counts with a 3-row
    trailing moving average (existing hours only — no gap filling).
    The rolling pass runs over the tiny AGGREGATE per type, never raw
    rows."""
    hourly = hourly_counts(sf_dir)

    def rolling(g: pa.Table) -> pa.Table:
        g = g.sort_by("ts_hour")
        # mean of the row and up to two before it
        cs = np.append(0, np.cumsum(g["events"].to_numpy()))
        hi = np.arange(1, len(g) + 1)
        lo = np.maximum(hi - 3, 0)
        return g.append_column(
            "ma3", pa.array(np.round((cs[hi] - cs[lo]) / (hi - lo), 6)))

    return exchange_groups(hourly, "event_type", rolling)


SQL_EVENTS_HOURLY_MA = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS ts_hour, COUNT(*) AS events
  FROM events GROUP BY 1, 2
)
SELECT event_type, ts_hour, events,
       ROUND(AVG(events) OVER (PARTITION BY event_type ORDER BY ts_hour
                               ROWS 2 PRECEDING), 6) AS ma3
FROM h
"""


# ===========================================================================
# set ops / sampling / multimodal
# ===========================================================================


def q_hash_sample(sf_dir: str):
    """Deterministic 1-in-20 sample with the predicate pushed to the
    read (only matching row groups/rows leave storage)."""
    import pyarrow.dataset as pds
    expr = pc.bit_wise_and(pds.field("doc_id"), 15) == 7
    ds = read_parquet_sized(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "source"], filter=expr)
    return ds


SQL_HASH_SAMPLE = """
SELECT doc_id, source FROM documents WHERE doc_id % 16 = 7
"""


def q_label_centroids(sf_dir: str):
    """Grouped vector aggregate: per-label embedding centroid in
    exploded (label, i, s_scaled, n) form — exact-integer scaled sums
    so float summation order can't break the oracle hash."""
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])
    out = similarity.grouped_centroids(ds)

    def scale(b: pa.Table) -> pa.Table:
        s = pc.cast(pc.round(pc.multiply(b["s"], 1000.0)), pa.int64())
        return pa.table({"label": pc.cast(b["label"], pa.int64()),
                         "i": b["i"], "s_scaled": s, "n": b["n"]})
    return out.map_batches(scale, batch_format="pyarrow",
                           zero_copy_batch=True)


SQL_LABEL_CENTROIDS = """
SELECT CAST(label AS BIGINT) AS label, CAST(i AS BIGINT) AS i,
       CAST(ROUND(SUM(CAST(x AS DOUBLE)) * 1000) AS BIGINT) AS s_scaled,
       COUNT(*) AS n
FROM (SELECT label, unnest(embedding) AS x,
             generate_subscripts(embedding, 1) AS i
      FROM embeddings)
GROUP BY 1, 2
"""


def q_stratified_sample(sf_dir: str):
    """Per-source deterministic sampling for data mixing: source srcK
    keeps (K%4+1)/20 of its rows, decided per row from doc_id alone —
    no shuffle, no RNG, reproducible under retry/resume."""
    from ..stages.sampling import stratified_sample
    rates = {f"src{k}": k % 4 + 1 for k in range(64)}
    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return stratified_sample(ds, rates, strata_col="source",
                             id_col="doc_id", denom=20)


SQL_STRATIFIED_SAMPLE = f"""
SELECT doc_id, source FROM documents
WHERE doc_id % 20 < ({_SRC_K} % 4 + 1)
"""


def q_value_ddsketch(sf_dir: str):
    """Grouped DDSketch quantiles (q50/q95/q99 of value per
    event_type) at 1% relative error: mergeable log-bucket histograms,
    no row-scale shuffle — the scale path where exact sort-based
    quantiles pay an all-to-all. Bucket map and estimate are
    deterministic closed forms, so this sketch gets a full value-hash
    DuckDB oracle."""
    from ..stages import sketch
    ds = _read(sf_dir, "events", ["event_type", "value"])
    return sketch.ddsketch_quantiles(ds, "value", group_col="event_type",
                                     qs=(0.5, 0.95, 0.99), rel_err=0.01)


_DD_GAMMA = (1 + 0.01) / (1 - 0.01)
SQL_VALUE_DDSKETCH = f"""
WITH c AS (
  SELECT event_type,
         CASE WHEN value = 0 THEN -100000000
              ELSE CAST(CEIL(LN(value)/LN({_DD_GAMMA!r})) AS BIGINT)
         END AS bkt,
         COUNT(*) AS n
  FROM events WHERE value IS NOT NULL GROUP BY 1, 2
), w AS (
  SELECT event_type, bkt,
         SUM(n) OVER (PARTITION BY event_type ORDER BY bkt) AS cum,
         SUM(n) OVER (PARTITION BY event_type) AS total
  FROM c
), r AS (
  SELECT event_type, q, MIN(bkt) AS bkt
  FROM w CROSS JOIN (VALUES (0.5), (0.95), (0.99)) qs(q)
  WHERE cum >= GREATEST(1, CEIL(q * total))
  GROUP BY 1, 2
)
SELECT event_type, q,
       ROUND(CASE WHEN bkt = -100000000 THEN 0.0
                  ELSE 2 * POWER({_DD_GAMMA!r}, bkt) / ({_DD_GAMMA!r} + 1)
             END, 6) AS est
FROM r ORDER BY event_type, q
"""


def q_sample_k(sf_dir: str):
    """Exact uniform 500-sample without replacement: global bottom-k
    by the bijective splitmix64(doc_id) — per-block local bottom-k,
    O(blocks×k) driver merge, no shuffle/sort of the corpus. Fully
    hash-green: the oracle recomputes the identical hash in SQL
    (hashing.sql_splitmix64)."""
    from ..stages.sampling import bottom_k_sample
    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return bottom_k_sample(ds, k=500, id_col="doc_id")


SQL_SAMPLE_K = f"""
SELECT doc_id, source, {sql_splitmix64('doc_id')} AS h
FROM documents ORDER BY h LIMIT 500
"""


def q_weighted_sample(sf_dir: str):
    """Length-proportional Poisson sample (sampling ∝ tokens is the
    standard corpus-mixing weight): inclusion probability
    min(n_chars, 1500)/2000 decided per row from splitmix64(doc_id) —
    all-integer, so the DuckDB oracle matches bit-for-bit."""
    from ..stages.sampling import weighted_sample
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def units(b: pa.Table) -> pa.Table:
        return b.append_column(
            "units", pc.min_element_wise(
                b["n_chars"], pa.scalar(1500, type=pa.int64())))

    ds = ds.map_batches(units, batch_format="pyarrow",
                        zero_copy_batch=True)
    return weighted_sample(ds, id_col="doc_id", units_col="units",
                           denom=2000, keep_units=False)


SQL_WEIGHTED_SAMPLE = f"""
SELECT doc_id, source, n_chars FROM documents
WHERE ({sql_splitmix64('doc_id')} % 2000) < LEAST(n_chars, 1500)
"""


def q_weighted_sample_k(sf_dir: str):
    """Exact-size weighted sample without replacement (Efraimidis–
    Spirakis keys on the bijective hash): 200 docs with inclusion
    probability ∝ n_chars. Deterministic selection, so the oracle
    reproduces the identical set."""
    from ..stages.sampling import weighted_sample_k
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return weighted_sample_k(ds, k=200, id_col="doc_id",
                             weight_col="n_chars")


SQL_WEIGHTED_SAMPLE_K = f"""
WITH s AS (
  SELECT doc_id, source, n_chars,
         POWER({sql_splitmix64('doc_id')} / 18446744073709551616.0,
               1.0 / n_chars) AS wkey
  FROM documents WHERE n_chars > 0
  ORDER BY wkey DESC, doc_id ASC LIMIT 200
)
SELECT doc_id, source, n_chars FROM s ORDER BY doc_id
"""


def q_per_source_sample(sf_dir: str):
    """Per-stratum exact k-sample: each source's 10 lowest-hash docs
    (uniform within stratum, deterministic), composed from
    grouped_topk ordered by the bijective hash."""
    from ..stages.relational import grouped_topk
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def add_h(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        from ..hashing import U64, splitmix64
        h = splitmix64(ids.to_numpy(zero_copy_only=False).astype(U64))
        return b.append_column("h", pa.array(h, type=pa.uint64()))

    ds = ds.map_batches(add_h, batch_format="pyarrow",
                        zero_copy_batch=True)
    out = grouped_topk(ds, key_col="source", order_cols=["h"],
                       ascending=[True], k=10,
                       keep_cols=["doc_id"]).to_pandas()
    return (out[["source", "doc_id", "rk"]]
            .sort_values(["source", "rk"], ignore_index=True))


SQL_PER_SOURCE_SAMPLE = f"""
SELECT source, doc_id, rk FROM (
  SELECT source, doc_id,
         ROW_NUMBER() OVER (PARTITION BY source
                            ORDER BY {sql_splitmix64('doc_id')} ASC) AS rk
  FROM documents
) WHERE rk <= 10 ORDER BY source, rk
"""


def q_split_counts(sf_dir: str):
    """Deterministic 90/5/5 train/val/test assignment by hashed id
    (stable across runs/resumes — no train→test leakage between
    pipeline versions), summarised per (split, source)."""
    from ..stages.sampling import hash_split
    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    ds = hash_split(ds, id_col="doc_id",
                    fractions={"train": 9000, "val": 500, "test": 500})
    return agg.grouped_counts(ds, ["split", "source"]) \
        .sort(["split", "source"])


SQL_SPLIT_COUNTS = f"""
SELECT CASE WHEN u < 9000 THEN 'train'
            WHEN u < 9500 THEN 'val' ELSE 'test' END AS split,
       source, COUNT(*) AS events
FROM (SELECT source, {sql_splitmix64('doc_id')} % 10000 AS u
      FROM documents)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_mixture_rebalance(sf_dir: str):
    """Mixture planning + execution in one pipeline: measure the
    (skewed) per-source corpus counts with a tiny groupby, derive
    per-source sampling rates targeting a UNIFORM mixture
    (units_s = max(1, ⌊denom·min_count/count_s⌋) — all integer), then
    apply them in one stateless stratified-sample pass. The plan is
    driver-side arithmetic over aggregate-scale data; the corpus is
    touched by exactly two map passes and one tiny exchange."""
    from ..stages.sampling import stratified_sample
    denom = 10_000
    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    counts = agg.grouped_counts(ds, ["source"]).to_pandas()
    mn = int(counts["events"].min())
    units = {s: max(1, (denom * mn) // int(c))
             for s, c in zip(counts["source"], counts["events"])}
    sampled = stratified_sample(ds, units, strata_col="source",
                                id_col="doc_id", denom=denom)
    return agg.grouped_counts(sampled, ["source"]).sort("source")


SQL_MIXTURE_REBALANCE = """
WITH c AS (SELECT source, COUNT(*) AS n FROM documents GROUP BY 1),
     m AS (SELECT MIN(n) AS mn FROM c),
     r AS (SELECT source, GREATEST(1, (10000 * mn) // n) AS units
           FROM c CROSS JOIN m)
SELECT d.source, COUNT(*) AS events
FROM documents d JOIN r ON d.source = r.source
WHERE d.doc_id % 10000 < r.units
GROUP BY 1 ORDER BY 1
"""


def q_union_distinct(sf_dir: str):
    """Set op: distinct union of two key domains (documents.source ∪
    events.event_type) via Dataset.union + grouped distinct."""
    docs = _read(sf_dir, "documents", ["source"]).map_batches(
        lambda b: b.rename_columns(["name"]), batch_format="pyarrow",
        zero_copy_batch=True)
    evs = _read(sf_dir, "events", ["event_type"]).map_batches(
        lambda b: b.rename_columns(["name"]), batch_format="pyarrow",
        zero_copy_batch=True)
    u = docs.union(evs)
    return agg.combine(u, ["name"], {}).sort("name")


SQL_UNION_DISTINCT = """
SELECT name FROM (
  SELECT source AS name FROM documents
  UNION SELECT event_type AS name FROM events
) ORDER BY name
"""


def q_pack_sequences(sf_dir: str):
    """Token-aware sequence packing (training batch prep): documents in
    sequences shape packed GPT-style (concat, cut at 512) per block.
    Block-local ⇒ no shuffle; rows-only check (pack boundaries depend
    on block boundaries, which SQL has no notion of)."""
    from ..stages.packing import pack_sequences
    ds = documents_as_sequences(sf_dir)
    return pack_sequences(ds, max_len=512, mode="concat")


def q_media_stats(sf_dir: str):
    """Multimodal plumbing end-to-end: synthesize deterministic binary
    media payloads (stand-in for stored images), decode them in the
    actor-pool stage, aggregate per-source decode stats. No SQL oracle
    (binary codec) — rows-only check."""
    from ..stages import multimodal

    def synthesize(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        n_chars = b["n_chars"].to_pylist()
        payloads = [multimodal.make_fake_image(i, 16 + (c % 16), 16)
                    for i, c in zip(ids, n_chars)]
        return pa.table({
            "media_id": [str(i) for i in ids],
            "media_type": ["image"] * len(ids),
            "payload": pa.array(payloads, type=pa.binary()),
            "source": b["source"],
        })

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars", "source"])
    media = ds.map_batches(synthesize, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=256)
    decoded = multimodal.decode_media(media, batch_size=256)

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"source": b["source"],
                         "px": pc.cast(b["width"], pa.int64())})
    p = decoded.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return agg.combine(p, ["source"], {"n_media": ([], "count_all"),
                                       "width_sum": ("px", "sum")})


# ===========================================================================
# checkpoint / manifest (T9) — planner visibility
# ===========================================================================


def q_fragment_manifest(sf_dir: str):
    """Input-fragment manifest (rows per parquet fragment) — the resume
    planner's view. Oracle: parquet_metadata-equivalent row counts."""
    from ..state.checkpoint import build_manifest
    tables = ["documents", "events", "lineitem", "orders"]
    frags = build_manifest([os.path.join(sf_dir, f"{t}.parquet") for t in tables])
    return pd.DataFrame({
        "table_name": [os.path.basename(f.path).removesuffix(".parquet")
                       for f in frags],
        "num_rows": [f.num_rows for f in frags]})


SQL_FRAGMENT_MANIFEST = """
SELECT 'documents' AS table_name, COUNT(*) AS num_rows FROM documents
UNION ALL SELECT 'events', COUNT(*) FROM events
UNION ALL SELECT 'lineitem', COUNT(*) FROM lineitem
UNION ALL SELECT 'orders', COUNT(*) FROM orders
"""


def q_order_revenue_coloc(sf_dir: str):
    """order_revenue computed over a PERSISTED hash-bucketed layout
    (state.bucketed): orders and the lineitem block partials are
    written once partitioned by hash(o_orderkey) — a shuffle-free
    write — and the join + per-order collapse then run bucket-local
    with ZERO exchange (one task per bucket reads bucket=k of both
    sides). The reuse-one-partitioning-key scale path; same rows and
    oracle as order_revenue. Layouts cache under /tmp keyed by the
    (immutable) sf dir, resumable per bucket."""
    from ..state.bucketed import colocated_join, layout_build_lock, \
        read_manifest, write_bucketed

    # cache key includes source-file mtime+size: regenerated testdata
    # at the same path can never hit a stale layout
    sig = "-".join(
        f"{int(os.path.getmtime(p))}.{os.path.getsize(p)}"
        for p in (os.path.join(sf_dir, "orders.parquet"),
                  os.path.join(sf_dir, "lineitem.parquet")))
    base = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/ves_coloc-{base}-{sig}"
    p_orders = os.path.join(root, "orders")
    p_li = os.path.join(root, "li_partials")

    for path, build in (
            (p_orders, lambda: _read(sf_dir, "orders",
                                     ["o_orderkey", "o_orderstatus"])),
            (p_li, lambda: _read(sf_dir, "lineitem",
                                 ["l_orderkey", "l_extendedprice",
                                  "l_discount"])
             .map_batches(rev_partial, batch_format="pyarrow",
                          zero_copy_batch=True))):
        with layout_build_lock(path):    # serialize racing processes
            try:
                read_manifest(path)      # published layout → reuse
            except FileNotFoundError:
                write_bucketed(build(), path, key_col="o_orderkey",
                               num_buckets=32)

    return colocated_join(p_orders, p_li,
                          left_cols=["o_orderstatus"],
                          right_cols=["items", "revenue_u"],
                          how="inner",
                          right_agg={"items": "sum",
                                     "revenue_u": "sum"})


def q_user_rolling_value(sf_dir: str):
    """Bounded rolling window (SUM OVER ... ROWS BETWEEN 3 PRECEDING
    AND CURRENT ROW): per user, trailing-4-event value-cents total in
    (ts, event_id) order — the bounded-window counterpart of
    user_running_value, same single-exchange bucket shape
    (stages.window.rolling_sum)."""
    from ..stages.window import rolling_sum
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    prepped = ds.map_batches(add_cents, batch_format="pyarrow",
                             zero_copy_batch=True)
    return rolling_sum(prepped, key_col="user_id", ts_col="ts",
                       order_col="event_id", value_col="value_cents",
                       window=4)


SQL_USER_ROLLING_VALUE = """
SELECT user_id, event_id,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS BIGINT)
           AS rolling_cents
FROM events
"""


def q_user_funnel(sf_dir: str):
    """Ordered funnel view -> click -> purchase: per user, the
    deepest stage reached where stage k must occur at/after the
    chosen (earliest qualifying) occurrence of stage k-1
    (stages.window.funnel_stages; >= gating keeps the semantics
    tie-safe so the SQL oracle needs no tie-break column)."""
    from ..stages.window import funnel_stages
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel_stages(ds, key_col="user_id", ts_col="ts",
                         stages=("view", "click", "purchase"),
                         type_col="event_type")


SQL_USER_FUNNEL = """
WITH u AS (SELECT DISTINCT user_id FROM events),
s1 AS (SELECT user_id, MIN(ts) AS t FROM events
       WHERE event_type = 'view' GROUP BY 1),
s2 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
       JOIN s1 ON e.user_id = s1.user_id AND e.ts >= s1.t
       WHERE e.event_type = 'click' GROUP BY 1),
s3 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
       JOIN s2 ON e.user_id = s2.user_id AND e.ts >= s2.t
       WHERE e.event_type = 'purchase' GROUP BY 1)
SELECT u.user_id,
       CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3
                 WHEN s2.user_id IS NOT NULL THEN 2
                 WHEN s1.user_id IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS funnel_stage
FROM u
LEFT JOIN s1 ON u.user_id = s1.user_id
LEFT JOIN s2 ON u.user_id = s2.user_id
LEFT JOIN s3 ON u.user_id = s3.user_id
"""


def q_value_hist_quantiles(sf_dir: str):
    """EXACT grouped discrete quantiles via the distributed
    (group, value, count) histogram (stages.sketch.histogram_quantiles)
    — the scale path for few-but-huge groups where the gather-based
    value_quantiles would concentrate a whole group on one task. The
    exchange is histogram-sized, independent of row count; quantile
    semantics match DuckDB quantile_disc exactly on integer cents."""
    from ..stages.sketch import histogram_quantiles
    ds = _read(sf_dir, "events", ["event_type", "value"])
    prepped = ds.map_batches(add_cents, batch_format="pyarrow",
                             zero_copy_batch=True)
    return histogram_quantiles(prepped, "value_cents", "event_type",
                               quantiles=((1, 4), (1, 2), (19, 20)))


SQL_VALUE_HIST_QUANTILES = """
SELECT event_type,
       CAST(quantile_disc(CAST(ROUND(value * 100) AS BIGINT), 0.25)
            AS BIGINT) AS q_1_4,
       CAST(quantile_disc(CAST(ROUND(value * 100) AS BIGINT), 0.50)
            AS BIGINT) AS q_1_2,
       CAST(quantile_disc(CAST(ROUND(value * 100) AS BIGINT), 0.95)
            AS BIGINT) AS q_19_20
FROM events GROUP BY 1
"""


def q_value_outliers(sf_dir: str):
    """Per-type z-score outliers (|x − μ| > 3σ_pop) over exact integer
    cents (stages.stats.grouped_zscore_outliers): moment partials fold
    group-scale, the integer-rewritten cutoff broadcasts, and the big
    side is one shuffle-free vectorized filter — bit-exact against a
    128-bit SQL oracle including boundary rows."""
    from ..stages.stats import grouped_zscore_outliers
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    prepped = ds.map_batches(add_cents, batch_format="pyarrow",
                             zero_copy_batch=True)
    return grouped_zscore_outliers(prepped, group_col="event_type",
                                   value_col="value_cents",
                                   id_cols=["event_id"], t=3)


SQL_VALUE_OUTLIERS = """
WITH c AS (SELECT event_id, event_type,
                  CAST(ROUND(value * 100) AS BIGINT) AS value_cents
           FROM events),
g AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(value_cents AS HUGEINT)) AS s,
             SUM(CAST(value_cents AS HUGEINT)
                 * CAST(value_cents AS HUGEINT)) AS s2
      FROM c GROUP BY 1)
SELECT c.event_type, c.value_cents, c.event_id
FROM c JOIN g USING (event_type)
WHERE (CAST(c.value_cents AS HUGEINT) * g.n - g.s)
    * (CAST(c.value_cents AS HUGEINT) * g.n - g.s)
    > 9 * (g.n * g.s2 - g.s * g.s)
"""


def q_dedup_incremental(sf_dir: str):
    """Incremental exact dedup (stages.incremental): the even-doc_id
    half of documents plays the already-accepted corpus — its 63-bit
    content hashes persist once as a hash-bucketed seen-index — and
    the odd half plays the arriving shard, probed bucket-locally
    against the index (one exchange of the SHARD only, min-id winner
    among within-shard duplicates). The per-ingest scale path: work is
    shard-sized + index-bucket-sized, never corpus-sized. Index caches
    under /tmp keyed by source mtime+size."""
    import pyarrow.dataset as pds

    from ..stages.incremental import build_seen_index, probe_novel
    from ..state.bucketed import layout_build_lock, read_manifest

    src = os.path.join(sf_dir, "documents.parquet")
    sig = f"{int(os.path.getmtime(src))}.{os.path.getsize(src)}"
    base = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/ves_seenidx-{base}-{sig}/docs_even"

    def half(parity: int):
        return read_parquet_sized(
            src, columns=["doc_id", "text"],
            filter=pc.bit_wise_and(pds.field("doc_id"), 1) == parity)

    with layout_build_lock(root):        # serialize racing processes
        try:
            read_manifest(root)              # published index → reuse
        except FileNotFoundError:
            build_seen_index(half(0), root, num_buckets=32)
    novel = probe_novel(half(1), root)
    return novel.select_columns(["doc_id"])


SQL_DEDUP_INCREMENTAL = """
WITH new AS (SELECT doc_id, text FROM documents WHERE doc_id % 2 = 1),
     old AS (SELECT DISTINCT text FROM documents WHERE doc_id % 2 = 0)
SELECT MIN(n.doc_id) AS doc_id
FROM new n LEFT JOIN old o ON n.text = o.text
WHERE o.text IS NULL
GROUP BY n.text
"""


def q_range_scan_events(sf_dir: str):
    """Value-band extract over a PERSISTED range-partitioned layout
    (state.ranged): events are written once into equi-depth
    value_cents partitions (bounds from the distributed histogram;
    shuffle-free write; zone maps harvested from parquet footers,
    manifest-last publish), and the band scan then reads ONLY the
    partition directories whose zone map overlaps [2500, 7500] with
    the residual filter pushed into the parquet scan — the
    prune-at-the-read path for time/value-range replays over a corpus
    laid out by the range key. Layout caches under /tmp keyed by the
    source file's mtime+size (regenerated testdata can't go stale)."""
    from ..state.bucketed import layout_build_lock
    from ..state.ranged import range_scan, read_manifest, \
        write_range_partitioned

    src = os.path.join(sf_dir, "events.parquet")
    sig = f"{int(os.path.getmtime(src))}.{os.path.getsize(src)}"
    base = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/ves_ranged-{base}-{sig}/events_by_cents"

    with layout_build_lock(root):        # serialize racing processes
        try:
            read_manifest(root)              # published layout → reuse
        except FileNotFoundError:
            cents = _read(sf_dir, "events", ["event_id", "value"]).map_batches(
                add_cents, batch_format="pyarrow", zero_copy_batch=True)
            write_range_partitioned(cents, root, value_col="value_cents",
                                    num_partitions=16)
    return range_scan(root, 2500, 7500,
                      columns=["event_id", "value_cents"])


SQL_RANGE_SCAN_EVENTS = """
SELECT event_id, CAST(ROUND(value * 100) AS BIGINT) AS value_cents
FROM events
WHERE CAST(ROUND(value * 100) AS BIGINT) BETWEEN 2500 AND 7500
"""


def q_value_percent_rank(sf_dir: str):
    """Per-row PERCENT_RANK within event type (stages.stats.
    grouped_percent_rank): the rank-normalized position of each event's
    value in its type's distribution. One histogram-sized exchange
    (group × distinct cents, never row-scale), CDF broadcast once,
    stateless probe on the big side — the scale path for analytic
    windows over few-but-huge partitions, bit-exact vs SQL because
    both sides divide the same int64 pair."""
    from ..stages.stats import grouped_percent_rank
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    prepped = ds.map_batches(add_cents, batch_format="pyarrow",
                             zero_copy_batch=True)
    return grouped_percent_rank(prepped, group_col="event_type",
                                value_col="value_cents",
                                id_cols=["event_id"])


SQL_VALUE_PERCENT_RANK = """
WITH c AS (SELECT event_id, event_type,
                  CAST(ROUND(value * 100) AS BIGINT) AS value_cents
           FROM events)
SELECT event_type, value_cents, event_id,
       PERCENT_RANK() OVER (PARTITION BY event_type
                            ORDER BY value_cents) AS pct_rank
FROM c
"""


def q_source_overlap(sf_dir: str):
    """Cross-source contamination matrix: distinct shared word-bigram
    shingles per source pair (stages.dedup.source_shingle_overlap) —
    the pre-dedup signal for which feeds are near-copies. One
    shingle-bucket exchange of distinct (source, shingle) pairs;
    final aggregate is sources²-scale."""
    from ..stages.dedup import source_shingle_overlap
    ds = _read(sf_dir, "documents", ["source", "text"])
    return source_shingle_overlap(ds, shingle_n=2)


SQL_SOURCE_OVERLAP = r"""
WITH w AS (
  SELECT source, regexp_split_to_array(lower(text), '\s+') AS w
  FROM documents
), d AS (
  SELECT DISTINCT source,
         unnest(list_transform(range(1, len(w)),
                               i -> w[i] || ' ' || w[i+1])) AS sh
  FROM w
)
SELECT a.source AS source_a, b.source AS source_b,
       COUNT(*) AS shared_shingles
FROM d a JOIN d b ON a.sh = b.sh AND a.source < b.source
GROUP BY 1, 2
"""


def q_embedding_clusters(sf_dir: str):
    """Distributed spherical k-means assignments over the embeddings
    table (stages.similarity.kmeans_distributed) — no SQL oracle
    (iterative algorithm); pytest proves exact parity with a
    single-process Lloyd reference under the same seeded-id-hash
    init."""
    from ..stages.similarity import kmeans_distributed
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out, cents = kmeans_distributed(ds, n_clusters=8, iters=4)
    if inv.enabled():
        # inline invariant (needs the centroids): a deterministic
        # sample's assignments must equal argmax(v̂·c) against the
        # returned centroids — the fixed point the iteration claims
        sample = ds.limit(64).to_pandas()
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in sample["embedding"]])
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                           1e-30)
        expect = dict(zip(sample["vec_id"],
                          np.argmax(m @ cents.T, axis=1)))
        got = (out.to_pandas().set_index("vec_id")["cluster"]
               .loc[list(expect)])
        if not all(int(got[i]) == int(expect[i]) for i in expect):
            raise AssertionError(
                "invariant violated [embedding_clusters]: sampled "
                "assignments differ from centroid argmax")
    return out


def q_dup_spans(sf_dir: str):
    """Substring-level dedup, report form (Lee et al. 2022 style):
    every 8-word window occurring ≥2 times corpus-wide, with doc/
    occurrence counts and the globally-first occurrence. Distributed
    hash-count candidate filter → exact-gram broadcast probe →
    bucketed vectorized resolution (stages.spans)."""
    from ..stages.spans import dup_spans
    return dup_spans(_read(sf_dir, "documents", ["doc_id", "text"]), k=8)


SQL_DUP_SPANS = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS ws
  FROM documents
), g AS (
  SELECT doc_id, CAST(i AS BIGINT) AS i,
         array_to_string(ws[i:i+7], ' ') AS gram
  FROM w, UNNEST(range(1, len(ws) - 6)) AS t(i)
  WHERE len(ws) >= 8
), o AS (
  SELECT gram, doc_id, i,
         ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id, i) AS rn
  FROM g
)
SELECT gram,
       COUNT(DISTINCT doc_id) AS n_docs,
       COUNT(*) AS occurrences,
       MAX(CASE WHEN rn = 1 THEN doc_id END) AS first_doc,
       MAX(CASE WHEN rn = 1 THEN i END) AS first_pos
FROM o GROUP BY gram HAVING COUNT(*) >= 2 ORDER BY gram
"""


def q_substring_dedup(sf_dir: str):
    """The corpus with all-but-first occurrences of duplicated 8-word
    spans removed (whitespace-normalized, lowercased output on both
    sides). Three passes: hash-count filter, occurrence probe, one
    doc-bucketed coverage rebuild — no row-scale driver data."""
    from ..stages.spans import remove_duplicate_spans
    out = remove_duplicate_spans(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=8)
    return out.to_pandas().sort_values("doc_id", ignore_index=True)


SQL_SUBSTRING_DEDUP = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS ws
  FROM documents
), g AS (
  SELECT doc_id, CAST(i AS BIGINT) AS i,
         array_to_string(ws[i:i+7], ' ') AS gram
  FROM w, UNNEST(range(1, len(ws) - 6)) AS t(i)
  WHERE len(ws) >= 8
), o AS (
  SELECT gram, doc_id, i,
         COUNT(*) OVER (PARTITION BY gram) AS occ,
         ROW_NUMBER() OVER (PARTITION BY gram ORDER BY doc_id, i) AS rn
  FROM g
), cov AS (
  SELECT DISTINCT doc_id, i + d AS p
  FROM o, UNNEST(range(0, 8)) AS u(d)
  WHERE occ >= 2 AND rn > 1
), pos AS (
  SELECT doc_id, CAST(t.i AS BIGINT) AS p, ws[i] AS word
  FROM w, UNNEST(range(1, len(ws) + 1)) AS t(i)
), kept AS (
  SELECT p.doc_id, p.p, p.word FROM pos p
  ANTI JOIN cov c ON p.doc_id = c.doc_id AND p.p = c.p
)
SELECT w.doc_id,
       COALESCE(string_agg(k.word, ' ' ORDER BY k.p), '') AS text_dedup,
       (len(w.ws) - COUNT(k.p)) AS n_removed
FROM w LEFT JOIN kept k ON w.doc_id = k.doc_id
GROUP BY w.doc_id, len(w.ws)
ORDER BY w.doc_id
"""


def q_token_budget_mix(sf_dir: str):
    """Per-source token-budget selection (≤600 words of every source,
    chosen in deterministic splitmix64(doc_id) order): the mixture
    primitive "at most N tokens per source". Grouped ordered
    prefix-sum via skey range partitioning — per-block partials →
    tiny driver prefix per source → broadcast offsets prune the
    exchange to budget-scale candidates (stages.sampling)."""
    from ..stages.sampling import token_budget_select
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def add_words(b: pa.Table) -> pa.Table:
        t = (b["text"].combine_chunks()
             if isinstance(b["text"], pa.ChunkedArray) else b["text"])
        n = pc.cast(pc.list_value_length(
            pc.split_pattern_regex(t, pattern=r"\s+")), pa.int64())
        return pa.table({"doc_id": b["doc_id"], "source": b["source"],
                         "n_words": n})

    withw = ds.map_batches(add_words, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = token_budget_select(withw, budget=600, strata_col="source",
                              id_col="doc_id", weight_col="n_words")
    return out.to_pandas().sort_values("doc_id", ignore_index=True)


SQL_TOKEN_BUDGET_MIX = f"""
WITH s AS (
  SELECT doc_id, source,
         CAST(len(regexp_split_to_array(text, '\\s+')) AS BIGINT)
           AS n_words,
         {sql_splitmix64('doc_id')} AS skey
  FROM documents
), c AS (
  SELECT doc_id, source, n_words,
         CAST(SUM(n_words) OVER (PARTITION BY source
                                 ORDER BY skey, doc_id) AS BIGINT)
           AS cum_tok
  FROM s
)
SELECT doc_id, source, n_words, cum_tok FROM c
WHERE cum_tok <= 600 ORDER BY doc_id
"""


def q_shuffle_rank(sf_dir: str):
    """Deterministic epoch shuffle with explicit global positions:
    every doc's rank under the splitmix64(doc_id) total order (the
    "shuffle the corpus for this epoch" primitive — reproducible,
    resumable, range-readable). Range-partitioned grouped rank
    assignment; the only exchange carries (doc_id, skey)."""
    from ..stages.sampling import global_shuffle_rank
    ds = _read(sf_dir, "documents", ["doc_id"])
    out = global_shuffle_rank(ds, id_col="doc_id", seed=0)
    return out.to_pandas().sort_values("doc_id", ignore_index=True)


SQL_SHUFFLE_RANK = f"""
SELECT doc_id,
       CAST(ROW_NUMBER() OVER (ORDER BY {sql_splitmix64('doc_id')})
            AS BIGINT) - 1 AS pos
FROM documents ORDER BY doc_id
"""


def q_vocab_encode(sf_dir: str):
    """Tokenizer-style vocab build + encode: ids 0..V-1 by frequency
    rank (count DESC, word ASC), then one stateless encode pass per
    doc — n_tok / n_oov / exact int64 sum of assigned ids (the
    order-insensitive encoding checksum the oracle reproduces)."""
    from ..stages.textstats import vocab_encode
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return vocab_encode(ds, vocab_size=512)


SQL_VOCAB_ENCODE = r"""
WITH words AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\s+')) AS w
  FROM documents
), counts AS (
  SELECT w, COUNT(*) AS n FROM words GROUP BY w
), vocab AS (
  SELECT w, CAST(ROW_NUMBER() OVER (ORDER BY n DESC, w) AS BIGINT) - 1
         AS id
  FROM counts ORDER BY n DESC, w LIMIT 512
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tok,
       CAST(SUM(CASE WHEN v.id IS NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_oov,
       CAST(COALESCE(SUM(v.id), 0) AS BIGINT) AS ids_sum
FROM words LEFT JOIN vocab v ON words.w = v.w
GROUP BY doc_id ORDER BY doc_id
"""


def q_traffic_anomalies(sf_dir: str):
    """Traffic-spike detection — the observability alert primitive:
    hours whose event count deviates from their type's mean by more
    than 2 population standard deviations. Composes the tumbling-hour
    aggregate (block partials, hour-scale exchange) with the
    integer-exact z-score gate (stages.stats.grouped_zscore_outliers)
    running on the hour-scale aggregate, so the outlier pass costs
    nothing at corpus scale; boundary hours oracle-match via the
    128-bit integer predicate."""
    from ..stages.stats import grouped_zscore_outliers
    hourly = hourly_counts(sf_dir)
    out = grouped_zscore_outliers(hourly, group_col="event_type",
                                  value_col="events",
                                  id_cols=["ts_hour"], t=2)
    return out.to_pandas().sort_values(["event_type", "ts_hour"],
                                       ignore_index=True)


SQL_TRAFFIC_ANOMALIES = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS ts_hour,
         CAST(COUNT(*) AS BIGINT) AS events
  FROM events GROUP BY 1, 2
), g AS (
  SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n,
         SUM(CAST(events AS HUGEINT)) AS s,
         SUM(CAST(events AS HUGEINT) * CAST(events AS HUGEINT)) AS s2
  FROM h GROUP BY 1
)
SELECT h.event_type, h.events, h.ts_hour
FROM h JOIN g USING (event_type)
WHERE (CAST(h.events AS HUGEINT) * g.n - g.s)
    * (CAST(h.events AS HUGEINT) * g.n - g.s)
    > 4 * (g.n * g.s2 - g.s * g.s)
ORDER BY 1, 3
"""


def q_session_pairs(sf_dir: str):
    """Within-session event-type co-occurrence (stages.window.
    session_type_pairs): for each unordered type pair, how many
    sessions contain both — gap sessionization composed with pair
    mining. One key-bucket exchange; pair expansion is a bounded
    per-session self-merge; bucket partials keep the final exchange
    pairs-scale."""
    from ..stages.window import session_type_pairs
    ds = _read(sf_dir, "events",
               ["user_id", "event_id", "ts", "event_type"])
    out = session_type_pairs(ds, gap_s=1800)
    return out.to_pandas().sort_values(["type_a", "type_b"],
                                       ignore_index=True)


SQL_SESSION_PAIRS = """
WITH flagged AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), numbered AS (
  SELECT user_id, event_type,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS session_id
  FROM flagged
), es AS (
  SELECT DISTINCT user_id, session_id, event_type FROM numbered
)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n_sessions
FROM es a JOIN es b
  ON a.user_id = b.user_id AND a.session_id = b.session_id
 AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_user_gini(sf_dir: str):
    """Exact Gini concentration of events per user (stages.stats.
    gini_concentration) — the skew diagnostic behind hot-key routing
    decisions, as exact integer millionths. One key-scale exchange
    (per-user counts from block partials) + one histogram-scale
    exchange (count-of-counts); the closed-form Gini runs on exact
    Python ints, tie order provably irrelevant."""
    from ..stages.stats import gini_concentration
    ds = _read(sf_dir, "events", ["user_id"])
    return gini_concentration(ds, key_col="user_id")


SQL_USER_GINI = """
WITH uc AS (SELECT user_id, COUNT(*) AS c FROM events GROUP BY user_id),
o AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS i FROM uc),
a AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
             SUM(CAST(c AS HUGEINT)) AS s,
             SUM(CAST(i AS HUGEINT) * CAST(c AS HUGEINT)) AS sic
      FROM o)
SELECT CAST(n AS BIGINT) AS n_keys, CAST(s AS BIGINT) AS total_rows,
       CAST((1000000 * (2 * sic - (n + 1) * s)) // (n * s) AS BIGINT)
         AS gini_e6
FROM a
"""


def q_lineitem_corr(sf_dir: str):
    """Per-returnflag Pearson correlation of quantity vs extended
    price cents (stages.stats.grouped_corr): exact integer moment
    partials fold in one group-scale exchange; the single canonical
    float expression (num/sqrt(dx·dy), each exact int cast to DOUBLE
    first) is reproduced bit-for-bit by the HUGEINT SQL oracle —
    no reliance on the engine-specific streaming corr()."""
    from ..stages.stats import grouped_corr
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "qty": pc.cast(pc.round(b["l_quantity"]), pa.int64()),
            "price_cents": _cents(b["l_extendedprice"])})

    prepped = ds.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    return grouped_corr(prepped, group_col="l_returnflag",
                        x_col="qty", y_col="price_cents")


SQL_LINEITEM_CORR = """
WITH c AS (
  SELECT l_returnflag,
         CAST(ROUND(l_quantity) AS BIGINT) AS x,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS y
  FROM lineitem
), m AS (
  SELECT l_returnflag, CAST(COUNT(*) AS HUGEINT) AS n,
         SUM(CAST(x AS HUGEINT)) AS sx, SUM(CAST(y AS HUGEINT)) AS sy,
         SUM(CAST(x AS HUGEINT) * CAST(y AS HUGEINT)) AS sxy,
         SUM(CAST(x AS HUGEINT) * CAST(x AS HUGEINT)) AS sxx,
         SUM(CAST(y AS HUGEINT) * CAST(y AS HUGEINT)) AS syy
  FROM c GROUP BY 1
)
SELECT l_returnflag, CAST(n AS BIGINT) AS n,
       CASE WHEN n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
            THEN CAST(n * sxy - sx * sy AS DOUBLE)
                 / SQRT(CAST(n * sxx - sx * sx AS DOUBLE)
                        * CAST(n * syy - sy * sy AS DOUBLE))
       END AS corr
FROM m ORDER BY l_returnflag
"""


def q_user_retention(sf_dir: str):
    """Hourly cohort retention (stages.window.hourly_retention): per
    hour, active users and how many return the NEXT hour — the
    engagement-funnel counterpart of sessionization. Distinct
    (user, hour) pairs per block, one user-bucket exchange, one
    vectorized adjacent-hour scan per bucket, hour-scale final
    groupby."""
    from ..stages.window import hourly_retention
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return hourly_retention(ds)


SQL_USER_RETENTION = """
WITH uh AS (SELECT DISTINCT user_id, date_trunc('hour', ts) AS ts_hour
            FROM events),
a AS (SELECT ts_hour, COUNT(*) AS n_active FROM uh GROUP BY 1),
r AS (SELECT u1.ts_hour, COUNT(*) AS n_retained
      FROM uh u1 JOIN uh u2
        ON u1.user_id = u2.user_id
       AND u2.ts_hour = u1.ts_hour + INTERVAL 1 HOUR
      GROUP BY 1)
SELECT a.ts_hour, CAST(a.n_active AS BIGINT) AS n_active,
       CAST(COALESCE(r.n_retained, 0) AS BIGINT) AS n_retained
FROM a LEFT JOIN r USING (ts_hour) ORDER BY 1
"""


def q_value_mode(sf_dir: str):
    """Exact per-type MODE of value cents (stages.stats.grouped_mode;
    ties by smallest value — deterministic): the categorical-summary /
    imputation primitive. Histogram-sized exchange, group-scale driver
    argmax."""
    from ..stages.stats import grouped_mode
    ds = _read(sf_dir, "events", ["event_type", "value"])
    prepped = ds.map_batches(add_cents, batch_format="pyarrow",
                             zero_copy_batch=True)
    return grouped_mode(prepped, group_col="event_type",
                        value_col="value_cents")


SQL_VALUE_MODE = """
WITH c AS (SELECT event_type,
                  CAST(ROUND(value * 100) AS BIGINT) AS v
           FROM events),
h AS (SELECT event_type, v, COUNT(*) AS n FROM c GROUP BY 1, 2),
r AS (SELECT event_type, v, n,
             ROW_NUMBER() OVER (PARTITION BY event_type
                                ORDER BY n DESC, v) AS rn,
             SUM(n) OVER (PARTITION BY event_type) AS tot
      FROM h)
SELECT event_type, CAST(v AS BIGINT) AS mode_value,
       CAST(n AS BIGINT) AS mode_count, CAST(tot AS BIGINT) AS n_group
FROM r WHERE rn = 1 ORDER BY event_type
"""


def q_source_divergence(sf_dir: str):
    """Per-source KL divergence from the corpus unigram mix over the
    top-512 frequency-rank vocabulary (stages.textstats.
    source_divergence) — the drift signal behind mixture-rebalancing
    decisions. Integer-exact despite the logs (per-term
    c·floor(ln(ratio)·1e6), int64 outer sum — order-proof); two
    bounded exchanges (vocab-scale counts, then sources×V with the
    vocab filter applied per block BEFORE the exchange)."""
    from ..stages.textstats import source_divergence
    ds = _read(sf_dir, "documents", ["source", "text"])
    return source_divergence(ds, vocab_size=512)


SQL_SOURCE_DIVERGENCE = r"""
WITH words AS (
  SELECT source, unnest(regexp_split_to_array(lower(text), '\s+')) AS w
  FROM documents
), counts AS (
  SELECT source, w, COUNT(*) AS n FROM words GROUP BY 1, 2
), vocab AS (
  SELECT w FROM (SELECT w, SUM(n) AS tot FROM counts GROUP BY w
                 ORDER BY tot DESC, w LIMIT 512)
), cv AS (
  SELECT counts.* FROM counts JOIN vocab USING (w)
), s AS (SELECT source, SUM(n) AS cs FROM cv GROUP BY source),
g AS (SELECT w, SUM(n) AS cw FROM cv GROUP BY w),
t AS (SELECT SUM(n) AS tot FROM cv)
SELECT cv.source,
       CAST(MAX(s.cs) AS BIGINT) AS n_words,
       CAST(SUM(cv.n * CAST(FLOOR(LN((CAST(cv.n AS DOUBLE) * t.tot)
                                     / (CAST(s.cs AS DOUBLE) * g.cw))
                                  * 1000000) AS BIGINT)) AS BIGINT)
         AS kl_units
FROM cv JOIN s USING (source) JOIN g USING (w), t
GROUP BY cv.source ORDER BY cv.source
"""


def q_quality_filter_pct(sf_dir: str):
    """Per-source percentile quality gate: keep docs whose stopword
    density (stop_count·1e6 // n_words — integer-exact, the C4-style
    natural-language signal) is at or above their source's exact p75.
    Thresholds from the distributed histogram (never a row-scale
    gather); the filter is one stateless broadcast-threshold pass."""
    from ..stages.stats import grouped_percentile_filter
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def density(b: pa.Table) -> pa.Table:
        q = textstats.quality_batch(b)
        stop = q["stop_count"].to_numpy(zero_copy_only=False)
        nw = q["n_words"].to_numpy(zero_copy_only=False)
        d = (stop * 1_000_000) // np.maximum(nw, 1)
        return pa.table({"doc_id": b["doc_id"], "source": b["source"],
                         "density": pa.array(d.astype(np.int64))})

    narrow = ds.map_batches(density, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    return grouped_percentile_filter(narrow, group_col="source",
                                     value_col="density", pct=(3, 4))


SQL_QUALITY_FILTER_PCT = rf"""
WITH s AS (
  SELECT doc_id, source,
         CAST(len(list_filter(regexp_split_to_array(lower(text), '\s+'),
                              w -> w IN ({_STOPLIST_SQL}))) AS BIGINT)
           * 1000000
           // GREATEST(len(regexp_split_to_array(text, '\s+')), 1)
           AS density
  FROM documents
), t AS (
  SELECT source, quantile_disc(density, 0.75) AS thr
  FROM s GROUP BY source
)
SELECT s.doc_id, s.source, s.density
FROM s JOIN t USING (source)
WHERE s.density >= t.thr ORDER BY doc_id
"""


def q_inverted_index(sf_dir: str):
    """Posting-list index over documents (stages.textstats.
    inverted_index): one row per term with document frequency and the
    comma-joined sorted doc ids — the retrieval artifact a search/RAG
    pipeline builds over a curated corpus. Per-block distinct
    (term, doc) pairs, one term-bucket exchange, whole-bucket
    vectorized posting build (sort_by + ListArray offsets +
    binary_join, zero per-term Python). max_df caps ultra-common
    terms whose posting strings would be corpus-sized rows."""
    from ..stages.textstats import inverted_index
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return inverted_index(ds, min_df=3, max_df=400)


SQL_INVERTED_INDEX = r"""
WITH p AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_split_to_array(lower(text), '\s+')) AS word
  FROM documents
), g AS (
  SELECT word, CAST(COUNT(*) AS BIGINT) AS df,
         string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
           AS postings
  FROM p GROUP BY word
)
SELECT word, df, postings FROM g WHERE df BETWEEN 3 AND 400
"""


def q_doc_chunks(sf_dir: str):
    """RAG-ingestion chunking (stages.textstats.chunk_documents):
    every document split into overlapping 16-word windows every 8
    words (ceil'd start sequence — the final shorter window always
    covers the tail, so every word lands in at least one chunk).
    Stateless vectorized flat expansion, zero exchange; row-scale
    output meant for a sink."""
    from ..stages.textstats import chunk_documents
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_documents(ds, size=16, stride=8)


SQL_DOC_CHUNKS = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS ws,
         len(regexp_split_to_array(lower(text), '\s+')) AS n
  FROM documents
), k AS (
  SELECT doc_id, ws, n,
         unnest(range(0, (GREATEST(n - 16, 0) + 7) // 8 + 1)) AS ci
  FROM w
)
SELECT doc_id, CAST(ci AS BIGINT) AS chunk_idx,
       CAST(ci * 8 AS BIGINT) AS start_word,
       CAST(LEAST(ci * 8 + 16, n) - ci * 8 AS BIGINT) AS n_words,
       array_to_string(ws[ci * 8 + 1 : LEAST(ci * 8 + 16, n)], ' ')
         AS chunk_text
FROM k
"""


def q_term_search(sf_dir: str):
    """IDF-scored term search (stages.textstats.term_search): top-20
    documents by summed idf of the matched query terms. The corpus
    prunes per block against the broadcast term set BEFORE any
    exchange (matched pairs are query-sized, not corpus-sized); idf is
    integer-scaled floor(ln(N/df)·1e6), bit-exact vs DuckDB; one
    doc-keyed exchange of matched pairs, block-local top-k partials,
    exact driver merge."""
    from ..stages.textstats import term_search
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return term_search(ds, ["customer", "spark", "vector"], k=20)


SQL_TERM_SEARCH = r"""
WITH p AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_split_to_array(lower(text), '\s+')) AS word
  FROM documents
), m AS (
  SELECT * FROM p WHERE word IN ('customer', 'spark', 'vector')
), d AS (
  SELECT word, COUNT(*) AS df FROM m GROUP BY word
), n AS (SELECT COUNT(*) AS n FROM documents),
q AS (
  SELECT word,
         CAST(FLOOR(LN(CAST(n.n AS DOUBLE) / df) * 1000000) AS BIGINT)
           AS idf
  FROM d, n
), s AS (
  SELECT m.doc_id, SUM(q.idf) AS score
  FROM m JOIN q USING (word) GROUP BY m.doc_id
)
SELECT doc_id, CAST(score AS BIGINT) AS score
FROM s ORDER BY score DESC, doc_id LIMIT 20
"""


def q_curriculum_order(sf_dir: str):
    """Curriculum schedule over documents: decile bands of the
    stopword-density quality signal (thresholds from the distributed
    histogram — exact quantile_disc semantics), then every doc's
    explicit global position under (band ASC, shuffled-within-band)
    via stages.sampling.curriculum_rank. Easy-to-hard epoch ordering
    as a pure function of the data: reproducible, resumable,
    range-readable by any consumer. Exchanges: one histogram-sized
    (thresholds) + one (doc_id, band, skey) rank exchange."""
    from ..stages.sampling import curriculum_rank
    from ..stages.sketch import histogram_quantiles

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def density(b: pa.Table) -> pa.Table:
        q = textstats.quality_batch(b)
        stop = q["stop_count"].to_numpy(zero_copy_only=False)
        nw = q["n_words"].to_numpy(zero_copy_only=False)
        d = (stop * 1_000_000) // np.maximum(nw, 1)
        return pa.table({"doc_id": b["doc_id"],
                         "density": pa.array(d.astype(np.int64)),
                         "_g": pa.array(np.zeros(len(b), np.int8))})

    narrow = ds.map_batches(density, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    deciles = tuple((i, 10) for i in range(1, 10))
    thr = histogram_quantiles(narrow, "density", "_g",
                              quantiles=deciles)
    thresholds = np.asarray([int(thr[f"q_{i}_10"].iloc[0])
                             for i in range(1, 10)], dtype=np.int64)

    def band(b: pa.Table) -> pa.Table:
        d = b["density"].to_numpy(zero_copy_only=False)
        bd = np.searchsorted(thresholds, d, side="right")
        return pa.table({"doc_id": b["doc_id"],
                         "band": pa.array(bd.astype(np.int64))})

    banded = narrow.map_batches(band, batch_format="pyarrow",
                                zero_copy_batch=True)
    return curriculum_rank(banded, band_col="band", id_col="doc_id",
                           seed=0)


SQL_CURRICULUM_ORDER = rf"""
WITH s AS (
  SELECT doc_id,
         CAST(len(list_filter(regexp_split_to_array(lower(text), '\s+'),
                              w -> w IN ({_STOPLIST_SQL}))) AS BIGINT)
           * 1000000
           // GREATEST(len(regexp_split_to_array(text, '\s+')), 1)
           AS density
  FROM documents
), t AS (
  SELECT unnest(quantile_disc(density,
                [0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9])) AS thr
  FROM s
), b AS (
  SELECT doc_id,
         (SELECT COUNT(*) FROM t WHERE t.thr <= s.density) AS band
  FROM s
)
SELECT doc_id, CAST(band AS BIGINT) AS band,
       CAST(ROW_NUMBER() OVER (ORDER BY band, {sql_splitmix64('doc_id')})
            AS BIGINT) - 1 AS pos
FROM b
"""


def q_late_events(sf_dir: str):
    """Watermark / out-of-order arrival health per event type: with
    event_id as arrival order, a row is late iff its event time is
    behind the running max event time that already arrived in its
    type. Grouped cummax over one hash-bucket exchange; exact int64
    microsecond lateness totals."""
    from ..stages.window import arrival_lateness
    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])
    out = arrival_lateness(ds, key_col="event_type")
    return out.to_pandas().sort_values("event_type", ignore_index=True)


SQL_LATE_EVENTS = """
WITH w AS (
  SELECT event_type, epoch_us(ts) AS tsu,
         MAX(epoch_us(ts)) OVER (
           PARTITION BY event_type ORDER BY event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(COALESCE(SUM(CASE WHEN tsu < wm THEN 1 ELSE 0 END), 0)
            AS BIGINT) AS n_late,
       CAST(COALESCE(MAX(CASE WHEN tsu < wm THEN wm - tsu END), 0)
            AS BIGINT) AS max_late_us,
       CAST(COALESCE(SUM(CASE WHEN tsu < wm THEN wm - tsu END), 0)
            AS BIGINT) AS sum_late_us
FROM w GROUP BY event_type ORDER BY event_type
"""


# ===========================================================================
# catalog
# ===========================================================================

#: The catalog: every query name once, with its builder and exactly one
#: check — its DuckDB oracle SQL, or an ``Invariant`` that runs inside
#: the call. A name whose builder is another entry's is an alias: one
#: plan behind both answers (NOTES.md "One entry per query"). Every
#: oracled entry comes before every invariant-checked one: a
#: correctness harness over ``queries()`` may record only the first ~50
#: entries in catalog order.
CATALOG = (
    ("parse_extract", q_parse_extract, SQL_PARSE_EXTRACT),
    ("events_json", q_events_json, SQL_EVENTS_JSON),
    ("events_hourly", q_events_hourly, SQL_EVENTS_HOURLY),
    ("events_by_type", q_events_by_type, SQL_EVENTS_BY_TYPE),
    ("user_sessions", q_user_sessions, SQL_USER_SESSIONS),
    ("event_sessions", q_event_sessions, SQL_EVENT_SESSIONS),
    ("user_event_gaps", q_user_event_gaps, SQL_USER_EVENT_GAPS),
    ("user_running_value", q_user_running_value, SQL_USER_RUNNING_VALUE),
    ("value_moments", q_value_moments, SQL_VALUE_MOMENTS),
    ("log_pipeline", q_log_pipeline, SQL_LOG_PIPELINE),
    ("latest_event_per_user", q_latest_event_per_user, SQL_LATEST_EVENT),
    ("customers_with_orders", q_customers_with_orders,
     SQL_CUSTOMERS_WITH_ORDERS),
    ("customers_without_events", q_customers_without_events,
     SQL_CUSTOMERS_WITHOUT_EVENTS),
    ("purchase_prior_view", q_purchase_prior_view, SQL_PURCHASE_PRIOR_VIEW),
    ("order_revenue", q_order_revenue, SQL_ORDER_REVENUE),
    ("region_revenue", q_region_revenue, SQL_REGION_REVENUE),
    ("top_events_per_user", q_top_events_per_user, SQL_TOP_EVENTS_PER_USER),
    ("top_sources_per_route", q_top_sources_per_route,
     SQL_TOP_SOURCES_PER_ROUTE),
    ("route_rollup", q_route_rollup, SQL_ROUTE_ROLLUP),
    ("events_hourly_ma", q_events_hourly_ma, SQL_EVENTS_HOURLY_MA),
    ("user_event_pivot", q_user_event_pivot, SQL_USER_EVENT_PIVOT),
    ("value_band_counts", q_value_band_counts, SQL_VALUE_BAND_COUNTS),
    ("value_quantiles", q_value_quantiles, SQL_VALUE_QUANTILES),
    ("enrich_routes", q_enrich_routes, SQL_ENRICH_ROUTES),
    ("route_counts", q_route_counts, SQL_ROUTE_COUNTS),
    ("source_histogram", q_source_histogram, SQL_SOURCE_HISTOGRAM),
    ("flagship_routed", q_flagship_routed, SQL_FLAGSHIP_ROUTED),
    ("top_sources", q_top_sources, SQL_TOP_SOURCES),
    ("pricing_summary", q_pricing_summary, SQL_PRICING_SUMMARY),
    ("orders_by_segment", q_orders_by_segment, SQL_ORDERS_BY_SEGMENT),
    ("nations_per_region", q_nations_per_region, SQL_NATIONS_PER_REGION),
    ("top_orders", q_top_orders, SQL_TOP_ORDERS),
    ("token_counts", q_token_counts, SQL_TOKEN_COUNTS),
    ("top_words", q_top_words, SQL_TOP_WORDS),
    ("top_terms", q_top_terms, SQL_TOP_TERMS),
    ("quality_stats", q_quality_stats, SQL_QUALITY_STATS),
    ("clean_text", q_clean_text, SQL_CLEAN_TEXT),
    ("pii_scrub", q_pii_scrub, SQL_PII_SCRUB),
    ("bigram_counts", q_bigram_counts, SQL_BIGRAM_COUNTS),
    ("heavy_hitter_words", q_top_words, SQL_TOP_WORDS),
    ("value_band_overlap", q_value_band_overlap, SQL_VALUE_BAND_OVERLAP),
    ("dedup_exact", q_dedup_exact, SQL_DEDUP_EXACT),
    ("dedup_keep", q_dedup_keep, SQL_DEDUP_KEEP),
    ("dedup_keep_dist", q_dedup_keep, SQL_DEDUP_KEEP),
    ("dup_spans", q_dup_spans, SQL_DUP_SPANS),
    ("substring_dedup", q_substring_dedup, SQL_SUBSTRING_DEDUP),
    ("minhash_verified", q_minhash_verified, SQL_MINHASH_VERIFIED),
    ("decontaminate", q_decontaminate, SQL_DECONTAMINATE),
    ("curated_corpus", q_curated_corpus, SQL_CURATED_CORPUS),
    ("ngram_jaccard", q_ngram_jaccard, SQL_NGRAM_JACCARD),
    ("label_centroids", q_label_centroids, SQL_LABEL_CENTROIDS),
    ("embedding_topk", q_embedding_topk, SQL_EMBEDDING_TOPK),
    ("embedding_neardup", q_embedding_neardup, SQL_EMBEDDING_NEARDUP),
    ("hash_sample", q_hash_sample, SQL_HASH_SAMPLE),
    ("stratified_sample", q_stratified_sample, SQL_STRATIFIED_SAMPLE),
    ("sample_k", q_sample_k, SQL_SAMPLE_K),
    ("weighted_sample", q_weighted_sample, SQL_WEIGHTED_SAMPLE),
    ("weighted_sample_k", q_weighted_sample_k, SQL_WEIGHTED_SAMPLE_K),
    ("per_source_sample", q_per_source_sample, SQL_PER_SOURCE_SAMPLE),
    ("split_counts", q_split_counts, SQL_SPLIT_COUNTS),
    ("value_ddsketch", q_value_ddsketch, SQL_VALUE_DDSKETCH),
    ("unigram_logprob", q_unigram_logprob, SQL_UNIGRAM_LOGPROB),
    ("pmi_collocations", q_pmi_collocations, SQL_PMI_COLLOCATIONS),
    ("repetition_stats", q_repetition_stats, SQL_REPETITION_STATS),
    ("tfidf_top_terms", q_tfidf_top_terms, SQL_TFIDF_TOP_TERMS),
    ("dedup_keep_best", q_dedup_keep_best, SQL_DEDUP_KEEP_BEST),
    ("mixture_rebalance", q_mixture_rebalance, SQL_MIXTURE_REBALANCE),
    ("token_budget_mix", q_token_budget_mix, SQL_TOKEN_BUDGET_MIX),
    ("union_distinct", q_union_distinct, SQL_UNION_DISTINCT),
    ("fragment_manifest", q_fragment_manifest, SQL_FRAGMENT_MANIFEST),
    ("order_revenue_coloc", q_order_revenue_coloc, SQL_ORDER_REVENUE),
    ("user_rolling_value", q_user_rolling_value, SQL_USER_ROLLING_VALUE),
    ("user_funnel", q_user_funnel, SQL_USER_FUNNEL),
    ("value_hist_quantiles", q_value_hist_quantiles, SQL_VALUE_HIST_QUANTILES),
    ("value_outliers", q_value_outliers, SQL_VALUE_OUTLIERS),
    ("value_percent_rank", q_value_percent_rank, SQL_VALUE_PERCENT_RANK),
    ("value_percent_rank_banded", q_value_percent_rank,
     SQL_VALUE_PERCENT_RANK),
    ("range_scan_events", q_range_scan_events, SQL_RANGE_SCAN_EVENTS),
    ("dedup_incremental", q_dedup_incremental, SQL_DEDUP_INCREMENTAL),
    ("source_overlap", q_source_overlap, SQL_SOURCE_OVERLAP),
    ("shuffle_rank", q_shuffle_rank, SQL_SHUFFLE_RANK),
    ("vocab_encode", q_vocab_encode, SQL_VOCAB_ENCODE),
    ("quality_filter_pct", q_quality_filter_pct, SQL_QUALITY_FILTER_PCT),
    ("curriculum_order", q_curriculum_order, SQL_CURRICULUM_ORDER),
    ("inverted_index", q_inverted_index, SQL_INVERTED_INDEX),
    ("term_search", q_term_search, SQL_TERM_SEARCH),
    ("doc_chunks", q_doc_chunks, SQL_DOC_CHUNKS),
    ("source_divergence", q_source_divergence, SQL_SOURCE_DIVERGENCE),
    ("value_mode", q_value_mode, SQL_VALUE_MODE),
    ("user_retention", q_user_retention, SQL_USER_RETENTION),
    ("lineitem_corr", q_lineitem_corr, SQL_LINEITEM_CORR),
    ("user_gini", q_user_gini, SQL_USER_GINI),
    ("session_pairs", q_session_pairs, SQL_SESSION_PAIRS),
    ("traffic_anomalies", q_traffic_anomalies, SQL_TRAFFIC_ANOMALIES),
    ("contamination_report", q_contamination_report, SQL_CONTAMINATION_REPORT),
    ("late_events", q_late_events, SQL_LATE_EVENTS),
    ("users_approx_distinct", q_users_approx_distinct,
     Invariant(inv.check_users_approx_distinct,
               "HLL estimate within 10% of exact per-group distinct (exact "
               "pipeline)")),
    ("lang_id", q_lang_id,
     Invariant(inv.check_lang_id,
               "one row per doc; labels in model set; conf in [0,1]")),
    ("fingerprints", q_fingerprints,
     Invariant(inv.check_fingerprints,
               "distinct fingerprints == distinct texts; one row per doc")),
    ("dedup_keep_minhash", q_dedup_keep_minhash,
     Invariant(inv.check_dedup_keep_minhash,
               "kept unique subset of corpus; <=1 doc kept per identical-"
               "text group (the min when in-group)")),
    ("minhash_pairs", q_minhash_pairs,
     Invariant(inv.check_minhash_pairs,
               "jaccard in [0.5,1]; sampled values == pure-Python shingle "
               "recompute; identical-text pairs all present")),
    ("simhash_pairs", q_simhash_pairs,
     Invariant(inv.check_simhash_pairs,
               "hamming in [0,3]; identical-text pairs present "
               "with hamming 0")),
    ("ann_lsh_topk", q_ann_lsh_topk,
     Invariant(inv.check_ann_lsh_topk,
               "scores re-derived exactly; ranks consistent; recall@10 >= "
               "0.08 vs brute force")),
    ("ann_ivf_topk", q_ann_ivf_topk,
     Invariant(inv.check_ann_ivf_topk,
               "scores re-derived exactly; ranks consistent; recall@10 >= "
               "0.5 vs brute force")),
    ("ann_ivf_indexed", q_ann_ivf_indexed,
     Invariant(inv.check_ann_ivf_indexed,
               "scores re-derived exactly; ranks consistent; recall@10 >= "
               "0.5 vs brute force")),
    ("ann_lsh_indexed", q_ann_lsh_indexed,
     Invariant(inv.check_ann_lsh_indexed,
               "scores re-derived exactly; ranks consistent; recall@10 >= "
               "0.08 vs brute force")),
    ("pack_sequences", q_pack_sequences,
     Invariant(inv.check_pack_sequences,
               "sum(pack n_tok) == sum(input n_tok); fills in [1,max_len]; "
               "pack_ids unique")),
    ("media_stats", q_media_stats,
     Invariant(inv.check_media_stats,
               "decode aggregates == synthesized payload params recomputed "
               "codec-free")),
    ("embedding_clusters", q_embedding_clusters,
     Invariant(inv.check_embedding_clusters,
               "full unique coverage; cluster in [0,8); sampled assignments "
               "== centroid argmax (inline)")),
)

ORACLE_SQL = {name: check for name, _, check in CATALOG
              if isinstance(check, str)}
INVARIANTS = {name: check.claim for name, _, check in CATALOG
              if isinstance(check, Invariant)}
# an oracled entry is the plain builder (nothing wraps its timed call)
QUERIES = {name: fn if isinstance(check, str)
           else inv.with_invariant(name, fn, check.check)
           for name, fn, check in CATALOG}
