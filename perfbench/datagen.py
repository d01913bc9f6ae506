"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of ``(seed, size)``: the program
under test only ever sees the files these functions write.

- The sequences corpus comes from ``ves_ray.fixtures`` (the same
  generator the tests and ``bench.py`` use): 32 sources, 60 % of rows
  on the hot source, 0.5 % on sources missing from the lookup.
- The query tables are a small TPC-H-flavoured star schema plus an
  ``events`` stream and a ``documents`` corpus, with the column names
  and types of the repository's query catalog inputs. Only the columns
  the benchmarked queries read are generated.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
WORDS = ("agg batch big column customer data fast filter group hash join "
         "key line merge order part query row scan small sort spark stream "
         "table value window a the of log event user shard route token "
         "block plan task exchange").split()

# rows per query table, keyed by size name
QUERY_SIZES = {
    # about TPC-H scale factor 0.01
    "full": dict(customers=1_500, orders=15_000, lineitems=60_000,
                 users=600, events=10_000, documents=500, doc_sources=20),
    # about scale factor 0.001: the self-test and the traced-run probes
    "tiny": dict(customers=150, orders=1_500, lineitems=6_000,
                 users=60, events=1_000, documents=120, doc_sources=6),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write(out_dir: str, name: str, table: pa.Table) -> None:
    pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))


def _documents(rng: np.random.Generator, n: int, n_sources: int) -> pa.Table:
    """Random word texts, with exact copies (for ``dedup_exact``) and
    in-source near copies (for the Jaccard clusters of ``dedup_keep``)."""
    lens = rng.integers(12, 70, size=n)
    texts = [" ".join(rng.choice(WORDS, size=k)) for k in lens]
    sources = [f"src{v}" for v in rng.integers(0, n_sources, size=n)]
    for i in range(1, n):
        u = rng.random()
        j = int(rng.integers(0, i))
        if u < 0.05:                     # exact copy, any source
            texts[i] = texts[j]
        elif u < 0.15:                   # near copy within j's source
            words = texts[j].split()
            for p in rng.integers(0, len(words), size=max(1, len(words) // 8)):
                words[p] = str(rng.choice(WORDS))
            texts[i] = " ".join(words)
            sources[i] = sources[j]
    return pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "text": texts,
        "source": sources,
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })


def write_query_tables(out_dir: str, seed: int, size: str = "full") -> None:
    """Write region, nation, customer, orders, lineitem, events and
    documents as one parquet file each under ``out_dir``."""
    s = QUERY_SIZES[size]
    os.makedirs(out_dir, exist_ok=True)
    _write(out_dir, "region", pa.table({
        "r_regionkey": pa.array(range(5), type=pa.int32()),
        "r_name": REGIONS}))
    _write(out_dir, "nation", pa.table({
        "n_nationkey": pa.array(range(25), type=pa.int32()),
        "n_name": [f"NATION{k:02d}" for k in range(25)],
        "n_regionkey": pa.array([k % 5 for k in range(25)], type=pa.int32())}))

    rng = _rng(seed, 1)
    n_c = s["customers"]
    _write(out_dir, "customer", pa.table({
        "c_custkey": pa.array(np.arange(n_c), type=pa.int64()),
        "c_nationkey": pa.array(rng.integers(0, 25, size=n_c), type=pa.int32())}))

    rng = _rng(seed, 2)
    n_o = s["orders"]
    _write(out_dir, "orders", pa.table({
        "o_orderkey": pa.array(np.arange(n_o), type=pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_c, size=n_o), type=pa.int64()),
        "o_orderstatus": rng.choice(["F", "O", "P"], size=n_o).tolist()}))

    rng = _rng(seed, 3)
    n_l = s["lineitems"]
    _write(out_dir, "lineitem", pa.table({
        "l_orderkey": pa.array(np.sort(rng.integers(0, n_o, size=n_l)),
                               type=pa.int64()),
        "l_extendedprice": np.round(rng.uniform(900.0, 105_000.0, size=n_l), 2),
        "l_discount": rng.integers(0, 11, size=n_l) / 100.0}))

    rng = _rng(seed, 4)
    n_e = s["events"]
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = t0 + rng.integers(0, 30 * 86_400 * 10**6, size=n_e)
    _write(out_dir, "events", pa.table({
        "event_id": pa.array(np.arange(n_e), type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, s["users"], size=n_e),
                            type=pa.int64()),
        "event_type": rng.choice(["click", "view", "purchase", "signup",
                                  "error"], size=n_e).tolist(),
        "value": np.round(rng.exponential(20.0, size=n_e), 3)}))

    _write(out_dir, "documents",
           _documents(_rng(seed, 5), s["documents"], s["doc_sources"]))
