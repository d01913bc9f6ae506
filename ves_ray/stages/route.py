"""Route stage (SURVEY T5, T7): salted routing key + per-route sinks.

north_star: "fans out to per-route Parquet sinks … hash-partitioned
repartition with explicit salted-key skew mitigation on hot sources."

Skew design (SURVEY §4.2): the physical partition key is the composite
``(route, salt)`` where ``salt = hash(doc_id) % k_route``; ``k_route``
is 1 for cold routes and >1 for routes fed by hot sources, so one hot
route (~60 % of rows in the fixture distribution) spreads over k
shuffle partitions instead of landing on a single reducer. k is
hash-derived and deterministic — no RNG (SURVEY §7 hard parts).

The salt is an internal shuffle/balance key only; routed-output
equality is judged per-row by doc_id, not by physical placement.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hash_strings

DEFAULT_HOT_SALT_K = 16
SALT_SEED = 0xC0FFEE


def hot_route_salts(lookup: pa.Table, k: int = DEFAULT_HOT_SALT_K) -> dict[str, int]:
    """Derive per-route salt bucket counts from the lookup table's
    ``hot`` flags: any route that a hot source maps to gets k buckets."""
    hot = lookup.filter(pc.equal(lookup["hot"], True))
    return {r: k for r in hot["route"].to_pylist()}


def add_salt_batch(batch: pa.Table, hot_salt: dict[str, int]) -> pa.Table:
    """Vectorized salt assignment: salt = hash64(identity) % k_route
    (0 where k_route == 1).

    Identity: ``seq_idx`` (the int64 the parse stage extracted from
    doc_id — so salt is still a pure function of doc_id) when present;
    falls back to hashing the doc_id string. The int path is
    numpy-only — no string-hash library import in the per-write-task
    hot loop."""
    from ..hashing import hash2, splitmix64
    n = len(batch)
    if not hot_salt or n == 0:
        return batch.append_column("salt", pa.array(np.zeros(n, dtype=np.int32)))
    routes = pa.array(list(hot_salt))
    ks = np.array(list(hot_salt.values()), dtype=np.uint64)
    route_col = batch["route"]
    if isinstance(route_col, pa.ChunkedArray):
        route_col = route_col.combine_chunks()
    idx = pc.index_in(route_col, value_set=routes)
    # k per row: 1 for cold routes (null index)
    idx_np = idx.to_numpy(zero_copy_only=False)
    k_row = np.ones(n, dtype=np.uint64)
    matched = ~np.isnan(idx_np) if idx_np.dtype.kind == "f" else idx.is_valid().to_numpy(zero_copy_only=False)
    if matched.any():
        k_row[matched] = ks[idx_np[matched].astype(np.int64)]
    if "seq_idx" in batch.column_names:
        sid = pc.fill_null(batch["seq_idx"], 0)
        h = hash2(splitmix64(np.uint64(SALT_SEED)),
                  sid.to_numpy(zero_copy_only=False).astype(np.uint64))
    else:
        h = hash_strings(batch["doc_id"], seed=SALT_SEED)
    salt = (h % k_row).astype(np.int32)
    return batch.append_column("salt", pa.array(salt))


def make_salter(hot_salt: dict[str, int]):
    """Stateless map_batches fn with the (tiny) hot-route table bound."""
    def _salt(batch: pa.Table) -> pa.Table:
        return add_salt_batch(batch, hot_salt)
    return _salt
