"""Aggregate stage (SURVEY T6): per-sink counts / sums / histograms.

north_star: "per-sink groupby-aggregate counts (events, n_tok sums,
source histograms)".

Scale design: a bare ``groupby(key).aggregate(...)`` shuffles every
row. Both aggregates here key on LOW-cardinality columns (``route``,
``(route, source)``), so we pre-aggregate inside ``map_batches``
(one partial row per key per block) and then run the wide
``groupby`` over partials only — the all-to-all exchange moves
O(routes × blocks) rows instead of O(input rows). At 100 TB this is
the difference between shuffling kilobytes and shuffling the corpus.
"""

from __future__ import annotations

import pyarrow as pa

from ray.data.aggregate import Sum

from .exchange import bucket_exchange


def _partial_counts(keys: list[str], sum_col: str | None):
    """Build a map_batches fn computing per-key partials within a block."""
    def _partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            # empty partial must carry the batch's REAL key types (a
            # hardcoded string type would emit a conflicting block
            # schema for e.g. timestamp keys)
            fields = {k: pa.array([], type=batch.schema.field(k).type)
                      for k in keys}
            fields["events"] = pa.array([], type=pa.int64())
            if sum_col:
                fields["n_tok_sum"] = pa.array([], type=pa.int64())
            return pa.table(fields)
        aggs = [([], "count_all")]
        if sum_col:
            aggs.append((sum_col, "sum"))
        g = pa.TableGroupBy(batch, keys).aggregate(aggs)
        names = list(keys) + ["events"] + (["n_tok_sum"] if sum_col else [])
        return g.rename_columns(names)
    return _partial


def grouped_counts(ds, keys: list[str], sum_col: str | None = None,
                   batch_size: int = 131_072):
    """groupby(keys) → events:=count(*) [, n_tok_sum:=sum(sum_col)]
    with block-local partial aggregation before the shuffle."""
    partial = ds.map_batches(_partial_counts(keys, sum_col),
                             batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=batch_size)
    aggs = [Sum("events", alias_name="events")]
    if sum_col:
        aggs.append(Sum("n_tok_sum", alias_name="n_tok_sum"))
    return partial.groupby(keys).aggregate(*aggs)


def route_counts(ds):
    """Per-sink totals: (route, events, n_tok_sum)."""
    return grouped_counts(ds, ["route"], sum_col="n_tok")


def source_histogram(ds):
    """Per-sink source histogram, exploded form (route, source, events)
    — SQL-verifiable (SURVEY §1.2)."""
    return grouped_counts(ds, ["route", "source"], sum_col=None)


def pivot_counts(ds, *, key_col: str, col_col: str, values: list[str],
                 num_buckets: int = 64):
    """Long→wide pivot: one row per key, one ``n_<value>`` count column
    per (fixed, known) value of ``col_col``. Two-phase like every
    aggregate here: block-local partial counts shrink the exchange to
    O(keys × values × blocks), then one ``bucket_exchange`` on the key
    sums and reshapes each partition's partials with one vectorized
    ``pivot_table`` (never one call per key). An unbounded/unknown
    column domain needs the exploded long form instead (see
    source_histogram) — pivot output width must be static."""
    import numpy as np
    import pandas as pd

    partial = ds.map_batches(_partial_counts([key_col, col_col], None),
                             batch_format="pyarrow", zero_copy_batch=True)
    out_cols = [f"n_{v}" for v in values]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        w = g.pivot_table(index=key_col, columns=col_col,
                          values="events", aggfunc="sum", fill_value=0)
        w = w.reindex(columns=values, fill_value=0).astype(np.int64)
        w.columns = out_cols
        return w.reset_index()

    return bucket_exchange(partial, key_col, per_bucket,
                           num_buckets=num_buckets, batch_format="pandas")


def topk(ds, keys: list[str], k: int = 10, by: str = "events"):
    """Top-k hot groups: pre-aggregated grouped count → sort → limit.
    The sort runs over the tiny aggregate, never the raw rows."""
    return grouped_counts(ds, keys).sort(by, descending=True).limit(k)
