"""Enrich stage (SURVEY T4): source → tenant/severity/route metadata.

north_star: "enriches rows with broadcast lookup tables
(source→tenant/severity/route metadata) hosted in a stateful actor
pool". The reference's stateful-manager/stateless-worker split
(components/core-agent/src/tailer/manager.rs vs payload.rs) maps to:
a callable CLASS whose ``__init__`` materializes the lookup ONCE per
actor, with the table broadcast via ``ray.put`` (one object-store copy
per node, not one per batch).

The per-batch join is a vectorized Arrow hash lookup
(``pc.index_in`` + ``take``) — semantically a broadcast LEFT JOIN on
`source`; unknown sources get default route metadata, rows are never
dropped (FIXTURES.md §2 edge case).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import DEFAULT_ROUTE, DEFAULT_SEVERITY, DEFAULT_TENANT

ENRICH_COLUMNS = ("tenant", "severity", "route")


def _as_table(lookup) -> pa.Table:
    import ray
    if isinstance(lookup, ray.ObjectRef):
        lookup = ray.get(lookup)
    if isinstance(lookup, pa.Table):
        return lookup
    if isinstance(lookup, dict):  # {source: (tenant, severity, route)}
        keys = list(lookup)
        return pa.table({
            "source": keys,
            "tenant": [lookup[k][0] for k in keys],
            "severity": [lookup[k][1] for k in keys],
            "route": [lookup[k][2] for k in keys],
        })
    raise TypeError(f"unsupported lookup type {type(lookup)!r}")


class Enricher:
    """Actor-pool stage: ``map_batches(Enricher, fn_constructor_kwargs=
    dict(lookup=ref), concurrency=N, batch_format='pyarrow')``.

    `lookup`: pa.Table / dict / ray.ObjectRef of either. Defaults
    applied for sources absent from the table.
    """

    #: above this many keys, probe via a pandas Index whose hash table
    #: is built ONCE here and reused every batch — ``pc.index_in``
    #: rebuilds its value_set hash table per kernel call, an O(lookup)
    #: per-batch cost that dominates wall time for big lookups
    #: (measured: 72 MB lookup, 20M rows — index_in 9.7 s vs 3.9 s)
    LARGE_LOOKUP_KEYS = 65_536

    def __init__(self, lookup, key: str = "source",
                 defaults: tuple[str, str, str] = (DEFAULT_TENANT, DEFAULT_SEVERITY, DEFAULT_ROUTE)):
        t = _as_table(lookup)
        self.key = key
        self.value_set = t["source"].combine_chunks()
        self.index = None
        if len(t) > self.LARGE_LOOKUP_KEYS:
            import pandas as pd
            self.index = pd.Index(
                self.value_set.to_numpy(zero_copy_only=False))
            if not self.index.is_unique:
                # duplicate keys: keep index_in's first-match rule
                self.index = None
            else:
                self.index.get_indexer(self.index[:1])  # build now
        # append the default row at index len(t): unmatched keys land there
        self.columns = {
            name: pa.concat_arrays([t[name].combine_chunks(), pa.array([default])])
            for name, default in zip(ENRICH_COLUMNS, defaults)
        }
        self.default_index = len(t)

    def _probe(self, keys: pa.Array) -> pa.Array:
        if self.index is None:
            idx = pc.index_in(keys, value_set=self.value_set)
            return pc.fill_null(idx, self.default_index)
        import numpy as np
        iv = self.index.get_indexer(keys.to_numpy(zero_copy_only=False))
        np.copyto(iv, self.default_index, where=iv < 0)
        return pa.array(iv, type=pa.int64())

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        idx = self._probe(keys)
        out = batch
        for name, arr in self.columns.items():
            out = out.append_column(name, arr.take(idx))
        return out


# Per-worker-process cache for task-mode enrichment: the lookup is
# fetched from the object store and decoded once per worker (task
# workers persist across Dataset executions), not once per batch.
_TASK_ENRICHERS: dict[str, "Enricher"] = {}


def make_task_enricher(lookup_ref, key: str = "source"):
    """Task-mode broadcast lookup: a stateless ``map_batches`` fn that
    lazily builds one :class:`Enricher` per worker process from the
    ``ray.put`` ref. Prefer this over the actor pool when the lookup is
    small (an actor pool buys once-per-actor setup at the cost of
    dedicated processes; for a tiny dict the setup is free and task
    workers are already warm)."""
    ref_key = lookup_ref.hex()

    def enrich(batch: pa.Table) -> pa.Table:
        e = _TASK_ENRICHERS.get(ref_key)
        if e is None:
            import ray
            e = Enricher(ray.get(lookup_ref), key=key)
            _TASK_ENRICHERS[ref_key] = e
        return e(batch)

    return enrich


class _BroadcastLookup:
    """Prepared small-side of a broadcast lookup join: key array plus
    value columns, chunks combined once so every batch probe is a pure
    ``pc.index_in`` + ``take`` with no per-batch Python work."""

    def __init__(self, table: pa.Table, key: str, cols: list[str]):
        self.key_values = table[key].combine_chunks()
        self.columns = {c: table[c].combine_chunks() for c in cols}
        self.index = None
        if len(table) > Enricher.LARGE_LOOKUP_KEYS:
            import pandas as pd
            # same rationale as Enricher: hash the key set once here,
            # not per batch inside pc.index_in
            self.index = pd.Index(
                self.key_values.to_numpy(zero_copy_only=False))
            if not self.index.is_unique:
                self.index = None
            else:
                self.index.get_indexer(self.index[:1])

    def __call__(self, batch: pa.Table, left_key: str) -> pa.Table:
        keys = batch[left_key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if self.index is None:
            idx = pc.index_in(keys, value_set=self.key_values)
        else:
            iv = self.index.get_indexer(
                keys.to_numpy(zero_copy_only=False))
            idx = pa.array(iv, type=pa.int64(), mask=iv < 0)
        out = batch
        for name, arr in self.columns.items():
            # null idx (unmatched key) takes as null — LEFT JOIN nulls
            out = out.append_column(name, arr.take(idx))
        return out


_BROADCAST_LOOKUPS: dict[str, "_BroadcastLookup"] = {}


def broadcast_enrich(ds, table: pa.Table, *, left_key: str,
                     right_key: str, cols: list[str]):
    """Generic broadcast hash-lookup enrich: append ``cols`` from the
    small ``table`` to every batch of ``ds``, matching
    ``batch[left_key] == table[right_key]`` — a vectorized broadcast
    LEFT JOIN (unmatched keys yield nulls). The table ships to the
    object store ONCE via ``ray.put``; each worker process decodes and
    chunk-combines it once (cached), never per batch.

    This is the scale-correct replacement for per-row dict lookups:
    the probe is one Arrow ``index_in`` kernel per batch."""
    import ray
    ref = ray.put(table.select([right_key, *cols]))
    ref_key = ref.hex()

    def enrich(batch: pa.Table) -> pa.Table:
        lut = _BROADCAST_LOOKUPS.get(ref_key)
        if lut is None:
            lut = _BroadcastLookup(ray.get(ref), right_key, cols)
            _BROADCAST_LOOKUPS[ref_key] = lut
        return lut(batch, left_key)

    return ds.map_batches(enrich, batch_format="pyarrow",
                          zero_copy_batch=True)
