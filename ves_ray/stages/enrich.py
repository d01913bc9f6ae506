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

from collections import OrderedDict

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
    """Broadcast lookup join as a callable: the actor-pool stage
    (``map_batches(Enricher, fn_constructor_kwargs=dict(lookup=ref))``)
    and the object task mode builds once per worker. `lookup`: pa.Table
    / dict / ray.ObjectRef of either. Each batch row gets the
    ``columns`` of the lookup row whose ``lookup_key`` equals its
    ``key``; a key absent from the table gets ``defaults``, or nulls (a
    LEFT JOIN) when ``defaults`` is None."""

    #: above this many keys, probe via a pandas Index whose hash table
    #: is built ONCE here and reused every batch — ``pc.index_in``
    #: rebuilds its value_set hash table per kernel call, an O(lookup)
    #: per-batch cost that dominates wall time for big lookups
    #: (measured: 72 MB lookup, 20M rows — index_in 9.7 s vs 3.9 s)
    LARGE_LOOKUP_KEYS = 65_536

    def __init__(self, lookup, key: str = "source",
                 defaults: tuple | None = (DEFAULT_TENANT, DEFAULT_SEVERITY,
                                           DEFAULT_ROUTE),
                 *, lookup_key: str = "source", columns=ENRICH_COLUMNS):
        t = _as_table(lookup)
        self.key = key
        self.value_set = t[lookup_key].combine_chunks()
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
        self.columns = {name: t[name].combine_chunks() for name in columns}
        self.default_index = None
        if defaults is not None:
            # the default row at index len(t): unmatched keys land there
            self.columns = {name: pa.concat_arrays([arr, pa.array([d])])
                            for (name, arr), d in zip(self.columns.items(),
                                                      defaults)}
            self.default_index = len(t)

    def _probe(self, keys: pa.Array) -> pa.Array:
        if self.index is None:
            idx = pc.index_in(keys, value_set=self.value_set)
        else:
            iv = self.index.get_indexer(keys.to_numpy(zero_copy_only=False))
            idx = pa.array(iv, type=pa.int64(), mask=iv < 0)
        # a null index takes as null
        return (idx if self.default_index is None
                else pc.fill_null(idx, self.default_index))

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        idx = self._probe(keys)
        out = batch
        for name, arr in self.columns.items():
            out = out.append_column(name, arr.take(idx))
        return out


#: entries ``worker_cached`` keeps, least recently used dropped first:
#: each run puts a new ref, and workers outlive runs
WORKER_CACHE_ENTRIES = 4
_WORKER_CACHE: OrderedDict = OrderedDict()


def worker_cached(key, build):
    """``build()``, made once per worker process for each ``key``, from
    inside a ``map_batches`` function. A nested function is pickled by
    value with any module dict it names, so every task would get an
    empty copy; this top-level function pickles by reference, so its
    cache is the worker's own, shared by every task the worker runs."""
    if key in _WORKER_CACHE:
        _WORKER_CACHE.move_to_end(key)
        return _WORKER_CACHE[key]
    value = _WORKER_CACHE[key] = build()
    while len(_WORKER_CACHE) > WORKER_CACHE_ENTRIES:
        _WORKER_CACHE.popitem(last=False)
    return value


def cached_enricher(lookup_ref, key: str = "source") -> Enricher:
    """This worker's :class:`Enricher` over the ``ray.put`` lookup
    ``lookup_ref``, built on first use (``worker_cached``)."""
    import ray
    return worker_cached(("enricher", lookup_ref.hex(), key),
                         lambda: Enricher(ray.get(lookup_ref), key=key))


def make_task_enricher(lookup_ref, key: str = "source"):
    """Task-mode broadcast lookup: a stateless ``map_batches`` fn over
    ``cached_enricher``. For a small lookup it beats the actor pool: the
    setup is cheap, and task workers are already warm."""
    def enrich(batch: pa.Table) -> pa.Table:
        return cached_enricher(lookup_ref, key)(batch)

    return enrich


def broadcast_enrich(ds, table: pa.Table, *, left_key: str,
                     right_key: str, cols: list[str]):
    """Generic broadcast hash-lookup enrich: append ``cols`` from the
    small ``table`` to every batch of ``ds``, matching
    ``batch[left_key] == table[right_key]`` — a vectorized broadcast
    LEFT JOIN (unmatched keys yield nulls). The table ships to the
    object store ONCE via ``ray.put``; each worker process decodes and
    chunk-combines it once (``worker_cached``), never per batch.

    This is the scale-correct replacement for per-row dict lookups:
    the probe is one Arrow ``index_in`` kernel per batch."""
    import ray
    ref = ray.put(table.select([right_key, *cols]))
    cache_key = ("broadcast", ref.hex())

    def enrich(batch: pa.Table) -> pa.Table:
        return worker_cached(cache_key, lambda: Enricher(
            ray.get(ref), left_key, None, lookup_key=right_key,
            columns=cols))(batch)

    return ds.map_batches(enrich, batch_format="pyarrow",
                          zero_copy_batch=True)
