"""Aggregate stage (SURVEY T6): per-sink counts / sums / histograms,
and ``combine``, the one aggregation path of the package.

north_star: "per-sink groupby-aggregate counts (events, n_tok sums,
source histograms)".

``combine(ds, keys, aggs)`` runs every decomposable aggregate (count,
sum, min, max, distinct) in two steps:

1. **Partial.** One block-local ``pa.TableGroupBy`` per block, in a
   ``map_batches`` that fuses with the map before it. It leaves one row
   per key per block, so what moves on is O(keys × blocks) rows, never
   the input rows. ``combine`` materializes these partials once.
2. **Final.** The same ``TableGroupBy`` over the partials, with each
   count turned into a sum (sum, min and max combine as themselves).
   Which final runs is decided by the partials' measured size, from
   their block metadata:

   - **Driver final**, when they fit one block of the session's
     ``DataContext.target_max_block_size`` (or the target is None, or
     there are no keys): the driver gathers the partial blocks with
     ``ray.get`` and runs one ``TableGroupBy``.
   - **Exchange final**, otherwise: the already-materialized partials
     go to ``bucket_exchange`` with the final as its kernel, so no
     partial larger than the driver's memory is ever gathered, and the
     exchange's partition count reads the partials' real bytes.

   Nothing executes twice. Neither final sorts: a consumer that needs
   key order sorts the result itself. ``combine`` returns a Dataset;
   ``combine_pandas`` hands a consumer on the driver the driver final
   as a DataFrame without wrapping it in a Dataset first.

At 100 TB this is the difference between shuffling kilobytes and
shuffling the corpus (NOTES.md "One aggregation path").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import _group_starts, bucket_exchange


def _grouper(keys: list[str], aggs: dict):
    """``table -> table``: one ``TableGroupBy`` of ``keys`` with the
    ``aggs`` specs, its columns named ``keys`` then ``aggs``' names."""
    specs = list(aggs.values())

    def group(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, keys, use_threads=False).aggregate(specs)
        cols = [c for c in g.column_names if c not in keys]
        return pa.table([g[k] for k in keys] + [g[c] for c in cols],
                        names=keys + list(aggs))
    return group


def _combined(ds, keys, aggs: dict):
    """The aggregate ``combine`` describes: a ``pa.Table`` from the
    driver final, or the exchange final's Dataset."""
    import ray
    from ray.data import DataContext

    keys = [keys] if isinstance(keys, str) else list(keys)
    partial = _grouper(keys, aggs)
    final = _grouper(keys, {name: (name, "sum" if fn == "count_all" else fn)
                            for name, (_, fn) in aggs.items()})
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    target = DataContext.get_current().target_max_block_size
    if keys and target is not None and parts.size_bytes() > target:
        return bucket_exchange(parts, keys, final)
    tables = [t for t in ray.get([ref for bundle
                                  in parts.iter_internal_ref_bundles()
                                  for ref in bundle.block_refs])
              if len(t)]
    if not tables:
        schema = ds.schema()
        if schema is None:
            return pa.table({c: pa.array([], pa.null())
                             for c in keys + list(aggs)})
        tables = [partial(pa.schema(zip(schema.names, schema.types))
                          .empty_table())]
    return final(pa.concat_tables(tables, promote_options="default"))


def combine(ds, keys, aggs: dict):
    """``GROUP BY keys`` of ``ds`` with the decomposable ``aggs``, as
    one Dataset: the key columns, then one column per ``aggs`` entry.

    ``aggs`` maps each output name to a pyarrow ``TableGroupBy`` spec
    over ``ds``'s columns: ``([], "count_all")`` or
    ``(col, "sum" | "min" | "max")``; ``{}`` gives the distinct key
    set. ``keys`` is a column name or a list, and ``[]`` gives one
    keyless total row (SQL's: count 0 and a null sum over no rows). A
    ``ds`` whose own map already emits partial rows passes the final
    form (``{"n": ("n", "sum")}``): summing a block's partials again is
    harmless.

    An input without rows gives the named, typed empty columns, whose
    types come from ``ds.schema()`` (which re-runs ``ds`` when its plan
    cannot tell them); where Ray cannot tell them at all (a row-wise
    ``filter`` that drops every row) the columns are null-typed."""
    from ray.data import from_arrow

    out = _combined(ds, keys, aggs)
    return from_arrow(out) if isinstance(out, pa.Table) else out


def combine_pandas(ds, keys, aggs: dict):
    """``combine(ds, keys, aggs).to_pandas()`` for a consumer on the
    driver, without wrapping a driver final in a Dataset first (its
    ``ray.put`` and one more executor run cost about 25 ms a call)."""
    return _combined(ds, keys, aggs).to_pandas()


def gather(ds, empty) -> pa.Table:
    """Every row of ``ds`` as one ``pa.Table`` on the driver, or
    ``empty()`` when there is none: Ray keeps no columns for a result
    without rows (``Dataset.to_pandas()`` gives a 0×0 frame), so the
    caller types it, usually from its input's schema
    (:func:`empty_like`)."""
    import ray
    # the blocks as they are: ``to_arrow_refs`` adds a task per block
    tables = [t for t in ray.get([ref for bundle
                                  in ds.iter_internal_ref_bundles()
                                  for ref in bundle.block_refs])
              if len(t)]
    if not tables:
        return empty()
    return pa.concat_tables(tables, promote_options="default")


def empty_like(ds) -> pa.Table:
    """A table of ``ds``'s columns and no rows (no columns when Ray
    cannot tell them)."""
    schema = ds.schema()
    if schema is None:
        return pa.table({})
    return pa.schema(zip(schema.names, schema.types)).empty_table()


def grouped_counts(ds, keys: list[str], sum_col: str | None = None):
    """groupby(keys) → events:=count(*) [, n_tok_sum:=sum(sum_col)]."""
    aggs = {"events": ([], "count_all")}
    if sum_col:
        aggs["n_tok_sum"] = (sum_col, "sum")
    return combine(ds, keys, aggs)


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
    per (fixed, known) value of ``col_col``. Two-phase like
    ``combine``: block-local partial counts shrink the exchange to
    O(keys × values × blocks), then one ``bucket_exchange`` on the key
    sums and reshapes each partition's partials: one masked
    ``add.reduceat`` over the key runs per value (never one call per
    key). Null keys and values drop out, as in a pandas ``pivot_table``.
    An unbounded/unknown column domain needs the exploded long form
    instead (see source_histogram) — pivot output width must be
    static."""
    partial = ds.map_batches(
        _grouper([key_col, col_col], {"events": ([], "count_all")}),
        batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key_col])).sort_by(key_col)
        first = _group_starts(t, [key_col])[:-1]
        events = t["events"].to_numpy()
        out = {key_col: t[key_col].take(first)}
        for v in values:
            m = pc.fill_null(pc.equal(t[col_col], v), False).to_numpy()
            out[f"n_{v}"] = np.add.reduceat(np.where(m, events, 0), first)
        return pa.table(out)

    return bucket_exchange(partial, key_col, per_bucket,
                           num_buckets=num_buckets)
