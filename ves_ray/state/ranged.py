"""Persisted RANGE-partitioned table layout with zone-map pruning.

The hash-bucketed layout (state.bucketed) optimizes key-equality
reuse; this is its ordered sibling for RANGE predicates — time-range
replays, value-band extracts, incremental date scans. Rows are
written into equi-depth range partitions of an integer sort column
(bounds chosen from the same distributed (value, count) histogram the
quantile operators use — the exchange is histogram-sized, the write
itself is shuffle-free: each streaming write task splits its own
blocks across partition directories). After the data lands, the
writer harvests per-partition min/max ZONE MAPS from the parquet
footers (metadata-only, no data read) and publishes them in a
manifest written LAST — readers treat a manifest-less directory as
unpublished, the same crash-safe publish order the checkpoint and
bucketed layouts use.

``range_scan(path, lo, hi)`` then prunes at the READ: only partition
directories whose zone map overlaps [lo, hi] are listed, and the
residual row filter is pushed into the parquet scan so row groups
prune too. A scan touching 1 of 64 partitions costs ~1/64 of the
read — the 100-TB path for "last hour of telemetry" over a corpus
laid out by timestamp.

Partitioning assumption: equi-depth bounds make partitions row-
balanced for the distribution sampled at write time; a drifting
distribution (append-heavy hot tail) wants periodic re-layout, which
is just write_range_partitioned again (state.compact handles the
small-file side).

Reference analogue: none — motivated by the LLM-pipeline brief's
"prune at the read" scale axis.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
from pyarrow import fs as pafs

from . import fs as vfs
from .bucketed import (_build_dir_for, _schema_b64, _schema_from_b64,
                       publish_dir)

_MANIFEST = "_ranged.json"


def choose_bounds(ds, value_col: str, num_partitions: int) -> list[int]:
    """Equi-depth cut points for ``value_col`` (integer column) from
    the distributed (value, count) histogram — one histogram-sized
    exchange, never a row-scale gather. Returns ``num_partitions - 1``
    ascending bounds; partition of v = searchsorted(bounds, v, 'right')."""
    from ..stages.aggregate import combine_pandas

    hist = (combine_pandas(ds, [value_col], {"n": ([], "count_all")})
            .sort_values(value_col, ignore_index=True))
    cum = hist["n"].to_numpy(dtype=np.int64).cumsum()
    total = int(cum[-1]) if len(cum) else 0
    bounds: list[int] = []
    for i in range(1, num_partitions):
        target = -(-i * total // num_partitions)        # ceil, exact
        j = int(np.searchsorted(cum, target, side="left"))
        b = int(hist[value_col].iloc[min(j, len(hist) - 1)])
        if not bounds or b > bounds[-1]:                # strictly asc
            bounds.append(b)
    return bounds


def write_range_partitioned(ds, path: str, *, value_col: str,
                            num_partitions: int = 64,
                            bounds: list[int] | None = None,
                            filesystem: pafs.FileSystem | None = None
                            ) -> dict:
    """Materialize ``ds`` range-partitioned by integer ``value_col``
    into ``path/range_part=K/`` dirs. Shuffle-free write; zone maps
    harvested from parquet footers; manifest published last."""
    if bounds is None:
        bounds = choose_bounds(ds, value_col, num_partitions)
    barr = np.asarray(bounds, dtype=np.int64)
    schema = ds.schema()

    def tag(b: pa.Table) -> pa.Table:
        v = b[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        part = np.searchsorted(
            barr, v.to_numpy(zero_copy_only=False).astype(np.int64),
            side="right")
        return b.append_column("range_part",
                               pa.array(part.astype(np.int64)))

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True)
    # build in a fresh temp dir, publish by atomic rename — a crashed
    # prior build can never leave stale partials under the final path
    # for the zone-map harvest to sweep up (ADVICE r3)
    f, p = vfs.resolve_fs(path, filesystem)
    build = _build_dir_for(f, p)
    tagged.write_parquet(build, partition_cols=["range_part"],
                         filesystem=f)

    # zone maps from footers only — never the data pages
    zones: dict[str, list[int]] = {}
    for name in vfs.listdir(f, build):
        d = vfs.join(build, name)
        if not (name.startswith("range_part=") and vfs.is_dir(f, d)):
            continue
        lo = hi = None
        for fn in vfs.listdir(f, d):
            if not fn.endswith(".parquet"):
                continue
            md = vfs.open_parquet(f, vfs.join(d, fn)).metadata
            ci = md.schema.to_arrow_schema().get_field_index(value_col)
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                if st is None or not st.has_min_max:
                    continue
                lo = st.min if lo is None else min(lo, st.min)
                hi = st.max if hi is None else max(hi, st.max)
        if lo is not None:
            zones[name.split("=", 1)[1]] = [int(lo), int(hi)]

    man = {"value_col": value_col, "bounds": [int(b) for b in bounds],
           "zones": zones,
           "schema": _schema_b64(
               pa.schema(list(zip(schema.names, schema.types))))}
    vfs.write_text(f, vfs.join(build, _MANIFEST), json.dumps(man))
    publish_dir(build, p, _MANIFEST, filesystem=f)
    return man


def read_manifest(path: str,
                  filesystem: pafs.FileSystem | None = None) -> dict:
    f, p = vfs.resolve_fs(path, filesystem)
    mp = vfs.join(p, _MANIFEST)
    if not vfs.exists(f, mp):
        raise FileNotFoundError(
            f"{path} has no {_MANIFEST}: not a published ranged layout "
            "(write_range_partitioned publishes the manifest last)")
    return json.loads(vfs.read_text(f, mp))


def select_partitions(man: dict, lo: int, hi: int) -> list[str]:
    """Partition keys whose zone map overlaps [lo, hi] — the pruning
    decision, exposed for tests and dry-run planning."""
    return [k for k, (zlo, zhi) in sorted(man["zones"].items(),
                                          key=lambda kv: int(kv[0]))
            if not (zhi < lo or zlo > hi)]


def range_scan(path: str, lo: int, hi: int, *,
               columns: list[str] | None = None,
               filesystem: pafs.FileSystem | None = None):
    """Rows with ``lo <= value_col <= hi``, reading ONLY the partition
    directories whose zone map overlaps the band (directory-level
    pruning) with the residual filter pushed into the parquet scan
    (row-group-level pruning). Returns a streaming Dataset."""
    import pyarrow.dataset as pds
    import ray.data as rd

    from ..sources.sequences import read_parquet_sized

    f, p = vfs.resolve_fs(path, filesystem)
    man = read_manifest(p, f)
    value_col = man["value_col"]
    parts = select_partitions(man, lo, hi)
    schema = _schema_from_b64(man["schema"])
    cols = columns or schema.names
    if not parts:
        return rd.from_arrow(
            pa.schema([schema.field(c) for c in cols]).empty_table())
    # read_parquet accepts one directory or a list of FILES — expand
    # the selected partitions to their parquet files
    files = [vfs.join(p, f"range_part={k}", fn)
             for k in parts
             for fn in vfs.listdir(f, vfs.join(p, f"range_part={k}"))
             if fn.endswith(".parquet")]
    expr = (pds.field(value_col) >= lo) & (pds.field(value_col) <= hi)
    return read_parquet_sized(files, columns=cols, filter=expr,
                              filesystem=f)
