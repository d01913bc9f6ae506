"""Relational operators Ray Data lacks natively: as-of join and
grouped top-k (window rank).

Both follow the same scale shape as sessionization (stages.window):
hash-bucket the key so the one shuffle co-locates a BOUNDED bucket of
keys per ``map_groups`` call, then run a vectorized kernel (pandas
merge_asof / sort + groupby-head) inside the group — O(buckets) group
invocations, never O(keys), and never an all-pairs or driver-side
pass. Partitioning assumption: one key's rows fit one group (true for
per-user event streams; a pathologically hot key needs pre-splitting
by time range, which composes with the same bucket column).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyarrow import fs as pafs

from .window import _bucket_of


def _rm_spill(f: pafs.FileSystem, path: str) -> None:
    """weakref.finalize callback: best-effort removal of a hot-slice
    spill directory once no Dataset plan that reads it is reachable."""
    try:
        f.delete_dir(path)
    except Exception:
        pass


def asof_join(left_ds, right_ds, *, key_col: str, ts_col: str,
              left_cols: list[str], right_cols: list[str],
              right_suffix: str = "_r", num_buckets: int = 64,
              hot_frac: float | None = None, hot_ranges: int = 16,
              scratch_dir: str | None = None, filesystem=None):
    """For every left row, attach the most recent right row with the
    same key and ``right.ts <= left.ts`` (backward as-of join, the
    DuckDB ``ASOF LEFT JOIN`` semantics). Unmatched left rows keep
    null right columns.

    Both sides are projected onto one common schema (side tag + union
    of payload columns, nulls where absent) so a single union +
    bucket groupby co-locates each key's rows; inside a bucket the
    match is one ``pd.merge_asof`` (C kernel) over the sorted frames.

    Skew: with ``hot_frac`` set, keys owning more than that share of
    left rows are pre-split BY TIME RANGE (``hot_ranges`` uniform
    slices of the hot rows' ts span) so no single group holds a hot
    key's full stream; each slice is self-contained because the
    latest right row BEFORE each slice (the carry-in — a tiny
    key×range table built from per-block partial argmax) is injected
    into the slice's group before the merge_asof. Identical output to
    the unsplit path; see :func:`_asof_join_hot`.

    ``scratch_dir`` (plus optional ``filesystem``) is where the hot
    slice spills; on a multi-node cluster it MUST be shared storage
    (the spill is written by worker tasks and read back by later
    stages on other nodes). Default is driver-local temp — fine for
    single-node runs only.
    """
    if hot_frac:
        hot = find_hot_keys(left_ds, key_col, frac=hot_frac)
        if hot:
            return _asof_join_split(
                left_ds, right_ds, hot=sorted(hot), key_col=key_col,
                ts_col=ts_col, left_cols=left_cols, right_cols=right_cols,
                right_suffix=right_suffix, num_buckets=num_buckets,
                hot_ranges=hot_ranges, scratch_dir=scratch_dir,
                filesystem=filesystem)
    # null columns for the absent side need the OTHER side's real
    # types (a null-typed column would break the union's schema)
    l_schema, r_schema = left_ds.schema(), right_ds.schema()
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))

    # one fixed column order for BOTH sides (union needs identical
    # schemas): bucket, side, key, ts, left payload, right payload
    order = (["abucket", "side", key_col, ts_col] + left_cols
             + [c + right_suffix for c in right_cols])

    def project(side: int, cols: list[str], other: list[str],
                other_types: dict):
        def fn(b: pa.Table) -> pa.Table:
            n = len(b)
            out = {"abucket": pa.array(_bucket_of(b[key_col], num_buckets)),
                   "side": pa.array(np.full(n, side, dtype=np.int8)),
                   key_col: b[key_col], ts_col: b[ts_col]}
            for c in cols:
                out[c if side == 0 else c + right_suffix] = b[c]
            for c in other:
                name = c if side == 1 else c + right_suffix
                out[name] = pa.nulls(n, type=other_types[c])
            return pa.table({name: out[name] for name in order})
        return fn

    left_p = left_ds.map_batches(project(0, left_cols, right_cols, r_types),
                                 batch_format="pyarrow", zero_copy_batch=True)
    right_p = right_ds.map_batches(project(1, right_cols, left_cols, l_types),
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)
    both = left_p.union(right_p)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lcols = [key_col, ts_col] + left_cols
        rcols = [key_col, ts_col] + [c + right_suffix for c in right_cols]
        left = g.loc[g["side"] == 0, lcols].sort_values(ts_col,
                                                        kind="mergesort")
        right = g.loc[g["side"] == 1, rcols].sort_values(ts_col,
                                                         kind="mergesort")
        return pd.merge_asof(left, right, on=ts_col, by=key_col,
                             direction="backward")
    return both.groupby("abucket").map_groups(per_bucket,
                                              batch_format="pandas")


def _ts_i8(values: np.ndarray) -> np.ndarray:
    """Comparable numeric view of a ts column (datetime64 → int64)."""
    v = np.asarray(values)
    return v.view("i8") if v.dtype.kind in ("M", "m") else v


def _asof_join_split(left_ds, right_ds, *, hot: list, key_col: str,
                     ts_col: str, left_cols: list[str],
                     right_cols: list[str], right_suffix: str,
                     num_buckets: int, hot_ranges: int,
                     scratch_dir: str | None = None, filesystem=None):
    """Hot-key pre-split backward as-of join (see :func:`asof_join`).

    Hot keys' rows sub-bucket by (key, time range); each range group
    is made self-contained by injecting the carry-in row — the latest
    right row strictly before the range start, derived from per-block
    partial argmax rows (a key×range-scale table, never row-scale
    driver data). Per-range merge_asof over (own right rows ∪
    carry-in) then equals the unsplit match exactly: a left row's true
    match is either inside its own range or IS the carry-in."""
    import ray

    hot_arr = pa.array(hot)
    out_right = [c + right_suffix for c in right_cols]

    def split(ds, want_hot: bool):
        def fn(b: pa.Table) -> pa.Table:
            m = pc.is_in(b[key_col], value_set=hot_arr)
            return b.filter(m if want_hot else pc.invert(m))
        return ds.map_batches(fn, batch_format="pyarrow",
                              zero_copy_batch=True)

    cold = asof_join(split(left_ds, False), split(right_ds, False),
                     key_col=key_col, ts_col=ts_col, left_cols=left_cols,
                     right_cols=right_cols, right_suffix=right_suffix,
                     num_buckets=num_buckets)

    # The hot slice has three consumers (span minmax, pass A, pass B).
    # Spill it ONCE to parquet and stream each consumer from storage
    # — a `.materialize()` here would pin ~hot_frac of BOTH inputs in
    # the object store at once (with a 90%-hot key that is most of the
    # job's data; VERDICT r3). The spill goes through the state.fs
    # seam: pass ``scratch_dir`` on shared storage for multi-node runs
    # (spill tasks run on workers; later stages read from any node).
    # The directory is deleted once no plan that reads it is reachable.
    import uuid
    import weakref

    import ray.data as rd

    from ..state import fs as vfs

    if scratch_dir is None and filesystem is None:
        import tempfile
        spill_fs = pafs.LocalFileSystem()
        spill = tempfile.mkdtemp(prefix="ves_asof_hot_")
    else:
        spill_fs, root = vfs.resolve_fs(scratch_dir or ".", filesystem)
        spill = vfs.join(root, "ves_asof_hot_" + uuid.uuid4().hex[:12])
        vfs.makedirs(spill_fs, spill)

    def _spill_side(ds, name: str, schema_names, schema_types):
        path = vfs.join(spill, name)
        ds.write_parquet(path, filesystem=spill_fs)
        files = [vfs.join(path, f) for f in vfs.listdir(spill_fs, path)
                 if f.endswith(".parquet")]     # empty side: no dir
        if not files:          # empty hot side: typed empty dataset
            empty = pa.schema(list(zip(schema_names,
                                       schema_types))).empty_table()
            return lambda columns=None: rd.from_arrow(
                empty.select(columns) if columns else empty)
        return lambda columns=None: rd.read_parquet(
            files, filesystem=spill_fs, columns=columns)

    ls, rs = left_ds.schema(), right_ds.schema()
    hot_left = _spill_side(split(left_ds, True), "l", ls.names, ls.types)
    hot_right = _spill_side(split(right_ds, True), "r", rs.names,
                            rs.types)

    # -- time-range boundaries: global hot ts span, uniform slices ----
    def minmax(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        col = b[ts_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ts = _ts_i8(col.to_numpy(zero_copy_only=False))
        return pa.table({"lo": pa.array([int(ts.min())]),
                         "hi": pa.array([int(ts.max())])})

    spans = pd.concat([
        hot_left(columns=[ts_col])
        .map_batches(minmax, batch_format="pyarrow",
                     zero_copy_batch=True).to_pandas(),
        hot_right(columns=[ts_col])
        .map_batches(minmax, batch_format="pyarrow",
                     zero_copy_batch=True).to_pandas()])
    if len(spans) == 0:
        return cold
    lo, hi = int(spans["lo"].min()), int(spans["hi"].max())
    bounds = np.linspace(lo, hi, hot_ranges + 1)[1:-1]  # internal cuts

    def range_of(ts_values: np.ndarray) -> np.ndarray:
        return np.searchsorted(bounds, _ts_i8(ts_values),
                               side="right").astype(np.int64)

    # -- pass A: per-(key, range) latest right row → carry-in table --
    def right_partial(b: pa.Table) -> pd.DataFrame:
        cols = [key_col, ts_col] + right_cols
        df = b.select(cols).to_pandas()
        if len(df) == 0:
            df["_r"] = pd.Series([], dtype=np.int64)
            return df
        df["_r"] = range_of(df[ts_col].to_numpy())
        idx = df.groupby([key_col, "_r"])[ts_col].idxmax()
        return df.loc[idx]

    partials = (hot_right(columns=list(dict.fromkeys(
                    [key_col, ts_col] + right_cols)))
                .map_batches(right_partial,
                             batch_format="pyarrow").to_pandas())
    carry_idx, carry_r = [], []
    if len(partials):
        latest = partials.loc[partials.groupby([key_col, "_r"])[ts_col]
                              .idxmax()].sort_values([key_col, "_r"])
        for _, g in latest.groupby(key_col, sort=False):
            rs = g["_r"].to_numpy()
            idxs = g.index.to_numpy()
            for r in range(1, hot_ranges):
                pos = np.searchsorted(rs, r)   # latest row with _r < r
                if pos > 0:
                    carry_idx.append(idxs[pos - 1])
                    carry_r.append(r)
    if carry_idx:                # .loc gather keeps dtypes (incl. ts)
        carry = latest.loc[carry_idx].copy()
        carry["_r"] = np.asarray(carry_r, dtype=np.int64)
    else:
        carry = partials.iloc[:0].copy()
    # hot-key × hot_ranges rows at most — broadcast-small by design
    carry_ref = ray.put(carry)

    # -- pass B: (key, range)-bucketed union + per-bucket merge_asof --
    def sub_bucket(keys, ranges) -> np.ndarray:
        h = _bucket_of(keys, 1 << 30).astype(np.int64)
        return ((h + ranges * 0x9E3D) % num_buckets).astype(np.int32)

    order = (["abucket", "side", key_col, ts_col] + left_cols + out_right)
    l_schema = {c: t for c, t in zip(left_ds.schema().names,
                                     left_ds.schema().types)}
    r_schema = {c: t for c, t in zip(right_ds.schema().names,
                                     right_ds.schema().types)}

    def project(side: int, cols: list[str], other: list[str],
                other_types: dict):
        def fn(b: pa.Table) -> pa.Table:
            n = len(b)
            ts = b[ts_col]
            if isinstance(ts, pa.ChunkedArray):
                ts = ts.combine_chunks()
            r = range_of(ts.to_numpy(zero_copy_only=False))
            out = {"abucket": pa.array(sub_bucket(b[key_col], r)),
                   "side": pa.array(np.full(n, side, dtype=np.int8)),
                   key_col: b[key_col], ts_col: ts}
            for c in cols:
                out[c if side == 0 else c + right_suffix] = b[c]
            for c in other:
                name = c if side == 1 else c + right_suffix
                out[name] = pa.nulls(n, type=other_types[c])
            return pa.table({name: out[name] for name in order})
        return fn

    left_p = hot_left(columns=list(dict.fromkeys(
        [key_col, ts_col] + left_cols))).map_batches(
        project(0, left_cols, right_cols, r_schema),
        batch_format="pyarrow", zero_copy_batch=True)
    right_p = hot_right(columns=list(dict.fromkeys(
        [key_col, ts_col] + right_cols))).map_batches(
        project(1, right_cols, left_cols, l_schema),
        batch_format="pyarrow", zero_copy_batch=True)

    lout = [key_col, ts_col] + left_cols
    rout = [key_col, ts_col] + out_right

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        bid = int(g["abucket"].iloc[0])
        left = g.loc[g["side"] == 0, lout].sort_values(ts_col,
                                                       kind="mergesort")
        right = g.loc[g["side"] == 1, rout]
        cdf = ray.get(carry_ref)
        if len(cdf):
            sub = cdf[sub_bucket(pa.array(cdf[key_col]),
                                 cdf["_r"].to_numpy()) == bid]
            if len(sub):
                sub = sub[[key_col, ts_col] + right_cols].copy()
                sub.columns = rout
                right = pd.concat([right, sub], ignore_index=True)
        right = right.sort_values(ts_col, kind="mergesort")
        return pd.merge_asof(left, right, on=ts_col, by=key_col,
                             direction="backward")

    hot_out = (left_p.union(right_p).groupby("abucket")
               .map_groups(per_bucket, batch_format="pandas"))
    # repeated asof joins must not accumulate spill copies (ADVICE r4):
    # the spill lives exactly as long as the driver's ``per_bucket``.
    # The logical plan of the result, and of every Dataset derived from
    # it, holds that function (the copies pickled into workers carry no
    # finalizer), while the returned Dataset object itself may be
    # dropped before the lazy read runs.
    weakref.finalize(per_bucket, _rm_spill, spill_fs, spill)
    return cold.union(hot_out)


def range_join_bands(ds, bands: pa.Table, *, value_col: str,
                     lo_col: str = "lo", hi_col: str = "hi",
                     keep_band_cols: list[str] | None = None):
    """Range (non-equi) join against a SMALL sorted, non-overlapping
    interval table: each row matched to the band with
    ``lo <= value < hi``; unmatched rows are dropped (inner join).

    The band table is broadcast once (``ray.put``); each batch does
    one ``np.searchsorted`` against the sorted band bounds — no
    shuffle, no per-row Python. This is the broadcast-small-side
    shape for range joins; overlapping-interval joins need an
    interval tree per batch instead, same broadcast structure."""
    import ray

    order = np.argsort(bands[lo_col].to_numpy())
    bands = bands.take(pa.array(order))
    keep_band_cols = keep_band_cols or [
        c for c in bands.column_names if c not in (lo_col, hi_col)]
    ref = ray.put(bands)

    def match(b: pa.Table) -> pa.Table:
        bt = ray.get(ref)
        lo = bt[lo_col].to_numpy()
        hi = bt[hi_col].to_numpy()
        v = b[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vals = v.to_numpy(zero_copy_only=False)
        idx = np.searchsorted(lo, vals, side="right") - 1
        ok = (idx >= 0) & (vals < hi[np.maximum(idx, 0)])
        kept = b.filter(pa.array(ok))
        sel = idx[ok]
        out = kept
        for c in keep_band_cols:
            out = out.append_column(
                c, bt[c].combine_chunks().take(pa.array(sel)))
        return out

    return ds.map_batches(match, batch_format="pyarrow",
                          zero_copy_batch=True)


def interval_overlap_join(ds, intervals: pa.Table, *, value_col: str,
                          lo_col: str = "lo", hi_col: str = "hi",
                          keep_cols: list[str] | None = None):
    """ALL-matches join against a SMALL, possibly OVERLAPPING interval
    table: one output row per (input row, interval) pair with
    ``lo <= value < hi`` — the general form of
    :func:`range_join_bands` (which assumes disjoint bands and keeps
    one match).

    Broadcast once (``ray.put``); per batch the candidate window for
    each value is found with two ``np.searchsorted`` calls against the
    lo-sorted intervals (all candidates have ``lo`` in
    ``(value - max_len, value]`` where ``max_len = max(hi - lo)``),
    expanded with vectorized repeat/arange, then filtered by
    ``value < hi``. Output size per row is bounded by the number of
    intervals covering the value (the stabbing number), not the table
    size. No shuffle, no per-row Python."""
    import ray

    order = np.argsort(intervals[lo_col].to_numpy(), kind="stable")
    intervals = intervals.take(pa.array(order))
    keep_cols = keep_cols or [
        c for c in intervals.column_names if c not in (lo_col, hi_col)]
    ref = ray.put(intervals)

    def match(b: pa.Table) -> pa.Table:
        bt = ray.get(ref)
        lo = bt[lo_col].to_numpy()
        hi = bt[hi_col].to_numpy()
        max_len = float((hi - lo).max()) if len(lo) else 0.0
        v = b[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vals = v.to_numpy(zero_copy_only=False)
        hi_idx = np.searchsorted(lo, vals, side="right")
        lo_idx = np.searchsorted(lo, vals - max_len, side="left")
        counts = hi_idx - lo_idx
        rows = np.repeat(np.arange(len(vals), dtype=np.int64), counts)
        csum = np.concatenate([[0], np.cumsum(counts)])
        pos = np.arange(csum[-1], dtype=np.int64) - np.repeat(
            csum[:-1], counts)
        cand = np.repeat(lo_idx, counts) + pos
        ok = vals[rows] < hi[cand]        # lo[cand] <= value by search
        rows, cand = rows[ok], cand[ok]
        out = b.take(pa.array(rows))
        for c in keep_cols:
            col = bt[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            out = out.append_column(c, col.take(pa.array(cand)))
        return out

    return ds.map_batches(match, batch_format="pyarrow",
                          zero_copy_batch=True)


def _key_hash(col) -> np.ndarray:
    from ..hashing import hash_strings, splitmix64
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        return splitmix64(col.to_numpy(zero_copy_only=False)
                          .astype(np.uint64))
    return hash_strings(col, seed=0xB1)


def build_key_bloom(ds, key_col: str, *, num_bits: int = 1 << 23,
                    num_hashes: int = 4) -> np.ndarray:
    """Bloom filter (uint8 bitmap) of a key column, built distributed:
    each block ORs its keys into a local bitmap, the driver ORs the
    (small, num_bits/8-byte) partials. 8M bits ≈ 1 MB ≈ <1% false
    positives up to ~800k distinct keys; size up for bigger key sets.
    No false negatives ever — safe as a join prefilter."""
    def local(b: pa.Table) -> pa.Table:
        bits = np.zeros(num_bits // 8, dtype=np.uint8)
        h = _key_hash(b[key_col])
        for i in range(num_hashes):
            with np.errstate(over="ignore"):
                idx = ((h ^ (h >> np.uint64(29)))
                       * np.uint64(0x9E3779B97F4A7C15 + 2 * i + 1)
                       ) % np.uint64(num_bits)
            np.bitwise_or.at(bits, (idx >> np.uint64(3)).astype(np.int64),
                             np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))
        return pa.table({"bits": pa.array([bits.tobytes()],
                                          type=pa.binary())})

    parts = ds.map_batches(local, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    out = np.zeros(num_bits // 8, dtype=np.uint8)
    for blob in parts.get("bits", ()):
        out |= np.frombuffer(blob, dtype=np.uint8)
    return out


def bloom_filter_keys(ds, bloom_bits: np.ndarray, key_col: str, *,
                      num_hashes: int = 4):
    """Keep only rows whose key MIGHT be in the bloom (no false
    negatives). Broadcast once via ray.put; one vectorized probe per
    batch. The standard pre-shuffle prune: filter the 100-TB side
    against the selective side's keys before paying the exchange."""
    import ray
    num_bits = len(bloom_bits) * 8
    ref = ray.put(bloom_bits)

    def probe(b: pa.Table) -> pa.Table:
        bits = ray.get(ref)
        h = _key_hash(b[key_col])
        keep = np.ones(len(b), dtype=bool)
        for i in range(num_hashes):
            with np.errstate(over="ignore"):
                idx = ((h ^ (h >> np.uint64(29)))
                       * np.uint64(0x9E3779B97F4A7C15 + 2 * i + 1)
                       ) % np.uint64(num_bits)
            keep &= (bits[(idx >> np.uint64(3)).astype(np.int64)]
                     >> (idx & np.uint64(7)).astype(np.uint8)) & 1 == 1
        return b.filter(pa.array(keep))

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def hash_join(left_ds, right_ds, *, key_col: str, left_cols: list[str],
              right_cols: list[str], how: str = "inner",
              right_suffix: str = "_r", num_buckets: int = 64,
              bloom_prefilter: bool = False, bloom_bits: int = 1 << 23,
              right_agg: dict | None = None,
              left_types: dict | None = None,
              right_types: dict | None = None):
    """Hash-partitioned equi-join of two LARGE datasets (neither side
    broadcast — the repartition/shuffle join the broadcast-lookup
    enrich stage (stages.enrich) cannot replace once both sides
    exceed worker memory).

    Physical plan: both sides are projected onto one tagged common
    schema (hash-bucket of the key, side flag, key, union of payload
    columns with typed nulls for the absent side), unioned, and
    co-located with a single ``groupby(bucket)`` exchange; inside each
    bucket one ``pd.merge`` (C hash-join kernel) joins the two sides.
    Exactly one all-to-all for both inputs; no row-scale driver data.

    Partitioning assumptions (document per call site): ``num_buckets``
    must scale so one bucket (≈ both sides / num_buckets) fits a
    worker's heap; a pathologically hot KEY needs hot-key extraction
    (broadcast the hot keys' small side, shuffle-join the cold rest),
    which composes with this operator. ``how`` is "inner", "left",
    "full" (full outer), "semi" (EXISTS: left rows with a match, no
    right payload) or "anti" (NOT EXISTS: left rows without a match)
    — the shuffle forms of the broadcast EXISTS/anti patterns in
    pipelines.queries, for when the right side outgrows a broadcast.
    Every key's rows land in exactly one bucket, so each per-bucket
    join composes to the global result for all five types.
    """
    _JOIN_TYPES = {"inner": "inner", "left": "left outer",
                   "full": "full outer", "semi": "left semi",
                   "anti": "left anti"}
    if how not in _JOIN_TYPES:
        raise ValueError(f"unsupported join type: {how}")
    if how in ("semi", "anti") and right_cols:
        raise ValueError(f"how={how!r} emits no right payload; pass "
                         "right_cols=[]")
    if bloom_prefilter:
        # prune the (big) left side against the right's keys BEFORE the
        # exchange; inner/semi-only (left/full must keep misses; anti
        # KEEPS non-matches, which the bloom would drop). False
        # positives just ride the shuffle and miss in the join.
        if how not in ("inner", "semi"):
            raise ValueError("bloom_prefilter requires how='inner'/'semi'")
        bloom = build_key_bloom(right_ds, key_col, num_bits=bloom_bits)
        left_ds = bloom_filter_keys(left_ds, bloom, key_col)
    # Dataset.schema() on a lazy input whose lineage contains an
    # all-to-all EXECUTES that lineage — and the union below then
    # executes it AGAIN. Callers chaining joins should pass the known
    # column types explicitly to keep the upstream single-execution.
    if left_types is None:
        s = left_ds.schema()
        left_types = dict(zip(s.names, s.types))
    if right_types is None:
        s = right_ds.schema()
        right_types = dict(zip(s.names, s.types))
    l_types, r_types = dict(left_types), dict(right_types)
    out_right = [c + right_suffix if (c in left_cols or c == key_col) else c
                 for c in right_cols]
    order = ["jbucket", "side", key_col] + left_cols + out_right

    def project(side: int, cols: list[str], out_names: list[str],
                other_names: list[str], other_types: dict):
        def fn(b: pa.Table) -> pa.Table:
            n = len(b)
            out = {"jbucket": pa.array(_bucket_of(b[key_col], num_buckets)),
                   "side": pa.array(np.full(n, side, dtype=np.int8)),
                   key_col: b[key_col]}
            for c, name in zip(cols, out_names):
                out[name] = b[c]
            for name, t in zip(other_names, other_types):
                out[name] = pa.nulls(n, type=t)
            return pa.table({name: out[name] for name in order})
        return fn

    left_p = left_ds.map_batches(
        project(0, left_cols, left_cols, out_right,
                [r_types[c] for c in right_cols]),
        batch_format="pyarrow", zero_copy_batch=True)
    right_p = right_ds.map_batches(
        project(1, right_cols, out_right, left_cols,
                [l_types[c] for c in left_cols]),
        batch_format="pyarrow", zero_copy_batch=True)
    both = left_p.union(right_p)

    # Arrow-native per-bucket kernel: pa.Table.join (Acero hash join)
    # replaces the former pandas merge — no pandas round-trip, no
    # float promotion of typed nulls, identical schema from every
    # bucket by construction (a left-outer join emits typed nulls).
    # Semantics note vs pandas merge: NULL keys never match (SQL
    # semantics); the projected key column comes from real input rows.
    agg_out = {(c + right_suffix if (c in left_cols or c == key_col)
                else c): a for c, a in (right_agg or {}).items()}
    join_type = _JOIN_TYPES[how]
    final_order = ([key_col] + left_cols
                   + ([] if how in ("semi", "anti") else out_right))

    exp_types = {key_col: l_types[key_col]}
    exp_types.update({c: l_types[c] for c in left_cols})
    exp_types.update({oc: r_types[c]
                      for c, oc in zip(right_cols, out_right)})

    def per_bucket(g: pa.Table) -> pa.Table:
        # Empty upstream blocks (e.g. from a pandas map_groups stage)
        # carry null-typed columns; Acero rejects null join fields, so
        # restore the declared types before joining.
        for i, name in enumerate(g.column_names):
            t = exp_types.get(name)
            if t is not None and pa.types.is_null(g.column(i).type):
                g = g.set_column(i, name, pa.nulls(len(g), type=t))
        side = g["side"]
        left = g.filter(pc.equal(side, 0)).select([key_col] + left_cols)
        right = g.filter(pc.equal(side, 1)).select([key_col] + out_right)
        if agg_out:
            # join-aggregate fusion: the bucket exchange already
            # co-locates each key's rows, so a groupby-aggregate that
            # would otherwise need its OWN all-to-all (e.g. collapsing
            # per-block partials keyed near-uniquely) folds into one
            # vectorized Arrow groupby here — one exchange total
            # instead of two over the big side.
            gb = pa.TableGroupBy(right, [key_col]).aggregate(
                list(agg_out.items()))
            right = gb.rename_columns([key_col] + list(agg_out))
        joined = left.join(right, keys=key_col, join_type=join_type)
        return joined.select(final_order).combine_chunks()

    return both.groupby("jbucket").map_groups(per_bucket,
                                              batch_format="pyarrow")


def find_hot_keys(ds, key_col: str, *, frac: float = 0.01,
                  per_block_top: int = 16) -> set:
    """Approximate hot-key detection without an exchange: each block
    reports its top-``per_block_top`` keys with counts (plus its row
    count); the driver sums the (tiny) partials and returns keys whose
    observed share exceeds ``frac``. A genuinely hot key is hot in
    most blocks, so truncating to a per-block top-k can only
    UNDER-count it by a bounded amount — fine for a routing decision
    (a missed borderline key just rides the ordinary shuffle)."""
    def top_keys(b: pa.Table) -> pa.Table:
        g = (pa.TableGroupBy(b.select([key_col]), [key_col])
             .aggregate([([], "count_all")]))
        counts = g.column(1).to_numpy(zero_copy_only=False)
        k = min(per_block_top, len(counts))
        order = np.argsort(-counts, kind="stable")[:k]
        top = g.take(pa.array(order))
        return pa.table({key_col: top.column(0), "n": top.column(1)})

    parts = ds.map_batches(top_keys, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    if len(parts) == 0:
        return set()
    # denominator: the sum of reported counts — a lower bound on total
    # rows (per-block truncation drops tail keys), so shares are
    # slightly OVER-estimated and borderline keys get flagged hot:
    # harmless, they just take the broadcast path
    denom = max(int(parts["n"].sum()), 1)
    agg = parts.groupby(key_col)["n"].sum()
    return set(agg[agg / denom > frac].index)


def grouped_topk(ds, *, key_col: str, order_cols: list[str],
                 ascending: list[bool], k: int, keep_cols: list[str],
                 num_buckets: int = 64, hot_frac: float | None = None,
                 hot_salt: int = 16):
    """Top-k rows per key by sort order (the window-rank primitive:
    ROW_NUMBER() OVER (PARTITION BY key ORDER BY ...) <= k), with an
    explicit ``rk`` column. One bucket shuffle; per bucket a single
    sort + vectorized per-key head.

    Skew: with ``hot_frac`` set, keys owning more than that share of
    rows are pre-split — their rows salt across ``hot_salt``
    sub-partitions, each computes a LOCAL top-k, and a second (tiny:
    k × hot_salt rows per hot key) exchange merges the partials into
    the exact global top-k. Top-k is a semilattice merge, so the
    result is identical to the unsplit path; no single group ever
    holds a hot key's full row set."""
    sort_cols = [key_col] + order_cols
    sort_asc = [True] + list(ascending)

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column("abucket",
                               pa.array(_bucket_of(b[key_col], num_buckets)))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, ascending=sort_asc, kind="mergesort")
        rk = g.groupby(key_col, sort=False).cumcount() + 1
        out = g.loc[rk <= k, [key_col] + keep_cols].copy()
        out["rk"] = rk[rk <= k].astype(np.int64)
        return out

    hot = find_hot_keys(ds, key_col, frac=hot_frac) if hot_frac else set()
    if not hot:
        bucketed = ds.map_batches(add_bucket, batch_format="pyarrow",
                                  zero_copy_batch=True)
        return bucketed.groupby("abucket").map_groups(per_bucket,
                                                      batch_format="pandas")

    hot_list = pa.array(sorted(hot))
    payload = list(dict.fromkeys([key_col] + order_cols + keep_cols))

    def split(want_hot: bool):
        def fn(b: pa.Table) -> pa.Table:
            m = pc.is_in(b[key_col], value_set=hot_list)
            return b.filter(m if want_hot else pc.invert(m))
        return fn

    cold = ds.map_batches(split(False), batch_format="pyarrow",
                          zero_copy_batch=True) \
        .map_batches(add_bucket, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby("abucket").map_groups(per_bucket, batch_format="pandas")

    def add_salted_bucket(b: pa.Table) -> pa.Table:
        # sub-partition hot keys: any deterministic spread works (the
        # local-then-merge top-k is partition-invariant)
        h = _bucket_of(b[key_col], 1 << 30).astype(np.int64)
        salt = np.arange(len(b), dtype=np.int64) % hot_salt
        return b.select(payload).append_column(
            "abucket",
            pa.array(((h + salt * 0x9E3D) % num_buckets).astype(np.int32)))

    def local_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, ascending=sort_asc, kind="mergesort")
        rk = g.groupby(key_col, sort=False).cumcount() + 1
        return g.loc[rk <= k, payload]

    hot_partials = (ds.map_batches(split(True), batch_format="pyarrow",
                                   zero_copy_batch=True)
                    .map_batches(add_salted_bucket, batch_format="pyarrow",
                                 zero_copy_batch=True)
                    .groupby("abucket").map_groups(local_topk,
                                                   batch_format="pandas"))
    hot_final = (hot_partials.map_batches(add_bucket,
                                          batch_format="pyarrow",
                                          zero_copy_batch=True)
                 .groupby("abucket").map_groups(per_bucket,
                                                batch_format="pandas"))
    return cold.union(hot_final)
