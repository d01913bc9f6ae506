"""Cardinality sketches: HyperLogLog-style approximate distinct
counts (Flajolet et al. 2007, public algorithm).

The exact distinct-count (see queries.q_events_by_type) pays a
full exchange of (group, key) pairs; at 100 TB the sketch form is the
one that scales: each block folds its keys into a fixed 2^p-register
array (one vectorized pass), registers MERGE by elementwise max —
associative, commutative, tiny — so the driver combine is
O(blocks × 2^p) bytes and NO shuffle of row-scale data ever happens.
Standard error ≈ 1.04/√(2^p) (~1.6% at p=12).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import U64, hash_strings, splitmix64
from .aggregate import combine_pandas


def _hash_col(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        return splitmix64(col.to_numpy(zero_copy_only=False).astype(U64))
    return hash_strings(col, seed=0x11C)


def _registers(h: np.ndarray, p: int) -> np.ndarray:
    """Fold a hash stream into 2^p HLL registers (vectorized)."""
    m = 1 << p
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
    # rank = leading zeros of the remaining bits + 1, via bit_length
    lz = np.zeros(len(h), dtype=np.int64)
    v = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):       # branchless CLZ, 6 steps
        mask = v < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += shift
        v[mask] = v[mask] << np.uint64(shift)
    rank = np.minimum(lz + 1, 64 - p + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:             # small-range correction
        est = m * np.log(m / zeros)
    return float(est)


def approx_distinct(ds, col: str, *, p: int = 12) -> int:
    """Approximate distinct count of ``col`` (~1.6% error at p=12)."""
    def local(b: pa.Table) -> pa.Table:
        regs = _registers(_hash_col(b[col]), p)
        return pa.table({"regs": pa.array([regs.tobytes()],
                                          type=pa.binary())})

    parts = ds.map_batches(local, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for blob in parts.get("regs", ()):
        np.maximum(merged, np.frombuffer(blob, dtype=np.uint8),
                   out=merged)
    return round(_estimate(merged))


# --------------------------------------------------------------------------
# DDSketch-style relative-error quantiles (Masson, Rim & Lee, VLDB 2019 —
# public algorithm): log-γ bucketed counts, mergeable by plain addition.
# --------------------------------------------------------------------------
# Total-order bucket keys: positives map to ceil(log_γ v) (small ints,
# |key| ≤ ~40k for any finite double at α=0.01); zero and negatives get
# disjoint, order-preserving ranges far below that band.
_DD_ZERO_KEY = -100_000_000
_DD_NEG_BASE = -200_000_000


def _dd_keys(v: np.ndarray, log_gamma: float) -> np.ndarray:
    """Vectorized value → total-ordered bucket key (handles sign/zero)."""
    key = np.empty(len(v), dtype=np.int64)
    pos, neg = v > 0, v < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        key[pos] = np.ceil(np.log(v[pos]) / log_gamma).astype(np.int64)
        key[neg] = _DD_NEG_BASE - np.ceil(
            np.log(-v[neg]) / log_gamma).astype(np.int64)
    key[v == 0] = _DD_ZERO_KEY
    return key


def _dd_estimate(keys: np.ndarray, gamma: float) -> np.ndarray:
    """Bucket key → midpoint value estimate (γ-relative-error bound)."""
    out = np.zeros(len(keys), dtype=np.float64)
    pos = keys > _DD_ZERO_KEY
    neg = keys < _DD_ZERO_KEY
    out[pos] = 2.0 * np.power(gamma, keys[pos].astype(np.float64)) \
        / (gamma + 1.0)
    out[neg] = -2.0 * np.power(
        gamma, (_DD_NEG_BASE - keys[neg]).astype(np.float64)) \
        / (gamma + 1.0)
    return out


def ddsketch_quantiles(ds, value_col: str, *, group_col: str | None = None,
                       qs: tuple[float, ...] = (0.5, 0.95, 0.99),
                       rel_err: float = 0.01):
    """Mergeable quantile sketch with a GUARANTEED relative-error bound
    (|est − true| ≤ rel_err·|true|), the scale path where exact
    ``sort``-based quantiles pay an all-to-all: each block folds its
    values into a tiny (group, log-bucket) count histogram — one
    vectorized pass — and histograms merge by addition, so the driver
    combine is sketch-scale (groups × ~few-k buckets) and NO row-scale
    shuffle happens. Returns a pandas DataFrame
    (group?, q, est) with ``est`` rounded to 6 dp.

    Deterministic given the data (no RNG), and the bucket map is plain
    ``ceil(ln v / ln γ)``, so a DuckDB oracle reproduces it exactly
    (see SQL_VALUE_DDSKETCH) — a rare full value-hash check for an
    approximate-sketch operator."""
    import pandas as pd

    gamma = (1 + rel_err) / (1 - rel_err)
    log_gamma = float(np.log(gamma))
    gcols = [group_col] if group_col else []

    def local(b: pa.Table) -> pa.Table:
        col = b[value_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        mask = pc.is_valid(col)
        v = col.filter(mask).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        keys = _dd_keys(v, log_gamma)
        if group_col:
            g = b[group_col]
            if isinstance(g, pa.ChunkedArray):
                g = g.combine_chunks()
            enc = g.filter(mask).dictionary_encode()
            gidx = enc.indices.to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            combo = gidx * np.int64(1 << 32) + (keys - _DD_NEG_BASE)
            uniq, counts = np.unique(combo, return_counts=True)
            out_g = pc.take(enc.dictionary,
                            pa.array(uniq >> np.int64(32)))
            out_k = (uniq & np.int64((1 << 32) - 1)) + _DD_NEG_BASE
            return pa.table({group_col: out_g,
                             "bkt": pa.array(out_k),
                             "n": pa.array(counts.astype(np.int64))})
        uniq, counts = np.unique(keys, return_counts=True)
        return pa.table({"bkt": pa.array(uniq),
                         "n": pa.array(counts.astype(np.int64))})

    merged = combine_pandas(ds.map_batches(local, batch_format="pyarrow",
                                           zero_copy_batch=True),
                            gcols + ["bkt"], {"n": ("n", "sum")})

    rows = []
    groups = merged.groupby(group_col) if group_col else [(None, merged)]
    for gval, sub in groups:
        sub = sub.sort_values("bkt")
        cum = sub["n"].cumsum().to_numpy()
        total = int(cum[-1])
        bkts = sub["bkt"].to_numpy()
        for q in qs:
            rank = max(1, int(np.ceil(q * total)))
            b = bkts[np.searchsorted(cum, rank, side="left")]
            est = round(float(_dd_estimate(
                np.array([b], dtype=np.int64), gamma)[0]), 6)
            rows.append(((gval,) if group_col else ()) + (q, est))
    cols = gcols + ["q", "est"]
    return pd.DataFrame(rows, columns=cols) \
        .sort_values(cols[:-1], ignore_index=True)


def grouped_approx_distinct(ds, group_col: str, key_col: str, *,
                            p: int = 12):
    """Per-group approximate distinct counts: each block emits one
    register blob per group present; the (tiny) blobs groupby-merge by
    elementwise max. Returns a pandas DataFrame
    (group, approx_distinct) — output is group-scale."""
    import pandas as pd

    def local(b: pa.Table) -> pa.Table:
        h = _hash_col(b[key_col])
        groups = b[group_col]
        if isinstance(groups, pa.ChunkedArray):
            groups = groups.combine_chunks()
        enc = groups.dictionary_encode()
        gidx = enc.indices.to_numpy(zero_copy_only=False)
        out_g, out_r = [], []
        for gi, gval in enumerate(enc.dictionary.to_pylist()):
            regs = _registers(h[gidx == gi], p)
            out_g.append(gval)
            out_r.append(regs.tobytes())
        return pa.table({group_col: pa.array(out_g),
                         "regs": pa.array(out_r, type=pa.binary())})

    parts = ds.map_batches(local, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    rows = []
    for g, sub in parts.groupby(group_col):
        merged = np.zeros(1 << p, dtype=np.uint8)
        for blob in sub["regs"]:
            np.maximum(merged, np.frombuffer(blob, dtype=np.uint8),
                       out=merged)
        rows.append((g, round(_estimate(merged))))
    return pd.DataFrame(rows, columns=[group_col, "approx_distinct"]) \
        .sort_values(group_col, ignore_index=True)


def histogram_quantiles(ds, value_col: str, group_col: str, *,
                        quantiles=((1, 4), (1, 2), (19, 20))):
    """EXACT grouped discrete quantiles without a per-group gather —
    the scale path when groups are few but huge (the gather-based
    ``value_quantiles`` concentrates a whole group on one task; the
    DDSketch path is approximate). Requires an integer value column
    with a bounded-cardinality domain (e.g. cents of a bounded
    metric): the exchange is the (group, value, count) HISTOGRAM —
    O(groups × distinct values), independent of row count.

    ``quantiles`` are exact rationals (num, den); the selected value
    matches DuckDB's quantile_disc: smallest v whose cumulative count
    reaches ceil(q·n) in value order. Returns a pandas DataFrame
    (group, q_<num>_<den> ...); output is group-scale.
    """
    import pandas as pd

    hist = combine_pandas(ds, [group_col, value_col],
                          {"n": ([], "count_all")})

    rows = []
    for gval, sub in hist.groupby(group_col):
        sub = sub.sort_values(value_col, ignore_index=True)
        counts = sub["n"].to_numpy(dtype=np.int64)
        cum = np.cumsum(counts)
        n = int(cum[-1])
        row = {group_col: gval}
        for num, den in quantiles:
            target = -(-num * n // den)          # ceil(q*n), exact
            i = int(np.searchsorted(cum, target, side="left"))
            row[f"q_{num}_{den}"] = int(sub[value_col].iloc[i])
        rows.append(row)
    return pd.DataFrame(rows).sort_values(group_col, ignore_index=True)
