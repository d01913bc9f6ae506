"""Deterministic sampling operators for training-data mixing.

Stratified (per-stratum rate) hash sampling: the standard way to hit a
target source mixture ("2% of crawl, 40% of books, ...") over a corpus
that cannot be shuffled or counted first. Every row's keep/drop
decision is a pure function of its id and its stratum's rate, so the
sample is reproducible, resumable (a re-run of a failed shard picks
the same rows), and needs NO shuffle, no global state and no RNG —
one stateless ``map_batches`` pass with the tiny rate table broadcast.

Integer ids use ``id % denom`` as the uniform variate (exactly
reproducible in SQL for the DuckDB oracle); string ids use the
vectorized splitmix-based ``hash_strings`` (same determinism, no SQL
parity — document per call site).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import U64, hash_strings, splitmix64
from .aggregate import combine_pandas, empty_like, gather
from .exchange import _group_starts, bucket_exchange, exchange_groups


def stratified_sample(ds, rate_units: dict[str, int], *,
                      strata_col: str, id_col: str, denom: int = 10_000,
                      default_units: int = 0):
    """Keep each row iff ``uniform(id) < rate_units[stratum]`` where
    ``uniform`` is ``id % denom`` (int ids) or ``hash(id) % denom``
    (string ids). ``rate_units`` maps stratum → units out of
    ``denom`` (e.g. {"crawl": 200} with denom=10000 → 2%); strata
    absent from the map get ``default_units``."""
    import ray
    ref = ray.put(dict(rate_units))

    def keep(b: pa.Table) -> pa.Table:
        units = ray.get(ref)
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        if pa.types.is_integer(ids.type):
            u = (ids.to_numpy(zero_copy_only=False).astype(np.uint64)
                 % np.uint64(denom))
        else:
            u = hash_strings(ids, seed=0x5E) % np.uint64(denom)
        strata = b[strata_col]
        if isinstance(strata, pa.ChunkedArray):
            strata = strata.combine_chunks()
        # dictionary-encode the stratum column once per batch; map the
        # (few) distinct strata through the rate dict, then gather
        enc = strata.dictionary_encode()
        dict_rates = np.array([units.get(s, default_units)
                               for s in enc.dictionary.to_pylist()],
                              dtype=np.uint64)
        row_rates = dict_rates[enc.indices.to_numpy(zero_copy_only=False)]
        return b.filter(pa.array(u < row_rates))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def _id_hash(b: pa.Table, id_col: str, seed: int) -> np.ndarray:
    ids = b[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    if pa.types.is_integer(ids.type):
        raw = ids.to_numpy(zero_copy_only=False).astype(U64)
        return splitmix64(raw ^ U64(seed))
    return hash_strings(ids, seed=seed)


def bottom_k_sample(ds, *, k: int, id_col: str, seed: int = 0) -> pa.Table:
    """EXACT uniform k-sample without replacement: the k rows whose
    ``splitmix64(id ^ seed)`` is globally smallest. splitmix64 is a
    bijection on uint64, so distinct ids never tie — the sample is the
    prefix of a deterministic total order, identical under task
    retries, resumes, and any cluster size (unlike
    ``Dataset.random_sample``, which is per-run).

    Distributed as a semilattice merge: each block keeps its local
    bottom-k (vectorized ``argpartition``), the driver merges the
    O(blocks × k) candidate rows and takes the global bottom-k — no
    shuffle, no sort of the corpus. Returns an in-memory ``pa.Table``
    (output is k-scale by construction) sorted by the hash, with the
    hash exposed as uint64 column ``h`` (SQL-mirrorable via
    ``hashing.sql_splitmix64`` for integer ids).
    """
    def local(b: pa.Table) -> pa.Table:
        h = _id_hash(b, id_col, seed)
        if len(h) > k:
            idx = np.argpartition(h, k)[:k]
            idx.sort()
            b = b.take(pa.array(idx))
            h = h[idx]
        return b.append_column("h", pa.array(h, type=pa.uint64()))

    cand = gather(ds.map_batches(local, batch_format="pyarrow",
                                 zero_copy_batch=True),
                  lambda: local(empty_like(ds)))
    return cand.take(pc.sort_indices(cand["h"])[:k])


def weighted_sample_k(ds, *, k: int, id_col: str, weight_col: str,
                      seed: int = 0) -> pa.Table:
    """Weighted k-sample WITHOUT replacement (Efraimidis & Spirakis
    2006, public algorithm), deterministic: each row's key is
    ``u^(1/w)`` with ``u = splitmix64(id ^ seed) / 2^64`` and ``w``
    its positive weight; the k largest keys are the sample — inclusion
    probability ∝ weight, exact target size, no RNG. Same distributed
    shape as :func:`bottom_k_sample`: per-block top-k (lexsort on
    (key desc, id asc) for tie determinism), O(blocks × k) driver
    merge. Rows with ``w <= 0`` are excluded. Returns the selected
    rows sorted by id (the float key is dropped — all-deterministic
    selection, so the DuckDB oracle reproduces the identical set)."""
    def local(b: pa.Table) -> pa.Table:
        w = b[weight_col]
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        wv = w.to_numpy(zero_copy_only=False).astype(np.float64)
        pos = wv > 0
        if not pos.all():
            b = b.filter(pa.array(pos))
            wv = wv[pos]
        h = _id_hash(b, id_col, seed)
        u = h.astype(np.float64) / 2.0 ** 64
        key = u ** (1.0 / wv)
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        order = np.lexsort((ids.to_numpy(zero_copy_only=False), -key))
        sel = np.sort(order[:k])
        return b.take(pa.array(sel)).append_column(
            "_wkey", pa.array(key[sel]))

    cand = gather(ds.map_batches(local, batch_format="pyarrow",
                                 zero_copy_batch=True),
                  lambda: local(empty_like(ds)))
    top = cand.take(pc.sort_indices(
        cand, [("_wkey", "descending"), (id_col, "ascending")])[:k])
    return top.drop_columns(["_wkey"]).sort_by(id_col)


def weighted_sample(ds, *, id_col: str, units_col: str,
                    denom: int = 10_000, seed: int = 0,
                    keep_units: bool = True):
    """Poisson (independent-Bernoulli) weighted sample: keep a row iff
    ``splitmix64(id ^ seed) % denom < units`` where ``units_col`` is
    the row's integer inclusion weight out of ``denom`` (callers derive
    it from length / quality / source priority with ``add_column``).
    The standard way to sample ∝ weight over a corpus that can't be
    counted or shuffled first: one stateless ``map_batches`` pass, no
    RNG, reproducible under retry/resume, and — unlike
    ``stratified_sample``'s raw ``id % denom`` — robust to structured
    id spaces because the decision rides the bijective hash.
    All-integer, so the DuckDB oracle (``hashing.sql_splitmix64``)
    matches bit-for-bit."""
    def keep(b: pa.Table) -> pa.Table:
        u = _id_hash(b, id_col, seed) % U64(denom)
        units = b[units_col]
        if isinstance(units, pa.ChunkedArray):
            units = units.combine_chunks()
        w = units.to_numpy(zero_copy_only=False).astype(np.int64)
        out = b.filter(pa.array(u.astype(np.int64) < w))
        if not keep_units:
            out = out.drop_columns([units_col])
        return out

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def hash_split(ds, *, id_col: str, fractions: dict[str, int],
               denom: int = 10_000, seed: int = 0,
               split_col: str = "split"):
    """Deterministic train/val/test assignment: ``splitmix64(id ^
    seed) % denom`` is thresholded against cumulative ``fractions``
    (label → units out of ``denom``, in dict order; must sum to
    ``denom``). Every row's split is a pure function of its id — stable
    across runs, resumes and repartitioning, so a document can never
    leak from train to test between pipeline versions. One stateless
    ``map_batches`` pass, no shuffle."""
    if sum(fractions.values()) != denom:
        raise ValueError(f"fractions must sum to denom={denom}: "
                         f"{fractions}")
    labels = list(fractions)
    cuts = np.cumsum([fractions[s] for s in labels]).astype(np.int64)
    label_arr = pa.array(labels, type=pa.string())

    def assign(b: pa.Table) -> pa.Table:
        u = (_id_hash(b, id_col, seed) % U64(denom)).astype(np.int64)
        idx = np.searchsorted(cuts, u, side="right")
        return b.append_column(
            split_col, pc.take(label_arr, pa.array(idx)))

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


def token_budget_select(ds, *, budget: int, strata_col: str,
                        id_col: str, weight_col: str,
                        range_bits: int = 6, num_buckets: int = 32,
                        cum_col: str = "cum_tok"):
    """Cap every stratum at ``budget`` total weight (tokens), keeping
    rows in deterministic ``splitmix64(id)`` order — the mixture-
    rebalancing primitive for "at most N tokens of each source",
    reproducible across runs and resumes (selection is a pure function
    of the data).

    A grouped ordered prefix-sum, shaped for 100 TB:

    1. ``skey = splitmix64(id)`` range-partitions each stratum into
       ``2**range_bits`` uniform sub-ranges (top bits of a uniform
       u64 — fixed boundaries, no sampling pass).
    2. Per-block partial sums per (stratum, range) stream to the
       driver — O(blocks × strata × ranges) tiny rows, the same
       driver-combine shape the flagship's route stats use — and an
       exclusive prefix over ranges gives each sub-range's starting
       offset.
    3. Rows whose sub-range already starts past the budget are
       dropped BEFORE the exchange (broadcast offset table), so the
       single all-to-all carries only ~budget-scale candidates.
    4. One ``bucket_exchange`` on (stratum, range); one vectorized
       scan per partition (sort + grouped cumsum + offset) emits rows
       with global running total ≤ budget.

    Rows keep ``id, strata, weight`` plus ``cum_col`` (the global
    running total in selection order). A single row heavier than the
    remaining budget is dropped, as is everything after it in its
    sub-range — exactly ``WHERE cum <= budget`` under
    ``SUM() OVER (PARTITION BY stratum ORDER BY skey, id)``."""
    import ray

    n_ranges = 1 << range_bits

    def prep(b: pa.Table) -> pa.Table:
        skey = _id_hash(b, id_col, 0)       # splitmix64(id), seed 0
        return pa.table({
            id_col: b[id_col],
            strata_col: b[strata_col],
            weight_col: b[weight_col],
            "skey": pa.array(skey, type=pa.uint64()),
            "rbucket": pa.array((skey >> np.uint64(64 - range_bits))
                                .astype(np.int64))})

    keyed = ds.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()

    sums = combine_pandas(keyed, [strata_col, "rbucket"],
                          {"w": (weight_col, "sum")})
    if len(sums) == 0:
        return keyed.drop_columns(["rbucket"])
    sums = sums.sort_values([strata_col, "rbucket"])
    sums["offset"] = (sums.groupby(strata_col)["w"].cumsum()
                      - sums["w"]).astype(np.int64)
    offsets = sums.loc[sums["offset"] < budget,
                       [strata_col, "rbucket", "offset"]]
    off_ref = ray.put(pa.Table.from_pandas(offsets, preserve_index=False))

    def prune(b: pa.Table) -> pa.Table:
        return b.join(ray.get(off_ref), [strata_col, "rbucket"],
                      join_type="inner")

    cands = keyed.map_batches(prune, batch_format="pyarrow",
                              zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([(c, "ascending")
                       for c in (strata_col, "rbucket", "skey", id_col)])
        starts = _group_starts(t, [strata_col, "rbucket"])
        cs = np.cumsum(t[weight_col].to_numpy())
        # running weight within each (stratum, range) run
        before = np.repeat(np.append(0, cs)[starts[:-1]], np.diff(starts))
        cum = (t["offset"].to_numpy() + cs - before).astype(np.int64)
        keep = cum <= budget
        return (t.select([id_col, strata_col, weight_col]).filter(keep)
                .append_column(cum_col, pa.array(cum[keep])))

    return bucket_exchange(cands, [strata_col, "rbucket"], per_bucket,
                           num_buckets=num_buckets)


def global_shuffle_rank(ds, *, id_col: str, seed: int = 0,
                        range_bits: int = 6, pos_col: str = "pos"):
    """Deterministic epoch shuffle with EXPLICIT global positions:
    every row gets its rank under the total order ``splitmix64(id ^
    seed)`` — the "shuffle the corpus for epoch k" primitive, as a
    pure function of the data (reproducible across runs, resumes and
    cluster sizes; a new seed is a new permutation).

    Unlike ``random_shuffle()`` (which is an all-to-all exchange with
    non-reproducible block order), this computes the position each row
    WOULD land at, so a downstream consumer can range-read any slice
    of the epoch without materializing the permutation:

    1. ``skey = splitmix64(id ^ seed)`` — a bijection on uint64, so
       distinct integer ids never tie and the order is total.
    2. The top ``range_bits`` bits of skey range-partition the corpus
       into ``2**range_bits`` uniform sub-ranges (fixed boundaries, no
       sampling pass). Size range_bits so corpus/2**range_bits rows
       fit one task (e.g. 14 → 16k ranges at 100 TB).
    3. Per-block counts per sub-range stream to the driver —
       O(blocks × ranges) tiny rows — and an exclusive prefix sum
       gives each sub-range's starting offset (broadcast back).
    4. One call per sub-range sorts its rows by skey and emits
       ``pos = offset + local_rank``. The only exchange is on the
       range key; each group carries just (id, skey).

    SQL oracle shape: ``ROW_NUMBER() OVER (ORDER BY splitmix64(id))
    - 1`` (see hashing.sql_splitmix64 for the bit-exact mirror).
    """
    import ray

    def prep(b: pa.Table) -> pa.Table:
        skey = _id_hash(b, id_col, seed)
        return pa.table({
            id_col: b[id_col],
            "skey": pa.array(skey, type=pa.uint64()),
            "rbucket": pa.array((skey >> np.uint64(64 - range_bits))
                                .astype(np.int64))})

    keyed = ds.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()

    sums = combine_pandas(keyed, ["rbucket"], {"n": ([], "count_all")})
    counts = np.zeros(1 << range_bits, dtype=np.int64)
    if len(sums):
        counts[sums["rbucket"].to_numpy()] = sums["n"].to_numpy()
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    off_ref = ray.put(offsets)

    def per_range(g: pa.Table) -> pa.Table:
        off = ray.get(off_ref)
        rb = g["rbucket"][0].as_py()
        order = np.argsort(g["skey"].to_numpy(), kind="stable")
        pos = np.empty(len(g), dtype=np.int64)
        pos[order] = off[rb] + np.arange(len(g), dtype=np.int64)
        return pa.table({id_col: g[id_col], pos_col: pos})

    return exchange_groups(keyed, "rbucket", per_range)


def curriculum_rank(ds, *, band_col: str, id_col: str, seed: int = 0,
                    range_bits: int = 6, pos_col: str = "pos"):
    """Curriculum schedule with EXPLICIT global positions: every row's
    rank under the total order (band ASC, splitmix64(id ^ seed)) —
    "serve band 0 first, shuffled within band, then band 1, ..." as a
    pure function of the data, so an epoch consumer can range-read any
    slice of the schedule without materializing the permutation (same
    contract as :func:`global_shuffle_rank`, which this generalizes
    with a band-major key).

    Shape: the range key is band · 2^range_bits + top skey bits —
    numeric order IS schedule order, so the per-sub-range offsets are
    one exclusive prefix sum over the observed sub-range counts
    (O(blocks × ranges) driver rows, never row-scale); one call per
    sub-range then sorts by skey and emits pos = offset + local rank.
    The only exchange carries (id, band, skey). Bands can be any
    non-negative int64 (quality deciles, difficulty tiers, mixture
    stages); skew needs no handling — skey bits split every band
    uniformly across 2^range_bits sub-ranges.

    SQL oracle shape: ``ROW_NUMBER() OVER (ORDER BY band,
    splitmix64(id ^ seed)) - 1`` (hashing.sql_splitmix64 mirrors the
    hash bit-for-bit)."""
    import ray

    n_sub = np.int64(1 << range_bits)

    def prep(b: pa.Table) -> pa.Table:
        skey = _id_hash(b, id_col, seed)
        band = b[band_col]
        if isinstance(band, pa.ChunkedArray):
            band = band.combine_chunks()
        bv = band.to_numpy(zero_copy_only=False).astype(np.int64)
        rb = bv * n_sub + (skey >> np.uint64(64 - range_bits)) \
            .astype(np.int64)
        return pa.table({
            id_col: b[id_col],
            band_col: pa.array(bv),
            "skey": pa.array(skey, type=pa.uint64()),
            "rbucket": pa.array(rb)})

    keyed = ds.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()

    sums = combine_pandas(keyed, ["rbucket"], {"n": ([], "count_all")})
    if len(sums):
        sums = sums.sort_values("rbucket")
        rbs = sums["rbucket"].to_numpy(dtype=np.int64)
        offs = np.concatenate(([0], np.cumsum(sums["n"].to_numpy())[:-1]))
    else:
        rbs = np.empty(0, dtype=np.int64)
        offs = np.empty(0, dtype=np.int64)
    off_ref = ray.put((rbs, offs))

    def per_range(g: pa.Table) -> pa.Table:
        rbs_, offs_ = ray.get(off_ref)
        base = offs_[np.searchsorted(rbs_, g["rbucket"][0].as_py())]
        order = np.argsort(g["skey"].to_numpy(), kind="stable")
        pos = np.empty(len(g), dtype=np.int64)
        pos[order] = base + np.arange(len(g), dtype=np.int64)
        return pa.table({id_col: g[id_col], band_col: g[band_col],
                         pos_col: pos})

    return exchange_groups(keyed, "rbucket", per_range)
