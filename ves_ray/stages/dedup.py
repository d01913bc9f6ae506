"""Deduplication operators for large-scale training-data pipelines.

All variants follow the same scale shape: a vectorized per-batch
signature stage (``map_batches``), a key-partitioned ``groupby`` that
co-locates only CANDIDATES (never an all-pairs pass over the corpus),
and a per-group verify. The only all-to-all exchanges move signatures
or candidate keys, not documents.

- exact          : content-hash → groupby(hash) → keep min doc_id
- minhash + LSH  : word-shingle minhash → banded keys → bucket groupby
                   → verified candidate pairs
- simhash        : 64-bit weighted fingerprint → 4-band blocking →
                   Hamming-verified pairs
- n-gram Jaccard : exact Jaccard over shingle sets for candidate pairs
- embedding      : cosine near-dup over `list<float>` embeddings,
                   LSH-bucketed (see stages.similarity for the ANN path)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import (MASK63, U64, hash2, hash_strings, round_half_away,
                       splitmix64)
from .aggregate import _grouper, combine, combine_pandas, empty_like, gather
from .exchange import _group_starts, bucket_exchange, exchange_groups

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def content_hash_batch(batch: pa.Table, *, text_col: str = "text",
                       out_col: str = "content_hash") -> pa.Table:
    h = (hash_strings(batch[text_col], seed=0xD0) & U64(MASK63)).astype(np.int64)
    return batch.append_column(out_col, pa.array(h))


def exact_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Exact dedup: hash the content, keep the smallest id per hash
    (deterministic winner) plus dup_count.

    Shape: one ``combine`` (per-hash min(id) + count): one Arrow groupby
    per block and one over the partials, never a Python call per group:
    on a mostly-unique corpus nearly every group is a singleton. The
    63-bit hash is uniformly distributed, so an exchange final needs no
    skew mitigation. Returns (content_hash, <id_col>, dup_count)."""
    hashed = ds.map_batches(
        lambda b: content_hash_batch(b, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True)
    return combine(hashed, ["content_hash"],
                   {id_col: (id_col, "min"),
                    "dup_count": ([], "count_all")})


def exact_dedup_keep(ds, *, text_col: str = "text", id_col: str = "doc_id",
                     num_buckets: int = 64):
    """Exact dedup returning the SURVIVING FULL ROWS (min-id winner per
    identical text) — the corpus-producing form of :func:`exact_dedup`
    (which returns winner ids + counts only).

    Full rows must co-locate with their duplicates, so this pays one
    hash-bucket exchange of the corpus (unavoidable for row output);
    inside each bucket one vectorized sort picks the first row of each
    hash run. The 63-bit content hash is uniform — buckets balance with
    no skew handling."""
    hashed = ds.map_batches(
        lambda b: content_hash_batch(b, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True)

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("content_hash", "ascending"), (id_col, "ascending")])
        return (t.take(_group_starts(t, ["content_hash"])[:-1])
                .drop_columns(["content_hash"]))

    return bucket_exchange(hashed, "content_hash", per_bucket,
                           num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# shingles + minhash
# ---------------------------------------------------------------------------

def _word_shingle_hashes(text: pa.ChunkedArray | pa.Array, n: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row arrays of n-gram shingle hashes (uint64) over the
    whitespace word sequence. Returns (flat_hashes, row_offsets).
    Fully vectorized: word hashes once, then a rolling combine of n
    shifted views."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern_regex(pc.utf8_lower(text), pattern=r"\s+")
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    off = off - off[0]
    flat = words.values[words.offsets[0].as_py():words.offsets[-1].as_py()]
    wh = hash_strings(flat, seed=seed) if len(flat) else np.empty(0, dtype=np.uint64)
    n_rows = len(off) - 1
    lens = np.diff(off)
    sh_lens = np.maximum(lens - (n - 1), np.minimum(lens, 1))  # min 1 shingle if any words
    sh_off = np.concatenate(([0], np.cumsum(sh_lens)))
    total = int(sh_off[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), sh_off
    # build combined hash of n consecutive word hashes
    starts = np.repeat(off[:-1], sh_lens)
    pos = np.arange(total, dtype=np.int64) - np.repeat(sh_off[:-1], sh_lens) + starts
    acc = np.zeros(total, dtype=np.uint64)
    row_len = np.repeat(lens, sh_lens)
    with np.errstate(over="ignore"):
        for k in range(n):
            idx = np.minimum(pos + k, np.repeat(off[1:], sh_lens) - 1)
            acc = splitmix64(acc ^ (wh[idx] + U64(k)))
    return acc, sh_off


def minhash_signatures_batch(batch: pa.Table, *, text_col: str = "text",
                             num_perm: int = 64, shingle_n: int = 3,
                             seed: int = 0x3A) -> pa.Table:
    """Per-doc MinHash signature (num_perm × uint64→int64) as a
    fixed-size list column. Permutations are splitmix64 re-keyings of
    the shingle hash (one vectorized op per permutation, reduced with
    np.minimum.reduceat — no per-doc loops)."""
    sh, off = _word_shingle_hashes(batch[text_col], shingle_n, seed)
    n_rows = len(batch)
    sig = np.full((n_rows, num_perm), np.iinfo(np.int64).max, dtype=np.int64)
    if len(sh):
        nonempty = np.diff(off) > 0
        starts = off[:-1][nonempty]
        with np.errstate(over="ignore"):
            for p in range(num_perm):
                perm_key = U64((p * 0x9E3779B97F4A7C15 + 1) & 0xFFFFFFFFFFFFFFFF)
                hp = (splitmix64(sh ^ perm_key) >> U64(1)).astype(np.int64)
                sig[nonempty, p] = np.minimum.reduceat(hp, starts)
    flat = pa.array(sig.reshape(-1), type=pa.int64())
    col = pa.FixedSizeListArray.from_arrays(flat, num_perm)
    return batch.append_column("minhash", col)


def lsh_band_keys_batch(batch: pa.Table, *, num_bands: int = 8,
                        id_col: str = "doc_id") -> pa.Table:
    """Explode each signature into (band, band_key, doc_id) rows.
    band_key hashes the rows of the band together; the downstream
    groupby(band, band_key) co-locates only colliding docs."""
    mh = batch["minhash"]
    if isinstance(mh, pa.ChunkedArray):
        mh = mh.combine_chunks()
    num_perm = mh.type.list_size
    rows_per_band = num_perm // num_bands
    sig = mh.values.to_numpy(zero_copy_only=False).reshape(-1, num_perm)
    n = len(batch)
    keys = np.zeros((n, num_bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(num_bands):
            part = sig[:, b * rows_per_band:(b + 1) * rows_per_band].astype(np.uint64)
            acc = np.full(n, U64(b + 1), dtype=np.uint64)
            for c in range(rows_per_band):
                acc = splitmix64(acc ^ part[:, c])
            keys[:, b] = acc
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), num_bands))
    return pa.table({
        "band": pa.array(np.tile(np.arange(num_bands, dtype=np.int32), n)),
        "band_key": pa.array((keys.reshape(-1) & U64(MASK63)).astype(np.int64)),
        id_col: ids.take(rep),
    })


def _collision_key_set(keys_ds, key_col: str) -> pd.DataFrame:
    """Distributed collision filter: block-local per-key counts →
    small groupby over partials → keys with n > 1. Only the colliding
    KEY SET (candidate-scale, near-dup-sparse by construction) reaches
    the driver — never rows."""
    counts = combine(keys_ds, [key_col], {"n": ([], "count_all")})
    return counts.map_batches(
        lambda b: b.filter(pc.greater(b["n"], 1)),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()


def _no_pairs(keys_ds, id_col: str, **extra) -> pa.Table:
    """The pair table without rows: ``doc_a``, ``doc_b`` of
    ``keys_ds``'s ``id_col`` type (null when Ray lost the schema of an
    input without rows), then the ``extra`` columns and types."""
    schema = empty_like(keys_ds).schema
    id_type = (schema.field(id_col).type if id_col in schema.names
               else pa.null())
    return pa.schema({"doc_a": id_type, "doc_b": id_type,
                      **extra}).empty_table()


def _bucket_pair_gen(id_col: str, max_bucket: int):
    """Per-group fn: all unique-id pairs within one colliding bucket,
    vectorized (triu indices over the sorted unique ids). Buckets over
    ``max_bucket`` are dropped — a degenerate key would otherwise emit
    O(n²) pairs."""
    def pairs(g: pa.Table) -> pa.Table:
        ids = pc.unique(g[id_col])
        ids = ids.take(pc.sort_indices(ids))
        m = len(ids)
        ia, ib = np.triu_indices(m if m <= max_bucket else 0, k=1)
        return pa.table({"doc_a": ids.take(ia), "doc_b": ids.take(ib)})
    return pairs


def minhash_lsh_candidates(ds, *, text_col: str = "text", id_col: str = "doc_id",
                           num_perm: int = 64, num_bands: int = 8,
                           shingle_n: int = 3, max_bucket: int = 64):
    """Candidate near-dup pairs via MinHash-LSH: signatures → banded
    keys → collision detection → in-bucket pairs.

    Collision detection is a distributed count-aggregate over band
    keys (block-local partials, tiny shuffle) — NOT a per-group pass
    over all keys, whose overhead dominates when almost every bucket is
    a singleton. Pair generation then runs as ``exchange_groups`` over
    the COLLIDING keys only (sparse), so no
    row-scale data ever reaches the driver; only the final pair set
    (output-scale) does. Returns a pandas DataFrame (doc_a, doc_b)."""
    sigs = ds.map_batches(
        lambda b: minhash_signatures_batch(b, text_col=text_col,
                                           num_perm=num_perm, shingle_n=shingle_n),
        batch_format="pyarrow", zero_copy_batch=True)
    keys = sigs.map_batches(
        lambda b: lsh_band_keys_batch(b, num_bands=num_bands, id_col=id_col),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    no_pairs = _no_pairs(keys, id_col)
    # band_key is salted per band, so it alone is the collision key
    collide = _collision_key_set(keys, "band_key")
    if len(collide) == 0:
        return no_pairs.to_pandas()
    import ray
    # broadcast the colliding-key set via the object store (one copy
    # per node) rather than closure capture (re-shipped per task)
    wanted_ref = ray.put(pa.array(collide["band_key"].to_numpy(),
                                  type=pa.int64()))

    def only_collisions(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["band_key"],
                                 value_set=ray.get(wanted_ref)))

    hits = keys.map_batches(only_collisions, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = gather(exchange_groups(hits, "band_key",
                                 _bucket_pair_gen(id_col, max_bucket)),
                 lambda: no_pairs).to_pandas()
    return out.drop_duplicates(ignore_index=True)


def _pack_u64_binary(values: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Pack per-row uint64 runs into a large_binary column
    (little-endian bytes). Used wherever a shingle SET must ride a
    shuffle: Arrow's join/groupby paths handle binary payloads
    everywhere list<uint64> is restricted, and the bytes decode back
    zero-copy via numpy. large_binary (int64 offsets) so a batch whose
    packed bytes exceed 2 GiB cannot silently overflow int32 offsets."""
    boff = (offsets * 8).astype(np.int64)
    return pa.Array.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer(boff.tobytes()),
         pa.py_buffer(values.astype("<u8").tobytes())])


def _unpack_u64_binary(col) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (large_)binary column of packed little-endian uint64
    runs into (flat values, rebased offsets) without per-row Python."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    odt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    boff = np.frombuffer(col.buffers()[1], dtype=odt)[
        col.offset:col.offset + len(col) + 1].astype(np.int64)
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    flat = np.ascontiguousarray(data[boff[0]:boff[-1]]).view("<u8")
    return flat, (boff - boff[0]) // 8


def _verify_jaccard_bucket(pairs_ref, id_col: str, threshold: float):
    """Per-group fn over one verification bucket: the group holds one
    (doc, packed-shingles) row per candidate doc in the bucket; the
    bucket's pair sublist comes from the broadcast pair table. Exact
    set-Jaccard for every pair, fully vectorized via a sort-merge
    intersection — no docs × shingles incidence matrix, memory
    O(shingles in bucket)."""
    def verify(g: pa.Table) -> pa.Table:
        import ray
        by_bucket = ray.get(pairs_ref)
        bucket = int(g["bucket"][0].as_py())
        id_type = g.schema.field(id_col).type
        doc_a, doc_b = by_bucket[bucket]
        flat, off = _unpack_u64_binary(g["sh"])
        m = len(g)
        lens = np.diff(off)
        # per-doc DISTINCT shingles, computed once per doc (not per pair)
        rowcode = np.repeat(np.arange(m), lens)
        order = np.lexsort((flat, rowcode))
        rs, ss = rowcode[order], flat[order]
        first = np.concatenate(([True], (rs[1:] != rs[:-1]) | (ss[1:] != ss[:-1]))) \
            if len(rs) else np.zeros(0, dtype=bool)
        flat_d = ss[first]
        dl = np.bincount(rs[first], minlength=m)
        off_d = np.concatenate(([0], np.cumsum(dl)))
        # map pair endpoints to group rows; drop pairs missing a doc
        ai, bi = (pc.fill_null(pc.index_in(pa.array(d, id_type),
                                           value_set=g[id_col]), -1)
                  .to_numpy() for d in (doc_a, doc_b))
        ok = (ai >= 0) & (bi >= 0)
        ai, bi = ai[ok], bi[ok]
        npairs = len(ai)

        def gather(rows):        # distinct-shingle stream of one side
            start, ln = off_d[rows], dl[rows]
            total = int(ln.sum())
            pos = (np.arange(total, dtype=np.int64)
                   - np.repeat(np.cumsum(ln) - ln, ln) + np.repeat(start, ln))
            return flat_d[pos], np.repeat(np.arange(npairs), ln)

        sa, pa_codes = gather(ai)
        sb, pb_codes = gather(bi)
        stream_sh = np.concatenate((sa, sb))
        stream_p = np.concatenate((pa_codes, pb_codes))
        order2 = np.lexsort((stream_sh, stream_p))
        ps2, ss2 = stream_p[order2], stream_sh[order2]
        dup = (ps2[1:] == ps2[:-1]) & (ss2[1:] == ss2[:-1]) \
            if len(ps2) else np.zeros(0, dtype=bool)
        inter = np.bincount(ps2[1:][dup], minlength=npairs).astype(np.float64)
        union = (dl[ai] + dl[bi]).astype(np.float64) - inter
        jac = np.divide(inter, union, out=np.zeros_like(inter),
                        where=union > 0)
        keep = jac >= threshold
        return pa.table({"doc_a": g[id_col].take(ai[keep]),
                         "doc_b": g[id_col].take(bi[keep]),
                         "jaccard": jac[keep]})
    return verify


def jaccard_pairs(ds, candidate_pairs: pd.DataFrame, *, text_col: str = "text",
                  id_col: str = "doc_id", shingle_n: int = 3,
                  threshold: float = 0.0,
                  pairs_per_bucket: int = 4096,
                  strict: bool = False) -> pd.DataFrame:
    """Exact n-gram Jaccard verification for candidate pairs,
    distributed end to end.

    Shape: the pair table (output-scale — it is this function's input)
    is broadcast once, bucketed by pair id. Each candidate doc's
    shingle set is computed ONCE distributed (map_batches over the
    corpus, broadcast semi-join on the candidate id set), packed as
    uint64 bytes, and emitted replicated per bucket the doc's pairs
    touch; a single groupby co-locates each bucket's docs and the
    verify fn runs a vectorized sort-merge intersection against its
    pair sublist. No hash join, no driver-side row-scale data; pairs
    whose doc is missing from the corpus are dropped."""
    import ray

    if len(candidate_pairs) == 0:
        return pd.DataFrame(columns=["doc_a", "doc_b", "jaccard"])
    pairs = candidate_pairs.reset_index(drop=True)
    npairs = len(pairs)
    nbuckets = max(1, -(-npairs // pairs_per_bucket))
    bucket = np.arange(npairs, dtype=np.int64) % nbuckets
    a_np, b_np = pairs["doc_a"].to_numpy(), pairs["doc_b"].to_numpy()
    by_bucket = {int(k): (a_np[bucket == k], b_np[bucket == k])
                 for k in range(nbuckets)}
    # doc→buckets map, built vectorized and broadcast in columnar form:
    # unique candidate ids + CSR (offsets, flat bucket list). The
    # corpus-side probe is then pure Arrow/numpy — no per-row Python.
    dmap_df = pd.DataFrame({
        "doc": np.concatenate((a_np, b_np)),
        "bucket": np.concatenate((bucket, bucket)),
    }).drop_duplicates().sort_values(["doc", "bucket"],
                                     ignore_index=True)
    docs_sorted = dmap_df["doc"].to_numpy()
    first = np.concatenate(([True], docs_sorted[1:] != docs_sorted[:-1]))
    starts = np.flatnonzero(first)
    counts = np.diff(np.concatenate((starts, [len(docs_sorted)])))
    pairs_ref = ray.put(by_bucket)
    map_ref = ray.put((pa.array(docs_sorted[first]),
                       np.concatenate(([0], np.cumsum(counts))),
                       dmap_df["bucket"].to_numpy().astype(np.int64),
                       counts.astype(np.int64)))

    def shingle_rows(batch: pa.Table) -> pa.Table:
        value_set, boff, flat_buckets, cnts = ray.get(map_ref)
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        pos_all = pc.index_in(ids, value_set=value_set)
        mask = pc.is_valid(pos_all)
        sub = batch.filter(mask)
        if len(sub) == 0:
            return pa.table({
                "bucket": pa.array([], type=pa.int64()),
                id_col: pa.array([], type=batch.schema.field(id_col).type),
                "sh": pa.array([], type=pa.large_binary())})
        pos = pos_all.filter(mask).to_numpy(
            zero_copy_only=False).astype(np.int64)
        shingle_fn = (_strict_shingle_hashes if strict
                      else _word_shingle_hashes)
        sh, off = shingle_fn(sub[text_col], shingle_n, 0x3A)
        packed = _pack_u64_binary(sh, off)
        # replicate each doc row once per bucket its pairs touch:
        # vectorized CSR-segment gather (no Python loop over rows)
        ln = cnts[pos]
        total = int(ln.sum())
        gpos = (np.arange(total, dtype=np.int64)
                - np.repeat(np.cumsum(ln) - ln, ln)
                + np.repeat(boff[pos], ln))
        reps = pa.array(np.repeat(np.arange(len(sub), dtype=np.int64),
                                  ln))
        sub_ids = sub[id_col]
        if isinstance(sub_ids, pa.ChunkedArray):
            sub_ids = sub_ids.combine_chunks()
        return pa.table({
            "bucket": pa.array(flat_buckets[gpos]),
            id_col: sub_ids.take(reps),
            "sh": packed.take(reps)})

    doc_sh = ds.map_batches(shingle_rows, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = exchange_groups(doc_sh, "bucket",
                          _verify_jaccard_bucket(pairs_ref, id_col, threshold),
                          num_buckets=nbuckets).to_pandas()
    if len(out) == 0:
        return pd.DataFrame(columns=["doc_a", "doc_b", "jaccard"])
    return out.reset_index(drop=True)


def _strict_shingle_hashes(text: pa.ChunkedArray | pa.Array, n: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`_word_shingle_hashes` but with strict SQL-matching
    semantics: a row with w words yields exactly ``max(w-(n-1), 0)``
    shingles (no clamped singleton for short rows), so cardinalities
    agree with an oracle building n-grams via ``list_transform``."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern_regex(pc.utf8_lower(text), pattern=r"\s+")
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    off = off - off[0]
    flat = words.values[words.offsets[0].as_py():words.offsets[-1].as_py()]
    wh = hash_strings(flat, seed=seed) if len(flat) else np.empty(0, dtype=np.uint64)
    lens = np.diff(off)
    sh_lens = np.maximum(lens - (n - 1), 0)
    sh_off = np.concatenate(([0], np.cumsum(sh_lens)))
    total = int(sh_off[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), sh_off
    starts = np.repeat(off[:-1], sh_lens)
    pos = np.arange(total, dtype=np.int64) - np.repeat(sh_off[:-1], sh_lens) + starts
    acc = np.zeros(total, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(n):
            acc = splitmix64(acc ^ (wh[pos + k] + U64(k)))
    return acc, sh_off


def _salt_of(col, k_arr: np.ndarray) -> np.ndarray:
    """Per-row salt in [0, k) (k varies per row): a deterministic hash
    of the id column, numeric fast-path."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        h = splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
    else:
        h = hash_strings(col, seed=0x5A)
    return (h % k_arr.astype(np.uint64)).astype(np.int32)


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                         "doc_b": pd.Series([], dtype="int64"),
                         "jaccard": pd.Series([], dtype="float64")})


def ngram_jaccard_pairs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                        block_col: str = "source", shingle_n: int = 2,
                        threshold: float = 0.2,
                        target_block_rows: int = 1024) -> pd.DataFrame:
    """All-pairs word-n-gram Jaccard similarity within blocking groups,
    with skew-proof block splitting.

    The O(all-pairs) comparison is confined to blocks (``block_col``).
    A hot block (> ``target_block_rows`` rows — e.g. one source owning
    60 % of the corpus) is split EXACTLY via triangle partitioning:
    each doc gets salt s = hash(id) % k (k = ceil(rows/target)) and is
    replicated to every salt-pair group (lo, hi) with s ∈ {lo, hi};
    pair (a, b) is then compared in exactly one group —
    (min(sa,sb), max(sa,sb)) — so results are identical to the
    unsplit computation while per-group memory drops from O(block²)
    to O(target²). Cold blocks keep k = 1 (no replication). Within a
    group the pairwise intersection is one binary incidence matmul
    (docs × distinct-shingles) — no per-pair Python set ops.
    Returns (doc_a, doc_b, jaccard ≥ threshold)."""
    import ray

    # tiny pre-pass: per-block row counts → per-block split factor k
    # (block_col is a bounded-cardinality key, so its final runs on the
    # driver)
    counts = combine_pandas(ds, [block_col], {"n": ([], "count_all")})
    ks = np.maximum(1, -(-counts["n"].to_numpy() // target_block_rows))
    k_ref = ray.put(pa.table({block_col: counts[block_col].to_numpy(),
                              "k": ks.astype(np.int64)}))

    def explode_salt_groups(b: pa.Table) -> pa.Table:
        """Shingle ONCE per row, then replicate the packed shingle set
        (not the text) to the row's salt-pair groups: k copies. The
        shuffle moves (block, group, id, packed-shingles) — no text,
        and no k× re-tokenization downstream."""
        kt = ray.get(k_ref)
        bcol = b[block_col]
        if isinstance(bcol, pa.ChunkedArray):
            bcol = bcol.combine_chunks()
        idx = pc.index_in(bcol, value_set=kt[block_col].combine_chunks())
        k_row = pc.take(kt["k"].combine_chunks(), idx).to_numpy(
            zero_copy_only=False).astype(np.int64)
        salt = _salt_of(b[id_col], k_row)
        sh, off = _strict_shingle_hashes(b[text_col], shingle_n, 0x3A)
        base = pa.table({block_col: bcol, id_col: b[id_col],
                         "sh": _pack_u64_binary(sh, off)})
        n = len(b)
        # partner salts 0..k-1 per row → (lo, hi) = (min, max)(salt, t)
        reps = np.repeat(np.arange(n), k_row)
        t = (np.arange(int(k_row.sum()), dtype=np.int64)
             - np.repeat(np.cumsum(k_row) - k_row, k_row)).astype(np.int32)
        s = salt[reps]
        lo, hi = np.minimum(s, t), np.maximum(s, t)
        out = base.take(reps)
        return (out.append_column("s_lo", pa.array(lo))
                   .append_column("s_hi", pa.array(hi))
                   .append_column("salt", pa.array(s)))

    def pairs_in_group(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy()
        m = len(ids)
        sh, off = _unpack_u64_binary(group["sh"])
        uniq, inv = np.unique(sh, return_inverse=True)
        inc = np.zeros((m, max(len(uniq), 1)), dtype=np.float32)
        row_idx = np.repeat(np.arange(m), np.diff(off))
        inc[row_idx, inv] = 1.0  # duplicate shingles collapse: set semantics
        sizes = inc.sum(axis=1)
        s_lo = group["s_lo"][0].as_py()
        s_hi = group["s_hi"][0].as_py()
        if s_lo == s_hi:                       # same-salt: triangular
            ixn = (inc @ inc.T)[np.triu_indices(m, k=1)]
            ia, ib = np.triu_indices(m, k=1)
        else:                                  # cross-salt: rectangular
            salt = group["salt"].to_numpy(zero_copy_only=False)
            a_rows = np.flatnonzero(salt == s_lo)
            b_rows = np.flatnonzero(salt == s_hi)
            ixn = (inc[a_rows] @ inc[b_rows].T).ravel()
            ia = np.repeat(a_rows, len(b_rows))
            ib = np.tile(b_rows, len(a_rows))
        # float64 division + SQL-style half-away rounding so ties
        # (e.g. 9/128) hash-match a DuckDB ROUND(jac, 6) oracle
        ixn64 = ixn.astype(np.float64)
        union = (sizes[ia] + sizes[ib]).astype(np.float64) - ixn64
        valid = (sizes[ia] > 0) & (sizes[ib] > 0)
        jac = np.divide(ixn64, union, out=np.zeros_like(ixn64),
                        where=union > 0)
        keep = valid & (jac >= threshold)
        a, b = ids[ia[keep]], ids[ib[keep]]
        return pa.table({"doc_a": np.minimum(a, b), "doc_b": np.maximum(a, b),
                         "jaccard": round_half_away(jac[keep], 6)})

    exploded = ds.map_batches(explode_salt_groups, batch_format="pyarrow",
                              zero_copy_batch=True)
    out = exchange_groups(exploded, [block_col, "s_lo", "s_hi"],
                          pairs_in_group).to_pandas()
    if len(out) == 0:
        return _empty_pairs()
    return out.sort_values(["doc_a", "doc_b"], ignore_index=True)


# ---------------------------------------------------------------------------
# cluster resolution: pairs → connected components → surviving corpus
# ---------------------------------------------------------------------------

def connected_components(pairs: pd.DataFrame, *, a_col: str = "doc_a",
                         b_col: str = "doc_b") -> pd.DataFrame:
    """Connected components over a near-dup PAIR graph.

    Runs union-find on the driver over the pair set only — pairs are
    output-scale (near-dup-sparse by construction), never the corpus,
    so this is deliberately NOT a distributed pass. When the pair set
    approaches corpus scale, :func:`connected_components_distributed`
    implements the same (node, root) contract as pure Dataset ops
    (label propagation + pointer jumping); ``fuzzy_dedup_keep``
    switches between them on ``MAX_DRIVER_PAIRS``. Returns one row
    per node appearing in any pair, root = minimum id in its
    component."""
    parent: dict = {}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:          # path compression
            parent[x], x = r, parent[x]
        return r

    for u, v in zip(pairs[a_col], pairs[b_col]):
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {n: find(n) for n in parent}
    # canonical root = min member id (deterministic winner)
    min_of: dict = {}
    for n, r in roots.items():
        m = min_of.get(r)
        if m is None or n < m:
            min_of[r] = n
    return pd.DataFrame({"node": list(roots),
                         "root": [min_of[r] for r in roots.values()]})


#: past this many pairs ``fuzzy_dedup_keep`` resolves clusters with
#: ``fuzzy_dedup_keep_distributed`` instead of a driver union-find
MAX_DRIVER_PAIRS = 5_000_000


def fuzzy_dedup_keep(ds, pairs: pd.DataFrame, *, id_col: str = "doc_id"):
    """The dedup last mile: given verified near-dup pairs, keep ONE
    representative per cluster (the min id) and every unpaired doc.

    Scale shape: union-find over the pair set on the driver (tiny),
    then ONE broadcast anti-join pass over the corpus — the loser id
    set (pairs-scale) ships via ``ray.put`` and each batch filters
    with a vectorized ``is_in``; survivors gain ``cluster_size`` (1
    for docs in no cluster) via a broadcast lookup in the same pass.
    Pair sets above ``MAX_DRIVER_PAIRS`` (heavy-duplication corpora
    where driver union-find / broadcast state would not fit) switch to
    the fully-distributed path (:func:`fuzzy_dedup_keep_distributed`:
    label-propagation components + shuffle anti-join) — identical
    output, covered by the parity property test.
    Returns a Dataset of (id, cluster_size)."""
    import ray

    if len(pairs) > MAX_DRIVER_PAIRS:
        import ray.data as rd
        edges = rd.from_arrow(pa.Table.from_pandas(
            pairs[["doc_a", "doc_b"]], preserve_index=False))
        return fuzzy_dedup_keep_distributed(ds, edges, id_col=id_col)
    if len(pairs) == 0:
        return ds.map_batches(
            lambda b: pa.table({
                id_col: b[id_col],
                "cluster_size": pa.array(np.ones(len(b), dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True)
    cc = connected_components(pairs)
    sizes = cc.groupby("root").size()
    losers = cc.loc[cc["node"] != cc["root"], "node"].to_numpy()
    roots = sizes.index.to_numpy()
    root_sizes = sizes.to_numpy().astype(np.int64)
    state_ref = ray.put((pa.array(losers), pa.array(roots),
                         pa.array(root_sizes)))

    def keep(b: pa.Table) -> pa.Table:
        lose, rts, szs = ray.get(state_ref)
        col = b[id_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        kept = b.filter(pc.invert(pc.is_in(col, value_set=lose)))
        kcol = kept[id_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        idx = pc.index_in(kcol, value_set=rts)
        size = pc.fill_null(pc.take(szs, idx), 1)
        return pa.table({id_col: kcol,
                         "cluster_size": pc.cast(size, pa.int64())})

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def fuzzy_dedup_keep_best(ds, pairs: pd.DataFrame, *,
                          id_col: str = "doc_id",
                          quality_col: str = "n_chars"):
    """Quality-priority dedup last mile: like :func:`fuzzy_dedup_keep`
    but the kept representative per cluster is the member with the
    HIGHEST ``quality_col`` (tie-break min id) instead of the min id —
    what curation actually wants when near-dups differ in completeness
    (keep the longest crawl of a page, not the lowest-numbered one).

    Scale shape: components via driver union-find over the PAIR set
    (pairs-scale); the quality of CLUSTERED docs only — again
    pairs-scale, via one broadcast ``is_in`` filter pass, never the
    full corpus quality column — feeds a driver argmax; the corpus
    then takes the same single broadcast anti-join pass as
    ``fuzzy_dedup_keep``. Returns a Dataset of (id, cluster_size)."""
    import ray

    if len(pairs) == 0:
        return fuzzy_dedup_keep(ds, pairs, id_col=id_col)
    cc = connected_components(pairs)
    nodes_ref = ray.put(pa.array(cc["node"].to_numpy()))

    def clustered_quality(b: pa.Table) -> pa.Table:
        col = b[id_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        k = b.filter(pc.is_in(col, value_set=ray.get(nodes_ref)))
        return pa.table({id_col: k[id_col], quality_col: k[quality_col]})

    qdf = ds.map_batches(clustered_quality, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    m = cc.merge(qdf, left_on="node", right_on=id_col)
    m = m.sort_values(["root", quality_col, "node"],
                      ascending=[True, False, True])
    keepers = m.groupby("root", as_index=False).first()
    sizes = cc.groupby("root").size()
    keeper_nodes = keepers["node"].to_numpy()
    keeper_sizes = sizes.loc[keepers["root"]].to_numpy().astype(np.int64)
    losers = cc.loc[~cc["node"].isin(keeper_nodes), "node"].to_numpy()
    state_ref = ray.put((pa.array(losers), pa.array(keeper_nodes),
                         pa.array(keeper_sizes)))

    def keep(b: pa.Table) -> pa.Table:
        lose, kps, szs = ray.get(state_ref)
        col = b[id_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        kept = b.filter(pc.invert(pc.is_in(col, value_set=lose)))
        kcol = kept[id_col]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        idx = pc.index_in(kcol, value_set=kps)
        size = pc.fill_null(pc.take(szs, idx), 1)
        return pa.table({id_col: kcol,
                         "cluster_size": pc.cast(size, pa.int64())})

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def connected_components_distributed(edges, *, a_col: str = "doc_a",
                                     b_col: str = "doc_b",
                                     num_buckets: int = 64,
                                     max_rounds: int = 50):
    """Distributed connected components over a near-dup pair graph —
    the scale path :func:`connected_components`'s docstring promises
    for when the PAIR set itself approaches corpus scale (a 100-TB web
    crawl at 30–50 % duplication) and must never be collected.

    Algorithm: iterative min-label propagation with pointer jumping,
    expressed entirely as Dataset ops. State is a ``(node, label)``
    table (label = smallest component member seen so far). Each round:

    1. propagate — co-locate adjacency rows keyed by neighbor with
       label rows keyed by node (one bucket exchange); every edge
       (u, v) proposes ``label(v)`` to ``u``; a second keyed exchange
       takes the per-node min.
    2. pointer jump — co-locate labels keyed by label with labels
       keyed by node; ``label(u) ← label(label(u))`` halves chain
       depth, so convergence is O(log n) rounds even on path graphs,
       not O(diameter).

    Labels are monotonically non-increasing, so a fixpoint is detected
    by an order-insensitive checksum aggregate (no extra join). Every
    exchange kernel is a vectorized Arrow pass over MANY nodes — one
    call per exchange partition, never O(nodes).

    ``edges``: Dataset or DataFrame of pairs. Returns a Dataset of
    (node, root), one row per node appearing in any pair — the same
    contract as the driver union-find."""
    import ray.data as rd

    def exchange(ds, key, kernel):
        return bucket_exchange(ds, key, kernel, num_buckets=num_buckets)

    min_label = _grouper(["node"], {"label": ("label", "min")})

    def side(g: pa.Table, s: int) -> pa.Table:
        return g.filter(pc.equal(g["side"], s))

    def label_of(lab: pa.Table, keys):
        """The label (``val``) of each of ``keys`` that is a node
        (``key``) of the label rows ``lab``; null for the others."""
        return pc.take(lab["val"], pc.index_in(keys, value_set=lab["key"]))

    if isinstance(edges, pd.DataFrame):
        if len(edges) == 0:
            return rd.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                           "root": pa.array([], pa.string())}))
        edges = rd.from_arrow(pa.Table.from_pandas(
            edges[[a_col, b_col]], preserve_index=False))

    # static adjacency, exploded both directions. Two projections are
    # reused every round: keyed by node (init / nothing else) and keyed
    # by neighbor with the node as payload (the propagate probe side).
    def explode(b: pa.Table) -> pa.Table:
        a, bb = b[a_col], b[b_col]
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        if isinstance(bb, pa.ChunkedArray):
            bb = bb.combine_chunks()
        node = pa.chunked_array([a, bb])
        nbr = pa.chunked_array([bb, a])
        return pa.table({"node": node, "nbr": nbr})

    adj = edges.map_batches(explode, batch_format="pyarrow",
                            zero_copy_batch=True)

    # -- initial labels: min(node, min neighbor), one keyed exchange --
    def init_bucket(g: pa.Table) -> pa.Table:
        m = min_label(g.rename_columns(["node", "label"]))
        return pa.table({"node": m["node"], "label": pc.min_element_wise(
            m["label"], m["node"])})

    labels = exchange(adj, "node", init_bucket).materialize()

    # propagate probe side, built once: (side=0, key=nbr, val=node) —
    # "what is my neighbor's label?"
    def probe_rows(b: pa.Table) -> pa.Table:
        return pa.table({
            "side": pa.array(np.zeros(len(b), dtype=np.int8)),
            "key": b["nbr"], "val": b["node"]})

    probes = adj.map_batches(probe_rows, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()

    def label_rows(b: pa.Table) -> pa.Table:
        return pa.table({
            "side": pa.array(np.ones(len(b), dtype=np.int8)),
            "key": b["node"], "val": b["label"]})

    def propagate_bucket(g: pa.Table) -> pa.Table:
        # each node's own label and each probe's neighbor's label; the
        # partition-local partial min goes before the per-node exchange
        lab, pr = side(g, 1), side(g, 0)
        return min_label(pa.concat_tables([
            pa.table({"node": pr["val"], "label": label_of(lab, pr["key"])}),
            pa.table({"node": lab["key"], "label": lab["val"]})]))

    # pointer jump: queries keyed by label (carrying node), index
    # keyed by node (carrying label) — label' = label(label)
    def jump_query_rows(b: pa.Table) -> pa.Table:
        return pa.table({
            "side": pa.array(np.zeros(len(b), dtype=np.int8)),
            "key": b["label"], "val": b["node"]})

    def jump_bucket(g: pa.Table) -> pa.Table:
        lab, q = side(g, 1), side(g, 0)
        # a label that is not a node keeps itself
        return pa.table({"node": q["val"], "label": pc.coalesce(
            label_of(lab, q["key"]), q["key"])})

    def checksum(ds) -> tuple[int, int]:
        from .exchange import _key_hash

        def part(b: pa.Table) -> pa.Table:
            with np.errstate(over="ignore"):
                h = splitmix64(_key_hash(b["node"])
                               ^ (_key_hash(b["label"])
                                  * np.uint64(0x9E3779B97F4A7C15)))
                s = np.int64(np.sum(h).astype(np.uint64) & np.uint64(MASK63))
            return pa.table({"s": pa.array([int(s)]),
                             "n": pa.array([len(b)])})

        parts = ds.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True).to_pandas()
        if len(parts) == 0:
            return (0, 0)
        return (int(parts["s"].sum()) & MASK63, int(parts["n"].sum()))

    prev = checksum(labels)
    for _ in range(max_rounds):
        lab_side = labels.map_batches(label_rows, batch_format="pyarrow",
                                      zero_copy_batch=True)
        labels = exchange(
            exchange([probes, lab_side], "key", propagate_bucket),
            "node", min_label).materialize()  # read twice by the jump
        qside = labels.map_batches(jump_query_rows, batch_format="pyarrow",
                                   zero_copy_batch=True)
        iside = labels.map_batches(label_rows, batch_format="pyarrow",
                                   zero_copy_batch=True)
        labels = exchange([qside, iside], "key",
                          jump_bucket).materialize()
        cur = checksum(labels)
        if cur == prev:
            break
        prev = cur
    return labels.map_batches(
        lambda b: pa.table({"node": b["node"], "root": b["label"]}),
        batch_format="pyarrow", zero_copy_batch=True)


def fuzzy_dedup_keep_distributed(ds, edges, *, id_col: str = "doc_id",
                                 num_buckets: int = 64):
    """Fully-distributed dedup last mile: like
    :func:`fuzzy_dedup_keep` but with NO driver-side or broadcast
    state — the path for pair graphs at corpus scale. Components come
    from :func:`connected_components_distributed`; the loser/size
    table is derived in one exchange on the root (a component's nodes
    share a root, hence a partition, so cluster sizes are a
    per-partition groupby transform); survivors come from ONE shuffle left-join of the
    corpus ids against that table. Returns (id_col, cluster_size)."""
    from .relational import hash_join

    cc = connected_components_distributed(edges, num_buckets=num_buckets)

    def node_info(g: pa.Table) -> pa.Table:
        g = g.sort_by("root")
        sizes = np.diff(_group_starts(g, ["root"]))
        return pa.table({id_col: g["node"],
                         "is_root": pc.equal(g["node"], g["root"]),
                         "cluster_size": np.repeat(sizes, sizes)})

    info = bucket_exchange(cc, "root", node_info, num_buckets=num_buckets)

    ids = ds.map_batches(lambda b: b.select([id_col]),
                         batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(ids, info, key_col=id_col, left_cols=[],
                       right_cols=["is_root", "cluster_size"], how="left",
                       num_buckets=num_buckets,
                       types={"is_root": pa.bool_(),
                              "cluster_size": pa.int64()})

    def keep(b: pa.Table) -> pa.Table:
        mask = pc.fill_null(b["is_root"], True)   # unpaired → singleton
        kept = b.filter(mask)
        size = pc.fill_null(kept["cluster_size"], 1)
        return pa.table({id_col: kept[id_col],
                         "cluster_size": pc.cast(size, pa.int64())})

    return joined.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def simhash_batch(batch: pa.Table, *, text_col: str = "text",
                  seed: int = 0x51) -> pa.Table:
    """64-bit SimHash over word hashes (unweighted): sign-sum of the
    bit matrix, vectorized with reduceat over the flat word array."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern_regex(pc.utf8_lower(text), pattern=r"\s+")
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    off = off - off[0]
    flat = words.values[words.offsets[0].as_py():words.offsets[-1].as_py()]
    n = len(batch)
    if len(flat) == 0:
        return batch.append_column("simhash", pa.array(np.zeros(n, dtype=np.int64)))
    wh = hash_strings(flat, seed=seed)
    bits = ((wh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & U64(1)).astype(np.int64)
    contrib = bits * 2 - 1                      # ±1 per bit
    # reduceat over only nonempty row starts aligns 1:1 with nonempty rows
    nonempty = np.diff(off) > 0
    sums = np.zeros((n, 64), dtype=np.int64)
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(contrib, off[:-1][nonempty], axis=0)
    sh = (sums > 0).astype(np.uint64) @ (U64(1) << np.arange(64, dtype=np.uint64))
    return batch.append_column("simhash", pa.array(sh.view(np.int64)))


def simhash_band_batch(batch: pa.Table, *, id_col: str = "doc_id") -> pa.Table:
    """Explode simhash into 4 × 16-bit bands (classic Hamming≤3
    blocking: any pair within distance 3 shares at least one band)."""
    sh = batch["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
    n = len(batch)
    bands = np.arange(4, dtype=np.int32)
    vals = np.empty((n, 4), dtype=np.int64)
    for b in range(4):
        vals[:, b] = ((sh >> U64(16 * b)) & U64(0xFFFF)).astype(np.int64)
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), 4))
    return pa.table({
        "band": pa.array(np.tile(bands, n)),
        "band_key": pa.array(vals.reshape(-1)),
        id_col: ids.take(rep),
        "simhash": pa.array(np.repeat(sh.view(np.int64), 4)),
    })


def _verify_simhash_bucket(id_col: str, max_hamming: int, max_bucket: int):
    """Per-group fn over one colliding simhash band bucket: pairwise
    Hamming distances over the (deduped) in-bucket signatures,
    vectorized — the signature travels with the band row so no second
    corpus pass is needed."""
    def verify(g: pa.Table) -> pa.Table:
        g = g.sort_by(id_col)
        g = g.take(_group_starts(g, [id_col])[:-1])
        m = len(g) if len(g) <= max_bucket else 0
        hs = g["simhash"].to_numpy()[:m].view(np.uint64)
        x = hs[:, None] ^ hs[None, :]
        ham = np.zeros_like(x, dtype=np.int64)
        while x.any():
            ham += (x & U64(1)).astype(np.int64)
            x = x >> U64(1)
        ii, jj = np.triu_indices(m, k=1)
        keep = ham[ii, jj] <= max_hamming
        return pa.table({"doc_a": g[id_col].take(ii[keep]),
                         "doc_b": g[id_col].take(jj[keep]),
                         "hamming": ham[ii, jj][keep]})
    return verify


def simhash_neardup_pairs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                          max_hamming: int = 3, max_bucket: int = 256
                          ) -> pd.DataFrame:
    """Near-dup pairs with Hamming(simhash) <= max_hamming via 4-band
    blocking + in-bucket verification.

    Same shape as :func:`minhash_lsh_candidates`: a distributed
    count-aggregate finds colliding band keys (the vast majority are
    singletons — never a per-group pass over all keys), then verification
    runs as ``exchange_groups`` over the colliding keys ONLY, each bucket
    vectorized. Only the verified pair set (output-scale) reaches the
    driver."""
    sigs = ds.map_batches(lambda b: simhash_batch(b, text_col=text_col),
                          batch_format="pyarrow", zero_copy_batch=True)
    bands = sigs.map_batches(lambda b: simhash_band_batch(b, id_col=id_col),
                             batch_format="pyarrow", zero_copy_batch=True)

    def add_ckey(b: pa.Table) -> pa.Table:
        ck = (b["band"].to_numpy(zero_copy_only=False).astype(np.int64)
              * 65536 + b["band_key"].to_numpy(zero_copy_only=False))
        return b.append_column("ckey", pa.array(ck))

    keyed = bands.map_batches(add_ckey, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    no_pairs = _no_pairs(keyed, id_col, hamming=pa.int64())
    collide = _collision_key_set(keyed, "ckey")
    if len(collide) == 0:
        return no_pairs.to_pandas()
    import ray
    wanted_ref = ray.put(pa.array(collide["ckey"].to_numpy(),
                                  type=pa.int64()))
    hits = keyed.map_batches(
        lambda b: b.filter(pc.is_in(b["ckey"],
                                    value_set=ray.get(wanted_ref))),
        batch_format="pyarrow", zero_copy_batch=True)
    out = gather(exchange_groups(
        hits, "ckey", _verify_simhash_bucket(id_col, max_hamming, max_bucket)),
        lambda: no_pairs).to_pandas()
    return out.drop_duplicates(["doc_a", "doc_b"], ignore_index=True)


def source_shingle_overlap(ds, *, text_col: str = "text",
                           block_col: str = "source", shingle_n: int = 2,
                           num_buckets: int = 64):
    """Cross-source contamination matrix: for every pair of sources,
    the number of DISTINCT word-``shingle_n``-gram shingles both
    contain — the corpus-level overlap signal that tells a curation
    pipeline which crawls/feeds are near-copies of each other before
    any doc-level dedup runs.

    Shape: block-local distinct (source, shingle-hash) pairs (one
    vectorized shingle pass, same strict semantics as the n-gram
    Jaccard oracle), ONE ``bucket_exchange`` keyed by shingle hash, then
    a per-partition run-length pair scan (sources per shingle are sorted,
    so each unordered pair is emitted exactly once) folding into
    per-partition partial counts; the final aggregate is
    sources²-scale. The exchange moves distinct-(source, shingle)
    rows — the exact-intersection floor; the approximate alternative
    at extreme scale is per-source HLL sketches with
    inclusion-exclusion. Returns a Dataset of
    (source_a, source_b, shared_shingles), source_a < source_b."""
    def local_distinct(b: pa.Table) -> pa.Table:
        sh, off = _strict_shingle_hashes(b[text_col], shingle_n, 0x50C)
        lens = np.diff(off)
        src = b[block_col]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        t = pa.table({
            block_col: pc.take(src, pa.array(
                np.repeat(np.arange(len(b), dtype=np.int64), lens))),
            "sh": pa.array(sh.astype(np.int64))})
        return pa.TableGroupBy(t, [block_col, "sh"]).aggregate([])

    pair_counts = _grouper(["source_a", "source_b"],
                           {"shared_shingles": ([], "count_all")})

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("sh", "ascending"), (block_col, "ascending")])
        t = t.take(_group_starts(t, ["sh", block_col])[:-1])
        # every (row, later row of the same shingle run) pair: sources
        # in a run are distinct and sorted, so source_a < source_b
        starts = _group_starts(t, ["sh"])
        later = np.repeat(starts[1:], np.diff(starts)) - np.arange(len(t)) - 1
        ia = np.repeat(np.arange(len(t)), later)
        ib = (ia + 1 + np.arange(len(ia))
              - np.repeat(np.cumsum(later) - later, later))
        return pair_counts(pa.table({"source_a": t[block_col].take(ia),
                                     "source_b": t[block_col].take(ib)}))

    distinct = ds.select_columns([block_col, text_col]).map_batches(
        local_distinct, batch_format="pyarrow", zero_copy_batch=True)
    partials = bucket_exchange(distinct, "sh", per_bucket,
                               num_buckets=num_buckets)
    return combine(partials, ["source_a", "source_b"],
                   {"shared_shingles": ("shared_shingles", "sum")})
