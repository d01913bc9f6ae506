"""Substring-level (token-span) deduplication.

Reference analogue: none in VES core (the reference stops at the
tailer/watcher agent) — motivated by the LLM-pipeline brief: exact
substring dedup in the style of Lee et al. 2022, "Deduplicating
Training Data Makes Language Models Better" (arXiv:2107.06499). A
k-word window that occurs more than once in the corpus is a
duplicated span; every occurrence except the globally first (minimum
``(doc_id, pos)``) is removed from its document, and the surviving
words are re-joined with single spaces (so the output is the
whitespace-normalized, lowercased form on BOTH the Ray and the SQL
side).

Physical plan (three passes, two all-to-alls, one broadcast probe —
the suffix-array build of the paper is replaced by the hash-count /
probe shape every other dedup stage here uses):

1. candidate filter — per-block partial counts of 64-bit window
   hashes → one small ``groupby(h).sum`` exchange → hashes with
   global count ≥ 2. This set (|duplicated distinct k-grams|) is
   broadcast via ``ray.put`` as a sorted array; if a corpus is so
   duplicated that it outgrows worker memory, compose the shuffle
   form instead (hash_join on ``h``) — same downstream stages.
2. occurrence extraction — a stateless ``searchsorted`` probe per
   block emits ``(gram, doc_id, pos)`` for DUPLICATED windows only
   (exact gram strings, so a 64-bit collision can never merge two
   distinct grams: the per-gram regroup below works on the string).
3. per-gram resolution — one ``bucket_exchange`` on the gram, each
   partition resolved with one vectorized Arrow sort and run scan
   (never one group per gram: almost every gram is a 2-occurrence group and
   per-group overhead would dominate). Removals then meet the corpus
   in one ``bucket_exchange`` on ``doc_id`` (tagged union) and each
   partition rebuilds its documents with a vectorized
   interval-coverage scan (np.add.at delta array + cumsum).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import U64, hash_strings, splitmix64
from .aggregate import combine
from .exchange import _group_starts, bucket_exchange

DEFAULT_SEED = 0x5EED5


def _span_windows(text: pa.ChunkedArray | pa.Array, k: int, seed: int):
    """Strict k-word windows over ``lower(text)`` split on ``\\s+``.

    Returns ``(win_hash, win_off, flat_words, word_off, win_start)``:
    per-window rolling hashes (uint64), per-row window offsets
    (row d owns windows ``win_off[d]:win_off[d+1]``), the flat word
    array, per-row word offsets, and each window's start index into
    the flat word array. A row with w words yields exactly
    ``max(w-k+1, 0)`` windows — cardinalities match an oracle built
    with ``range(1, len(ws)-k+2)``."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern_regex(pc.utf8_lower(text), pattern=r"\s+")
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    off = off - off[0]
    flat = words.values[words.offsets[0].as_py():words.offsets[-1].as_py()]
    wh = (hash_strings(flat, seed=seed) if len(flat)
          else np.empty(0, dtype=np.uint64))
    lens = np.diff(off)
    w_lens = np.maximum(lens - (k - 1), 0)
    w_off = np.concatenate(([0], np.cumsum(w_lens)))
    total = int(w_off[-1])
    if total == 0:
        return (np.empty(0, dtype=np.uint64), w_off, flat, off,
                np.empty(0, dtype=np.int64))
    starts = (np.arange(total, dtype=np.int64)
              - np.repeat(w_off[:-1], w_lens) + np.repeat(off[:-1], w_lens))
    acc = np.zeros(total, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            acc = splitmix64(acc ^ (wh[starts + j] + U64(j)))
    return acc, w_off, flat, off, starts


def dup_span_hash_set(ds, *, k: int = 8, text_col: str = "text",
                      seed: int = DEFAULT_SEED) -> np.ndarray:
    """Sorted uint64 hashes of every k-word window occurring ≥2 times
    corpus-wide. Block-local partial counts keep the exchange at
    (distinct-hash, count) scale, never window scale."""
    def windows(b: pa.Table) -> pa.Table:
        h, _, _, _, _ = _span_windows(b[text_col], k, seed)
        return pa.table({"h": pa.array(h.view(np.int64), type=pa.int64())})

    counts = combine(ds.map_batches(windows, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     ["h"], {"n": ([], "count_all")})
    dup = counts.map_batches(
        lambda b: b.select(["h"]).filter(pc.greater(b["n"], 1)),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    if len(dup) == 0:
        return np.empty(0, dtype=np.uint64)
    return np.sort(dup["h"].to_numpy(dtype=np.int64).view(np.uint64))


def span_occurrences(ds, dup_hashes: np.ndarray, *, k: int = 8,
                     text_col: str = "text", id_col: str = "doc_id",
                     seed: int = DEFAULT_SEED):
    """``(gram, doc_id, pos)`` for every occurrence of a
    duplicated window (1-based pos, matching SQL ``range(1, …)``).
    One stateless broadcast-probe pass; only duplicated windows ride
    the output."""
    import ray
    ref = ray.put(np.asarray(dup_hashes, dtype=np.uint64))

    def probe(b: pa.Table) -> pa.Table:
        dup = ray.get(ref)
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        h, w_off, flat, _, w_start = _span_windows(b[text_col], k, seed)
        if len(h) and len(dup):
            idx = np.searchsorted(dup, h)
            hit = dup[np.minimum(idx, len(dup) - 1)] == h
        else:
            hit = np.zeros(len(h), dtype=bool)
        hidx = np.nonzero(hit)[0]
        rows = np.repeat(np.arange(len(b), dtype=np.int64), np.diff(w_off))
        pos = (np.arange(len(h), dtype=np.int64)
               - np.repeat(w_off[:-1], np.diff(w_off)) + 1)
        if len(hidx) == 0:
            return pa.table({
                "gram": pa.array([], type=pa.string()),
                id_col: pa.array([], type=ids.type),
                "pos": pa.array([], type=pa.int64())})
        start = w_start[hidx]
        parts = [flat.take(pa.array(start + j)) for j in range(k)]
        gram = pc.binary_join_element_wise(*parts, " ")
        return pa.table({
            "gram": gram,
            id_col: ids.take(pa.array(rows[hidx])),
            "pos": pa.array(pos[hidx])})

    return ds.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True)


def dup_spans(ds, *, k: int = 8, text_col: str = "text",
              id_col: str = "doc_id", seed: int = DEFAULT_SEED,
              num_buckets: int = 64):
    """Report form: one row per duplicated k-gram —
    ``(gram, n_docs, occurrences, first_doc, first_pos)``. Grams are
    resolved per hash bucket with one sort and run-start arithmetic
    (distinct docs, size, first row per gram), never one Ray group per
    gram."""
    dup = dup_span_hash_set(ds, k=k, text_col=text_col, seed=seed)
    empty = pd.DataFrame({
        "gram": pd.Series([], dtype=object),
        "n_docs": pd.Series([], dtype="int64"),
        "occurrences": pd.Series([], dtype="int64"),
        "first_doc": pd.Series([], dtype="int64"),
        "first_pos": pd.Series([], dtype="int64")})
    if len(dup) == 0:
        return empty
    occ = span_occurrences(ds, dup, k=k, text_col=text_col,
                           id_col=id_col, seed=seed)

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.sort_by([("gram", "ascending"), (id_col, "ascending"),
                       ("pos", "ascending")])
        starts = _group_starts(t, ["gram"])
        docs = np.searchsorted(_group_starts(t, ["gram", id_col]), starts)
        size = np.diff(starts)
        # 64-bit collisions can pull a count-1 gram into a bucket;
        # the exact-string filter drops it here.
        keep = size >= 2
        first = starts[:-1][keep]
        return pa.table({"gram": t["gram"].take(first),
                         "n_docs": np.diff(docs)[keep],
                         "occurrences": size[keep],
                         "first_doc": t[id_col].take(first),
                         "first_pos": t["pos"].take(first)})

    res = bucket_exchange(occ, "gram", per_bucket,
                          num_buckets=num_buckets).to_pandas()
    if len(res) == 0:
        return empty
    return res.sort_values("gram", ignore_index=True)


def remove_duplicate_spans(ds, *, k: int = 8, text_col: str = "text",
                           id_col: str = "doc_id",
                           seed: int = DEFAULT_SEED,
                           num_buckets: int = 64):
    """The corpus with every non-first occurrence of a duplicated
    k-word span blanked out: ``(doc_id, text_dedup, n_removed)`` where
    ``text_dedup`` is the surviving words joined by single spaces and
    ``n_removed`` counts removed word positions. Overlapping removals
    merge via interval coverage, exactly like the SQL oracle's
    DISTINCT covered-position set."""
    dup = dup_span_hash_set(ds, k=k, text_col=text_col, seed=seed)
    docs = ds.select_columns([id_col, text_col])

    def normalize_only(b: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(
            pc.utf8_lower(b[text_col].combine_chunks()
                          if isinstance(b[text_col], pa.ChunkedArray)
                          else b[text_col]), pattern=r"\s+")
        return pa.table({
            id_col: b[id_col],
            "text_dedup": pc.binary_join(words, " "),
            "n_removed": pa.array(np.zeros(len(b), dtype=np.int64))})

    if len(dup) == 0:
        return docs.map_batches(normalize_only, batch_format="pyarrow",
                                zero_copy_batch=True)

    occ = span_occurrences(ds, dup, k=k, text_col=text_col,
                           id_col=id_col, seed=seed)

    def removals_bucket(t: pa.Table) -> pa.Table:
        # every occurrence but the first (min (doc, pos)) of its gram
        t = t.sort_by([("gram", "ascending"), (id_col, "ascending"),
                       ("pos", "ascending")])
        later = np.ones(len(t), dtype=bool)
        later[_group_starts(t, ["gram"])[:-1]] = False
        return t.select([id_col, "pos"]).filter(later)

    removals = bucket_exchange(occ, "gram", removals_bucket,
                               num_buckets=num_buckets)

    # tagged union → one exchange on hash(doc_id) → per-bucket rebuild
    def tag_docs(b: pa.Table) -> pa.Table:
        return pa.table({
            id_col: b[id_col],
            text_col: b[text_col],
            "pos": pa.nulls(len(b), type=pa.int64())})

    def tag_removals(b: pa.Table) -> pa.Table:
        return pa.table({
            id_col: b[id_col],
            text_col: pa.nulls(len(b), type=pa.string()),
            "pos": b["pos"]})

    tagged = [docs.map_batches(tag_docs, batch_format="pyarrow",
                               zero_copy_batch=True),
              removals.map_batches(tag_removals, batch_format="pyarrow",
                                   zero_copy_batch=True)]

    def rebuild(g: pa.Table) -> pa.Table:
        is_doc = pc.is_valid(g[text_col])
        d = g.filter(is_doc)
        r = g.filter(pc.invert(is_doc))
        ids = d[id_col].combine_chunks()
        text = d[text_col].combine_chunks()
        words = pc.split_pattern_regex(pc.utf8_lower(text), pattern=r"\s+")
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        off = off - off[0]
        flat = words.values[words.offsets[0].as_py():
                            words.offsets[-1].as_py()]
        ndocs, nflat = len(d), len(flat)
        covered = np.zeros(nflat, dtype=bool)
        if len(r):
            docrow = pc.index_in(r[id_col].combine_chunks(),
                                 value_set=ids).to_numpy(
                zero_copy_only=False).astype(np.int64)
            pos = r["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
            start = off[docrow] + pos - 1
            end = np.minimum(start + k, off[docrow + 1])
            delta = np.zeros(nflat + 1, dtype=np.int64)
            np.add.at(delta, start, 1)
            np.add.at(delta, end, -1)
            covered = np.cumsum(delta[:-1]) > 0
        rows = np.repeat(np.arange(ndocs, dtype=np.int64), np.diff(off))
        kept_per_doc = np.bincount(rows[~covered], minlength=ndocs)
        kept = pa.ListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(kept_per_doc))),
                     type=pa.int32()),
            flat.filter(pa.array(~covered)))
        return pa.table({
            id_col: ids,
            "text_dedup": pc.binary_join(kept, " "),
            "n_removed": pa.array(
                np.bincount(rows[covered], minlength=ndocs)
                .astype(np.int64))})

    return bucket_exchange(tagged, id_col, rebuild, num_buckets=num_buckets)
