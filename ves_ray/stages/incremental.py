"""Incremental exact dedup: probe a NEW shard against a PERSISTED
seen-hash index instead of re-deduping the whole corpus.

At 100 TB the corpus is not re-read per ingest; each arriving shard
must dedup against everything already accepted, touching only
index-bucket-sized state. The index is a hash-bucketed layout
(state.bucketed manifest conventions, key = the same 63-bit content
hash exact_dedup shuffles on) holding ONE narrow column — the seen
content hashes. The probe pays one exchange of the NEW SHARD ONLY
(the whole point: shard ≪ corpus): new rows hash-bucket to the same
buckets the index uses, and each bucket task reads its seen-hash
file once, filters novel rows vectorized (``pc.is_in`` inverted) and
keeps the min-id winner among the shard's own internal duplicates.
``append_to_index`` then lands the novel hashes as extra per-bucket
parquet files — a shuffle-free append (every task writes its own
slice of every bucket), crash-safe because a torn append only makes
the index UNDER-complete, which re-probing repairs (dedup is
idempotent); state.compact folds the small files when buckets
fragment.

Reference analogue: the checkpoint-marker skip-if-done idempotence of
the tailer (components/core-agent/src/tailer/tailer_events.rs
translate-event contract) applied to content identity instead of
fragment identity.
"""

from __future__ import annotations

import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyarrow import fs as pafs

from .dedup import content_hash_batch
from .exchange import _bucket_of, _group_starts, exchange_groups
from ..state import fs as vfs
from ..state.bucketed import read_manifest, write_bucketed

_HASH_SCHEMA = pa.schema([("content_hash", pa.int64())])


def build_seen_index(ds, path: str, *, text_col: str = "text",
                     num_buckets: int = 64,
                     filesystem: pafs.FileSystem | None = None) -> dict:
    """Persist the content-hash index of an accepted corpus.

    Hashes are deduped block-locally before writing (cross-block
    repeats just cost a little index size, never correctness — the
    probe's ``is_in`` is set-semantics). Returns the manifest."""
    def hashes(b: pa.Table) -> pa.Table:
        h = content_hash_batch(b, text_col=text_col)["content_hash"]
        if isinstance(h, pa.ChunkedArray):
            h = h.combine_chunks()
        u = np.unique(h.to_numpy(zero_copy_only=False))
        return pa.table({"content_hash": pa.array(u, type=pa.int64())})

    narrow = ds.select_columns([text_col]).map_batches(
        hashes, batch_format="pyarrow", zero_copy_batch=True)
    return write_bucketed(narrow, path, key_col="content_hash",
                          num_buckets=num_buckets, filesystem=filesystem)


def _seen_hashes(f: pafs.FileSystem, path: str, k: int) -> pa.Array:
    d = vfs.join(path, f"bucket={k}")
    if not vfs.is_dir(f, d):
        return pa.array([], type=pa.int64())
    return pq.read_table(d, columns=["content_hash"],
                         filesystem=f)["content_hash"].combine_chunks()


def probe_novel(new_ds, index_path: str, *, text_col: str = "text",
                id_col: str = "doc_id",
                filesystem: pafs.FileSystem | None = None):
    """Rows of ``new_ds`` whose content is NOT in the index, one
    min-``id_col`` winner per within-shard duplicate group. Exchanges
    only the new shard; each bucket task reads its seen-hash file
    once. Returns a streaming Dataset of surviving full rows (helper
    columns dropped)."""
    f_sys, index_p = vfs.resolve_fs(index_path, filesystem)
    man = read_manifest(index_p, f_sys)
    if man["key_col"] != "content_hash":
        raise ValueError(f"{index_path} is not a seen-hash index "
                         f"(key {man['key_col']!r})")
    num_buckets = int(man["num_buckets"])

    def tag(b: pa.Table) -> pa.Table:
        h = content_hash_batch(b, text_col=text_col)
        return h.append_column(
            "ibucket", pa.array(_bucket_of(h["content_hash"],
                                           num_buckets)))

    def per_bucket(g: pa.Table) -> pa.Table:
        seen = _seen_hashes(f_sys, index_p, g["ibucket"][0].as_py())
        g = g.filter(pc.invert(pc.is_in(g["content_hash"], value_set=seen)))
        g = g.sort_by([("content_hash", "ascending"), (id_col, "ascending")])
        return (g.take(_group_starts(g, ["content_hash"])[:-1])
                .drop_columns(["content_hash", "ibucket"]))

    tagged = new_ds.map_batches(tag, batch_format="pyarrow",
                                zero_copy_batch=True)
    return exchange_groups(tagged, "ibucket", per_bucket)


def append_to_index(novel_ds, index_path: str, *,
                    text_col: str = "text",
                    filesystem: pafs.FileSystem | None = None) -> int:
    """Land the hashes of accepted novel rows as extra per-bucket
    files — shuffle-free (each task appends its own slice of every
    bucket). Returns the number of hashes appended."""
    f_sys, index_p = vfs.resolve_fs(index_path, filesystem)
    man = read_manifest(index_p, f_sys)
    num_buckets = int(man["num_buckets"])

    def write_slices(b: pa.Table) -> pa.Table:
        h = content_hash_batch(b, text_col=text_col)["content_hash"]
        if isinstance(h, pa.ChunkedArray):
            h = h.combine_chunks()
        hv = np.unique(h.to_numpy(zero_copy_only=False))
        buckets = _bucket_of(pa.array(hv, type=pa.int64()), num_buckets)
        n = 0
        for k in np.unique(buckets):
            sl = hv[buckets == k]
            d = vfs.join(index_p, f"bucket={int(k)}")
            vfs.makedirs(f_sys, d)
            # unique-named single-file put: atomic on object stores;
            # temp+move on local keeps the rename-visibility property
            tmp = vfs.join(d, f".tmp-{uuid.uuid4().hex}.parquet")
            with f_sys.open_output_stream(tmp) as s:
                pq.write_table(
                    pa.table({"content_hash":
                              pa.array(sl, type=pa.int64())}), s)
            vfs.move(f_sys, tmp,
                     vfs.join(d, f"append-{uuid.uuid4().hex}.parquet"))
            n += len(sl)
        return pa.table({"appended": pa.array([n], type=pa.int64())})

    parts = novel_ds.select_columns([text_col]).map_batches(
        write_slices, batch_format="pyarrow").to_pandas()
    return int(parts["appended"].sum()) if len(parts) else 0
