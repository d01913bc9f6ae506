"""Persisted hash-bucketed table layout: co-located joins and
groupbys with ZERO shuffle.

At 100 TB the dominant cost of ``hash_join`` / ``groupby`` is the
all-to-all exchange. When the same join/group key is reused across
stages or runs (the brief's "pick ONE partitioning key and reuse it
across stages"), pay that exchange ZERO times: persist the table
hash-partitioned by key bucket (``write_bucketed`` — each write task
appends its slice of every bucket, so the bucketing write itself is
shuffle-free), then every later join or aggregate on that key is
bucket-local: task k reads ``bucket=k`` of each side (directory-
pruned parquet read) and joins / aggregates in memory. Perfectly
parallel, no exchange, resumable per bucket.

A ``_bucketed.json`` manifest (written LAST — readers treat a
manifest-less directory as unpublished) records key, bucket count,
hash version and the Arrow schema; co-located ops validate both
sides' manifests are compatible before running. The bucket hash is
``stages.exchange._bucket_of`` — the SAME function the in-memory
exchanges use, so persisted layouts and live shuffles agree on key
placement.

Every path goes through ``state.fs`` (the pyarrow.fs seam): pass
``filesystem=`` (or a ``scheme://`` path) to lay out / read a layout
on shared or object storage; the resolved handle rides into the Ray
read/join tasks (pyarrow filesystems are picklable).

Partitioning assumption (per the hash_join contract): one bucket of
each side must fit a worker's heap; size ``num_buckets`` to the
table, and salt/pre-split pathologically hot keys BEFORE bucketing.

Reference analogue: none — motivated by the LLM-pipeline brief's
scale axis.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import uuid

import numpy as np  # noqa: F401  (kept: public module surface)
import pyarrow as pa
import pyarrow.parquet as pq
from pyarrow import fs as pafs

from . import fs as vfs

_HASH_VER = 1          # bump if stages.exchange._bucket_of ever changes
_MANIFEST = "_bucketed.json"


def _build_dir_for(f: pafs.FileSystem, path: str) -> str:
    """Fresh sibling build directory (in-filesystem path). The
    ``.tmp-<tag>-<base>`` naming matches state.compact's conventions,
    so its walkers skip it and ``cleanup_stale`` deletes it if a build
    crashes mid-write."""
    parent = vfs.parent(path) or "."
    vfs.makedirs(f, parent)
    return vfs.join(
        parent, f".tmp-{uuid.uuid4().hex[:8]}-{vfs.basename(path)}")


def publish_dir(build_dir: str, path: str, manifest_name: str,
                filesystem: pafs.FileSystem | None = None) -> None:
    """Atomically move a fully-built layout (data + manifest already
    inside ``build_dir``) into place at ``path``.

    Never merges into an existing target: a prior crashed build that
    left files-but-no-manifest would otherwise sit alongside the new
    files and duplicate every subsequent scan (ADVICE r3). An
    UNPUBLISHED target (no manifest) is removed outright; a PUBLISHED
    one is swapped via compact's two-rename protocol
    (final→``.old-<tag>-<base>``, build→final, rmtree old) whose crash
    window ``state.compact.cleanup_stale`` already knows how to
    repair (it restores an ``.old-`` whose final dir is missing)."""
    f, p = vfs.resolve_fs(path, filesystem)
    _, build = vfs.resolve_fs(build_dir, filesystem)
    if vfs.exists(f, p):
        if vfs.exists(f, vfs.join(p, manifest_name)):
            old = vfs.join(
                vfs.parent(p),
                f".old-{uuid.uuid4().hex[:8]}-{vfs.basename(p)}")
            vfs.move(f, p, old)
            vfs.move(f, build, p)
            vfs.delete_dir(f, old)
            return
        vfs.delete_dir(f, p)             # unpublished partial: drop
    vfs.move(f, build, p)


@contextlib.contextmanager
def layout_build_lock(path: str,
                      filesystem: pafs.FileSystem | None = None):
    """Advisory per-path exclusive lock (flock on ``<path>.lock``) for
    check-then-build of shared cached layouts — two processes racing
    on the same /tmp cache path serialize here instead of writing
    interleaved partials. flock is a single-host primitive, so the
    lock engages only for locally-backed filesystems; on object
    stores, racing builders are already safe (each builds in a
    run-unique temp dir and the publish is last-writer-wins on a
    complete layout) — the lock merely avoids duplicate work."""
    import fcntl
    f, p = vfs.resolve_fs(path, filesystem)
    root = vfs._local_root(f)
    if root is None:
        yield
        return
    os_path = os.path.join(root, p) if root else p
    os.makedirs(os.path.dirname(os.path.abspath(os_path)), exist_ok=True)
    lock_path = os_path + ".lock"
    # The holder unlinks the lock file on release (no litter beside
    # every cached layout), so a waiter may acquire flock on an
    # already-orphaned inode; re-stat the path after acquiring and
    # retry on the fresh file if they diverge.
    while True:
        fh = open(lock_path, "a")
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            cur_ino = os.stat(lock_path).st_ino
        except FileNotFoundError:
            fh.close()
            continue
        if cur_ino == os.fstat(fh.fileno()).st_ino:
            break
        fh.close()
    try:
        yield
    finally:
        # unlink while still holding LOCK_EX: any concurrent waiter
        # blocked on this inode re-checks and retries (loop above)
        try:
            os.unlink(lock_path)
        except FileNotFoundError:
            pass
        fcntl.flock(fh, fcntl.LOCK_UN)
        fh.close()


def _schema_b64(schema: pa.Schema) -> str:
    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def _schema_from_b64(s: str) -> pa.Schema:
    import pyarrow.ipc
    return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(s)))


def write_bucketed(ds, path: str, *, key_col: str,
                   num_buckets: int = 64,
                   filesystem: pafs.FileSystem | None = None) -> dict:
    """Materialize ``ds`` hash-partitioned by ``key_col`` into
    ``path/bucket=K/`` dirs (hive layout). No shuffle: each streaming
    write task splits its own blocks across bucket directories.
    Returns the manifest (also published to ``path/_bucketed.json``,
    after the data — manifest-last atomic publish)."""
    from ..stages.exchange import _bucket_of

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "bucket", pa.array(_bucket_of(b[key_col], num_buckets)))

    f, p = vfs.resolve_fs(path, filesystem)
    schema = ds.schema()
    tagged = ds.map_batches(add_bucket, batch_format="pyarrow",
                            zero_copy_batch=True)
    # build in a fresh temp dir, publish by atomic rename — a crashed
    # prior build can never leave stale partials under the final path
    build = _build_dir_for(f, p)
    tagged.write_parquet(build, partition_cols=["bucket"], filesystem=f)
    man = {"key_col": key_col, "num_buckets": num_buckets,
           "hash_ver": _HASH_VER,
           "schema": _schema_b64(
               pa.schema(list(zip(schema.names, schema.types))))}
    vfs.write_text(f, vfs.join(build, _MANIFEST), json.dumps(man))
    publish_dir(build, p, _MANIFEST, filesystem=f)
    return man


def read_manifest(path: str,
                  filesystem: pafs.FileSystem | None = None,
                  retries: int = 5, retry_wait_s: float = 0.1) -> dict:
    """Load a layout's ``_bucketed.json`` manifest.

    Transient-miss window: ``publish_dir``'s swap of an already-
    published layout is two renames (final→``.old-``, build→final),
    so a concurrent reader not holding ``layout_build_lock`` can
    observe the layout directory missing for an instant. When the
    manifest is absent but a sibling ``.old-<tag>-<base>`` exists
    (swap in flight — or crashed, repairable by
    ``state.compact.cleanup_stale``), this retries briefly instead of
    reporting unpublished; a genuinely unpublished path raises
    immediately."""
    import time
    f, p = vfs.resolve_fs(path, filesystem)
    mp = vfs.join(p, _MANIFEST)
    base = vfs.basename(p)
    for attempt in range(retries + 1):
        if vfs.exists(f, mp):
            return json.loads(vfs.read_text(f, mp))
        in_flight = any(
            s.startswith(".old-") and s.endswith("-" + base)
            for s in vfs.listdir(f, vfs.parent(p) or "."))
        if not in_flight or attempt == retries:
            break
        time.sleep(retry_wait_s)
    raise FileNotFoundError(
        f"{path} has no {_MANIFEST}: not a published bucketed "
        "layout (write_bucketed publishes the manifest last)")


def _check_compatible(man_l: dict, man_r: dict) -> None:
    for field in ("key_col", "num_buckets", "hash_ver"):
        if man_l[field] != man_r[field]:
            raise ValueError(
                f"bucketed layouts incompatible on {field}: "
                f"{man_l[field]!r} vs {man_r[field]!r} — co-located "
                "ops require identical key, bucket count and hash")


def _read_bucket(f: pafs.FileSystem, path: str, k: int,
                 schema: pa.Schema, columns: list[str]) -> pa.Table:
    d = vfs.join(path, f"bucket={k}")
    if not vfs.is_dir(f, d):        # no key hashed here: empty, typed
        return pa.schema([schema.field(c) for c in columns]) \
                 .empty_table()
    return pq.read_table(d, columns=columns, filesystem=f)


def colocated_join(path_l: str, path_r: str, *, left_cols: list[str],
                   right_cols: list[str], how: str = "inner",
                   right_suffix: str = "_r",
                   right_agg: dict | None = None,
                   filesystem: pafs.FileSystem | None = None):
    """Join two bucketed layouts sharing a key WITHOUT any exchange:
    one task per bucket reads ``bucket=k`` of both sides and joins
    them with the Acero kernel (same semantics as
    ``relational.hash_join``, including the join-aggregate fusion via
    ``right_agg``). Returns a streaming Dataset of joined rows."""
    import ray.data as rd

    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type: {how}")
    f_l, p_l = vfs.resolve_fs(path_l, filesystem)
    f_r, p_r = vfs.resolve_fs(path_r, filesystem)
    man_l = read_manifest(p_l, f_l)
    man_r = read_manifest(p_r, f_r)
    _check_compatible(man_l, man_r)
    key_col = man_l["key_col"]
    num_buckets = int(man_l["num_buckets"])
    schema_l = _schema_from_b64(man_l["schema"])
    schema_r = _schema_from_b64(man_r["schema"])
    out_right = [c + right_suffix if (c in left_cols or c == key_col)
                 else c for c in right_cols]
    agg_out = {(c + right_suffix if (c in left_cols or c == key_col)
                else c): a for c, a in (right_agg or {}).items()}
    join_type = {"inner": "inner", "left": "left outer"}[how]
    final_order = [key_col] + left_cols + out_right

    def join_bucket(batch: pa.Table) -> pa.Table:
        out = []
        for k in batch["item"].to_pylist():
            left = _read_bucket(f_l, p_l, k, schema_l,
                                [key_col] + left_cols)
            right = _read_bucket(f_r, p_r, k, schema_r,
                                 [key_col] + right_cols)
            right = right.rename_columns([key_col] + out_right)
            if agg_out:
                gb = pa.TableGroupBy(right, [key_col]).aggregate(
                    list(agg_out.items()))
                right = gb.rename_columns([key_col] + list(agg_out))
            j = left.join(right, keys=key_col, join_type=join_type)
            out.append(j.select(final_order))
        return pa.concat_tables(out).combine_chunks()

    return rd.from_items(list(range(num_buckets))) \
             .map_batches(join_bucket, batch_format="pyarrow",
                          batch_size=1)
