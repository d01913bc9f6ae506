"""Sink compaction: rewrite partition directories that have accreted
many small files into few right-sized ones.

Incremental runs (resume, per-shard publishes, rotation reprocessing)
legitimately leave a partition directory holding one small file per
shard; at 100 TB that file count — not data size — becomes the
bottleneck for every subsequent read (footer fetches, task planning).
Compaction is standard sink maintenance: per partition, stream the
rows through Ray (`read_parquet` → `write_parquet` with
``min_rows_per_file``) into a sibling temp dir, then swap via renames.

Crash safety mirrors the flagship publish protocol (temp + rename):
the temp dir is invisible to readers (``.tmp-`` prefix is ignored by
dataset reads); the swap window is two renames — a crash between them
(dirpath→``.old-`` done, ``.tmp-``→dirpath not yet) leaves the
partition existing ONLY as the ``.old-`` dir, so ``cleanup_stale``
first restores any ``.old-<tag>-<base>`` whose ``<base>`` directory
is missing (one rename back) and only then deletes leftovers whose
final dir exists. Partitions compact independently, so a failed run
is simply re-run.

Checkpoint/lineage metadata subtrees (``_checkpoint``, ``lineage``)
are never compacted: their files have load-bearing names
(``lineage.parquet``/``route_counts.parquet``/…) and heterogeneous
schemas that marker recovery depends on.
"""

from __future__ import annotations

import uuid

from pyarrow import fs as pafs

from . import fs as vfs

#: directory names whose subtrees hold pipeline metadata, not data —
#: compaction must not rewrite them (flagship._recover_markers reads
#: lineage/shard=*/<fixed-name>.parquet; _checkpoint holds markers)
PROTECTED_DIRS = frozenset({"_checkpoint", "lineage"})


def _walk(f: pafs.FileSystem, root: str):
    """os.walk analogue over a pyarrow filesystem: yields
    (dirpath, dirnames, filenames) top-down; prune by mutating
    dirnames in place, exactly like os.walk."""
    names = vfs.listdir(f, root)
    dirnames, filenames = [], []
    for n in names:
        (dirnames if vfs.is_dir(f, vfs.join(root, n))
         else filenames).append(n)
    yield root, dirnames, filenames
    for d in list(dirnames):
        yield from _walk(f, vfs.join(root, d))


def _leaf_parquet_dirs(f: pafs.FileSystem, root: str):
    for dirpath, dirnames, filenames in _walk(f, root):
        base = vfs.basename(dirpath)
        if (base.startswith(".tmp-") or base.startswith(".old-")
                or base in PROTECTED_DIRS):
            dirnames[:] = []
            continue
        for d in list(dirnames):
            if d in PROTECTED_DIRS:
                dirnames.remove(d)
        pq_files = [fn for fn in filenames if fn.endswith(".parquet")]
        if pq_files:
            yield dirpath, pq_files


def _old_base(name: str) -> str:
    """``.old-<tag>-<base>`` → ``<base>`` (tag is dash-free hex)."""
    parts = name.split("-", 2)
    return parts[2] if len(parts) == 3 else ""


def cleanup_stale(root: str,
                  filesystem: pafs.FileSystem | None = None) -> int:
    """Remove ``.tmp-``/``.old-`` leftovers from interrupted runs.

    A crash between compact's two swap renames leaves the partition
    existing ONLY as ``.old-<tag>-<base>``; deleting it there would
    destroy the partition's sole copy, so such dirs are restored via
    ``os.rename`` back to ``<base>`` instead. ``.old-`` dirs whose
    final dir exists, and all ``.tmp-`` dirs, are deleted."""
    f, p = vfs.resolve_fs(root, filesystem)
    if not vfs.is_dir(f, p):
        return 0
    handled = 0
    for dirpath, dirnames, _ in _walk(f, p):
        for d in list(dirnames):
            full = vfs.join(dirpath, d)
            if d.startswith(".old-"):
                base = _old_base(d)
                final = vfs.join(dirpath, base)
                if base and not vfs.exists(f, final):
                    vfs.move(f, full, final)
                else:
                    vfs.delete_dir(f, full)
            elif d.startswith(".tmp-"):
                vfs.delete_dir(f, full)
            else:
                continue
            dirnames.remove(d)
            handled += 1
    return handled


def compact_partitions(root: str, *, min_files: int = 2,
                       min_rows_per_file: int = 100_000,
                       compression: str = "zstd",
                       filesystem: pafs.FileSystem | None = None) -> dict:
    """Compact every leaf partition dir under ``root`` holding at
    least ``min_files`` parquet files. Returns
    {partitions, files_before, files_after}. Each partition's rewrite
    is a streaming Ray read→write (distributed within the partition);
    partitions proceed independently so interruption loses nothing."""
    from ..sources.sequences import read_parquet_sized

    f, p = vfs.resolve_fs(root, filesystem)
    cleanup_stale(p, f)
    stats = {"partitions": 0, "files_before": 0, "files_after": 0}
    for dirpath, files in list(_leaf_parquet_dirs(f, p)):
        if len(files) < min_files:
            stats["files_after"] += len(files)
            continue
        parent = vfs.parent(dirpath)
        base = vfs.basename(dirpath)
        tag = uuid.uuid4().hex[:8]
        tmp = vfs.join(parent, f".tmp-{tag}-{base}")
        old = vfs.join(parent, f".old-{tag}-{base}")
        ds = read_parquet_sized([vfs.join(dirpath, fn) for fn in files],
                                filesystem=f)
        ds.write_parquet(tmp, min_rows_per_file=min_rows_per_file,
                         compression=compression, filesystem=f)
        vfs.move(f, dirpath, old)
        vfs.move(f, tmp, dirpath)
        vfs.delete_dir(f, old)
        stats["partitions"] += 1
        stats["files_before"] += len(files)
        stats["files_after"] += len(
            [fn for fn in vfs.listdir(f, dirpath)
             if fn.endswith(".parquet")])
    return stats
