"""One pyarrow.fs-resolving seam for every data path.

Multi-node readiness: on a real cluster the checkpoint markers,
persisted layouts (bucketed / ranged / seen-index), export sinks and
log renders live on shared storage — an object store (s3://...) or a
mounted shared filesystem — not the driver's local disk. Every module
that touches a data path goes through this helper instead of
``os.path`` / ``open`` / ``shutil``, so pointing a pipeline at
``s3://bucket/prefix`` changes the resolved filesystem, not the code.

``resolve_fs`` is the single entry point: URI-style paths resolve via
``pyarrow.fs.FileSystem.from_uri``; bare paths resolve to
``LocalFileSystem``; an explicit ``filesystem=`` (any
``pyarrow.fs.FileSystem``, including ``SubTreeFileSystem`` wrappers
used by the tests, or fsspec adapters via ``PyFileSystem``) wins.
pyarrow filesystems are picklable, so the resolved handle can ride
into Ray tasks.

Atomicity note: ``move`` is an atomic rename on LocalFileSystem; on
object stores it degrades to copy+delete. Crash safety never relies
on rename atomicity alone — every publish protocol in this package is
manifest-last (a reader treats a manifest-less directory as
unpublished), which holds on any store with read-after-write file
visibility, PROVIDED the store's directory "move" copies the
manifest file after the data files (single-file moves are one put —
trivially whole). The flagship shard is committed by one such
single-file move, written after its data dir and lineage files.
tests/test_object_store_fs.py proves the protocols (markers, bucketed
publish, compaction swap, export, flagship shard commit) against such
a copy+delete filesystem with crashes injected before / during / after
the copy.
"""

from __future__ import annotations

import posixpath

from pyarrow import fs as pafs


def resolve_fs(path, filesystem: pafs.FileSystem | None = None
               ) -> tuple[pafs.FileSystem, str]:
    """(filesystem, in-filesystem path) for a data path. Explicit
    ``filesystem`` wins (path passed through verbatim); ``scheme://``
    paths resolve via ``FileSystem.from_uri``; everything else is the
    local filesystem."""
    p = str(path)
    if filesystem is not None:
        return filesystem, p
    if "://" in p:
        f, inner = pafs.FileSystem.from_uri(p)
        return f, inner
    return pafs.LocalFileSystem(), p


def join(*parts: str) -> str:
    """Path join for in-filesystem paths (always posix separators —
    pyarrow.fs paths are slash-separated on every store)."""
    return posixpath.join(*parts)


def basename(path: str) -> str:
    return posixpath.basename(path.rstrip("/"))


def parent(path: str) -> str:
    return posixpath.dirname(path.rstrip("/"))


def exists(f: pafs.FileSystem, path: str) -> bool:
    return f.get_file_info(path).type != pafs.FileType.NotFound


def is_dir(f: pafs.FileSystem, path: str) -> bool:
    return f.get_file_info(path).type == pafs.FileType.Directory


def listdir(f: pafs.FileSystem, path: str) -> list[str]:
    """Sorted base names of a directory's immediate children
    (empty list if the directory is missing)."""
    if not exists(f, path):
        return []
    sel = pafs.FileSelector(path, recursive=False)
    return sorted(basename(i.path) for i in f.get_file_info(sel))


def makedirs(f: pafs.FileSystem, path: str) -> None:
    f.create_dir(path, recursive=True)


def read_text(f: pafs.FileSystem, path: str) -> str:
    with f.open_input_stream(path) as s:
        return s.read().decode()


def write_text(f: pafs.FileSystem, path: str, text: str) -> None:
    with f.open_output_stream(path) as s:
        s.write(text.encode())


def _local_root(f: pafs.FileSystem) -> str | None:
    """OS-path prefix if ``f`` is backed by the local filesystem
    (LocalFileSystem → "", SubTreeFileSystem over local → its base
    path), else None. Lets durability-critical writes use os-level
    fsync where the OS offers one."""
    if isinstance(f, pafs.LocalFileSystem):
        return ""
    if (isinstance(f, pafs.SubTreeFileSystem)
            and isinstance(f.base_fs, pafs.LocalFileSystem)):
        return f.base_path
    return None


def write_text_atomic(f: pafs.FileSystem, path: str, text: str) -> None:
    """Write-temp-then-move publish for a single small file. On local
    filesystems the temp write is fsync'd before the atomic rename
    (checkpoint-marker durability — ADR invariant 4); on object stores
    single-file puts are already atomic and fsync has no analogue."""
    import os
    root = _local_root(f)
    if root is not None:
        os_path = os.path.join(root, path) if root else path
        tmp = os_path + ".tmp"
        with open(tmp, "w") as s:
            s.write(text)
            s.flush()
            os.fsync(s.fileno())
        os.rename(tmp, os_path)
        return
    tmp = path + ".tmp"
    write_text(f, tmp, text)
    f.move(tmp, path)


def move(f: pafs.FileSystem, src: str, dst: str) -> None:
    f.move(src, dst)


def file_size(f: pafs.FileSystem, path: str) -> int:
    return f.get_file_info(path).size


def open_parquet(f: pafs.FileSystem, path: str):
    """pyarrow.parquet.ParquetFile over any filesystem (footer-only
    metadata reads for manifests / zone maps)."""
    import pyarrow.parquet as pq
    return pq.ParquetFile(f.open_input_file(path))


def delete_dir(f: pafs.FileSystem, path: str) -> None:
    if exists(f, path):
        f.delete_dir(path)


def delete_file(f: pafs.FileSystem, path: str) -> None:
    if exists(f, path):
        f.delete_file(path)
