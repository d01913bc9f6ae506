"""Sequences-table sources (BASELINE.json input_hint shape).

``read_sequences`` is the engine's read side — the batch analogue of
the reference's watcher+tailer chain (discover files → tail chunks,
components/core-agent/src/watcher/discovery.rs:18-49,
src/tailer/tailer.rs:43-59): Ray Data enumerates Parquet fragments and
streams Arrow record batches with backpressure; ``include_paths``
carries the fragment identity (the inode analogue) on every row for
lineage/checkpointing.

``documents_as_sequences`` adapts the driver testdata ``documents``
table (doc_id:int, text, lang, source, n_chars) into the sequences
shape with a deterministic whitespace+hash tokenizer, so the flagship
pipeline and its DuckDB oracle can run over driver-generated data:
``n_tok`` = whitespace word count (SQL: len(regexp_split_to_array)),
tokens = per-word 64-bit hash % vocab (not SQL-checked; checked by the
in-repo single-process oracle instead).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hash_strings
from ..schema import VOCAB_SIZE


def expand_paths(path_or_paths, filesystem=None) -> list[str]:
    """Directory → sorted parquet fragment list (dotfiles and non-
    parquet skipped, mirroring the reference's valid_file_format
    predicate, src/watcher/discovery.rs:101-116). ``filesystem``
    (any pyarrow.fs.FileSystem) routes the listing through the
    state.fs seam for shared-store inputs."""
    from ..state import fs as vfs
    if isinstance(path_or_paths, str):
        f, p = vfs.resolve_fs(path_or_paths, filesystem)
        if vfs.is_dir(f, p):
            return sorted(vfs.join(p, name) for name in vfs.listdir(f, p)
                          if name.endswith(".parquet")
                          and not name.startswith("."))
        return [p]
    # list input: scheme-resolve each element like the str branch so
    # URI entries yield in-filesystem paths, not verbatim URIs that a
    # later stat against the resolved filesystem can't find
    return sorted(vfs.resolve_fs(p, filesystem)[1] for p in path_or_paths)


def read_blocks(nbytes: int, rows: int | None = None,
                min_rows: int | None = None) -> int:
    """The read-sizing rule every sized read shares:
    ``max(live cluster CPUs, ceil(nbytes / target_max_block_size))``,
    capped at ``rows // min_rows`` when both are given and that cap
    still leaves every CPU a block.

    One block per CPU keeps every core busy; larger inputs get as many
    blocks as ``DataContext.target_max_block_size`` demands. Ray's own
    default (``read_op_min_num_blocks=200``) instead splits a few tens
    of MB into ~200 blocks of a few hundred rows each, and every later
    stage pays its per-block overhead on each of them. The cap keeps
    blocks of at least ``min_rows`` rows, so a read fused with its
    write (one file per block and partition) honours a
    ``min_rows_per_file``. It never goes below the CPUs: with fewer
    rows than ``CPUs × min_rows`` the count stays uncapped, some block
    holds fewer than ``min_rows`` rows, and the caller must bundle its
    writes instead (``rows < blocks × min_rows`` tells it so). Without
    a Ray session the CPUs are the cores this process may run on."""
    import ray
    from ray.data import DataContext
    if ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 1))
    else:
        cpus = len(os.sched_getaffinity(0))
    target = DataContext.get_current().target_max_block_size
    by_size = -(-int(nbytes) // target) if target else 1
    blocks = max(cpus, by_size, 1)
    if rows is not None and min_rows and int(rows) // min_rows >= cpus:
        blocks = min(blocks, int(rows) // min_rows)
    return blocks


def source_bytes(ds) -> int:
    """In-memory size of the sources in ``ds``'s lineage: the estimate
    each read (or in-memory input) reports from its metadata, summed.
    Nothing executes. An upper bound on the input of a later stage,
    since filters and projections only shrink it."""
    return sum(op.infer_metadata().size_bytes or 0
               for op in ds._logical_plan.dag.post_order_iter()
               if not op.input_dependencies)


def block_bytes(nbytes: int, tasks: int) -> int | None:
    """The block size a sized read's plan implies: ``nbytes`` over its
    ``tasks`` read tasks, capped at the session's
    ``DataContext.target_max_block_size`` (the cap itself when
    ``nbytes`` is unknown, 0).

    Set on a Dataset's own ``ds.context``, it sizes Ray Data's guess of
    a task's output before the first task reports, 2 ×
    ``target_max_block_size``. Against a budget of half the object
    store, the default 2 × 128 MiB lets a 768 MiB store start one task
    of an operator's first wave and leaves the other CPUs idle until
    it finishes. Below the cap it is one read task's bytes, so Ray's
    read planning adds no split of a task's output for it."""
    from ray.data import DataContext
    target = DataContext.get_current().target_max_block_size
    if not nbytes or target is None:
        return target
    return min(target, -(-int(nbytes) // tasks))


def input_bytes(path_or_paths, filesystem=None) -> int:
    """Summed size of the files under ``path_or_paths``; a directory
    counts every file below it."""
    from pyarrow import fs as pafs

    from ..state import fs as vfs
    paths = ([path_or_paths] if isinstance(path_or_paths, str)
             else path_or_paths)
    total = 0
    for path in paths:
        f, p = vfs.resolve_fs(path, filesystem)
        info = f.get_file_info(p)
        if info.type == pafs.FileType.Directory:
            total += sum(i.size for i in f.get_file_info(
                pafs.FileSelector(p, recursive=True))
                if i.type == pafs.FileType.File)
        elif info.type == pafs.FileType.File:
            total += info.size
    return total


def read_parquet_sized(path_or_paths, *, nbytes: int | None = None,
                       filesystem=None, **kw):
    """``ray.data.read_parquet`` with its block count set by
    ``read_blocks``. ``nbytes`` skips the size listing when the caller
    already knows the input's size (a checkpoint manifest does)."""
    import ray.data as rd
    if nbytes is None:
        nbytes = input_bytes(path_or_paths, filesystem)
    return rd.read_parquet(path_or_paths, filesystem=filesystem,
                           override_num_blocks=read_blocks(nbytes), **kw)


def read_sequences(path_or_paths, *, columns: list[str] | None = None,
                   include_paths: bool = False, concurrency: int | None = None,
                   filesystem=None):
    """Dataset over a sequences directory or fragment list. URI inputs
    are listed scheme-stripped, so without an explicit ``filesystem``
    they are read through the filesystem the first input's scheme
    names (one store per call)."""
    from ..state import fs as vfs
    if not isinstance(path_or_paths, str):
        path_or_paths = list(path_or_paths)
    paths = expand_paths(path_or_paths, filesystem)
    if filesystem is None and paths:
        first = (path_or_paths if isinstance(path_or_paths, str)
                 else path_or_paths[0])
        filesystem = vfs.resolve_fs(first)[0]
    return read_parquet_sized(paths, columns=columns,
                              include_paths=include_paths,
                              concurrency=concurrency, filesystem=filesystem)


_WS = r"\s+"


def tokenize_batch(batch: pa.Table, *, text_col: str = "text",
                   drop_text: bool = True) -> pa.Table:
    """Deterministic tokenizer: whitespace-split words → 64-bit word
    hash % VOCAB_SIZE as int32 tokens. Vectorized: Arrow split produces
    the flat word array; polars hashes it in one Rust kernel; the list
    structure is rebuilt from the split offsets (zero Python loops)."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern_regex(text, pattern=_WS)
    n_tok = pc.cast(pc.list_value_length(words), pa.int32())
    # .values is the FULL child array even for a sliced ListArray, with
    # offsets indexing into it absolutely — slice and rebase explicitly.
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values[off[0]:off[-1]]
    if len(flat):
        tok_flat = (hash_strings(flat, seed=0x70) % np.uint64(VOCAB_SIZE)).astype(np.int32)
    else:
        tok_flat = np.empty(0, dtype=np.int32)
    tokens = pa.ListArray.from_arrays(
        pa.array(off - off[0], type=pa.int32()),
        pa.array(tok_flat, type=pa.int32()))
    out = batch.append_column("tokens", tokens)
    out = out.append_column("n_tok", n_tok)
    if drop_text:
        out = out.drop_columns([text_col])
    return out


def documents_to_sequences_batch(batch: pa.Table) -> pa.Table:
    """Map a documents batch into the sequences shape
    (doc_id:string "{source}-{id:012d}", tokens, n_tok, source)."""
    src = batch["source"]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    ids = pc.cast(batch["doc_id"], pa.string())
    padded = pc.utf8_lpad(ids, width=12, padding="0")
    doc_id = pc.binary_join_element_wise(src, padded, "-")
    t = tokenize_batch(batch, text_col="text")
    keep = ["tokens", "n_tok", "source"]
    cols = {"doc_id": doc_id}
    for k in keep:
        cols[k] = t[k]
    extra = [c for c in t.column_names if c not in keep + ["doc_id"]]
    for c in extra:
        if c in ("lang", "n_chars"):
            cols[c] = t[c]
    return pa.table(cols)


def documents_as_sequences(sf_dir_or_path: str, *, concurrency: int | None = None,
                           filesystem=None):
    """Dataset over the driver documents table in sequences shape."""
    import ray.data as rd

    from ..state import fs as vfs
    f, p = vfs.resolve_fs(sf_dir_or_path, filesystem)
    if vfs.is_dir(f, p):
        p = vfs.join(p, "documents.parquet")
    ds = rd.read_parquet(p, columns=["doc_id", "text", "source"],
                         concurrency=concurrency, filesystem=f)
    return ds.map_batches(documents_to_sequences_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
