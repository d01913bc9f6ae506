"""Sequences-table sources (BASELINE.json input_hint shape).

``FragmentDatasource`` is the engine's read side, the batch analogue
of the reference's watcher+tailer chain (discover files → tail chunks,
components/core-agent/src/watcher/discovery.rs:18-49,
src/tailer/tailer.rs:43-59): it reads fragments, whole files or
``"<file>#rg<a>-<b>"`` row-group ranges, as contiguous runs of row
groups balanced by rows, and streams one Arrow table per row group;
the flagship adds the fragment id (the inode analogue) as a ``path``
column for lineage/checkpointing. It serves the flagship's shards and
every plain catalog read (``read_parquet_sized``). ``read_blocks``,
``block_bytes`` and ``set_block_target`` are the sizing rule every
sized read shares.

``documents_as_sequences`` adapts the driver testdata ``documents``
table (doc_id:int, text, lang, source, n_chars) into the sequences
shape with a deterministic whitespace+hash tokenizer, so the flagship
pipeline and its DuckDB oracle can run over driver-generated data:
``n_tok`` = whitespace word count (SQL: len(regexp_split_to_array)),
tokens = per-word 64-bit hash % vocab (not SQL-checked; checked by the
in-repo single-process oracle instead).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

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


def block_bytes(nbytes: int, n: int) -> int | None:
    """The block size a sized read's plan implies: ``nbytes`` over
    ``n``, capped at the session's ``DataContext.target_max_block_size``
    (the cap itself when ``nbytes`` is unknown, 0).

    Set on a read Dataset's own ``ds.context`` (``set_block_target``),
    it sizes Ray Data's guess of a task's output before the first task
    reports (2 × the target), so every CPU starts in the first wave
    (NOTES.md "A read's first wave"). A catalog read divides by its
    ``read_blocks`` count, so Ray splits its one-row-group files into
    that many blocks inside the read task, and the read fuses with the
    map after it; the flagship divides by its read tasks, so its read
    planning adds no split and each block keeps its own write task."""
    from ray.data import DataContext
    target = DataContext.get_current().target_max_block_size
    if not nbytes or target is None:
        return target
    return min(target, -(-int(nbytes) // n))


def set_block_target(ds, nbytes: int, n: int) -> int | None:
    """Set ``ds``'s own ``target_max_block_size`` (the Dataset's copy of
    the context; the session's is untouched) to ``block_bytes(nbytes,
    n)``, and return it."""
    size = block_bytes(nbytes, n)
    ds.context.target_max_block_size = size
    return size


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
    """Parquet as a Dataset of ``read_blocks(nbytes)`` blocks, its own
    target set to its in-memory estimate over those blocks
    (``set_block_target``). ``nbytes`` skips the size listing when the
    caller already knows the input's size (a checkpoint manifest does).

    A plain read, a file or a list of files with no keyword but
    ``columns=`` and no ``=`` (a hive ``key=value`` segment) in any
    path, goes through ``FragmentDatasource``: its estimate comes from
    the footers, so planning runs no sampling task. Directories, hive
    file lists (whose partition columns ``read_parquet`` adds) and
    filtered reads go through ``ray.data.read_parquet``, estimated by
    ``source_bytes``."""
    import ray.data as rd

    from ..state import fs as vfs
    if nbytes is None:
        nbytes = input_bytes(path_or_paths, filesystem)
    blocks = read_blocks(nbytes)
    paths = ([path_or_paths] if isinstance(path_or_paths, str)
             else list(path_or_paths))
    resolved = [vfs.resolve_fs(p, filesystem) for p in paths]
    plain = (resolved and set(kw) <= {"columns"}
             and not any("=" in p for _, p in resolved)
             and not (isinstance(path_or_paths, str)
                      and vfs.is_dir(*resolved[0])))
    if plain:
        source = FragmentDatasource([p for _, p in resolved],
                                    resolved[0][0], columns=kw.get("columns"))
        ds = rd.read_datasource(source, override_num_blocks=blocks)
        estimate = source.estimate_inmemory_data_size()
    else:
        ds = rd.read_parquet(path_or_paths, filesystem=filesystem,
                             override_num_blocks=blocks, **kw)
        estimate = source_bytes(ds)
    set_block_target(ds, estimate, blocks)
    return ds


# Arrow bytes per value of Parquet's fixed-width physical types
_WIDTHS = {"BOOLEAN": 1, "INT32": 4, "INT64": 8, "INT96": 12,
           "FLOAT": 4, "DOUBLE": 8}


def _row_group_bytes(md, rg: int, leaves) -> int:
    """In-memory Arrow size of the ``leaves`` (leaf column indices) of
    row group ``rg`` from the footer ``md``: fixed-width leaves as
    values × width, byte arrays at their uncompressed size, plus 4 B of
    offsets per row for each byte-array and each list column
    (``total_byte_size`` under-counts by a third: dictionary pages hold
    each distinct value once)."""
    group, total = md.row_group(rg), 0
    for i in leaves:
        col, leaf = group.column(i), md.schema.column(i)
        if col.physical_type == "BYTE_ARRAY":
            total += col.total_uncompressed_size + 4 * group.num_rows
        else:   # FIXED_LEN_BYTE_ARRAY: the leaf's declared length
            total += col.num_values * _WIDTHS.get(col.physical_type,
                                                  leaf.length)
        if leaf.max_repetition_level:
            total += 4 * group.num_rows
    return total


def _read_row_groups(filesystem, units, columns, with_path):
    """A read task: each ``(file, row group, fragment id)`` unit as its
    own table of ``columns`` (all when None), with the fragment id as
    ``path`` when ``with_path``."""
    from ..state import fs as vfs
    pf = path = None
    for file, rg, fid in units:
        if file != path:
            pf, path = vfs.open_parquet(filesystem, file), file
        table = pf.read_row_group(rg, columns=columns)
        yield (table.append_column(
            "path", pa.array([fid] * len(table), pa.string()))
            if with_path else table)


class FragmentDatasource(Datasource):
    """Fragments, files or ``"<file>#rg<a>-<b>"`` units (row groups
    ``[a, b)``), as a Ray Data source: the flagship's shard read and
    every plain catalog read (``read_parquet_sized``).
    ``get_read_tasks(n)`` cuts their row groups, in order, into
    ``min(n, row groups)`` contiguous runs of about equal rows; a task
    streams its run, one table per row group, of ``columns`` (all when
    None), plus the fragment id as ``path`` when ``with_path`` (the
    flagship's lineage). Sizes come from the footers, read once on the
    driver, and count only the projected columns. Files without any
    row group give one task of a typed empty table. The name keeps the
    operator ``ReadParquet``."""

    def __init__(self, fragment_ids: list[str], filesystem, *,
                 columns: list[str] | None = None, with_path: bool = False):
        from concurrent.futures import ThreadPoolExecutor

        from ..state import fs as vfs
        from ..state.checkpoint import parse_unit
        parsed = [parse_unit(fid) for fid in fragment_ids]
        files = list(dict.fromkeys(p for p, _, _ in parsed))
        with ThreadPoolExecutor(max_workers=min(32, len(files) or 1)) as pool:
            footers = dict(zip(files, pool.map(
                lambda p: vfs.open_parquet(filesystem, p).metadata, files)))
        self._filesystem, self._columns = filesystem, columns
        self._with_path = with_path
        self._units, self._rows, self._bytes = [], [], []
        for fid, (file, start, end) in zip(fragment_ids, parsed):
            md = footers[file]
            leaves = [i for i in range(md.num_columns) if columns is None
                      or md.schema.column(i).path.split(".")[0] in columns]
            for rg in range(start or 0, end or md.num_row_groups):
                rows = md.row_group(rg).num_rows
                self._units.append((file, rg, fid))
                self._rows.append(rows)
                # plus the path column's characters and offsets
                self._bytes.append(_row_group_bytes(md, rg, leaves) + (
                    rows * (len(fid.encode()) + 4) if with_path else 0))
        self._empty = None
        if files and not self._units:
            empty = footers[files[0]].schema.to_arrow_schema().empty_table()
            empty = empty.select(columns) if columns is not None else empty
            self._empty = (empty.append_column(
                "path", pa.array([], pa.string())) if with_path else empty)

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        if self._empty is not None:
            return [ReadTask(functools.partial(iter, [self._empty]),
                             BlockMetadata(num_rows=0, size_bytes=0,
                                           input_files=None, exec_stats=None),
                             schema=self._empty.schema)]
        n, cum = min(parallelism, len(self._units)), np.cumsum(self._rows)
        bounds = [0]
        for j in range(1, n):
            # cut where the running rows come nearest j/n of the total,
            # keeping at least one row group for this and each later task
            goal = cum[-1] * j / n
            i = int(np.searchsorted(cum, goal))
            if i and goal - cum[i - 1] < cum[i] - goal:
                i -= 1
            bounds.append(min(max(i + 1, bounds[-1] + 1),
                              len(self._units) - (n - j)))
        bounds.append(len(self._units))
        return [ReadTask(
            functools.partial(_read_row_groups, self._filesystem,
                              self._units[a:b], self._columns,
                              self._with_path),
            BlockMetadata(num_rows=sum(self._rows[a:b]),
                          size_bytes=sum(self._bytes[a:b]),
                          input_files=sorted({u[0] for u in self._units[a:b]}),
                          exec_stats=None))
            for a, b in zip(bounds, bounds[1:]) if b > a]


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
    return pa.table({"doc_id": doc_id, **{
        c: t[c] for c in ("tokens", "n_tok", "source", "lang", "n_chars")
        if c in t.column_names}})


def documents_as_sequences(sf_dir_or_path: str, *, filesystem=None):
    """Dataset over the driver documents table in sequences shape."""
    from ..state import fs as vfs
    f, p = vfs.resolve_fs(sf_dir_or_path, filesystem)
    if vfs.is_dir(f, p):
        p = vfs.join(p, "documents.parquet")
    ds = read_parquet_sized(p, columns=["doc_id", "text", "source"],
                            filesystem=f)
    return ds.map_batches(documents_to_sequences_batch, batch_format="pyarrow",
                          zero_copy_batch=True)
