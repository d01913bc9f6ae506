"""Flagship pipeline: parse → enrich → route → aggregate (north_star).

One streaming Dataset execution per shard of input fragments. Default
physical plan (enrich_mode auto → task for small lookups), ONE fused
task per read block:

    ReadParquet(pending, include_paths)          # S8/S9: fragment read
      -> MapBatches(parse+checksum+enrich+salt)  # T1/T4/T5
      -> Write(RoutedShardSink: .tmp-shard/route=*/)            # T7
         each task returns its file names + (fragment, route,
         source) partials of exactly the rows it wrote      # T6+T8
    on_write_complete: listing == returned names, partials
               combined → lineage + per-shard aggregates
    atomic rename .tmp-shard → shard=<id>        # durable data
    lineage + per-shard aggregates → lineage/shard=<id>/
    commit record lineage/shard=<id>/fragments.parquet (one file, LAST
               of the shard's outputs)
    markers  = per-fragment checkpoint records (written LAST)   # T9
    final aggregates = O(shards) merge of per-shard records

Read sizing (sources.sequences.read_blocks): a shard is read as
``max(live CPUs, ceil(bytes / target_max_block_size))`` blocks, bytes
and rows taken from the checkpoint manifest. Ray's default of at least
200 read blocks would cut a 56 MB shard into blocks of a few hundred
rows, each paying every stage's per-block overhead. With
``min_rows_per_file`` in task mode the count is capped at
``rows // min_rows_per_file`` as long as that still gives every CPU a
block; the sink then asks for no minimum rows per write, so Ray fuses
read, transform and write into one task per block, and each task
(at least ``min_rows_per_file`` rows) writes one file per route. A shard too
small for that cap (rows < CPUs × min_rows_per_file) keeps the uncapped
read, and its write bundles ``min_rows_per_file`` rows per task as
``write_parquet`` would: no core idles to make files larger. A shard of
fewer files than blocks makes Ray split each read task's output, and
the read then runs as its own operator. ``split_fragment_rows`` units
(file + row-group range) are packed into the same number of
``from_items`` blocks, each read by one task. Each shard's result
records its ``read`` sizing (bytes, blocks).

Stage metrics (``stage_metrics=True``) are Ray Data's own per-operator
stats of the executed write Dataset (read, transform, encode + write
in one operator), summed over shards into ``result["stages"]`` and
``metrics.json``; no collector actor runs.

With enrich_mode="actor" (auto for lookups ≥ 96 MB — measured
crossover, see ENRICH_ACTOR_THRESHOLD_BYTES) the fused stage
splits into stateless parse tasks → Enricher actor pool → salt tasks,
the read is not row-capped, and the write bundles
``min_rows_per_file`` rows per task instead.

``RoutedShardSink`` builds on Ray Data internals, not its public API:
``ParquetDatasink``, ``choose_row_group_limits``, the write-UUID
keyword and ``call_with_retry`` (``ray.data._internal``), the
``min_rows_per_write`` hook and ``TaskContext.task_idx``/``kwargs``.
These move between Ray releases, so pyproject pins Ray to the tested
minor release.

Exactly-once story (ADR invariants, checkpoint-store ADR :10-13,27-34):
- a shard is committed by ONE file, its member list
  ``lineage/shard=<id>/fragments.parquet``, written to a temp name and
  moved into place after the routed dir is published and the lineage
  and aggregates are written: a rename on local disk, one whole-file
  put on an object store, so the record is either absent or complete;
- a shard without its commit record was never written: the next run
  that has anything pending deletes its routed and lineage dirs, half
  copied or whole, and reprocesses its fragments (``.tmp-*`` dirs go
  the same way), and ``compute_aggregates`` reads committed shards
  only;
- markers are written after the commit ("persist before in-memory
  update"); a crash between commit and markers is recovered by
  re-deriving markers from the committed lineage records — no
  reprocessing, no duplication, no skips;
- lineage and aggregates are computed from what was WRITTEN, never
  from side-effect counters: each write task returns the partials of
  the very tables it handed to the Parquet writer, under file names
  fixed by its task index, so a Ray task retry overwrites its own
  files and the last attempt's return is the one counted; the driver
  deletes every file under the shard that no return names before it
  publishes (SURVEY §4.2 hard part 1). Nothing is ever read back.

The input/output filesystem guard in ``FlagshipPipeline.__init__``
compares only the filesystems' ``type_name``: two different stores of
the same kind (two S3 buckets with different credentials, say) pass it.

Scale notes: no all-to-all exchange anywhere — the only "shuffle" is
collecting O(blocks × routes × sources) partial rows to the driver per
shard; routing skew is handled by salting hot routes (stages.route).
"""

from __future__ import annotations

import hashlib
import json
import time

import pyarrow as pa
import pyarrow.parquet as pq
from pyarrow import fs as pafs
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink

from ..sources.sequences import expand_paths, read_blocks, read_parquet_sized
from ..stages.enrich import Enricher, _as_table
from ..stages.parse import parse_batch
from ..stages.route import hot_route_salts, make_salter
from ..state.checkpoint import (CheckpointStore, atomic_publish_dir,
                                build_manifest, clean_stale_tmp)
from ..state import fs as vfs
from ..state.lineage import add_row_checksum_batch


def _shard_partial(batch: pa.Table) -> pa.Table:
    """Partial for every per-shard statistic at once, over the rows
    one write task wrote: grouped by
    (fragment, route, source) → events / n_tok_sum / checksum. One row
    per key combination per task, so the collected partials are tiny
    and driver-combinable at any shard size."""
    if len(batch) == 0:
        return pa.table({"fragment": pa.array([], type=pa.string()),
                         "route": pa.array([], type=pa.string()),
                         "source": pa.array([], type=pa.string()),
                         "events": pa.array([], type=pa.int64()),
                         "n_tok_sum": pa.array([], type=pa.int64()),
                         "checksum": pa.array([], type=pa.int64())})
    g = pa.TableGroupBy(batch, ["fragment", "route", "source"]).aggregate(
        [([], "count_all"), ("n_tok", "sum"), ("row_ck", "sum")])
    return g.rename_columns(["fragment", "route", "source",
                             "events", "n_tok_sum", "checksum"])


def _combine_partials(part: pa.Table) -> dict[str, pa.Table]:
    """Driver-side final combine of the tiny partials: lineage per
    fragment, per-sink counts, per-sink source histogram."""
    lin = pa.TableGroupBy(part, ["fragment"]).aggregate(
        [("events", "sum"), ("n_tok_sum", "sum"), ("checksum", "sum")]
    ).rename_columns(["fragment", "rows", "n_tok_sum", "checksum"])
    counts = pa.TableGroupBy(part, ["route"]).aggregate(
        [("events", "sum"), ("n_tok_sum", "sum")]
    ).rename_columns(["route", "events", "n_tok_sum"])
    hist = pa.TableGroupBy(part, ["route", "source"]).aggregate(
        [("events", "sum")]
    ).rename_columns(["route", "source", "events"])
    return {"lineage": lin.sort_by("fragment"),
            "route_counts": counts.sort_by("route"),
            "source_hist": hist.sort_by([("route", "ascending"),
                                         ("source", "ascending")])}


def _shard_id(frags) -> str:
    """Deterministic shard identity over the fragment set INCLUDING
    extents, so a rotated fragment (same path, new content —
    src/watcher/events.rs FileRotated) never collides with the shard
    published from its old content."""
    key = "\n".join(f"{f.path}\t{f.num_rows}\t{f.size_bytes}"
                    for f in sorted(frags, key=lambda f: f.path))
    return hashlib.sha1(key.encode()).hexdigest()[:12]


def _parse_and_checksum(batch: pa.Table) -> pa.Table:
    if "path" in batch.column_names:
        names = ["fragment" if c == "path" else c for c in batch.column_names]
        batch = batch.rename_columns(names)
    batch = parse_batch(batch)
    return add_row_checksum_batch(batch)


# Per-worker-process cache for the fused task-mode transform (same
# pattern as stages.enrich._TASK_ENRICHERS: a cloudpickled closure is
# re-deserialized per task, so per-worker state must live at module
# scope keyed by the broadcast ref).
_FUSED_ENRICHERS: dict[str, Enricher] = {}


def make_fused_transform(lookup_ref, hot_salt):
    """parse → checksum → broadcast-lookup enrich → salt as ONE
    map_batches stage. Explicit fusion: one operator means one plasma
    hop between read and write instead of three, and no rebatching
    between stages. Used when the lookup is small enough that the
    stateful-setup argument for a dedicated actor pool doesn't apply."""
    from ..stages.route import make_salter
    salter = make_salter(hot_salt)
    ref_key = lookup_ref.hex()

    def transform(batch: pa.Table) -> pa.Table:
        e = _FUSED_ENRICHERS.get(ref_key)
        if e is None:
            import ray
            e = Enricher(ray.get(lookup_ref))
            _FUSED_ENRICHERS[ref_key] = e
        return salter(e(_parse_and_checksum(batch)))

    return transform


def _stub_fsspec_http() -> None:
    """Make Ray's per-read `from fsspec.implementations.http import
    HTTPFileSystem` probe deterministic under driver threads.

    Without aiohttp installed that import FAILS on every read_parquet
    call; Ray catches the single-thread ModuleNotFoundError, but two
    threads importing concurrently can race — one observes the
    partially-initialized module and gets a bare ImportError that Ray
    does not catch. Registering a sentinel module (whose class nothing
    is ever an instance of) makes the probe succeed and side-steps the
    race; genuinely-HTTP filesystems would need aiohttp regardless."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
        return
    except ImportError:
        pass
    import sys
    import types
    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:          # sentinel only — never instantiated
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


# unused by the pipeline; kept because perfbench/tracing.py wraps it by name
def _read_routed(routed_root: str, columns: list[str] | None,
                 filesystem: pafs.FileSystem | None = None,
                 nbytes: int | None = None):
    return read_parquet_sized(routed_root, columns=columns,
                              filesystem=filesystem, nbytes=nbytes)


class RoutedShardSink(ParquetDatasink):
    """The shard's route-partitioned Parquet write (see the module
    docstring). ``write`` calls ``write_dataset`` with the arguments
    ``Dataset.write_parquet`` would use, under names fixed by the write
    and task index, and returns those names and ``_shard_partial`` of
    exactly the tables written. ``on_write_complete`` deletes unreturned
    files, fails on missing ones and leaves the combined stats in
    ``self.stats``. With ``bundle_rows`` None Ray fuses the write with
    the read and the transform, one task per read block."""

    def __init__(self, path: str, *, filesystem, min_rows_per_file=None,
                 bundle_rows: int | None = None, **write_opts):
        super().__init__(path, partition_cols=["route"],
                         arrow_parquet_args=write_opts,
                         min_rows_per_file=min_rows_per_file,
                         filesystem=filesystem)
        self.bundle_rows = bundle_rows
        self.stats: dict[str, pa.Table] | None = None

    @property
    def min_rows_per_write(self):
        return self.bundle_rows

    def write(self, blocks, ctx) -> dict:
        import pyarrow.dataset as pds
        from ray.data._internal.datasource.parquet_datasink import \
            choose_row_group_limits
        from ray.data._internal.planner.plan_write_op import \
            WRITE_UUID_KWARG_NAME
        from ray.data._internal.util import call_with_retry
        from ray.data.block import BlockAccessor

        tables = [t for t in (BlockAccessor.for_block(b).to_arrow()
                              for b in blocks) if len(t)]
        if not tables:
            return {"files": [], "partial": _shard_partial(pa.table({}))}
        schema = pa.unify_schemas([t.schema for t in tables])
        tables = [t if t.schema.equals(schema) else t.cast(schema)
                  for t in tables]
        min_group, max_group, max_file = choose_row_group_limits(
            None, self.min_rows_per_file, None)
        name = f"{ctx.kwargs[WRITE_UUID_KWARG_NAME]}_{ctx.task_idx:06}_000000"
        prefix = self.path.rstrip("/") + "/"
        files: list[str] = []

        def write_tables():
            files.clear()
            pds.write_dataset(
                tables, base_dir=self.path, schema=schema,
                basename_template=f"{name}-{{i}}.parquet",
                filesystem=self.filesystem, partitioning=["route"],
                partitioning_flavor="hive", format="parquet",
                existing_data_behavior="overwrite_or_ignore",
                use_threads=True, min_rows_per_group=min_group,
                max_rows_per_group=max_group, max_rows_per_file=max_file,
                file_options=pds.ParquetFileFormat().make_write_options(
                    **self.arrow_parquet_args),
                file_visitor=lambda f: files.append(f.path[len(prefix):]))

        call_with_retry(write_tables, description=f"write {name}",
                        match=self._data_context.retried_io_errors)
        return {"files": sorted(files),
                "partial": _shard_partial(pa.concat_tables(tables))}

    def on_write_complete(self, write_result) -> None:
        returns = write_result.write_returns
        named = {f for r in returns for f in r["files"]}
        prefix = self.path.rstrip("/") + "/"
        listed = {i.path[len(prefix):] for i in self.filesystem.get_file_info(
            pafs.FileSelector(self.path, recursive=True))
            if i.type == pafs.FileType.File}
        for stray in sorted(listed - named):
            self.filesystem.delete_file(prefix + stray)
        missing = sorted(named - listed)
        if missing:
            raise RuntimeError(f"write tasks returned files that are not "
                               f"under {self.path}: {missing[:5]}")
        self.stats = _combine_partials(pa.concat_tables(
            [_shard_partial(pa.table({}))]
            + [r["partial"] for r in returns]))


class FlagshipPipeline:
    """Driver object (the batch analogue of the reference Watcher +
    TailerManager wiring, src/watcher/watcher.rs:92-161 +
    src/tailer/manager.rs:44-66): owns config, manifest and checkpoint
    state; Ray Data owns scheduling, backpressure and retries."""

    # parquet encode options for the routed sink: dictionary-encode only
    # the low-cardinality string columns (dict-encoding the token arrays
    # costs ~3x encode CPU for no win; doc_id is unique so a dictionary
    # just doubles the work); zstd-1 ≈ snappy+dict size at half the CPU.
    WRITE_OPTS = dict(compression="zstd", compression_level=1,
                      use_dictionary=["fragment", "source", "src",
                                      "tenant", "severity"])

    # lookups under this size ship to every task worker for free (one
    # ray.get from plasma, decoded once per worker); above it, the
    # dedicated actor pool (setup once per actor, north_star pattern)
    # pays for itself. Measured crossover on this host
    # (tools/enrich_crossover.py, 20M probe rows, 32 task workers vs a
    # 4-actor pool, quiet box): task mode wins to ~72 MB (8.6 s vs
    # 16.7 s), actor wins from ~145 MB (18.1 s vs 28.0 s) and is 4.6x
    # ahead by 226 MB — actor wall is flat in lookup size while task
    # mode pays per-worker decode+index-build. Threshold sits between.
    # It scales inversely with workers-per-node: more task workers
    # multiply the decode cost, pushing the crossover DOWN.
    ENRICH_ACTOR_THRESHOLD_BYTES = 96 << 20

    # shard_size governs checkpoint granularity: None processes all
    # pending fragments as one shard (one streaming execution — right
    # for bounded jobs and benches); long 100 TB jobs should set a
    # bounded shard_size (e.g. 64–256 fragments) so completion markers
    # land incrementally and a crash loses at most one shard of work.
    # Shards run sequentially on purpose: each shard is itself a
    # whole-cluster streaming execution.
    # enrich_concurrency sizes the ACTOR-mode pool; "auto" resolves
    # from live cluster CPUs at construction (~cluster_cpus/8 pool
    # cpus, floor 2 actors — the pool is throughput-bound at roughly
    # 300-400k rows/s per actor-cpu, tools/enrich_crossover.py). A
    # 4-CPU pytest session resolves to one pool cpu: pool cpus must
    # stay under session cpus or the streaming executor deadlocks.
    # shard_parallelism bounds how many shards execute concurrently
    # (driver threads, each owning one streaming Dataset execution).
    # Default 1: one shard normally saturates the cluster. Raise to
    # 2–3 when shard_size is small relative to the cluster so actor
    # spin-up / write barriers of one shard overlap another's compute.
    def __init__(self, input_path, lookup, out_dir: str, *,
                 shard_size: int | None = None,
                 shard_parallelism: int = 1,
                 enrich_mode: str = "auto",
                 enrich_concurrency="auto",
                 enrich_num_cpus: float = 0.5,
                 salt_k: int = 16, min_rows_per_file: int | None = None,
                 stage_metrics: bool = True,
                 split_fragment_rows: int | None = None,
                 filesystem: pafs.FileSystem | None = None):
        # ONE filesystem covers input and output (a shared store on a
        # real cluster); bare local paths resolve to LocalFileSystem,
        # so all existing callers are unchanged. The resolved handle
        # rides into the Ray read/write tasks. Input paths that
        # resolve to a DIFFERENT filesystem kind than out_dir would
        # surface as FileNotFoundError deep in build_manifest — catch
        # the mismatch loudly here instead. Only the kind (type_name)
        # is compared, not the resolved store or its options.
        self.fs, out_inner = vfs.resolve_fs(out_dir, filesystem)
        # materialize once: a generator input must feed both the probe
        # below and the listing
        if not isinstance(input_path, str):
            input_path = list(input_path)
        for probe in ([input_path] if isinstance(input_path, str)
                      else input_path):
            in_fs, _ = vfs.resolve_fs(probe, filesystem)
            if in_fs.type_name != self.fs.type_name:
                raise ValueError(
                    f"input {probe!r} resolves to a "
                    f"{in_fs.type_name!r} filesystem but out_dir "
                    f"{out_dir!r} resolves to {self.fs.type_name!r}; "
                    "put both on one store or pass an explicit "
                    "filesystem=")
        self.input_paths = expand_paths(input_path, filesystem)
        self.lookup = _as_table(lookup)
        self.out_dir = out_inner
        self.routed_root = vfs.join(out_inner, "routed")
        self.lineage_root = vfs.join(out_inner, "lineage")
        self.counts_dir = vfs.join(out_inner, "counts")
        self.shard_size = shard_size
        self.shard_parallelism = max(1, shard_parallelism)
        if enrich_mode == "auto":
            enrich_mode = ("task" if self.lookup.nbytes
                           < self.ENRICH_ACTOR_THRESHOLD_BYTES else "actor")
        self.enrich_mode = enrich_mode
        if enrich_concurrency == "auto":
            # resolve at construction from the live cluster: one
            # enrich-actor cpu per ~8 cluster cpus keeps a
            # throughput-bound pool (~300-400k rows/s per actor-cpu,
            # tools/enrich_crossover.py) off the critical path while
            # bounding decoded-lookup copies. Floor 2 actors; with
            # num_cpus=0.5 a 4-CPU pytest session resolves to 2 x 0.5
            # = 1 cpu, well under the executor-deadlock line.
            try:
                import ray
                cpus = (int(ray.cluster_resources().get("CPU", 4))
                        if ray.is_initialized() else 4)
            except Exception:
                cpus = 4
            enrich_concurrency = max(
                2, int(cpus // 8 / max(enrich_num_cpus, 0.125)))
        self.enrich_concurrency = enrich_concurrency
        self.enrich_num_cpus = enrich_num_cpus
        self.hot_salt = hot_route_salts(self.lookup, k=salt_k)
        self.min_rows_per_file = min_rows_per_file
        self.stage_metrics = stage_metrics
        # sub-fragment checkpoint granularity (reference inode→offset
        # analogue): fragments above this row count split into
        # row-group-range units, each checkpointed independently, so a
        # crash mid-fragment loses at most one unit of work
        self.split_fragment_rows = split_fragment_rows
        self.store = CheckpointStore(out_inner, self.fs)

    # -- planning ------------------------------------------------------
    def _manifest(self):
        return build_manifest(self.input_paths,
                              split_rows=self.split_fragment_rows,
                              filesystem=self.fs)

    def plan(self):
        manifest = self._manifest()
        pending = self.store.pending(manifest)
        return manifest, pending

    def _shards(self, pending):
        if not pending:
            return []
        size = self.shard_size or len(pending)
        return [pending[i:i + size] for i in range(0, len(pending), size)]

    # -- transform DAG -------------------------------------------------
    def _read_fragments(self, frags):
        """Source Dataset for a shard, and its sizing (bytes, blocks).
        Plain fragment paths go through ``read_parquet`` (include_paths
        supplies the fragment id); unit-qualified ids
        ("<file>#rg<a>-<b>", split_fragment_rows) are packed into
        ``from_items`` blocks, and a map stage reads each block's units,
        exactly their row-group ranges, with the unit id as the
        fragment column. Either way the block count is ``read_blocks``
        over the shard's bytes and manifest rows."""
        import ray.data as rd
        from ..state.checkpoint import parse_unit
        parsed = [parse_unit(f.path) for f in frags]
        # a unit's extent carries its FILE's size: count each file once
        nbytes = sum({p: f.size_bytes for f, (p, _, _) in zip(frags, parsed)}
                     .values())
        # actor mode bundles its writes, so only task mode caps the read
        blocks = read_blocks(nbytes, sum(f.num_rows for f in frags),
                             self.min_rows_per_file
                             if self.enrich_mode == "task" else None)
        if all(a is None for _, a, _ in parsed):
            ds = rd.read_parquet([f.path for f in frags],
                                 override_num_blocks=blocks,
                                 include_paths=True,
                                 filesystem=self.fs)
            return ds, {"bytes": nbytes, "blocks": blocks}
        items = [{"file": p, "rg_start": -1 if a is None else a,
                  "rg_end": -1 if b is None else b, "unit": f.path}
                 for f, (p, a, b) in zip(frags, parsed)]
        blocks = min(blocks, len(items))
        f_sys = self.fs

        def read_unit(batch: pa.Table) -> pa.Table:
            tabs = []
            for row in batch.to_pylist():
                pf = vfs.open_parquet(f_sys, row["file"])
                if row["rg_start"] >= 0:
                    t = pf.read_row_groups(
                        list(range(row["rg_start"], row["rg_end"])))
                else:
                    t = pf.read()
                tabs.append(t.append_column(
                    "path", pa.array([row["unit"]] * len(t))))
            return pa.concat_tables(tabs)

        ds = rd.from_items(items, override_num_blocks=blocks).map_batches(
            read_unit, batch_format="pyarrow", batch_size=None,
            zero_copy_batch=True)
        return ds, {"bytes": nbytes, "blocks": blocks}

    def build_routed_dataset(self, frags):
        """The shard's routed Dataset and its read sizing."""
        import ray
        ds, sizing = self._read_fragments(frags)
        lookup_ref = ray.put(self.lookup)
        if self.enrich_mode == "task":
            # broadcast-small-side path: ONE fused task stage
            # (parse+checksum+enrich+salt); lookup decoded once per
            # warm, persistent task worker — no dedicated actors, no
            # extra plasma hops between sub-stages
            return ds.map_batches(
                make_fused_transform(lookup_ref, self.hot_salt),
                batch_format="pyarrow", zero_copy_batch=True), sizing
        ds = ds.map_batches(_parse_and_checksum,
                            batch_format="pyarrow", zero_copy_batch=True)
        ds = ds.map_batches(Enricher,
                            fn_constructor_kwargs=dict(lookup=lookup_ref),
                            batch_format="pyarrow", zero_copy_batch=True,
                            batch_size=8_192,
                            concurrency=self.enrich_concurrency,
                            num_cpus=self.enrich_num_cpus)
        ds = ds.map_batches(make_salter(self.hot_salt),
                            batch_format="pyarrow", zero_copy_batch=True)
        return ds, sizing

    # -- shard execution ----------------------------------------------
    def _kill_shard(self, sid: str, member_paths) -> None:
        vfs.delete_dir(self.fs, vfs.join(self.routed_root, f"shard={sid}"))
        vfs.delete_dir(self.fs, vfs.join(self.lineage_root, f"shard={sid}"))
        for path in member_paths:
            self.store.remove_marker(path)

    def _drop_removed(self, manifest) -> None:
        """FileRemoved semantics: a checkpointed fragment that is no
        longer present in the input has been deleted — drop its state
        and output, mirroring the reference's Remove(File) →
        FileRemoved → tailer Stop + checkpoint removal
        (src/watcher/events.rs:40-47, src/watcher/watcher.rs:77-88,
        src/tailer/tailer_events.rs:49-53). The whole shard containing
        the removed fragment is killed (data + lineage + markers) so
        final aggregates stop counting rows whose input is gone;
        surviving members of that shard become pending again and are
        reprocessed into a new shard."""
        completed = self.store.completed()
        cur = {f.path for f in manifest}
        removed = [p for p in completed if p not in cur]
        if not removed:
            return
        dead_shards = {completed[p].get("shard") for p in removed}
        dead_shards.discard(None)
        for sid in dead_shards:
            self._kill_shard(sid, [p for p, rec in completed.items()
                                   if rec.get("shard") == sid])
        for p in removed:          # markers that carried no shard field
            self.store.remove_marker(p)

    def _invalidate_rotated(self, pending) -> None:
        """Rotation recovery: a pending fragment that already has a
        completion marker was REPLACED in place (FileRotated). Its old
        rows live inside a published shard; drop that whole shard
        (data + lineage + every member fragment's marker) so the
        member fragments are reprocessed from current content —
        no stale rows, no duplicates (ADR: no duplicated or skipped
        data across restarts)."""
        completed = self.store.completed()
        dead_shards = {completed[f.path].get("shard")
                       for f in pending if f.path in completed}
        dead_shards.discard(None)
        for sid in dead_shards:
            self._kill_shard(sid, [p for p, rec in completed.items()
                                   if rec.get("shard") == sid])

    def _commit_record(self, sid: str) -> str:
        """The one file whose presence commits shard ``sid``."""
        return vfs.join(self.lineage_root, f"shard={sid}", "fragments.parquet")

    def _recover_markers(self, manifest) -> None:
        """Marker-store recovery (ADR: in-memory state reconstructable
        from the durable record, :22-24). A shard dir under routed/ or
        lineage/ without its commit record was never written: delete
        it. A commit record lists the shard's member fragments and
        extents: re-mark members whose current extents still match
        (markers were lost after the commit); kill the shard wholesale
        if any member was rotated since, or its data dir is gone."""
        completed = self.store.completed()
        cur = {f.path: f for f in manifest}
        sids = sorted({name.split("=", 1)[1]
                       for root in (self.routed_root, self.lineage_root)
                       for name in vfs.listdir(self.fs, root)
                       if name.startswith("shard=")})
        for sid in sids:
            record = self._commit_record(sid)
            if not vfs.exists(self.fs, record):
                self._kill_shard(sid, [])
                continue
            members = pq.read_table(record, filesystem=self.fs).to_pylist()
            data_ok = vfs.is_dir(self.fs,
                                 vfs.join(self.routed_root, f"shard={sid}"))
            intact = data_ok and all(
                (f := cur.get(m["path"])) is not None
                and f.num_rows == m["num_rows"]
                and f.size_bytes == m["size_bytes"]
                for m in members)
            if not intact:
                self._kill_shard(sid, [m["path"] for m in members])
                continue
            lin = {r["fragment"]: r for r in pq.read_table(
                vfs.join(self.lineage_root, f"shard={sid}", "lineage.parquet"),
                filesystem=self.fs).to_pylist()}
            for m in members:
                if m["path"] not in completed:
                    rec = lin.get(m["path"], {})
                    self.store.mark_done(cur[m["path"]], extra={
                        "shard": sid, "rows_out": rec.get("rows"),
                        "checksum": rec.get("checksum")})

    def _process_shard(self, frags) -> dict:
        from ..hashing import checksum_version
        from ..state.metrics import operator_stats
        t0 = time.perf_counter()
        stages = {}
        sid = _shard_id(frags)
        tmp = vfs.join(self.routed_root, f".tmp-{sid}")
        vfs.makedirs(self.fs, self.routed_root)
        ds, read = self.build_routed_dataset(frags)
        # task mode fuses read, transform and write into one task per
        # read block when every block holds min_rows_per_file rows.
        # Otherwise (actor mode, which cannot fuse across the pool, or
        # too few rows for such a block per CPU) the write bundles rows
        # up to min_rows_per_file, as write_parquet does
        mr = self.min_rows_per_file
        fused = self.enrich_mode == "task" and (
            not mr or sum(f.num_rows for f in frags) >= read["blocks"] * mr)
        sink = RoutedShardSink(
            tmp, filesystem=self.fs, min_rows_per_file=mr,
            bundle_rows=None if fused else mr, **self.WRITE_OPTS)
        ds.write_datasink(sink)
        stats = sink.stats
        if self.stage_metrics:
            # the executed write Dataset's stats cover read, transform
            # and encode + write
            stages["write"] = operator_stats(ds._write_ds)
        atomic_publish_dir(tmp, vfs.join(self.routed_root, f"shard={sid}"),
                           self.fs)
        write_s = round(time.perf_counter() - t0, 3)
        # lineage AND per-shard aggregates, stored beside each other:
        # the final aggregate is then an O(shards) metadata merge, with
        # no O(sink) re-read per run, which keeps resume cheap at scale.
        # Stamp the checksum implementation version: stored checksums
        # are only comparable within the same version
        # (hashing.checksum_version)
        lin_dir = vfs.join(self.lineage_root, f"shard={sid}")
        vfs.makedirs(self.fs, lin_dir)
        stats["lineage"] = stats["lineage"].replace_schema_metadata(
            {"ck_ver": checksum_version()})
        for name, table in stats.items():
            pq.write_table(table, vfs.join(lin_dir, f"{name}.parquet"),
                           filesystem=self.fs)
        # the commit record, LAST and as one file: shard membership +
        # extents, the durable record markers are reconstructed from
        # (ADR :22-24)
        record = self._commit_record(sid)
        pq.write_table(pa.table({
            "path": [f.path for f in frags],
            "num_rows": [f.num_rows for f in frags],
            "size_bytes": [f.size_bytes for f in frags],
        }), record + ".tmp", filesystem=self.fs)
        vfs.move(self.fs, record + ".tmp", record)
        stats_s = round(time.perf_counter() - t0 - write_s, 3)
        # markers last (ADR write-ordering invariant)
        by_path = {r["fragment"]: r for r in stats["lineage"].to_pylist()}
        for f in frags:
            rec = by_path.get(f.path, {})
            self.store.mark_done(f, extra={
                "shard": sid, "rows_out": rec.get("rows"),
                "checksum": rec.get("checksum")})
        t_end = time.perf_counter()
        wall = t_end - t0
        rows = int(sum(r["rows"] for r in by_path.values()))
        tokens = int(sum(r["n_tok_sum"] for r in by_path.values()))
        out = {"shard": sid, "fragments": len(frags),
               "start_s": t0, "end_s": t_end,
               "rows": rows, "tokens": tokens, "wall_s": wall,
               "rows_per_s": round(rows / wall, 1) if wall else None,
               "tokens_per_s": round(tokens / wall, 1) if wall else None,
               "write_s": write_s, "stats_s": stats_s, "read": read}
        if self.stage_metrics:
            out["stages"] = stages
        return out

    # -- aggregates from the sink -------------------------------------
    def compute_aggregates(self) -> dict[str, pa.Table]:
        """Merge the per-shard aggregates of the committed shards (each
        computed exactly once from its written shard) — an O(shards)
        driver-side combine, independent of sink size; resumed runs
        fold in prior shards' records automatically."""
        import pandas as pd

        shard_dirs = [vfs.join(self.lineage_root, n)
                      for n in vfs.listdir(self.fs, self.lineage_root)
                      if n.startswith("shard=") and vfs.exists(
                          self.fs, self._commit_record(n.split("=", 1)[1]))]
        if not shard_dirs:
            empty = pa.table({"route": pa.array([], type=pa.string()),
                              "events": pa.array([], type=pa.int64()),
                              "n_tok_sum": pa.array([], type=pa.int64())})
            empty_h = pa.table({"route": pa.array([], type=pa.string()),
                                "source": pa.array([], type=pa.string()),
                                "events": pa.array([], type=pa.int64())})
            return {"route_counts": empty, "source_hist": empty_h}
        counts = pd.concat(
            [pq.read_table(vfs.join(d, "route_counts.parquet"),
                           filesystem=self.fs).to_pandas()
             for d in shard_dirs], ignore_index=True
        ).groupby("route", as_index=False).sum().sort_values("route",
                                                             ignore_index=True)
        hist = pd.concat(
            [pq.read_table(vfs.join(d, "source_hist.parquet"),
                           filesystem=self.fs).to_pandas()
             for d in shard_dirs], ignore_index=True
        ).groupby(["route", "source"], as_index=False).sum().sort_values(
            ["route", "source"], ignore_index=True)
        vfs.makedirs(self.fs, self.counts_dir)
        counts_t = pa.Table.from_pandas(counts, preserve_index=False)
        hist_t = pa.Table.from_pandas(hist, preserve_index=False)
        pq.write_table(counts_t, vfs.join(self.counts_dir, "route_counts.parquet"),
                       filesystem=self.fs)
        pq.write_table(hist_t, vfs.join(self.counts_dir, "source_hist.parquet"),
                       filesystem=self.fs)
        return {"route_counts": counts_t, "source_hist": hist_t}

    def run(self, *, aggregate: bool = True,
            max_shards: int | None = None,
            deadline_s: float | None = None,
            _clock=None) -> dict:
        """Process pending fragments shard by shard.

        ``max_shards`` / ``deadline_s`` are the bounded-work stop
        conditions — the batch analogue of the reference tailer's
        stop-future composition (read-until: byte-limit / timeout /
        external-signal, src/tailer/async_read.rs:8-72): the run stops
        CLEANLY at a shard boundary once the budget is spent, with
        markers consistent (each finished shard published data +
        lineage + markers already), so a later ``run()`` resumes
        exactly where this one stopped and final aggregates are
        byte-identical to an unbounded run. ``deadline_s`` is checked
        before each shard starts (each WAVE with shard_parallelism >
        1) — a shard in flight always completes (stopping mid-shard
        would just discard work; the shard is the checkpoint granule).
        ``_clock`` swaps the deadline clock for a deterministic one in
        tests; wall_s always reports real time."""
        clock = _clock if _clock is not None else time.perf_counter
        t0 = clock()
        t0_wall = time.perf_counter()
        clean_stale_tmp(self.routed_root, self.fs)
        clean_stale_tmp(self.lineage_root, self.fs)
        manifest = self._manifest()
        self._drop_removed(manifest)   # FileRemoved: must run even when
        pending = self.store.pending(manifest)  # nothing looks pending
        if pending:
            # remaining recovery paths only engage when something looks
            # pending: with intact markers this block is skipped, so the
            # happy-path resume never scans O(shards) lineage dirs
            self._recover_markers(manifest)
            pending = self.store.pending(manifest)
            self._invalidate_rotated(pending)
            pending = self.store.pending(manifest)  # re-plan post-recovery
        shards = self._shards(pending)
        stopped_early = False
        if max_shards is not None and len(shards) > max_shards:
            shards = shards[:max_shards]
            stopped_early = True

        def _deadline_hit() -> bool:
            return (deadline_s is not None
                    and clock() - t0 >= deadline_s)

        if self.shard_parallelism > 1 and len(shards) > 1:
            # bounded-concurrency scheduler: each worker thread owns one
            # streaming Dataset execution; shard outputs are disjoint
            # (distinct shard dirs, distinct fragment markers) so no
            # cross-shard synchronization is needed
            from concurrent.futures import ThreadPoolExecutor

            _stub_fsspec_http()
            shard_stats = []
            with ThreadPoolExecutor(
                    max_workers=self.shard_parallelism) as pool:
                if deadline_s is None:
                    shard_stats = list(pool.map(self._process_shard,
                                                shards))
                else:
                    # deadline-checked waves of shard_parallelism
                    i = 0
                    while i < len(shards):
                        if _deadline_hit():
                            stopped_early = True
                            break
                        chunk = shards[i:i + self.shard_parallelism]
                        shard_stats.extend(
                            pool.map(self._process_shard, chunk))
                        i += len(chunk)
        else:
            shard_stats = []
            for s in shards:
                if _deadline_hit():
                    stopped_early = True
                    break
                shard_stats.append(self._process_shard(s))
        result = {
            "pending_fragments": len(pending),
            "shards": shard_stats,
            "stopped_early": stopped_early,
            "remaining_fragments": len(pending) - sum(
                s["fragments"] for s in shard_stats),
            "rows": sum(s["rows"] for s in shard_stats),
            "tokens": sum(s["tokens"] for s in shard_stats),
        }
        if aggregate:
            aggs = self.compute_aggregates()
            result["route_counts"] = aggs["route_counts"]
            result["source_hist"] = aggs["source_hist"]
        result["wall_s"] = time.perf_counter() - t0_wall
        # T12 self-metrics: Ray Data's per-operator stats of every
        # executed write, summed over shards, and a host snapshot
        from ..state.metrics import host_snapshot, merge_operator_stats
        if self.stage_metrics:
            recs = [s["stages"]["write"] for s in shard_stats]
            result["stages"] = ({"write": merge_operator_stats(recs)}
                                if recs else {})
        result["host"] = host_snapshot()
        vfs.write_text(self.fs, vfs.join(self.out_dir, "metrics.json"),
                       json.dumps({k: v for k, v in result.items()
                                   if k not in ("route_counts",
                                                "source_hist")},
                                  default=str))
        return result


def run_flagship(input_path, lookup, out_dir: str, **kw) -> dict:
    return FlagshipPipeline(input_path, lookup, out_dir, **kw).run()


def run_follow(input_path, lookup, out_dir: str, *, rescans: int = 0,
               interval_s: float = 5.0, before_rescan=None,
               **kw) -> list[dict]:
    """Follow mode: the reference watcher's periodic discovery rescan
    (5 s tokio interval, components/core-agent/src/watcher/
    watcher.rs:124) as a batch loop. Each cycle re-lists the input and
    processes ONLY fragments whose checkpoint markers are absent or
    stale — new files, rotations — appending to the same sinks;
    ``run()`` is idempotent, so an idle cycle is a cheap no-op
    (manifest stat + marker check, no data read).

    ``rescans`` bounds the number of follow cycles after the initial
    run; ``interval_s`` sleeps between them. ``before_rescan(i)`` (an
    ops/test hook) runs before cycle ``i``; returning False stops the
    loop early. Returns the per-cycle result dicts.

    Each cycle constructs a fresh pipeline: ``FlagshipPipeline``
    expands its input listing once at construction (deliberately — a
    run plans against a stable manifest), so the re-construction IS
    the rescan."""
    results = [FlagshipPipeline(input_path, lookup, out_dir,
                                **kw).run()]
    for i in range(rescans):
        if before_rescan is not None and before_rescan(i) is False:
            break
        if interval_s > 0:
            time.sleep(interval_s)
        results.append(FlagshipPipeline(input_path, lookup, out_dir,
                                        **kw).run())
    return results
