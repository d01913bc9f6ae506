"""Object-store publish semantics: no atomic rename, ever.

On an object store there is no directory rename — a "move" is a copy
of every object followed by deletes, and a crash can land anywhere in
between. ``state/fs.py`` claims the package's publish protocols never
rely on rename atomicity because every reader treats a manifest-less
directory as unpublished (manifest-last). These tests prove it with a
``pyarrow.fs.PyFileSystem`` whose ``move`` IS copy+delete, with crash
injection at three points:

- ``before_copy``: the move never happened (crash between compact's
  two swap renames — the source survives, target absent);
- ``after_copy``: copy complete, source not yet deleted (both exist);
- ``mid_copy``: a directory move crashed partway through copying its
  files; manifest-named files are ordered LAST (what a correct
  object-store mover must do — see state/fs.py), so the partial
  target is manifest-less and therefore unpublished to readers. A
  single-file move is one whole-file put, so its mid-copy crash leaves
  no target at all.

Driven protocols: checkpoint markers, bucketed layout publish,
compaction's two-rename swap + cleanup_stale repair, export, and the
flagship shard commit.
"""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyarrow import fs as pafs

import ray.data as rd

#: file names that certify a published directory — a correct
#: object-store mover must copy these last (readers treat their
#: absence as "unpublished")
_MANIFEST_NAMES = ("manifest.json", "_bucketed.json", "_ranged.json")


class InjectedCrash(RuntimeError):
    pass


class NonAtomicMoveHandler(pafs.FileSystemHandler):
    """Delegates to a SubTree-rooted local filesystem but implements
    ``move`` as copy-then-delete (object-store semantics), with crash
    injection. Directory copies order manifest-named files last."""

    def __init__(self, root: str):
        self.fs = pafs.SubTreeFileSystem(root, pafs.LocalFileSystem())
        self.moves = 0
        self.crash_on_move: int | None = None
        self.crash_point = "after_copy"

    # -- delegation -------------------------------------------------
    def get_type_name(self):
        return "nonatomic"

    def normalize_path(self, path):
        return path

    def get_file_info(self, paths):
        return self.fs.get_file_info(paths)

    def get_file_info_selector(self, selector):
        return self.fs.get_file_info(selector)

    def create_dir(self, path, recursive):
        self.fs.create_dir(path, recursive=recursive)

    def delete_dir(self, path):
        self.fs.delete_dir(path)

    def delete_dir_contents(self, path, missing_dir_ok=False):
        self.fs.delete_dir_contents(path, missing_dir_ok=missing_dir_ok)

    def delete_root_dir_contents(self):
        self.fs.delete_dir_contents("/", accept_root_dir=True)

    def delete_file(self, path):
        self.fs.delete_file(path)

    def copy_file(self, src, dest):
        self.fs.copy_file(src, dest)

    def open_input_stream(self, path):
        return self.fs.open_input_stream(path)

    def open_input_file(self, path):
        return self.fs.open_input_file(path)

    def open_output_stream(self, path, metadata):
        return self.fs.open_output_stream(path)

    def open_append_stream(self, path, metadata):
        return self.fs.open_append_stream(path)

    # -- the non-atomic move ----------------------------------------
    def _tree_files(self, src):
        infos = self.fs.get_file_info(
            pafs.FileSelector(src, recursive=True))
        dirs = sorted(i.path for i in infos
                      if i.type == pafs.FileType.Directory)
        files = sorted((i.path for i in infos
                        if i.type == pafs.FileType.File),
                       key=lambda p: (p.rsplit("/", 1)[-1]
                                      in _MANIFEST_NAMES, p))
        return dirs, files

    def move(self, src, dest):
        self.moves += 1
        crash_here = (self.crash_on_move is not None
                      and self.moves == self.crash_on_move)
        if crash_here and self.crash_point == "before_copy":
            raise InjectedCrash(f"before copy: {src} -> {dest}")
        info = self.fs.get_file_info(src)
        if info.type == pafs.FileType.Directory:
            self.fs.create_dir(dest, recursive=True)
            dirs, files = self._tree_files(src)
            for d in dirs:
                self.fs.create_dir(dest + d[len(src):], recursive=True)
            stop = len(files) // 2 if (
                crash_here and self.crash_point == "mid_copy") else None
            for i, p in enumerate(files):
                if stop is not None and i >= stop:
                    raise InjectedCrash(
                        f"mid copy ({i}/{len(files)}): {src} -> {dest}")
                self.fs.copy_file(p, dest + p[len(src):])
            if crash_here and self.crash_point == "after_copy":
                raise InjectedCrash(f"after copy: {src} -> {dest}")
            self.fs.delete_dir(src)
        else:
            if crash_here and self.crash_point == "mid_copy":
                raise InjectedCrash(f"mid copy (0/1): {src} -> {dest}")
            self.fs.copy_file(src, dest)
            if crash_here and self.crash_point == "after_copy":
                raise InjectedCrash(f"after copy: {src} -> {dest}")
            self.fs.delete_file(src)


@pytest.fixture()
def nafs(tmp_path):
    handler = NonAtomicMoveHandler(str(tmp_path))
    return pafs.PyFileSystem(handler), handler


def _arm(handler, point="after_copy", skip=0):
    """Crash on the (skip+1)-th move from now, at ``point``."""
    handler.crash_on_move = handler.moves + 1 + skip
    handler.crash_point = point


def _disarm(handler):
    handler.crash_on_move = None


def test_checkpoint_marker_non_atomic(tmp_path, nafs):
    """Marker publish = single-file write-temp-then-move. Without
    rename atomicity a crash after copy leaves a COMPLETE marker (the
    copy is one whole-file put) plus a stray .tmp — never a torn
    marker; a crash before copy leaves no marker (fragment simply
    reprocessed)."""
    from ves_ray.state.checkpoint import CheckpointStore, FragmentInfo
    f, h = nafs
    store = CheckpointStore("job", filesystem=f)
    frag = FragmentInfo(path="a.parquet", num_rows=10, size_bytes=99)
    store.mark_done(frag, extra={"shard": "s0"})
    assert store.completed()["a.parquet"]["shard"] == "s0"
    store.remove_marker("a.parquet")
    assert store.completed() == {}

    _arm(h, "after_copy")
    with pytest.raises(InjectedCrash):
        store.mark_done(frag, extra={"shard": "s0"})
    _disarm(h)
    rec = store.completed().get("a.parquet")
    assert rec is not None and rec["num_rows"] == 10   # complete JSON
    store.remove_marker("a.parquet")

    _arm(h, "before_copy")
    with pytest.raises(InjectedCrash):
        store.mark_done(frag)
    _disarm(h)
    assert store.completed() == {}       # absent → will reprocess
    store.mark_done(frag)                # retry succeeds
    assert store.pending([frag]) == []


def _layout_table(seed, scale=1):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array(rng.integers(0, 10, 60), type=pa.int64()),
        "v": pa.array(rng.integers(0, 100, 60) * scale,
                      type=pa.int64())})


def _groupby_sum(path, f):
    """Per-key count and sum of a published layout, read back through
    the same filesystem."""
    import pyarrow.parquet as pq
    from ves_ray.state.bucketed import read_manifest
    read_manifest(path, filesystem=f)
    return (pq.read_table(path, columns=["k", "v"], filesystem=f)
            .to_pandas().groupby("k", as_index=False)
            .agg(n=("v", "size"), v=("v", "sum")))


def test_bucketed_publish_crash_windows(tmp_path, nafs):
    """Republish of a live bucketed layout under copy+delete moves:
    whatever the crash point, a reader sees either the OLD published
    layout or the NEW one — never a merge, never a manifest-less dir
    that read_manifest accepts — and cleanup_stale + rebuild always
    converges."""
    from ves_ray.state.bucketed import read_manifest, write_bucketed
    from ves_ray.state.compact import cleanup_stale
    f, h = nafs
    t1, t2 = _layout_table(1), _layout_table(1, scale=3)
    write_bucketed(rd.from_arrow(t1), "lay", key_col="k",
                   num_buckets=4, filesystem=f)
    exp_old = _groupby_sum("lay", f)

    # crash in swap move #1 (final→old) after copy: final dir intact
    _arm(h, "after_copy")
    with pytest.raises(InjectedCrash):
        write_bucketed(rd.from_arrow(t2), "lay", key_col="k",
                       num_buckets=4, filesystem=f)
    _disarm(h)
    read_manifest("lay", filesystem=f)          # still published
    pd.testing.assert_frame_equal(_groupby_sum("lay", f), exp_old)
    assert cleanup_stale(".", filesystem=f) >= 1   # .old + .tmp gone
    assert (tmp_path / "lay" / "_bucketed.json").exists()

    # crash in swap move #2 (build→final) MID-copy: manifest ordered
    # last → final dir exists but is manifest-less → unpublished
    _arm(h, "mid_copy", skip=1)
    with pytest.raises(InjectedCrash):
        write_bucketed(rd.from_arrow(t2), "lay", key_col="k",
                       num_buckets=4, filesystem=f)
    _disarm(h)
    with pytest.raises(FileNotFoundError):
        read_manifest("lay", filesystem=f, retries=0)
    cleanup_stale(".", filesystem=f)
    # rebuild converges to the new layout
    write_bucketed(rd.from_arrow(t2), "lay", key_col="k",
                   num_buckets=4, filesystem=f)
    got = _groupby_sum("lay", f)
    exp_new = exp_old.assign(v=exp_old["v"] * 3)
    pd.testing.assert_frame_equal(got, exp_new)


def test_compact_swap_crash_between_renames(tmp_path, nafs):
    """compact's two-rename swap with a crash BETWEEN the renames
    (move #1 fully done, move #2 never started): the partition exists
    only as .old-*; cleanup_stale restores it with zero row loss —
    on the copy+delete filesystem, exactly as on local."""
    import pyarrow.parquet as pq
    from ves_ray.state.compact import cleanup_stale, compact_partitions
    f, h = nafs
    d = tmp_path / "sink" / "route=a"
    d.mkdir(parents=True)
    for i in range(4):
        pq.write_table(pa.table({"x": [i] * 5}),
                       str(d / f"part{i}.parquet"))
    _arm(h, "before_copy", skip=1)     # moves: tmp swap is #1 → crash #2
    with pytest.raises(InjectedCrash):
        compact_partitions("sink", min_files=2, min_rows_per_file=100,
                           filesystem=f)
    _disarm(h)
    # partition vanished from its final path — only .old- holds it
    assert not d.exists()
    olds = [p for p in (tmp_path / "sink").iterdir()
            if p.name.startswith(".old-")]
    assert len(olds) == 1
    assert cleanup_stale("sink", filesystem=f) >= 1
    assert d.exists()
    got = pq.read_table(str(d))
    assert sorted(got["x"].to_pylist()) == sorted(
        [i for i in range(4) for _ in range(5)])
    # re-run compaction to completion
    stats = compact_partitions("sink", min_files=2,
                               min_rows_per_file=100, filesystem=f)
    assert stats["partitions"] == 1 and stats["files_after"] == 1


def test_export_publish_non_atomic(tmp_path, nafs):
    """Export's single publish move under copy+delete: after-copy
    crash = complete export (manifest present, checksums verify);
    mid-copy crash = manifest-less dir (unpublished to consumers);
    re-export converges."""
    from ves_ray.state.export import export_results, verify_export
    f, h = nafs
    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})

    _arm(h, "mid_copy")
    with pytest.raises(InjectedCrash):
        export_results({"tiny": t}, "ship", filesystem=f)
    _disarm(h)
    # consumer contract: no manifest → unpublished, verify raises
    assert not (tmp_path / "ship" / "manifest.json").exists()
    with pytest.raises(FileNotFoundError):
        verify_export("ship", filesystem=f)

    _arm(h, "after_copy")
    with pytest.raises(InjectedCrash):
        export_results({"tiny": t}, "ship2", filesystem=f)
    _disarm(h)
    # copy completed → the export IS published and verifies
    assert verify_export("ship2", filesystem=f) == {"tiny": True}
    # idempotent follow-up returns the manifest without rewriting
    man = export_results({"tiny": t}, "ship2", filesystem=f)
    assert man["tables"]["tiny"]["rows"] == 3


def test_export_republish_after_mid_copy_crash_is_clean(tmp_path, nafs):
    """After a mid-copy crash leaves stray shard files at the target,
    a re-export must still yield a manifest whose file list is the
    single source of truth: verify reads ONLY manifest-listed files,
    so the stray partials never corrupt the checksum contract."""
    from ves_ray.state.export import export_results, verify_export
    f, h = nafs
    t = pa.table({"a": list(range(20)), "b": [str(i) for i in range(20)]})
    _arm(h, "mid_copy")
    with pytest.raises(InjectedCrash):
        export_results({"t": t}, "ship", filesystem=f)
    _disarm(h)
    man = export_results({"t": t}, "ship", filesystem=f)
    assert verify_export("ship", filesystem=f) == {"t": True}
    listed = set(man["tables"]["t"]["files"])
    on_disk = {p.name for p in (tmp_path / "ship" / "t").iterdir()}
    assert listed <= on_disk          # strays may remain; never read


def _flagship_run(f, out):
    """One flagship run over ``in`` and its outputs: the routed rows
    sorted by doc_id (without the shard column) and the aggregates."""
    import pyarrow.dataset as pds
    from ves_ray.fixtures import make_sources_table
    from ves_ray.pipelines.flagship import FlagshipPipeline
    res = FlagshipPipeline("in", make_sources_table(), out,
                           filesystem=f).run()
    t = pds.dataset(f"{out}/routed", filesystem=f,
                    partitioning="hive").to_table()
    rows = t.select(sorted(c for c in t.column_names if c != "shard"))
    return rows.sort_by("doc_id"), res["route_counts"], res["source_hist"]


@pytest.fixture(scope="module")
def flagship_clean(tmp_path_factory):
    """A crash-free flagship run, with the same store-relative input
    paths as every crash case."""
    from ves_ray.fixtures import write_sequences
    root = tmp_path_factory.mktemp("clean")
    write_sequences(str(root / "in"), seed=83, n_rows=800, n_files=4)
    return _flagship_run(
        pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem()), "out")


#: a one-shard run's moves, in order, and the source each one moves
_SHARD_MOVES = {1: "routed/.tmp-", 2: "fragments.parquet.tmp",
                3: "_checkpoint/"}


@pytest.mark.parametrize("point", ["before_copy", "mid_copy", "after_copy"])
@pytest.mark.parametrize("move", sorted(_SHARD_MOVES))
def test_flagship_shard_commit_crash_windows(tmp_path, nafs, flagship_clean,
                                             move, point):
    """A crash on the routed publish, the commit record's move or the
    first marker's, before, during or after its copy: the rerun leaves
    the routed rows, their doc_ids and the aggregates of a clean run.
    A half-copied routed or lineage dir is never taken as written."""
    from ves_ray.fixtures import write_sequences
    f, h = nafs
    write_sequences(str(tmp_path / "in"), seed=83, n_rows=800, n_files=4)
    _arm(h, point, skip=move - 1)
    with pytest.raises(InjectedCrash, match=_SHARD_MOVES[move]):
        _flagship_run(f, "out")
    _disarm(h)
    rows, counts, hist = _flagship_run(f, "out")
    want_rows, want_counts, want_hist = flagship_clean
    assert rows.num_rows == 800
    assert len(set(rows["doc_id"].to_pylist())) == 800
    assert rows.equals(want_rows)
    assert counts.equals(want_counts) and hist.equals(want_hist)
