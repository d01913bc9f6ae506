"""Multi-node readiness: every persisted-state protocol must run
through the ``state.fs`` pyarrow.fs seam, never os.path-only code.

Each test passes ``filesystem=SubTreeFileSystem(<tmp>, local)`` with
paths RELATIVE to the subtree root. Any code path that falls back to
``os.path`` / ``open`` / ``shutil`` on such a path resolves against
the process CWD (or fails outright) instead of the subtree — so these
tests fail unless the whole protocol (build, temp dirs, manifests,
publish renames, reads) flows through the seam, which is exactly the
property a shared-store (s3://) deployment needs.
"""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyarrow import fs as pafs

import ray.data as rd


@pytest.fixture()
def subfs(tmp_path):
    return pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())


def test_resolve_fs_forms(tmp_path):
    from ves_ray.state.fs import resolve_fs
    f, p = resolve_fs(str(tmp_path / "x"))
    assert isinstance(f, pafs.LocalFileSystem)
    assert p == str(tmp_path / "x")
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    f2, p2 = resolve_fs("rel/inner", sub)
    assert f2 is sub and p2 == "rel/inner"
    f3, _ = resolve_fs(f"file://{tmp_path}/y")
    assert isinstance(f3, pafs.LocalFileSystem)


def test_checkpoint_store_on_subtree(tmp_path, subfs):
    from ves_ray.state.checkpoint import CheckpointStore, FragmentInfo
    store = CheckpointStore("job/out", filesystem=subfs)
    frag = FragmentInfo(path="a.parquet", num_rows=10, size_bytes=99)
    store.mark_done(frag, extra={"shard": "s0"})
    # marker durably exists INSIDE the subtree, not under CWD
    marker = tmp_path / "job" / "out" / "_checkpoint" / f"{frag.key}.json"
    assert marker.exists()
    assert json.loads(marker.read_text())["shard"] == "s0"
    assert store.completed() == {"a.parquet": {
        "path": "a.parquet", "num_rows": 10, "size_bytes": 99,
        "shard": "s0"}}
    assert store.pending([frag]) == []
    store.remove_marker("a.parquet")
    assert store.completed() == {}


def test_build_manifest_on_subtree(tmp_path, subfs):
    import pyarrow.parquet as pq
    from ves_ray.state.checkpoint import build_manifest
    (tmp_path / "in").mkdir()
    pq.write_table(pa.table({"x": list(range(7))}),
                   str(tmp_path / "in" / "f.parquet"))
    frags = build_manifest(["in/f.parquet"], filesystem=subfs)
    assert [(f.path, f.num_rows) for f in frags] == [("in/f.parquet", 7)]
    assert frags[0].size_bytes == (tmp_path / "in" / "f.parquet") \
        .stat().st_size


def test_bucketed_layout_on_subtree(tmp_path, subfs):
    import pyarrow.parquet as pq
    from ves_ray.state.bucketed import read_manifest, write_bucketed
    t = pa.table({"k": pa.array([1, 2, 1, 3, 2, 1], type=pa.int64()),
                  "v": pa.array([10, 20, 30, 40, 50, 60],
                                type=pa.int64())})
    write_bucketed(rd.from_arrow(t).repartition(2), "layouts/b",
                   key_col="k", num_buckets=4, filesystem=subfs)
    assert (tmp_path / "layouts" / "b" / "_bucketed.json").exists()
    man = read_manifest("layouts/b", filesystem=subfs)
    assert man["key_col"] == "k"
    got = (pq.read_table("layouts/b", columns=["k", "v"], filesystem=subfs)
           .to_pandas().groupby("k", as_index=False)
           .agg(n=("v", "size"), v=("v", "sum")))
    exp = pd.DataFrame({"k": [1, 2, 3], "n": [3, 2, 1],
                        "v": [100, 70, 40]})
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_ranged_layout_on_subtree(tmp_path, subfs):
    from ves_ray.state.ranged import (range_scan, read_manifest,
                                      select_partitions,
                                      write_range_partitioned)
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 1000, 500)
    t = pa.table({"ts": pa.array(vals, type=pa.int64()),
                  "p": pa.array(np.arange(500), type=pa.int64())})
    write_range_partitioned(rd.from_arrow(t).repartition(3),
                            "layouts/r", value_col="ts",
                            num_partitions=8, filesystem=subfs)
    assert (tmp_path / "layouts" / "r" / "_ranged.json").exists()
    man = read_manifest("layouts/r", filesystem=subfs)
    parts = select_partitions(man, 100, 200)
    assert 0 < len(parts) < 8          # zone maps actually prune
    got = range_scan("layouts/r", 100, 200, filesystem=subfs) \
        .to_pandas().sort_values("p", ignore_index=True)
    mask = (vals >= 100) & (vals <= 200)
    assert got["p"].tolist() == sorted(np.arange(500)[mask].tolist())


def test_export_roundtrip_on_subtree(tmp_path, subfs):
    from ves_ray.state.export import export_results, verify_export
    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    ds = rd.from_arrow(t).repartition(2)
    man = export_results({"tiny": t, "dist": ds}, "ship/out",
                         filesystem=subfs)
    assert (tmp_path / "ship" / "out" / "manifest.json").exists()
    assert man["tables"]["dist"]["rows"] == 3
    assert verify_export("ship/out", filesystem=subfs) == {
        "tiny": True, "dist": True}
    # idempotent re-export without overwrite returns the manifest
    again = export_results({"tiny": t}, "ship/out", filesystem=subfs)
    assert again == man


def test_seen_index_probe_append_on_subtree(tmp_path, subfs):
    from ves_ray.stages.incremental import (append_to_index,
                                            build_seen_index,
                                            probe_novel)
    corpus = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": ["alpha", "beta", "gamma"]})
    build_seen_index(rd.from_arrow(corpus), "idx/seen",
                     num_buckets=4, filesystem=subfs)
    shard = pa.table({
        "doc_id": pa.array([10, 11, 12, 13], type=pa.int64()),
        "text": ["beta", "delta", "delta", "alpha"]})
    novel = probe_novel(rd.from_arrow(shard), "idx/seen",
                        filesystem=subfs).to_pandas()
    assert sorted(novel["text"]) == ["delta"]
    assert novel["doc_id"].tolist() == [11]
    n = append_to_index(rd.from_arrow(pa.table(
        {"text": ["delta"]})), "idx/seen", filesystem=subfs)
    assert n == 1
    # after the append the same shard has nothing novel
    again = probe_novel(rd.from_arrow(shard), "idx/seen",
                        filesystem=subfs).to_pandas()
    assert len(again) == 0


def test_compact_on_subtree(tmp_path, subfs):
    import pyarrow.parquet as pq
    from ves_ray.state.compact import cleanup_stale, compact_partitions
    d = tmp_path / "sink" / "route=a"
    d.mkdir(parents=True)
    for i in range(4):
        pq.write_table(pa.table({"x": [i]}), str(d / f"part{i}.parquet"))
    (tmp_path / "sink" / ".tmp-dead").mkdir()
    stats = compact_partitions("sink", min_files=2,
                               min_rows_per_file=100, filesystem=subfs)
    assert stats["partitions"] == 1
    assert stats["files_before"] == 4 and stats["files_after"] == 1
    assert not (tmp_path / "sink" / ".tmp-dead").exists()
    got = pq.read_table(str(d))
    assert sorted(got["x"].to_pylist()) == [0, 1, 2, 3]
    assert cleanup_stale("sink", filesystem=subfs) == 0


def test_log_discovery_on_subtree(tmp_path, subfs):
    from ves_ray.sources.logs import discover_log_files, read_log_lines
    d = tmp_path / "logs" / "svc"
    d.mkdir(parents=True)
    (d / "a.log").write_text("l1\nl2\n")
    (d / "b.txt").write_text("l3\n")
    (d / ".hidden.log").write_text("nope\n")
    (d / "c.json").write_text("{}\n")
    got = discover_log_files("logs", filesystem=subfs)
    assert got == ["logs/svc/a.log", "logs/svc/b.txt"]
    ds = read_log_lines("logs", filesystem=subfs)
    assert sorted(r["text"] for r in ds.take_all()) == ["l1", "l2", "l3"]


def test_flagship_end_to_end_on_subtree(tmp_path, subfs):
    """The whole flagship protocol — manifest stat, shard write,
    atomic publish, lineage, markers, resume no-op — through the seam
    with subtree-relative in/out paths."""
    from ves_ray.fixtures import make_sources_table, write_sequences
    from ves_ray.pipelines.flagship import FlagshipPipeline
    write_sequences(str(tmp_path / "in"), seed=31, n_rows=500, n_files=4)
    pipe = FlagshipPipeline("in", make_sources_table(), "out",
                            filesystem=subfs)
    res = pipe.run()
    assert res["rows"] == 500
    assert (tmp_path / "out" / "routed").is_dir()
    assert (tmp_path / "out" / "counts" / "route_counts.parquet").exists()
    assert (tmp_path / "out" / "metrics.json").exists()
    # resume is a no-op and reproduces the aggregates
    res2 = FlagshipPipeline("in", make_sources_table(), "out",
                            filesystem=subfs).run()
    assert res2["pending_fragments"] == 0
    assert res2["route_counts"].equals(res["route_counts"])
    # rows in the sink match, read back through the same filesystem
    import pyarrow.parquet as pq
    got = pq.read_table(str(tmp_path / "out" / "routed"))
    assert len(got) == 500


def test_run_follow_on_subtree(tmp_path, subfs):
    """Follow-mode rescan cycles through the seam: a fragment added
    between cycles is discovered and processed via the filesystem
    handle, not the local CWD."""
    from ves_ray.fixtures import (make_sequences_table,
                                  make_sources_table, write_sequences)
    from ves_ray.pipelines.flagship import run_follow
    import pyarrow.parquet as pq
    write_sequences(str(tmp_path / "in"), seed=37, n_rows=300, n_files=3)

    def add_fragment(i):
        pq.write_table(make_sequences_table(99, 50, row_offset=9000),
                       str(tmp_path / "in" / "sequences-99999.parquet"))
        return True

    results = run_follow("in", make_sources_table(), "out",
                         rescans=1, interval_s=0.0,
                         before_rescan=add_fragment, filesystem=subfs)
    assert results[0]["rows"] == 300
    assert results[1]["rows"] == 50          # only the new fragment
    assert int(results[1]["route_counts"].to_pandas()["events"].sum()) \
        == 350


def test_asof_hot_spill_on_subtree(tmp_path, subfs):
    """The 90%-hot asof join's hot-slice spill must flow through the
    seam (scratch_dir + filesystem), land inside the subtree, match
    the unsplit plan exactly, and be removed once the Dataset is
    unreachable (no /tmp litter across repeated joins)."""
    import gc

    from ves_ray.stages.relational import asof_join
    rng = np.random.default_rng(5)
    n = 2000
    users = np.where(rng.random(n) < 0.9, 7,
                     rng.integers(100, 140, n))
    ts = pd.to_datetime("2024-03-01") + pd.to_timedelta(
        rng.permutation(n) * 37, unit="s")
    t = pa.table({"user_id": pa.array(users, type=pa.int64()),
                  "ts": pa.array(ts, type=pa.timestamp("us")),
                  "v": pa.array(rng.integers(0, 10**6, n),
                                type=pa.int64())})
    idx = np.arange(n)
    left_t = t.filter(pa.array(idx % 2 == 1)).rename_columns(
        ["user_id", "ts", "lv"])
    right_t = t.filter(pa.array(idx % 2 == 0)).rename_columns(
        ["user_id", "ts", "rv"])
    kw = dict(key_col="user_id", ts_col="ts", left_cols=["lv"],
              right_cols=["rv"], num_buckets=8)
    plain = asof_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                      **kw).to_pandas()
    ds = asof_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                   **kw, hot_frac=0.05, hot_ranges=8,
                   scratch_dir="scratch", filesystem=subfs)
    # the spill landed INSIDE the subtree, not under /tmp or CWD
    spills = list((tmp_path / "scratch").glob("ves_asof_hot_*"))
    assert len(spills) == 1
    assert any(spills[0].rglob("*.parquet"))
    split = ds.to_pandas()
    cols = ["user_id", "ts", "lv", "rv_r"]
    pd.testing.assert_frame_equal(
        split[cols].sort_values(["user_id", "ts"], ignore_index=True),
        plain[cols].sort_values(["user_id", "ts"], ignore_index=True),
        check_dtype=False)
    # GC of the Dataset removes the spill directory via the seam
    del ds
    gc.collect()
    assert list((tmp_path / "scratch").glob("ves_asof_hot_*")) == []


def test_ann_index_layouts_on_subtree(tmp_path, subfs):
    """Persisted IVF and LSH index layouts build AND probe through
    the seam: hive partitions, sidecar metadata parquet, and the
    partition-pruned probe read all land inside the subtree, and the
    probed results equal a plain-path build of the same index."""
    from ves_ray.stages.similarity import (build_ivf_index,
                                           build_lsh_index,
                                           ivf_topk_indexed,
                                           lsh_topk_indexed)
    rng = np.random.default_rng(17)
    m = rng.normal(size=(400, 8))
    t = pa.table({
        "vec_id": pa.array(np.arange(400), type=pa.int64()),
        "embedding": pa.array(list(map(list, m)),
                              type=pa.list_(pa.float64()))})
    ds = rd.from_arrow(t)
    q = m[:3].astype(np.float64)

    build_ivf_index(ds, "idx/ivf", n_centroids=8, sample_rows=256,
                    filesystem=subfs)
    assert (tmp_path / "idx" / "ivf" / "centroids.parquet").exists()
    cells = [p.name for p in (tmp_path / "idx" / "ivf" / "cells").iterdir()]
    assert cells and all(c.startswith("cell=") for c in cells)
    got = ivf_topk_indexed("idx/ivf", q, k=5, nprobe=3, filesystem=subfs)
    build_ivf_index(ds, str(tmp_path / "plain_ivf"), n_centroids=8,
                    sample_rows=256)
    ref = ivf_topk_indexed(str(tmp_path / "plain_ivf"), q, k=5, nprobe=3)
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  ref.reset_index(drop=True),
                                  check_dtype=False)

    build_lsh_index(ds, "idx/lsh", n_planes=6, filesystem=subfs)
    assert (tmp_path / "idx" / "lsh" / "planes.parquet").exists()
    buckets = [p.name
               for p in (tmp_path / "idx" / "lsh" / "buckets").iterdir()]
    assert buckets and all(b.startswith("bucket=") for b in buckets)
    got = lsh_topk_indexed("idx/lsh", q, k=5, multi_probe=1,
                           filesystem=subfs)
    build_lsh_index(ds, str(tmp_path / "plain_lsh"), n_planes=6)
    ref = lsh_topk_indexed(str(tmp_path / "plain_lsh"), q, k=5,
                           multi_probe=1)
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  ref.reset_index(drop=True),
                                  check_dtype=False)


def test_flagship_rejects_mismatched_input_output_fs(tmp_path):
    """A URI input whose filesystem kind differs from out_dir's must
    fail loudly at construction, not as a FileNotFoundError deep in
    build_manifest (ADVICE r4)."""
    from ves_ray.pipelines.flagship import FlagshipPipeline
    from ves_ray.fixtures import make_sources_table
    with pytest.raises(ValueError, match="resolves to"):
        FlagshipPipeline(f"mock://{tmp_path}/in", make_sources_table(),
                         str(tmp_path / "out"))


def test_uri_and_plain_paths_interoperate(tmp_path):
    """A file:// URI run and a plain-path resume must see the same
    markers (resolve_fs normalizes both to the same inner paths)."""
    from ves_ray.fixtures import make_sources_table, write_sequences
    from ves_ray.pipelines.flagship import FlagshipPipeline
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=41, n_rows=200, n_files=2)
    res = FlagshipPipeline(f"file://{in_dir}", make_sources_table(),
                           f"file://{out_dir}").run()
    assert res["rows"] == 200
    res2 = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    assert res2["pending_fragments"] == 0 and res2["rows"] == 0
    assert res2["route_counts"].equals(res["route_counts"])
