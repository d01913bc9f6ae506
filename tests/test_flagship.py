"""End-to-end flagship pipeline vs the single-process oracle, plus the
crash/resume scenarios the reference's checkpoint ADR planned
(components/core-agent/ADR/Watcher/000x-checkpoint-store.md:50-52)."""

import os
import shutil

import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data as rd
from ves_ray.fixtures import make_sources_table, write_sequences
from ves_ray.pipelines.flagship import FlagshipPipeline, run_flagship

from .oracle import oracle_route_counts, oracle_routed, oracle_source_hist

N_ROWS = 2000


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("flagship")
    in_dir, out_dir = str(root / "in"), str(root / "out")
    paths = write_sequences(in_dir, seed=11, n_rows=N_ROWS, n_files=8)
    res = run_flagship(in_dir, make_sources_table(), out_dir)
    return paths, in_dir, out_dir, res


def _read_routed_df(out_dir) -> pd.DataFrame:
    ds = rd.read_parquet(os.path.join(out_dir, "routed"))
    return ds.to_pandas()


def test_row_counts_and_aggregates(pipeline_run):
    paths, _, out_dir, res = pipeline_run
    oracle = oracle_routed(paths, make_sources_table())
    assert res["rows"] == len(oracle) == N_ROWS

    got_counts = (res["route_counts"].to_pandas()
                  .sort_values("route", ignore_index=True))
    exp_counts = oracle_route_counts(oracle)
    pd.testing.assert_frame_equal(
        got_counts.astype({"events": "int64", "n_tok_sum": "int64"}), exp_counts)

    got_hist = (res["source_hist"].to_pandas()
                .sort_values(["route", "source"], ignore_index=True)
                .astype({"events": "int64"}))
    pd.testing.assert_frame_equal(got_hist, oracle_source_hist(oracle))


def test_routed_rows_token_equality(pipeline_run):
    """The input_hint invariant: per-row token-array equality on the
    routed output, joined by doc_id."""
    paths, _, out_dir, _ = pipeline_run
    got = _read_routed_df(out_dir).sort_values("doc_id", ignore_index=True)
    exp = (oracle_routed(paths, make_sources_table())
           .sort_values("doc_id", ignore_index=True))
    assert list(got["doc_id"]) == list(exp["doc_id"])
    for col in ("source", "src", "seq_idx", "parse_ok", "tenant", "severity", "route", "n_tok"):
        assert list(got[col]) == list(exp[col]), col
    for a, b in zip(got["tokens"], exp["tokens"]):
        assert list(a) == list(b)


def test_routed_partition_layout(pipeline_run):
    _, _, out_dir, _ = pipeline_run
    shard_dirs = [d for d in os.listdir(os.path.join(out_dir, "routed"))
                  if d.startswith("shard=")]
    assert len(shard_dirs) == 1
    route_dirs = os.listdir(os.path.join(out_dir, "routed", shard_dirs[0]))
    assert any(d.startswith("route=route-0") for d in route_dirs)
    assert any(d.startswith("route=route-default") for d in route_dirs)


def test_lineage_covers_all_fragments(pipeline_run):
    paths, _, out_dir, _ = pipeline_run
    import glob
    lin_files = glob.glob(os.path.join(out_dir, "lineage", "shard=*",
                                       "lineage.parquet"))
    lin = pd.concat([pq.read_table(p).to_pandas() for p in lin_files],
                    ignore_index=True)
    assert sorted(lin["fragment"]) == sorted(paths)
    per_frag = {p: pq.ParquetFile(p).metadata.num_rows for p in paths}
    for _, r in lin.iterrows():
        assert r["rows"] == per_frag[r["fragment"]]
        assert r["checksum"] > 0


def test_resume_noop(pipeline_run):
    _, in_dir, out_dir, res = pipeline_run
    res2 = run_flagship(in_dir, make_sources_table(), out_dir)
    assert res2["pending_fragments"] == 0
    assert res2["route_counts"].equals(res["route_counts"])


def test_crash_resume_no_dup_no_skip(tmp_path):
    """Simulated crash: first run covers only half the fragments
    (driver dies before seeing the rest); second run must process
    exactly the remainder — no duplicated, no skipped rows."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=13, n_rows=800, n_files=8)
    partial = FlagshipPipeline(paths[:4], make_sources_table(), out_dir)
    partial.run(aggregate=False)
    full = FlagshipPipeline(in_dir, make_sources_table(), out_dir)
    res = full.run()
    assert res["pending_fragments"] == 4
    oracle = oracle_routed(paths, make_sources_table())
    got = _read_routed_df(out_dir)
    assert len(got) == len(oracle)
    assert sorted(got["doc_id"]) == sorted(oracle["doc_id"])
    pd.testing.assert_frame_equal(
        res["route_counts"].to_pandas().sort_values("route", ignore_index=True)
           .astype({"events": "int64", "n_tok_sum": "int64"}),
        oracle_route_counts(oracle))


def test_rotated_fragment_reprocessed_no_stale_rows(tmp_path):
    """FileRotated semantics (src/watcher/events.rs:18-65): a fragment
    replaced in place must be reprocessed from new content with its old
    rows dropped — no stale data, no duplicates."""
    from ves_ray.fixtures import make_sequences_table

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=23, n_rows=400, n_files=4)
    run_flagship(in_dir, make_sources_table(), out_dir)
    # rotate one fragment: same path, different content and extent
    rotated = os.path.join(in_dir, "sequences-00001.parquet")
    pq.write_table(make_sequences_table(77, 50, row_offset=5000), rotated)
    res = run_flagship(in_dir, make_sources_table(), out_dir)
    got = _read_routed_df(out_dir)
    assert len(got) == 300 + 50
    assert got["doc_id"].is_unique
    assert int(res["route_counts"].to_pandas()["events"].sum()) == 350


def test_marker_loss_multi_shard_no_duplication(tmp_path):
    """Markers lost with MULTIPLE published shards: recovery must
    reconstruct completion from the lineage fragment records instead of
    reprocessing everything into a fresh shard (which would duplicate
    every row)."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=29, n_rows=600, n_files=6)
    FlagshipPipeline(paths[:3], make_sources_table(), out_dir).run(aggregate=False)
    FlagshipPipeline(in_dir, make_sources_table(), out_dir).run(aggregate=False)
    shutil.rmtree(os.path.join(out_dir, "_checkpoint"))
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    assert res["pending_fragments"] == 0
    got = _read_routed_df(out_dir)
    assert len(got) == 600
    assert got["doc_id"].is_unique
    assert int(res["route_counts"].to_pandas()["events"].sum()) == 600


def test_crash_between_publish_and_markers(tmp_path):
    """Crash after the data rename but before markers: rerun must
    recover from the published shard without reprocessing or
    duplicating (ADR invariants :10-13)."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=17, n_rows=400, n_files=4)
    p = FlagshipPipeline(in_dir, make_sources_table(), out_dir)
    p.run(aggregate=False)
    # simulate: markers lost, data + lineage present
    shutil.rmtree(os.path.join(out_dir, "_checkpoint"))
    p2 = FlagshipPipeline(in_dir, make_sources_table(), out_dir)
    res = p2.run()
    got = _read_routed_df(out_dir)
    assert len(got) == 400
    assert got["doc_id"].is_unique


def test_task_mode_enrich_matches_actor_mode(pipeline_run, tmp_path):
    """The default (auto→task for a small lookup: fused
    parse+enrich+salt stage on warm task workers) must produce
    byte-identical routed rows and aggregates to the explicit
    actor-pool mode."""
    paths, in_dir, out_dir, res = pipeline_run
    out2 = str(tmp_path / "out_task")
    res2 = FlagshipPipeline(in_dir, make_sources_table(), out2,
                            enrich_mode="actor").run()
    a = _read_routed_df(out_dir).sort_values("doc_id", ignore_index=True)
    b = _read_routed_df(out2).sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)])
    pd.testing.assert_frame_equal(res["route_counts"].to_pandas(),
                                  res2["route_counts"].to_pandas())


def test_skewed_source_salted_and_exact(tmp_path):
    """SURVEY §5.2 skew scenario: one source dominates (~60% of rows in
    the fixture is the hot svc-000). The hot route's output must be
    split across multiple salt buckets with bounded imbalance, and the
    routed output must still be row-exact vs the oracle."""
    import numpy as np
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=31, n_rows=4000, n_files=4)
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                           salt_k=8).run()
    got = _read_routed_df(out_dir)
    assert len(got) == 4000 and got["doc_id"].is_unique
    # hot source rows: salted into >= 4 distinct buckets, none > 2x mean
    hot = got[got["source"] == "svc-000"]
    assert len(hot) > 1500                      # fixture skew present
    counts = hot.groupby("salt").size()
    assert len(counts) >= 4
    assert counts.max() <= 2 * counts.mean()
    # cold routes keep salt == 0
    cold = got[~got["route"].isin(set(hot["route"]))]
    assert (cold["salt"] == 0).all()
    # exactness: totals match the single-process oracle
    oracle = oracle_routed(paths, make_sources_table())
    exp = oracle.groupby("route").size().sort_index()
    act = got.groupby("route").size().sort_index()
    assert (exp == act).all()


def test_stale_tmp_cleaned(tmp_path):
    """A crash before the atomic rename leaves only .tmp-* dirs; the
    next run removes them and publishes cleanly."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=41, n_rows=200, n_files=2)
    routed = os.path.join(out_dir, "routed")
    os.makedirs(os.path.join(routed, ".tmp-deadbeef"), exist_ok=True)
    with open(os.path.join(routed, ".tmp-deadbeef", "junk.parquet"), "w") as f:
        f.write("partial")
    res = run_flagship(in_dir, make_sources_table(), out_dir)
    assert res["rows"] == 200
    assert not any(d.startswith(".tmp-") for d in os.listdir(routed))
    got = _read_routed_df(out_dir)
    assert len(got) == 200 and got["doc_id"].is_unique


def test_empty_input_dir(tmp_path):
    """No fragments: no crash, empty aggregates, clean metrics."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    os.makedirs(in_dir, exist_ok=True)
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    assert res["rows"] == 0 and res["pending_fragments"] == 0
    assert len(res["route_counts"]) == 0
    assert len(res["source_hist"]) == 0


def test_enrich_mode_auto_threshold(tmp_path):
    """auto → task for small lookups, actor once the broadcast table
    crosses the threshold (no pipeline run needed)."""
    import numpy as np
    import pyarrow as pa
    in_dir = str(tmp_path / "in")
    write_sequences(in_dir, seed=5, n_rows=10, n_files=1)
    small = FlagshipPipeline(in_dir, make_sources_table(), str(tmp_path / "a"))
    assert small.enrich_mode == "task"
    n = 900_000
    big_lookup = pa.table({
        "source": [f"s{i}" for i in range(n)],
        "tenant": ["t" * 90] * n,
        "severity": ["info"] * n,
        "route": [f"r{i % 6}" for i in range(n)],
        "hot": [False] * n,
    })
    assert big_lookup.nbytes >= FlagshipPipeline.ENRICH_ACTOR_THRESHOLD_BYTES
    big = FlagshipPipeline(in_dir, big_lookup, str(tmp_path / "b"))
    assert big.enrich_mode == "actor"


def test_removed_fragment_dropped(tmp_path):
    """FileRemoved semantics (src/watcher/events.rs:40-47 → tailer
    Stop, src/tailer/tailer_events.rs:49-53): deleting an input
    fragment between runs must drop its rows from the sink and shrink
    the final aggregates accordingly."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=37, n_rows=400, n_files=4)
    res1 = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                            shard_size=1).run()
    assert res1["rows"] == 400
    os.remove(paths[1])
    res2 = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                            shard_size=1).run()
    got = _read_routed_df(out_dir)
    assert len(got) == 300 and got["doc_id"].is_unique
    assert int(res2["route_counts"].to_pandas()["events"].sum()) == 300
    # the removed fragment's marker is gone; survivors keep theirs
    remaining = set(paths) - {paths[1]}
    oracle = oracle_routed(sorted(remaining), make_sources_table())
    pd.testing.assert_frame_equal(
        res2["route_counts"].to_pandas().sort_values("route", ignore_index=True)
            .astype({"events": "int64", "n_tok_sum": "int64"}),
        oracle_route_counts(oracle))


def test_removed_fragment_in_multi_member_shard(tmp_path):
    """Removal of one member of a multi-fragment shard kills the whole
    shard and reprocesses the survivors — totals stay exact."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=43, n_rows=400, n_files=4)
    FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    os.remove(paths[2])
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    got = _read_routed_df(out_dir)
    assert len(got) == 300 and got["doc_id"].is_unique
    assert res["pending_fragments"] == 3   # survivors reprocessed


def test_shard_parallelism_overlap_and_exactness(tmp_path):
    """Bounded-concurrency shard scheduler: with shard_parallelism=2
    shard executions overlap in time, checkpoint semantics hold, and
    output equals the sequential run's."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=47, n_rows=800, n_files=8)
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                           shard_size=2, shard_parallelism=2).run()
    stats = res["shards"]
    assert len(stats) == 4
    # overlap: some shard starts before an earlier-started shard ends
    iv = sorted((s["start_s"], s["end_s"]) for s in stats)
    assert any(iv[i + 1][0] < iv[i][1] for i in range(len(iv) - 1))
    got = _read_routed_df(out_dir).sort_values("doc_id", ignore_index=True)
    oracle = oracle_routed(paths, make_sources_table())
    assert len(got) == 800 and got["doc_id"].is_unique
    pd.testing.assert_frame_equal(
        res["route_counts"].to_pandas().sort_values("route", ignore_index=True)
            .astype({"events": "int64", "n_tok_sum": "int64"}),
        oracle_route_counts(oracle))
    # resume stays a noop under the parallel scheduler
    res2 = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                            shard_size=2, shard_parallelism=2).run()
    assert res2["pending_fragments"] == 0


def test_stage_metrics_emitted(tmp_path):
    """T12: Ray Data's per-operator stats of the executed write, and each
    shard's read sizing, land in the run result and metrics.json. Read,
    transform and write run as one fused operator, and it is the only
    one a shard executes, also when a shard is reprocessed because its
    commit record is gone. stage_metrics=False switches the operator
    stats off."""
    import json

    import ray
    from pyarrow import fs as pafs

    from ves_ray.sources.sequences import (FragmentDatasource, block_bytes,
                                           read_blocks)
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=53, n_rows=200, n_files=4)
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    keys = {"wall_s", "cpu_s", "udf_s", "tasks", "blocks", "rows", "bytes"}
    assert set(res["stages"]) == {"write"}
    (name, w), = res["stages"]["write"].items()
    assert name == "ReadParquet->MapBatches(transform)->Write"
    assert set(w) == keys
    assert w["tasks"] == 4 and w["udf_s"] > 0 and w["wall_s"] > 0
    shard, = res["shards"]
    nbytes = sum(os.path.getsize(f) for f in paths)
    blocks = read_blocks(nbytes)
    # 4 blocks, 4 read tasks share the reader's in-memory estimate
    est = FragmentDatasource(sorted(paths), pafs.LocalFileSystem(),
                             with_path=True).estimate_inmemory_data_size()
    read = {"bytes": nbytes, "blocks": blocks,
            "block_bytes": block_bytes(est, 4)}
    assert shard["read"] == read
    assert 0 < read["block_bytes"] < rd.DataContext.get_current() \
        .target_max_block_size
    assert "stats_read" not in shard
    assert res["host"]["affinity_cpus"] >= 1 and res["host"]["ray_cpus"] == 4
    assert res["host"]["object_store_mb"] == round(
        ray.cluster_resources()["object_store_memory"] / 2**20) > 0
    with open(os.path.join(out_dir, "metrics.json")) as f:
        m = json.load(f)
    assert m["stages"] == json.loads(json.dumps(res["stages"]))
    assert m["shards"][0]["read"] == shard["read"] and "host" in m

    # the data is published but its lineage (with the commit record)
    # is gone: the shard is reprocessed, by the same one operator
    shutil.rmtree(os.path.join(out_dir, "lineage", f"shard={shard['shard']}"))
    shutil.rmtree(os.path.join(out_dir, "_checkpoint"))
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    assert set(res["stages"]) == {"write"}
    assert list(res["stages"]["write"]) == [name]
    shard, = res["shards"]
    assert shard["read"] == read
    assert "stats_read" not in shard

    res = FlagshipPipeline(in_dir, make_sources_table(), str(tmp_path / "o2"),
                           stage_metrics=False).run()
    assert "stages" not in res and "stages" not in res["shards"][0]
    assert res["rows"] == 200


def test_lookup_put_once_per_pipeline(tmp_path, monkeypatch):
    """Every shard of a run shares one object-store copy of the lookup,
    so each worker builds its Enricher once, not once per shard."""
    import ray
    in_dir = str(tmp_path / "in")
    write_sequences(in_dir, seed=5, n_rows=400, n_files=3)
    pipe = FlagshipPipeline(in_dir, make_sources_table(),
                            str(tmp_path / "out"), shard_size=1)
    put, puts = ray.put, []

    def counted_put(value, **kw):
        puts.append(value)
        return put(value, **kw)

    monkeypatch.setattr(ray, "put", counted_put)
    res = pipe.run()
    assert len(res["shards"]) == 3 and res["rows"] == 400
    assert sum(value is pipe.lookup for value in puts) == 1


def test_run_leaves_session_block_size_unchanged(tmp_path):
    """A shard hands Ray Data its block size through its own Dataset's
    context. A write to the session's DataContext would shrink every
    later read_blocks count and exchange partition count."""
    target = rd.DataContext.get_current().target_max_block_size
    in_dir = str(tmp_path / "in")
    write_sequences(in_dir, seed=5, n_rows=400, n_files=2)
    for split in (None, 100):
        res = FlagshipPipeline(in_dir, make_sources_table(),
                               str(tmp_path / f"out{split}"),
                               split_fragment_rows=split).run()
        assert res["rows"] == 400
        assert res["shards"][0]["read"]["block_bytes"] < target
        assert rd.DataContext.get_current().target_max_block_size == target


@pytest.mark.parametrize("n_files, n_rows, min_rows, operators", [
    # 2 files of 2 row groups: one read task per row group, fused
    (2, 200, None, {"ReadParquet->MapBatches(transform)->Write": 4}),
    # 2000 // 500 = 4 blocks of min_rows rows, one per CPU: fused
    (8, 2000, 500, {"ReadParquet->MapBatches(transform)->Write": 4}),
    # 2000 // 600 = 3 < 4 CPUs: uncapped read, bundled write
    (8, 2000, 600, {"ReadParquet": 4, "MapBatches(transform)->Write": 2}),
    # 1 file of 2 row groups, fewer than the 4 read blocks: Ray splits
    # each read task's output, so the read runs as its own operator,
    # and the 4 write tasks write as many files as one read task split
    # in 4 does
    (1, 200, None, {"ReadParquet->SplitBlocks(2)": 2,
                    "MapBatches(transform)->Write": 4}),
])
def test_shard_plan_shape(tmp_path, n_files, n_rows, min_rows, operators):
    """The operators a shard executes, with their task counts, and one
    file per route per write task. A row cap that would leave a CPU
    without a block is not applied; the write bundles instead."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=53, n_rows=n_rows, n_files=n_files)
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                           min_rows_per_file=min_rows).run()
    assert res["rows"] == n_rows
    assert {n: r["tasks"] for n, r in res["stages"]["write"].items()} \
        == operators
    assert res["shards"][0]["read"]["blocks"] == 4
    writes = operators["ReadParquet->MapBatches(transform)->Write"
                       if len(operators) == 1
                       else "MapBatches(transform)->Write"]
    routed = os.path.join(out_dir, "routed")
    per_route = [len(fs) for d, _, fs in os.walk(routed)
                 if os.path.basename(d).startswith("route=")]
    assert per_route and max(per_route) == writes
    assert pq.ParquetDataset(routed).read(columns=["doc_id"]).num_rows \
        == n_rows


def test_uncommitted_shard_reprocessed_once(tmp_path):
    """A shard whose lineage dir, and with it the commit record, is gone
    was never written: the rerun deletes its routed dir and reprocesses
    the shard once, to the same lineage (with its checksum version),
    per-shard aggregates and routed rows."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=61, n_rows=600, n_files=6)
    first = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    sid = first["shards"][0]["shard"]
    lin_dir = os.path.join(out_dir, "lineage", f"shard={sid}")
    before = {name: pq.read_table(os.path.join(lin_dir, f"{name}.parquet"))
              for name in ("lineage", "route_counts", "source_hist")}
    rows = _read_routed_df(out_dir).sort_values("doc_id", ignore_index=True)

    shutil.rmtree(lin_dir)
    shutil.rmtree(os.path.join(out_dir, "_checkpoint"))
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    assert res["pending_fragments"] == 6
    assert [s["shard"] for s in res["shards"]] == [sid]
    assert res["rows"] == 600
    for name, table in before.items():
        got = pq.read_table(os.path.join(lin_dir, f"{name}.parquet"))
        assert got.equals(table, check_metadata=True), name
    assert before["lineage"].schema.metadata[b"ck_ver"]
    got = _read_routed_df(out_dir).sort_values("doc_id", ignore_index=True)
    assert len(got) == 600
    pd.testing.assert_frame_equal(got, rows)
    assert res["route_counts"].equals(first["route_counts"])
    assert res["source_hist"].equals(first["source_hist"])


def test_crash_after_routed_publish_then_reshard(tmp_path, monkeypatch):
    """A crash after the routed dir is published but before the shard
    commits, then a rerun that cuts different shards: the uncommitted
    shard is deleted, so routed/ holds every row exactly once."""
    from ves_ray.pipelines import flagship

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=19, n_rows=800, n_files=4)
    publish = flagship.atomic_publish_dir

    def publish_then_crash(*a, **kw):
        publish(*a, **kw)
        raise RuntimeError("crash after the routed publish")

    monkeypatch.setattr(flagship, "atomic_publish_dir", publish_then_crash)
    with pytest.raises(RuntimeError, match="routed publish"):
        FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    monkeypatch.undo()
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                           shard_size=1).run()
    assert len(res["shards"]) == 4
    oracle = oracle_routed(paths, make_sources_table())
    got = _read_routed_df(out_dir)
    assert sorted(got["doc_id"]) == sorted(oracle["doc_id"])
    assert int(res["route_counts"].to_pandas()["events"].sum()) == 800


def test_crash_after_routed_publish_then_inputs_removed(tmp_path,
                                                        monkeypatch):
    """A crash after the routed publish, then every input of that shard
    is removed: the rerun has nothing pending, and still deletes the
    uncommitted shard, so routed/ holds no orphan rows."""
    from ves_ray.pipelines import flagship

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=23, n_rows=400, n_files=4)
    publish = flagship.atomic_publish_dir

    def publish_then_crash(*a, **kw):
        publish(*a, **kw)
        raise RuntimeError("crash after the routed publish")

    monkeypatch.setattr(flagship, "atomic_publish_dir", publish_then_crash)
    with pytest.raises(RuntimeError, match="routed publish"):
        FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    monkeypatch.undo()
    assert len(_read_routed_df(out_dir)) == 400
    for p in paths:
        os.remove(p)
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    assert res["pending_fragments"] == 0
    assert int(res["route_counts"].to_pandas()["events"].sum()) == 0
    assert [n for n in os.listdir(os.path.join(out_dir, "routed"))
            if n.startswith("shard=")] == []


def test_resume_with_intact_markers_looks_up_no_commit_record(
        tmp_path, monkeypatch):
    """The uncommitted-shard sweep skips every shard a marker names, so
    on a resume with intact markers it looks up no commit record."""
    from ves_ray.pipelines import flagship

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=29, n_rows=400, n_files=4)
    FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    pipe = FlagshipPipeline(in_dir, make_sources_table(), out_dir)
    looked_up = []
    exists = flagship.vfs.exists
    monkeypatch.setattr(flagship.vfs, "exists", lambda fs, p: (
        looked_up.append(p), exists(fs, p))[1])
    pipe._drop_uncommitted(pipe.store.completed())
    assert [p for p in looked_up if p.endswith("fragments.parquet")] == []
    assert len(_read_routed_df(out_dir)) == 400


def test_generator_input_processes_every_row(tmp_path):
    """A generator input_path is consumed once, by both the
    filesystem probe and the listing: the run sees every fragment."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    paths = write_sequences(in_dir, seed=57, n_rows=300, n_files=3)
    res = FlagshipPipeline((p for p in paths), make_sources_table(),
                           out_dir).run()
    assert res["pending_fragments"] == 3 and res["rows"] == 300


def test_shard_executes_no_limit_plan(tmp_path, monkeypatch):
    """A happy-path shard executes exactly one plan, the write, and it
    is not a Limit schema probe."""
    from ray.data._internal.logical.operators.one_to_one_operator import Limit
    from ray.data._internal.plan import ExecutionPlan

    executed = []
    for attr in ("execute", "execute_to_iterator"):
        orig = getattr(ExecutionPlan, attr)

        def recording(plan, *a, _orig=orig, **kw):
            executed.append(plan._logical_plan.dag)
            return _orig(plan, *a, **kw)

        monkeypatch.setattr(ExecutionPlan, attr, recording)

    def ops(op):
        yield op
        for dep in op.input_dependencies:
            yield from ops(dep)

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=59, n_rows=200, n_files=2)
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir).run()
    assert res["rows"] == 200
    # the write executes its plan, then reads its own (already computed)
    # output through an InputData plan; only Read-rooted plans do work,
    # and the shard's stats come from the write's returns
    work = [d for d in executed
            if any(type(o).__name__ == "Read" for o in ops(d))]
    assert len(work) == 1
    assert type(work[0]).__name__ == "Write"
    assert not any(isinstance(o, Limit) for d in executed for o in ops(d))


def test_split_fragment_unit_resume(tmp_path):
    """Sub-fragment (row-group range) checkpoint granularity: one big
    fragment splits into independently-checkpointed units; losing one
    unit's marker reprocesses only that unit, and output stays exact."""
    import pyarrow as pa
    from ves_ray.fixtures import make_sequences_table
    from ves_ray.state.checkpoint import UNIT_SEP, build_manifest

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    os.makedirs(in_dir)
    big = os.path.join(in_dir, "big.parquet")
    # 600 rows in 6 row groups of 100
    pq.write_table(make_sequences_table(61, 600), big, row_group_size=100)
    units = build_manifest([big], split_rows=200)
    assert len(units) == 3 and all(UNIT_SEP in u.path for u in units)
    assert sum(u.num_rows for u in units) == 600

    pipe = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                            shard_size=1, split_fragment_rows=200)
    res = pipe.run()
    assert res["rows"] == 600 and len(res["shards"]) == 3
    got = _read_routed_df(out_dir)
    assert len(got) == 600 and got["doc_id"].is_unique

    # drop ONE unit's marker + its shard: rerun reprocesses only it
    victim = units[1]
    store = pipe.store
    completed = store.completed()
    sid = completed[victim.path]["shard"]
    shutil.rmtree(os.path.join(out_dir, "routed", f"shard={sid}"))
    shutil.rmtree(os.path.join(out_dir, "lineage", f"shard={sid}"))
    store.remove_marker(victim.path)
    res2 = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                            shard_size=1, split_fragment_rows=200).run()
    assert res2["pending_fragments"] == 1
    got2 = _read_routed_df(out_dir)
    assert len(got2) == 600 and got2["doc_id"].is_unique


def test_split_fragment_rotation_invalidates_all_units(tmp_path):
    """Rewriting the file in place must invalidate every unit (extents
    carry the file's byte size)."""
    from ves_ray.fixtures import make_sequences_table

    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    os.makedirs(in_dir)
    big = os.path.join(in_dir, "big.parquet")
    pq.write_table(make_sequences_table(67, 400), big, row_group_size=100)
    FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                     split_fragment_rows=200).run()
    pq.write_table(make_sequences_table(71, 300, row_offset=9000), big,
                   row_group_size=100)
    res = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                           split_fragment_rows=200).run()
    got = _read_routed_df(out_dir)
    assert len(got) == 300 and got["doc_id"].is_unique
    assert int(res["route_counts"].to_pandas()["events"].sum()) == 300


def test_run_follow_picks_up_new_fragments(tmp_path):
    """Follow mode (S2 periodic rescan): cycle 0 processes the initial
    corpus; a fragment landing between cycles is processed by exactly
    the next rescan; an idle rescan is a no-op."""
    from ves_ray.pipelines.flagship import run_follow
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=31, n_rows=400, n_files=4)

    def add_late_file(i):
        if i == 0:       # lands before the first rescan only
            write_sequences(str(tmp_path / "late"), seed=32,
                            n_rows=100, n_files=1)
            os.rename(os.path.join(str(tmp_path / "late"),
                                   os.listdir(str(tmp_path / "late"))[0]),
                      os.path.join(in_dir, "late-0.parquet"))
        return True

    cycles = run_follow(in_dir, make_sources_table(), out_dir,
                        rescans=2, interval_s=0,
                        before_rescan=add_late_file)
    assert len(cycles) == 3
    assert cycles[0]["rows"] == 400
    assert cycles[1]["pending_fragments"] == 1      # only the new file
    assert cycles[1]["rows"] == 100
    assert cycles[2]["pending_fragments"] == 0      # idle no-op
    assert cycles[2]["rows"] == 0
    # sink totals reflect both corpora exactly once
    total = cycles[2]["route_counts"].to_pandas()["events"].sum()
    assert total == 500


def test_run_follow_stops_early_on_false(tmp_path):
    from ves_ray.pipelines.flagship import run_follow
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=33, n_rows=100, n_files=2)
    cycles = run_follow(in_dir, make_sources_table(), out_dir,
                        rescans=5, interval_s=0,
                        before_rescan=lambda i: False)
    assert len(cycles) == 1


def test_bounded_work_stop_and_resume_identical(tmp_path):
    """S10 stop-future analogue: a run bounded by max_shards stops
    cleanly at a shard boundary with markers consistent; the resumed
    run processes exactly the remainder and the final aggregates are
    byte-identical to an unbounded run over the same input."""
    in_dir = str(tmp_path / "in")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    write_sequences(in_dir, seed=31, n_rows=600, n_files=6)

    # bounded run: 6 fragments / shard_size 2 → 3 shards, stop after 1
    p = FlagshipPipeline(in_dir, make_sources_table(), out_a,
                         shard_size=2)
    r1 = p.run(max_shards=1)
    assert r1["stopped_early"] is True
    assert len(r1["shards"]) == 1
    assert r1["remaining_fragments"] == 4
    # resume (fresh pipeline, unbounded) finishes the remainder only
    r2 = FlagshipPipeline(in_dir, make_sources_table(), out_a,
                          shard_size=2).run()
    assert r2["stopped_early"] is False
    assert r2["pending_fragments"] == 4

    # reference: one unbounded run in a separate out dir
    ref = FlagshipPipeline(in_dir, make_sources_table(), out_b,
                           shard_size=2).run()
    pd.testing.assert_frame_equal(r2["route_counts"].to_pandas(),
                                  ref["route_counts"].to_pandas())
    pd.testing.assert_frame_equal(r2["source_hist"].to_pandas(),
                                  ref["source_hist"].to_pandas())
    got = _read_routed_df(out_a)
    assert got["doc_id"].is_unique and len(got) == 600


def test_deadline_zero_processes_nothing_and_resumes(tmp_path):
    """deadline_s=0 hits before the first shard starts: nothing is
    processed, nothing is corrupted, and a later run does all work."""
    in_dir, out_dir = str(tmp_path / "in"), str(tmp_path / "out")
    write_sequences(in_dir, seed=37, n_rows=200, n_files=4)
    r = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                         shard_size=2).run(deadline_s=0.0)
    assert r["stopped_early"] is True and r["rows"] == 0
    assert r["remaining_fragments"] == 4
    r2 = FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                          shard_size=2).run()
    assert r2["rows"] == 200
    assert _read_routed_df(out_dir)["doc_id"].is_unique


class _StepClock:
    """Deterministic deadline clock: first call (t0) returns 0.0,
    each later call advances by 1.0 — so deadline_s=k.5 stops the
    run exactly after the k-th deadline check passes."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_deadline_with_shard_parallelism_resumes_identical(tmp_path):
    """VERDICT r4 item 6: a deadline stop under shard_parallelism=2
    lands on a WAVE boundary with markers consistent, and the resumed
    run's sink + aggregates are byte-identical to an unbounded serial
    run. The injected step clock makes the stop deterministic: the
    check before wave 1 passes (clock=1.0 < 1.5), the check before
    wave 2 stops (2.0 >= 1.5)."""
    in_dir = str(tmp_path / "in")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    write_sequences(in_dir, seed=53, n_rows=800, n_files=8)

    # 8 fragments / shard_size 2 → 4 shards → 2 waves of 2
    p = FlagshipPipeline(in_dir, make_sources_table(), out_a,
                         shard_size=2, shard_parallelism=2)
    r1 = p.run(deadline_s=1.5, _clock=_StepClock())
    assert r1["stopped_early"] is True
    assert len(r1["shards"]) == 2          # exactly wave 1 completed
    assert r1["remaining_fragments"] == 4
    # every marker written belongs to a fully-published shard: the
    # partially-done run's sink has unique doc_ids and the marker
    # count equals fragments completed
    part = _read_routed_df(out_a)
    assert part["doc_id"].is_unique
    assert len(part) == r1["rows"]

    # resume (parallel again, no deadline) finishes the remainder
    r2 = FlagshipPipeline(in_dir, make_sources_table(), out_a,
                          shard_size=2, shard_parallelism=2).run()
    assert r2["pending_fragments"] == 4
    assert r2["stopped_early"] is False

    ref = FlagshipPipeline(in_dir, make_sources_table(), out_b,
                           shard_size=2).run()
    pd.testing.assert_frame_equal(r2["route_counts"].to_pandas(),
                                  ref["route_counts"].to_pandas())
    pd.testing.assert_frame_equal(r2["source_hist"].to_pandas(),
                                  ref["source_hist"].to_pandas())
    got = _read_routed_df(out_a)
    assert got["doc_id"].is_unique and len(got) == 800
    # third run is a no-op
    r3 = FlagshipPipeline(in_dir, make_sources_table(), out_a,
                          shard_size=2, shard_parallelism=2).run()
    assert r3["pending_fragments"] == 0


def test_enrich_concurrency_auto_resolves_to_cluster(tmp_path):
    """auto pool sizing: bounded below at 2, scaled from live cluster
    CPUs; explicit values pass through untouched."""
    in_dir = str(tmp_path / "in")
    write_sequences(in_dir, seed=5, n_rows=10, n_files=1)
    import ray
    auto = FlagshipPipeline(in_dir, make_sources_table(),
                            str(tmp_path / "a"))
    cpus = int(ray.cluster_resources().get("CPU", 4))
    expected = max(2, int(cpus // 8 / 0.5))
    assert auto.enrich_concurrency == expected
    # and the pool never claims >= the session's cpus (deadlock line)
    assert auto.enrich_concurrency * auto.enrich_num_cpus < cpus
    explicit = FlagshipPipeline(in_dir, make_sources_table(),
                                str(tmp_path / "b"),
                                enrich_concurrency=6)
    assert explicit.enrich_concurrency == 6
