"""The shared read-sizing rule and the fragment reader built on it."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pyarrow import fs as pafs

import ray
from ray.data import DataContext
from ves_ray.fixtures import make_sequences_table, write_sequences
from ves_ray.sources.sequences import (FragmentDatasource, block_bytes,
                                       input_bytes, read_blocks,
                                       read_parquet_sized)


def test_read_blocks_floor_is_live_cpus_and_grows_with_bytes():
    cpus = int(ray.cluster_resources()["CPU"])
    target = DataContext.get_current().target_max_block_size
    assert read_blocks(0) == cpus
    assert read_blocks(1) == cpus
    assert read_blocks(cpus * target) == cpus
    assert read_blocks(cpus * target + 1) == cpus + 1
    assert read_blocks(10 * cpus * target) == 10 * cpus
    sizes = [0, target, 3 * cpus * target, 7 * cpus * target + 5]
    blocks = [read_blocks(n) for n in sizes]
    assert blocks == sorted(blocks) and min(blocks) >= cpus


def test_read_blocks_row_cap_keeps_min_rows_per_block():
    """With rows and min_rows, blocks are capped at rows // min_rows,
    but never below the live CPUs; without them the count is
    unchanged."""
    cpus = int(ray.cluster_resources()["CPU"])
    target = DataContext.get_current().target_max_block_size
    big = 10 * cpus * target
    assert read_blocks(1, rows=cpus * 12_500, min_rows=12_500) == cpus
    assert read_blocks(1, rows=50_000, min_rows=None) == cpus
    # too few rows for a min_rows block per CPU: uncapped
    assert read_blocks(1, rows=100, min_rows=12_500) == cpus
    assert read_blocks(big, rows=(cpus - 1) * 12_500,
                       min_rows=12_500) == 10 * cpus
    # the cap binds between the CPUs and the byte-sized count
    assert read_blocks(big, rows=5 * cpus * 12_500,
                       min_rows=12_500) == 5 * cpus
    assert read_blocks(big, rows=10 ** 9, min_rows=1) == 10 * cpus


def test_sized_read_uses_one_block_per_cpu(tmp_path):
    """A small single-file table is read as live-CPU blocks, not Ray's
    default of at least 200."""
    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": list(range(5000))}), path)
    assert input_bytes(path) == os.path.getsize(path)
    assert input_bytes(str(tmp_path)) == os.path.getsize(path)
    ds = read_parquet_sized(path).materialize()
    assert ds.num_blocks() == int(ray.cluster_resources()["CPU"])
    assert ds.count() == 5000


def test_block_bytes_is_bytes_per_task_capped_at_session_target():
    target = DataContext.get_current().target_max_block_size
    assert block_bytes(4_000, 4) == 1_000
    assert block_bytes(4_001, 4) == 1_001
    assert block_bytes(4 * target, 4) == target
    assert block_bytes(10 * target, 4) == target
    # an unknown size keeps the session's target
    assert block_bytes(0, 4) == target


def _shard_read(tmp_path, n_files, split_rows=None):
    """The sized read of one shard over ``n_files`` fixture files, its
    sizing and its manifest."""
    from ves_ray.fixtures import make_sources_table
    from ves_ray.pipelines.flagship import FlagshipPipeline
    in_dir = str(tmp_path / "in")
    write_sequences(in_dir, seed=9, n_rows=800, n_files=n_files)
    pipe = FlagshipPipeline(in_dir, make_sources_table(),
                            str(tmp_path / "out"),
                            split_fragment_rows=split_rows)
    frags = pipe._manifest()
    ds, sizing = pipe._read_fragments(frags)
    return ds, sizing, frags


@pytest.mark.parametrize("n_files, split_rows", [(2, None), (8, None),
                                                  (2, 100)])
def test_shard_block_bytes_is_estimate_per_read_task(tmp_path, n_files,
                                                     split_rows):
    """Whole files and row-group units alike: the shard's Dataset gets
    the reader's in-memory estimate over its read tasks,
    min(blocks, row groups), and its sizing counts each file's bytes
    once."""
    from ves_ray.state.checkpoint import parse_unit
    ds, sizing, frags = _shard_read(tmp_path, n_files, split_rows)
    assert (len(frags) > n_files) == bool(split_rows)
    source = FragmentDatasource([f.path for f in frags],
                                pafs.LocalFileSystem())
    tasks = source.get_read_tasks(sizing["blocks"])
    assert sizing == {
        "bytes": sum({parse_unit(f.path)[0]: f.size_bytes for f in frags}
                     .values()),
        "blocks": int(ray.cluster_resources()["CPU"]),
        "block_bytes": block_bytes(source.estimate_inmemory_data_size(),
                                   len(tasks))}
    assert 0 < sizing["block_bytes"] \
        < DataContext.get_current().target_max_block_size
    assert ds.context.target_max_block_size == sizing["block_bytes"]


def _write_groups(path, groups, offset=0):
    """One fixture file whose row groups hold ``groups`` rows each."""
    with pq.ParquetWriter(path, make_sequences_table(7, 1).schema) as w:
        for rows in groups:
            w.write_table(make_sequences_table(7, rows, row_offset=offset))
            offset += rows
    return offset


def test_estimate_is_within_tenth_of_arrow_bytes(tmp_path):
    """The footer-derived estimate is within 10 % of the Arrow bytes
    the read tasks yield, for whole files and for row-group units."""
    paths = write_sequences(str(tmp_path), seed=7, n_rows=20_000, n_files=4)
    for ids in (paths, [f"{paths[0]}#rg1-2", paths[1]]):
        source = FragmentDatasource(ids, pafs.LocalFileSystem())
        got = sum(t.nbytes for task in source.get_read_tasks(4)
                  for t in task())
        assert abs(source.estimate_inmemory_data_size() - got) < got / 10


def test_read_tasks_pack_row_groups_balanced_by_rows(tmp_path):
    """min(n, row groups) tasks of contiguous row groups, in order and
    balanced by rows; every unit's rows are read once, under its own
    fragment id, and each task's metadata counts what it yields."""
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    end = _write_groups(a, [300, 300, 300, 120])
    _write_groups(b, [250, 250, 250, 250, 40], offset=end)
    ids = [a, f"{b}#rg1-4"]          # b's units: row groups 1, 2 and 3
    want = pa.concat_tables([pq.read_table(a).slice(0, end),
                             pq.read_table(b).slice(250, 750)])
    for n in (1, 2, 3, 4, 7, 100):
        tasks = FragmentDatasource(ids, pafs.LocalFileSystem()) \
            .get_read_tasks(n)
        assert len(tasks) == min(n, 7)
        read = [pa.concat_tables(list(task())) for task in tasks]
        assert [t.num_rows for t in read] \
            == [task.metadata.num_rows for task in tasks]
        rows = [t.num_rows for t in read]
        assert max(rows) - min(rows) <= 300
        got = pa.concat_tables(read)
        assert got["doc_id"].equals(want["doc_id"])
        assert got["path"].to_pylist() == [a] * end + [ids[1]] * 750
