"""The shared read-sizing rule and the sequences reader built on it."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pyarrow import fs as pafs

import ray
from ray.data import DataContext
from ves_ray.fixtures import write_sequences
from ves_ray.sources.sequences import (block_bytes, input_bytes,
                                       read_blocks, read_parquet_sized,
                                       read_sequences, source_bytes)


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


def test_read_sequences_uri_list_and_explicit_filesystem(tmp_path):
    """URI inputs are read through the filesystem their scheme names;
    an explicit filesystem is passed to the read for in-store paths."""
    root = str(tmp_path / "seq")
    paths = write_sequences(root, seed=5, n_rows=120, n_files=3)
    uris = [f"file://{p}" for p in paths]
    assert read_sequences(uris).count() == 120
    assert read_sequences(iter(uris)).count() == 120
    sub = pafs.SubTreeFileSystem(root, pafs.LocalFileSystem())
    names = [os.path.basename(p) for p in paths]
    ds = read_sequences(names, filesystem=sub, include_paths=True)
    got = ds.to_pandas()
    assert len(got) == 120 and set(got["path"]) == set(names)


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


@pytest.mark.parametrize("n_files", [2, 8])
def test_parquet_shard_block_bytes_is_estimate_per_read_task(tmp_path,
                                                             n_files):
    """A read_parquet shard hands its own Dataset Ray's in-memory
    estimate of its files over its read tasks, min(files, blocks)."""
    ds, sizing, _ = _shard_read(tmp_path, n_files)
    blocks = int(ray.cluster_resources()["CPU"])
    assert sizing["blocks"] == blocks
    assert sizing["block_bytes"] == block_bytes(source_bytes(ds),
                                                min(n_files, blocks))
    assert 0 < sizing["block_bytes"] \
        < DataContext.get_current().target_max_block_size
    assert ds.context.target_max_block_size == sizing["block_bytes"]


def test_unit_range_shard_block_bytes_is_manifest_bytes_per_block(tmp_path):
    """A split_fragment_rows shard (file + row-group range units) hands
    its Dataset the manifest bytes over its blocks."""
    from ves_ray.state.checkpoint import parse_unit
    ds, sizing, frags = _shard_read(tmp_path, 2, split_rows=100)
    assert len(frags) > 2       # the two files split into units
    nbytes = sum({parse_unit(f.path)[0]: f.size_bytes for f in frags}
                 .values())
    assert sizing["bytes"] == nbytes
    assert sizing["blocks"] == min(len(frags),
                                   int(ray.cluster_resources()["CPU"]))
    assert sizing["block_bytes"] == block_bytes(nbytes, sizing["blocks"])
    assert ds.context.target_max_block_size == sizing["block_bytes"]
