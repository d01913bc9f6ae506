"""The shared read-sizing rule and the sequences reader built on it."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
from pyarrow import fs as pafs

import ray
from ray.data import DataContext
from ves_ray.fixtures import write_sequences
from ves_ray.sources.sequences import (input_bytes, read_blocks,
                                       read_parquet_sized, read_sequences)


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
