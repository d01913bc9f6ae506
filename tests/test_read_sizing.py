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
                                       read_parquet_sized, source_bytes)


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
                                pafs.LocalFileSystem(), with_path=True)
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
        source = FragmentDatasource(ids, pafs.LocalFileSystem(),
                                    with_path=True)
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
        tasks = FragmentDatasource(ids, pafs.LocalFileSystem(),
                                   with_path=True).get_read_tasks(n)
        assert len(tasks) == min(n, 7)
        read = [pa.concat_tables(list(task())) for task in tasks]
        assert [t.num_rows for t in read] \
            == [task.metadata.num_rows for task in tasks]
        rows = [t.num_rows for t in read]
        assert max(rows) - min(rows) <= 300
        got = pa.concat_tables(read)
        assert got["doc_id"].equals(want["doc_id"])
        assert got["path"].to_pylist() == [a] * end + [ids[1]] * 750


@pytest.mark.parametrize("table, columns", [
    ("events", ["user_id", "event_id", "ts"]),
    ("documents", ["doc_id", "text", "source"]),
    ("orders", ["o_orderkey", "o_orderstatus"]),
    ("lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])])
def test_projected_estimate_counts_only_projected_columns(sf_dir, table,
                                                          columns):
    """With ``columns=`` (the projections of the exchange-bound catalog
    queries) the estimate is within 10 % of the Arrow bytes of those
    columns alone, and no ``path`` column is read unless the caller
    asks for it. A projection of only low-cardinality strings would be
    under-counted: their dictionary pages hold each value once."""
    path = f"{sf_dir}/{table}.parquet"
    fs = pafs.LocalFileSystem()
    source = FragmentDatasource([path], fs, columns=columns)
    tables = [t for task in source.get_read_tasks(4) for t in task()]
    got = sum(t.nbytes for t in tables)
    assert all(t.column_names == columns for t in tables)
    assert abs(source.estimate_inmemory_data_size() - got) < got / 10
    assert got < pq.read_table(path).nbytes
    with_path = FragmentDatasource([path], fs, columns=columns,
                                   with_path=True)
    (t,), = [list(task()) for task in with_path.get_read_tasks(1)]
    assert t.column_names == columns + ["path"]
    assert with_path.estimate_inmemory_data_size() \
        > source.estimate_inmemory_data_size()


@pytest.mark.parametrize("row_groups", [0, 1])
def test_zero_row_table_reads_as_typed_empty_dataset(tmp_path, row_groups):
    """A file with no rows, in no row group or in one empty one, is a
    typed empty Dataset of the projected columns."""
    path = str(tmp_path / "empty.parquet")
    schema = pa.schema([("a", pa.int64()), ("b", pa.string()),
                        ("c", pa.list_(pa.int32()))])
    with pq.ParquetWriter(path, schema) as w:
        if row_groups:
            w.write_table(schema.empty_table())
    assert pq.ParquetFile(path).metadata.num_row_groups == row_groups
    ds = read_parquet_sized(path, columns=["c", "a"])
    assert ds.count() == 0
    assert ds.schema().names == ["c", "a"]
    assert ds.schema().types == [pa.list_(pa.int32()), pa.int64()]


def test_sized_read_sets_its_own_target_not_the_sessions(tmp_path):
    """A plain file read gets its footer estimate over its read_blocks
    count as its own target; a directory read goes through
    read_parquet with its source bytes over the same count. The
    session's DataContext keeps its target."""
    ctx = DataContext.get_current()
    session = ctx.target_max_block_size
    path = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": list(range(5000)),
                             "y": [str(i) for i in range(5000)]}), path)
    blocks = read_blocks(os.path.getsize(path))
    ds = read_parquet_sized(path, columns=["x"])
    est = FragmentDatasource([path], pafs.LocalFileSystem(),
                             columns=["x"]).estimate_inmemory_data_size()
    assert ds.context.target_max_block_size == block_bytes(est, blocks) \
        < session
    d = read_parquet_sized(str(tmp_path))
    assert d.context.target_max_block_size \
        == block_bytes(source_bytes(d), blocks) < session
    assert DataContext.get_current() is ctx
    assert ctx.target_max_block_size == session
    assert ds.count() == d.count() == 5000


def test_hive_file_list_keeps_partition_column(tmp_path):
    """A file list under ``route=a/`` stays on read_parquet, which adds
    the ``route`` column; ``compact`` rewrites such a partition with
    that column in its files, as before."""
    from ves_ray.state.compact import compact_partitions
    part = tmp_path / "sink" / "route=a"
    os.makedirs(part)
    files = []
    for i in range(3):
        files.append(str(part / f"f{i}.parquet"))
        pq.write_table(pa.table({"doc_id": [i], "v": ["x"]}), files[-1])
    assert read_parquet_sized(files).schema().names == ["doc_id", "v", "route"]
    compact_partitions(str(tmp_path / "sink"), min_files=2,
                       min_rows_per_file=1000)
    (out,) = [f for f in os.listdir(part) if f.endswith(".parquet")]
    got = pq.ParquetFile(str(part / out)).read()
    assert got.column_names == ["doc_id", "v", "route"]
    assert sorted(got["doc_id"].to_pylist()) == [0, 1, 2]


def test_exchange_query_reads_sample_no_fragment(sf_dir, monkeypatch):
    """Building the six exchange-bound catalog queries runs no
    ``read_parquet`` sampling task: their table reads estimate from
    the footers."""
    from ray.data._internal.datasource import parquet_datasource

    from ves_ray.pipelines.queries import QUERIES
    sampled = []
    orig = parquet_datasource.sample_fragments
    monkeypatch.setattr(parquet_datasource, "sample_fragments",
                        lambda *a, **kw: sampled.append(1) or orig(*a, **kw))
    for name in ("user_sessions", "event_sessions", "dedup_exact",
                 "dedup_keep", "order_revenue", "region_revenue"):
        QUERIES[name](sf_dir)
    assert not sampled
    import pyarrow.dataset as pds
    read_parquet_sized(sf_dir + "/events.parquet",
                       filter=pds.field("event_type") == "view")
    assert sampled          # the probe sees a read_parquet read
