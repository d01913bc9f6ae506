"""Exactly-once under a Ray task retry, not only under driver crashes.

A write task's worker process dies (``os._exit``) on its first attempt,
right after it finished writing its route files. Ray retries the task;
the run must still publish exactly the rows, lineage and aggregates of
an uninterrupted run, with no duplicate and no orphaned part file.
"""

import os

import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest
from pyarrow import fs as pafs

from ves_ray.fixtures import make_sources_table, write_sequences
from ves_ray.pipelines.flagship import FlagshipPipeline, RoutedShardSink

from .test_object_store_fs import NonAtomicMoveHandler


class _HookedStream:
    """Python file object over an output stream that reports its close."""

    def __init__(self, raw, on_close):
        self.raw, self.on_close = raw, on_close

    def write(self, data):
        return self.raw.write(data)

    def tell(self):
        return self.raw.tell()

    def flush(self):
        self.raw.flush()

    @property
    def closed(self):
        return self.raw.closed

    def close(self):
        if not self.raw.closed:
            self.raw.close()
            self.on_close()


class CrashAfterRouteFiles(NonAtomicMoveHandler):
    """Kills the worker process of the first write task that closes
    every routed data file it opened. The handler is pickled into each
    worker, so its counters are per process; a marker file makes the
    crash happen once per test, on the first attempt only."""

    def __init__(self, root: str, marker: str):
        super().__init__(root)
        self.marker = marker
        self.open_files = 0

    def open_output_stream(self, path, metadata):
        raw = super().open_output_stream(path, metadata)
        if "routed/.tmp-" not in path:
            return raw
        self.open_files += 1
        return pa.PythonFile(_HookedStream(raw, self._closed), mode="w")

    def _closed(self):
        self.open_files -= 1
        if self.open_files == 0 and not os.path.exists(self.marker):
            with open(self.marker, "w") as f:
                f.write(str(os.getpid()))
            os._exit(1)


def _routed(root: str) -> pa.Table:
    t = pds.dataset(os.path.join(root, "routed"),
                    partitioning="hive").to_table()
    return t.select(sorted(c for c in t.column_names if c != "shard")) \
            .sort_by("doc_id")


def _lineage(root: str) -> pa.Table:
    lin = os.path.join(root, "lineage")
    return pa.concat_tables(
        pq.read_table(os.path.join(lin, d, "lineage.parquet"))
        for d in sorted(os.listdir(lin)) if d.startswith("shard="))


def test_write_task_retry_is_exactly_once(tmp_path, monkeypatch):
    write_sequences(str(tmp_path / "in"), seed=67, n_rows=800, n_files=4)
    # the reference run sees the same store-relative fragment ids
    sub = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    ref = FlagshipPipeline("in", make_sources_table(), "ref",
                           filesystem=sub).run()

    returned = []
    on_write_complete = RoutedShardSink.on_write_complete

    def spy(sink, write_result):
        returned.extend(f for r in write_result.write_returns
                        for f in r["files"])
        return on_write_complete(sink, write_result)

    monkeypatch.setattr(RoutedShardSink, "on_write_complete", spy)
    marker = str(tmp_path / "crashed")
    fs = pafs.PyFileSystem(CrashAfterRouteFiles(str(tmp_path), marker))
    res = FlagshipPipeline("in", make_sources_table(), "out",
                           filesystem=fs).run()
    assert os.path.exists(marker)          # a write attempt did die

    got, want = _routed(str(tmp_path / "out")), _routed(str(tmp_path / "ref"))
    assert got.num_rows == 800
    assert len(set(got["doc_id"].to_pylist())) == 800
    assert got.equals(want)
    assert _lineage(str(tmp_path / "out")).equals(
        _lineage(str(tmp_path / "ref")), check_metadata=True)
    assert res["rows"] == ref["rows"] and res["tokens"] == ref["tokens"]
    assert res["route_counts"].equals(ref["route_counts"])
    assert res["source_hist"].equals(ref["source_hist"])
    shard = tmp_path / "out" / "routed" / f"shard={res['shards'][0]['shard']}"
    listed = sorted(os.path.relpath(os.path.join(d, f), shard)
                    for d, _, fs_ in os.walk(shard) for f in fs_)
    assert listed == sorted(returned)


def test_sink_deletes_unreturned_files_and_checks_returned(tmp_path,
                                                          monkeypatch):
    """Files no write task returned (left by a failed attempt) are
    deleted before publish; a returned file that is missing fails the
    write."""
    write_sequences(str(tmp_path / "in"), seed=71, n_rows=400, n_files=4)
    on_write_start = RoutedShardSink.on_write_start

    def plant(sink):
        on_write_start(sink)
        stray = os.path.join(sink.path, "route=route-0")
        os.makedirs(stray, exist_ok=True)
        with open(os.path.join(stray, "stray-0.parquet"), "wb") as f:
            f.write(b"left by a failed attempt")

    monkeypatch.setattr(RoutedShardSink, "on_write_start", plant)
    res = FlagshipPipeline(str(tmp_path / "in"), make_sources_table(),
                           str(tmp_path / "out")).run()
    names = [f for _, _, fs_ in os.walk(tmp_path / "out" / "routed")
             for f in fs_]
    assert res["rows"] == 400 and names and "stray-0.parquet" not in names
    assert _routed(str(tmp_path / "out")).num_rows == 400

    monkeypatch.undo()
    on_write_complete = RoutedShardSink.on_write_complete

    def lose_one(sink, write_result):
        name = write_result.write_returns[0]["files"][0]
        os.remove(os.path.join(sink.path, name))
        return on_write_complete(sink, write_result)

    monkeypatch.setattr(RoutedShardSink, "on_write_complete", lose_one)
    with pytest.raises(RuntimeError, match="returned files"):
        FlagshipPipeline(str(tmp_path / "in"), make_sources_table(),
                         str(tmp_path / "out2")).run()
