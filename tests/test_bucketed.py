"""Persisted hash-bucketed layout: co-located join/groupby parity
(state.bucketed)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd
from ves_ray.state.bucketed import (colocated_join, read_manifest,
                                    write_bucketed)


def _mk(tmp_path, seed=3):
    rng = np.random.default_rng(seed)
    left = pa.table({
        "k": pa.array(rng.integers(0, 300, 1000), type=pa.int64()),
        "lv": pa.array(rng.integers(0, 50, 1000), type=pa.int64())})
    right = pa.table({
        "k": pa.array(rng.integers(0, 300, 800), type=pa.int64()),
        "rv": pa.array(rng.normal(size=800))})
    pl, pr = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(rd.from_arrow(left).repartition(4), pl,
                   key_col="k", num_buckets=16)
    write_bucketed(rd.from_arrow(right).repartition(3), pr,
                   key_col="k", num_buckets=16)
    return left, right, pl, pr


def _canon(df, cols):
    return df[cols].sort_values(cols, ignore_index=True)


def test_colocated_join_inner_matches_pandas(tmp_path):
    left, right, pl, pr = _mk(tmp_path)
    got = colocated_join(pl, pr, left_cols=["lv"],
                         right_cols=["rv"], how="inner").to_pandas()
    exp = left.to_pandas().merge(right.to_pandas(), on="k")
    cols = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(_canon(got, cols), _canon(exp, cols))


def test_colocated_join_left_and_agg_fusion(tmp_path):
    left, right, pl, pr = _mk(tmp_path, seed=9)
    got = colocated_join(pl, pr, left_cols=["lv"], right_cols=["rv"],
                         how="left",
                         right_agg={"rv": "sum"}).to_pandas()
    # every left ROW appears once, matched against per-key rv sums
    sums = right.to_pandas().groupby("k", as_index=False)["rv"].sum()
    exp = left.to_pandas().merge(sums, on="k", how="left")
    cols = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(_canon(got, cols), _canon(exp, cols))


def test_manifest_mismatch_and_unpublished(tmp_path):
    t = pa.table({"k": pa.array([1, 2], type=pa.int64()),
                  "v": pa.array([1.0, 2.0])})
    pa_, pb = str(tmp_path / "a"), str(tmp_path / "b")
    write_bucketed(rd.from_arrow(t), pa_, key_col="k", num_buckets=8)
    write_bucketed(rd.from_arrow(t), pb, key_col="k", num_buckets=16)
    with pytest.raises(ValueError, match="num_buckets"):
        colocated_join(pa_, pb, left_cols=["v"], right_cols=[])
    with pytest.raises(FileNotFoundError, match="not a published"):
        read_manifest(str(tmp_path / "nope"))


def test_colocated_join_string_keys_empty_buckets(tmp_path):
    # tiny key domain + many buckets: most bucket dirs don't exist
    left = pa.table({"k": pa.array(["a", "b", "c", "a"]),
                     "lv": pa.array([1, 2, 3, 4], type=pa.int64())})
    right = pa.table({"k": pa.array(["b", "c", "z"]),
                      "rv": pa.array([10, 20, 30], type=pa.int64())})
    pl, pr = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(rd.from_arrow(left), pl, key_col="k",
                   num_buckets=32)
    write_bucketed(rd.from_arrow(right), pr, key_col="k",
                   num_buckets=32)
    got = colocated_join(pl, pr, left_cols=["lv"], right_cols=["rv"],
                         how="inner").to_pandas()
    assert sorted(zip(got["k"], got["lv"], got["rv"])) == [
        ("b", 2, 10), ("c", 3, 20)]


def test_bucketed_rebuild_over_crashed_partial_no_duplicates(tmp_path):
    """write_bucketed over a crashed (manifest-less) partial must drop
    the stale files, not append alongside them (ADVICE r3)."""
    import os
    import pyarrow.parquet as pq
    t = pa.table({"k": pa.array(np.arange(1000, dtype=np.int64) % 50),
                  "x": pa.array(np.ones(1000, dtype=np.int64))})
    path = str(tmp_path / "lay")
    write_bucketed(rd.from_arrow(t).repartition(4), path, key_col="k",
                   num_buckets=8)
    os.remove(os.path.join(path, "_bucketed.json"))   # crashed build
    write_bucketed(rd.from_arrow(t).repartition(4), path, key_col="k",
                   num_buckets=8)
    read_manifest(path)
    out = (pq.read_table(path, columns=["k", "x"]).to_pandas()
           .groupby("k").agg(n=("x", "size"), x=("x", "sum")))
    assert int(out["n"].sum()) == 1000                # no duplicates
    assert (out["x"] == 20).all()
    leftovers = [d for d in os.listdir(tmp_path)
                 if d.startswith((".tmp-", ".old-"))]
    assert leftovers == []


def test_layout_build_lock_serializes(tmp_path):
    """Two threads racing check-then-build on one path build exactly
    once (the flock serializes them)."""
    import threading
    from ves_ray.state.bucketed import (layout_build_lock, read_manifest,
                                        write_bucketed)
    t = pa.table({"k": pa.array(np.arange(200, dtype=np.int64)),
                  "x": pa.array(np.ones(200, dtype=np.int64))})
    path = str(tmp_path / "lay")
    builds = []

    def cached_build():
        with layout_build_lock(path):
            try:
                read_manifest(path)
            except FileNotFoundError:
                builds.append(1)
                write_bucketed(rd.from_arrow(t), path, key_col="k",
                               num_buckets=4)

    th = [threading.Thread(target=cached_build) for _ in range(4)]
    [x.start() for x in th]
    [x.join() for x in th]
    assert len(builds) == 1
    assert read_manifest(path)["num_buckets"] == 4
