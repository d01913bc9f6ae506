"""As-of join and grouped top-k operators (stages.relational)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd
from ves_ray.stages.relational import asof_join, grouped_topk, hash_join


def _events():
    ts = pd.to_datetime([
        "2024-01-01 00:00", "2024-01-01 01:00", "2024-01-01 02:00",
        "2024-01-01 00:30", "2024-01-01 01:30",
        "2024-01-01 00:10",
    ])
    return pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4, 5], type=pa.int64()),
        "user_id": pa.array([1, 1, 1, 2, 2, 3], type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
    })


def test_asof_join_backward():
    t = _events()
    left = rd.from_arrow(t.filter(pa.compute.is_in(
        t["event_id"], value_set=pa.array([1, 2, 4, 5]))))
    right = rd.from_arrow(t.filter(pa.compute.is_in(
        t["event_id"], value_set=pa.array([0, 3]))))
    out = asof_join(left, right, key_col="user_id", ts_col="ts",
                    left_cols=["event_id"], right_cols=["event_id"],
                    num_buckets=4).to_pandas()
    lut = dict(zip(out["event_id"].astype(int),
                   out["event_id_r"]))
    assert lut[1] == 0 and lut[2] == 0        # user 1 → most recent = 0
    assert lut[4] == 3                         # user 2 → 3
    assert np.isnan(lut[5])                    # user 3: no right row


def test_asof_exact_match_allowed():
    t = _events()
    left = rd.from_arrow(t.slice(0, 1))        # event 0 at 00:00 user 1
    right = rd.from_arrow(t.slice(0, 1))
    out = asof_join(left, right, key_col="user_id", ts_col="ts",
                    left_cols=["event_id"], right_cols=["event_id"],
                    num_buckets=2).to_pandas()
    assert out["event_id_r"].iloc[0] == 0      # ts >= ts: equal matches


def test_grouped_topk_rank():
    t = _events()
    out = grouped_topk(rd.from_arrow(t), key_col="user_id",
                       order_cols=["ts", "event_id"],
                       ascending=[False, False], k=2,
                       keep_cols=["event_id"], num_buckets=4).to_pandas()
    got = {(r.user_id, r.rk): r.event_id for r in out.itertuples()}
    assert got[(1, 1)] == 2 and got[(1, 2)] == 1
    assert got[(2, 1)] == 4 and got[(2, 2)] == 3
    assert got[(3, 1)] == 5
    assert len(out) == 5


def _join_tables():
    rng = np.random.default_rng(7)
    left = pa.table({
        "k": pa.array(rng.integers(0, 40, 200), type=pa.int64()),
        "lv": pa.array(rng.integers(0, 1000, 200), type=pa.int64()),
    })
    right = pa.table({
        "k": pa.array(rng.integers(10, 50, 150), type=pa.int64()),
        "rv": pa.array(rng.integers(0, 1000, 150), type=pa.int64()),
        "tag": pa.array([f"t{v}" for v in rng.integers(0, 5, 150)]),
    })
    return left, right


def _canon(df):
    return (df[sorted(df.columns)]
            .sort_values(sorted(df.columns), ignore_index=True))


def test_hash_join_inner_matches_pandas():
    left, right = _join_tables()
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    key_col="k", left_cols=["lv"],
                    right_cols=["rv", "tag"], num_buckets=8).to_pandas()
    exp = pd.merge(left.to_pandas(), right.to_pandas(), on="k",
                   how="inner")
    assert len(got) == len(exp) > 0
    pd.testing.assert_frame_equal(_canon(got), _canon(exp),
                                  check_dtype=False)


def test_hash_join_left_null_fill_and_schema():
    left, right = _join_tables()
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    key_col="k", left_cols=["lv"],
                    right_cols=["rv", "tag"], how="left",
                    num_buckets=8,
                    types={"rv": pa.int64(), "tag": pa.string()}
                    ).to_pandas()
    exp = pd.merge(left.to_pandas(), right.to_pandas(), on="k",
                   how="left")
    assert len(got) == len(exp)
    # unmatched left rows survive with nulls (keys < 10 never match)
    unmatched = got[got["k"] < 10]
    assert len(unmatched) > 0 and unmatched["rv"].isna().all()
    g, e = _canon(got).astype(object), _canon(exp).astype(object)
    g, e = g.where(g.notna(), None), e.where(e.notna(), None)
    pd.testing.assert_frame_equal(g, e, check_dtype=False)


def test_hash_join_left_types_partitions_without_right_rows():
    """One right row: every other exchange partition holds left rows
    only, and still emits the right column with its given type."""
    left = pa.table({"k": pa.array(range(100), pa.int64()),
                     "lv": pa.array(range(100), pa.int64())})
    right = pa.table({"k": pa.array([0], pa.int64()),
                      "rv": pa.array([1.5])})
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right), key_col="k",
                    left_cols=["lv"], right_cols=["rv"], how="left",
                    num_buckets=64, types={"rv": pa.float64()})
    blocks = got.map_batches(
        lambda b: pa.table({"n": [len(b)],
                            "rv": [str(b.schema.field("rv").type)]}),
        batch_format="pyarrow", batch_size=None).to_pandas()
    assert len(blocks) > 1 and blocks["n"].sum() == 100
    assert set(blocks["rv"]) == {"double"}
    with pytest.raises(ValueError, match="types="):
        hash_join(rd.from_arrow(left), rd.from_arrow(right), key_col="k",
                  left_cols=["lv"], right_cols=["rv"], how="left")


def test_hash_join_renames_colliding_right_columns():
    left, right = _join_tables()
    right = right.rename_columns(["k", "lv", "tag"])  # collide on lv
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    key_col="k", left_cols=["lv"],
                    right_cols=["lv", "tag"], num_buckets=4).to_pandas()
    assert {"k", "lv", "lv_r", "tag"} == set(got.columns)


def test_pivot_counts_wide_columns():
    from ves_ray.stages.aggregate import pivot_counts
    t = pa.table({
        "u": pa.array([1, 1, 1, 2, 2, 3], type=pa.int64()),
        "e": pa.array(["a", "a", "b", "b", "c", "a"]),
    })
    out = (pivot_counts(rd.from_arrow(t), key_col="u", col_col="e",
                        values=["a", "b", "c", "d"], num_buckets=4)
           .to_pandas().sort_values("u", ignore_index=True))
    assert out.columns.tolist() == ["u", "n_a", "n_b", "n_c", "n_d"]
    assert out.loc[0].tolist() == [1, 2, 1, 0, 0]
    assert out.loc[1].tolist() == [2, 0, 1, 1, 0]
    assert out.loc[2].tolist() == [3, 1, 0, 0, 0]


def test_bloom_no_false_negatives_and_prunes():
    from ves_ray.stages.relational import (bloom_filter_keys,
                                           build_key_bloom)
    rng = np.random.default_rng(3)
    right = pa.table({"k": pa.array(rng.choice(10_000, 500,
                                               replace=False))})
    left = pa.table({"k": pa.array(np.arange(1_000_000,
                                             dtype=np.int64))})
    bloom = build_key_bloom(rd.from_arrow(right), "k",
                            num_bits=1 << 20)
    kept = bloom_filter_keys(rd.from_arrow(left), bloom,
                             "k").to_pandas()["k"].to_numpy()
    rset = set(right["k"].to_pylist())
    # every true key survives
    assert rset.issubset(set(kept.tolist()))
    # and the prune is real (≥99% of non-matching rows dropped)
    assert len(kept) < 15_000


def test_hash_join_bloom_prefilter_same_result():
    left, right = _join_tables()
    plain = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                      key_col="k", left_cols=["lv"],
                      right_cols=["rv", "tag"],
                      num_buckets=8).to_pandas()
    pre = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    key_col="k", left_cols=["lv"],
                    right_cols=["rv", "tag"], num_buckets=8,
                    bloom_prefilter=True, bloom_bits=1 << 16).to_pandas()
    pd.testing.assert_frame_equal(_canon(plain), _canon(pre))


def test_hash_join_right_agg_fusion():
    left, right = _join_tables()
    fused = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                      key_col="k", left_cols=["lv"],
                      right_cols=["rv"], num_buckets=8,
                      right_agg={"rv": "sum"}).to_pandas()
    r = right.to_pandas().groupby("k", as_index=False)["rv"].sum()
    exp = pd.merge(left.to_pandas(), r, on="k", how="inner")
    pd.testing.assert_frame_equal(_canon(fused), _canon(exp),
                                  check_dtype=False)


def test_hash_join_hot_key_correct():
    # one key owns half of each side: the hot bucket must still join
    # exactly (correctness under skew; size bounding is the caller's
    # num_buckets/hot-key-extraction lever, documented in hash_join)
    rng = np.random.default_rng(5)
    lk = np.where(rng.random(400) < 0.5, 7, rng.integers(0, 50, 400))
    rk = np.where(rng.random(100) < 0.5, 7, rng.integers(0, 50, 100))
    left = pa.table({"k": pa.array(lk, type=pa.int64()),
                     "lv": pa.array(np.arange(400), type=pa.int64())})
    right = pa.table({"k": pa.array(rk, type=pa.int64()),
                      "rv": pa.array(np.arange(100), type=pa.int64())})
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    key_col="k", left_cols=["lv"], right_cols=["rv"],
                    num_buckets=8).to_pandas()
    exp = pd.merge(left.to_pandas(), right.to_pandas(), on="k")
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(_canon(got), _canon(exp),
                                  check_dtype=False)


def test_find_hot_keys_flags_dominant_key():
    from ves_ray.stages.relational import find_hot_keys
    rng = np.random.default_rng(9)
    k = np.where(rng.random(5000) < 0.4, 42,
                 rng.integers(1000, 9000, 5000))
    ds = rd.from_arrow(pa.table({"k": pa.array(k, type=pa.int64())}))
    hot = find_hot_keys(ds, "k", frac=0.05)
    assert 42 in hot
    assert len(hot) <= 3          # near-unique tail keys not flagged


def test_hash_join_string_keys():
    left = pa.table({"k": pa.array(["a", "b", "c", "a"]),
                     "lv": pa.array([1, 2, 3, 4], type=pa.int64())})
    right = pa.table({"k": pa.array(["a", "c", "d"]),
                      "rv": pa.array([10, 30, 40], type=pa.int64())})
    got = hash_join(rd.from_arrow(left), rd.from_arrow(right),
                    key_col="k", left_cols=["lv"], right_cols=["rv"],
                    num_buckets=4).to_pandas()
    exp = pd.merge(left.to_pandas(), right.to_pandas(), on="k")
    pd.testing.assert_frame_equal(_canon(got), _canon(exp),
                                  check_dtype=False)


def _skewed_stream(seed=5, n=4000, hot_user=7):
    """90% of events belong to one hot user; unique timestamps."""
    rng = np.random.default_rng(seed)
    users = np.where(rng.random(n) < 0.9, hot_user,
                     rng.integers(100, 140, n))
    ts = pd.to_datetime("2024-03-01") + pd.to_timedelta(
        rng.permutation(n) * 37, unit="s")
    return pa.table({
        "user_id": pa.array(users, type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "v": pa.array(rng.integers(0, 1_000_000, n), type=pa.int64()),
    })


def test_grouped_topk_hot_key_presplit_identical():
    t = _skewed_stream()
    kw = dict(key_col="user_id", order_cols=["v"], ascending=[False],
              k=3, keep_cols=["v"], num_buckets=8)
    plain = grouped_topk(rd.from_arrow(t), **kw).to_pandas()
    split = grouped_topk(rd.from_arrow(t), **kw, hot_frac=0.05,
                         hot_salt=4).to_pandas()
    cols = ["user_id", "rk", "v"]
    pd.testing.assert_frame_equal(
        split[cols].sort_values(cols, ignore_index=True),
        plain[cols].sort_values(cols, ignore_index=True),
        check_dtype=False)
    assert (plain.groupby("user_id")["rk"].max() <= 3).all()


def test_asof_join_hot_key_presplit_identical():
    t = _skewed_stream()
    # left = odd rows, right = even rows (hot user dominates both)
    idx = np.arange(t.num_rows)
    left_t = t.filter(pa.array(idx % 2 == 1)).rename_columns(
        ["user_id", "ts", "lv"])
    right_t = t.filter(pa.array(idx % 2 == 0)).rename_columns(
        ["user_id", "ts", "rv"])
    kw = dict(key_col="user_id", ts_col="ts", left_cols=["lv"],
              right_cols=["rv"], num_buckets=8)
    plain = asof_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                      **kw).to_pandas()
    split = asof_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                      **kw, hot_frac=0.05, hot_ranges=8).to_pandas()
    cols = ["user_id", "ts", "lv", "rv_r"]
    pd.testing.assert_frame_equal(
        split[cols].sort_values(["user_id", "ts"], ignore_index=True),
        plain[cols].sort_values(["user_id", "ts"], ignore_index=True),
        check_dtype=False)
    assert len(split) == left_t.num_rows


def test_asof_hot_spill_outlives_dropped_wrapper(tmp_path):
    """A Dataset derived from the hot-split as-of join keeps the spill
    alive after the join's own result object is collected; the spill
    is removed once the derived plan is gone too."""
    import gc
    import os

    t = _skewed_stream()
    idx = np.arange(t.num_rows)
    left_t = t.filter(pa.array(idx % 2 == 1)).rename_columns(
        ["user_id", "ts", "lv"])
    right_t = t.filter(pa.array(idx % 2 == 0)).rename_columns(
        ["user_id", "ts", "rv"])
    derived = asof_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                        key_col="user_id", ts_col="ts", left_cols=["lv"],
                        right_cols=["rv"], num_buckets=8, hot_frac=0.05,
                        hot_ranges=8, scratch_dir=str(tmp_path)
                        ).map_batches(lambda b: b, batch_format="pyarrow")
    gc.collect()
    spills = [n for n in os.listdir(tmp_path) if n.startswith("ves_asof_hot_")]
    assert len(spills) == 1
    assert len(derived.to_pandas()) == left_t.num_rows
    del derived
    gc.collect()
    assert not os.path.exists(tmp_path / spills[0])


def test_asof_join_hot_no_right_rows():
    """Hot key with an empty right side: all left rows keep nulls."""
    t = _skewed_stream(n=600)
    left_t = t.rename_columns(["user_id", "ts", "lv"])
    right_t = pa.table({
        "user_id": pa.array([999], type=pa.int64()),
        "ts": pa.array(pd.to_datetime(["2024-03-01"]),
                       type=pa.timestamp("us")),
        "rv": pa.array([1], type=pa.int64())})
    out = asof_join(rd.from_arrow(left_t), rd.from_arrow(right_t),
                    key_col="user_id", ts_col="ts", left_cols=["lv"],
                    right_cols=["rv"], num_buckets=4, hot_frac=0.05,
                    hot_ranges=4).to_pandas()
    assert len(out) == 600
    assert out["rv_r"].isna().all()


def test_hash_join_semi_anti_full():
    left = pa.table({"k": pa.array([1, 2, 3, 4, 2], type=pa.int64()),
                     "lv": pa.array([10, 20, 30, 40, 21],
                                    type=pa.int64())})
    right = pa.table({"k": pa.array([2, 2, 5], type=pa.int64()),
                      "rv": pa.array([200, 201, 500], type=pa.int64())})
    lds, rds = rd.from_arrow(left), rd.from_arrow(right)

    semi = hash_join(lds, rds, key_col="k", left_cols=["lv"],
                     right_cols=[], how="semi",
                     num_buckets=4).to_pandas()
    assert sorted(semi["lv"]) == [20, 21]      # EXISTS; no duplication
    assert list(semi.columns) == ["k", "lv"]

    anti = hash_join(lds, rds, key_col="k", left_cols=["lv"],
                     right_cols=[], how="anti",
                     num_buckets=4).to_pandas()
    assert sorted(anti["lv"]) == [10, 30, 40]  # NOT EXISTS

    full = hash_join(lds, rds, key_col="k", left_cols=["lv"],
                     right_cols=["rv"], how="full", num_buckets=4,
                     types={"lv": pa.int64(), "rv": pa.int64()}).to_pandas()
    exp = pd.merge(left.to_pandas(), right.to_pandas(), on="k",
                   how="outer")
    cols = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(
        full[cols].sort_values(cols, ignore_index=True),
        exp[cols].sort_values(cols, ignore_index=True),
        check_dtype=False)

    semi_bloom = hash_join(lds, rds, key_col="k", left_cols=["lv"],
                           right_cols=[], how="semi", num_buckets=4,
                           bloom_prefilter=True).to_pandas()
    assert sorted(semi_bloom["lv"]) == [20, 21]


def test_interval_overlap_join_all_matches():
    from ves_ray.stages.relational import interval_overlap_join
    rng = np.random.default_rng(5)
    vals = rng.uniform(0, 100, 400)
    t = pa.table({"rid": pa.array(np.arange(400, dtype=np.int64)),
                  "v": pa.array(vals)})
    # overlapping bands: [k*10, k*10+25) — up to 3 bands cover a value
    k = np.arange(10)
    bands = pa.table({"band_id": k.astype(np.int64),
                      "lo": (k * 10).astype(np.float64),
                      "hi": (k * 10 + 25).astype(np.float64)})
    got = (interval_overlap_join(rd.from_arrow(t).repartition(4), bands,
                                 value_col="v")
           .to_pandas().sort_values(["rid", "band_id"],
                                    ignore_index=True))
    # brute-force expected
    rows = []
    for rid, v in zip(np.arange(400), vals):
        for b, lo, hi in zip(k, k * 10.0, k * 10.0 + 25.0):
            if lo <= v < hi:
                rows.append((rid, v, b))
    exp = pd.DataFrame(rows, columns=["rid", "v", "band_id"]) \
            .sort_values(["rid", "band_id"], ignore_index=True)
    pd.testing.assert_frame_equal(
        got.astype({"rid": "int64", "band_id": "int64"}), exp)


def test_interval_overlap_join_unsorted_input_and_no_match():
    from ves_ray.stages.relational import interval_overlap_join
    t = pa.table({"v": pa.array([5.0, 999.0, 14.9, 15.0])})
    bands = pa.table({"band_id": pa.array([1, 0], type=pa.int64()),
                      "lo": pa.array([10.0, 0.0]),
                      "hi": pa.array([20.0, 15.0])})
    got = interval_overlap_join(rd.from_arrow(t), bands,
                                value_col="v").to_pandas()
    got = got.sort_values(["v", "band_id"], ignore_index=True)
    assert list(zip(got["v"], got["band_id"])) == [
        (5.0, 0), (14.9, 0), (14.9, 1), (15.0, 1)]
