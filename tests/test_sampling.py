"""Deterministic sampling operators: exactness, determinism, and
SQL-oracle parity of the splitmix64-keyed decisions."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ves_ray.hashing import U64, splitmix64, sql_splitmix64
from ves_ray.stages.sampling import (bottom_k_sample, hash_split,
                                     stratified_sample, weighted_sample)


def _docs(n=2000, seed=7):
    rng = np.random.default_rng(seed)
    return pa.table({
        "doc_id": pa.array(rng.permutation(n).astype(np.int64)),
        "source": pa.array([f"src{v}" for v in rng.integers(0, 8, n)]),
        "n_chars": pa.array(rng.integers(1, 4000, n).astype(np.int64)),
    })


def test_sql_splitmix64_matches_numpy():
    xs = np.array([0, 1, 2, 999, 12345678901234567, 2**63, 2**64 - 1],
                  dtype=np.uint64)
    con = duckdb.connect()
    con.execute("CREATE TABLE t AS SELECT * FROM (VALUES " +
                ",".join(f"({int(v)}::UBIGINT)" for v in xs) + ") v(x)")
    got = con.execute(f"SELECT {sql_splitmix64('x')} AS h FROM t") \
             .fetchnumpy()["h"].astype(np.uint64)
    assert np.array_equal(got, splitmix64(xs))


def test_bottom_k_sample_is_exact_global_bottom_k():
    t = _docs()
    out = bottom_k_sample(rd.from_arrow(t).repartition(7), k=50,
                          id_col="doc_id")
    h_all = splitmix64(t["doc_id"].to_numpy().astype(U64))
    want = np.sort(h_all)[:50]
    assert np.array_equal(out["h"].to_numpy(), want)
    # ids are the argmin set, order matches hash order
    order = np.argsort(h_all, kind="stable")[:50]
    assert np.array_equal(out["doc_id"].to_numpy(),
                          t["doc_id"].to_numpy()[order])


def test_bottom_k_sample_k_larger_than_corpus():
    t = _docs(n=30)
    out = bottom_k_sample(rd.from_arrow(t), k=100, id_col="doc_id")
    assert out.num_rows == 30


def test_bottom_k_sample_partition_invariant():
    t = _docs()
    a = bottom_k_sample(rd.from_arrow(t).repartition(3), k=25,
                        id_col="doc_id")
    b = bottom_k_sample(rd.from_arrow(t).repartition(11), k=25,
                        id_col="doc_id")
    assert a.equals(b)


def test_weighted_sample_matches_predicate():
    t = _docs()
    units = pc_min = np.minimum(t["n_chars"].to_numpy(), 1500)
    t2 = t.append_column("units", pa.array(pc_min.astype(np.int64)))
    out = weighted_sample(rd.from_arrow(t2), id_col="doc_id",
                          units_col="units", denom=2000,
                          keep_units=False).to_pandas()
    h = splitmix64(t["doc_id"].to_numpy().astype(U64)) % U64(2000)
    want = set(t["doc_id"].to_numpy()[h.astype(np.int64) < units])
    assert set(out["doc_id"]) == want
    assert "units" not in out.columns
    # heavier rows are sampled more often (sanity on the weighting)
    kept = t.to_pandas()["doc_id"].isin(want)
    df = t.to_pandas()
    assert df[kept]["n_chars"].mean() > df[~kept]["n_chars"].mean()


def test_hash_split_fractions_and_determinism():
    t = _docs(n=5000)
    frac = {"train": 9000, "val": 500, "test": 500}
    out = hash_split(rd.from_arrow(t), id_col="doc_id",
                     fractions=frac).to_pandas()
    counts = out["split"].value_counts()
    assert abs(counts["train"] / 5000 - 0.9) < 0.03
    assert set(counts.index) == {"train", "val", "test"}
    # pure function of id: re-run over a different partitioning agrees
    out2 = hash_split(rd.from_arrow(t).repartition(9), id_col="doc_id",
                      fractions=frac).to_pandas()
    m1 = dict(zip(out["doc_id"], out["split"]))
    m2 = dict(zip(out2["doc_id"], out2["split"]))
    assert m1 == m2


def test_hash_split_rejects_bad_fractions():
    t = _docs(n=10)
    with pytest.raises(ValueError):
        hash_split(rd.from_arrow(t), id_col="doc_id",
                   fractions={"a": 1, "b": 2}, denom=10)


def test_sampling_string_ids_supported():
    t = pa.table({"sid": pa.array([f"doc-{i}" for i in range(400)]),
                  "units": pa.array([500] * 400, type=pa.int64())})
    out = weighted_sample(rd.from_arrow(t), id_col="sid",
                          units_col="units", denom=1000).to_pandas()
    assert 0 < len(out) < 400
    s = bottom_k_sample(rd.from_arrow(t), k=20, id_col="sid")
    assert s.num_rows == 20


def test_weighted_sample_k_matches_brute_force():
    from ves_ray.stages.sampling import weighted_sample_k
    t = _docs(n=1500)
    out = weighted_sample_k(rd.from_arrow(t).repartition(7), k=60,
                            id_col="doc_id", weight_col="n_chars")
    ids = t["doc_id"].to_numpy()
    w = t["n_chars"].to_numpy().astype(np.float64)
    u = splitmix64(ids.astype(U64)).astype(np.float64) / 2.0 ** 64
    key = u ** (1.0 / w)
    order = np.lexsort((ids, -key))[:60]
    assert set(out["doc_id"].to_numpy()) == set(ids[order])
    assert out.num_rows == 60


def test_weighted_sample_k_partition_invariant_and_weighted():
    from ves_ray.stages.sampling import weighted_sample_k
    t = _docs(n=3000)
    a = weighted_sample_k(rd.from_arrow(t).repartition(3), k=100,
                          id_col="doc_id", weight_col="n_chars")
    b = weighted_sample_k(rd.from_arrow(t).repartition(17), k=100,
                          id_col="doc_id", weight_col="n_chars")
    assert a.equals(b)
    # heavier rows overrepresented vs the corpus mean
    df = t.to_pandas()
    assert a["n_chars"].to_numpy().mean() > df["n_chars"].mean()


def test_weighted_sample_k_excludes_nonpositive_weights():
    from ves_ray.stages.sampling import weighted_sample_k
    t = pa.table({"doc_id": pa.array(range(50), type=pa.int64()),
                  "w": pa.array([0] * 25 + [10] * 25, type=pa.int64())})
    out = weighted_sample_k(rd.from_arrow(t), k=40, id_col="doc_id",
                            weight_col="w")
    assert out.num_rows == 25            # only positive-weight rows
    assert (out["doc_id"].to_numpy() >= 25).all()


def _weighted(n=200, n_sources=4):
    ids = np.arange(n, dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(ids),
        "source": pa.array([f"s{int(i) % n_sources}" for i in ids]),
        "w": pa.array(((ids * 7) % 13 + 1).astype(np.int64))})


def _reference_budget(t, budget):
    """Single-process reference: per-source cumsum in splitmix order."""
    from ves_ray.hashing import splitmix64
    df = t.to_pandas()
    df["skey"] = splitmix64(df["doc_id"].to_numpy().astype(np.uint64))
    df = df.sort_values(["source", "skey", "doc_id"])
    df["cum_tok"] = df.groupby("source")["w"].cumsum()
    keep = df[df["cum_tok"] <= budget]
    return keep.sort_values("doc_id")[
        ["doc_id", "source", "w", "cum_tok"]].reset_index(drop=True)


def test_token_budget_select_matches_reference():
    from ves_ray.stages.sampling import token_budget_select
    t = _weighted()
    for budget in (5, 40, 10_000):
        out = (token_budget_select(rd.from_arrow(t).repartition(7),
                                   budget=budget, strata_col="source",
                                   id_col="doc_id", weight_col="w")
               .to_pandas().sort_values("doc_id", ignore_index=True))
        ref = _reference_budget(t, budget)
        out["cum_tok"] = out["cum_tok"].astype("int64")
        pd.testing.assert_frame_equal(
            out[["doc_id", "source", "w", "cum_tok"]], ref,
            check_dtype=False)
    # large budget keeps everything; per-source totals honor the cap
    assert len(out) == t.num_rows


def test_token_budget_select_partition_invariant():
    from ves_ray.stages.sampling import token_budget_select
    t = _weighted(n=500, n_sources=3)
    outs = []
    for parts in (2, 19):
        o = (token_budget_select(rd.from_arrow(t).repartition(parts),
                                 budget=120, strata_col="source",
                                 id_col="doc_id", weight_col="w")
             .to_pandas().sort_values("doc_id", ignore_index=True))
        outs.append(o)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert (outs[0].groupby("source")["w"].sum() <= 120).all()


def test_global_shuffle_rank_is_exact_permutation():
    from ves_ray.stages.sampling import global_shuffle_rank
    t = _docs(n=3000)
    ds = rd.from_arrow(t).repartition(7)
    out = (global_shuffle_rank(ds, id_col="doc_id", seed=5, range_bits=4)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    n = len(t)
    assert len(out) == n
    # pos is a permutation of 0..n-1
    assert sorted(out["pos"].tolist()) == list(range(n))
    # matches the driver-side argsort of the same key
    ids = out["doc_id"].to_numpy()
    skey = splitmix64(ids.astype(np.uint64) ^ U64(5))
    want = np.empty(n, dtype=np.int64)
    want[np.argsort(skey, kind="stable")] = np.arange(n)
    np.testing.assert_array_equal(out["pos"].to_numpy(), want)


def test_global_shuffle_rank_partition_invariant_and_seeded():
    from ves_ray.stages.sampling import global_shuffle_rank
    t = _docs(n=800)
    a = (global_shuffle_rank(rd.from_arrow(t).repartition(2),
                             id_col="doc_id", seed=1, range_bits=3)
         .to_pandas().sort_values("doc_id", ignore_index=True))
    b = (global_shuffle_rank(rd.from_arrow(t).repartition(11),
                             id_col="doc_id", seed=1, range_bits=5)
         .to_pandas().sort_values("doc_id", ignore_index=True))
    pd.testing.assert_frame_equal(a, b)
    c = (global_shuffle_rank(rd.from_arrow(t).repartition(2),
                             id_col="doc_id", seed=2, range_bits=3)
         .to_pandas().sort_values("doc_id", ignore_index=True))
    assert not a["pos"].equals(c["pos"])  # new seed, new permutation


def test_curriculum_rank_is_band_major_shuffle():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.hashing import U64, splitmix64
    from ves_ray.stages.sampling import curriculum_rank

    rng = np.random.default_rng(5)
    n = 4000
    ids = np.arange(n, dtype=np.int64)
    bands = rng.integers(0, 4, n).astype(np.int64)
    t = pa.table({"doc_id": pa.array(ids), "band": pa.array(bands)})
    out = (curriculum_rank(rd.from_arrow(t), band_col="band",
                           id_col="doc_id", seed=7)
           .to_pandas().sort_values("pos", ignore_index=True))
    assert len(out) == n
    assert out["pos"].tolist() == list(range(n))     # dense 0..n-1
    # schedule order == (band, splitmix64(id ^ seed)) lexicographic
    skey = splitmix64(out["doc_id"].to_numpy().astype(U64) ^ U64(7))
    key = list(zip(out["band"].to_numpy(), skey))
    assert key == sorted(key)
    # every band is contiguous and complete
    import collections
    want = collections.Counter(bands.tolist())
    got = collections.Counter(out["band"].tolist())
    assert got == want


def _no_rows():
    """An input without rows, twice: an empty table, and a filter that
    drops every row of a real one (``Dataset.to_pandas()`` of either
    has no columns)."""
    t = pa.table({"id": pa.array(np.arange(40), pa.int64()),
                  "x": pa.array(np.arange(40), pa.int64()),
                  "w": pa.array(np.ones(40), pa.float64()),
                  "s": pa.array(["a", "b"] * 20)})
    return [rd.from_arrow(t.slice(0, 0)),
            rd.from_arrow(t).filter(expr="x > 100")], t.schema


def test_bottom_k_sample_without_rows_is_typed():
    dss, schema = _no_rows()
    for ds in dss:
        out = bottom_k_sample(ds, k=3, id_col="id")
        assert out.num_rows == 0
        assert out.schema == schema.append(pa.field("h", pa.uint64()))


def test_weighted_sample_k_without_rows_is_typed():
    from ves_ray.stages.sampling import weighted_sample_k
    dss, schema = _no_rows()
    for ds in dss:
        out = weighted_sample_k(ds, k=3, id_col="id", weight_col="w")
        assert out.num_rows == 0
        assert out.schema == schema
