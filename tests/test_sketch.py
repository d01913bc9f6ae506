"""HyperLogLog approximate distinct (stages.sketch)."""

import numpy as np
import pyarrow as pa

import ray.data as rd
from ves_ray.stages.sketch import (approx_distinct,
                                   grouped_approx_distinct)


def test_approx_distinct_within_error():
    n = 100_000
    ids = np.arange(n, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"k": pa.array(np.concatenate([ids, ids]))}))
    est = approx_distinct(ds, "k", p=12)
    assert abs(est - n) / n < 0.05           # 1.6% expected, 5% bound


def test_approx_distinct_small_range_exactish():
    ds = rd.from_arrow(pa.table({"k": pa.array(list(range(50)) * 10)}))
    est = approx_distinct(ds, "k", p=12)
    assert abs(est - 50) <= 2                # small-range correction


def test_grouped_approx_distinct_string_keys():
    rng = np.random.default_rng(17)
    groups = np.where(rng.random(30_000) < 0.5, "a", "b")
    # group a: ~5000 distinct users; group b: ~500
    users = np.where(groups == "a",
                     rng.integers(0, 5000, 30_000),
                     rng.integers(100_000, 100_500, 30_000))
    ds = rd.from_arrow(pa.table({
        "g": pa.array(groups), "u": pa.array(users, type=pa.int64())}))
    out = grouped_approx_distinct(ds, "g", "u", p=12)
    got = out.set_index("g")["approx_distinct"].to_dict()
    import pandas as pd
    exact = (pd.DataFrame({"g": groups, "u": users})
             .groupby("g")["u"].nunique().to_dict())
    for g in ("a", "b"):
        assert abs(got[g] - exact[g]) / exact[g] < 0.06


# -------------------------------------------------------------------------
# DDSketch relative-error quantiles
# -------------------------------------------------------------------------

def test_ddsketch_relative_error_bound():
    from ves_ray.stages.sketch import ddsketch_quantiles
    rng = np.random.default_rng(11)
    v = np.exp(rng.normal(2.0, 1.5, 20_000))      # heavy-tailed positive
    ds = rd.from_arrow(pa.table({"v": v})).repartition(6)
    qs = (0.1, 0.5, 0.9, 0.99)
    out = ddsketch_quantiles(ds, "v", qs=qs, rel_err=0.01)
    for q, est in zip(out["q"], out["est"]):
        true = np.quantile(v, q, method="inverted_cdf")
        assert abs(est - true) <= 0.0101 * abs(true) + 1e-9, (q, est, true)


def test_ddsketch_handles_zero_and_negative():
    from ves_ray.stages.sketch import ddsketch_quantiles
    v = np.array([-100.0, -1.0, 0.0, 0.0, 1.0, 100.0])
    ds = rd.from_arrow(pa.table({"v": v}))
    out = ddsketch_quantiles(ds, "v", qs=(0.01, 0.5, 0.99), rel_err=0.01)
    ests = dict(zip(out["q"], out["est"]))
    assert ests[0.01] < -99           # ~ -100 within 1%
    assert ests[0.5] == 0.0           # median lands in the zero bucket
    assert abs(ests[0.99] - 100.0) <= 1.01


def test_ddsketch_partition_invariant_and_grouped():
    from ves_ray.stages.sketch import ddsketch_quantiles
    rng = np.random.default_rng(3)
    t = pa.table({
        "g": pa.array([f"g{v}" for v in rng.integers(0, 4, 5000)]),
        "v": pa.array(rng.exponential(10.0, 5000)),
    })
    a = ddsketch_quantiles(rd.from_arrow(t).repartition(2), "v",
                           group_col="g", rel_err=0.02)
    b = ddsketch_quantiles(rd.from_arrow(t).repartition(13), "v",
                           group_col="g", rel_err=0.02)
    # histogram merge is exact addition → result independent of blocking
    assert a.equals(b)
    assert set(a["g"]) == {"g0", "g1", "g2", "g3"}
    df = t.to_pandas()
    for _, row in a[a["q"] == 0.5].iterrows():
        true = df[df["g"] == row["g"]]["v"].quantile(0.5)
        assert abs(row["est"] - true) <= 0.021 * true


def test_histogram_quantiles_matches_duckdb_disc():
    """histogram_quantiles == DuckDB quantile_disc on random ints,
    including repeated values and a group of size 1."""
    import duckdb
    import pandas as pd
    from ves_ray.stages.sketch import histogram_quantiles
    rng = np.random.default_rng(7)
    g = np.repeat(["a", "b", "c"], [997, 40, 1])
    v = rng.integers(-50, 50, g.size)
    ds = rd.from_arrow(pa.table({
        "grp": pa.array(g), "v": pa.array(v, type=pa.int64())}))
    out = (histogram_quantiles(ds, "v", "grp",
                               quantiles=((1, 4), (1, 2), (19, 20)))
           .set_index("grp"))
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"grp": g, "v": v}))
    exp = con.execute(
        "SELECT grp, quantile_disc(v, 0.25) q1, quantile_disc(v, 0.5) q2,"
        " quantile_disc(v, 0.95) q3 FROM t GROUP BY 1").df().set_index("grp")
    for grp in ("a", "b", "c"):
        assert out.loc[grp, "q_1_4"] == exp.loc[grp, "q1"]
        assert out.loc[grp, "q_1_2"] == exp.loc[grp, "q2"]
        assert out.loc[grp, "q_19_20"] == exp.loc[grp, "q3"]
