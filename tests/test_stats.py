"""Exact integer z-score outliers (stages.stats)."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd
from ves_ray.stages.stats import grouped_zscore_outliers


def _ref(groups, values, ids, t):
    """Python-int brute-force reference."""
    out = set()
    for g in set(groups):
        vs = [int(v) for v, gg in zip(values, groups) if gg == g]
        n, s, s2 = len(vs), sum(vs), sum(v * v for v in vs)
        b = t * t * (n * s2 - s * s)
        for v, gg, i in zip(values, groups, ids):
            if gg == g and (int(v) * n - s) ** 2 > b:
                out.add(i)
    return out


def test_zscore_boundary_is_strict():
    """A value at EXACTLY t sigma is not an outlier (strict >)."""
    t = pa.table({"g": ["a", "a", "b", "b", "b"],
                  "v": pa.array([-1, 1, -1, -1, 2], type=pa.int64()),
                  "i": pa.array(range(5), type=pa.int64())})
    out = grouped_zscore_outliers(rd.from_arrow(t), group_col="g",
                                  value_col="v", id_cols=["i"],
                                  t=1).to_pandas()
    # group a: both at exactly 1 sigma -> none; group b: only v=2
    assert list(out["i"]) == [4]


def test_zscore_matches_bruteforce_reference():
    rng = np.random.default_rng(11)
    g = rng.choice(["x", "y", "z"], 5000)
    v = (rng.exponential(50.0, 5000) * 100).astype(np.int64)
    ids = np.arange(5000, dtype=np.int64)
    t = pa.table({"g": pa.array(g), "v": pa.array(v),
                  "i": pa.array(ids)})
    out = grouped_zscore_outliers(rd.from_arrow(t), group_col="g",
                                  value_col="v", id_cols=["i"],
                                  t=3).to_pandas()
    assert set(out["i"]) == _ref(g, v, ids, 3)
    assert len(out) > 0                       # exponential tail exists


def test_grouped_percentile_filter_matches_brute_force():
    import ray.data as rd
    from ves_ray.stages.stats import grouped_percentile_filter
    rng = np.random.default_rng(3)
    n = 900
    t = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "g": pa.array([f"g{v}" for v in rng.integers(0, 4, n)]),
        "v": pa.array(rng.integers(0, 50, n).astype(np.int64)),
    })
    ds = rd.from_arrow(t).repartition(6)
    out = (grouped_percentile_filter(ds, group_col="g", value_col="v",
                                     pct=(3, 4))
           .to_pandas().sort_values("id", ignore_index=True))
    df = t.to_pandas()
    keep = []
    for g, sub in df.groupby("g"):
        vals = np.sort(sub["v"].to_numpy())
        thr = vals[-(-3 * len(vals) // 4) - 1]   # ceil(p*n), 1-based
        keep.append(sub[sub["v"] >= thr])
    want = (pd.concat(keep).sort_values("id", ignore_index=True)
            [["id", "g", "v"]])
    pd.testing.assert_frame_equal(out[["id", "g", "v"]], want)


def test_grouped_percentile_filter_le_and_single_row_group():
    import ray.data as rd
    from ves_ray.stages.stats import grouped_percentile_filter
    t = pa.table({"id": pa.array([0, 1, 2, 3], type=pa.int64()),
                  "g": pa.array(["a", "a", "a", "b"]),
                  "v": pa.array([10, 20, 30, 7], type=pa.int64())})
    out = (grouped_percentile_filter(rd.from_arrow(t), group_col="g",
                                     value_col="v", pct=(1, 2), keep="le")
           .to_pandas().sort_values("id", ignore_index=True))
    # a: median(disc, ceil(n/2)=2nd) = 20 -> keep 10,20 ; b: thr=7 -> keep 7
    assert out["id"].tolist() == [0, 1, 3]


def test_grouped_percent_rank_matches_pandas_window():
    import ray.data as rd
    from ves_ray.stages.stats import grouped_percent_rank
    rng = np.random.default_rng(7)
    g = rng.choice(["x", "y", "z"], 3000)
    v = rng.integers(0, 50, 3000).astype(np.int64)   # heavy ties
    ids = np.arange(3000, dtype=np.int64)
    t = pa.table({"g": pa.array(g), "v": pa.array(v), "i": pa.array(ids)})
    out = (grouped_percent_rank(rd.from_arrow(t), group_col="g",
                                value_col="v", id_cols=["i"])
           .to_pandas().sort_values("i", ignore_index=True))
    df = t.to_pandas().sort_values("i", ignore_index=True)
    # pandas rank(method="min") reproduces SQL PERCENT_RANK exactly
    rank = df.groupby("g")["v"].rank(method="min")
    n = df.groupby("g")["v"].transform("size")
    want = ((rank - 1) / (n - 1).clip(lower=1)).where(n > 1, 0.0)
    np.testing.assert_array_equal(out["pct_rank"].to_numpy(),
                                  want.to_numpy())


def test_grouped_percent_rank_single_row_group_is_zero():
    import ray.data as rd
    from ves_ray.stages.stats import grouped_percent_rank
    t = pa.table({"g": pa.array(["a", "b", "b"]),
                  "v": pa.array([5, 1, 2], type=pa.int64()),
                  "i": pa.array([0, 1, 2], type=pa.int64())})
    out = (grouped_percent_rank(rd.from_arrow(t), group_col="g",
                                value_col="v", id_cols=["i"])
           .to_pandas().sort_values("i", ignore_index=True))
    assert out["pct_rank"].tolist() == [0.0, 0.0, 1.0]


def test_grouped_mode_tie_breaks_to_smallest_value():
    import ray.data as rd
    from ves_ray.stages.stats import grouped_mode
    t = pa.table({"g": pa.array(["a"] * 5 + ["b"] * 3),
                  "v": pa.array([7, 7, 3, 3, 9, 5, 5, 5],
                                type=pa.int64())})
    out = grouped_mode(rd.from_arrow(t), group_col="g", value_col="v")
    got = {r["g"]: (r["mode_value"], r["mode_count"], r["n_group"])
           for _, r in out.iterrows()}
    # a: 7 and 3 both occur twice -> smallest value (3) wins
    assert got == {"a": (3, 2, 5), "b": (5, 3, 3)}


def test_grouped_corr_matches_numpy_and_handles_degenerate():
    import ray.data as rd
    from ves_ray.stages.stats import grouped_corr
    rng = np.random.default_rng(3)
    g = rng.choice(["p", "q"], 2000)
    x = rng.integers(1, 50, 2000).astype(np.int64)
    y = (x * 100 + rng.integers(-40, 40, 2000)).astype(np.int64)
    # degenerate group: constant x -> NULL corr
    g = np.concatenate((g, ["z"] * 4))
    x = np.concatenate((x, [7, 7, 7, 7]))
    y = np.concatenate((y, [1, 2, 3, 4]))
    t = pa.table({"g": pa.array(g), "x": pa.array(x), "y": pa.array(y)})
    out = grouped_corr(rd.from_arrow(t), group_col="g",
                       x_col="x", y_col="y")
    got = dict(zip(out["g"], out["corr"]))
    df = t.to_pandas()
    for grp in ("p", "q"):
        sub = df[df["g"] == grp]
        want = np.corrcoef(sub["x"], sub["y"])[0, 1]
        assert abs(got[grp] - want) < 1e-12
        assert got[grp] > 0.9          # constructed strong correlation
    assert got["z"] is None or np.isnan(got["z"])


def test_gini_concentration_known_values():
    import ray.data as rd
    from ves_ray.stages.stats import gini_concentration
    # perfectly uniform: every key exactly once -> G = 0... but the
    # sample Gini over n equal values is exactly 0 by the formula
    t = pa.table({"k": pa.array([1, 2, 3, 4], type=pa.int64())})
    out = gini_concentration(rd.from_arrow(t), key_col="k")
    assert out["gini_e6"].iloc[0] == 0
    assert out["n_keys"].iloc[0] == 4 and out["total_rows"].iloc[0] == 4
    # maximal concentration: keys (1,1,1,97): exact formula check
    ks = [1] * 1 + [2] * 1 + [3] * 1 + [4] * 97
    t2 = pa.table({"k": pa.array(ks, type=pa.int64())})
    out2 = gini_concentration(rd.from_arrow(t2), key_col="k")
    # counts sorted: [1,1,1,97], n=4, s=100
    # sic = 1*1+1*2+1*3+97*4 = 394 ; G = (2*394 - 5*100)/(4*100) = 0.72
    assert out2["gini_e6"].iloc[0] == 720000


def test_grouped_percent_rank_past_bound_runs_banded_plan(monkeypatch):
    """``grouped_percent_rank`` on more than ``MAX_HISTOGRAM_ROWS``
    rows estimates the (group, value) histogram from a hash sample of
    the values before any exchange. Past the bound it runs the banded
    plan on that sample and never starts the histogram exchange; below
    it, or with no more rows than the bound, the histogram plan. Either
    way the rows equal the pandas window."""
    from ves_ray.stages import stats
    n = 5000
    banded, hist = stats._banded_ranks, stats.combine_pandas
    for values, bound, plan in ((np.arange(n), 1000, "banded"),
                                (np.arange(n) % 10, 1000, "hist"),
                                (np.arange(n), stats.MAX_HISTOGRAM_ROWS,
                                 "hist")):
        t = pa.table({"g": pa.array(["a", "b"] * (n // 2)),
                      "v": pa.array(values, type=pa.int64()),
                      "i": pa.array(range(n), type=pa.int64())})
        df = t.to_pandas()
        rank = df.groupby("g")["v"].rank(method="min")
        want = (rank - 1) / (df.groupby("g")["v"].transform("size") - 1)
        calls = []
        monkeypatch.setattr(stats, "MAX_HISTOGRAM_ROWS", bound)
        monkeypatch.setattr(stats, "_banded_ranks", lambda *a, **k: (
            calls.append("banded"), banded(*a, **k))[1])
        monkeypatch.setattr(stats, "combine_pandas", lambda *a, **k: (
            calls.append("hist"), hist(*a, **k))[1])
        out = (stats.grouped_percent_rank(rd.from_arrow(t), group_col="g",
                                          value_col="v", id_cols=["i"])
               .to_pandas().sort_values("i", ignore_index=True))
        # the banded plan's own (group, band) counts use combine_pandas
        assert calls[0] == plan, (bound, calls)
        assert list(out.columns) == ["g", "v", "i", "pct_rank"]
        np.testing.assert_array_equal(out["pct_rank"].to_numpy(),
                                      want.to_numpy())


def test_grouped_corr_exact_past_int64_sum_overflow():
    """With y ≈ 1e7 (price_cents scale) the Σy² fold wraps int64
    around ~1e5 rows per group; the decimal128 partials must stay
    exact (ADVICE r3). 200k rows ⇒ Σy² ≈ 2e19 > 2⁶³."""
    from ves_ray.stages.stats import grouped_corr
    rng = np.random.default_rng(7)
    n = 200_000
    x = rng.integers(0, 50_000, n, dtype=np.int64)
    y = x * 200 + rng.integers(0, 1_000_000, n, dtype=np.int64) \
        + 9_000_000
    assert int((y.astype(object) ** 2).sum()) > 2 ** 63   # would wrap
    t = pa.table({"g": pa.array(["a"] * n), "x": pa.array(x),
                  "y": pa.array(y)})
    out = grouped_corr(rd.from_arrow(t), group_col="g",
                       x_col="x", y_col="y")
    want = np.corrcoef(x.astype(np.float64), y.astype(np.float64))[0, 1]
    assert abs(out["corr"].iloc[0] - want) < 1e-9


def test_grouped_percent_rank_banded_matches_histogram_plan():
    """The sort-equivalent banded plan must be bit-identical to the
    histogram plan, ties and multi-band groups included."""
    import ray.data as rd
    from ves_ray.stages.stats import (grouped_percent_rank,
                                      grouped_percent_rank_banded)
    rng = np.random.default_rng(41)
    n = 5000
    t = pa.table({
        "g": pa.array(rng.integers(0, 4, n).astype("U1")),
        "v": pa.array(rng.integers(0, 800, n), type=pa.int64()),
        "id": pa.array(np.arange(n), type=pa.int64())})
    a = (grouped_percent_rank(rd.from_arrow(t), group_col="g",
                              value_col="v", id_cols=["id"])
         .to_pandas().sort_values("id", ignore_index=True))
    b = (grouped_percent_rank_banded(rd.from_arrow(t), group_col="g",
                                     value_col="v", id_cols=["id"],
                                     num_bands=16)
         .to_pandas().sort_values("id", ignore_index=True))
    assert (a["pct_rank"].to_numpy() == b["pct_rank"].to_numpy()).all()


def test_grouped_percent_rank_banded_many_groups():
    """Many groups × many bands (the case where a per-bucket scan of
    the meta frame would be quadratic): 10k groups, 256 bands, exact
    vs the pandas window. The per-task dict index keeps this fast —
    quadratic meta scanning would blow way past the test timeout."""
    import pandas as pd
    import ray.data as rd
    from ves_ray.stages.stats import grouped_percent_rank_banded
    rng = np.random.default_rng(47)
    n = 60_000
    t = pa.table({
        "g": pa.array(rng.integers(0, 10_000, n), type=pa.int64()),
        "v": pa.array(rng.integers(0, 10**9, n), type=pa.int64()),
        "id": pa.array(np.arange(n), type=pa.int64())})
    out = (grouped_percent_rank_banded(rd.from_arrow(t), group_col="g",
                                       value_col="v", id_cols=["id"],
                                       num_bands=256)
           .to_pandas().sort_values("id", ignore_index=True))
    df = t.to_pandas()
    exp = (df.groupby("g")["v"].rank(method="min") - 1) / \
        df.groupby("g")["v"].transform("size").sub(1).clip(lower=1)
    pd.testing.assert_series_equal(
        out["pct_rank"], exp.rename("pct_rank"), check_exact=True)


def test_zscore_flag_fn_beyond_int64_probe():
    """Decision constants past the int64 probe range (v~1e7 with
    n~1e12 → v·n ~ 1e19 > 2⁶³; ADVICE r4) must neither wrap nor raise:
    the group takes the exact Python-int path. Verified against
    arbitrary-precision arithmetic on a synthetic moment table (the
    exchange already folds in decimal128; only the driver probe is
    under test — 1e12 real rows aren't buildable in a test)."""
    import math
    import pandas as pd
    from ves_ray.stages.stats import _zscore_flag_fn
    n, mean, spread = 10**12, 10**7, 1000
    s = mean * n                              # ~1e19 > int64
    s2 = (mean * mean + spread * spread) * n  # Var = spread²
    moments = pd.DataFrame({
        "g": ["huge", "tiny"],
        "n": [n, 3], "s": [s, 60], "s2": [s2, 1400],
        "vmin": [mean - spread * 10, 10], "vmax": [mean + spread * 10, 30]})
    flag = _zscore_flag_fn(moments, group_col="g", value_col="v", t=3)
    vals = [mean, mean + 2999, mean + 3001, mean - 3001,
            20, 30]                            # σ=1000, cut at 3σ
    grps = ["huge"] * 4 + ["tiny"] * 2
    b = pa.table({"g": pa.array(grps),
                  "v": pa.array(vals, type=pa.int64()),
                  "id": pa.array(range(6), type=pa.int64())})
    got = flag(b)["id"].to_pylist()
    cut_huge = math.isqrt(9 * (n * s2 - s * s))
    cut_tiny = math.isqrt(9 * (3 * 1400 - 60 * 60))
    exp = [i for i, (v, g) in enumerate(zip(vals, grps))
           if (abs(v * n - s) > cut_huge if g == "huge"
               else abs(v * 3 - 60) > cut_tiny)]
    assert got == exp
    assert exp == [2, 3]           # ±3001 beyond 3σ; ±2999/mean inside
    # int64-safe groups in the same batch still take the fast path
    assert 4 not in got and 5 not in got


def test_grouped_percent_rank_banded_near_unique_values():
    """The case the histogram plan's guard rejects: near-unique
    values. Banded plan stays exact (checked vs pandas rank) and
    single-row groups rank 0.0."""
    import pandas as pd
    import ray.data as rd
    from ves_ray.stages.stats import grouped_percent_rank_banded
    rng = np.random.default_rng(43)
    n = 4000
    t = pa.table({
        "g": pa.array(np.r_[np.repeat("a", n - 1), ["lone"]]),
        "v": pa.array(np.r_[rng.permutation(10 * n)[:n - 1],
                            [7]], type=pa.int64()),
        "id": pa.array(np.arange(n), type=pa.int64())})
    out = (grouped_percent_rank_banded(rd.from_arrow(t), group_col="g",
                                       value_col="v", id_cols=["id"],
                                       num_bands=32)
           .to_pandas().sort_values("id", ignore_index=True))
    df = t.to_pandas()
    exp = (df.groupby("g")["v"].rank(method="min") - 1) / \
        df.groupby("g")["v"].transform("size").sub(1).clip(lower=1)
    pd.testing.assert_series_equal(
        out["pct_rank"], exp.rename("pct_rank"), check_exact=True)
    assert out.loc[out["id"] == n - 1, "pct_rank"].iloc[0] == 0.0


@pytest.mark.parametrize("banded", [False, True])
def test_grouped_percent_rank_without_rows(banded):
    """An empty input and a filter that drops every row: no rows, and
    the id, group and value columns plus a float64 ``pct_rank``
    (``Dataset.to_pandas()`` of the empty histogram has no columns)."""
    from ves_ray.stages.stats import (grouped_percent_rank,
                                      grouped_percent_rank_banded)
    rank = grouped_percent_rank_banded if banded else grouped_percent_rank
    t = pa.table({"id": pa.array(np.arange(30), pa.int64()),
                  "x": pa.array(np.arange(30), pa.int64()),
                  "event_type": pa.array(["a", "b", "c"] * 10)})
    for ds in (rd.from_arrow(t.slice(0, 0)),
               rd.from_arrow(t).filter(expr="x > 100")):
        out = rank(ds, group_col="event_type", value_col="x",
                   id_cols=["id"])
        assert out.count() == 0
        schema = out.schema()
        assert dict(zip(schema.names, schema.types)) == {
            "event_type": pa.string(), "x": pa.int64(), "id": pa.int64(),
            "pct_rank": pa.float64()}
