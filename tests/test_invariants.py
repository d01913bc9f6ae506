"""Invariants for the rows-only catalog entries must (a) pass on the
real query outputs and (b) actually TRIP on corrupted outputs — an
invariant that can't fail verifies nothing."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def test_wrapped_queries_pass_with_invariants_on(monkeypatch):
    monkeypatch.delenv("VES_CHECK_INVARIANTS", raising=False)
    from ves_ray.pipelines.queries import QUERIES
    # cheap representatives of each invariant family
    for name in ("pack_sequences", "lang_id", "users_approx_distinct"):
        QUERIES[name](SF)          # raises AssertionError on violation


#: the catalog's names in order: a correctness harness over
#: ``queries()`` may record only the first ~50, so a reorder changes
#: what it verifies
CATALOG_ORDER = [
    "parse_extract", "events_json", "events_hourly", "events_by_type",
    "user_sessions", "event_sessions", "user_event_gaps", "user_running_value",
    "value_moments", "log_pipeline", "latest_event_per_user",
    "customers_with_orders", "customers_without_events", "purchase_prior_view",
    "order_revenue", "region_revenue", "top_events_per_user",
    "top_sources_per_route", "route_rollup", "events_hourly_ma",
    "user_event_pivot", "value_band_counts", "value_quantiles",
    "enrich_routes", "route_counts", "source_histogram", "flagship_routed",
    "top_sources", "pricing_summary", "orders_by_segment",
    "nations_per_region", "top_orders", "token_counts", "top_words",
    "top_terms", "quality_stats", "clean_text", "pii_scrub", "bigram_counts",
    "heavy_hitter_words", "value_band_overlap", "dedup_exact", "dedup_keep",
    "dedup_keep_dist", "dup_spans", "substring_dedup", "minhash_verified",
    "decontaminate", "curated_corpus", "ngram_jaccard", "label_centroids",
    "embedding_topk", "embedding_neardup", "hash_sample", "stratified_sample",
    "sample_k", "weighted_sample", "weighted_sample_k", "per_source_sample",
    "split_counts", "value_ddsketch", "unigram_logprob", "pmi_collocations",
    "repetition_stats", "tfidf_top_terms", "dedup_keep_best",
    "mixture_rebalance", "token_budget_mix", "union_distinct",
    "fragment_manifest", "order_revenue_coloc", "user_rolling_value",
    "user_funnel", "value_hist_quantiles", "value_outliers",
    "value_percent_rank", "value_percent_rank_banded", "range_scan_events",
    "dedup_incremental", "source_overlap", "shuffle_rank", "vocab_encode",
    "quality_filter_pct", "curriculum_order", "inverted_index", "term_search",
    "doc_chunks", "source_divergence", "value_mode", "user_retention",
    "lineitem_corr", "user_gini", "session_pairs", "traffic_anomalies",
    "contamination_report", "late_events", "users_approx_distinct", "lang_id",
    "fingerprints", "dedup_keep_minhash", "minhash_pairs", "simhash_pairs",
    "ann_lsh_topk", "ann_ivf_topk", "ann_ivf_indexed", "ann_lsh_indexed",
    "pack_sequences", "media_stats", "embedding_clusters",
]


def test_catalog_registry():
    """One registry: each name once with exactly one check, the order
    unchanged, oracled entries first, each alias the very plan it
    names, and every bench.py query in the catalog."""
    import bench
    from ves_ray.pipelines.invariants import Invariant
    from ves_ray.pipelines.queries import (CATALOG, INVARIANTS, ORACLE_SQL,
                                           QUERIES)
    names = [name for name, _, _ in CATALOG]
    assert len(names) == len(set(names)) == 109
    for name, _, check in CATALOG:
        assert isinstance(check, str) != isinstance(check, Invariant), name
    assert set(ORACLE_SQL).isdisjoint(INVARIANTS)
    assert set(ORACLE_SQL) | set(INVARIANTS) == set(names)
    assert list(QUERIES) == CATALOG_ORDER
    n_oracled = len(ORACLE_SQL)
    assert set(CATALOG_ORDER[:n_oracled]) == set(ORACLE_SQL)
    for alias, kept in (("heavy_hitter_words", "top_words"),
                        ("dedup_keep_dist", "dedup_keep"),
                        ("value_percent_rank_banded", "value_percent_rank")):
        assert QUERIES[alias] is QUERIES[kept]
        assert ORACLE_SQL[alias] == ORACLE_SQL[kept]
    assert set(bench.QUERY_NAMES) <= set(QUERIES)


@pytest.mark.parametrize("name, stage, bound, plan", [
    ("dedup_keep", "dedup", "MAX_DRIVER_PAIRS",
     "fuzzy_dedup_keep_distributed"),
    ("value_percent_rank", "stats", "MAX_HISTOGRAM_ROWS", "_banded_ranks"),
])
def test_second_plan_matches_oracle(name, stage, bound, plan, monkeypatch):
    """Two answers switch to a second plan past a bound that no catalog
    input reaches. With the bound at -1 the catalog entry runs that
    plan, and its rows still pass the conformance check against the
    entry's DuckDB oracle."""
    import importlib
    import os
    import sys

    import duckdb
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from tools.check_queries import TABLES, check_one
    from ves_ray.pipelines.queries import ORACLE_SQL, QUERIES

    mod = importlib.import_module(f"ves_ray.stages.{stage}")
    ran, second = [], getattr(mod, plan)
    monkeypatch.setattr(mod, bound, -1)
    monkeypatch.setattr(mod, plan, lambda *a, **k: (
        ran.append(plan), second(*a, **k))[1])
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    rec = check_one(None, con, name, QUERIES[name], ORACLE_SQL[name], SF,
                    from_sink=False, sink_dir=None)
    assert ran == [plan]
    assert rec["status"] == "pass", rec
    assert rec["rows"] > 0


def test_pack_conservation_trips():
    from ves_ray.pipelines.invariants import check_pack_sequences
    from ves_ray.pipelines.queries import QUERIES
    import os
    os.environ["VES_CHECK_INVARIANTS"] = "0"
    try:
        out = QUERIES["pack_sequences"](SF).to_pandas()
    finally:
        os.environ.pop("VES_CHECK_INVARIANTS")
    check_pack_sequences(out, SF)                 # genuine output passes
    bad = out.copy()
    bad.loc[0, "n_tok"] = bad.loc[0, "n_tok"] - 1  # lose one token
    with pytest.raises(AssertionError, match="conservation"):
        check_pack_sequences(bad, SF)


def test_hll_bound_trips():
    from ves_ray.pipelines.invariants import check_users_approx_distinct
    from ves_ray.pipelines.queries import QUERIES
    import os
    os.environ["VES_CHECK_INVARIANTS"] = "0"
    try:
        out = QUERIES["users_approx_distinct"](SF)
    finally:
        os.environ.pop("VES_CHECK_INVARIANTS")
    check_users_approx_distinct(out, SF)
    bad = out.copy()
    bad["approx_distinct"] = (bad["approx_distinct"] * 2).astype("int64")
    with pytest.raises(AssertionError, match="HLL bound"):
        check_users_approx_distinct(bad, SF)


def test_ann_score_exactness_and_recall_trip():
    from ves_ray.pipelines.invariants import check_ann_ivf_topk
    from ves_ray.pipelines.queries import QUERIES
    import os
    os.environ["VES_CHECK_INVARIANTS"] = "0"
    try:
        out = QUERIES["ann_ivf_topk"](SF)
    finally:
        os.environ.pop("VES_CHECK_INVARIANTS")
    check_ann_ivf_topk(out, SF)
    # a fabricated score must be caught by the exact re-derivation
    bad = out.copy()
    bad.loc[0, "cos_sim"] = float(bad.loc[0, "cos_sim"]) + 0.01
    with pytest.raises(AssertionError,
                       match="exact|descending"):
        check_ann_ivf_topk(bad, SF)
    # shuffled ids (random results) must fall below the recall floor
    rng = np.random.default_rng(3)
    worse = out.copy()
    worse["vec_id"] = rng.integers(100, 400, len(worse))
    with pytest.raises(AssertionError):
        check_ann_ivf_topk(worse, SF)


def test_identical_text_completeness_trips():
    from ves_ray.pipelines.invariants import check_minhash_pairs
    from ves_ray.pipelines.queries import QUERIES
    import os
    os.environ["VES_CHECK_INVARIANTS"] = "0"
    try:
        out = QUERIES["minhash_pairs"](SF)
    finally:
        os.environ.pop("VES_CHECK_INVARIANTS")
    assert len(out) > 0
    check_minhash_pairs(out, SF)
    # testdata has no identical texts below sf0.1, so force a fake
    # identical group: the completeness branch must demand its pair
    from ves_ray.pipelines import invariants as inv
    orig = inv._identical_text_groups
    inv._identical_text_groups = lambda sf: [[1, 2]]
    try:
        missing = out[~((out["doc_a"] == 1) & (out["doc_b"] == 2))]
        with pytest.raises(AssertionError, match="identical-text"):
            check_minhash_pairs(missing.reset_index(drop=True), SF)
    finally:
        inv._identical_text_groups = orig


def test_identical_text_groups_found_at_sf01():
    """The group finder actually finds the real duplicate groups at
    sf0.1 (DuckDB-verified: 8 groups exist there) — so the minhash /
    simhash / dedup completeness invariants are non-vacuous at the
    scale the stress sweeps run."""
    import duckdb
    from ves_ray.pipelines.invariants import _identical_text_groups
    groups = _identical_text_groups("/root/testdata/sf0.1")
    n_dup = duckdb.sql(
        "select count(*) from (select text from read_parquet("
        "'/root/testdata/sf0.1/documents.parquet') "
        "group by text having count(*)>1)").fetchone()[0]
    assert len(groups) == n_dup > 0
    assert all(len(g) >= 2 for g in groups)


def test_media_reconciliation_trips():
    from ves_ray.pipelines.invariants import check_media_stats
    from ves_ray.pipelines.queries import QUERIES
    import os
    os.environ["VES_CHECK_INVARIANTS"] = "0"
    try:
        out = QUERIES["media_stats"](SF).to_pandas()
    finally:
        os.environ.pop("VES_CHECK_INVARIANTS")
    check_media_stats(out, SF)
    bad = out.copy()
    bad.loc[0, "width_sum"] += 1
    with pytest.raises(AssertionError, match="decode"):
        check_media_stats(bad, SF)
