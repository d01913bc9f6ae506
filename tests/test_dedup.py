import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd
from ves_ray.stages import dedup


def _docs_table():
    """Corpus with planted exact and near duplicates."""
    base = ("the quick brown fox jumps over the lazy dog and runs far "
            "away into the deep green forest tonight")
    near = base.replace("tonight", "today")          # 1-word change
    other = "completely different content about spark queries and arrow tables here"
    texts = [base, base, near, other, "short text", "short text"]
    return pa.table({"doc_id": list(range(len(texts))), "text": texts})


@pytest.fixture()
def docs_ds():
    return rd.from_arrow(_docs_table())


def test_exact_dedup(docs_ds):
    out = dedup.exact_dedup(docs_ds).to_pandas()
    assert len(out) == 4                      # 6 rows, 2 dup pairs
    by_id = out.set_index("doc_id")["dup_count"]
    assert by_id[0] == 2 and by_id[4] == 2
    assert 1 not in by_id.index and 5 not in by_id.index  # losers dropped
    assert by_id[2] == 1 and by_id[3] == 1


def test_minhash_signature_properties():
    t = _docs_table()
    out = dedup.minhash_signatures_batch(t)
    sig = out["minhash"].to_pylist()
    assert sig[0] == sig[1]                   # identical docs → identical sigs
    same = sum(a == b for a, b in zip(sig[0], sig[2]))
    assert same > 32                          # near-dup shares most minhashes
    assert sum(a == b for a, b in zip(sig[0], sig[3])) < 8


def test_minhash_lsh_finds_near_dups(docs_ds):
    pairs = dedup.minhash_lsh_candidates(docs_ds)
    got = {tuple(sorted(p)) for p in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 1) in got and (4, 5) in got    # exact dups
    assert (0, 2) in got or (1, 2) in got     # near dup caught by LSH
    assert not any(3 in p for p in got)       # unrelated doc not paired


def test_jaccard_verification(docs_ds):
    pairs = dedup.minhash_lsh_candidates(docs_ds)
    verified = dedup.jaccard_pairs(docs_ds, pairs, threshold=0.0)
    lut = {tuple(sorted((a, b))): j for a, b, j in
           zip(verified["doc_a"], verified["doc_b"], verified["jaccard"])}
    assert lut[(0, 1)] == 1.0
    assert 0.5 < lut[(0, 2)] < 1.0


def test_simhash_hamming(docs_ds):
    t = _docs_table()
    out = dedup.simhash_batch(t)
    sh = np.array(out["simhash"].to_pylist(), dtype=np.int64).view(np.uint64)
    assert sh[0] == sh[1]
    ham_near = bin(int(sh[0] ^ sh[2])).count("1")
    ham_far = bin(int(sh[0] ^ sh[3])).count("1")
    assert ham_near < ham_far
    pairs = dedup.simhash_neardup_pairs(docs_ds, max_hamming=3)
    got = {tuple(sorted(p)) for p in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 1) in got and (4, 5) in got


def test_pairs_keep_their_columns_when_every_bucket_is_dropped():
    """Every colliding bucket over ``max_bucket=1`` is dropped, so no
    pair survives: the result still has the documented columns, typed
    as the ids."""
    texts = ["the quick brown fox jumps over the lazy dog"] * 4 \
        + ["a b c d e f g h"] * 4
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(range(8), pa.int64()),
                                 "text": texts}))
    for pairs, cols in (
            (dedup.simhash_neardup_pairs(ds, max_bucket=1),
             ["doc_a", "doc_b", "hamming"]),
            (dedup.minhash_lsh_candidates(ds, max_bucket=1),
             ["doc_a", "doc_b"])):
        assert len(pairs) == 0
        assert list(pairs.columns) == cols
        assert (pairs.dtypes == "int64").all()


def test_empty_text_handling():
    # "" splits to [""] (one empty word) — same semantics as DuckDB's
    # regexp_split_to_array; empty docs hash consistently, not to 0.
    t = pa.table({"doc_id": [0, 1, 2], "text": ["", "a b c", ""]})
    sig = dedup.minhash_signatures_batch(t)["minhash"].to_pylist()
    assert len(sig[0]) == 64
    assert sig[0] == sig[2] != sig[1]
    sh = dedup.simhash_batch(t)["simhash"].to_pylist()
    assert sh[0] == sh[2] != sh[1]


def test_ngram_jaccard_pairs():
    """Blocked all-pairs bigram Jaccard vs hand-computed values."""
    base = "the quick brown fox jumps over the lazy dog"
    near = "the quick brown fox jumps over the lazy cat"
    texts = [base, near, "unrelated words entirely", base]
    t = pa.table({"doc_id": [10, 11, 12, 13],
                  "text": texts,
                  "source": ["a", "a", "a", "b"]})
    ds = rd.from_arrow(t)
    out = dedup.ngram_jaccard_pairs(ds, shingle_n=2, threshold=0.1)
    got = {(a, b): j for a, b, j in
           zip(out["doc_a"], out["doc_b"], out["jaccard"])}
    # base vs near: 8 bigrams each, 7 shared -> 7/9
    assert (10, 11) in got
    assert abs(got[(10, 11)] - 7 / 9) < 1e-6
    # doc 13 is in block "b": never compared with block "a" duplicates
    assert not any(13 in p for p in got)
    # unrelated doc shares nothing above threshold
    assert not any(12 in p for p in got)


def test_ngram_jaccard_short_docs():
    """Docs with < n words yield empty shingle sets and are excluded."""
    t = pa.table({"doc_id": [0, 1, 2], "text": ["one", "one", "x y x y"],
                  "source": ["s", "s", "s"]})
    out = dedup.ngram_jaccard_pairs(rd.from_arrow(t), shingle_n=2,
                                    threshold=0.0)
    assert len(out) == 0 or not ((out["doc_a"] == 0) & (out["doc_b"] == 1)).any()

def test_connected_components():
    import pandas as pd
    pairs = pd.DataFrame({"doc_a": [1, 2, 7, 9], "doc_b": [2, 3, 8, 1]})
    cc = dedup.connected_components(pairs)
    lut = dict(zip(cc["node"], cc["root"]))
    assert lut[1] == lut[2] == lut[3] == lut[9] == 1   # chain + cross edge
    assert lut[7] == lut[8] == 7
    assert len(cc) == 6


def test_fuzzy_dedup_keep(docs_ds):
    import pandas as pd
    pairs = pd.DataFrame({"doc_a": [0, 0, 4], "doc_b": [1, 2, 5]})
    out = dedup.fuzzy_dedup_keep(docs_ds, pairs).to_pandas()
    out = out.sort_values("doc_id", ignore_index=True)
    # survivors: 0 (cluster {0,1,2}), 3 (unpaired), 4 (cluster {4,5})
    assert out["doc_id"].tolist() == [0, 3, 4]
    assert out.set_index("doc_id")["cluster_size"].to_dict() == {
        0: 3, 3: 1, 4: 2}


def test_fuzzy_dedup_keep_no_pairs(docs_ds):
    import pandas as pd
    out = dedup.fuzzy_dedup_keep(
        docs_ds, pd.DataFrame(columns=["doc_a", "doc_b"])).to_pandas()
    assert len(out) == 6 and (out["cluster_size"] == 1).all()

def test_ngram_jaccard_skew_split_exact():
    """A 90%-hot source must split into salt-pair groups (bounded
    per-group memory) WITHOUT changing the result set."""
    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
    texts, sources = [], []
    for i in range(60):
        t = " ".join(rng.choice(words, size=8))
        texts.append(t)
        sources.append("hot" if i % 10 else "cold")   # 90% hot
    t = pa.table({"doc_id": list(range(60)), "text": texts,
                  "source": sources})
    ds = rd.from_arrow(t)
    split = dedup.ngram_jaccard_pairs(ds, shingle_n=2, threshold=0.1,
                                      target_block_rows=8)
    whole = dedup.ngram_jaccard_pairs(ds, shingle_n=2, threshold=0.1,
                                      target_block_rows=10_000)
    key = lambda df: sorted(zip(df["doc_a"], df["doc_b"],
                                df["jaccard"].round(6)))
    assert len(whole) > 0
    assert key(split) == key(whole)


def test_exact_dedup_keep_full_rows():
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.dedup import exact_dedup_keep
    t = pa.table({
        "doc_id": pa.array([5, 3, 9, 1, 7], type=pa.int64()),
        "text": pa.array(["aa", "bb", "aa", "aa", "cc"]),
        "source": pa.array(["s1", "s2", "s3", "s4", "s5"]),
    })
    out = (exact_dedup_keep(rd.from_arrow(t), num_buckets=4).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    # winners: min id per text — 1 ("aa"), 3 ("bb"), 7 ("cc")
    assert out["doc_id"].tolist() == [1, 3, 7]
    assert out["source"].tolist() == ["s4", "s2", "s5"]  # full rows kept
    assert "content_hash" not in out.columns and "dbucket" not in out.columns


def _cc_parity(pairs_df, num_buckets=8):
    """Distributed CC must equal driver union-find on (node, root)."""
    import pandas as pd
    exp = (dedup.connected_components(pairs_df)
           .sort_values("node", ignore_index=True))
    got = (dedup.connected_components_distributed(
        pairs_df, num_buckets=num_buckets).to_pandas()
        .sort_values("node", ignore_index=True))
    pd.testing.assert_frame_equal(
        got.astype({"node": exp["node"].dtype}),
        exp, check_dtype=False)


def test_cc_distributed_parity_path_graph():
    # 40-node path: worst case for plain min-propagation (diameter
    # rounds); pointer jumping must converge well inside max_rounds
    import pandas as pd
    n = 40
    pairs = pd.DataFrame({"doc_a": list(range(n - 1)),
                          "doc_b": list(range(1, n))})
    _cc_parity(pairs)


def test_cc_distributed_parity_random_and_strings():
    import pandas as pd
    rng = np.random.default_rng(13)
    a = rng.integers(0, 60, size=80)
    b = rng.integers(0, 60, size=80)
    keep = a != b
    pairs = pd.DataFrame({"doc_a": [f"doc-{v:03d}" for v in a[keep]],
                          "doc_b": [f"doc-{v:03d}" for v in b[keep]]})
    _cc_parity(pairs)


def test_fuzzy_dedup_keep_distributed_parity(docs_ds, monkeypatch):
    import pandas as pd
    pairs = pd.DataFrame({"doc_a": [0, 0, 4], "doc_b": [1, 2, 5]})
    exp = (dedup.fuzzy_dedup_keep(docs_ds, pairs).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    edges = rd.from_arrow(pa.Table.from_pandas(pairs,
                                               preserve_index=False))
    got = (dedup.fuzzy_dedup_keep_distributed(docs_ds, edges,
                                              num_buckets=4)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    import pandas.testing as pdt
    pdt.assert_frame_equal(got, exp, check_dtype=False)
    # the auto-switch takes the same path above the driver threshold
    monkeypatch.setattr(dedup, "MAX_DRIVER_PAIRS", 1)
    got2 = (dedup.fuzzy_dedup_keep(docs_ds, pairs)
            .to_pandas().sort_values("doc_id", ignore_index=True))
    pdt.assert_frame_equal(got2, exp, check_dtype=False)


def test_fuzzy_dedup_keep_best_keeps_highest_quality():
    import pandas as pd
    import ray.data as rd
    from ves_ray.stages.dedup import fuzzy_dedup_keep_best
    # clusters: {1,2,3} (2 longest), {4,5} (tie on quality -> min id 4)
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
        "n_chars": pa.array([10, 99, 50, 7, 7, 1], type=pa.int64()),
    })
    pairs = pd.DataFrame({"doc_a": [1, 2, 4], "doc_b": [2, 3, 5]})
    out = fuzzy_dedup_keep_best(rd.from_arrow(docs).repartition(3),
                                pairs).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert list(out["doc_id"]) == [2, 4, 6]
    assert dict(zip(out["doc_id"], out["cluster_size"])) == \
        {2: 3, 4: 2, 6: 1}


def test_fuzzy_dedup_keep_best_empty_pairs_keeps_all():
    import pandas as pd
    import ray.data as rd
    from ves_ray.stages.dedup import fuzzy_dedup_keep_best
    docs = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                     "n_chars": pa.array([5, 6], type=pa.int64())})
    out = fuzzy_dedup_keep_best(
        rd.from_arrow(docs),
        pd.DataFrame({"doc_a": [], "doc_b": []})).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2]
    assert set(out["cluster_size"]) == {1}


def test_source_shingle_overlap_counts():
    """Known shared distinct bigrams per source pair; duplicate
    shingles within a source count once."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.dedup import source_shingle_overlap
    t = pa.table({
        "source": ["s1", "s1", "s2", "s3"],
        "text": ["a b c", "a b x",        # s1 bigrams: {a b, b c, b x}
                 "a b c d",               # s2: {a b, b c, c d}
                 "z z"],                  # s3: {z z}
    })
    out = (source_shingle_overlap(rd.from_arrow(t), shingle_n=2,
                                  num_buckets=4)
           .to_pandas().sort_values(["source_a", "source_b"],
                                    ignore_index=True))
    # s1 ∩ s2 = {a b, b c} → 2; s3 shares nothing
    assert out.to_dict("records") == [
        {"source_a": "s1", "source_b": "s2", "shared_shingles": 2}]


def test_fuzzy_dedup_keep_distributed_partition_without_cluster_nodes():
    """One pair among six docs at 64 buckets: most exchange partitions
    hold corpus ids but no cluster node, so the left join fills their
    cluster columns with nulls, and those must keep their types."""
    import pandas as pd
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(6), pa.int64())}))
    pairs = pd.DataFrame({"doc_a": [1], "doc_b": [4]})
    edges = rd.from_arrow(pa.Table.from_pandas(pairs, preserve_index=False))
    got = (dedup.fuzzy_dedup_keep_distributed(docs, edges, num_buckets=64)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    assert list(got["doc_id"]) == [0, 1, 2, 3, 5]
    assert list(got["cluster_size"]) == [1, 2, 1, 1, 1]
