import numpy as np
import pyarrow as pa

from ves_ray.stages.textstats import (fingerprint_batch, lang_id_batch,
                                      quality_batch, token_count_batch)


def _t(texts):
    return pa.table({"doc_id": list(range(len(texts))), "text": texts})


def test_token_counts():
    out = token_count_batch(_t(["one two three", "a,b c!", ""]))
    assert out["n_words"].to_pylist() == [3, 2, 1]
    # "a,b c!" → a , b c !  = 5 BPE-ish pieces
    assert out["n_tok_bpe"].to_pylist() == [3, 5, 0]


def test_quality_components():
    out = quality_batch(_t(["the cat and the hat!", "xxxxx"]))
    assert out["n_words"].to_pylist() == [5, 1]
    assert out["n_chars_calc"].to_pylist() == [20, 5]
    assert out["stop_count"].to_pylist() == [3, 0]   # the, and, the
    assert out["punct_count"].to_pylist() == [1, 0]
    q = out["quality"].to_pylist()
    assert 0 <= q[1] < q[0] <= 1


def test_lang_id_heuristic():
    out = lang_id_batch(_t([
        "the cat is on the mat and it was a good day for they",
        "la casa de los niños es una de las mejores que se ven por el pueblo",
        "der Hund und die Katze sind in dem Haus mit den Kindern",
        "这 是 一个 中文 测试 文本 的 例子",
    ]))
    assert out["lang_pred"].to_pylist() == ["en", "es", "de", "zh"]


def test_fingerprint_order_sensitive():
    out = fingerprint_batch(_t(["alpha beta gamma", "beta alpha gamma",
                                "alpha beta gamma", "", ""]))
    fp = out["fingerprint"].to_pylist()
    assert fp[0] == fp[2]
    assert fp[0] != fp[1]
    assert fp[3] == fp[4]  # empty docs fingerprint consistently


def test_sliced_batch_consistency():
    t = _t(["aa bb", "cc dd ee", "the and of", "x"])
    whole = quality_batch(t)
    part = quality_batch(t.slice(2, 2))
    assert whole["stop_count"].to_pylist()[2:] == part["stop_count"].to_pylist()


def test_stratified_sample_rates_and_determinism():
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.sampling import stratified_sample
    n = 4000
    t = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "source": pa.array(["a" if i % 2 == 0 else "b" for i in range(n)]),
    })
    rates = {"a": 5, "b": 0}  # 25% of a, none of b
    got = stratified_sample(rd.from_arrow(t), rates, strata_col="source",
                            id_col="doc_id", denom=20).to_pandas()
    assert set(got["source"]) == {"a"}
    # ids are even (source a) and keep iff id % 20 < 5 → exactly
    # {0,2,4, 20,22,24, ...}: 3 per 20-block of evens
    assert len(got) == sum(1 for i in range(0, n, 2) if i % 20 < 5)
    again = stratified_sample(rd.from_arrow(t), rates,
                              strata_col="source", id_col="doc_id",
                              denom=20).to_pandas()
    assert got["doc_id"].tolist() == sorted(again["doc_id"].tolist())


def test_stratified_sample_string_ids_and_default():
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.sampling import stratified_sample
    t = pa.table({
        "k": pa.array([f"id-{i}" for i in range(2000)]),
        "source": pa.array(["x"] * 1000 + ["unknown"] * 1000),
    })
    got = stratified_sample(rd.from_arrow(t), {"x": 5000},
                            strata_col="source", id_col="k",
                            denom=10000).to_pandas()
    # unknown stratum dropped entirely; x sampled at ~50%
    assert set(got["source"]) == {"x"}
    assert 350 <= len(got) <= 650


def test_clean_text_batch_kernels():
    import pyarrow as pa
    from ves_ray.stages.textstats import clean_text_batch
    b = pa.table({"text": pa.array([
        "  Hello\tWORLD \x07\x1f!\n\nnext  line ",
        "plain",
        "Café",      # e + combining accent
    ])})
    out = clean_text_batch(b, nfc=True)["text_clean"].to_pylist()
    assert out[0] == "hello world ! next line"
    assert out[1] == "plain"
    assert out[2] == "café"   # NFC composed + lowered


def test_pii_scrub_batch():
    import pyarrow as pa
    from ves_ray.stages.textstats import pii_scrub_batch
    b = pa.table({"text": pa.array([
        "mail a.b-c_9@x-y.org now",
        "call 555-123-4567 or 555-000-1111.",
        "host 10.0.0.255 and 192.168.1.1 up",
        "a@b.io at 1.2.3.4 dial 999-888-7777",
        "no pii here 12345",
    ])})
    out = pii_scrub_batch(b)["text_scrubbed"].to_pylist()
    assert out[0] == "mail <EMAIL> now"
    assert out[1] == "call <PHONE> or <PHONE>."
    assert out[2] == "host <IP> and <IP> up"
    assert out[3] == "<EMAIL> at <IP> dial <PHONE>"
    assert out[4] == "no pii here 12345"


# -------------------------------------------------------------------------
# unigram log-prob scoring
# -------------------------------------------------------------------------

def test_unigram_logprob_scores_typical_above_rare():
    import ray.data as rd
    from ves_ray.stages.textstats import unigram_logprob
    docs = pa.table({
        "doc_id": pa.array(list(range(4)), type=pa.int64()),
        "text": pa.array([
            "the cat sat on the mat",
            "the dog sat on the rug",
            "zyxwvut qponmlk jihgfed abcdefg hijklmn opqrstu",
            "the the the the the the",
        ]),
    })
    out = unigram_logprob(rd.from_arrow(docs).repartition(2)) \
        .to_pandas().set_index("doc_id")
    avg = out["logp_sum_scaled"] / out["n_words"]
    assert avg[3] > avg[0]            # all-stopword doc most typical
    assert avg[2] < avg[0]            # gibberish scores lowest
    assert avg[2] < avg[1]


def test_unigram_logprob_partition_invariant():
    import ray.data as rd
    from ves_ray.stages.textstats import unigram_logprob
    rng = np.random.default_rng(5)
    vocab = [f"w{v}" for v in range(50)]
    texts = [" ".join(rng.choice(vocab, rng.integers(3, 30)))
             for _ in range(300)]
    t = pa.table({"doc_id": pa.array(range(300), type=pa.int64()),
                  "text": pa.array(texts)})
    a = unigram_logprob(rd.from_arrow(t).repartition(2)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    b = unigram_logprob(rd.from_arrow(t).repartition(11)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    assert a.equals(b)


def test_unigram_logprob_min_count_oov_floor():
    import ray.data as rd
    from ves_ray.stages.textstats import unigram_logprob
    t = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["common common common common",
                          "common rareword"]),
    })
    out = unigram_logprob(rd.from_arrow(t), min_count=2) \
        .to_pandas().set_index("doc_id")
    # rareword (count 1 < min_count 2) takes the OOV floor, strictly
    # worse per token than any kept word
    total = 6
    kept_common = int(np.floor(np.log(5 / total) * 1_000_000))
    floor = int(np.floor(np.log(2 / total) * 1_000_000)) - 1
    assert out.loc[1, "logp_sum_scaled"] == kept_common + floor
    assert out.loc[0, "logp_sum_scaled"] == 4 * kept_common


def test_repetition_batch_counts_distinct_trigrams():
    from ves_ray.stages.textstats import repetition_batch
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "a b c a b c a b c",       # 7 trigrams, 3 distinct (cyclic)
            "one two three four",       # 2 trigrams, both distinct
            "x y",                      # too short: 0 trigrams
            "spam spam spam spam spam", # 3 trigrams, 1 distinct
        ]),
    })
    out = repetition_batch(t).to_pandas().set_index("doc_id")
    assert list(out["n_3grams"]) == [7, 2, 0, 3]
    assert list(out["n_distinct_3grams"]) == [3, 2, 0, 1]


def test_repetition_batch_no_cross_row_trigrams():
    from ves_ray.stages.textstats import repetition_batch
    # rows that would form trigrams if concatenated must not
    t = pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                  "text": pa.array(["p q", "r s"])})
    out = repetition_batch(t).to_pandas()
    assert list(out["n_3grams"]) == [0, 0]
    assert list(out["n_distinct_3grams"]) == [0, 0]


def test_tfidf_top_terms_ranks_distinctive_words():
    import ray.data as rd
    from ves_ray.stages.textstats import tfidf_top_terms
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array([
            "common common zebra",
            "common common yak yak",
            "common quail",
        ]),
    })
    out = tfidf_top_terms(rd.from_arrow(t), k=2).to_pandas()
    top1 = out[out["rk"] == 1].set_index("doc_id")["term"]
    # 'common' is in every doc (idf 0) so the distinctive word wins
    assert top1[0] == "zebra" and top1[1] == "yak" and top1[2] == "quail"
    # ubiquitous term scores exactly 0
    assert (out[out["term"] == "common"]["score_scaled"] == 0).all()


def test_tfidf_top_terms_partition_invariant():
    import ray.data as rd
    from ves_ray.stages.textstats import tfidf_top_terms
    rng = np.random.default_rng(9)
    vocab = [f"t{v}" for v in range(40)]
    t = pa.table({
        "doc_id": pa.array(range(200), type=pa.int64()),
        "text": pa.array([" ".join(rng.choice(vocab, rng.integers(2, 25)))
                          for _ in range(200)]),
    })
    a = tfidf_top_terms(rd.from_arrow(t).repartition(2), k=3) \
        .to_pandas().sort_values(["doc_id", "rk"], ignore_index=True)
    b = tfidf_top_terms(rd.from_arrow(t).repartition(13), k=3) \
        .to_pandas().sort_values(["doc_id", "rk"], ignore_index=True)
    assert a.equals(b)


def test_vocab_encode_matches_brute_force():
    import ray.data as rd
    from collections import Counter
    from ves_ray.stages.textstats import vocab_encode
    texts = ["the cat sat on the mat", "the dog ate the cat food",
             "a mat a cat a hat", "", "unseen words only here zz"]
    t = _t(texts)
    out = (vocab_encode(rd.from_arrow(t).repartition(3), vocab_size=4)
           .to_pandas().sort_values("doc_id", ignore_index=True))
    # brute force: rank words by (count desc, word asc), ids 0..3
    words = [w.lower().split(" ") if w else [""] for w in texts]
    cnt = Counter(w for row in words for w in row)
    vocab = {w: i for i, (w, _) in enumerate(
        sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:4])}
    for i, row in enumerate(words):
        assert out.loc[i, "n_tok"] == len(row)
        assert out.loc[i, "n_oov"] == sum(w not in vocab for w in row)
        assert out.loc[i, "ids_sum"] == sum(vocab.get(w, 0) for w in row)


def test_inverted_index_postings_and_bounds():
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.textstats import inverted_index
    t = pa.table({"doc_id": pa.array([1, 2, 3, 10], type=pa.int64()),
                  "text": pa.array(["the cat sat", "the dog the dog",
                                    "cat dog", "zebra"])})
    out = (inverted_index(rd.from_arrow(t), min_df=1)
           .to_pandas().sort_values("word", ignore_index=True))
    got = {r["word"]: (r["df"], r["postings"])
           for _, r in out.iterrows()}
    # within-doc repeats collapse; postings sorted by doc_id
    assert got == {"cat": (2, "1,3"), "dog": (2, "2,3"),
                   "sat": (1, "1"), "the": (2, "1,2"),
                   "zebra": (1, "10")}
    # df bounds are exact (term lives wholly in one bucket)
    bounded = (inverted_index(rd.from_arrow(t), min_df=2, max_df=2)
               .to_pandas())
    assert sorted(bounded["word"]) == ["cat", "dog", "the"]


def test_term_search_exact_topk_and_idf_weighting():
    import math
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.textstats import term_search
    # rare term outweighs two common terms: ln(4/1) > 2*ln(4/3)
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                  "text": pa.array(["rare alpha", "alpha beta",
                                    "alpha beta", "beta gamma"])})
    out = term_search(rd.from_arrow(t), ["rare", "alpha", "beta"], k=3)
    idf = {"rare": math.floor(math.log(4 / 1) * 1e6),
           "alpha": math.floor(math.log(4 / 3) * 1e6),
           "beta": math.floor(math.log(4 / 3) * 1e6)}
    want = {1: idf["rare"] + idf["alpha"],
            2: idf["alpha"] + idf["beta"],
            3: idf["alpha"] + idf["beta"],
            4: idf["beta"]}
    top = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    assert list(zip(out["doc_id"], out["score"])) == top
    assert out["doc_id"].iloc[0] == 1     # rare-term doc wins


def test_chunk_documents_coverage_and_overlap():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.textstats import chunk_documents
    texts = ["a b c d e f g",          # tail not on a stride boundary
             "x y",                    # shorter than size
             "one two three four five six seven eight"]
    t = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                  "text": pa.array(texts)})
    out = (chunk_documents(rd.from_arrow(t), size=4, stride=2)
           .to_pandas().sort_values(["doc_id", "chunk_idx"],
                                    ignore_index=True))
    for did, text in zip([1, 2, 3], texts):
        words = text.split()
        sub = out[out["doc_id"] == did]
        covered = set()
        for _, r in sub.iterrows():
            s, e = int(r["start_word"]), int(r["start_word"] + r["n_words"])
            assert r["chunk_text"] == " ".join(words[s:e])
            assert r["n_words"] <= 4
            covered |= set(range(s, e))
        assert covered == set(range(len(words)))   # every word chunked
        assert sub["chunk_idx"].tolist() == list(range(len(sub)))
    # short doc -> exactly one whole-doc chunk
    assert len(out[out["doc_id"] == 2]) == 1


def test_source_divergence_zero_for_identical_mixes():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.textstats import source_divergence
    # two sources with IDENTICAL word mixes -> KL 0 for both; a third
    # skewed source -> strictly positive
    t = pa.table({
        "source": pa.array(["a"] * 2 + ["b"] * 2 + ["c"] * 2),
        "text": pa.array(["x y z", "x y", "x y z", "x y",
                          "z z z z", "z z"])})
    out = source_divergence(rd.from_arrow(t), vocab_size=16)
    got = dict(zip(out["source"], out["kl_units"]))
    # a and b share one distribution, so their divergence from the
    # corpus blend is identical; the skewed source diverges more
    assert got["a"] == got["b"]
    assert got["c"] > got["a"]
    # n_words = within-vocab word count per source
    assert dict(zip(out["source"], out["n_words"])) == \
        {"a": 5, "b": 5, "c": 6}


def test_unigram_logprob_without_rows():
    """An empty input and a filter that drops every row score no rows
    (the empty vocabulary has no columns through
    ``Dataset.to_pandas()``)."""
    import ray.data as rd

    from ves_ray.stages.textstats import unigram_logprob
    t = pa.table({"doc_id": pa.array(np.arange(10), pa.int64()),
                  "text": pa.array(["a b c"] * 10)})
    for ds in (rd.from_arrow(t.slice(0, 0)),
               rd.from_arrow(t).filter(expr="doc_id > 100")):
        assert unigram_logprob(ds).count() == 0
