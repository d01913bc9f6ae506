"""Text-analysis operators for training-data pipelines.

Language-ID (stopword/n-gram heuristic), quality scoring
(length/punct/stopword ratios), token counting (whitespace + a BPE-ish
regex), and document fingerprinting (rolling hash). All vectorized
Arrow kernels inside ``map_batches``; the stopword tables / compiled
regexes are module-level constants (stateless task pool) — nothing
here needs an actor.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import (U64, hash_strings, reduce_by_row, round_half_away,
                       splitmix64)
from .aggregate import combine, combine_pandas, gather

_WS = r"\s+"
# BPE-ish pretokenizer: word pieces or single non-space symbols
BPE_ISH = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

# tiny per-language stopword tables (public common-word lists)
STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the a and of to in is it you that was for on are with as i his they be at".split()),
    "es": frozenset("de la que el en y a los del se las por un para con no una su al es lo".split()),
    "fr": frozenset("de la le et les des en un du une que est pour qui dans a par plus pas au".split()),
    "de": frozenset("der die und in den von zu das mit sich des auf für ist im dem nicht ein".split()),
    "zh": frozenset("的 一 是 在 不 了 有 和 人 这 中 大 为 上 个 国 我 以 要 他".split()),
}


def _words(text: pa.ChunkedArray | pa.Array):
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    return pc.split_pattern_regex(pc.utf8_lower(text), pattern=_WS)


def explode_words(b: pa.Table, text_col: str = "text") -> pa.Table:
    """One ``word`` row per lower-cased whitespace word of
    ``text_col``."""
    words = _words(b[text_col])
    return pa.table({"word": words.values[words.offsets[0].as_py():
                                          words.offsets[-1].as_py()]})


def word_counts(ds, text_col: str = "text"):
    """``(word, n)``: every word's count over ``ds``, one ``combine``."""
    return combine(ds.map_batches(explode_words, batch_format="pyarrow",
                                  zero_copy_batch=True,
                                  fn_kwargs={"text_col": text_col}),
                   ["word"], {"n": ([], "count_all")})


def token_count_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """n_words (whitespace) and n_tok_bpe (BPE-ish regex pieces)."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n_words = pc.list_value_length(pc.split_pattern_regex(text, pattern=_WS))
    n_bpe = pc.count_substring_regex(text, pattern=BPE_ISH)
    out = batch.append_column("n_words", pc.cast(n_words, pa.int64()))
    return out.append_column("n_tok_bpe", pc.cast(n_bpe, pa.int64()))


def quality_batch(batch: pa.Table, *, text_col: str = "text",
                  stop_lang: str = "en") -> pa.Table:
    """Quality signals: n_words, n_chars_calc, stop_count, punct_count,
    mean_word_len, quality score in [0,1].

    stop_count counts exact whitespace-token matches against the `en`
    stopword list (SQL-mirrorable with list_filter)."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = _words(text)
    n_words = pc.cast(pc.list_value_length(words), pa.int64())
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    # vectorized stopword membership on the FLAT word array
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values[off[0]:off[-1]]
    stops = pa.array(sorted(STOPWORDS[stop_lang]))
    is_stop = pc.is_in(flat, value_set=stops)
    stop_flat = is_stop.to_numpy(zero_copy_only=False).astype(np.uint64)
    stop_count = reduce_by_row(stop_flat, off - off[0]).astype(np.int64)
    punct = pc.cast(pc.count_substring_regex(text, pattern=r"[^\w\s]"), pa.int64())

    n_words_np = n_words.to_numpy(zero_copy_only=False).astype(np.float64)
    n_chars_np = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
    denom = np.maximum(n_words_np, 1.0)
    mean_word_len = (n_chars_np - np.maximum(n_words_np - 1, 0)) / denom
    stop_ratio = stop_count / denom
    punct_ratio = punct.to_numpy(zero_copy_only=False) / np.maximum(n_chars_np, 1.0)
    # simple monotone quality score: enough words, sane word length,
    # some stopwords, low punctuation noise
    score = (np.clip(n_words_np / 50.0, 0, 1) * 0.3
             + np.clip(1.0 - np.abs(mean_word_len - 5.0) / 5.0, 0, 1) * 0.3
             + np.clip(stop_ratio * 4.0, 0, 1) * 0.2
             + np.clip(1.0 - punct_ratio * 5.0, 0, 1) * 0.2)

    out = batch.append_column("n_words", n_words)
    out = out.append_column("n_chars_calc", n_chars)
    out = out.append_column("stop_count", pa.array(stop_count))
    out = out.append_column("punct_count", punct)
    # SQL-ROUND-compatible (half away from zero): the score is a sum
    # of small-integer ratios, so banker's-rounding ties are reachable
    out = out.append_column("quality", pa.array(round_half_away(score, 6)))
    return out


def lang_id_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Heuristic language ID: per-language stopword hit-rate over the
    flat word array (one is_in kernel per language — vectorized), plus
    a CJK character-ratio override for zh."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = _words(text)
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values[off[0]:off[-1]]
    off0 = off - off[0]
    n = len(batch)
    denom = np.maximum(np.diff(off0), 1).astype(np.float64)
    langs = [l for l in STOPWORDS if l != "zh"]
    scores = np.zeros((len(langs), n), dtype=np.float64)
    for i, lang in enumerate(langs):
        vs = pa.array(sorted(STOPWORDS[lang]))
        hits = pc.is_in(flat, value_set=vs).to_numpy(zero_copy_only=False).astype(np.uint64)
        scores[i] = reduce_by_row(hits, off0).astype(np.float64) / denom
    cjk = pc.count_substring_regex(text, pattern=r"[一-鿿]")
    cjk_ratio = (cjk.to_numpy(zero_copy_only=False)
                 / np.maximum(pc.utf8_length(text).to_numpy(zero_copy_only=False), 1))
    best = np.argmax(scores, axis=0)
    best_score = scores[best, np.arange(n)]
    pred = np.array(langs, dtype=object)[best]
    pred = np.where(cjk_ratio > 0.2, "zh", pred)
    conf = np.where(cjk_ratio > 0.2, cjk_ratio, best_score)
    unknown = (best_score < 0.01) & (cjk_ratio <= 0.2)
    pred = np.where(unknown, "und", pred)
    out = batch.append_column("lang_pred", pa.array(pred.tolist(), type=pa.string()))
    return out.append_column("lang_conf", pa.array(round_half_away(conf, 6)))


def fingerprint_batch(batch: pa.Table, *, text_col: str = "text",
                      window: int = 4) -> pa.Table:
    """Document fingerprint: order-sensitive rolling hash over the word
    sequence — position-mixed word hashes reduced per row. Equal texts
    ⇒ equal fingerprints; any word swap changes it."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = _words(text)
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values[off[0]:off[-1]]
    off0 = off - off[0]
    if len(flat):
        wh = hash_strings(flat, seed=0x77)
        starts = np.repeat(off0[:-1], np.diff(off0))
        j = np.arange(len(flat), dtype=np.int64) - starts
        with np.errstate(over="ignore"):
            mixed = splitmix64(wh ^ (j.astype(U64) * U64(0x9E3779B97F4A7C15)))
        fp = reduce_by_row(mixed, off0)
    else:
        fp = np.zeros(len(batch), dtype=np.uint64)
    fp63 = (fp & U64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
    return batch.append_column("fingerprint", pa.array(fp63))


# PII redaction patterns, applied IN ORDER (email first so its digit
# runs can't be half-eaten by the phone/IP patterns). All RE2-safe —
# pyarrow and DuckDB both compile these with RE2, so a SQL oracle
# chaining regexp_replace(..., 'g') in the same order is bit-identical.
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{3}-\d{3}-\d{4}\b", "<PHONE>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
]


def pii_scrub_batch(batch: pa.Table, *, text_col: str = "text",
                    out_col: str = "text_scrubbed") -> pa.Table:
    """Redact emails / US-style phone numbers / IPv4 addresses with
    typed placeholder tokens — the standard pre-training privacy
    scrub. One RE2 pass per pattern over the whole batch (Arrow
    ``replace_substring_regex``), zero per-row Python."""
    t = batch[text_col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    for pattern, repl in PII_PATTERNS:
        t = pc.replace_substring_regex(t, pattern=pattern,
                                       replacement=repl)
    return batch.append_column(out_col, t)


def clean_text_batch(batch: pa.Table, *, text_col: str = "text",
                     lowercase: bool = True, strip_controls: bool = True,
                     collapse_ws: bool = True, nfc: bool = False,
                     out_col: str = "text_clean") -> pa.Table:
    """Text normalization (the first stage of every LLM data pipeline):
    lowercase, control-char strip, whitespace collapse + trim, and
    optional NFC unicode normalization — all pyarrow string kernels,
    zero per-row Python. Appends ``out_col``."""
    import pyarrow.compute as pc
    t = batch[text_col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    if nfc:
        # pyarrow's utf8_normalize does not canonically COMPOSE in
        # this environment (verified: 'e'+U+0301 stays decomposed), so
        # NFC falls back to unicodedata per string — opt-in and off by
        # default; leave it off in token-count/dedup hot paths
        import unicodedata
        t = pa.array([None if v is None
                      else unicodedata.normalize("NFC", v)
                      for v in t.to_pylist()], type=pa.string())
    if lowercase:
        t = pc.utf8_lower(t)
    if strip_controls:
        # exclude \t\n\v\f\r: those are WHITESPACE and must stay until
        # the collapse step turns them into single spaces (stripping
        # them here would glue adjacent words)
        t = pc.replace_substring_regex(
            t, pattern=r"[\x00-\x08\x0e-\x1f\x7f]", replacement="")
    if collapse_ws:
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
    return batch.append_column(out_col, t)


def unigram_logprob(ds, *, text_col: str = "text", id_col: str = "doc_id",
                    scale: int = 1_000_000, min_count: int = 1):
    """Unigram language-model scoring (the KenLM-lite quality signal:
    docs whose words are corpus-typical score high; gibberish and
    boilerplate outliers score low). Two map passes, no row-scale
    shuffle on the scoring side:

    pass 1 — distributed vocabulary counts (block-local partial
    counts → one vocabulary-scale ``groupby`` exchange), collected and
    turned into per-word integer surprisals
    ``floor(ln(count/total) · scale)`` on the driver, then broadcast
    once via ``ray.put``. At 100-TB scale the vocabulary is capped
    (``min_count`` / top-V with an OOV floor) so the broadcast stays
    node-heap-sized; the count aggregate itself is the standard
    vocabulary exchange.

    pass 2 — stateless ``map_batches``: tokenize, ``index_in`` the
    broadcast vocab, gather surprisals, exact int64 per-row reduction
    (cumsum-slice, no Python loop). Returns
    ``(id, n_words, logp_sum_scaled)`` — all-integer so the DuckDB
    oracle matches bit-for-bit; callers derive the per-token average
    ``logp_sum_scaled / (scale · n_words)`` when a float is wanted.

    Words below ``min_count`` (and, downstream, true OOV words) take
    the OOV floor surprisal ``floor(ln(min_count/total)·scale) - 1``,
    slightly worse than the rarest kept word.
    """
    import ray

    vocab = gather(word_counts(ds, text_col), lambda: pa.table(
        {"word": pa.array([], pa.string()), "n": pa.array([], pa.int64())}))
    counts = vocab["n"].to_numpy()
    total = max(float(counts.sum()), 1.0)     # no words: no rows to score
    logp = np.floor(np.log(counts / total) * scale).astype(np.int64)
    oov = np.int64(np.floor(np.log(min_count / total) * scale)) - 1
    if min_count > 1:
        keep = counts >= min_count
        vocab, logp = vocab.filter(keep), logp[keep]
    vref = ray.put((vocab["word"].combine_chunks(), logp, int(oov)))

    def score(b: pa.Table) -> pa.Table:
        vwords, vlogp, voov = ray.get(vref)
        words = _words(b[text_col])
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.values[off[0]:off[-1]]
        off = off - off[0]
        idx = pc.index_in(flat, value_set=vwords)
        # misses are nulls → float64 NaN after to_numpy; NaN >= 0 is
        # False, so one comparison covers both the int and float cases
        idx_np = idx.to_numpy(zero_copy_only=False)
        hit = idx_np >= 0
        term = np.full(len(flat), voov, dtype=np.int64)
        if hit.any():
            term[hit] = vlogp[idx_np[hit].astype(np.int64)]
        csum = np.concatenate(([0], np.cumsum(term, dtype=np.int64)))
        sums = csum[off[1:]] - csum[off[:-1]]
        n_words = (off[1:] - off[:-1]).astype(np.int64)
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({id_col: ids,
                         "n_words": pa.array(n_words),
                         "logp_sum_scaled": pa.array(sums)})

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def repetition_batch(batch: pa.Table, *, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Within-document repetition stats (the C4/Gopher-style
    boilerplate signal): total and DISTINCT word-trigram counts per
    doc — a low distinct/total ratio flags template spam and repeated
    boilerplate. One vectorized pass: trigrams are three shifted
    slices of the flat word array joined element-wise (row-crossing
    positions masked), distinctness via exact Arrow dictionary codes
    (no hash-collision undercount) + a lexsort adjacent-change scan.
    Emits (id, n_3grams, n_distinct_3grams) — all-integer, so the
    DuckDB list_distinct oracle matches exactly."""
    words = _words(batch[text_col])
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values[off[0]:off[-1]]
    off = off - off[0]
    lens = np.diff(off)
    nrows = len(lens)
    n_sh = np.maximum(lens - 2, 0).astype(np.int64)
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    nf = len(flat)
    if nf < 3 or not (lens >= 3).any():
        return pa.table({id_col: ids, "n_3grams": pa.array(n_sh),
                         "n_distinct_3grams": pa.array(
                             np.zeros(nrows, dtype=np.int64))})
    tri = pc.binary_join_element_wise(
        flat.slice(0, nf - 2), flat.slice(1, nf - 2),
        flat.slice(2, nf - 2), " ")
    rowp = np.repeat(np.arange(nrows, dtype=np.int64), lens)
    keep = rowp[:-2] == rowp[2:]
    codes = tri.filter(pa.array(keep)).dictionary_encode() \
        .indices.to_numpy(zero_copy_only=False).astype(np.int64)
    rowk = rowp[:-2][keep]
    order = np.lexsort((codes, rowk))
    rs, cs = rowk[order], codes[order]
    new = np.ones(len(rs), dtype=bool)
    new[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
    distinct = np.bincount(rs[new], minlength=nrows).astype(np.int64)
    return pa.table({id_col: ids, "n_3grams": pa.array(n_sh),
                     "n_distinct_3grams": pa.array(distinct)})


def tfidf_top_terms(ds, *, text_col: str = "text", id_col: str = "doc_id",
                    k: int = 3, scale: int = 1_000_000):
    """Per-document top-k terms by TF-IDF (the classic keyword /
    routing signal). Same two-pass broadcast shape as
    :func:`unigram_logprob`:

    pass A — document frequencies: each (doc, term) pair lives in one
    block (a doc is one row), so block-local distinct-doc counts are
    exact partials; one vocabulary-scale ``groupby`` exchange sums
    them. ``idf_scaled = floor(ln(N/df)·scale)`` is computed once on
    the driver and broadcast.

    pass B — stateless per-block scoring: in-block (doc, term) tf
    counts (Arrow groupby), broadcast ``index_in`` idf lookup,
    ``score_scaled = tf · idf_scaled`` (all-integer → exact SQL
    oracle), then a per-doc head-k on the block's aggregate-scale
    pair table. No row-scale shuffle anywhere.

    Returns (id, term, score_scaled, rk) rows, rk ∈ [1, k], ordered
    by (score desc, term asc) within each doc."""
    import pandas as pd

    import ray

    def df_partial(b: pa.Table) -> pa.Table:
        words = _words(b[text_col])
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.values[off[0]:off[-1]]
        off0 = off - off[0]
        rowp = np.repeat(np.arange(len(b), dtype=np.int64),
                         np.diff(off0))
        pairs = pa.table({"r": pa.array(rowp), "term": flat})
        return pa.TableGroupBy(pairs, ["r", "term"]).aggregate([])

    # each doc lives in one block, so its distinct (doc, term) pairs
    # are distinct globally and df counts them
    dfv = combine_pandas(ds.map_batches(df_partial, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         ["term"], {"df": ([], "count_all")})
    n_docs = int(ds.count())
    idf = np.floor(np.log(n_docs / dfv["df"].to_numpy()
                          .astype(np.float64)) * scale).astype(np.int64)
    vref = ray.put((pa.array(dfv["term"], type=pa.string()), idf))

    def topk(b: pa.Table) -> pa.Table:
        terms_arr, idf_np = ray.get(vref)
        words = _words(b[text_col])
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.values[off[0]:off[-1]]
        off0 = off - off[0]
        rowp = np.repeat(np.arange(len(b), dtype=np.int64),
                         np.diff(off0))
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        pairs = pa.table({"r": pa.array(rowp), "term": flat})
        g = pa.TableGroupBy(pairs, ["r", "term"]).aggregate(
            [([], "count_all")]).rename_columns(["r", "term", "tf"])
        gi = pc.index_in(g["term"], value_set=terms_arr) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        score = g["tf"].to_numpy().astype(np.int64) * idf_np[gi]
        df = pd.DataFrame({
            "r": g["r"].to_numpy(),
            "term": g["term"].to_pandas(),
            "score_scaled": score,
        }).sort_values(["r", "score_scaled", "term"],
                       ascending=[True, False, True])
        top = df.groupby("r", sort=False).head(k).copy()
        top["rk"] = top.groupby("r", sort=False).cumcount() + 1
        id_np = ids.to_numpy(zero_copy_only=False)
        out = pa.table({
            id_col: pa.array(id_np[top["r"].to_numpy()],
                             type=ids.type),
            "term": pa.array(top["term"], type=pa.string()),
            "score_scaled": pa.array(top["score_scaled"].to_numpy()),
            "rk": pa.array((top["rk"].to_numpy()).astype(np.int64)),
        })
        return out

    return ds.map_batches(topk, batch_format="pyarrow",
                          zero_copy_batch=True)


def vocab_encode(ds, *, text_col: str = "text", id_col: str = "doc_id",
                 vocab_size: int = 512):
    """Tokenizer-style vocabulary build + corpus encode: assign ids
    0..V-1 to the top-``vocab_size`` words by (count DESC, word ASC)
    — the deterministic frequency-rank vocabulary — then encode every
    document against it in one stateless pass.

    Same 100-TB shape as :func:`unigram_logprob`: pass 1 is the
    standard vocabulary-scale count exchange (block-local partials
    first), the ranked vocab is V rows on the driver and broadcast
    once via ``ray.put``; pass 2 is ``index_in`` + exact int64
    cumsum-slice reductions, no row-scale shuffle and no Python loop.

    Returns ``(id, n_tok, n_oov, ids_sum)`` — ``ids_sum`` is the
    exact int64 sum of assigned token ids (an order-insensitive
    encoding checksum the SQL oracle reproduces; the full id
    sequence itself is row-local and trivially emitted instead when
    a consumer wants the encoded column)."""
    import ray

    top = (word_counts(ds, text_col)
           .sort(["n", "word"], descending=[True, False])
           .limit(vocab_size).to_pandas())
    vref = ray.put((pa.array(top["word"], type=pa.string()),
                    np.arange(len(top), dtype=np.int64)))

    def encode(b: pa.Table) -> pa.Table:
        vwords, vids = ray.get(vref)
        words = _words(b[text_col])
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.values[off[0]:off[-1]]
        off = off - off[0]
        idx = pc.index_in(flat, value_set=vwords)
        idx_np = idx.to_numpy(zero_copy_only=False)
        hit = idx_np >= 0
        term = np.zeros(len(flat), dtype=np.int64)
        if hit.any():
            term[hit] = vids[idx_np[hit].astype(np.int64)]
        csum = np.concatenate(([0], np.cumsum(term, dtype=np.int64)))
        ids_sum = csum[off[1:]] - csum[off[:-1]]
        miss = (~hit).astype(np.int64)
        msum = np.concatenate(([0], np.cumsum(miss, dtype=np.int64)))
        n_oov = msum[off[1:]] - msum[off[:-1]]
        n_tok = (off[1:] - off[:-1]).astype(np.int64)
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({id_col: ids, "n_tok": pa.array(n_tok),
                         "n_oov": pa.array(n_oov),
                         "ids_sum": pa.array(ids_sum)})

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


def _distinct_term_doc_pairs(b: pa.Table, text_col: str, id_col: str,
                             term_filter: pa.Array | None = None
                             ) -> pa.Table:
    """Block-local DISTINCT (word, doc) pairs: dictionary-encode the
    flat word array and unique the (row, code) keys, so within-doc
    repeats never leave the block. ``term_filter`` prunes to a
    broadcast term set BEFORE the unique (big-side prune first)."""
    words = _words(b[text_col])
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values[off[0]:off[-1]]
    rel = off - off[0]
    rows = np.repeat(np.arange(len(b), dtype=np.int64), np.diff(rel))
    if term_filter is not None:
        m = pc.is_in(flat, value_set=term_filter)
        mv = m.to_numpy(zero_copy_only=False)
        flat = flat.filter(m)
        rows = rows[mv]
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = len(enc.dictionary)
    key = rows * max(vocab, 1) + codes
    _, keep = np.unique(key, return_index=True)
    ids = b[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return pa.table({
        "word": enc.dictionary.take(pa.array(codes[keep])),
        id_col: ids.take(pa.array(rows[keep]))})


def inverted_index(ds, *, text_col: str = "text", id_col: str = "doc_id",
                   min_df: int = 2, max_df: int | None = None,
                   num_buckets: int = 64):
    """Inverted (posting-list) index: one row per term with its
    document frequency and the comma-joined sorted ids of the docs
    containing it — the retrieval-side artifact a search / RAG
    pipeline builds over a curated corpus.

    Shape: per-block DISTINCT (term, doc) pairs (dictionary-encode the
    flat word array, unique the (row, code) pairs — within-doc repeats
    never leave the block), then ONE ``bucket_exchange`` on the term;
    inside each partition one vectorized pass (sort_by, boundary
    scan, ListArray offsets, pc.binary_join) builds every posting
    string with zero per-term Python.

    Scale guardrails: ``min_df`` drops the long hapax tail and
    ``max_df`` drops ultra-common terms whose posting strings would be
    corpus-sized single rows (a stopword's postings at web scale is
    billions of ids — always cap max_df there; both bounds are exact
    because a term lives wholly in one partition)."""
    from .exchange import bucket_exchange

    def per_bucket(g: pa.Table) -> pa.Table:
        g = g.sort_by([("word", "ascending"), (id_col, "ascending")])
        enc = pc.dictionary_encode(g["word"])
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        if len(codes) == 0:
            return pa.table({"word": pa.array([], type=pa.string()),
                             "df": pa.array([], type=pa.int64()),
                             "postings": pa.array([], type=pa.string())})
        bounds = np.flatnonzero(
            np.concatenate(([True], codes[1:] != codes[:-1])))
        # int64 offsets (LargeListArray): a term bucket whose flat
        # posting count exceeds 2³¹ would silently corrupt int32
        # ListArray offsets at web scale.
        offsets = np.concatenate((bounds, [len(codes)])).astype(np.int64)
        doc_str = pc.cast(g[id_col], pa.string())
        if isinstance(doc_str, pa.ChunkedArray):
            doc_str = doc_str.combine_chunks()
        lists = pa.LargeListArray.from_arrays(pa.array(offsets), doc_str)
        postings = pc.binary_join(lists, ",")
        words = enc.dictionary.take(pa.array(codes[bounds]))
        df = np.diff(offsets).astype(np.int64)
        t = pa.table({"word": words,
                      "df": pa.array(df),
                      "postings": postings})
        mask = df >= min_df
        if max_df is not None:
            mask &= df <= max_df
        return t.filter(pa.array(mask))

    paired = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: _distinct_term_doc_pairs(b, text_col, id_col),
        batch_format="pyarrow", zero_copy_batch=True)
    return bucket_exchange(paired, "word", per_bucket,
                           num_buckets=num_buckets)


def term_search(ds, terms: list[str], *, k: int = 20,
                text_col: str = "text", id_col: str = "doc_id"):
    """IDF-scored term search: rank documents by the summed
    idf of the DISTINCT query terms they contain (BM25's idf spine
    without the tf saturation) and return the exact top-``k`` —
    the retrieval primitive for "which corpus docs match this
    benchmark prompt / query".

    Shape: the corpus side is pruned per block against the broadcast
    query-term set BEFORE anything else (the matched-pair stream is
    query-sized, not corpus-sized); term dfs fold from block partials
    into a terms-scale groupby; idf is integer-scaled
    floor(ln(N/df)·1e6) — bit-exact vs a SQL oracle because both
    sides take the same IEEE double through the same ln; per-doc
    scores need one doc-keyed exchange of the matched pairs only,
    then block-local top-k partials merge on the driver (exact:
    a doc's total lives in one group row). Returns a pandas
    DataFrame (id_col, score) ordered score DESC, id ASC.
    """
    import math

    term_arr = pa.array(sorted(set(terms)), type=pa.string())
    n_docs = ds.count()

    matched = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: _distinct_term_doc_pairs(b, text_col, id_col,
                                           term_filter=term_arr),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    dfs = combine_pandas(matched, ["word"], {"df": ([], "count_all")})
    idf = {w: int(math.floor(math.log(n_docs / d) * 1_000_000))
           for w, d in zip(dfs["word"], dfs["df"])}
    widf = pa.table({"word": pa.array(list(idf)),
                     "_idf": pa.array(list(idf.values()),
                                      type=pa.int64())})

    def score_rows(b: pa.Table) -> pa.Table:
        ix = pc.index_in(b["word"], value_set=widf["word"])
        return pa.table({id_col: b[id_col], "score": widf["_idf"].take(ix)})

    scores = combine(matched.map_batches(score_rows, batch_format="pyarrow",
                                         zero_copy_batch=True),
                     [id_col], {"score": ("score", "sum")})

    def local_topk(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(
            ["score", id_col], ascending=[False, True], kind="mergesort")
        return pa.Table.from_pandas(df.head(k), preserve_index=False)

    parts = scores.map_batches(local_topk, batch_format="pyarrow",
                               zero_copy_batch=True).to_pandas()
    return (parts.sort_values(["score", id_col],
                              ascending=[False, True],
                              kind="mergesort")
                 .head(k).reset_index(drop=True))


def chunk_documents(ds, *, size: int = 128, stride: int = 64,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Overlapping word-window chunking — the RAG-ingestion primitive
    (split every doc into ``size``-word chunks every ``stride`` words
    so retrieval granularity beats whole-doc matching).

    Chunk starts are 0, stride, 2·stride, …; the start sequence runs
    until it reaches or passes n−size, so the final (possibly
    shorter) window always covers the tail — every word is in at
    least one chunk; a doc shorter than ``size`` yields one whole-doc
    chunk. Embarrassingly parallel flat expansion, all
    vectorized: per-row chunk counts → np.repeat row ids, one arange
    subtraction for the start offsets, ListArray slices over the flat
    word values, pc.binary_join to rebuild chunk text. No exchange at
    all — chunking streams.

    Emits (id_col, chunk_idx, start_word, n_words, chunk_text);
    row-scale output (≈ n_words/stride rows per doc), so write it to a
    sink rather than collecting."""
    if stride < 1 or size < 1:
        raise ValueError("size and stride must be >= 1")

    def chunks(b: pa.Table) -> pa.Table:
        words = _words(b[text_col])
        off = words.offsets.to_numpy(zero_copy_only=False) \
                   .astype(np.int64)
        rel = off - off[0]
        flat = words.values[off[0]:off[-1]]
        n = np.diff(rel)                       # words per doc
        last_start = np.maximum(n - size, 0)
        # ceil: the start sequence must REACH last_start or the tail
        # words past the previous window would never be chunked
        n_chunks = -(-last_start // stride) + 1   # >=1 (whole doc)
        rows = np.repeat(np.arange(len(b), dtype=np.int64), n_chunks)
        first = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        cidx = np.arange(len(rows), dtype=np.int64) - first[rows]
        starts = cidx * stride                 # word offset within doc
        abs_start = rel[rows] + starts
        abs_end = np.minimum(abs_start + size, rel[rows] + n[rows])
        # per-chunk slices of the flat word values via one gather
        # (chunks overlap, so ListArray offsets alone can't express
        # them — the take index repeats the overlapped words)
        lens = (abs_end - abs_start).astype(np.int64)
        take_idx = np.repeat(abs_start, lens) + (
            np.arange(int(lens.sum()), dtype=np.int64)
            - np.repeat(np.concatenate(([0],
                                        np.cumsum(lens)[:-1])), lens))
        gathered = flat.take(pa.array(take_idx))
        # int64 offsets: a batch whose flat gathered-word count
        # exceeds 2³¹ would overflow int32 ListArray offsets.
        chunk_off = np.concatenate(
            ([0], np.cumsum(lens))).astype(np.int64)
        lists = pa.LargeListArray.from_arrays(pa.array(chunk_off),
                                              gathered)
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({
            id_col: ids.take(pa.array(rows)),
            "chunk_idx": pa.array(cidx),
            "start_word": pa.array(starts),
            "n_words": pa.array(lens),
            "chunk_text": pc.binary_join(lists, " ")})

    return ds.select_columns([id_col, text_col]).map_batches(
        chunks, batch_format="pyarrow", zero_copy_batch=True)


def source_divergence(ds, *, text_col: str = "text",
                      group_col: str = "source",
                      vocab_size: int = 512):
    """Mixture diagnostics: per-source KL divergence from the corpus
    unigram distribution, restricted to the top-``vocab_size``
    frequency-rank vocabulary (the :func:`vocab_encode` rule:
    count DESC, word ASC) — "which feed's word mix drifts furthest
    from the blend", the signal behind mixture rebalancing decisions.

    Integer-exact despite the logs: each term is
    c_sw · floor(ln((c_sw·T)/(C_s·c_w))·1e6) — the log argument is a
    quotient of exact-int float64 products, identical bit-for-bit on
    the SQL side, and the OUTER sum is int64, so summation order can't
    perturb the result (the usual float-sum hash hazard).

    Shape: pass 1 the standard vocabulary-scale count exchange for the
    top-V vocab; pass 2 re-counts (source, word∈V) with the vocab
    filter applied per block BEFORE the exchange, so the second
    exchange is sources×V-bounded. The final KL arithmetic runs on a
    sources×V driver table. Returns a pandas DataFrame
    (group_col, n_words, kl_units) sorted by group."""
    top = (word_counts(ds, text_col)
           .sort(["n", "word"], descending=[True, False])
           .limit(vocab_size).to_pandas())
    vocab = pa.array(top["word"], type=pa.string())

    def group_words(b: pa.Table) -> pa.Table:
        words = _words(b[text_col])
        off = words.offsets.to_numpy(zero_copy_only=False) \
                   .astype(np.int64)
        flat = words.values[off[0]:off[-1]]
        rows = np.repeat(np.arange(len(b), dtype=np.int64),
                         np.diff(off - off[0]))
        m = pc.is_in(flat, value_set=vocab)
        mv = m.to_numpy(zero_copy_only=False)
        grp = b[group_col]
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        return pa.table({group_col: grp.take(pa.array(rows[mv])),
                         "word": flat.filter(m)})

    sv = combine_pandas(ds.map_batches(group_words, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        [group_col, "word"], {"n": ([], "count_all")})

    n = sv["n"].to_numpy(dtype=np.int64)
    cs = sv.groupby(group_col)["n"].transform("sum") \
           .to_numpy(dtype=np.int64)
    cw = sv.groupby("word")["n"].transform("sum") \
           .to_numpy(dtype=np.int64)
    tot = int(n.sum())
    term = np.floor(np.log((n.astype(np.float64) * tot)
                           / (cs.astype(np.float64) * cw))
                    * 1_000_000).astype(np.int64)
    sv = sv.assign(_t=n * term)
    out = (sv.groupby(group_col)
             .agg(n_words=("n", "sum"), kl_units=("_t", "sum"))
             .reset_index())
    out["n_words"] = out["n_words"].astype("int64")
    out["kl_units"] = out["kl_units"].astype("int64")
    return out.sort_values(group_col, ignore_index=True)
