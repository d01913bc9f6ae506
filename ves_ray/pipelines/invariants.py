"""Machine-checked invariants for the rows-only catalog entries.

13 ``queries()`` entries have no SQL oracle (sketches, ANN, model-
style scoring, engine hashes, block-level packing, binary codecs).
Each gets an invariant checked INSIDE the query callable: its row of
the catalog table (``queries.CATALOG``) carries an ``Invariant``, one
of the checks below and its one-line claim. A check is a property
strong enough that a wrong implementation trips it, computed by an
independent route (pure-Python recompute, exact counterpart pipeline,
or conservation law) rather than by re-running the same kernel:

- sketches  → estimate within the sketch's error bound of the EXACT
  count computed by a separate exact pipeline;
- ANN       → recall@k vs the exact brute-force top-k above a
  measured floor, and every reported score re-derived exactly from
  the raw embeddings;
- packing   → token conservation (Σ pack fills == Σ input tokens);
- dedup     → pure-Python set/union-find recompute on samples plus
  identical-text completeness;
- codecs    → decode output reconciled against the synthesized
  payload parameters through an independent aggregation.

``VES_CHECK_INVARIANTS=0`` disables the checks (bench.py sets it so
per-query timings stay comparable across rounds; conformance sweeps
leave it on and record ``rows_only+invariant``).
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa


def enabled() -> bool:
    return os.environ.get("VES_CHECK_INVARIANTS", "1") != "0"


def _fail(name: str, msg: str):
    raise AssertionError(f"invariant violated [{name}]: {msg}")


def _to_pandas(obj) -> pd.DataFrame:
    import ray.data
    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


class Invariant(NamedTuple):
    """A rows-only catalog entry's check: ``check(out, sf_dir)`` raises
    AssertionError on a violation; ``claim`` is the one-line property
    the conformance harness records."""
    check: Callable[[pd.DataFrame, str], None]
    claim: str


def with_invariant(name: str, fn, check):
    """Wrap a query callable so ``check`` runs on every call (unless
    disabled). The result is returned unchanged; Dataset results are
    checked on a pandas copy."""
    def wrapped(sf_dir: str):
        out = fn(sf_dir)
        if enabled():
            check(_to_pandas(out), sf_dir)
        return out
    wrapped.__name__ = f"q_{name}_with_invariant"
    wrapped.__doc__ = fn.__doc__
    return wrapped


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _distinct_hashes(ds, col: str) -> set[int]:
    """Exact distinct 64-bit hashes of a string column — block-local
    distinct partials, set-union on the driver (distinct-scale)."""
    from ..hashing import hash_strings

    def local(b: pa.Table) -> pa.Table:
        c = b[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        h = np.unique(hash_strings(c, seed=0x1A))
        return pa.table({"h": pa.array(h.astype(np.int64))})

    parts = ds.map_batches(local, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    return set(parts["h"].tolist())


def _py_shingles(text: str, n: int = 3) -> set[tuple[str, ...]]:
    """Pure-Python word n-gram shingle set with the engine's clamp
    rule (documents shorter than n words contribute one shingle whose
    tail repeats the last word — dedup._word_shingle_hashes)."""
    words = re.split(r"\s+", text.lower())
    length = len(words)
    m = max(length - (n - 1), min(length, 1))
    return {tuple(words[min(i + k, length - 1)] for k in range(n))
            for i in range(m)}


def _identical_text_groups(sf_dir: str) -> list[list[int]]:
    """doc_id groups sharing identical text (driver-side only for the
    duplicated hashes — duplicate groups are tiny by construction)."""
    from ..hashing import hash_strings
    from .queries import _read

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def local(b: pa.Table) -> pa.Table:
        c = b["text"]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        h = hash_strings(c, seed=0x1A).astype(np.int64)
        return pa.table({"doc_id": b["doc_id"], "h": pa.array(h)})

    df = ds.map_batches(local, batch_format="pyarrow",
                        zero_copy_batch=True).to_pandas()
    dup = df[df.duplicated("h", keep=False)]
    return [sorted(g["doc_id"].tolist())
            for _, g in dup.groupby("h") if len(g) > 1]


def _doc_texts(sf_dir: str, ids: set[int]) -> dict[int, str]:
    import pyarrow.compute as pc

    from .queries import _read
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    wanted = pa.array(sorted(ids), type=pa.int64())

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["doc_id"], value_set=wanted))

    sub = ds.map_batches(keep, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    return dict(zip(sub["doc_id"], sub["text"]))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_users_approx_distinct(out: pd.DataFrame, sf_dir: str):
    """HLL(p=12, σ≈1.6%) estimate within 10% (≥10 abs) of the exact
    per-group distinct count computed by an exact pipeline."""
    from .queries import _read
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def local(b: pa.Table) -> pa.Table:
        df = b.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = ds.map_batches(local, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas() \
        .drop_duplicates()
    exact = pairs.groupby("event_type")["user_id"].nunique()
    got = dict(zip(out["event_type"], out["approx_distinct"]))
    if set(got) != set(exact.index):
        _fail("users_approx_distinct",
              f"group sets differ: {sorted(got)} vs {sorted(exact.index)}")
    for g, ex in exact.items():
        est = got[g]
        if abs(est - ex) > max(0.10 * ex, 10):
            _fail("users_approx_distinct",
                  f"group {g!r}: estimate {est} vs exact {ex} "
                  "outside 10% HLL bound")


def check_lang_id(out: pd.DataFrame, sf_dir: str):
    """One row per doc; predictions drawn from the model's label set;
    confidences in [0, 1]."""
    from ..stages.textstats import STOPWORDS
    from .queries import _read
    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()
    if len(out) != n_docs or not out["doc_id"].is_unique:
        _fail("lang_id", f"{len(out)} rows for {n_docs} docs")
    allowed = set(STOPWORDS) | {"und"}
    bad = set(out["lang_pred"]) - allowed
    if bad:
        _fail("lang_id", f"labels outside model set: {bad}")
    conf = out["lang_conf"].to_numpy()
    if not ((conf >= 0.0) & (conf <= 1.0)).all():
        _fail("lang_id", "confidence outside [0, 1]")


def check_fingerprints(out: pd.DataFrame, sf_dir: str):
    """Fingerprint is a pure function of text: distinct fingerprints
    == distinct texts (64-bit collisions negligible and the corpus is
    deterministic), one row per doc."""
    from .queries import _read
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()
    if len(out) != n_docs or not out["doc_id"].is_unique:
        _fail("fingerprints", f"{len(out)} rows for {n_docs} docs")
    n_texts = len(_distinct_hashes(ds, "text"))
    n_fp = out["fingerprint"].nunique()
    if n_fp != n_texts:
        _fail("fingerprints",
              f"{n_fp} distinct fingerprints vs {n_texts} distinct texts")


def check_minhash_pairs(out: pd.DataFrame, sf_dir: str):
    """All reported pairs ordered, unique, jaccard ∈ [0.5, 1]; a
    deterministic sample of reported values re-derived with a pure-
    Python shingle-set recompute; every identical-text pair present
    with jaccard 1.0 (identical signatures collide in every band)."""
    if len(out) and not (out["doc_a"] < out["doc_b"]).all():
        _fail("minhash_pairs", "pair not ordered doc_a < doc_b")
    if out.duplicated(["doc_a", "doc_b"]).any():
        _fail("minhash_pairs", "duplicate pairs")
    j = out["jaccard"].to_numpy()
    if len(out) and not ((j >= 0.5) & (j <= 1.0)).all():
        _fail("minhash_pairs", "jaccard outside [0.5, 1]")
    sample = out.sort_values(["doc_a", "doc_b"]).head(40)
    ids = set(sample["doc_a"]) | set(sample["doc_b"])
    texts = _doc_texts(sf_dir, ids)
    for _, r in sample.iterrows():
        a = _py_shingles(texts[int(r["doc_a"])])
        b = _py_shingles(texts[int(r["doc_b"])])
        exact = len(a & b) / len(a | b)
        if abs(exact - float(r["jaccard"])) > 5e-7:
            _fail("minhash_pairs",
                  f"pair ({r['doc_a']}, {r['doc_b']}): reported "
                  f"{r['jaccard']} vs pure-Python {exact:.7f}")
    have = set(zip(out["doc_a"], out["doc_b"]))
    for grp in _identical_text_groups(sf_dir):
        for i, a in enumerate(grp):
            for b in grp[i + 1:]:
                if (a, b) not in have:
                    _fail("minhash_pairs",
                          f"identical-text pair ({a}, {b}) missing")


def check_simhash_pairs(out: pd.DataFrame, sf_dir: str):
    """Hamming within threshold, pairs ordered and unique, and every
    identical-text pair reported with hamming 0 (identical simhashes
    share every band bucket)."""
    if len(out):
        h = out["hamming"].to_numpy()
        if not ((h >= 0) & (h <= 3)).all():
            _fail("simhash_pairs", "hamming outside [0, 3]")
        if not (out["doc_a"] < out["doc_b"]).all():
            _fail("simhash_pairs", "pair not ordered")
        if out.duplicated(["doc_a", "doc_b"]).any():
            _fail("simhash_pairs", "duplicate pairs")
    have = dict(zip(zip(out["doc_a"], out["doc_b"]), out["hamming"])) \
        if len(out) else {}
    for grp in _identical_text_groups(sf_dir):
        for i, a in enumerate(grp):
            for b in grp[i + 1:]:
                if have.get((a, b)) != 0:
                    _fail("simhash_pairs",
                          f"identical-text pair ({a}, {b}) absent or "
                          f"hamming != 0 (got {have.get((a, b))})")


def check_dedup_keep_minhash(out: pd.DataFrame, sf_dir: str):
    """Kept set ⊆ corpus, unique, non-empty; AT MOST one survivor per
    identical-text group (identical docs always form a verified
    cluster, so two surviving would mean the dedup missed them; zero
    surviving is legal — the group can sit inside a larger near-dup
    cluster whose keep-min survivor is another doc, observed at
    sf0.1: {1910, 1917, 3562} keeps 1910); if one survives it must be
    the group minimum (keep-first rule)."""
    from .queries import _read
    ids = _read(sf_dir, "documents", ["doc_id"]).to_pandas()["doc_id"]
    corpus = set(ids)
    kept = set(out["doc_id"])
    if not out["doc_id"].is_unique or not kept <= corpus or not kept:
        _fail("dedup_keep_minhash",
              "kept ids duplicated, empty, or not in corpus")
    for grp in _identical_text_groups(sf_dir):
        survivors = kept & set(grp)
        if len(survivors) > 1:
            _fail("dedup_keep_minhash",
                  f"identical-text group {grp}: {sorted(survivors)} "
                  "all kept — duplicates survived")
        if survivors and survivors != {min(grp)}:
            _fail("dedup_keep_minhash",
                  f"identical-text group {grp}: kept "
                  f"{sorted(survivors)}, not the group minimum")


def check_pack_sequences(out: pd.DataFrame, sf_dir: str):
    """Token conservation: Σ pack fills == Σ input tokens (concat
    mode, drop_tail=False loses nothing); every pack ≤ max_len with
    ≥1 doc; pack_ids unique."""
    from ..sources.sequences import documents_as_sequences
    from ..stages.aggregate import combine_pandas
    total_in = combine_pandas(documents_as_sequences(sf_dir), [],
                              {"s": ("n_tok", "sum")})["s"].iloc[0]
    total_out = int(out["n_tok"].sum())
    if total_out != int(total_in):
        _fail("pack_sequences",
              f"token conservation broken: packs {total_out} vs "
              f"input {total_in}")
    if not ((out["n_tok"] >= 1) & (out["n_tok"] <= 512)).all():
        _fail("pack_sequences", "pack fill outside [1, max_len]")
    if not (out["n_docs"] >= 1).all():
        _fail("pack_sequences", "pack with no docs")
    if not out["pack_id"].is_unique:
        _fail("pack_sequences", "pack_id not unique")


def check_media_stats(out: pd.DataFrame, sf_dir: str):
    """Decode round-trip reconciliation: per-source media counts and
    width sums must equal the values implied by the synthesized
    payload parameters (width = 16 + n_chars % 16), recomputed from
    the documents table WITHOUT going through the codec."""
    from .queries import _read
    df = _read(sf_dir, "documents", ["source", "n_chars"]).to_pandas()
    df["px"] = 16 + (df["n_chars"] % 16)
    exp = df.groupby("source").agg(n_media=("px", "size"),
                                   width_sum=("px", "sum")).reset_index()
    got = out.sort_values("source", ignore_index=True)
    exp = exp.sort_values("source", ignore_index=True)
    if (got["source"].tolist() != exp["source"].tolist()
            or got["n_media"].tolist() != exp["n_media"].tolist()
            or got["width_sum"].tolist() != exp["width_sum"].tolist()):
        _fail("media_stats",
              f"decode aggregate mismatch:\n{got}\nvs expected\n{exp}")


def _check_ann(name: str, out: pd.DataFrame, sf_dir: str,
               recall_floor: float):
    """Shared ANN invariant: (a) per-query results are ranked by
    cos_sim descending with ranks 1..k; (b) every reported cos_sim is
    re-derived exactly (±5e-7 after rounding) from the raw embeddings;
    (c) recall@k vs the exact brute-force top-k ≥ the measured floor."""
    import pyarrow.compute as pc

    from ..stages.similarity import brute_force_topk
    from .queries import TOPK, _query_matrix, _read

    q = _query_matrix(sf_dir)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    ids = set(out["vec_id"])
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    wanted = pa.array(sorted(ids), type=pa.int64())

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["vec_id"], value_set=wanted))

    sub = ds.map_batches(keep, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    emb = {int(i): np.asarray(v, dtype=np.float64)
           for i, v in zip(sub["vec_id"], sub["embedding"])}
    for qi, g in out.groupby("query_id"):
        g = g.sort_values("rank")
        if g["rank"].tolist() != list(range(1, len(g) + 1)):
            _fail(name, f"query {qi}: ranks not 1..k")
        sims = g["cos_sim"].to_numpy()
        if (np.diff(sims) > 1e-12).any():
            _fail(name, f"query {qi}: cos_sim not descending")
        for _, r in g.iterrows():
            v = emb[int(r["vec_id"])]
            exact = float(qn[int(qi)] @ (v / max(np.linalg.norm(v),
                                                 1e-30)))
            if abs(round(exact, 6) - float(r["cos_sim"])) > 5e-7:
                _fail(name, f"query {qi} vec {r['vec_id']}: reported "
                            f"{r['cos_sim']} vs exact {exact:.7f}")
    exact_top = brute_force_topk(ds, q, k=TOPK)
    total = 0.0
    nq = exact_top["query_id"].nunique()
    for qi, eg in exact_top.groupby("query_id"):
        e = set(eg["vec_id"])
        g = set(out.loc[out["query_id"] == qi, "vec_id"])
        total += len(e & g) / len(e)
    recall = total / nq
    if recall < recall_floor:
        _fail(name, f"recall@{TOPK} {recall:.3f} below floor "
                    f"{recall_floor} vs brute force")


def check_ann_lsh_topk(out, sf_dir):
    _check_ann("ann_lsh_topk", out, sf_dir, recall_floor=0.08)


def check_ann_lsh_indexed(out, sf_dir):
    _check_ann("ann_lsh_indexed", out, sf_dir, recall_floor=0.08)


def check_ann_ivf_topk(out, sf_dir):
    _check_ann("ann_ivf_topk", out, sf_dir, recall_floor=0.5)


def check_ann_ivf_indexed(out, sf_dir):
    _check_ann("ann_ivf_indexed", out, sf_dir, recall_floor=0.5)


def check_embedding_clusters(out: pd.DataFrame, sf_dir: str):
    """Every corpus vector assigned exactly once to a cluster in
    range; a deterministic sample's assignments re-derived from the
    final centroids is checked INSIDE q_embedding_clusters (which
    holds the centroids)."""
    from .queries import _read
    ids = _read(sf_dir, "embeddings", ["vec_id"]).to_pandas()["vec_id"]
    if len(out) != len(ids) or not out["vec_id"].is_unique:
        _fail("embedding_clusters",
              f"{len(out)} assignments for {len(ids)} vectors")
    if set(out["vec_id"]) != set(ids):
        _fail("embedding_clusters", "vec_id coverage differs from corpus")
    c = out["cluster"].to_numpy()
    if not ((c >= 0) & (c < 8)).all():
        _fail("embedding_clusters", "cluster id outside [0, 8)")
