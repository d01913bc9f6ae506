"""Similarity search over embedding columns (``list<float>``).

Baseline: brute-force cosine top-k — the query matrix is broadcast
once (``ray.put``), each ``map_batches`` task does one numpy matmul
against its batch and emits only its LOCAL top-k per query; the driver
merges the tiny per-batch top-k partials. Data moved to the driver is
O(queries × k × batches), never the corpus.

Scale path: random-hyperplane LSH bucketing — corpus and queries get
bucket keys from the SAME seeded hyperplanes; search touches only the
query's bucket (plus optional multi-probe neighbors).

Embedding cosine near-dup: pairs with cosine ≥ threshold inside
blocking buckets (label or LSH key) — never all-pairs over the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .aggregate import combine, combine_pandas
from .exchange import exchange_groups


def _batch_matrix(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    dim = len(col[0]) if len(col) else 0
    if pa.types.is_fixed_size_list(col.type):
        flat = col.values.to_numpy(zero_copy_only=False)
        return flat.reshape(len(col), col.type.list_size).astype(np.float64)
    off = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = col.values.to_numpy(zero_copy_only=False)[off[0]:off[-1]]
    return flat.reshape(len(col), dim).astype(np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-30)


def brute_force_topk(ds, queries: np.ndarray, *, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     round_to: int | None = 6) -> pd.DataFrame:
    """Exact cosine top-k for each query row. Returns
    (query_id, vec_id, cos_sim, rank); ties broken by vec_id ascending
    so results are deterministic."""
    import ray

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(qn)

    def local_topk(batch: pa.Table) -> pa.Table:
        # Ray Data never calls a batch function on an empty block (an
        # upstream filter may drain one): it passes the block through
        q = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch[vec_col]))
        sims = q @ m.T                                    # (Q, B)
        kk = min(k, sims.shape[1])
        # local top-k per query, fully vectorized: argpartition picks
        # the k candidates, fancy indexing gathers them for all
        # queries at once (no Python loop over Q×k entries)
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        qi = np.repeat(np.arange(sims.shape[0], dtype=np.int64), kk)
        j = part.ravel()
        return pa.table({"query_id": qi, id_col: batch[id_col].take(j),
                         "cos_sim": sims[qi, j]})

    partials = ds.map_batches(local_topk, batch_format="pyarrow",
                              zero_copy_batch=True).to_pandas()
    # driver merge of O(Q·k·blocks) partials: one vectorized sort +
    # per-query head(k); ties broken by id ascending (deterministic)
    top = (partials.sort_values(["query_id", "cos_sim", id_col],
                                ascending=[True, False, True],
                                kind="mergesort")
           .groupby("query_id", sort=False).head(k).reset_index(drop=True))
    top["rank"] = top.groupby("query_id", sort=False).cumcount() + 1
    if round_to is not None:
        top["cos_sim"] = top["cos_sim"].round(round_to)
    return top.astype({"query_id": "int64", "rank": "int64"})


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (the 100 TB path)
# ---------------------------------------------------------------------------

def make_hyperplanes(dim: int, n_planes: int = 12, seed: int = 0xA11) -> np.ndarray:
    """Deterministic random hyperplanes (Box–Muller over splitmix64
    streams — no RNG state)."""
    from ..hashing import U64, hash2, splitmix64
    n = dim * n_planes
    i = np.arange(n, dtype=np.uint64)
    u1 = (hash2(splitmix64(np.uint64(seed)), i).astype(np.float64) + 1) / (2.0**64 + 2)
    u2 = (hash2(splitmix64(np.uint64(seed ^ 0xFF)), i).astype(np.float64) + 1) / (2.0**64 + 2)
    z = np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)
    return z.reshape(n_planes, dim)


def lsh_bucket_batch(batch: pa.Table, planes: np.ndarray, *,
                     vec_col: str = "embedding") -> pa.Table:
    """Append ``bucket:int64`` — the sign pattern of the embedding
    against the shared hyperplanes."""
    m = _batch_matrix(batch[vec_col])
    signs = (m @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0])).astype(np.int64)
    bucket = signs.astype(np.int64) @ weights
    return batch.append_column("bucket", pa.array(bucket))


def expand_probe_buckets(buckets, n_planes: int,
                         multi_probe: int = 0) -> set[int]:
    """Multi-probe ring expansion: the query buckets plus every bucket
    within Hamming distance ``multi_probe`` of one (bit flips of the
    sign key). Radius 1 adds ≤ n_planes buckets per query — near-miss
    sign flips (the dominant LSH failure mode for vectors close to a
    hyperplane) land there, multiplying recall at small extra read
    cost."""
    out = set(int(b) for b in buckets)
    frontier = set(out)
    for _ in range(max(0, multi_probe)):
        nxt = {b ^ (1 << i) for b in frontier for i in range(n_planes)}
        nxt -= out
        out |= nxt
        frontier = nxt
    return out


def lsh_topk(ds, queries: np.ndarray, *, k: int = 10, n_planes: int = 8,
             id_col: str = "vec_id", vec_col: str = "embedding",
             seed: int = 0xA11, multi_probe: int = 0) -> pd.DataFrame:
    """ANN top-k: search only the corpus bucket matching each query's
    LSH key, plus the Hamming-``multi_probe`` probe ring
    (:func:`expand_probe_buckets`). Recall < 1.0 by design; raise
    n_planes→smaller buckets, lower (or raise multi_probe)→higher
    recall. Bucketing is one narrow map_batches; the filtered search
    reuses brute_force_topk on the matching rows."""
    q = np.asarray(queries, dtype=np.float64)
    planes = make_hyperplanes(q.shape[1], n_planes, seed)
    bucketed = ds.map_batches(
        lambda b: lsh_bucket_batch(b, planes, vec_col=vec_col),
        batch_format="pyarrow", zero_copy_batch=True)
    q_signs = (q @ planes.T) > 0
    weights = (1 << np.arange(n_planes)).astype(np.int64)
    q_buckets = q_signs.astype(np.int64) @ weights
    wanted = pa.array(sorted(expand_probe_buckets(q_buckets, n_planes,
                                                  multi_probe)),
                      type=pa.int64())

    def keep_buckets(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.is_in(batch["bucket"], value_set=wanted))

    sub = bucketed.map_batches(keep_buckets, batch_format="pyarrow",
                               zero_copy_batch=True)
    return brute_force_topk(sub, q, k=k, id_col=id_col, vec_col=vec_col)


# ---------------------------------------------------------------------------
# IVF-bucketed ANN (the other scale path: data-adaptive partitions)
# ---------------------------------------------------------------------------

def train_centroids(ds, *, n_centroids: int = 16, sample_rows: int = 2048,
                    iters: int = 5, vec_col: str = "embedding",
                    seed: int = 0x1F) -> np.ndarray:
    """Deterministic k-means-lite over a UNIFORM corpus sample
    (``ds.random_sample`` with a fixed seed — first-rows ``limit``
    would bias centroids toward whatever the leading fragments hold).
    Only the tiny sample reaches the driver. Init = seeded hash pick;
    fixed Lloyd iterations for reproducibility; empty clusters
    re-seeded."""
    n = ds.count()
    frac = min(1.0, (sample_rows * 1.3) / max(n, 1))
    sampled = ds.random_sample(frac, seed=seed) if frac < 1.0 else ds
    sample = sampled.limit(sample_rows).to_pandas()
    m = _normalize(np.stack(sample[vec_col].to_numpy()).astype(np.float64))
    from ..hashing import hash2, splitmix64
    order = np.argsort(hash2(splitmix64(np.uint64(seed)),
                             np.arange(len(m), dtype=np.uint64)))
    c = m[order[:n_centroids]].copy()
    for _ in range(iters):
        assign = np.argmax(m @ c.T, axis=1)
        for j in range(n_centroids):
            members = m[assign == j]
            c[j] = members.mean(axis=0) if len(members) else m[order[j % len(m)]]
        c = _normalize(c)
    return c


def ivf_assign_batch(batch: pa.Table, centroids: np.ndarray, *,
                     vec_col: str = "embedding") -> pa.Table:
    """Append ``cell:int32`` — nearest-centroid id (the IVF inverted-
    list key; at scale this is the partition/bucket column the corpus
    is written under so probes read only matching partitions)."""
    m = _normalize(_batch_matrix(batch[vec_col]))
    cell = np.argmax(m @ centroids.T, axis=1).astype(np.int32)
    return batch.append_column("cell", pa.array(cell))


def ivf_topk(ds, queries: np.ndarray, *, k: int = 10, n_centroids: int = 16,
             nprobe: int = 4, id_col: str = "vec_id",
             vec_col: str = "embedding", seed: int = 0x1F) -> pd.DataFrame:
    """IVF ANN top-k: assign corpus rows to coarse cells once, search
    only each query's ``nprobe`` nearest cells. Recall < 1 by design;
    raise nprobe → exact. The cell filter runs inside map_batches so
    non-probed rows never leave their block."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    cents = train_centroids(ds, n_centroids=n_centroids, vec_col=vec_col,
                            seed=seed)
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]
    wanted = pa.array(sorted({int(c) for row in probe for c in row}),
                      type=pa.int32())

    def keep_cells(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = ivf_assign_batch(batch, cents, vec_col=vec_col)
        return b.filter(pc.is_in(b["cell"], value_set=wanted))

    sub = ds.map_batches(keep_cells, batch_format="pyarrow",
                         zero_copy_batch=True)
    return brute_force_topk(sub, q, k=k, id_col=id_col, vec_col=vec_col)


def build_ivf_index(ds, index_dir: str, *, n_centroids: int = 16,
                    vec_col: str = "embedding", seed: int = 0x1F,
                    sample_rows: int = 2048, filesystem=None) -> np.ndarray:
    """Persist an IVF index: the corpus written ONCE partitioned by
    ``cell`` (hive layout, one directory per inverted list) with the
    trained centroids stored beside it. This is the 100 TB ANN shape —
    index build is a single streaming pass; every subsequent query
    reads only its ``nprobe`` cell partitions instead of re-scanning
    and re-bucketing the corpus per query. ``index_dir`` resolves
    through the ``state.fs`` seam (URI or explicit ``filesystem=``) so
    the layout can live on shared/object storage."""
    import pyarrow.parquet as pq

    from ..state import fs as vfs

    f, root = vfs.resolve_fs(index_dir, filesystem)
    cents = train_centroids(ds, n_centroids=n_centroids, vec_col=vec_col,
                            seed=seed, sample_rows=sample_rows)
    assigned = ds.map_batches(
        lambda b: ivf_assign_batch(b, cents, vec_col=vec_col),
        batch_format="pyarrow", zero_copy_batch=True)
    assigned.write_parquet(vfs.join(root, "cells"), filesystem=f,
                           partition_cols=["cell"])
    pq.write_table(pa.table({
        "cell": pa.array(np.arange(len(cents), dtype=np.int32)),
        "centroid": pa.array(list(cents), type=pa.list_(pa.float64())),
    }), vfs.join(root, "centroids.parquet"), filesystem=f)
    return cents


def ivf_topk_indexed(index_dir: str, queries: np.ndarray, *, k: int = 10,
                     nprobe: int = 4, id_col: str = "vec_id",
                     vec_col: str = "embedding",
                     filesystem=None) -> pd.DataFrame:
    """Probe a persisted IVF index: load centroids, pick each query's
    ``nprobe`` nearest cells, and read ONLY those cell partitions (the
    hive-partition filter prunes directories at the read — non-probed
    cells never leave storage). ``index_dir``/``filesystem`` resolve
    through the ``state.fs`` seam, matching :func:`build_ivf_index`."""
    import pyarrow.parquet as pq
    from ray.data.datasource.partitioning import PathPartitionFilter

    from ..sources.sequences import read_parquet_sized
    from ..state import fs as vfs

    f, root = vfs.resolve_fs(index_dir, filesystem)
    ct = pq.read_table(vfs.join(root, "centroids.parquet"), filesystem=f)
    order = np.argsort(ct["cell"].to_numpy())
    cents = np.stack([np.asarray(v, dtype=np.float64)
                      for v in ct["centroid"].to_pylist()])[order]
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]
    wanted = {int(c) for row in probe for c in row}
    # directory-level pruning: non-probed cell partitions are filtered
    # out at path-resolution time and never read
    pf = PathPartitionFilter.of(lambda p: int(p["cell"]) in wanted,
                                style="hive")
    sub = read_parquet_sized(vfs.join(root, "cells"), filesystem=f,
                             partition_filter=pf, columns=[id_col, vec_col])
    return brute_force_topk(sub, q, k=k, id_col=id_col, vec_col=vec_col)


def embedding_neardup_pairs(ds, *, threshold: float = 0.99,
                            block_col: str = "label",
                            id_col: str = "vec_id", vec_col: str = "embedding",
                            round_to: int | None = 6):
    """Cosine near-dup pairs within blocking groups: ``exchange_groups``
    on block_col co-locates each block, the per-group matmul finds pairs ≥
    threshold. Block key choice (label / LSH bucket) bounds group size;
    no corpus-wide all-pairs."""
    def pairs(g: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(g[vec_col]))
        ids = g[id_col].to_numpy()
        sims = m @ m.T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = sims[ii, jj] >= threshold
        s = sims[ii[keep], jj[keep]]
        if round_to is not None:
            s = np.round(s, round_to)
        a, b = ids[ii[keep]], ids[jj[keep]]
        return pa.table({"vec_a": np.minimum(a, b), "vec_b": np.maximum(a, b),
                         "cos_sim": s})

    return exchange_groups(ds, block_col, pairs)


def grouped_centroids(ds, *, label_col: str = "label",
                      vec_col: str = "embedding"):
    """Vector aggregate: per-label element-wise sum + count in exploded
    long form ``(label, i, s, n)`` (i is 1-based dimension index).
    Centroid = s/n downstream; emitting the exact sums keeps the result
    SQL-verifiable without float-average ordering hazards.

    Scale shape: block-local partial sums collapse each block to
    O(labels × dim) rows before the one small ``groupby`` exchange —
    the vector analogue of aggregate.grouped_counts. Assumes fixed
    dimension across rows (validated per block)."""
    def partial(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table({label_col: pa.array([], type=pa.int64()),
                             "i": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.float64()),
                             "n": pa.array([], type=pa.int64())})
        m = _batch_matrix(b[vec_col])
        labels = b[label_col]
        if isinstance(labels, pa.ChunkedArray):
            labels = labels.combine_chunks()
        lab = labels.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, m)
        counts = np.bincount(inv, minlength=len(uniq))
        d = m.shape[1]
        return pa.table({
            label_col: pa.array(np.repeat(uniq, d), type=pa.int64()),
            "i": pa.array(np.tile(np.arange(1, d + 1), len(uniq)),
                          type=pa.int64()),
            "s": pa.array(sums.ravel(), type=pa.float64()),
            "n": pa.array(np.repeat(counts, d), type=pa.int64()),
        })

    return combine(ds.map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True),
                   [label_col, "i"], {"s": ("s", "sum"), "n": ("n", "sum")})


def build_lsh_index(ds, index_dir: str, *, n_planes: int = 8,
                    vec_col: str = "embedding", seed: int = 0xA11,
                    dim: int | None = None, filesystem=None) -> np.ndarray:
    """Persist an LSH index: the corpus written ONCE partitioned by
    sign-``bucket`` (hive layout) with the hyperplanes stored beside
    it — the LSH counterpart of :func:`build_ivf_index`, replacing the
    per-query re-scan+re-bucket of :func:`lsh_topk`. One streaming
    pass to build; queries read only their matching bucket
    partitions. ``index_dir`` resolves through the ``state.fs`` seam
    (URI or explicit ``filesystem=``) for shared/object storage."""
    import pyarrow.parquet as pq

    from ..state import fs as vfs

    f, root = vfs.resolve_fs(index_dir, filesystem)
    if dim is None:
        first = ds.take(1)[0][vec_col]
        dim = len(first)
    planes = make_hyperplanes(dim, n_planes, seed)
    bucketed = ds.map_batches(
        lambda b: lsh_bucket_batch(b, planes, vec_col=vec_col),
        batch_format="pyarrow", zero_copy_batch=True)
    bucketed.write_parquet(vfs.join(root, "buckets"), filesystem=f,
                           partition_cols=["bucket"])
    pq.write_table(pa.table({
        "plane": pa.array(np.arange(n_planes, dtype=np.int32)),
        "normal": pa.array(list(planes), type=pa.list_(pa.float64())),
    }), vfs.join(root, "planes.parquet"), filesystem=f)
    return planes


def lsh_topk_indexed(index_dir: str, queries: np.ndarray, *, k: int = 10,
                     id_col: str = "vec_id", vec_col: str = "embedding",
                     multi_probe: int = 0,
                     filesystem=None) -> pd.DataFrame:
    """Probe a persisted LSH index: bucket each query with the stored
    hyperplanes and read ONLY the matching bucket partitions plus the
    Hamming-``multi_probe`` probe ring (directory-level pruning, as in
    :func:`ivf_topk_indexed` — extra probes cost extra partition
    reads, never a rescan). ``index_dir``/``filesystem`` resolve
    through the ``state.fs`` seam, matching :func:`build_lsh_index`."""
    import pyarrow.parquet as pq
    from ray.data.datasource.partitioning import PathPartitionFilter

    from ..sources.sequences import read_parquet_sized
    from ..state import fs as vfs

    f, root = vfs.resolve_fs(index_dir, filesystem)
    pt = pq.read_table(vfs.join(root, "planes.parquet"), filesystem=f)
    order = np.argsort(pt["plane"].to_numpy())
    planes = np.stack([np.asarray(v, dtype=np.float64)
                       for v in pt["normal"].to_pylist()])[order]
    q = np.asarray(queries, dtype=np.float64)
    signs = (q @ planes.T) > 0
    n_planes = planes.shape[0]
    weights = (1 << np.arange(n_planes)).astype(np.int64)
    wanted = expand_probe_buckets(signs.astype(np.int64) @ weights,
                                  n_planes, multi_probe)
    pf = PathPartitionFilter.of(lambda p: int(p["bucket"]) in wanted,
                                style="hive")
    sub = read_parquet_sized(vfs.join(root, "buckets"), filesystem=f,
                             partition_filter=pf, columns=[id_col, vec_col])
    return brute_force_topk(sub, q, k=k, id_col=id_col, vec_col=vec_col)


def kmeans_distributed(ds, *, n_clusters: int = 8, iters: int = 5,
                       vec_col: str = "embedding", id_col: str = "vec_id",
                       seed: int = 0x1F):
    """Distributed spherical k-means (Lloyd, fixed iterations for
    reproducibility): the full-corpus counterpart of the sample-based
    :func:`train_centroids` used by IVF.

    Iteration shape for 100 TB: the (id, normalized-vec) working set is
    materialized ONCE (iterative algorithms legitimately cache their
    input — re-reading parquet ``iters`` times would dominate);
    centroids broadcast via ``ray.put`` each round; every block folds
    to an O(n_clusters × dim) partial (assign = one matmul, per-cell
    sums via ``np.add.at``), and partials combine on the DRIVER —
    per-iteration cost is one map pass plus a centroids-sized
    collect, NO all-to-all exchange ever. Empty clusters keep their
    previous centroid. Returns ``(assignments Dataset (id, cluster),
    centroids ndarray)``."""
    import ray

    def prep(b: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(b[vec_col]))
        return pa.table({
            id_col: b[id_col],
            vec_col: pa.array(list(m), type=pa.list_(pa.float64()))})

    work = ds.select_columns([id_col, vec_col]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True).materialize()

    # init = the n_clusters rows with the smallest seeded hash of their
    # ID — a pure function of the data, so identical regardless of
    # block order/parallelism (position-based picks are not). Each
    # block contributes its local bottom-k; the driver merge is
    # O(blocks × k).
    from ..hashing import hash2, splitmix64

    def local_bottomk(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        iv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        h = hash2(splitmix64(np.uint64(seed)), iv.astype(np.uint64))
        k = min(n_clusters, len(iv))
        idx = np.argpartition(h, k - 1)[:k] if len(iv) > k \
            else np.arange(len(iv))
        return pa.table({id_col: pa.array(iv[idx]),
                         "h": pa.array(h[idx].astype(np.int64)),
                         vec_col: pc.take(b[vec_col], pa.array(idx))})

    seeds = (work.map_batches(local_bottomk, batch_format="pyarrow",
                              zero_copy_batch=True)
             .to_pandas().sort_values(["h", id_col])
             .head(n_clusters))
    c = np.stack([np.asarray(v, dtype=np.float64)
                  for v in seeds[vec_col].to_numpy()])
    for _ in range(iters):
        c_ref = ray.put(c)

        def partial(b: pa.Table) -> pa.Table:
            cents = ray.get(c_ref)
            m = _batch_matrix(b[vec_col])
            assign = np.argmax(m @ cents.T, axis=1)
            sums = np.zeros((len(cents), m.shape[1]), dtype=np.float64)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(cents))
            d = m.shape[1]
            return pa.table({
                "cell": pa.array(np.repeat(np.arange(len(cents)), d),
                                 type=pa.int64()),
                "i": pa.array(np.tile(np.arange(d), len(cents)),
                              type=pa.int64()),
                "s": pa.array(sums.ravel()),
                "n": pa.array(np.repeat(counts, d), type=pa.int64())})

        agg = combine_pandas(work.map_batches(partial, batch_format="pyarrow",
                                              zero_copy_batch=True),
                             ["cell", "i"], {"s": ("s", "sum"),
                                             "n": ("n", "sum")})
        d = int(agg["i"].max()) + 1
        sums = np.zeros((n_clusters, d))
        counts = np.zeros(n_clusters, dtype=np.int64)
        cells = agg["cell"].to_numpy(dtype=np.int64)
        dims = agg["i"].to_numpy(dtype=np.int64)
        sums[cells, dims] = agg["s"].to_numpy()
        first = agg[dims == 0]
        counts[first["cell"].to_numpy(dtype=np.int64)] = \
            first["n"].to_numpy(dtype=np.int64)
        nonempty = counts > 0
        c = c.copy()
        c[nonempty] = _normalize(sums[nonempty] / counts[nonempty, None])

    c_ref = ray.put(c)

    def assign_final(b: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        m = _batch_matrix(b[vec_col])
        return pa.table({
            id_col: b[id_col],
            "cluster": pa.array(np.argmax(m @ cents.T, axis=1)
                                .astype(np.int64))})

    return work.map_batches(assign_final, batch_format="pyarrow",
                            zero_copy_batch=True), c
