"""The bucket exchange: the one shuffle of every key-partitioned
operator in the package.

``bucket_exchange(ds, keys, kernel)`` hashes ``keys`` into
``num_buckets`` buckets, range-partitions the buckets over one
partition per live CPU (more for inputs larger than a block per CPU)
with a sort on the bucket column whose boundaries are fixed (no
sampling stage), and calls ``kernel`` once
per partition on all of that partition's rows. Each key's rows land in
exactly one partition, so a KEY-LOCAL kernel, one that groups or sorts
by the real key inside and is therefore correct on any union of
buckets, composes to the global result.

Why not ``groupby(bucket).map_groups``: it samples sort boundaries in
an extra stage and calls the kernel once per bucket, so a 64-bucket
exchange paid 64 Python calls and a sampling pass for data that fits a
handful of blocks. Fewer, larger UDF calls are the point of vectorized
UDF execution ("Accelerating Python UDFs in Vectorized Query
Execution", CIDR 2022). Why not Ray's native ``groupby().aggregate``:
its sort-based plan is an order of magnitude slower here than block
partials plus one final, so the package has none: every aggregate is
``stages.aggregate.combine``, whose final runs on the driver when the
partials fit one block and on this exchange when they do not (NOTES.md
"One aggregation path"). A function that needs exactly one group per call (it
reads the group's key off its first row) goes through
``exchange_groups``, the same exchange with a kernel that cuts each
partition into its groups.

The kernel contract is one format: a kernel takes a ``pa.Table`` and
returns a ``pa.Table``, so every block an exchange emits is Arrow and
an empty result keeps its columns' types, which a pandas frame loses.
A kernel whose algorithm Arrow lacks converts its own input and builds
its output with an explicit schema (``relational._merge_asof``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hash2, hash_strings, splitmix64

_BUCKET = "__bucket"


def _key_hash(col) -> np.ndarray:
    """64-bit hash of one key column: integers by value, every other
    type through polars' hash kernel."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        return splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
    return hash_strings(col, seed=0xB0)


def _bucket_of(col, num_buckets: int) -> np.ndarray:
    """Bucket of each value of one key column. ``state.bucketed``
    persists layouts by this function; change it only with its
    ``_HASH_VER``."""
    return (_key_hash(col) % np.uint64(num_buckets)).astype(np.int32)


def buckets_of(table: pa.Table, keys: list[str], num_buckets: int) -> np.ndarray:
    """Bucket of each row of ``table`` over one or more key columns."""
    if len(keys) == 1:
        return _bucket_of(table[keys[0]], num_buckets)
    h = _key_hash(table[keys[0]])
    for k in keys[1:]:
        h = hash2(h, _key_hash(table[k]))
    return (h % np.uint64(num_buckets)).astype(np.int32)


def num_partitions(ds, num_buckets: int) -> int:
    """One partition per live CPU, raised to the block count the read
    sizing rule (``read_blocks``) gives the input's source bytes, so no
    partition outgrows ``DataContext.target_max_block_size`` by more
    than a key's skew; capped at ``num_buckets``. ``ds`` is one Dataset
    or a list of them."""
    from ..sources.sequences import read_blocks, source_bytes
    nbytes = sum(source_bytes(d)
                 for d in (ds if isinstance(ds, list) else [ds]))
    return max(1, min(num_buckets, read_blocks(nbytes)))


def bucket_exchange(ds, keys, kernel, *, num_buckets: int = 64):
    """Co-locate every key's rows and run ``kernel`` once per partition.

    ``ds`` is one Dataset or a list of Datasets with the same columns
    (the sides of a join); each gets its bucket column in its own last
    map, which Ray fuses into the map before it, and only then are they
    unioned. ``keys`` is one column name or a list (their hashes
    combine).

    ``kernel`` takes one ``pa.Table`` holding whole keys, never the
    bucket column, and returns a ``pa.Table``; it is not called for a
    partition that receives no rows.
    Each partition reaches it as one call, whatever the input's
    ``target_max_block_size`` (a sized read sets a small one on its own
    Dataset): the sort's reduce (``SortTaskSpec.reduce``) merges a
    partition into one block, and ``batch_size=None`` makes each block
    one batch. The partition count is :func:`num_partitions`: an input
    larger than ``CPUs × target_max_block_size`` gets more partitions
    than CPUs, up to ``num_buckets``; beyond ``num_buckets ×
    target_max_block_size`` a partition grows past one block, so such
    inputs need a larger ``num_buckets``.

    The output's own context turns off Ray Data's per-operator resource
    reservation (``op_resource_reservation_enabled``): it holds one
    task's CPU per operator in topology order, so a plan of more map
    operators than CPUs ran each operator one task at a time. Now any
    operator may take any free CPU, and Ray core still caps the total
    at the live CPUs; the reservation's object-store budget Ray already
    lifts for every operator that feeds a sort (NOTES.md "One CPU per
    operator"). The session ``DataContext`` is untouched. A join's
    ``union`` copies the context, so the setting lands on a fresh one;
    a single-side exchange shares its input Dataset's context object
    (Ray's plan copy is shallow), so later plans built from that same
    input run without the reservation too. A join's plan runs under the
    union's context, a copy of the first side's, so it gets the largest
    side's ``target_max_block_size``, not a sized read's smaller one."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    p = num_partitions(ds, num_buckets)

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(_BUCKET,
                               pa.array(buckets_of(b, keys, num_buckets)))

    sides = [d.map_batches(add_bucket, batch_format="pyarrow",
                           zero_copy_batch=True)
             for d in (ds if isinstance(ds, list) else [ds])]
    bucketed = sides[0]
    if len(sides) > 1:
        bucketed = bucketed.union(*sides[1:])
        targets = [s.context.target_max_block_size for s in sides]
        bucketed.context.target_max_block_size = (  # None: no limit
            None if None in targets else max(targets))
    if p == 1:
        # an empty ``boundaries`` list means "sample" to Ray's sort
        shuffled = bucketed.repartition(1)
    else:
        shuffled = bucketed.sort(
            _BUCKET, boundaries=[i * num_buckets // p for i in range(1, p)])

    def exchange_kernel(batch: pa.Table):
        if len(batch):
            yield kernel(batch.drop_columns([_BUCKET]))

    # batch_size=None: one call per sort output block, which is one
    # whole partition (the sort's reduce merges it into one block)
    out = shuffled.map_batches(exchange_kernel, batch_size=None,
                               batch_format="pyarrow", zero_copy_batch=True)
    out.context.op_resource_reservation_enabled = False
    return out


def _group_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Start row of each run of equal ``keys`` in ``t``, then
    ``len(t)``; two nulls are equal."""
    n = len(t)
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for k in keys:
        a, b = t[k].slice(0, n - 1), t[k].slice(1)
        differ = pc.and_not(pc.fill_null(pc.not_equal(a, b), True),
                            pc.and_(pc.is_null(a), pc.is_null(b)))
        new[1:] |= differ.to_numpy(zero_copy_only=False)
    return np.append(np.flatnonzero(new), n)


def exchange_groups(ds, keys, fn, *, num_buckets: int = 64):
    """``fn`` once per whole group of ``keys`` over a
    :func:`bucket_exchange` of ``ds`` (one Dataset or a list of sides):
    what Ray's ``map_groups`` over ``keys`` returns, on the exchange's
    plan (fixed sort boundaries, no sampling stage).

    The kernel sorts its partition by ``keys``, cuts it at the runs of
    equal keys and calls ``fn`` on each run in key order, as a
    ``pa.Table`` without the bucket column, then concatenates the
    ``pa.Table`` outputs into one chunk per column. ``num_buckets`` as in :func:`bucket_exchange`:
    a key of fewer values needs no more (at one, no partition is
    empty)."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def per_group(t: pa.Table):
        t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))
        starts = _group_starts(t, keys)
        # one chunk per column: Ray serializes every chunk's buffers
        # apart, and a table of 5,000 two-row chunks took 635 ms to
        # put and get, against 4 ms combined
        return pa.concat_tables(
            [fn(t.slice(i, j - i)) for i, j in zip(starts, starts[1:])],
            promote_options="default").combine_chunks()

    return bucket_exchange(ds, keys, per_group, num_buckets=num_buckets)
