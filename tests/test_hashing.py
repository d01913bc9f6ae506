import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from ves_ray.hashing import (U64, checksum_partition, hash_strings,
                             reduce_by_row, row_checksums, splitmix64)


def test_splitmix_deterministic_and_spread():
    x = np.arange(1000, dtype=np.uint64)
    a, b = splitmix64(x), splitmix64(x)
    assert (a == b).all()
    assert len(np.unique(a)) == 1000
    assert (splitmix64(x) != splitmix64(x + U64(1))).all()


def test_hash_strings_matches_inputs():
    a = hash_strings(["x", "y", "x"])
    assert a[0] == a[2] and a[0] != a[1]
    assert (hash_strings(pa.array(["x", "y"])) == a[:2]).all()
    assert hash_strings(["x"], seed=1)[0] != hash_strings(["x"], seed=2)[0]


def test_reduce_by_row_empty_rows():
    vals = np.array([1, 2, 3, 4], dtype=np.uint64)
    offs = np.array([0, 2, 2, 4])
    out = reduce_by_row(vals, offs)
    assert out.tolist() == [3, 0, 7]


def test_row_checksums_order_sensitivity():
    doc = np.array([5, 5], dtype=np.uint64)
    # same multiset of tokens, different order → different row checksum
    vals = np.array([1, 2, 2, 1], dtype=np.uint64)
    offs = np.array([0, 2, 4])
    ck = row_checksums(doc, vals, offs)
    assert ck[0] != ck[1]


def test_row_checksums_slice_consistency():
    """Checksums computed on a sliced ListArray equal the full-array ones."""
    arr = pa.array([[1, 2], [3], [4, 5, 6]], type=pa.list_(pa.int32()))
    doc = np.array([7, 8, 9], dtype=np.uint64)
    full = row_checksums(doc, arr.values.to_numpy(), arr.offsets.to_numpy())
    sl = arr.slice(1, 2)
    part = row_checksums(doc[1:], sl.values.to_numpy(),
                         sl.offsets.to_numpy())
    assert (full[1:] == part).all()


def _row_checksums_reference(doc, values, offsets):
    """The position-weighted formula as first written: Σ (v_j + 1)(j + 1)
    per row via an explicit in-row position array, + len · MIX1."""
    from ves_ray.hashing import _MIX1, hash2
    off = offsets.astype(np.int64)
    values = values[off[0]:off[-1]]
    off = off - off[0]
    starts, lengths = off[:-1], off[1:] - off[:-1]
    if not len(values):
        return hash2(doc, np.zeros(len(doc), dtype=U64))
    j = np.arange(len(values), dtype=np.int64) - np.repeat(starts, lengths)
    with np.errstate(over="ignore"):
        weighted = (values.astype(U64) + U64(1)) * (j.astype(U64) + U64(1))
        tok_sum = reduce_by_row(weighted, off) + lengths.astype(U64) * _MIX1
    return hash2(doc, tok_sum)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 2**31 - 1), max_size=12),
                     min_size=1, max_size=20),
       cut=st.tuples(st.integers(0, 20), st.integers(0, 20)),
       seed=st.integers(0, 2**32 - 1))
def test_row_checksums_equal_reference(rows, cut, seed):
    """The reduceat kernel is bit-identical to the reference formula on
    ragged rows, empty rows and sliced list arrays."""
    arr = pa.array(rows, type=pa.list_(pa.int32()))
    doc = np.random.default_rng(seed).integers(
        0, 2**63, len(rows)).astype(U64)
    a, b = sorted(min(c, len(rows)) for c in cut)
    for sl, d in ((arr, doc), (arr.slice(a, b - a), doc[a:b])):
        vals, offs = sl.values.to_numpy(), sl.offsets.to_numpy()
        np.testing.assert_array_equal(
            row_checksums(d, vals, offs),
            _row_checksums_reference(d, vals, offs))


def test_partition_checksum_order_insensitive():
    ck = np.array([2**62, 2**62, 123], dtype=np.uint64)
    assert checksum_partition(ck) == checksum_partition(ck[::-1].copy())
    assert 0 <= checksum_partition(ck) < 2**63


def test_round_half_away_matches_sql_round():
    import duckdb
    from ves_ray.hashing import round_half_away
    # ties (9/128 was a live value-hash mismatch vs DuckDB), negatives,
    # and plain non-tie values
    vals = np.array([9 / 128, -9 / 128, 0.0703125, 1.0000005, -1.0000005,
                     0.1234564, 0.1234566, 3 / 7, 0.5e-6, -0.5e-6, 0.0])
    got = round_half_away(vals, 6)
    want = np.array([duckdb.sql(f"SELECT ROUND(CAST({v!r} AS DOUBLE), 6)")
                     .fetchone()[0] for v in vals])
    np.testing.assert_array_equal(got, want)
