"""Deterministic, vectorized hashing primitives.

Every hash used anywhere in the engine (fixtures, salting, dedup,
checksums) routes through here so runs are reproducible with a fixed
seed — the reference records checkpoint state keyed by stable inode
identities (components/core-agent/src/watcher/models.rs:11,46-50); the
batch analogue is stable content/identity hashes.

All kernels are numpy-vectorized over uint64; no Python-per-row loops
in hot paths. String hashing uses polars' Rust hash kernel (vectorized)
and is only relied on for *within-environment* determinism (salt
assignment, dedup grouping, checksums) — never compared against a SQL
oracle's hash function.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
_SPLITMIX_GAMMA = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
MASK63 = np.int64(0x7FFFFFFFFFFFFFFF)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """SplitMix64 finalizer (public domain constant set, Steele et al.).

    Accepts scalar or uint64 ndarray; returns uint64 of same shape.
    """
    with np.errstate(over="ignore"):
        z = (np.asarray(x).astype(U64) + _SPLITMIX_GAMMA)
        z = (z ^ (z >> U64(30))) * _MIX1
        z = (z ^ (z >> U64(27))) * _MIX2
        return z ^ (z >> U64(31))


def sql_splitmix64(expr: str) -> str:
    """DuckDB SQL expression computing exactly ``splitmix64(expr)``.

    Mirrors the numpy kernel above bit-for-bit (verified in
    tests/test_hashing.py) so sampling decisions keyed on
    ``splitmix64(id)`` get full value-hash DuckDB oracles instead of
    rows-only checks. Wrap-around uint64 multiply is emulated with a
    32-bit split in HUGEINT (DuckDB integer arithmetic traps on
    overflow); the result is cast back to UBIGINT because HUGEINT →
    pandas round-trips through float64 and loses low bits.
    """
    m64, m32 = 1 << 64, 1 << 32

    def mulmod(a: str, c: int) -> str:
        clo, chi = c % m32, c // m32
        return (f"CAST(((({a}::HUGEINT % {m32}) * {clo} + "
                f"((({a}::HUGEINT // {m32}) * {clo} + "
                f"({a}::HUGEINT % {m32}) * {chi}) % {m32}) "
                f"* {m32}::HUGEINT) % {m64}::HUGEINT) AS UBIGINT)")

    z0 = (f"CAST((({expr}::HUGEINT + {int(_SPLITMIX_GAMMA)}::HUGEINT) "
          f"% {m64}::HUGEINT) AS UBIGINT)")
    z1 = mulmod(f"xor({z0}, {z0} >> 30)", int(_MIX1))
    z2 = mulmod(f"xor({z1}, {z1} >> 27)", int(_MIX2))
    return f"xor({z2}, {z2} >> 31)"


def hash2(a, b) -> np.ndarray:
    """Combine two uint64 streams deterministically."""
    with np.errstate(over="ignore"):
        return splitmix64(np.asarray(a, dtype=U64) ^ (splitmix64(b) + _SPLITMIX_GAMMA))


def hash_strings(values, seed: int = 0) -> np.ndarray:
    """Vectorized 64-bit hash of a string sequence → uint64 ndarray.

    Uses polars' hash kernel (Rust, vectorized). Deterministic within an
    environment; do not persist across polars upgrades.
    `values` may be a pyarrow Array/ChunkedArray, numpy array or list.
    """
    import polars as pl
    import pyarrow as pa

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        s = pl.from_arrow(values)
    else:
        s = pl.Series(values)
    return splitmix64(s.hash(seed=seed & 0xFFFFFFFFFFFFFFFF).to_numpy().astype(U64))


def round_half_away(values: np.ndarray, decimals: int = 6) -> np.ndarray:
    """Round half AWAY from zero, matching SQL ``ROUND`` (DuckDB,
    ANSI) — unlike ``np.round``/pandas ``.round`` which use banker's
    (half-to-even) rounding. The two differ exactly on ties: a
    Jaccard of 9/128 = 0.0703125 rounds to 0.070312 under banker's
    but 0.070313 under SQL, which is a value-hash mismatch against a
    DuckDB oracle. Use this on every float column that is both (a)
    produced by our engine and (b) compared against a SQL ROUND().

    Exact-tie safety: callers' ratios are quotients of small integers
    computed with IEEE float64 division, identical bit-for-bit to the
    oracle's DOUBLE division, so floor(x*10^d + 0.5) agrees with SQL
    on ties and non-ties alike (non-tie fractional parts sit at least
    1/denominator away from .5, far above float64 error)."""
    scale = 10.0 ** decimals
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * np.floor(np.abs(v) * scale + 0.5) / scale


def checksum_version() -> str:
    """Version tag persisted beside any durable checksum.

    ``hash_strings`` delegates to polars' hash kernel, which is only
    stable within a polars version — so checksums stored in lineage
    records / markers are comparable ONLY when their recorded version
    matches the current one. Consumers treat a version mismatch as
    "unverifiable" (recompute), never as corruption."""
    import polars
    return f"splitmix64+polars-{polars.__version__}"


def reduce_by_row(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Order-insensitive (sum mod 2^64) reduction of flat `values` into
    rows delimited by `offsets` (list-array offsets, len = n_rows + 1).

    Empty rows reduce to 0. Used for token-array checksums on
    ``list<int32>`` columns without materializing Python lists.
    """
    values = values.astype(U64, copy=False)
    n = len(offsets) - 1
    out = np.zeros(n, dtype=U64)
    starts = offsets[:-1].astype(np.int64)
    ends = offsets[1:].astype(np.int64)
    nonempty = starts < ends
    if nonempty.any():
        with np.errstate(over="ignore"):
            csum = np.concatenate(([U64(0)], np.cumsum(values, dtype=U64)))
            out[nonempty] = csum[ends[nonempty]] - csum[starts[nonempty]]
    return out


def row_checksums(doc_id_hashes: np.ndarray, token_values: np.ndarray,
                  token_offsets: np.ndarray) -> np.ndarray:
    """Per-row content checksum over (doc_id, tokens).

    Token contribution is order-SENSITIVE within the row (position is
    mixed in) so a permuted token array changes the checksum, matching
    the per-row token-array equality invariant; the *per-partition*
    checksum (sum of row checksums) is order-insensitive across rows so
    Ray task retries / block reordering don't change it
    (SURVEY.md §4.2 hard part 4).
    """
    n = len(doc_id_hashes)
    # normalize: a sliced Arrow ListArray has offsets not starting at 0
    # while .values is the full child array — slice and rebase here.
    off = token_offsets.astype(np.int64)
    values = token_values[off[0]:off[-1]]
    off = off - off[0]
    starts = off[:-1]
    lengths = off[1:] - starts
    tok_sum = np.zeros(n, dtype=U64)
    if len(values):
        # position-weighted wrapping sum Σ (v_j + 1) · (j + 1), where
        # j = g − start is the in-row position of flat index g. Expanded
        # as Σ (v+1)(g+1) − start · Σ (v+1), which is exact in wrapping
        # uint64 arithmetic, so no per-token row index is built: two
        # token-length temporaries and one reduceat each over the
        # non-empty rows (empty rows hold no tokens, so each reduceat
        # segment is exactly one row). Catches any value change,
        # position swap, or truncation; not collision-resistant against
        # adversarial edits (acceptable for lineage change-detection).
        with np.errstate(over="ignore"):
            v1 = values.astype(U64)
            v1 += U64(1)
            w = np.arange(1, len(values) + 1, dtype=U64)
            w *= v1
            rows = np.flatnonzero(lengths)
            at = starts[rows]
            tok_sum[rows] = (np.add.reduceat(w, at)
                             - at.astype(U64) * np.add.reduceat(v1, at))
    with np.errstate(over="ignore"):
        tok_sum += lengths.astype(U64) * _MIX1
    return hash2(doc_id_hashes, tok_sum)
