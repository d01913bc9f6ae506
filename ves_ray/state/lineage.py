"""Per-partition lineage records (SURVEY T8).

north_star: "every partition emits lineage records (input fragment,
row ranges, checksum) plus throughput metrics". The reference captures
payload ``size`` purely for metrics
(components/core-agent/src/tailer/payload.rs:12-18); here each routed
row carries a content checksum computed at transform time, and lineage
is aggregated per input fragment FROM THE WRITTEN OUTPUT so it is
exactly-once under Ray task retries (SURVEY §4.2 hard part 1 — never
side-effect counters).

Checksum design: per-row = position-mixed hash over (doc_id, tokens)
masked to 32 bits; per-fragment = plain int64 SUM of row checksums —
order-insensitive across rows (block order and retries don't change
it) and overflow-free for < 2^31 rows per fragment.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..hashing import hash_strings, row_checksums

ROW_CK_MASK = np.uint64(0xFFFFFFFF)


def add_row_checksum_batch(batch: pa.Table, *, doc_col: str = "doc_id",
                           tokens_col: str = "tokens") -> pa.Table:
    """Append ``row_ck:int64`` — the per-row content checksum over
    (row identity, tokens), computed on raw Arrow buffers (no Python
    lists). Identity = ``seq_idx`` (int64 extracted from doc_id by the
    parse stage — numpy-only hot path) when present, else a string hash
    of doc_id."""
    import pyarrow.compute as pc

    from ..hashing import hash2, splitmix64
    n = len(batch)
    if n == 0:
        return batch.append_column("row_ck", pa.array([], type=pa.int64()))
    if "seq_idx" in batch.column_names:
        sid = pc.fill_null(batch["seq_idx"], 0)
        doc_h = hash2(splitmix64(np.uint64(0x11)),
                      sid.to_numpy(zero_copy_only=False).astype(np.uint64))
    else:
        doc_h = hash_strings(batch[doc_col], seed=0x11)
    toks = batch[tokens_col]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = toks.values.to_numpy(zero_copy_only=False)
    # slice-safety: offsets of a sliced ListArray don't start at 0
    ck = row_checksums(doc_h, values, offsets)
    ck = (ck & ROW_CK_MASK).astype(np.int64)
    return batch.append_column("row_ck", pa.array(ck, type=pa.int64()))
