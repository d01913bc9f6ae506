"""Structured text sources: CSV ingestion with schema normalization.

The reference ingests raw log bytes and defers all framing/typing to
its (unimplemented) normalization stage
(components/core-agent/src/tailer/manager.rs:28-30); its dependency
set declares the structured formats it intended to parse
(``serde_json`` — components/core-agent/Cargo.toml:29). This reader
is that normalization stage for files that are ALREADY structured:
Ray's native readers do the distributed parse, and a normalization
``map_batches`` coerces every block onto one explicit Arrow schema —
missing columns become typed nulls, extra columns are dropped, and
type drift (e.g. a shard where an int column arrived as strings)
is cast — so schema drift between shards can never poison a
downstream union or groupby.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def normalize_to_schema(ds, schema: pa.Schema):
    """Coerce every block onto ``schema``: missing → typed nulls,
    extra → dropped, mismatched types → cast (errors surface, never
    silently truncate)."""
    def fix(b: pa.Table) -> pa.Table:
        cols = {}
        for field in schema:
            if field.name in b.column_names:
                col = b[field.name]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                if col.type != field.type:
                    col = pc.cast(col, field.type)
                cols[field.name] = col
            else:
                cols[field.name] = pa.nulls(len(b), type=field.type)
        return pa.table(cols)

    return ds.map_batches(fix, batch_format="pyarrow",
                          zero_copy_batch=True)


def read_csv(paths, schema: pa.Schema, **read_kwargs):
    """Distributed CSV read normalized onto ``schema``."""
    import ray.data as rd
    return normalize_to_schema(rd.read_csv(paths, **read_kwargs), schema)
