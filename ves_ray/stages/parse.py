"""Parse stage (SURVEY T1–T3): vectorized grok/regex extraction.

The reference declares this stage but never implemented it — the
``regex``/``chrono``/``serde_json`` deps and the normalization-stage
TODO (components/core-agent/src/tailer/manager.rs:28-30,
components/core-agent/Cargo.toml:29-31) define its scope: per-record
extraction of structured fields from raw payloads, timestamp
normalization, JSON props handling.

Everything here is zero-copy Arrow in / Arrow out
(``batch_format="pyarrow"``); the regex engine is pyarrow's RE2-based
``extract_regex`` kernel — no Python-per-row loops. Invalid rows are
FLAGGED (``parse_ok=false``), never dropped silently.

Grok-style patterns: a small curated pattern table compiled to named
groups at import, mirroring classic grok semantics (%{WORD:name} etc.)
without a runtime grok library.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# Grok pattern table → named-group RE2 regexes (compiled once at import).
# ---------------------------------------------------------------------------
GROK_PATTERNS: dict[str, str] = {
    "WORD": r"\w+",
    "INT": r"[+-]?\d+",
    "NUMBER": r"[+-]?\d+(?:\.\d+)?",
    "NOTSPACE": r"\S+",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "TIMESTAMP_ISO8601": r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:\.\d+)?",
    "IPV4": r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}",
    "LOGLEVEL": r"(?:DEBUG|INFO|WARN|WARNING|ERROR|FATAL|TRACE)",
}

_GROK_REF = re.compile(r"%\{(\w+)(?::(\w+))?\}")


def grok_to_regex(pattern: str) -> str:
    """Expand ``%{NAME:field}`` grok references into a named-group regex."""
    def sub(m: re.Match) -> str:
        kind, field = m.group(1), m.group(2)
        body = GROK_PATTERNS[kind]
        return f"(?P<{field}>{body})" if field else f"(?:{body})"
    return _GROK_REF.sub(sub, pattern)


# doc_id layout per FIXTURES.md §1: "{source}-{idx:012d}"
DOC_ID_GROK = "%{DATA:src}-%{INT:seq_idx}"
DOC_ID_REGEX = grok_to_regex(DOC_ID_GROK) + "$"


def _extract(col: pa.ChunkedArray | pa.Array, pattern: str) -> pa.StructArray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.extract_regex(col, pattern=pattern)


def parse_batch(batch: pa.Table, *, pattern: str = DOC_ID_REGEX,
                column: str = "doc_id") -> pa.Table:
    """T1: extract (src, seq_idx) from `column`; add parse_ok flag.

    Non-matching rows get null src/seq_idx and parse_ok=false.
    """
    ext = _extract(batch[column], pattern)
    ok = pc.is_valid(ext)
    src = pc.struct_field(ext, "src")
    idx = pc.cast(pc.struct_field(ext, "seq_idx"), pa.int64())
    out = batch.append_column("src", src)
    out = out.append_column("seq_idx", idx)
    return out.append_column("parse_ok", ok)


def grok_extract_batch(batch: pa.Table, grok: str, column: str,
                       keep_unmatched: bool = True) -> pa.Table:
    """Generic grok extraction: expand `grok`, extract all named groups
    as new string columns. With keep_unmatched, adds `parse_ok` instead
    of filtering."""
    pattern = grok_to_regex(grok)
    ext = _extract(batch[column], pattern)
    ok = pc.is_valid(ext)
    out = batch
    for field in ext.type:
        out = out.append_column(field.name, pc.struct_field(ext, field.name))
    if keep_unmatched:
        return out.append_column("parse_ok", ok)
    return out.filter(ok)


# ---------------------------------------------------------------------------
# T2 — timestamp parse / normalize (reference `chrono` dep)
# ---------------------------------------------------------------------------

def truncate_to_hour(batch: pa.Table, column: str = "ts",
                     out_column: str = "ts_hour") -> pa.Table:
    """Tumbling-window key: floor timestamp to the hour."""
    return batch.append_column(out_column, pc.floor_temporal(batch[column], unit="hour"))


# ---------------------------------------------------------------------------
# T3 — JSON props extraction (reference `serde_json` dep)
# ---------------------------------------------------------------------------
# Props stay a string column unless queried (SURVEY §1.2 "parked as
# string"); individual scalar keys are pulled with a vectorized regex —
# full JSON decode is deferred to the rare stage that needs it.

def extract_json_int_batch(batch: pa.Table, column: str = "props",
                           key: str = "k", out_column: str | None = None) -> pa.Table:
    out_column = out_column or f"props_{key}"
    pattern = rf'"{re.escape(key)}"\s*:\s*(?P<v>-?\d+)'
    ext = _extract(batch[column], pattern)
    v = pc.cast(pc.struct_field(ext, "v"), pa.int64())
    return batch.append_column(out_column, v)
