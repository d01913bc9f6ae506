"""Windowed / session operators over event streams.

The reference snapshot has no window semantics (SURVEY §2 checklist:
"no windows/watermarks in snapshot"); these are the batch analogues a
log pipeline grows next: tumbling windows (see
stages.parse.truncate_to_hour) and gap-based sessionization.

Sessionization is a per-key ordered scan. Every operator here is one
``stages.exchange.bucket_exchange``: keys (users) hash into
``num_buckets`` buckets, the buckets range-partition over the live
CPUs (or the input's blocks, if more), and the scan runs once per
partition as a single vectorized multi-user pass over its Arrow table
(a stable sort, key-run starts from ``exchange._group_starts`` fused
with gap flags, ``reduceat`` per key), never a per-user Python loop.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import _grouper, combine, combine_pandas
from .exchange import _group_starts, bucket_exchange


def _micros(col) -> np.ndarray:
    """Integer microseconds of a timestamp column: sub-second fractions
    must count toward gaps/durations exactly as in a SQL oracle."""
    return (col.cast(pa.timestamp("us", col.type.tz), safe=False)
            .cast(pa.int64()).to_numpy())


def _key_runs(t: pa.Table, key_col: str, *order: str):
    """``t`` sorted by ``key_col`` then ``order`` (stable, so ties keep
    their input order), the start row of each key run
    (:func:`exchange._group_starts`), and that start broadcast to every
    row."""
    t = t.sort_by([(c, "ascending") for c in (key_col, *order)])
    starts = _group_starts(t, [key_col])
    return t, starts, np.repeat(starts[:-1], np.diff(starts))


def _session_starts(t: pa.Table, key_col: str, ts_col: str, order_col: str,
                    gap_s: int):
    """Sort a bucket of users by (key, ts, order) and fuse user-change
    and gap flags into session starts: the sorted table, the session
    start flag of each row and each row's key-run start."""
    t, _, run_start = _key_runs(t, key_col, ts_col, order_col)
    ts_us = _micros(t[ts_col])
    new_user = run_start == np.arange(len(t))
    gaps = np.diff(ts_us, prepend=ts_us[:1])
    return t, new_user | (gaps > gap_s * 1_000_000), run_start


def _sessionize_bucket(key_col: str, ts_col: str, order_col: str, gap_s: int):
    """One vectorized pass over a whole bucket of users: session starts
    (:func:`_session_starts`), then per-session counts / durations /
    per-user session numbers with cumulative ops only."""
    def per_bucket(t: pa.Table) -> pa.Table:
        t, new_s, run_start = _session_starts(t, key_col, ts_col, order_col,
                                              gap_s)
        ts_us = _micros(t[ts_col])
        bounds = np.flatnonzero(new_s)
        ends = np.append(bounds[1:], len(t))
        # per-user session numbering: 1..N within each user's run
        cum = np.cumsum(new_s)
        return pa.table({
            key_col: t[key_col].take(bounds),
            "session_id": (cum - cum[run_start] + 1)[bounds],
            "events": ends - bounds,
            "duration_s": (ts_us[ends - 1] - ts_us[bounds]) // 1_000_000,
        })
    return per_bucket


def sessionize(ds, *, key_col: str = "user_id", ts_col: str = "ts",
               order_col: str = "event_id", gap_s: int = 1800,
               num_buckets: int = 64):
    """Assign gap-based sessions per key and aggregate one row per
    session: (key, session_id, events, duration_s).

    session_id numbers sessions 1..N per key in time order; a new
    session starts when the gap to the previous event exceeds
    ``gap_s`` seconds. Results are independent of ``num_buckets``:
    each user's rows land in exactly one exchange partition.
    """
    return bucket_exchange(ds, key_col,
                           _sessionize_bucket(key_col, ts_col, order_col,
                                              gap_s),
                           num_buckets=num_buckets)


def assign_sessions(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                    order_col: str = "event_id", gap_s: int = 1800,
                    num_buckets: int = 64):
    """Session ATTRIBUTION: tag every event row with its gap-based
    session number (1..N per key in time order) — the per-event form
    of :func:`sessionize` (which emits one aggregate row per session).
    Downstream joins ("revenue by session", "first event of each
    session") need the assignment, not the rollup.

    Same scale shape as sessionize: keys pre-hash into num_buckets so
    one vectorized multi-key pass handles a whole bucket; each key's
    rows land in exactly one bucket, so numbering is exact. Returns
    (order_col, key_col, session_id)."""
    def per_bucket(t: pa.Table) -> pa.Table:
        t, new_s, run_start = _session_starts(t, key_col, ts_col, order_col,
                                              gap_s)
        cum = np.cumsum(new_s)
        return pa.table({order_col: t[order_col], key_col: t[key_col],
                         "session_id": cum - cum[run_start] + 1})

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets)


def rolling_sum(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                order_col: str = "event_id", value_col: str = "value_cents",
                window: int = 4, num_buckets: int = 64):
    """Bounded rolling-window aggregate (SUM OVER ... ROWS BETWEEN
    ``window-1`` PRECEDING AND CURRENT ROW) per key in (ts, order)
    order — the windowed-aggregate analogue of the cumulative
    ``running_value`` query.

    Same shuffle shape as sessionize: keys pre-hashed into
    ``num_buckets`` buckets, ONE exchange, then a single vectorized
    multi-key pass per bucket: global cumsum, per-row window start
    clamped to the key-run start, rolling sum = cs[i] - cs[lo-1].
    Exact integers end-to-end; no per-key Python loop."""
    def per_bucket(t: pa.Table) -> pa.Table:
        t, _, run_start = _key_runs(t, key_col, ts_col, order_col)
        cs = np.cumsum(t[value_col].to_numpy().astype(np.int64))
        lo = np.maximum(np.arange(len(t)) - (window - 1), run_start)
        roll = cs - np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0)
        return pa.table({key_col: t[key_col], order_col: t[order_col],
                         "rolling_cents": roll})

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets)


def funnel_stages(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                  stages=("view", "click", "purchase"),
                  type_col: str = "event_type", num_buckets: int = 64):
    """Ordered-funnel analysis: per key, how deep into the stage
    sequence the key progressed — stage k counts only if it occurs at
    a timestamp >= the chosen occurrence of stage k-1 (>= makes the
    semantics tie-safe on ts alone, so a SQL oracle needs no
    tie-break column). Emits (key, funnel_stage) with stage in
    0..len(stages).

    One bucket exchange; per bucket the scan is len(stages) masked
    per-key min passes (``minimum.reduceat`` over the key runs) over the
    whole bucket, never a per-key loop."""
    never = np.int64(2**62)

    def per_bucket(t: pa.Table) -> pa.Table:
        t, starts, _ = _key_runs(t, key_col)
        ts_us = _micros(t[ts_col])
        first = starts[:-1]
        key_of = np.repeat(np.arange(len(first)), np.diff(starts))
        # reached[u] = deepest stage; gate[u] = ts of current stage
        gate = np.full(len(first), -never)
        reached = np.zeros(len(first), dtype=np.int64)
        for depth, stage in enumerate(stages, start=1):
            # events of this stage at/after the key's gate ts
            m = pc.fill_null(pc.equal(t[type_col], stage), False) \
                .to_numpy() & (ts_us >= gate[key_of])
            hit = np.logical_or.reduceat(m, first)
            reached[hit] = depth
            # the min such ts opens the next stage; keys that miss stall
            gate = np.where(hit, np.minimum.reduceat(
                np.where(m, ts_us, never), first), never)
        return pa.table({key_col: t[key_col].take(first),
                         "funnel_stage": reached})

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets)


def event_gaps(ds, *, key_col: str = "user_id", ts_col: str = "ts",
               order_col: str = "event_id", num_buckets: int = 64):
    """LAG-window analogue: per-key inter-event gap statistics —
    (key, n_gaps, max_gap_us, sum_gap_us); keys with a single event
    emit nothing (no gaps). Same bucket shape as sessionize: one
    shuffle, one vectorized multi-key pass per bucket, integer
    microseconds so a SQL lag-window oracle matches exactly."""
    def per_bucket(t: pa.Table) -> pa.Table:
        t, starts, run_start = _key_runs(t, key_col, ts_col, order_col)
        ts_us = _micros(t[ts_col])
        # a key's first row has no gap; sorted by ts, every gap is >= 0
        gaps = np.where(run_start == np.arange(len(t)), 0,
                        np.diff(ts_us, prepend=ts_us[:1]))
        first, size = starts[:-1], np.diff(starts)
        keep = size > 1
        return pa.table({
            key_col: t[key_col].take(first[keep]),
            "n_gaps": size[keep] - 1,
            "max_gap_us": np.maximum.reduceat(gaps, first)[keep],
            "sum_gap_us": np.add.reduceat(gaps, first)[keep]})

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets)


def arrival_lateness(ds, *, key_col: str = "event_type",
                     ts_col: str = "ts", order_col: str = "event_id",
                     num_buckets: int = 64):
    """Watermark / out-of-order arrival analysis — the streaming-
    ingest health check: treating ``order_col`` as arrival order, a
    row is LATE iff its event time is behind the running max event
    time (the per-key watermark) of everything that arrived before it.
    Emits per key: ``n_events, n_late, max_late_us, sum_late_us`` —
    the signal a pipeline uses to size its lateness-tolerance window
    and route quarantine sinks.

    Same shuffle shape as the other windowed ops here: keys pre-hashed
    into ``num_buckets`` buckets, ONE exchange, then per bucket a
    single vectorized multi-key scan (grouped running max + shift) and
    a bucket-local final aggregate (``reduceat`` over the key runs) —
    every key lives in exactly one bucket, so bucket aggregates are
    globally exact."""
    def per_bucket(t: pa.Table) -> pa.Table:
        t, starts, run_start = _key_runs(t, key_col, order_col)
        tsu = _micros(t[ts_col])
        # grouped running max: the lexicographic running max of
        # (key run, rank of ts) stays inside the key's run, since runs
        # are in row order; ranks keep the packed pair within int64
        uniq, rank = np.unique(tsu, return_inverse=True)
        run = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        wm = uniq[np.maximum.accumulate(run * len(uniq) + rank) % len(uniq)]
        first = run_start == np.arange(len(t))
        wm_prev = np.where(first, -2**62, np.roll(wm, 1))
        late = tsu < wm_prev
        lateness = np.where(late, wm_prev - tsu, 0)
        return pa.table({
            key_col: t[key_col].take(starts[:-1]),
            "n_events": np.diff(starts),
            "n_late": np.add.reduceat(late.astype(np.int64), starts[:-1]),
            "max_late_us": np.maximum.reduceat(lateness, starts[:-1]),
            "sum_late_us": np.add.reduceat(lateness, starts[:-1])})

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets)


def hourly_retention(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     num_buckets: int = 64):
    """Cohort retention by hour: for each hour h, how many keys were
    active in h (n_active) and how many of those are active again in
    h+1 (n_retained) — the engagement-funnel counterpart of
    sessionization.

    Shape: per-block DISTINCT (key, hour) pairs (within-block repeats
    never leave the block), one key-bucket exchange (a key's hours
    must co-locate to see adjacency), one vectorized adjacent-hour
    scan per bucket emitting hour-scale partials, and a tiny final
    groupby. Returns a pandas DataFrame
    (ts_hour, n_active, n_retained) sorted by hour."""
    def pairs(b: pa.Table) -> pa.Table:
        h = pc.floor_temporal(b[ts_col], unit="hour")
        if isinstance(h, pa.ChunkedArray):
            h = h.combine_chunks()
        t = pa.table({key_col: b[key_col], "ts_hour": h})
        return pa.TableGroupBy(t, [key_col, "ts_hour"]).aggregate([])

    hour_sums = _grouper(["ts_hour"], {"active": ("active", "sum"),
                                       "retained": ("retained", "sum")})

    def per_bucket(t: pa.Table) -> pa.Table:
        # block-local distinct is not global: the same (key, hour) can
        # arrive from several blocks; all of a key's pairs co-locate
        # here, so this dedup makes the pair set exact
        t = t.sort_by([(key_col, "ascending"), ("ts_hour", "ascending")])
        t = t.take(_group_starts(t, [key_col, "ts_hour"])[:-1])
        hrs = _micros(t["ts_hour"])
        # retained: the next row is the same key's next hour
        last = np.zeros(len(t), dtype=bool)
        last[_group_starts(t, [key_col])[1:] - 1] = True
        nxt = np.append(hrs[1:] - hrs[:-1] == 3_600_000_000, False)
        return hour_sums(pa.table({
            "ts_hour": t["ts_hour"],
            "active": np.ones(len(t), dtype=np.int64),
            "retained": (~last & nxt).astype(np.int64)}))

    parts = bucket_exchange(
        ds.select_columns([key_col, ts_col]).map_batches(
            pairs, batch_format="pyarrow", zero_copy_batch=True),
        key_col, per_bucket, num_buckets=num_buckets)
    final = combine_pandas(parts, ["ts_hour"],
                           {"n_active": ("active", "sum"),
                            "n_retained": ("retained", "sum")})
    final["n_active"] = final["n_active"].astype("int64")
    final["n_retained"] = final["n_retained"].astype("int64")
    return final.sort_values("ts_hour", ignore_index=True)


def session_type_pairs(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                       order_col: str = "event_id",
                       type_col: str = "event_type", gap_s: int = 1800,
                       num_buckets: int = 64):
    """Within-session co-occurrence: for every unordered pair of
    distinct ``type_col`` values, in how many sessions do both occur —
    the market-basket signal over sessionized streams ("viewers who
    also purchase"), composing gap sessionization with pair mining.

    Shape: one key-bucket exchange; inside each bucket the
    :func:`assign_sessions` scan runs with ``type_col`` carried along,
    (key, session, type) triples dedupe, and the pair expansion is a
    per-(key, session) self-join (Arrow hash join, bounded by
    (distinct types)² per session — type vocabularies are small) —
    the bucket then emits PARTIAL pair counts, so the final exchange
    is pairs²-scale. Returns a Dataset of
    (type_a, type_b, n_sessions) with type_a < type_b."""
    pair_counts = _grouper([type_col, "type_b"],
                           {"n_sessions": ([], "count_all")})

    def per_bucket(t: pa.Table) -> pa.Table:
        t, new_s, _ = _session_starts(t, key_col, ts_col, order_col, gap_s)
        # a session tag global to the bucket, one row per (session, type)
        est = pa.TableGroupBy(
            pa.table({"sess": np.cumsum(new_s), type_col: t[type_col]}),
            ["sess", type_col], use_threads=False).aggregate([])
        m = est.join(est.rename_columns(["sess", "type_b"]), "sess",
                     join_type="inner")
        m = m.filter(pc.less(m[type_col], m["type_b"]))
        return pair_counts(m).rename_columns(
            ["type_a", "type_b", "n_sessions"])

    parts = bucket_exchange(
        ds.select_columns([key_col, ts_col, order_col, type_col]), key_col,
        per_bucket, num_buckets=num_buckets)
    return combine(parts, ["type_a", "type_b"],
                   {"n_sessions": ("n_sessions", "sum")})
