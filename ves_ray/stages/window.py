"""Windowed / session operators over event streams.

The reference snapshot has no window semantics (SURVEY §2 checklist:
"no windows/watermarks in snapshot"); these are the batch analogues a
log pipeline grows next: tumbling windows (see
stages.parse.truncate_to_hour) and gap-based sessionization.

Sessionization is a per-key ordered scan. Every operator here is one
``stages.exchange.bucket_exchange``: keys (users) hash into
``num_buckets`` buckets, the buckets range-partition over the live
CPUs (or the input's blocks, if more), and the scan runs once per
partition as a single vectorized multi-user pass (key-change flags
fused with gap flags), never a per-user Python loop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .aggregate import combine, combine_pandas
from .exchange import bucket_exchange


def _sessionize_bucket(key_col: str, ts_col: str, order_col: str, gap_s: int):
    """One vectorized pass over a whole bucket of users: sort by
    (key, ts, order), fuse user-change and gap flags into session
    starts, then derive per-session counts / durations / per-user
    session numbers with cumulative ops only."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        # integer microseconds end-to-end: sub-second fractions must
        # count toward gaps/durations exactly as in a SQL oracle
        ts_us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        gap_us = gap_s * 1_000_000
        new_user = np.concatenate(([True], keys[1:] != keys[:-1]))
        gaps = np.diff(ts_us, prepend=ts_us[0])
        new_s = new_user | (gaps > gap_us)
        bounds = np.flatnonzero(new_s)
        counts = np.diff(np.append(bounds, len(new_s)))
        starts_ts = ts_us[bounds]
        last = np.concatenate((new_s[1:], [True]))
        ends_ts = ts_us[last]
        sess_user = keys[bounds]
        # per-user session numbering: 1..N within each user's run
        s_idx = np.arange(len(bounds), dtype=np.int64)
        user_first = np.maximum.accumulate(
            np.where(np.concatenate(([True], sess_user[1:] != sess_user[:-1])),
                     s_idx, 0))
        return pd.DataFrame({
            key_col: sess_user,
            "session_id": s_idx - user_first + 1,
            "events": counts.astype(np.int64),
            "duration_s": ((ends_ts - starts_ts) // 1_000_000).astype(np.int64),
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
                           num_buckets=num_buckets, batch_format="pandas")


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
    import pandas as pd

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        ts_us = g[ts_col].to_numpy().astype("datetime64[us]") \
                 .astype(np.int64)
        gap_us = gap_s * 1_000_000
        new_user = np.concatenate(([True], keys[1:] != keys[:-1]))
        gaps = np.diff(ts_us, prepend=ts_us[0])
        new_s = new_user | (gaps > gap_us)
        cum = np.cumsum(new_s)
        idx = np.arange(len(g), dtype=np.int64)
        ufirst = np.maximum.accumulate(np.where(new_user, idx, 0))
        session_id = cum - cum[ufirst] + 1
        return pd.DataFrame({
            order_col: g[order_col].to_numpy(),
            key_col: keys,
            "session_id": session_id.astype(np.int64)})

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets,
                           batch_format="pandas")


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
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        v = g[value_col].to_numpy().astype(np.int64)
        n = len(v)
        cs = np.cumsum(v)
        idx = np.arange(n, dtype=np.int64)
        # index of the first row of each key run, broadcast per row
        new_key = np.concatenate(([True], keys[1:] != keys[:-1]))
        run_start = np.maximum.accumulate(np.where(new_key, idx, 0))
        lo = np.maximum(idx - (window - 1), run_start)
        roll = cs - np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0)
        return pd.DataFrame({
            key_col: keys,
            order_col: g[order_col].to_numpy(),
            "rolling_cents": roll.astype(np.int64)})

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets,
                           batch_format="pandas")


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
    groupby-min passes over the whole bucket (C-speed), never a
    per-key loop."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys = g[key_col].to_numpy()
        ts_us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        types = g[type_col].to_numpy()
        uniq = np.unique(keys)
        # reached[u] = deepest stage; gate[u] = ts of current stage
        gate = pd.Series(np.int64(-2**62), index=uniq)
        reached = pd.Series(0, index=uniq, dtype=np.int64)
        for depth, stage in enumerate(stages, start=1):
            m = types == stage
            sub = pd.DataFrame({"k": keys[m], "t": ts_us[m]})
            # min event ts of this stage at/after the key's gate ts
            sub = sub[sub["t"].to_numpy() >=
                      gate.reindex(sub["k"]).to_numpy()]
            nxt = sub.groupby("k")["t"].min()
            hit = nxt.index
            reached.loc[hit] = depth
            gate.loc[:] = np.int64(2**62)  # keys that miss stall out
            gate.loc[hit] = nxt.to_numpy()
        return pd.DataFrame({key_col: uniq,
                             "funnel_stage": reached.to_numpy()})

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets,
                           batch_format="pandas")


def event_gaps(ds, *, key_col: str = "user_id", ts_col: str = "ts",
               order_col: str = "event_id", num_buckets: int = 64):
    """LAG-window analogue: per-key inter-event gap statistics —
    (key, n_gaps, max_gap_us, sum_gap_us); keys with a single event
    emit nothing (no gaps). Same bucket shape as sessionize: one
    shuffle, one vectorized multi-key pass per bucket, integer
    microseconds so a SQL lag-window oracle matches exactly."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        ts_us = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        same_user = np.concatenate(([False], keys[1:] == keys[:-1]))
        gaps = np.diff(ts_us, prepend=ts_us[0])
        sub = pd.DataFrame({key_col: keys[same_user],
                            "gap_us": gaps[same_user]})
        if len(sub) == 0:
            return pd.DataFrame({key_col: keys[:0],
                                 "n_gaps": pd.Series([], dtype="int64"),
                                 "max_gap_us": pd.Series([], dtype="int64"),
                                 "sum_gap_us": pd.Series([], dtype="int64")})
        out = (sub.groupby(key_col, as_index=False, sort=False)["gap_us"]
               .agg(n_gaps="count", max_gap_us="max", sum_gap_us="sum"))
        out[["n_gaps", "max_gap_us", "sum_gap_us"]] = out[
            ["n_gaps", "max_gap_us", "sum_gap_us"]].astype(np.int64)
        return out

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets,
                           batch_format="pandas")


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
    single vectorized multi-key scan (grouped cummax + grouped shift,
    both C-speed) and a bucket-local final aggregate — every key lives
    in exactly one bucket, so bucket aggregates are globally exact."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, order_col], kind="mergesort",
                          ignore_index=True)
        tsu = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        g["_tsu"] = tsu
        gb = g.groupby(key_col, sort=False)
        wm = gb["_tsu"].cummax()
        wm_prev = (wm.groupby(g[key_col], sort=False).shift(1)
                   .fillna(-2**62).astype(np.int64))   # int64-exact sums
        late = tsu < wm_prev.to_numpy()
        g["_late"] = late.astype(np.int64)
        g["_lateness"] = np.where(late, wm_prev.to_numpy() - tsu, 0)
        agg = g.groupby(key_col, sort=False).agg(
            n_events=("_tsu", "size"), n_late=("_late", "sum"),
            max_late_us=("_lateness", "max"),
            sum_late_us=("_lateness", "sum")).reset_index()
        agg["max_late_us"] = agg["max_late_us"].astype(np.int64)
        agg["sum_late_us"] = agg["sum_late_us"].astype(np.int64)
        agg["n_events"] = agg["n_events"].astype(np.int64)
        return agg

    return bucket_exchange(ds, key_col, per_bucket, num_buckets=num_buckets,
                           batch_format="pandas")


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
    import pandas as pd
    import pyarrow.compute as pc

    def pairs(b: pa.Table) -> pa.Table:
        h = pc.floor_temporal(b[ts_col], unit="hour")
        if isinstance(h, pa.ChunkedArray):
            h = h.combine_chunks()
        t = pa.table({key_col: b[key_col], "ts_hour": h})
        return pa.TableGroupBy(t, [key_col, "ts_hour"]).aggregate([])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # block-local distinct is not global: the same (key, hour) can
        # arrive from several blocks; all of a key's pairs co-locate
        # here, so this dedup makes the pair set exact
        g = (g.sort_values([key_col, "ts_hour"], kind="mergesort")
              .drop_duplicates([key_col, "ts_hour"]))
        keys = g[key_col].to_numpy()
        hrs = g["ts_hour"].to_numpy().astype("datetime64[us]") \
               .astype(np.int64)
        same = np.concatenate((keys[1:] == keys[:-1], [False]))
        nxt = np.concatenate((hrs[1:] - hrs[:-1] == 3_600_000_000,
                              [False]))
        retained = same & nxt
        df = pd.DataFrame({"ts_hour": g["ts_hour"].to_numpy(),
                           "active": 1,
                           "retained": retained.astype(np.int64)})
        out = df.groupby("ts_hour", as_index=False).sum()
        return out

    parts = bucket_exchange(
        ds.select_columns([key_col, ts_col]).map_batches(
            pairs, batch_format="pyarrow", zero_copy_batch=True),
        key_col, per_bucket, num_buckets=num_buckets, batch_format="pandas")
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
    per-(key, session) self-merge (pandas C hash join, bounded by
    (distinct types)² per session — type vocabularies are small) —
    the bucket then emits PARTIAL pair counts, so the final exchange
    is pairs²-scale. Returns a Dataset of
    (type_a, type_b, n_sessions) with type_a < type_b."""
    import pandas as pd

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, order_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        ts_us = g[ts_col].to_numpy().astype("datetime64[us]") \
                 .astype(np.int64)
        gap_us = gap_s * 1_000_000
        new_user = np.concatenate(([True], keys[1:] != keys[:-1]))
        gaps = np.diff(ts_us, prepend=ts_us[0])
        new_s = new_user | (gaps > gap_us)
        cum = np.cumsum(new_s)        # bucket-global session tag
        est = pd.DataFrame({key_col: keys, "sess": cum,
                            type_col: g[type_col].to_numpy()}) \
                .drop_duplicates([key_col, "sess", type_col])
        m = est.merge(est, on=[key_col, "sess"], suffixes=("_a", "_b"))
        m = m[m[f"{type_col}_a"] < m[f"{type_col}_b"]]
        out = (m.groupby([f"{type_col}_a", f"{type_col}_b"])
                .size().reset_index(name="n_sessions"))
        return out.rename(columns={f"{type_col}_a": "type_a",
                                   f"{type_col}_b": "type_b"})

    parts = bucket_exchange(
        ds.select_columns([key_col, ts_col, order_col, type_col]), key_col,
        per_bucket, num_buckets=num_buckets, batch_format="pandas")
    return combine(parts, ["type_a", "type_b"],
                   {"n_sessions": ("n_sessions", "sum")})
