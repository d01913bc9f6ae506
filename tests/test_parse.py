import pyarrow as pa

from ves_ray.stages.parse import (DOC_ID_REGEX, extract_json_int_batch,
                                  grok_extract_batch, grok_to_regex,
                                  parse_batch,
                                  truncate_to_hour)


def test_grok_expansion():
    r = grok_to_regex("%{WORD:name} %{INT:n} %{LOGLEVEL}")
    assert r == r"(?P<name>\w+) (?P<n>[+-]?\d+) (?:(?:DEBUG|INFO|WARN|WARNING|ERROR|FATAL|TRACE))"


def test_parse_batch_valid_and_invalid():
    t = pa.table({"doc_id": ["svc-000-000000000042", "svc-unk-3-000000000007",
                             "garbage", None]})
    out = parse_batch(t)
    assert out["src"].to_pylist() == ["svc-000", "svc-unk-3", None, None]
    assert out["seq_idx"].to_pylist() == [42, 7, None, None]
    assert out["parse_ok"].to_pylist() == [True, True, False, False]
    # rows are flagged, never dropped
    assert len(out) == 4


def test_parse_batch_sliced_input():
    t = pa.table({"doc_id": [f"s-{i:012d}" for i in range(10)]})
    out = parse_batch(t.slice(4, 3))
    assert out["seq_idx"].to_pylist() == [4, 5, 6]


def test_grok_extract_generic():
    t = pa.table({"line": ["2024-01-02 03:04:05 ERROR disk full",
                           "not a log line"]})
    out = grok_extract_batch(
        t, "%{TIMESTAMP_ISO8601:ts} %{LOGLEVEL:level} %{GREEDYDATA:msg}", "line")
    assert out["level"].to_pylist() == ["ERROR", None]
    assert out["msg"].to_pylist() == ["disk full", None]
    assert out["parse_ok"].to_pylist() == [True, False]


def test_timestamp_parse_and_window():
    import datetime
    ts = datetime.datetime(2024, 1, 2, 3, 4, 5)
    t2 = pa.table({"ts": pa.array([ts], type=pa.timestamp("us"))})
    hr = truncate_to_hour(t2)["ts_hour"].to_pylist()[0]
    assert (hr.hour, hr.minute, hr.second) == (3, 0, 0)


def test_json_int_extract():
    t = pa.table({"props": ['{"k": 87}', '{"k":-3, "z": 1}', '{"z": 9}', None]})
    out = extract_json_int_batch(t)
    assert out["props_k"].to_pylist() == [87, -3, None, None]


def test_sessionize_gap_semantics():
    """Sessions split exactly when the gap EXCEEDS the threshold."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.window import sessionize
    base = np.datetime64("2026-01-01T00:00:00", "us")
    offs = [0, 600, 1800 + 600, 1800 + 600 + 1801, 1800 + 600 + 1801 + 5]
    ts = [base + np.timedelta64(int(o * 1e6), "us") for o in np.cumsum([0, 600, 1800, 1801, 5])]
    t = pa.table({
        "user_id": [7] * 5,
        "event_id": list(range(5)),
        "ts": pa.array(ts, type=pa.timestamp("us")),
    })
    out = sessionize(rd.from_arrow(t), gap_s=1800).to_pandas() \
        .sort_values("session_id", ignore_index=True)
    # gaps: 600 (same), 1800 (same: not > gap), 1801 (new), 5 (same)
    assert list(out["session_id"]) == [1, 2]
    assert list(out["events"]) == [3, 2]
    assert list(out["duration_s"]) == [2400, 5]


def test_event_gaps_lag_semantics():
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.window import event_gaps
    ts = pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 00:00:10",
                         "2024-01-01 00:01:00",   # user 1: gaps 10s, 50s
                         "2024-01-01 05:00:00",   # user 2: single event
                         "2024-01-01 00:00:00.500000",
                         "2024-01-01 00:00:01"],
                        format="mixed")  # user 3: gap 0.5s
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 3, 3], type=pa.int64()),
        "event_id": pa.array(range(6), type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
    })
    out = (event_gaps(rd.from_arrow(t), num_buckets=4).to_pandas()
           .set_index("user_id"))
    assert 2 not in out.index                   # single event → no row
    assert out.loc[1, "n_gaps"] == 2
    assert out.loc[1, "max_gap_us"] == 50_000_000
    assert out.loc[1, "sum_gap_us"] == 60_000_000
    assert out.loc[3, "n_gaps"] == 1
    assert out.loc[3, "sum_gap_us"] == 500_000  # sub-second exactness


def test_rolling_sum_window_semantics():
    """Trailing window clamps at each key's run start; exact ints."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.window import rolling_sum
    ts = pd.to_datetime(["2024-01-01"] * 6) + pd.to_timedelta(
        [0, 1, 2, 3, 4, 0], unit="s")
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1, 1, 2], type=pa.int64()),
        "event_id": pa.array(range(6), type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "value_cents": pa.array([10, 20, 30, 40, 50, 7], type=pa.int64()),
    })
    out = (rolling_sum(rd.from_arrow(t), window=3, num_buckets=4)
           .to_pandas().sort_values("event_id", ignore_index=True))
    # user 1 windows of 3: 10, 30, 60, 90, 120; user 2: 7
    assert list(out["rolling_cents"]) == [10, 30, 60, 90, 120, 7]


def test_funnel_stage_ordering_gate():
    """Stage k counts only at/after the chosen stage k-1 occurrence;
    out-of-order stages don't count; ties (>=) do."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.window import funnel_stages
    rows = [
        # user 1: view@0 click@5 purchase@9 -> stage 3
        (1, 0, "view"), (1, 5, "click"), (1, 9, "purchase"),
        # user 2: click BEFORE first view -> click doesn't count -> 1
        (2, 0, "click"), (2, 5, "view"),
        # user 3: tie ts view/click at 3 -> >= gate admits click -> 2
        (3, 3, "view"), (3, 3, "click"),
        # user 4: no funnel events at all -> 0
        (4, 1, "error"),
        # user 5: purchase without click -> 1 (view only)
        (5, 0, "view"), (5, 2, "purchase"),
    ]
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        [r[1] for r in rows], unit="s")
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows]),
    })
    out = (funnel_stages(rd.from_arrow(t), num_buckets=4)
           .to_pandas().set_index("user_id")["funnel_stage"])
    assert out.to_dict() == {1: 3, 2: 1, 3: 2, 4: 0, 5: 1}


def test_arrival_lateness_watermark_semantics():
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from ves_ray.stages.window import arrival_lateness
    # type a arrivals (by event_id): ts 10, 5 (late by 5), 20, 7 (late by 13)
    # type b arrivals: 100, 100 (ties are NOT late), 99 (late by 1)
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7], type=pa.int64()),
        "event_type": pa.array(["a", "a", "a", "a", "b", "b", "b"]),
        "ts": pa.array(pd.to_datetime(
            [10, 5, 20, 7, 100, 100, 99], unit="s", utc=None)
            .astype("datetime64[us]")),
    })
    out = (arrival_lateness(rd.from_arrow(t).repartition(3),
                            key_col="event_type", num_buckets=4)
           .to_pandas().sort_values("event_type", ignore_index=True))
    a, b = out.iloc[0], out.iloc[1]
    assert (a["n_events"], a["n_late"]) == (4, 2)
    assert a["max_late_us"] == 13_000_000 and a["sum_late_us"] == 18_000_000
    assert (b["n_events"], b["n_late"]) == (3, 1)
    assert b["max_late_us"] == 1_000_000 and b["sum_late_us"] == 1_000_000


def test_assign_sessions_agrees_with_sessionize():
    """Per-event assignment rolled up == sessionize's per-session rows."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.window import assign_sessions, sessionize

    rng = np.random.default_rng(13)
    n = 2000
    users = rng.integers(0, 40, n).astype(np.int64)
    base = np.datetime64("2026-01-01T00:00:00", "us")
    ts = base + rng.integers(0, 3 * 86400, n).astype("timedelta64[s]")
    t = pa.table({"user_id": pa.array(users),
                  "event_id": pa.array(np.arange(n, dtype=np.int64)),
                  "ts": pa.array(ts.astype("datetime64[us]"))})
    assigned = assign_sessions(rd.from_arrow(t), gap_s=1800).to_pandas()
    rolled = (assigned.groupby(["user_id", "session_id"])
              .size().reset_index(name="events")
              .sort_values(["user_id", "session_id"],
                           ignore_index=True))
    want = (sessionize(rd.from_arrow(t), gap_s=1800).to_pandas()
            [["user_id", "session_id", "events"]]
            .sort_values(["user_id", "session_id"], ignore_index=True))
    pd.testing.assert_frame_equal(rolled.astype("int64"),
                                  want.astype("int64"))


def test_hourly_retention_adjacency_semantics():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.window import hourly_retention
    base = np.datetime64("2026-01-01T00:00:00", "us")
    rows = [(1, 0), (1, 20), (1, 70),   # u1: h0 (twice), h1 -> retained@h0
            (2, 10),                    # u2: h0 only
            (3, 80), (3, 130)]          # u3: h1, h2 -> retained@h1
    t = pa.table({"user_id": pa.array([r[0] for r in rows],
                                      type=pa.int64()),
                  "ts": pa.array([base + np.timedelta64(r[1], "m")
                                  for r in rows])})
    out = hourly_retention(rd.from_arrow(t))
    got = {str(r["ts_hour"]): (r["n_active"], r["n_retained"])
           for _, r in out.iterrows()}
    assert got == {"2026-01-01 00:00:00": (2, 1),
                   "2026-01-01 01:00:00": (2, 1),
                   "2026-01-01 02:00:00": (1, 0)}


def test_session_type_pairs_counts_sessions_not_events():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ves_ray.stages.window import session_type_pairs
    base = np.datetime64("2026-01-01T00:00:00", "us")
    # u1 session1: view,view,buy (pair counted ONCE); u1 session2
    # (2h later): view only; u2 session1: view,buy
    rows = [(1, 0, "view"), (1, 1, "view"), (1, 2, "buy"),
            (1, 130, "view"),
            (2, 5, "view"), (2, 6, "buy")]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([base + np.timedelta64(r[1], "m") for r in rows]),
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "event_type": pa.array([r[2] for r in rows])})
    out = session_type_pairs(rd.from_arrow(t), gap_s=1800).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["type_a"], r["type_b"], r["n_sessions"]) == \
        ("buy", "view", 2)
