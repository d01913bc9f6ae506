import numpy as np
import pyarrow as pa

from ves_ray.fixtures import make_sequences_table, make_sources_table
from ves_ray.schema import DEFAULT_ROUTE, DEFAULT_SEVERITY, DEFAULT_TENANT
from ves_ray.stages.enrich import Enricher
from ves_ray.stages.route import add_salt_batch, hot_route_salts


def test_enricher_known_and_default():
    e = Enricher(make_sources_table())
    t = pa.table({"source": ["svc-000", "svc-007", "svc-unk-3", None]})
    out = e(t)
    assert out["route"].to_pylist() == ["route-0", "route-1", DEFAULT_ROUTE, DEFAULT_ROUTE]
    assert out["tenant"].to_pylist()[:2] == ["tenant-0", "tenant-2"]
    assert out["tenant"].to_pylist()[2] == DEFAULT_TENANT
    assert out["severity"].to_pylist()[2] == DEFAULT_SEVERITY
    assert len(out) == 4  # no dropped rows


def test_enricher_dict_lookup():
    e = Enricher({"a": ("t1", "info", "r1")})
    out = e(pa.table({"source": ["a", "b"]}))
    assert out["route"].to_pylist() == ["r1", DEFAULT_ROUTE]


def test_hot_route_salts():
    salts = hot_route_salts(make_sources_table(), k=8)
    assert salts == {"route-0": 8}


def test_salt_deterministic_and_balanced():
    t = make_sequences_table(7, 4000)
    e = Enricher(make_sources_table())
    routed = e(t)
    salts = {"route-0": 16}
    a = add_salt_batch(routed, salts)
    b = add_salt_batch(routed, salts)
    assert a["salt"].to_pylist() == b["salt"].to_pylist()
    s = np.array(a["salt"].to_pylist())
    routes = np.array(a["route"].to_pylist())
    hot = s[routes == "route-0"]
    cold = s[routes != "route-0"]
    assert (cold == 0).all()
    counts = np.bincount(hot, minlength=16)
    assert counts.min() > 0
    assert counts.max() / counts.mean() < 1.5  # balanced hot partitions


def test_salt_empty_and_no_hot():
    t = pa.table({"doc_id": pa.array([], type=pa.string()),
                  "route": pa.array([], type=pa.string())})
    assert add_salt_batch(t, {"route-0": 4})["salt"].to_pylist() == []
    t2 = pa.table({"doc_id": ["a"], "route": ["r"]})
    assert add_salt_batch(t2, {})["salt"].to_pylist() == [0]


def test_broadcast_enrich_matches_and_nulls():
    import ray.data as rd

    from ves_ray.stages.enrich import broadcast_enrich
    lut = pa.table({"k": pa.array([1, 2, 3], type=pa.int64()),
                    "name": ["one", "two", "three"],
                    "extra": pa.array([10, 20, 30], type=pa.int64())})
    ds = rd.from_arrow(pa.table(
        {"id": pa.array(range(6), type=pa.int64()),
         "fk": pa.array([3, 1, 9, 2, 1, None], type=pa.int64())}))
    enriched = broadcast_enrich(ds, lut, left_key="fk", right_key="k",
                                cols=["name", "extra"])
    rows = sorted(enriched.take_all(), key=lambda r: r["id"])
    assert [r["name"] for r in rows] == [
        "three", "one", None, "two", "one", None]
    assert [r["extra"] for r in rows] == [30, 10, None, 20, 10, None]
    assert list(rows[0]) == ["id", "fk", "name", "extra"]


def test_enricher_large_lookup_index_path(monkeypatch):
    """The prebuilt-index probe (large lookups) must be output-equal
    to the pc.index_in path, including unknown-source defaults."""
    from ves_ray.schema import DEFAULT_ROUTE
    from ves_ray.stages.enrich import Enricher
    lut = {f"svc-{i:03d}": (f"t{i % 3}", "info", f"r{i % 4}")
           for i in range(50)}
    batch = pa.table({"source": ["svc-001", "nope", "svc-049", None,
                                 "svc-000"]})
    small = Enricher(lut)(batch)
    assert small.column("route").to_pylist() == [
        "r1", DEFAULT_ROUTE, "r1", DEFAULT_ROUTE, "r0"]
    monkeypatch.setattr(Enricher, "LARGE_LOOKUP_KEYS", 10)
    big = Enricher(lut)
    assert big.index is not None
    assert big(batch).equals(small)


def test_broadcast_enrich_large_lookup_index_path(monkeypatch):
    """_BroadcastLookup's index path: LEFT-JOIN nulls preserved."""
    from ves_ray.stages.enrich import Enricher, _BroadcastLookup
    lut = pa.table({"k": pa.array(range(100), type=pa.int64()),
                    "name": [f"n{i}" for i in range(100)]})
    batch = pa.table({"fk": pa.array([5, 999, None, 0],
                                     type=pa.int64())})
    small = _BroadcastLookup(lut, "k", ["name"])(batch, "fk")
    assert small.column("name").to_pylist() == ["n5", None, None, "n0"]
    monkeypatch.setattr(Enricher, "LARGE_LOOKUP_KEYS", 10)
    big = _BroadcastLookup(lut, "k", ["name"])
    assert big.index is not None
    assert big(batch, "fk").equals(small)
