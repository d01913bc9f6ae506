"""stages.exchange.bucket_exchange: the same result as a per-bucket
``map_groups`` for a key-local kernel, one kernel call per partition,
and no key split across calls; its plans run without Ray Data's
per-operator CPU reservation, on their own context only, and a join's
reads keep their own block targets. ``exchange_groups``: one call per
whole group, the same result as ``map_groups``, and the only per-group
path in the package. Plus the plan shape of the six exchange-bound
catalog queries: no schema-probe executions."""

import pathlib
import re
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray
import ray.data as rd
from ves_ray.stages.exchange import (_bucket_of, bucket_exchange,
                                    exchange_groups, num_partitions)


def _per_key(t: pa.Table) -> pa.Table:
    """Key-local kernel: rows and value sum per key, tagged with an id
    unique to this call."""
    g = pa.TableGroupBy(t, ["k"]).aggregate([([], "count_all"), ("v", "sum")])
    g = g.rename_columns(["k", "n", "v"])
    return g.append_column("call", pa.array([uuid.uuid4().hex] * len(g)))


def _dataset(keys: np.ndarray, blocks: int = 8):
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "v": pa.array(np.arange(len(keys)), pa.int64())})
    step = -(-len(t) // blocks)
    return rd.from_arrow([t.slice(i, step) for i in range(0, len(t), step)])


def _check_same_as_map_groups(ds, num_buckets: int) -> int:
    """Assert the exchange equals map_groups over the key; return the
    number of kernel calls the exchange made."""
    got = (bucket_exchange(ds, "k", _per_key, num_buckets=num_buckets)
           .to_pandas().sort_values("k", ignore_index=True))
    exp = (ds.groupby("k").map_groups(_per_key, batch_format="pyarrow")
           .to_pandas().sort_values("k", ignore_index=True))
    # one output row per key: no key was split across kernel calls
    assert got["k"].is_unique
    assert got[["k", "n", "v"]].equals(exp[["k", "n", "v"]])
    calls = got["call"].nunique()
    assert 1 <= calls <= num_partitions(ds, num_buckets)
    return calls


@pytest.mark.parametrize("num_buckets", [1, 3, 64])
def test_exchange_matches_map_groups(num_buckets):
    rng = np.random.default_rng(num_buckets)
    calls = _check_same_as_map_groups(
        _dataset(rng.integers(0, 500, 6_000)), num_buckets)
    if num_buckets == 1:
        assert calls == 1


def test_exchange_partition_without_rows():
    """Every key hashes into the first of four partitions: the other
    partitions receive no rows and call no kernel."""
    cand = np.arange(2_000, dtype=np.int64)
    low = cand[_bucket_of(pa.array(cand), 64) < 16][:40]
    ds = _dataset(np.repeat(low, 25))
    assert num_partitions(ds, 64) == 4
    assert _check_same_as_map_groups(ds, 64) == 1


def test_exchange_hot_key():
    rng = np.random.default_rng(5)
    keys = np.where(rng.random(8_000) < 0.9, 7, rng.integers(0, 300, 8_000))
    _check_same_as_map_groups(_dataset(keys), 64)


def test_exchange_one_cpu_repartitions(monkeypatch):
    """With one live CPU there is one partition, made by
    ``repartition(1)``: an empty ``boundaries`` list would make Ray's
    sort sample instead."""
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    ds = _dataset(np.random.default_rng(3).integers(0, 200, 3_000))
    assert num_partitions(ds, 64) == 1
    plan = bucket_exchange(ds, "k", _per_key)._logical_plan.dag
    names = []
    while plan is not None:
        names.append(type(plan).__name__)
        plan = plan.input_dependencies[0] if plan.input_dependencies else None
    assert "Repartition" in names and "Sort" not in names
    assert _check_same_as_map_groups(ds, 64) == 1


def test_exchange_small_blocks_never_split_a_key():
    """With a 32 KiB target block size the 640 KB input gets one
    partition per 32 KiB (20, more than the 4 CPUs), and some
    partitions outgrow one block, since 64 buckets do not split
    evenly into 20; the sort's reduce still hands each partition to
    one kernel call, as map_groups relies on too."""
    ctx = rd.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 32 * 1024
    try:
        keys = np.random.default_rng(9).integers(0, 5_000, 40_000)
        ds = _dataset(keys, blocks=16)
        assert num_partitions(ds, 64) == 20
        assert _check_same_as_map_groups(ds, 64) > 4
    finally:
        ctx.target_max_block_size = old


def test_exchange_under_a_small_dataset_target():
    """An input whose own context targets 4 KiB blocks (what a sized
    read sets) still gets one kernel call per partition and no key in
    two calls, and equals map_groups: the sort's reduce merges each
    partition into one block whatever the target."""
    keys = np.random.default_rng(13).integers(0, 2_000, 20_000)
    ds = _dataset(keys, blocks=16)
    ds.context.target_max_block_size = 4 * 1024
    assert rd.DataContext.get_current().target_max_block_size > 4 * 1024
    assert _check_same_as_map_groups(ds, 64) == num_partitions(ds, 64)


def test_exchange_multi_key():
    """Two keys combine their hashes; the kernel sees whole (a, b)
    groups and never the bucket column."""
    rng = np.random.default_rng(11)
    t = pa.table({"a": rng.integers(0, 20, 4_000),
                  "b": pa.array([f"s{i}" for i in rng.integers(0, 7, 4_000)]),
                  "v": np.ones(4_000, dtype=np.int64)})

    def kernel(g: pa.Table) -> pa.Table:
        assert g.column_names == ["a", "b", "v"]
        return pa.TableGroupBy(g, ["a", "b"]).aggregate([("v", "sum")]) \
            .select(["a", "b", "v_sum"]).rename_columns(["a", "b", "v"])

    got = (bucket_exchange(rd.from_arrow(t), ["a", "b"], kernel)
           .to_pandas().sort_values(["a", "b"], ignore_index=True))
    exp = (t.to_pandas().groupby(["a", "b"], as_index=False)["v"].sum()
           .sort_values(["a", "b"], ignore_index=True))
    assert got.equals(exp)


def test_exchange_kernels_overlap_in_a_plan_wider_than_the_cpus():
    """Five sides, each with its own map, into an exchange whose kernel
    sleeps 0.2 s, then a second exchange over its output (a join after
    an aggregate, as in ``region_revenue``): more map operators than
    the 4 CPUs. With Ray Data's per-operator reservation each pending
    map operator held one CPU, so the first kernel's calls ran one at a
    time; on the exchange's own context they overlap. The result still
    equals map_groups."""
    rng = np.random.default_rng(17)
    tables = [pa.table({"k": rng.integers(0, 300, 2_000),
                        "v": rng.integers(0, 9, 2_000)}) for _ in range(5)]
    sides = [rd.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow")
             for t in tables]

    def sleepy(t: pa.Table) -> pa.Table:
        t0 = time.time()
        time.sleep(0.2)
        g = _per_key(t).drop_columns(["call"])
        return (g.append_column("t0", pa.array([t0] * len(g)))
                .append_column("t1", pa.array([time.time()] * len(g))))

    got = (bucket_exchange(bucket_exchange(sides, "k", sleepy), "k",
                           lambda t: t)
           .to_pandas().sort_values("k", ignore_index=True))
    calls = got.drop_duplicates(["t0", "t1"]).sort_values("t0")
    assert len(calls) == num_partitions(sides, 64) == 4
    starts, ends = calls["t0"].to_numpy(), calls["t1"].to_numpy()
    assert (starts[1:] < ends[:-1]).any(), calls
    exp = (rd.from_arrow(tables).groupby("k")
           .map_groups(_per_key, batch_format="pyarrow")
           .to_pandas().sort_values("k", ignore_index=True))
    assert got["k"].is_unique
    assert got[["k", "n", "v"]].equals(exp[["k", "n", "v"]])


def test_exchange_turns_the_reservation_off_on_its_own_context():
    """A join's exchange gets a fresh context (``union`` copies it), so
    its sides and the session keep the reservation; a single-side
    exchange shares its input's context object, so the input's later
    plans run without the reservation too."""
    ctx = rd.DataContext.get_current()
    assert ctx.op_resource_reservation_enabled
    keys = np.random.default_rng(19).integers(0, 100, 1_000)
    sides = [_dataset(keys, blocks=2), _dataset(keys, blocks=2)]
    joined = bucket_exchange(sides, "k", _per_key)
    assert not joined.context.op_resource_reservation_enabled
    assert all(s.context.op_resource_reservation_enabled for s in sides)
    single = _dataset(keys, blocks=2)
    out = bucket_exchange(single, "k", _per_key)
    assert out.context is single.context
    assert not single.context.op_resource_reservation_enabled
    assert rd.DataContext.get_current() is ctx
    assert ctx.op_resource_reservation_enabled
    assert _dataset(keys).context.op_resource_reservation_enabled


EXCHANGE_QUERIES = ["user_sessions", "event_sessions", "dedup_exact",
                    "dedup_keep", "order_revenue", "region_revenue"]


@pytest.mark.parametrize("name", EXCHANGE_QUERIES)
def test_exchange_queries_run_no_schema_probe(name, sf_dir, monkeypatch):
    """Each exchange-bound catalog query executes no Limit plan (the
    shape of a ``Dataset.schema()`` probe on a lazy input), and
    ``hash_join`` never calls ``Dataset.schema()``."""
    from ray.data._internal.logical.operators.one_to_one_operator import Limit
    from ray.data._internal.plan import ExecutionPlan

    from ves_ray.pipelines.queries import QUERIES
    from ves_ray.stages import relational

    executed = []
    for attr in ("execute", "execute_to_iterator"):
        orig = getattr(ExecutionPlan, attr)

        def recording(plan, *a, _orig=orig, **kw):
            executed.append(plan._logical_plan.dag)
            return _orig(plan, *a, **kw)

        monkeypatch.setattr(ExecutionPlan, attr, recording)

    join = relational.hash_join

    def join_without_schema(*a, **kw):
        with monkeypatch.context() as m:
            m.setattr(rd.Dataset, "schema", lambda *_a, **_k: pytest.fail(
                "hash_join called Dataset.schema()"))
            return join(*a, **kw)

    monkeypatch.setattr(relational, "hash_join", join_without_schema)

    def ops(op):
        yield op
        for dep in op.input_dependencies:
            yield from ops(dep)

    out = QUERIES[name](sf_dir)
    if isinstance(out, rd.Dataset):
        out = out.to_pandas()
    assert len(out) > 0
    assert executed
    assert not any(isinstance(o, Limit) for d in executed for o in ops(d))


def test_reservation_off_in_exchange_plans_only(sf_dir, tmp_path,
                                                monkeypatch):
    """Of the plans the six exchange-bound queries execute, exactly those
    that run an exchange kernel run without the reservation, and the
    session DataContext is unchanged after each query; a flagship
    shard's write plan (no exchange) keeps the reservation's budgets."""
    from ray.data._internal.execution.resource_manager import ResourceManager

    from ves_ray.fixtures import make_sources_table, write_sequences
    from ves_ray.pipelines.flagship import FlagshipPipeline
    from ves_ray.pipelines.queries import QUERIES

    executed = []
    init = ResourceManager.__init__

    def recording(rm, topology, *a, **kw):
        init(rm, topology, *a, **kw)
        executed.append((" ".join(op.name for op in topology),
                         rm.op_resource_allocator_enabled()))

    monkeypatch.setattr(ResourceManager, "__init__", recording)
    ctx = rd.DataContext.get_current()
    kernels = {}
    for name in EXCHANGE_QUERIES:
        start = len(executed)
        out = QUERIES[name](sf_dir)
        if isinstance(out, rd.Dataset):
            out.to_pandas()
        assert rd.DataContext.get_current() is ctx
        assert ctx.op_resource_reservation_enabled, name
        kernels[name] = sum("exchange_kernel" in ops
                            for ops, _ in executed[start:])
    # dedup_exact is one aggregate.combine, whose final runs on the
    # driver while its partials fit one block
    assert all(kernels[q] for q in EXCHANGE_QUERIES if q != "dedup_exact"), \
        kernels
    assert all(on != ("exchange_kernel" in ops) for ops, on in executed)

    executed.clear()
    in_dir = str(tmp_path / "in")
    write_sequences(in_dir, seed=5, n_rows=400, n_files=2)
    FlagshipPipeline(in_dir, make_sources_table(), str(tmp_path / "out")).run()
    writes = [on for ops, on in executed if "Write" in ops]
    assert writes and all(writes)
    assert ctx.op_resource_reservation_enabled


def test_join_reads_keep_their_own_block_target(tmp_path):
    """A join's plan runs under the union's context, a copy of the first
    side's: the exchange gives it the largest side's block target, so
    the right read (16x the left) leaves its fused task as no more
    blocks than its own ``read_blocks``, not as the 64 blocks of the
    left's target."""
    import pyarrow.parquet as pq

    from ves_ray.sources.sequences import read_blocks, read_parquet_sized

    paths = []
    for name, n in (("left", 2_000), ("right", 32_000)):
        paths.append(str(tmp_path / f"{name}.parquet"))
        pq.write_table(pa.table({"k": np.arange(n) % 500,
                                 "v": np.arange(n)}), paths[-1])
    left, right = (read_parquet_sized(p) for p in paths)

    def right_side(b: pa.Table) -> pa.Table:
        return b

    right = right.map_batches(right_side, batch_format="pyarrow")
    stats = [bucket_exchange([left, right], "k", lambda t: t)
             .materialize()._plan.stats()]
    blocks = {}
    while stats:
        s = stats.pop()
        blocks.update({op: len(m) for op, m in s.metadata.items()})
        stats.extend(s.parents)
    (n,) = [n for op, n in blocks.items() if "right_side" in op]
    assert 1 <= n <= read_blocks(32_000 * 16), blocks


def _groups_fn(g: pa.Table) -> pa.Table:
    """Per-group fn: the group's key, rows and value sum, and a check
    that the group is whole (the key's full row count)."""
    k = g["k"].unique()
    assert len(k) == 1
    return pa.table({"k": k, "n": [len(g)], "v": [pc.sum(g["v"]).as_py()]})


@pytest.mark.parametrize("batch_format", ["pyarrow"])
def test_exchange_groups_matches_map_groups(batch_format):
    """Many groups per partition and one hot group: one call per whole
    group, and the same rows as Ray's ``map_groups``."""
    rng = np.random.default_rng(23)
    keys = np.where(rng.random(8_000) < 0.5, 3, rng.integers(0, 700, 8_000))
    ds = _dataset(keys)
    got = (exchange_groups(ds, "k", _groups_fn)
           .to_pandas().sort_values("k", ignore_index=True))
    exp = (ds.groupby("k").map_groups(_groups_fn, batch_format=batch_format)
           .to_pandas().sort_values("k", ignore_index=True))
    assert got["k"].is_unique
    assert got.equals(exp)
    counts = np.unique(keys, return_counts=True)
    assert got["n"].tolist() == counts[1].tolist()


def test_exchange_groups_calls_once_per_group_never_for_empty():
    """Every key hashes into the first of four partitions: ``fn`` runs
    once per key, in key order within the partition, and no call
    sees an empty batch."""
    cand = np.arange(2_000, dtype=np.int64)
    low = cand[_bucket_of(pa.array(cand), 64) < 16][:40]
    ds = _dataset(np.repeat(low, 25))
    assert num_partitions(ds, 64) == 4

    def fn(g: pa.Table) -> pa.Table:
        assert len(g) == 25 and g.column_names == ["k", "v"]
        return pa.table({"k": g["k"].slice(0, 1), "call": [uuid.uuid4().hex]})

    got = exchange_groups(ds, "k", fn).to_pandas()
    assert len(got) == got["call"].nunique() == 40
    assert got["k"].tolist() == sorted(low.tolist())


def test_exchange_groups_two_sides_multi_key_nulls():
    """A list of sides is unioned before the exchange; a group spans
    both sides and two keys, and null keys form one group."""
    t = pa.table({"a": pa.array([1, 1, None, None, 2, 1], pa.int64()),
                  "b": ["x", "y", "x", "x", "x", "x"],
                  "v": [1, 2, 3, 4, 5, 6]})
    sides = [rd.from_arrow(t.slice(0, 3)), rd.from_arrow(t.slice(3))]

    def fn(g: pa.Table) -> pa.Table:
        return pa.table({"a": g["a"].slice(0, 1), "b": g["b"].slice(0, 1),
                         "v": [pc.sum(g["v"]).as_py()]})

    got = exchange_groups(sides, ["a", "b"], fn).to_pandas()
    got = {(None if pd.isna(a) else int(a), b): v
           for a, b, v in got.itertuples(index=False)}
    assert got == {(1, "x"): 7, (1, "y"): 2, (None, "x"): 7, (2, "x"): 5}


def test_dedup_keep_runs_a_bucket_exchange(sf_dir, monkeypatch):
    """``dedup_keep``'s pairs come from ``exchange_groups``: its plans
    run ``MapBatches(exchange_kernel)`` and Ray's sort never samples
    its boundaries (no ``_sample_block`` task)."""
    from ray.data._internal.execution.resource_manager import ResourceManager
    from ray.data._internal.planner.exchange.sort_task_spec import SortTaskSpec

    from ves_ray.pipelines.queries import QUERIES

    ops, sampled = [], []
    init, sample = ResourceManager.__init__, SortTaskSpec.sample_boundaries

    def recording(rm, topology, *a, **kw):
        init(rm, topology, *a, **kw)
        ops.extend(op.name for op in topology)

    def sampling(*a, **kw):
        sampled.append(a)
        return sample(*a, **kw)

    monkeypatch.setattr(ResourceManager, "__init__", recording)
    monkeypatch.setattr(SortTaskSpec, "sample_boundaries", sampling)
    assert len(QUERIES["dedup_keep"](sf_dir)) > 0
    assert any("MapBatches(exchange_kernel)" in op for op in ops), ops
    assert not sampled


def test_no_map_groups_in_the_package():
    """``exchange_groups`` is the one per-group path: no module of the
    package calls Ray's ``map_groups``."""
    root = pathlib.Path(__file__).resolve().parents[1] / "ves_ray"
    calls = [f"{p.relative_to(root)}:{i}"
             for p in root.rglob("*.py")
             for i, line in enumerate(p.read_text().splitlines(), 1)
             if re.search(r"\.map_groups\(", line)]
    assert not calls


def test_no_second_kernel_format():
    """Every exchange kernel takes and returns a ``pa.Table``: no module
    of the package asks for pandas batches, and neither exchange takes
    a ``batch_format``."""
    import inspect
    root = pathlib.Path(__file__).resolve().parents[1] / "ves_ray"
    calls = [f"{p.relative_to(root)}:{i}"
             for p in root.rglob("*.py")
             for i, line in enumerate(p.read_text().splitlines(), 1)
             if 'batch_format="pandas"' in line]
    assert not calls
    for fn in (bucket_exchange, exchange_groups):
        assert "batch_format" not in inspect.signature(fn).parameters


def test_exchange_on_few_keys_keeps_arrow_blocks_and_types():
    """``event_gaps`` keyed by five string event types over 64 buckets:
    one of the four partitions gets no rows, and the partition of the
    one type with a single event (no gaps) returns no rows. Every
    output block is a ``pa.Table`` whose key column is a string, the
    empty one included, never null-typed."""
    from ves_ray.stages.window import event_gaps

    names = np.array([f"type_{i}" for i in range(100)])
    part = _bucket_of(pa.array(names), 64) // 16    # 4 partitions
    lonely = names[part == 0][0]
    busy = [*names[part == 1][:2], *names[part == 2][:2]]
    types = [lonely] + busy * 3
    t = pa.table({
        "event_type": types,
        "event_id": np.arange(len(types), dtype=np.int64),
        "ts": pa.array(np.arange(len(types)) * 1_000_000,
                       pa.timestamp("us"))})
    ds = rd.from_arrow(t)
    assert num_partitions(ds, 64) == 4
    out = event_gaps(ds, key_col="event_type", num_buckets=64)
    blocks = ray.get([ref for bundle in out.iter_internal_ref_bundles()
                      for ref in bundle.block_refs])
    assert all(isinstance(b, pa.Table) for b in blocks)
    typed = [b for b in blocks if "event_type" in b.column_names]
    assert all(b.schema.field("event_type").type == pa.string()
               for b in typed)
    assert any(len(b) == 0 for b in typed)
    got = pa.concat_tables(typed).to_pandas()
    assert sorted(got["event_type"]) == sorted(busy)
    assert (got["n_gaps"] == 2).all()
