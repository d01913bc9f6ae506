"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship parse→enrich→route→aggregate pipeline on
/root/testdata/sf0.001; ``queries()``/``oracle_sql()`` expose the
operator catalog (ves_ray.pipelines.queries) for the DuckDB
correctness gate at sf0.01.

Ray is initialised by the driver BEFORE this module is imported:
nothing here (or in ves_ray) calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline over sf0.001 documents (adapted to the
    sequences shape) plus the deterministic synthetic fixtures; returns
    the per-route aggregate table."""
    from ves_ray.pipelines.flagship import run_flagship
    from ves_ray.pipelines.queries import testdata_lookup

    out_dir = tempfile.mkdtemp(prefix="ves_entry_")
    in_dir = os.path.join(out_dir, "in")

    # materialize sf0.001 documents as sequences-shaped fragments
    import ray.data  # noqa: F401  (session owned by the driver)
    from ves_ray.sources.sequences import documents_as_sequences
    ds = documents_as_sequences("/root/testdata/sf0.001")
    ds.write_parquet(in_dir)

    res = run_flagship(in_dir, testdata_lookup(), os.path.join(out_dir, "out"))
    return res["route_counts"]


def queries() -> dict[str, Callable[[str], Any]]:
    from ves_ray.pipelines.queries import QUERIES
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from ves_ray.pipelines.queries import ORACLE_SQL
    return dict(ORACLE_SQL)


def invariants() -> dict[str, str]:
    """For each rows-only (no-oracle) queries() entry: the one-line
    machine-checked invariant its callable asserts internally
    (ves_ray/pipelines/invariants.py). Disable with
    VES_CHECK_INVARIANTS=0 (bench.py does, for timing purity)."""
    from ves_ray.pipelines.queries import INVARIANTS
    return dict(INVARIANTS)
