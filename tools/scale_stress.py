"""Scale-stress evidence (round-4 verdict item 1): convert the
100x-design claims into measured fact.

Three phases, each writing its section of STRESS_r04.json:

1. ``flagship``: the headline pipeline over a 20M-sequence corpus
   (100x the sf0.1 bench rows) with bounded ``shard_size=64`` and
   ``split_fragment_rows=50_000`` active — the checkpointed-waves
   configuration a 100 TB run would use. Records wall + tokens/s to
   compare against the sf0.1 rate (flat-scaling criterion: within
   ~20%).
2. ``resume``: at the same scale, a bounded run (``max_shards`` =
   half the shards) followed by a resume run must reproduce the
   uninterrupted run's aggregates EXACTLY (the crash-mid-run
   correctness criterion).
3. ``queries``: the heaviest catalog operators at synthetic sf1
   (tools/make_scaled_sf.py, 10x sf0.1 with preserved fan-outs and
   dup rates) vs sf0.1 — wall ratio << 10 evidences that the fixed
   exchange overhead amortizes (region_revenue item 7).

Usage:
    python tools/scale_stress.py [flagship|resume|queries|all]

Owns its Ray session (tool entry point). Results land in
STRESS_r04.json at the repo root; BASELINE.md summarizes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

STRESS_ROWS = int(os.environ.get("VES_STRESS_ROWS", "20000000"))
STRESS_FILES = int(os.environ.get("VES_STRESS_FILES", "128"))
SHARD_SIZE = 64
SPLIT_ROWS = 50_000
SEED = 1234

HEAVY_QUERIES = ["region_revenue", "order_revenue", "minhash_pairs",
                 "dedup_keep", "value_percent_rank", "dedup_exact",
                 "curated_corpus", "user_sessions", "ngram_jaccard",
                 "purchase_prior_view", "log_pipeline", "events_hourly",
                 "decontaminate", "token_counts", "embedding_topk",
                 "ann_ivf_topk"]

OUT_PATH = os.path.join(REPO, "STRESS_r04.json")


def _load() -> dict:
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH) as f:
            return json.load(f)
    return {}


def _save(rec: dict) -> None:
    with open(OUT_PATH, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)


def corpus_dir() -> str:
    d = f"/tmp/ves_stress_input-{SEED}-{STRESS_ROWS}-{STRESS_FILES}"
    marker = os.path.join(d, "_complete")
    if not os.path.exists(marker):
        from ves_ray.fixtures import write_sequences
        shutil.rmtree(d, ignore_errors=True)
        print(f"generating {STRESS_ROWS} rows x {STRESS_FILES} files ...")
        write_sequences(d, seed=SEED, n_rows=STRESS_ROWS,
                        n_files=STRESS_FILES)
        open(marker, "w").write("ok")
    return d


def _init_ray(num_cpus: int = 32):
    import ray
    from ves_ray.tuning import tune_memory_allocator
    tune_memory_allocator()
    ray.init(address="local", num_cpus=num_cpus,
             include_dashboard=False, logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray


def _mk_pipe(in_dir: str, out_dir: str):
    from ves_ray.fixtures import make_sources_table
    from ves_ray.pipelines.flagship import FlagshipPipeline
    return FlagshipPipeline(in_dir, make_sources_table(), out_dir,
                            min_rows_per_file=200_000,
                            shard_size=SHARD_SIZE,
                            shard_parallelism=int(os.environ.get(
                                "VES_STRESS_SHARD_PAR", "1")),
                            split_fragment_rows=SPLIT_ROWS)


def _route_counts_df(res: dict):
    return res["route_counts"].to_pandas() \
        .sort_values("route", ignore_index=True)


def phase_flagship() -> dict:
    in_dir = corpus_dir()
    ray = _init_ray()
    # warmup pass grows worker heaps to steady state (bench.py doc)
    warm = tempfile.mkdtemp(prefix="ves_stress_warm_")
    _mk_pipe(in_dir, warm).run()
    shutil.rmtree(warm, ignore_errors=True)

    out = tempfile.mkdtemp(prefix="ves_stress_out_")
    t0 = time.perf_counter()
    res = _mk_pipe(in_dir, out).run()
    wall = time.perf_counter() - t0
    rc = _route_counts_df(res)
    rec = _load()
    rec["flagship_20m"] = {
        "rows": res["rows"], "tokens": res["tokens"],
        "shards": len(res.get("shards", [])),
        "shard_size": SHARD_SIZE, "split_fragment_rows": SPLIT_ROWS,
        "num_files": STRESS_FILES, "num_cpus": 32,
        "wall_s": round(wall, 2),
        "sequences_per_s": round(res["rows"] / wall, 1),
        "tokens_per_s": round(res["tokens"] / wall, 1),
        "loadavg_after": round(os.getloadavg()[0], 1),
    }
    # keep the reference aggregates for the resume phase
    rc.to_json("/tmp/ves_stress_ref_counts.json", orient="records")
    _save(rec)
    shutil.rmtree(out, ignore_errors=True)
    ray.shutdown()
    print(json.dumps(rec["flagship_20m"]))
    return rec["flagship_20m"]


def phase_resume() -> dict:
    import pandas as pd
    in_dir = corpus_dir()
    ray = _init_ray()
    out = tempfile.mkdtemp(prefix="ves_stress_resume_")
    pipe = _mk_pipe(in_dir, out)
    # actual shard count from the pipeline's own planner
    _, pending = pipe.plan()
    n_shards = len(pipe._shards(pending))
    t0 = time.perf_counter()
    res1 = pipe.run(max_shards=max(1, n_shards // 2))
    t_bounded = time.perf_counter() - t0
    stopped = bool(res1.get("stopped_early"))
    remaining = res1.get("remaining_fragments")
    # resume in a FRESH pipeline object (as a restarted process would)
    t0 = time.perf_counter()
    res2 = _mk_pipe(in_dir, out).run()
    t_resume = time.perf_counter() - t0
    rc = _route_counts_df(res2)
    ref = pd.read_json("/tmp/ves_stress_ref_counts.json",
                       orient="records") \
        .sort_values("route", ignore_index=True)
    identical = rc.reset_index(drop=True).equals(ref.reset_index(drop=True))
    rec = _load()
    rec["resume_20m"] = {
        "bounded_stopped_early": stopped,
        "remaining_after_bounded": remaining,
        "bounded_wall_s": round(t_bounded, 2),
        "resume_wall_s": round(t_resume, 2),
        "rows_total": res2["rows"] + res1["rows"],
        "aggregates_identical_to_unbounded": bool(identical),
    }
    _save(rec)
    shutil.rmtree(out, ignore_errors=True)
    ray.shutdown()
    print(json.dumps(rec["resume_20m"]))
    return rec["resume_20m"]


def phase_queries() -> dict:
    ray = _init_ray()
    from ves_ray.pipelines.queries import QUERIES
    sf1 = os.environ.get("VES_SF1_DIR", "/tmp/ves_sf1")
    if not os.path.exists(os.path.join(sf1, "_complete")):
        raise SystemExit(f"run tools/make_scaled_sf.py first ({sf1})")
    out = {}
    for name in HEAVY_QUERIES:
        fn = QUERIES[name]
        walls = {}
        for tag, d in [("sf0.1", "/root/testdata/sf0.1"), ("sf1", sf1)]:
            t0 = time.perf_counter()
            try:
                r = fn(d)
                if hasattr(r, "to_pandas"):
                    r = r.to_pandas()
                walls[tag] = round(time.perf_counter() - t0, 2)
                walls[f"rows_{tag}"] = len(r)
            except Exception as ex:
                walls[tag] = None
                walls[f"error_{tag}"] = repr(ex)[:200]
        if walls.get("sf0.1") and walls.get("sf1"):
            walls["ratio"] = round(walls["sf1"] / walls["sf0.1"], 2)
        out[name] = walls
        print(name, json.dumps(walls))
    rec = _load()
    rec["queries_sf1_vs_sf01"] = {
        "sf1_dir": sf1, "scale_factor": 10, "num_cpus": 32,
        "note": "ratio << 10 = fixed exchange overhead amortizes; "
                "ratio ~ 10 = already compute-bound (linear)",
        "queries": out}
    _save(rec)
    ray.shutdown()
    return out


def main() -> None:
    phase = sys.argv[1] if len(sys.argv) > 1 else "all"
    if phase in ("flagship", "all"):
        phase_flagship()
    if phase in ("resume", "all"):
        phase_resume()
    if phase in ("queries", "all"):
        phase_queries()


if __name__ == "__main__":
    main()
