"""Self-test of the benchmark: every workload once on tiny inputs.

    python3 perfbench/selftest.py

For each workload, untraced and traced: the run exits 0, its last line
has exactly the metric names and units of BENCHMARK.json, no operation
failed, and no process of any session is left. Then a flagship run
whose operation cap is too short must still exit 0 in time, with the
failure counted and no process left; and the benchmark copied into a
directory without the program must fail without printing a result.
Takes about five minutes on a 4-core host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

from run import TOKEN_VAR, WORK_REL, _proc_pids  # noqa: E402
from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS  # noqa: E402


def run(args: list[str], cwd: str = ROOT, timeout: float = 180.0):
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=timeout)
    return p, time.monotonic() - t0


def session_leftovers() -> list[int]:
    out = []
    for pid in _proc_pids():
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                if f"{TOKEN_VAR}=".encode() in f.read():
                    out.append(pid)
        except OSError:
            pass
    return out


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == END_TO_END_UNITS, "BENCHMARK.json end_to_end != run.py's")
    check(per_layer == PER_LAYER_UNITS, "BENCHMARK.json per_layer != run.py's")
    check({w["name"] for w in bench["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names a workload run.py does not have")

    for name in WORKLOADS:
        for trace, units in ((0, e2e), (1, per_layer)):
            p, took = run(["--workload", name, "--seed", "3", "--seconds",
                           "1", "--trace", str(trace), "--size", "tiny"])
            check(p.returncode == 0, f"{name} trace={trace}: exit "
                  f"{p.returncode}\n{p.stderr[-3000:]}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(res)}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units, f"{name} trace={trace}: metrics {got}")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{name} trace={trace}: {res['failed']} of "
                  f"{res['attempted']} failed\n{p.stderr[-3000:]}")
            check(not session_leftovers(), f"{name}: session processes left")
            print(f"ok  {name:15s} trace={trace}  {took:5.1f} s  "
                  f"{res['attempted']} ops")

    p, took = run(["--workload", "flagship_batch", "--seed", "3", "--seconds",
                   "1", "--trace", "0", "--size", "tiny", "--op-cap", "0.05"])
    res = json.loads(p.stdout.strip().splitlines()[-1])
    check(p.returncode == 0 and res["failed"] >= 1 and not res["correct"],
          f"capped run: {res}")
    check(took < 180 and not session_leftovers(),
          "capped run: too slow, or session processes left")
    print(f"ok  operation cap kills the session  {took:5.1f} s")

    bare = os.path.join(ROOT, WORK_REL, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        p, took = run(["--workload", "flagship_batch", "--seed", "3",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(p.returncode != 0 and not p.stdout.strip() and took < 180,
          f"run without the program: exit {p.returncode}, {p.stdout!r}")
    print("ok  fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
