"""polewave benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload bound-search --seed 1 --seconds 20 --trace 0

Run from the root of a polewave checkout; the program is taken from
src/ (PYTHONPATH=src), with one BLAS thread. The workload runs in a
fresh interpreter (worker.py), so the set-up time counts from a cold
start. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0 and the per-layer metrics
when it is 1. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("bound-search", "scattering-sweep", "pole-check", "cli-session")
#: the worker is killed after this long; a run must end within 180 s
LIMIT_S = 170.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "polewave" / "__init__.py").is_file():
        print(f"error: no polewave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the same string hashes in every process, so dict and set layouts
    # do not differ from one CLI child to the next
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    watchdog = threading.Timer(LIMIT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first[:1] != ["READY"] or code != 0:
        print(f"error: worker exited with code {code}", file=sys.stderr)
        return 1
    res = json.loads(rest.strip().splitlines()[-1])
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in res["layers"].items()}
    else:
        metrics = {
            # CPU seconds of the fresh worker, from its start to READY
            "setup_s": {"value": float(first[1]), "unit": "s"},
            "cutoff_pass_ref": {"value": res["cutoff_pass_ref"], "unit": "ref"},
            "tail_pass_ref": {"value": res["tail_pass_ref"], "unit": "ref"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def unit(name: str) -> str:
    if name.endswith("_s") or name == "calib.s":
        return "s"
    if name.endswith("share"):
        return "share"
    if name == "numerov.ns_per_node_step":
        return "ns"
    if name == "numerov.computed_bytes":
        return "B_computed"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
