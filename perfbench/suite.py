#!/usr/bin/env python3
"""Run every workload, each in its own fresh process, and write one
results file.

    python3 perfbench/suite.py                      # seed 1, 15 s per run
    python3 perfbench/suite.py --seeds 1,2,3 --seconds 15

For each workload and seed it runs `run.py --trace 0` (the end-to-end
metrics), then once per workload `run.py --trace 1` on the first seed (the
per-layer metrics and the tracing overhead). run.py itself holds the
BLAS and OpenMP pools of every process at one thread. The results file,
.perfbench/results.json unless --out says otherwise, holds the commit, the
Python version, nproc, and per workload the operations attempted and
failed, the end-to-end metrics of each run, their medians, and the traced
run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(ROOT / ".perfbench" /
                                             "results.json"))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    results = {"commit": _commit(), "python": platform.python_version(),
               "nproc": os.cpu_count(), "run_seconds": args.seconds,
               "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            res = _run(workload, seed, args.seconds, 0)
            runs.append(dict(res, seed=seed))
            print(f"{workload} seed {seed}: attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']}",
                  flush=True)
        medians = {m: statistics.median(r["metrics"][m]["value"]
                                        for r in runs)
                   for m in runs[0]["metrics"]}
        traced = _run(workload, seeds[0], args.seconds, 1)
        results["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end_median": medians,
            "runs": runs,
            "traced": traced,
        }
        for m, v in medians.items():
            print(f"  {m:16s} {v:14.4f}")
        print(f"  tracing overhead {traced['info']['overhead']:.1%}",
              flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
