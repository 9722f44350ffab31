#!/usr/bin/env python3
"""Run one parvault benchmark workload for one seed.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 15 --trace 0

With --trace 0 the run sets up its world seven times (three on sharing;
setup_s is the median), then runs whole rounds until their timed phases
add up to --seconds, checking each round's outputs after it. The checks
run in a forked child process, so that what they allocate stays out of
peak_rss_MiB. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"} with
every end-to-end metric. The line before it, {"info": ...}, holds the
per-operation medians and tails and any problems found.

With --trace 1 the run starts three fresh processes of this script in
turn, each setting up once and running the workload's fixed number of
rounds (workloads.TRACE_ROUNDS): untraced, with the tracer's wrappers
installed, untraced again. Their outputs and bus trace hashes must be
identical; the result holds the per-layer metrics of the traced process,
and the info line the tracing overhead (traced wall time over the mean
of the untraced ones, minus one). The spans go to .perfbench/spans/.

The program is imported from src/ next to this directory; without it the
run exits 2 and prints no result.
"""

import os

# numpy's BLAS and OpenMP pools: one thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

try:
    import parvault  # noqa: E402
except ImportError as exc:
    print(f"error: cannot import parvault from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)
if Path(parvault.__file__).resolve().parent != ROOT / "src" / "parvault":
    print(f"error: parvault imported from {parvault.__file__}, not from "
          f"{ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

from tracer import Tracer  # noqa: E402
from workloads import TRACE_ROUNDS, WORKLOADS, Ops  # noqa: E402

TAIL_LADDER = (99.9, 99, 95, 90, 75)
CHILD_TIMEOUT_S = 85


def tail(values):
    """(percentile, value): the highest percentile of the ladder with at
    least ten samples beyond it; None below 40 samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[math.ceil(pct * n / 100) - 1]
    return None


def run_pass(name, seed, seconds=None, rounds=None, tracer=None):
    """Set up and run rounds; returns the workload and the timings.

    A measured run (rounds=None) sets up workload.setup_reps times: once
    before the first round, whose world the rounds use, then once after
    each round's checks until the count is reached, so the set-up samples
    are spread over the run.
    """
    ops = Ops(tracer)
    wl = WORKLOADS[name](seed, ops)
    reps = 1 if rounds is not None else wl.setup_reps
    setup_s = []

    def timed_setup():
        t0 = time.perf_counter()
        world = wl.setup()
        setup_s.append(time.perf_counter() - t0)
        return world

    if tracer is not None:
        tracer.install()
    try:
        wl.adopt(timed_setup())
        round_s = []
        while True:
            _set_active(tracer, False)
            wl.prepare(len(round_s))
            _set_active(tracer, True)
            t0 = time.perf_counter()
            wl.round(len(round_s))
            round_s.append(time.perf_counter() - t0)
            _set_active(tracer, False)
            in_child(wl, wl.check, len(round_s) - 1)
            if len(setup_s) < reps:
                timed_setup()
            if rounds is not None and len(round_s) >= rounds:
                break
            if rounds is None and sum(round_s) >= seconds:
                break
        in_child(wl, wl.finish)
        while len(setup_s) < reps:
            timed_setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wl, setup_s, round_s


def in_child(wl, step, *args):
    """Run a check step of the workload in a forked child process.

    RUSAGE_SELF counts no children, so what the checks allocate (copies of
    the cloud state, mpmath codebooks) stays out of peak_rss_MiB. The
    child sends back the operations it found wrong, the notes it folded
    into the output digest and the fields named in wl.CHECK_STATE; it
    leaves the program's state in this process as the rounds left it.
    """
    ops = wl.ops
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                ops.log = []
                step(*args)
                out = (ops.log, {k: getattr(wl, k) for k in wl.CHECK_STATE},
                       None)
            except Exception:
                out = (None, None, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(out, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"check process exited {code}")
    log, state, error = pickle.loads(data)
    if error is not None:
        raise RuntimeError(f"check raised in its child process:\n{error}")
    ops.replay(log)
    for k, v in state.items():
        setattr(wl, k, v)


def _set_active(tracer, on):
    if tracer is not None:
        tracer.active = on


def summarize(wl, setup_s, round_s):
    recs = wl.ops.records

    def kind(k):
        return [r for r in recs if r["kind"] == k]

    store, access = kind("store"), kind("access")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "store_ms": (statistics.median(r["s"] for r in store) * 1e3, "ms"),
        "access_ms": (statistics.median(r["s"] for r in access) * 1e3, "ms"),
        "round_s": (statistics.median(round_s), "s"),
        "store_MiBps": (sum(r["bytes"] for r in store)
                        / sum(r["s"] for r in store) / 2**20, "MiB/s"),
        "access_MiBps": (sum(r["bytes"] for r in access)
                         / sum(r["s"] for r in access) / 2**20, "MiB/s"),
        "cloud_expansion": (wl.cloud_expansion(), "x"),
        "peak_rss_MiB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    groups = {}
    for r in recs:
        key = r["kind"] if r["tag"] is None or r["kind"] == "store" \
            else f"{r['kind']}:{r['tag']}"
        groups.setdefault(key, []).append(r["s"] * 1e3)
    op_stats = {}
    for key, ms in sorted(groups.items()):
        row = {"n": len(ms), "median_ms": statistics.median(ms)}
        t = tail(ms)
        if t is not None:
            row[f"p{t[0]:g}_ms"] = t[1]
        op_stats[key] = row
    by_tag = {}
    for r in store:
        if r["tag"] is not None:
            by_tag.setdefault(r["tag"], []).append(r["s"] * 1e3)
    info = {"rounds": len(round_s), "setup_s_all": setup_s,
            "ops": op_stats,
            "store_ms_by_receivers": {str(t): statistics.median(v)
                                      for t, v in sorted(by_tag.items())},
            "problems": wl.ops.problems[:20]}
    return {
        "correct": not any(r["wrong"] for r in recs),
        "attempted": len(recs),
        "failed": sum(1 for r in recs if r["failed"] or r["wrong"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }, info


def measured(args):
    wl, setup_s, round_s = run_pass(args.workload, args.seed,
                                    seconds=args.seconds)
    result, info = summarize(wl, setup_s, round_s)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


def one_pass(args):
    """A child of a traced run: fixed rounds, with or without tracing."""
    tracer = Tracer() if args.pass_ == "traced" else None
    wl, setup_s, round_s = run_pass(args.workload, args.seed,
                                    rounds=TRACE_ROUNDS[args.workload],
                                    tracer=tracer)
    out = {"wall_s": sum(setup_s) + sum(round_s),
           "digest": wl.ops.digest.hexdigest(),
           "trace_hashes": wl.trace_hashes,
           "attempted": len(wl.ops.records),
           "failed": sum(1 for r in wl.ops.records
                         if r["failed"] or r["wrong"]),
           "wrong": any(r["wrong"] for r in wl.ops.records),
           "problems": wl.ops.problems[:20]}
    if tracer is not None:
        out["per_layer"] = tracer.per_layer()
        spans = STATE / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        path = spans / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        out["spans"] = str(path.relative_to(ROOT))
        out["span_count"] = len(tracer.spans)
    print(json.dumps(out))


def traced(args):
    """Untraced, traced, untraced again, each in a fresh process; the
    overhead compares the traced pass with the mean of the two others."""
    passes = []
    for which in ("plain", "traced", "plain"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1",
             "--pass", which],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            cwd=str(ROOT))
        if proc.returncode != 0:
            print(f"error: {which} pass exited {proc.returncode}",
                  file=sys.stderr)
            sys.exit(1)
        passes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    trc = passes[1]
    plain_s = (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2
    same_outputs = len({p["digest"] for p in passes}) == 1
    same_trace = all(p["trace_hashes"] == trc["trace_hashes"]
                     for p in passes)
    info = {"rounds": TRACE_ROUNDS[args.workload],
            "same_outputs": same_outputs, "same_trace_hash": same_trace,
            "untraced_s": [passes[0]["wall_s"], passes[2]["wall_s"]],
            "traced_s": trc["wall_s"],
            "overhead": trc["wall_s"] / plain_s - 1,
            "spans": trc["spans"], "span_count": trc["span_count"],
            "problems": [m for p in passes for m in p["problems"]]}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": same_outputs and same_trace
        and not any(p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": trc["per_layer"]}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.trace == 1 and args.pass_ is None:
        traced(args)
        return
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    try:
        if args.pass_ is not None:
            one_pass(args)
        else:
            measured(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
