"""The flowforms benchmark: one workload per call, whole runs of
flowforms.runner.run in fresh single-threaded processes.

Usage (from the repository root):
    python3 benchmarks/bench.py --workload tg_advect --seed 1 \
        --seconds 40 --trace 0

--trace 0 repeats the workload untraced, in fresh processes, for about
--seconds and reports the end-to-end metrics: medians over the repeats,
step percentiles over the pooled steps of all repeats. --trace 1 runs
the workload once untraced and once traced and reports the per-layer
metrics of the traced run, with the tracing overhead. The last line of
standard output is the result as JSON; the line before it is the full
record, also written to .bench_out/BENCH_<workload>_trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0     # every call must end within 180 s
MIN_REPEATS = 5        # fresh processes per --trace 0 call, at the least


def spawn(workload, tag, trace, deadline):
    """One worker process; returns its result dict."""
    out_dir = os.path.join(OUT, f"{workload.name}-{tag}")
    shutil.rmtree(out_dir, ignore_errors=True)
    req = {"spec": asdict(workload), "out_dir": out_dir, "trace": trace,
           "spans_path": os.path.join(OUT, f"spans_{workload.name}.json")}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(req)],
            env={**os.environ, **THREAD_ENV}, cwd=ROOT, capture_output=True,
            text=True, timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload.name}: worker ran past {DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"{workload.name}: worker failed\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_hash():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def percentile(values, q):
    """q-th percentile, linear between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed, seconds, trace):
    """Run the workload; returns (result, record): the result line and the
    record of everything else that describes the run."""
    os.makedirs(OUT, exist_ok=True)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    runs = []
    if trace:
        # same steps and Picard sweeps, traced and untraced; the seed only
        # sets which of the two runs first
        order = [False, True]
        random.Random(seed).shuffle(order)
        pair = {t: spawn(workload, f"trace{int(t)}", t, deadline)
                for t in order}
        runs = [pair[False], pair[True]]
        traced = pair[True]
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in traced["layers"].items()}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - pair[False]["wall_s"], "unit": "s"}
        mismatch = [f"traced run differs in {key}"
                    for key in ("steps", "picard_iters")
                    if pair[True][key] != pair[False][key]]
        order = ["traced" if t else "untraced" for t in order]
        layer_times = traced["layer_times"]
    else:
        # identical repeats: there is nothing for the seed to reorder
        order, mismatch, last, layer_times = [], [], 0.0, None
        while len(runs) < MIN_REPEATS or (
                time.perf_counter() + last <= start + seconds):
            if runs and time.perf_counter() + last > deadline - 10.0:
                break
            t0 = time.perf_counter()
            runs.append(spawn(workload, len(runs), False, deadline))
            last = time.perf_counter() - t0
        steps = [d for r in runs for d in r["step_ms"]]
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
            "step_ms.p50": (statistics.median(steps), "ms"),
            "step_ms.p90": (percentile(steps, 90), "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                            "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    problems = mismatch + [p for r in runs for p in r["problems"]]
    first = runs[0]
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "order": order, "repeats": len(runs),
        "step_samples": sum(len(r["step_ms"]) for r in runs),
        "steps_per_run": workload.steps,
        "picard_iters_per_run": first["picard_iters"],
        "per_run": {k: [r[k] for r in runs]
                    for k in ("wall_s", "setup_s", "peak_rss_mb")},
        "threads": THREAD_ENV, "nproc": os.cpu_count(),
        "cpus": len(os.sched_getaffinity(0)),
        "versions": first["versions"], "git": git_hash(),
        "dofs": first["dofs"], "problems": problems,
        # traced runs: layer -> [calls, inclusive s, self s], every layer
        "layers": layer_times,
    }
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flowforms", "runner.py")):
        sys.exit(f"flowforms sources not found under {ROOT}/src")
    workload = WORKLOADS[args.workload]
    result, record = measure(workload, args.seed, args.seconds,
                             bool(args.trace))
    with open(os.path.join(
            OUT, f"BENCH_{workload.name}_trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
