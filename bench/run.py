"""Benchmark of the zetterberg package: decide a seeded list of parameter cells
and report time to solution, per-cell latency, memory and set-up time.

    python3 bench/run.py --workload witness_sweep --seed 1 --seconds 20 --trace 0

The run is a closed loop with one client: one cell after another, in one
Python thread.  It makes a fixed number of passes over the cells, each in a
fresh worker process (bench/worker.py), so the package's caches and peak RSS
belong to one pass.  The pass count is the run length divided by the
workload's nominal pass time, so it does not depend on measured timings and
both commits of a comparison run the same passes.

--trace 0 prints the end-to-end metrics, taken over untraced passes.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, plus trace_overhead_frac, the traced wall time
over the untraced one minus 1.  The last line of standard output is one JSON
object; the lines before it repeat every figure with its unit, the failure
fraction and the environment.  The full record, spans included, is written
to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

# seconds one untraced pass takes on a 2-CPU x86-64 host (Python 3.11,
# numpy 2.4); the strata are sized to it.  witness_sweep passes are shorter,
# so that its pure-Python timings, the noisiest, get more passes per run.
NOMINAL_PASS_S = {
    "witness_sweep": 3.0,
    "verify_grid": 5.0,
    "criterion_early_exit": 5.0,
    "criterion_exhaustive": 5.0,
}
MIN_PASSES = 3
SETUP_PROBES = 6        # extra set-up-only worker starts per run
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "cell_s_p50": "s", "cell_s_tail": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "gf.generator_s": "s", "gf.pow_calls": "count", "gf.irreducible_s": "s",
    "gf.factorize_s": "s", "gf.context_s": "s", "gf.context_builds": "count",
    "gf.context_requests": "count",
    "bulk.exp_s": "s", "bulk.exp_elements": "count", "bulk.table_bytes": "bytes",
    "bulk.exp_needed_frac": "ratio", "bulk.chi_s": "s", "bulk.log_s": "s",
    "bulk.trace_s": "s", "bulk.bfs_s": "s", "bulk.bfs_space": "count",
    "bulk.bfs_levels": "count", "bulk.step_calls": "count",
    "radius.criterion_s": "s", "radius.scan_self_s": "s", "radius.oracle_self_s": "s",
    "radius.shortcut_s": "s", "radius.cap_skips": "count",
    "code.build_code_s": "s", "code.positions": "count", "code.witness_s": "s",
    "code.syndrome_s": "s",
    "charsum.quartic_pair_s": "s", "tower.subfield_s": "s",
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest nearest-rank percentile that still
    has at least 10 samples above it: the (n-10)-th smallest of n samples."""
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    rank = n - 10
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def pass_plan(workload: str, seconds: float, trace: bool) -> list[bool]:
    """Which passes are traced, in order."""
    n = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    if not trace:
        return [False] * n
    return [False, True] * max(2, n // 2)


def run_worker(cells: list, traced: bool, warmup: list = ()) -> dict:
    job = json.dumps({"cells": cells, "warmup": list(warmup), "trace": traced})
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=job, cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - spawned
    res["traced"] = traced
    return res


def environment(args) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in blas_vars},
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
    }


def summarize(passes: list[dict], setups: list[float]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    pooled = [c["seconds"] for p in plain for c in p["cells"]]
    tail_s, tail_pct, tail_n = tail(pooled)
    out = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(c["seconds"] for c in p["cells"]) for p in plain),
        "cell_s_p50": statistics.median(pooled),
        "cell_s_tail": tail_s,
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in plain),
        "tail_percentile": tail_pct,
        "tail_n": tail_n,
    }
    traced = [p for p in passes if p["traced"]]
    if traced:
        layers = {}
        for name in PER_LAYER:
            if name == "trace_overhead_frac":
                continue
            if name == "bulk.exp_needed_frac":
                vals = [p["layers"]["exp_needed"] / p["layers"]["exp_needed_base"]
                        if p["layers"]["exp_needed_base"] else 0.0 for p in traced]
            else:
                vals = [p["layers"][name] for p in traced]
            layers[name] = statistics.median(vals)
        traced_wall = statistics.median(sum(c["seconds"] for c in p["cells"]) for p in traced)
        layers["trace_overhead_frac"] = traced_wall / out["wall_s"] - 1
        layers["unattributed_s"] = statistics.median(p["layers"]["unattributed_s"] for p in traced)
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cells = workloads.draw(args.workload, args.seed)
    env = environment(args)
    try:
        run_worker([], False)  # warm-up: byte-compile and fill the file cache, untimed
        setups = [run_worker([], False)["setup_s"] for _ in range(SETUP_PROBES)]
        warmup = [workloads.warmup_cell(args.workload)]
        passes = [run_worker(cells, traced, warmup)
                  for traced in pass_plan(args.workload, args.seconds, bool(args.trace))]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups += [p["setup_s"] for p in passes]
    summary = summarize(passes, setups)

    attempted = sum(len(p["cells"]) for p in passes)
    failures = [(cells[i], c["fail"])
                for p in passes for i, c in enumerate(p["cells"]) if c["fail"]]
    env["cells"] = len(cells)
    env["passes"] = len(passes)
    print("# environment " + json.dumps(env, sort_keys=True))
    for cell, why in failures[:20]:
        print(f"# FAILED cell q0={cell['q0']} s={cell['s']} ({cell['stratum']}): {'; '.join(why)}")
    print(f"# failed_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted} cells)")
    if args.trace:
        metrics = {k: {"value": summary["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
        print(f"# unattributed_s {summary['layers']['unattributed_s']:.6g} s "
              "(cell time outside every traced layer)")
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
        print(f"# cell_s_tail is the p{summary['tail_percentile']:.1f} of n={summary['tail_n']} "
              "cell times")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "cells": cells, "summary": summary, "passes": passes,
              "strata": {st.name: st.why for st in workloads.WORKLOADS[args.workload]}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
