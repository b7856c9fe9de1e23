"""Every metric of every workload in one table:

    python3 bench/report.py --seed 1 --seconds 20

Runs bench/run.py once untraced and once traced per workload, each in a
fresh process, prints each metric by name and unit with failed_frac and the
tail's sample count, names the layer with the largest self time per
workload, and writes the table to bench/out/report.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def bench_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["summary"] = record["summary"]
    result["environment"] = record["environment"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)

    table = {}
    for w in workloads.WORKLOADS:
        plain = bench_once(w, args.seed, args.seconds, 0)
        traced = bench_once(w, args.seed, args.seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        layers = traced["metrics"]
        self_times = {k: v["value"] for k, v in layers.items()
                      if k.endswith("_s") and k != "radius.criterion_s"}
        table[w] = {
            "environment": plain["environment"],
            "failed_frac": failed / attempted,
            "tail_n": plain["summary"]["tail_n"],
            "tail_percentile": plain["summary"]["tail_percentile"],
            "end_to_end": plain["metrics"],
            "per_layer": layers,
            "largest_self_time": max(self_times, key=self_times.get),
        }

    env = next(iter(table.values()))["environment"]
    print(f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"commit {env['commit']}  seed {args.seed}  BLAS threads env {env['blas_threads_env']}")
    for w, row in table.items():
        print(f"\n== {w}  ({row['environment']['cells']} cells, failed_frac {row['failed_frac']:.6g}, "
              f"largest self time: {row['largest_self_time']})")
        for name, m in row["end_to_end"].items():
            print(f"  {name:26s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'  (tail is p%.1f of n=%d)' % (row['tail_percentile'], row['tail_n'])}")
        for name, m in row["per_layer"].items():
            print(f"  {name:26s} {m['value']:14.6g} {m['unit']}")
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "report.json").write_text(json.dumps(table, indent=1))
    return 0 if all(row["failed_frac"] == 0 for row in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
