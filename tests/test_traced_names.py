"""The benchmark's traced pass still finds every program name it wraps.

`bench/tracing.py` replaces functions, methods and module globals of the
package by name.  This runs its `install` and one cell of each workload kind
in a fresh process (the wrappers are never removed), so a renamed or deleted
traced name fails here instead of in a traced benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys
from types import SimpleNamespace
src, bench, cells = sys.argv[1:]
sys.path[:0] = [src, bench]
from zetterberg import _bulk, charsum, code, errors, gf, radius, thresholds, tower
import tracing, workloads

zb = SimpleNamespace(gf=gf, bulk=_bulk, radius=radius, code=code, charsum=charsum,
                     tower=tower, thresholds=thresholds, errors=errors)
tracer = tracing.Tracer()
tracing.install(tracer, zb)
run_cell = tracer.wrap(tracing.ROOT_SPAN, workloads.run_cell)
fails = []
for i, (q0, s, kind, expected) in enumerate(json.loads(cells)):
    cell = {"q0": q0, "s": s, "kind": kind, "expected": expected, "stratum": "test"}
    tracer.cell = i
    fails += workloads.check_cell(cell, run_cell(cell, zb), None)
print(json.dumps({"fails": fails, "layers": tracing.layer_metrics(tracer),
                  "spans": sorted({span[3] for span in tracer.spans})}))
"""

# (q0, s, kind, expected): one small cell of each kind, both criterion parities
CELLS = [(7, 1, "witness", None), (3, 2, "verify", 3), (19, 3, "rho", 2),
         (4, 3, "rho", 2), (9, 3, "count", 36)]


def test_tracing_installs_and_runs_every_cell_kind():
    r = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
                        json.dumps(CELLS)], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["fails"] == []
    assert {"cell", "gf.context", "code.build_code", "code.witness", "code.syndrome",
            "radius.oracle", "radius.criterion", "bulk.exp"} <= set(out["spans"])
    layers = out["layers"]
    assert layers["code.positions"] > 0 and layers["gf.pow_calls"] > 0
    assert layers["bulk.exp_elements"] > 0 and layers["bulk.table_bytes"] > 0
