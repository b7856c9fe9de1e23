"""One benchmark pass, run by bench/run.py in a fresh process.

Reads {"cells": [...], "warmup": [...], "trace": bool} as JSON on stdin,
imports the package from the checkout's src/, decides the warm-up cells
untimed, then decides every cell in order, checks each outcome,
and prints one JSON line: the monotonic time at which the package was ready,
per-cell seconds and failures, peak RSS and, when traced, the per-layer
totals and the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    import zetterberg
    zetterberg.load_caps()
    ready = time.monotonic()
    if Path(zetterberg.__file__).resolve().parent.parent != SRC.resolve():
        print(f"zetterberg imported from {zetterberg.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from zetterberg import _bulk, charsum, code, errors, gf, radius, thresholds, tower
    import tracing  # the script's own directory is first on sys.path
    import workloads

    zb = SimpleNamespace(gf=gf, bulk=_bulk, radius=radius, code=code, charsum=charsum,
                         tower=tower, thresholds=thresholds, errors=errors)
    rho_shortcuts = radius.rho_shortcuts  # the check must not show up in the trace
    for cell in job["warmup"]:
        workloads.run_cell(cell, zb)
    tracer = None
    run_cell = workloads.run_cell
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer, zb)
        run_cell = tracer.wrap(tracing.ROOT_SPAN, run_cell)

    cells = job["cells"]
    outcomes, seconds = [], []
    for i, cell in enumerate(cells):
        if tracer is not None:
            tracer.cell = i
        t0 = time.perf_counter()
        try:
            outcome = run_cell(cell, zb)
        except Exception as exc:  # a failed cell is recorded and the pass goes on
            outcome = {"error": f"{type(exc).__name__}: {exc}",
                       "traceback": traceback.format_exc(limit=3)}
        seconds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.cell = None
            tracing.record_exp_needed(tracer, outcome)
        outcomes.append(outcome)

    results = []
    for cell, outcome, dt in zip(cells, outcomes, seconds):
        shortcut = None
        if cell["kind"] in ("verify", "rho") and "error" not in outcome:
            shortcut = rho_shortcuts(cell["q0"], cell["s"])
        results.append({"seconds": dt, "fail": workloads.check_cell(cell, outcome, shortcut),
                        "traceback": outcome.get("traceback")})

    out = {
        "ready": ready,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cells": results,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
