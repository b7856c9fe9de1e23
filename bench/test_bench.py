"""Tests of the benchmark itself (not of the package):

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        [0, None, 0, "root", 0.0, 10.0],
        [1, 0, 0, "a", 1.0, 4.0],
        [2, 1, 0, "c", 2.0, 3.0],
        [3, 0, 0, "b", 5.0, 9.0],
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_counts_overlapping_children_once():
    spans = [[0, None, 0, "root", 0.0, 10.0],
             [1, 0, 0, "a", 1.0, 6.0],
             [2, 0, 0, "b", 4.0, 8.0]]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_parent_and_cell():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    tr.cell = 7
    assert outer(1) == 4
    (o_id, o_parent, o_cell, o_name, *_), (i_id, i_parent, i_cell, i_name, *_) = tr.spans
    assert (o_name, o_parent, o_cell) == ("outer", None, 7)
    assert (i_name, i_parent, i_cell) == ("inner", o_id, 7)


def _cell(kind, expected, q0=13, s=3):
    return {"q0": q0, "s": s, "kind": kind, "expected": expected, "stratum": "t"}


def test_checker_flags_wrong_rho():
    cell = _cell("rho", 3)
    assert workloads.check_cell(cell, {"rho": 3}, None) == []
    assert workloads.check_cell(cell, {"rho": 2}, None) == ["rho 2 != recorded 3"]


def test_checker_flags_shortcut_disagreement_and_errors():
    cell = _cell("verify", 3)
    assert workloads.check_cell(cell, {"rho": 3, "half_full": True}, (3, "even s")) == []
    assert len(workloads.check_cell(cell, {"rho": 3}, (2, "s<=s^*"))) == 1
    assert workloads.check_cell(cell, {"rho": 3, "half_full": False}, None) != []
    assert workloads.check_cell(cell, {"error": "FormulaMismatch: x"}, None) == ["FormulaMismatch: x"]


def test_checker_flags_bad_witness_and_count():
    w = _cell("witness", None)
    assert workloads.check_cell(w, {"weight": 3, "syndrome": 0}, None) == []
    assert len(workloads.check_cell(w, {"weight": 4, "syndrome": 5}, None)) == 2
    c = _cell("count", 24)
    assert workloads.check_cell(c, {"count": 24}, None) == []
    assert workloads.check_cell(c, {"count": 23}, None) != []


@pytest.mark.parametrize("n, rank", [(11, 1), (20, 10), (88, 78)])
def test_tail_order_statistic(n, rank):
    values = list(range(n, 0, -1))  # n..1, unsorted on purpose
    value, pct, count = run.tail(values)
    assert value == rank and count == n
    assert pct == pytest.approx(100.0 * rank / n)
    assert sum(v > value for v in values) == 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_draw_is_deterministic_across_processes():
    for w in workloads.WORKLOADS:
        assert workloads.draw(w, 5) == workloads.draw(w, 5)
    code = ("import json, workloads; print(json.dumps({w: workloads.draw(w, 5) "
            "for w in workloads.WORKLOADS}))")
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {w: workloads.draw(w, 5) for w in workloads.WORKLOADS}


def test_workloads_have_enough_distinct_cells():
    for w, strata in workloads.WORKLOADS.items():
        for st in strata:
            assert len(set(st.members)) == len(st.members) >= st.draw, st.name
        cells = workloads.draw(w, 1)
        assert len(cells) >= 20, w
        assert len({(c["q0"], c["s"], c["kind"]) for c in cells}) == len(cells)
        assert w in run.NOMINAL_PASS_S
        warm = workloads.WARMUP[w]
        assert all(warm[:2] != m[:2] for st in strata for m in st.members), w
    assert workloads.draw("witness_sweep", 1) != workloads.draw("witness_sweep", 2)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    produced = set(tracing.layer_metrics(tracing.Tracer()))
    derived = {"bulk.exp_needed_frac", "trace_overhead_frac"}
    assert set(run.PER_LAYER) - derived <= produced
