"""Slices of the benchmark's own passes, checked against its reference.

perfbench/workloads.py checks every output of a pass against
perfbench/reference.json (matrix cells and design values within 1e-9) or
against invariants.  Running a small slice of each workload here makes a
change that moves a cell, or that drops a name or keyword the benchmark
calls, fail this suite and not only a benchmark run.
"""
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
        yield workloads


@pytest.fixture(scope="module")
def ctx(workloads, tmp_path_factory):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    ctx, _ = workloads.setup("matrix", 1, 1, reference, str(tmp_path_factory.mktemp("bench")))
    return ctx


def failures(ops) -> list:
    return [op.why for op in ops if not op.ok]


def test_matrix_rows_match_reference(workloads, ctx):
    inp = workloads.make_inputs("matrix", 1, 1)[0]
    order = ["open_loop", "lqgi"]
    res = workloads.matrix_pass(ctx, {**inp, "order": order})
    # one operation per run of every row, then the report
    per_row = len(workloads.RUN_CELLS)
    assert len(res.ops) == len(workloads.ROWS) * per_row + 1
    ops = [op for name in order
           for op in res.ops[workloads.ROWS.index(name) * per_row:][:per_row]]
    assert len(ops) == 16
    assert failures(ops) == []


def test_design_slice_matches_reference(workloads, ctx):
    weights = workloads.make_inputs("design", 1, 1)[0]["weights"][:2]
    res = workloads.design_pass(ctx, {"weights": weights})
    # two weight evaluations, the PID calibration, the synth checks, the LQGI bandwidth
    assert len(res.ops) == 5
    assert failures(res.ops) == []


def test_sweep_run_reads_back_equal(workloads, ctx):
    runs = workloads.make_inputs("sweep", 1, 1)[0]["runs"][:1]
    res = workloads.sweep_pass(ctx, {"runs": runs})
    assert len(res.ops) == 1 and failures(res.ops) == []
    assert len(res.outputs["runs"]) == 1
