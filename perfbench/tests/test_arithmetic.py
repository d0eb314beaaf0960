"""Tests of the benchmark's own arithmetic and output checks.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""
import math

import pytest

import stats
import tracer
from tracer import Patcher, Tracer, covered_time, self_time


# ---------------- self time ----------------

def test_self_time_overlapping_children():
    # children overlap on [3, 4] and one runs past the parent's end
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert covered_time(0.0, 10.0, children) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)
    assert self_time(0.0, 10.0, children, aggregated_child_s=1.0) == pytest.approx(2.0)


def test_self_time_nested_and_disjoint_children():
    assert covered_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(6.0)
    assert covered_time(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 0.0
    assert self_time(0.0, 10.0, []) == 10.0


def test_tracer_self_time_excludes_spans_and_aggregated_calls(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(tracer, "clock", lambda: float(next(ticks)))
    tr = Tracer()

    def hot():
        return None
    hot = tr.aggregate("hot")(hot)
    child = tr.span("child")(lambda: hot())

    def parent():
        hot()
        child()
        return hot()
    tr.span("parent")(parent)()

    spans = tr.span_totals()
    # clock reads: parent 0, hot 1-2, child 3, hot 4-5, child 6, hot 7-8, parent 9
    assert spans["parent"] == [1, 9.0, 9.0 - 3.0 - 2.0]
    assert spans["child"] == [1, 3.0, 2.0]
    assert tr.aggregate_totals("hot") == [3, 3.0, 3.0]
    assert tr.aggregate_totals("hot", caller="parent") == [2, 2.0, 2.0]
    assert tr.aggregate_totals("hot", caller="child") == [1, 1.0, 1.0]


def test_tracer_run_ids_and_patch_undo():
    import types

    class Sc:
        kind = "step"

    mod = types.ModuleType("mrhydro._perfbench_fake")
    mod.run = lambda sc: inner()
    tr = Tracer()
    inner = tr.span("inner")(lambda: None)
    import sys
    sys.modules[mod.__name__] = mod
    try:
        original = mod.run
        with Patcher() as patch:
            patch.function(mod, "run", tr.span("run", new_run=True))
            mod.run(Sc())
            mod.run(Sc())
            assert mod.run is not original
        assert mod.run is original
    finally:
        del sys.modules[mod.__name__]
    assert list(tr.span_run) == [0, 0, 1, 1]
    assert tr.run_kind == {0: "step", 1: "step"}
    assert list(tr.span_parent) == [-1, 0, -1, 2]


# ---------------- tail percentile ----------------

@pytest.mark.parametrize("n, p", [(11, 9), (20, 50), (45, 77), (100, 90), (125, 92), (189, 94)])
def test_tail_percentile_leaves_ten_beyond(n, p):
    samples = list(range(n, 0, -1))
    got_p, value = stats.tail_percentile(samples)
    assert got_p == p
    assert sum(s > value for s in samples) >= stats.TAIL_BEYOND
    # one percentile higher would leave fewer than ten beyond
    k = math.ceil((p + 1) * n / 100)
    assert n - k < stats.TAIL_BEYOND


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(range(10))


# ---------------- failure counting ----------------

def test_failed_frac():
    assert stats.failed_frac(46, 0) == 0.0
    assert stats.failed_frac(46, 2) == pytest.approx(2 / 46)
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(3, 4)


def test_close_and_same():
    assert stats.close(1.0, 1.0 + 1e-12, 1e-9)
    assert not stats.close(1.0, 1.0 + 1e-6, 1e-9)
    assert stats.close(None, None, 1e-9) and not stats.close(None, 1.0, 1e-9)
    assert stats.close(math.nan, math.nan, 1e-9) and not stats.close(math.nan, 1.0, 1e-9)
    assert stats.same(math.nan, math.nan) and not stats.same(0.0, -1e-300)


def _matrix_case():
    import json
    from pathlib import Path
    import workloads as wl
    ref = json.loads((Path(wl.__file__).parent / "reference.json").read_text())["matrix"]
    outputs = {"rows": {n: list(v) for n, v in ref["rows"].items()},
               "checks": dict(ref["checks"])}
    runs = {n: ([(0.0, 0.1, 1.0, None)] * len(wl.RUN_CELLS), []) for n in wl.ROWS}
    return wl, ref, outputs, runs


def test_matrix_check_passes_on_reference_values():
    wl, ref, outputs, runs = _matrix_case()
    ops = wl.check_matrix(outputs, runs, {}, ref, 0.0)
    assert len(ops) == len(wl.ROWS) * len(wl.RUN_CELLS) + 1
    assert all(op.ok for op in ops)


def test_matrix_check_counts_injected_mismatches():
    wl, ref, outputs, runs = _matrix_case()
    # a 1e-6 relative change of the lqgi 5 Hz deviation fails its one run
    cells = outputs["rows"]["lqgi"]
    cells[wl.CELLS.index("dev_5hz_10")] *= 1.0 + 1e-6
    # an aborted open_loop step run and a flipped verdict fail too
    runs["open_loop"] = ([(0.0, 0.1, 1.0, "FloatingPointError: x")] + runs["open_loop"][0][1:],
                         [])
    label = next(iter(outputs["checks"]))
    outputs["checks"][label] = not outputs["checks"][label]
    ops = wl.check_matrix(outputs, runs, {}, ref, 0.0)
    failed = [op for op in ops if not op.ok]
    assert len(failed) == 3
    assert stats.failed_frac(len(ops), len(failed)) == pytest.approx(3 / len(ops))


def test_matrix_check_fails_every_run_of_a_raising_row():
    wl, ref, outputs, runs = _matrix_case()
    outputs["rows"]["pid_slave"] = None
    runs["pid_slave"] = (runs["pid_slave"][0][:2], [])
    ops = wl.check_matrix(outputs, runs, {"pid_slave": "PlantError: x"}, ref, 0.0)
    assert sum(not op.ok for op in ops) == len(wl.RUN_CELLS)


def test_sweep_pass_detects_a_reread_mismatch(tmp_path, monkeypatch):
    import workloads as wl
    from mrhydro import sim
    ctx, _ = wl.setup("sweep", 0, 1, None, str(tmp_path))
    inp = {"runs": [("pid_master", 8.0, 5)]}
    assert all(op.ok for op in wl.sweep_pass(ctx, inp).ops)

    read = sim.read_trace_csv

    def corrupted(path):
        trace = read(path)
        trace.torque[-1] += 1.0
        return trace
    monkeypatch.setattr(sim, "read_trace_csv", corrupted)
    ops = wl.sweep_pass(ctx, inp).ops
    assert [op.ok for op in ops] == [False]
    assert "re-read" in ops[0].why
    assert list(tmp_path.iterdir()) == []


# ---------------- speed scale ----------------

def test_speed_scale_and_sampler_clock():
    import time
    import speed
    assert speed.scale([speed.NOMINAL_KERNEL_S] * 3) == pytest.approx(1.0)
    assert speed.scale([2 * speed.NOMINAL_KERNEL_S]) == pytest.approx(0.5)
    with speed.SpeedSampler() as sampler:
        t0, w0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 0.35:
            pass
        t1, w1 = time.perf_counter(), sampler.clock()
        inside = list(sampler.samples)
    # the kernel sampled inside the interval, and the check before it, are
    # not counted as work
    assert len(inside) >= 2
    spent = (t1 - t0) - (w1 - w0)
    assert sum(inside) <= spent <= sum(inside) + 5e-3 * len(inside)
    assert len(sampler.samples) >= speed.MIN_SAMPLES


def _busy_child():
    import subprocess
    import sys
    code = "import sys; b = bytearray(64 << 20); print(1, flush=True)\nwhile True: pass"
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
    child.stdout.readline()
    return child


def test_sampler_skips_while_a_child_process_runs():
    import time
    import proctree
    import speed
    assert not proctree.others_running()
    child = _busy_child()
    try:
        assert proctree.others_running()
        with speed.SpeedSampler() as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.35:
                pass
            inside = len(sampler.samples)
    finally:
        child.kill()
        child.wait()
    assert inside == 0 and sampler.skipped >= 2
    assert len(sampler.samples) == speed.MIN_SAMPLES   # taken after the work


# ---------------- memory ----------------

def test_tree_rss_counts_child_processes():
    import proctree
    alone = proctree.tree_rss_kb()
    child = _busy_child()
    try:
        with proctree.TreeRss() as tree:
            pass
    finally:
        child.kill()
        child.wait()
    assert tree.peak_kb - alone > 60 << 10
    assert proctree.peak_rss_mb(tree) * 1024 >= tree.peak_kb
