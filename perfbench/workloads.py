"""Workload inputs, passes and output checks.

Each workload is a list of passes made from the seed.  A pass runs the
program and times it; its operations are checked afterwards against the
recorded reference (perfbench/reference.json, written by
record_reference.py on the seed commit) or against invariants.  An
operation fails if it raises, aborts or fails its check.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from mrhydro import analysis, controllers, sim, synthesis
from mrhydro.plant import Plant, build_state_space

from stats import close, same
from tracer import Patcher

# Wall seconds of one pass on a 2-core x86 box.  A run makes a fixed number
# of passes, round(seconds / nominal) and at least one, so both commits of
# a comparison do the same work whatever their speed.
NOMINAL_PASS_S = {"matrix": 22.0, "design": 14.0, "sweep": 9.0}

REL_TOL = 1e-9          # recorded-value match, as for bit-identity gates
CARE_TOL = synthesis.CARE_RESIDUAL_TOL
DC_TOL = 1e-6

# Every third point of the 13-point dwell grid from 3.16 Hz on (3.16, 10,
# 31.6, 100 Hz) keeps one pass of the five-row matrix inside one run of the
# benchmark.  The full grid's dwells at 1-2.2 Hz alone are 32 s of 65 s of
# simulated time per row; without them the 6 s 1 Hz backdrive cells are
# the long runs of a pass.
MATRIX_FREQS = tuple(sim.FRF_GRID_DEFAULT[3::3])
ROWS = tuple(analysis.REFERENCE_RESULTS)
CELLS = ("bandwidth", "rise_ms", "overshoot", "dev_1hz_0", "dev_1hz_10", "dev_5hz_10")
# cells fed by each run of a row, in measure_controller_row's order
RUN_CELLS = ((("rise_ms", "overshoot"),) + (("bandwidth",),) * len(MATRIX_FREQS)
             + (("dev_1hz_0",), ("dev_1hz_10",), ("dev_5hz_10",)))

# the 3000-point grid mrhydro synth and the PID calibration use
DESIGN_GRID = np.logspace(math.log10(0.05), math.log10(400.0), 3000)
DESIGN_EVALS = 16         # seeded LQGI weight evaluations per design pass
WEIGHT_SPREAD = 0.5       # decades either side of the published weights
SWEEP_RUNS = 25           # noisy step runs per sweep pass, 5 per variant
SWEEP_TORQUE = (4.0, 12.0)  # step amplitude range [N.m]


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def make_inputs(workload: str, seed: int, n_passes: int) -> list:
    """Per-pass inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_passes):
        if workload == "matrix":
            out.append({"order": [ROWS[i] for i in rng.permutation(len(ROWS))],
                        "scenario_seed": int(rng.integers(2**31))})
        elif workload == "design":
            rho = 1e-4 * 10.0 ** rng.uniform(-WEIGHT_SPREAD, WEIGHT_SPREAD, DESIGN_EVALS)
            rho_i = 1e3 * 10.0 ** rng.uniform(-WEIGHT_SPREAD, WEIGHT_SPREAD, DESIGN_EVALS)
            out.append({"weights": [(float(a), float(b)) for a, b in zip(rho, rho_i)]})
        elif workload == "sweep":
            variants = np.repeat(controllers.CONTROLLER_NAMES,
                                 SWEEP_RUNS // len(controllers.CONTROLLER_NAMES))
            rng.shuffle(variants)
            amps = rng.uniform(*SWEEP_TORQUE, len(variants))
            seeds = rng.integers(2**31, size=len(variants))
            out.append({"runs": [(str(v), float(a), int(s))
                                 for v, a, s in zip(variants, amps, seeds)]})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return out


@dataclass
class Context:
    """Program objects built at set-up, shared by every pass."""

    plant: Plant
    ss: object               # linear design model of the plant
    gains: synthesis.GainSet
    reference: dict | None   # None while recording the reference
    workdir: str
    clock: object = time.perf_counter   # what passes time their work with


def setup(workload: str, seed: int, n_passes: int, reference, workdir: str):
    plant = Plant()
    ctx = Context(plant=plant, ss=build_state_space(plant.params),
                  gains=synthesis.synthesize(), reference=reference, workdir=workdir)
    return ctx, make_inputs(workload, seed, n_passes)


@dataclass
class Op:
    latency_s: float
    ok: bool
    why: str = ""
    start: float = 0.0        # on the context clock


@dataclass
class PassResult:
    wall_s: float
    ops: list
    outputs: dict
    sim_s: float = 0.0        # simulated seconds
    runs: list = field(default_factory=list)   # (start, latency s) per run
    aborted: int = 0          # runs that returned an aborted trace
    care_residuals: list = field(default_factory=list)   # of every checked CARE solution


class RunProbe:
    """Times every sim.run_scenario call and keeps its abort reason."""

    def __init__(self, clock):
        self.records = []  # (start, latency s, simulated s, aborted)
        self.clock = clock

    def wrapper(self, fn):
        records, clock = self.records, self.clock

        def run_scenario(sc, *args, **kw):
            t0 = clock()
            trace = fn(sc, *args, **kw)
            records.append((t0, clock() - t0, sc.total_duration(), trace.aborted))
            return trace
        return run_scenario


class CareCapture:
    """Keeps every solve_care call so its certificate can be re-checked."""

    def __init__(self):
        self.calls = []

    def wrapper(self, fn):
        calls = self.calls

        def solve_care(*args, **kw):
            p = fn(*args, **kw)
            calls.append((args[:4], p))
            return p
        return solve_care

    def take_residuals(self) -> list:
        out = [synthesis.care_residual(*a, p) for a, p in self.calls]
        self.calls.clear()
        return out


def _why(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------- matrix ----------------

def matrix_pass(ctx: Context, inp: dict) -> PassResult:
    """Five comparison rows with default gains, then comparison_report."""
    probe, clock = RunProbe(ctx.clock), ctx.clock
    rows, row_runs, errors = {}, {}, {}
    with Patcher() as patch:
        patch.function(sim, "run_scenario", probe.wrapper)
        t0 = clock()
        for name in inp["order"]:
            first = len(probe.records)
            hook_aborts = []

            def hook(label, obj, first=first, hook_aborts=hook_aborts):
                if isinstance(obj, sim.SimTrace) and obj.aborted:
                    hook_aborts.append(len(probe.records) - 1 - first)
            try:
                rows[name] = sim.measure_controller_row(
                    name, plant=ctx.plant, gains=ctx.gains, frf_freqs=MATRIX_FREQS,
                    seed=inp["scenario_seed"], trace_hook=hook)
            except Exception as exc:  # a raising row fails all its runs
                errors[name] = _why(exc)
            row_runs[name] = (probe.records[first:], hook_aborts)
        t1 = clock()
        try:
            report = analysis.comparison_report(rows)
        except Exception as exc:
            report, errors["report"] = None, _why(exc)
        t2 = clock()

    outputs = {
        "rows": {n: [getattr(rows[n], c) for c in CELLS] if n in rows else None
                 for n in ROWS},
        "checks": dict(report.checks) if report is not None else None,
    }
    ref = ctx.reference["matrix"] if ctx.reference is not None else None
    return PassResult(wall_s=t2 - t0, ops=check_matrix(outputs, row_runs, errors, ref, t2 - t1),
                      outputs=outputs, sim_s=sum(r[2] for r in probe.records),
                      runs=[r[:2] for r in probe.records],
                      aborted=sum(bool(r[3]) for r in probe.records))


def check_matrix(outputs: dict, row_runs: dict, errors: dict, ref: dict | None,
                 report_s: float) -> list:
    """One operation per run of every row, plus the comparison report.

    row_runs maps a row to its (start, latency, simulated s, aborted) records
    and the run indices trace_hook saw aborted.  A run fails if it aborted,
    its row raised, or a cell it feeds differs from the reference; the
    report fails if a verdict differs.  ref None accepts every value.
    """
    ops = []
    for name in ROWS:
        records, hook_aborts = row_runs.get(name, ([], []))
        cells_out = outputs["rows"][name]
        if ref is None:
            bad_cells = set()
        elif cells_out is None:
            bad_cells = set(CELLS)
        else:
            bad_cells = {c for c, v, r in zip(CELLS, cells_out, ref["rows"][name])
                         if not close(v, r, REL_TOL)}
        for i, cells in enumerate(RUN_CELLS):
            if i >= len(records):
                ops.append(Op(0.0, False, f"{name} run {i}: {errors.get(name, 'not run')}"))
                continue
            _, latency, _, aborted = records[i]
            why = ""
            if aborted or i in hook_aborts:
                why = f"{name} run {i} aborted: {aborted}"
            elif name in errors:
                why = f"{name}: {errors[name]}"
            elif bad_cells & set(cells):
                why = f"{name} {sorted(bad_cells & set(cells))} differ from the reference"
            ops.append(Op(latency, not why, why))
        if len(records) > len(RUN_CELLS):
            ops.append(Op(0.0, False, f"{name}: {len(records)} runs, expected {len(RUN_CELLS)}"))
    why = errors.get("report", "")
    if not why and ref is not None and outputs["checks"] != ref["checks"]:
        why = "comparison_report verdicts differ from the reference"
    ops.append(Op(report_s, not why, why))
    return ops


# ---------------- design ----------------

def _timed(clock, fn):
    """(result, start, latency, failure reason) of one operation."""
    t0 = clock()
    try:
        return fn(), t0, clock() - t0, ""
    except Exception as exc:
        return None, t0, clock() - t0, _why(exc)


def _certificate_why(residuals) -> str:
    bad = [r for r in residuals if not r <= CARE_TOL]
    return f"CARE residual {max(bad):.3e} > {CARE_TOL:.0e}" if bad else ""


def _gain_margins(ctx):
    ss = ctx.ss
    return tuple(
        controllers.gain_margin_db(
            controllers.pid_loop_gain(ctx.plant, ss, cfg, DESIGN_GRID, with_delay=False),
            DESIGN_GRID)
        for cfg in (controllers.PID_MASTER_DEFAULT, controllers.PID_SLAVE_DEFAULT))


def _closed_loop(ss, gains):
    eig_max = float(np.linalg.eigvals(synthesis.closed_loop_matrix(ss, gains)).real.max())
    return eig_max, synthesis.closed_loop_dc_gain(ss, gains)


def _loop_why(eig_max, dc) -> str:
    if not eig_max < 0.0:
        return f"closed loop not Hurwitz (max Re {eig_max:.3g})"
    if not abs(dc - 1.0) <= DC_TOL:
        return f"closed-loop DC gain {dc!r} not 1 +- {DC_TOL:.0e}"
    return ""


def _lqgi_bandwidth(ctx, gains):
    resp = controllers.lqgi_closed_loop_frf(ctx.plant, ctx.ss, gains, DESIGN_GRID)
    mag = 20.0 * np.log10(np.abs(resp))
    phase = np.degrees(np.unwrap(np.angle(resp)))
    return analysis.bandwidth([analysis.FrfPoint(float(f), float(m), float(p))
                               for f, m, p in zip(DESIGN_GRID, mag, phase)])


def design_pass(ctx: Context, inp: dict) -> PassResult:
    """Weight evaluations around the PID calibration, synth checks and LQGI FRF.

    The evaluations are split in two halves around the long calibration,
    so their latencies sample the whole pass.
    """
    ref = ctx.reference["design"] if ctx.reference is not None else None
    capture = CareCapture()
    ops, out, evaluations, residuals = [], {}, [], []
    clock = ctx.clock

    def certificate_why() -> str:
        taken = capture.take_residuals()
        residuals.extend(taken)
        return _certificate_why(taken)

    def mismatch(label, value, key):
        if ref is not None and not close(value, ref[key], REL_TOL):
            return f"{label} {value!r} differs from the reference {ref[key]!r}"
        return ""

    def evaluate_weights(pairs):
        for rho, rho_i in pairs:
            capture.calls.clear()

            def evaluate(rho=rho, rho_i=rho_i):
                gains = synthesis.synthesize(
                    weights=synthesis.CostWeights(rho=rho, rho_i=rho_i))
                return (gains.K_ff,) + _closed_loop(ctx.ss, gains) + (_lqgi_bandwidth(ctx, gains),)
            res, t0, dt, why = _timed(clock, evaluate)
            if not why:
                evaluations.append(res)
                why = certificate_why() or _loop_why(*res[1:3])
            ops.append(Op(dt, not why, f"rho={rho:.4g} rho_i={rho_i:.4g}: {why}" if why else "",
                          t0))

    half = len(inp["weights"]) // 2
    with Patcher() as patch:
        patch.function(synthesis, "solve_care", capture.wrapper)
        t0 = clock()
        evaluate_weights(inp["weights"][:half])

        pids, t_op, dt, why = _timed(
            clock, lambda: controllers.calibrate_pid_defaults(ctx.plant, ctx.ss))
        if not why:
            out["ki_master"], out["ki_slave"] = pids[0].ki, pids[1].ki
            why = (mismatch("master ki", pids[0].ki, "ki_master")
                   or mismatch("slave ki", pids[1].ki, "ki_slave"))
        ops.append(Op(dt, not why, why, t_op))

        def synth_checks():
            capture.calls.clear()
            gains = synthesis.synthesize()
            return (gains,) + _closed_loop(ctx.ss, gains) + _gain_margins(ctx)
        res, t_op, dt, why = _timed(clock, synth_checks)
        if not why:
            gains, eig_max, dc, gm_m, gm_s = res
            out.update(K=[float(v) for v in gains.K], K_ff=gains.K_ff,
                       L=[float(v) for v in np.ravel(gains.L)], dc_gain=dc,
                       eig_max=eig_max, gm_master=gm_m, gm_slave=gm_s)
            why = (certificate_why() or _loop_why(eig_max, dc)
                   or mismatch("K_ff", gains.K_ff, "K_ff")
                   or mismatch("gain margin master", gm_m, "gm_master")
                   or mismatch("gain margin slave", gm_s, "gm_slave"))
            if not why and ref is not None:
                for key in ("K", "L"):
                    if not all(close(a, b, REL_TOL) for a, b in zip(out[key], ref[key])):
                        why = f"{key} differs from the reference"
        ops.append(Op(dt, not why, why, t_op))

        bw, t_op, dt, why = _timed(clock, lambda: _lqgi_bandwidth(ctx, ctx.gains))
        if not why:
            out["lqgi_bandwidth"] = bw
            why = mismatch("LQGI linear bandwidth", bw, "lqgi_bandwidth")
        ops.append(Op(dt, not why, why, t_op))

        evaluate_weights(inp["weights"][half:])
        wall = clock() - t0
    out["evaluations"] = evaluations
    return PassResult(wall_s=wall, ops=ops, outputs=out,
                      runs=[(op.start, op.latency_s) for op in ops], care_residuals=residuals)


# ---------------- sweep ----------------

def sweep_pass(ctx: Context, inp: dict) -> PassResult:
    """Noisy short step runs, each written, read back and scored twice."""
    ops, out, runs = [], [], []
    sim_s, aborted = 0.0, 0
    clock = ctx.clock
    t0 = clock()
    for i, (variant, amp, seed) in enumerate(inp["runs"]):
        path = os.path.join(ctx.workdir, f"sweep_{i}.csv")
        sc = sim.step_scenario(variant, amplitude=amp, seed=seed, noise=True)
        t_op = clock()
        try:
            trace = sim.run_scenario(sc, gains=ctx.gains)
            trace.to_csv(path)
            back = sim.read_trace_csv(path)
            mem, disk = analysis.step_metrics(trace), analysis.step_metrics(back)
            why = ""
        except Exception as exc:
            trace, why = None, _why(exc)
        latency = clock() - t_op
        for p in (path, f"{path}.meta.json"):
            if os.path.exists(p):
                os.remove(p)
        if not why:
            sim_s += sc.total_duration()
            runs.append((t_op, latency))
            fields = ("rise_time_63", "overshoot", "final_value", "reliable")
            m = [getattr(mem, f) for f in fields]
            if trace.aborted:
                aborted += 1
                why = f"run aborted: {trace.aborted}"
            elif not all(same(a, getattr(disk, f)) for a, f in zip(m, fields)):
                why = "step metrics of the re-read trace differ from the in-memory ones"
            out.append([variant, seed] + m)
        ops.append(Op(latency, not why, f"{variant} seed {seed}: {why}" if why else ""))
    return PassResult(wall_s=clock() - t0, ops=ops, outputs={"runs": out},
                      sim_s=sim_s, runs=runs, aborted=aborted)


PASSES = {"matrix": matrix_pass, "design": design_pass, "sweep": sweep_pass}
