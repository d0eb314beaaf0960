"""The mrhydro functions the traced run wraps, and the per-layer metrics.

Layers are the program's modules: plant, controllers, synthesis, sim and
analysis.  config and cli only parse and echo settings and are not timed.
Every metric is per pass of the workload (traced totals divided by the
number of traced passes) unless it is a ratio or a per-call figure.
"""
from __future__ import annotations

import os

from mrhydro import analysis, controllers, plant, sim, synthesis

from tracer import Patcher, Tracer

VARIANTS = controllers.CONTROLLER_NAMES
RUN_KINDS = ("step", "sine_dwell", "backdrive")


def _step_name(args) -> str:
    ctl = args[0]
    if isinstance(ctl, controllers.OpenLoopController):
        return "controllers.step." + ("friction_comp" if ctl.friction_comp else "open_loop")
    if isinstance(ctl, controllers.PidController):
        return "controllers.step.pid_" + ctl.config.feedback_tap
    return "controllers.step.lqgi"


def _count_tick(tr, args, cmd) -> None:
    tr.counters["ticks"] += 1
    if cmd.saturated:
        tr.counters["saturated_ticks"] += 1


def _count_csv_bytes(tr, args, _) -> None:
    path = args[1]
    tr.counters["csv_bytes"] += os.path.getsize(path) + os.path.getsize(f"{path}.meta.json")


def _count_frf_points(tr, args, _) -> None:
    tr.counters["frf_points"] += len(args[2])


def install(patcher: Patcher, tr: Tracer) -> None:
    """Wrap every traced function; patcher.undo() removes them again."""
    P = plant.Plant
    for name in ("rk4_step", "derivative", "mr_torque_from_current"):
        patcher.method(P, name, tr.aggregate(f"plant.{name}"))
    patcher.method(P, "current_from_torque", tr.span("plant.current_from_torque"))
    for cls in (controllers.OpenLoopController, controllers.PidController,
                controllers.LqgiController):
        patcher.method(cls, "step", tr.span(_step_name, after=_count_tick))
    patcher.function(controllers, "pressure_command_frf",
                     tr.span("controllers.pressure_command_frf", after=_count_frf_points))
    for name in ("make_controller", "linear_pid_bandwidth", "calibrate_pid_defaults",
                 "lqgi_closed_loop_frf"):
        patcher.function(controllers, name, tr.span(f"controllers.{name}"))
    patcher.function(synthesis, "solve_care", tr.span("synthesis.solve_care"))
    patcher.function(synthesis, "synthesize", tr.span("synthesis.synthesize"))
    patcher.function(sim, "run_scenario",
                     tr.span("sim.run_scenario", new_run=True))
    patcher.method(sim.SimTrace, "to_csv", tr.span("sim.to_csv", after=_count_csv_bytes))
    patcher.function(sim, "read_trace_csv", tr.span("sim.read_trace_csv"))
    for name in ("fit_sine", "frf_from_sine_dwell", "step_metrics", "torque_deviation",
                 "comparison_report"):
        patcher.function(analysis, name, tr.span(f"analysis.{name}"))


def _per_call_us(total_s: float, calls: float) -> float:
    return total_s / calls * 1e6 if calls else 0.0


def layer_metrics(tr: Tracer, results: list, overhead_s: float) -> dict:
    """name -> (value, unit) for every per-layer metric.

    results are the traced passes; their abort counts and checked CARE
    residuals come from the workload's own wrappers.
    """
    spans = tr.span_totals()
    per = 1.0 / len(results)

    def sp(name):
        return spans.get(name, [0, 0.0, 0.0])

    m = {}
    rk4 = tr.aggregate_totals("plant.rk4_step")
    m["plant.rk4_step.calls"] = (rk4[0] * per, "count")
    m["plant.rk4_step.self_s"] = (rk4[2] * per, "s")
    m["plant.rk4_step.us_per_call"] = (_per_call_us(rk4[1], rk4[0]), "us")
    m["plant.derivative.calls"] = (tr.aggregate_totals("plant.derivative")[0] * per, "count")
    cft = sp("plant.current_from_torque")
    m["plant.current_from_torque.calls"] = (cft[0] * per, "count")
    m["plant.current_from_torque.us_per_call"] = (_per_call_us(cft[1], cft[0]), "us")
    mr = tr.aggregate_totals("plant.mr_torque_from_current")
    mr_inv = tr.aggregate_totals("plant.mr_torque_from_current", caller="plant.current_from_torque")
    m["plant.mr_torque_from_current.calls"] = (mr[0] * per, "count")
    m["plant.mr_calls_per_inversion"] = (mr_inv[0] / cft[0] if cft[0] else 0.0, "count")

    for v in VARIANTS:
        st = sp(f"controllers.step.{v}")
        m[f"controllers.step.us_per_call.{v}"] = (_per_call_us(st[2], st[0]), "us")
        m[f"controllers.step.calls.{v}"] = (st[0] * per, "count")
    m["controllers.make_controller.s"] = (sp("controllers.make_controller")[1] * per, "s")
    ticks = tr.counters["ticks"]
    m["controllers.saturated_frac"] = (tr.counters["saturated_ticks"] / ticks if ticks else 0.0,
                                       "frac")
    pcf = sp("controllers.pressure_command_frf")
    m["controllers.pressure_command_frf.calls"] = (pcf[0] * per, "count")
    m["controllers.pressure_command_frf.points"] = (tr.counters["frf_points"] * per, "count")
    m["controllers.pressure_command_frf.self_s"] = (pcf[2] * per, "s")
    m["controllers.linear_pid_bandwidth.calls"] = (sp("controllers.linear_pid_bandwidth")[0] * per,
                                                   "count")
    m["controllers.calibrate_pid_defaults.s"] = (sp("controllers.calibrate_pid_defaults")[1] * per,
                                                 "s")
    m["controllers.lqgi_closed_loop_frf.s"] = (sp("controllers.lqgi_closed_loop_frf")[1] * per, "s")

    care = sp("synthesis.solve_care")
    m["synthesis.solve_care.calls"] = (care[0] * per, "count")
    m["synthesis.solve_care.self_s"] = (care[2] * per, "s")
    m["synthesis.solve_care.max_residual"] = (
        max((x for r in results for x in r.care_residuals), default=0.0), "1")
    m["synthesis.synthesize.s"] = (sp("synthesis.synthesize")[1] * per, "s")

    run = sp("sim.run_scenario")
    substeps = tr.substeps_by_run()
    m["sim.run_scenario.calls"] = (run[0] * per, "count")
    m["sim.run_scenario.self_s"] = (run[2] * per, "s")
    m["sim.substeps"] = (sum(n for r, n in substeps.items() if r >= 0) * per, "count")
    run_nid = tr.name_id("sim.run_scenario")
    kind_steps = dict.fromkeys(RUN_KINDS, 0)
    kind_time = dict.fromkeys(RUN_KINDS, 0.0)
    for i, nid in enumerate(tr.span_name):
        if nid == run_nid:
            kind = tr.run_kind[tr.span_run[i]]
            if kind in kind_steps:
                kind_steps[kind] += substeps.get(tr.span_run[i], 0)
                kind_time[kind] += tr.span_end[i] - tr.span_start[i]
    for kind in RUN_KINDS:
        rate = kind_steps[kind] / kind_time[kind] if kind_time[kind] > 0.0 else 0.0
        m[f"sim.substeps_per_s.{kind}"] = (rate, "1/s")
    m["sim.aborted"] = (sum(r.aborted for r in results) * per, "count")
    m["sim.to_csv.s"] = (sp("sim.to_csv")[1] * per, "s")
    m["sim.to_csv.bytes"] = (tr.counters["csv_bytes"] * per, "bytes")
    m["sim.read_trace_csv.s"] = (sp("sim.read_trace_csv")[1] * per, "s")

    fit = sp("analysis.fit_sine")
    m["analysis.fit_sine.calls"] = (fit[0] * per, "count")
    m["analysis.fit_sine.self_s"] = (fit[2] * per, "s")
    m["analysis.frf_from_sine_dwell.self_s"] = (sp("analysis.frf_from_sine_dwell")[2] * per, "s")
    for name in ("step_metrics", "torque_deviation", "comparison_report"):
        m[f"analysis.{name}.s"] = (sp(f"analysis.{name}")[1] * per, "s")
    m["bench.trace_overhead_s"] = (overhead_s, "s")
    return m
