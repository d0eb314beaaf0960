"""Command-line entry point: synth, run, frf, report.

Every output directory gets the resolved configuration (with its hash and
seed) written next to the results so any run can be reproduced exactly
from its own artifacts.  Only run takes a scenario section; the other
commands run fixed scenarios and refuse one.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, controllers, sim, synthesis
from .config import ConfigError, RunConfig, load_run_config
from .plant import Plant, PlantError, build_state_space, write_json
from .sim import FRF_GRID_DEFAULT


def _resolve(args) -> RunConfig:
    overrides: dict = {}
    if getattr(args, "controller", None):
        overrides["controller"] = args.controller
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out_dir", None):
        overrides["output_dir"] = args.out_dir
    flags = {"freq": "backdrive_freq", "cmd_torque": "torque_command",
             "amplitude": "torque_amplitude", "kind": "kind"}   # run flag -> scenario field
    scenario_over = {key: getattr(args, flag) for flag, key in flags.items()
                     if getattr(args, flag, None) is not None}
    if scenario_over:
        overrides["scenario"] = scenario_over
    return load_run_config(getattr(args, "config", None), overrides)


def _make_gains(cfg: RunConfig):
    return synthesis.synthesize(cfg.plant_params(), cfg.cost_weights(),
                                cfg.noise_covariances())


def _controller_kwargs(cfg: RunConfig) -> dict:
    return {"dither": cfg.dither_config(), "pid_master": cfg.pid_config("pid_master"),
            "pid_slave": cfg.pid_config("pid_slave")}


def cmd_synth(cfg: RunConfig, outdir: Path, args) -> int:
    params = cfg.plant_params()
    ss = build_state_space(params)
    gains = _make_gains(cfg)
    gains.save(outdir / "gains.json")

    cl = synthesis.closed_loop_matrix(ss, gains)
    ev = np.linalg.eigvals(cl)
    dc = synthesis.closed_loop_dc_gain(ss, gains)
    plant = Plant(params)
    freqs = controllers.DESIGN_FREQS
    gm_m, gm_s = (controllers.gain_margin_db(controllers.pid_loop_gain(
        plant, ss, cfg.pid_config(section), freqs, with_delay=False), freqs)
        for section in ("pid_master", "pid_slave"))
    print(f"gains written to {outdir / 'gains.json'}")
    print(f"|K| = {np.linalg.norm(gains.K):.6g}, K_ff = {gains.K_ff:.6g}, "
          f"|L| = {np.linalg.norm(gains.L):.6g}")
    print(f"closed-loop eigenvalue max real part: {ev.real.max():.6g} rad/s "
          f"({'Hurwitz' if ev.real.max() < 0 else 'UNSTABLE'})")
    print(f"linear DC tracking gain: {dc:.9f}")
    print(f"PID gain margins (linear model): master {gm_m:.2f} dB, slave {gm_s:.2f} dB")
    return 0


def cmd_run(cfg: RunConfig, outdir: Path, args) -> int:
    scenario = cfg.scenario_for_run()
    plant = Plant(cfg.plant_params())
    gains = _make_gains(cfg) if cfg.controller == "lqgi" else None
    trace = sim.run_scenario(scenario, plant=plant, gains=gains,
                             controller_kwargs=_controller_kwargs(cfg))
    name = f"trace_{scenario.kind}_{cfg.controller}_seed{cfg.seed}.csv"
    trace.to_csv(outdir / name)
    print(f"trace written to {outdir / name}"
          + (f" (aborted: {trace.aborted})" if trace.aborted else ""))
    return 1 if trace.aborted else 0


def cmd_frf(cfg: RunConfig, outdir: Path, args) -> int:
    gains = _make_gains(cfg) if cfg.controller == "lqgi" else None
    points = sim.dwell_frf(cfg.controller, args.freqs or FRF_GRID_DEFAULT,
                           plant=Plant(cfg.plant_params()), gains=gains,
                           controller_kwargs=_controller_kwargs(cfg), seed=cfg.seed)
    bw = analysis.bandwidth(points)
    path = outdir / f"frf_{cfg.controller}.csv"
    _write_frf_csv(path, points)
    print(f"frf written to {path}")
    print(f"bandwidth ({cfg.controller}): "
          + (f"{bw:.2f} Hz" if bw is not None else "beyond measured range"))
    return 0


def _write_frf_csv(path, points) -> None:
    with open(path, "w") as fh:
        fh.write("frequency [Hz],magnitude [dB],phase [deg],flagged\n")
        for p in points:
            fh.write(f"{p.frequency:.17g},{p.magnitude_db:.17g},"
                     f"{p.phase_deg:.17g},{int(p.flagged)}\n")


def cmd_report(cfg: RunConfig, outdir: Path, args) -> int:
    plant = Plant(cfg.plant_params())
    gains = _make_gains(cfg)

    def hook(label, obj):
        if isinstance(obj, sim.SimTrace):
            obj.to_csv(outdir / f"{label}.csv")
        else:
            _write_frf_csv(outdir / f"{label}.csv", obj)

    t0 = time.time()
    rows = {}
    for name in args.only:
        rows[name] = sim.measure_controller_row(name, plant=plant, gains=gains,
                                                controller_kwargs=_controller_kwargs(cfg),
                                                seed=cfg.seed, trace_hook=hook)
        print(f"  measured {name} ({time.time() - t0:.0f} s elapsed)")
    report = analysis.comparison_report(rows)
    text = report.render_text()
    (outdir / "comparison.txt").write_text(text)
    (outdir / "comparison.csv").write_text(report.to_csv())
    print(text)
    print(f"report completed in {time.time() - t0:.0f} s; files in {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrhydro",
        description="MR-clutch hydrostatic actuator: gain synthesis, simulation, analysis")
    parser.add_argument("--config", help="JSON config file (layered under CLI flags)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize and write controller gains")
    p_synth.add_argument("--out-dir", default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run one scenario and write its trace")
    p_run.add_argument("--kind", choices=sim.SCENARIO_KINDS, default=None)
    p_run.add_argument("--controller", choices=controllers.CONTROLLER_NAMES, default=None)
    p_run.add_argument("--freq", type=float, default=None, help="backdrive frequency [Hz]")
    p_run.add_argument("--cmd-torque", type=float, default=None,
                       help="held torque command [N.m]")
    p_run.add_argument("--amplitude", type=float, default=None,
                       help="step/dwell torque amplitude [N.m]")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_frf = sub.add_parser("frf", help="sine-dwell frequency response sweep")
    p_frf.add_argument("--controller", choices=controllers.CONTROLLER_NAMES, default=None)
    p_frf.add_argument("--freqs", type=float, nargs="+", default=None)
    p_frf.add_argument("--seed", type=int, default=None)
    p_frf.add_argument("--out-dir", default=None)
    p_frf.set_defaults(func=cmd_frf)

    p_rep = sub.add_parser("report", help="full benchmark matrix and comparison table")
    p_rep.add_argument("--only", default=None,
                       help="comma-separated subset of controllers")
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--out-dir", default=None)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if cfg.scenario and args.command != "run":
            # an override the command's own fixed scenarios would silently drop
            raise ConfigError(f"{args.command} ignores scenario key(s) "
                              f"{sorted(cfg.scenario)}; remove the 'scenario' section")
        if args.command == "report":   # like the scenario rule, before the directory exists
            args.only = args.only.split(",") if args.only else list(analysis.REFERENCE_RESULTS)
            bad = set(args.only) - set(analysis.REFERENCE_RESULTS)
            if bad:
                raise ConfigError(f"unknown controller(s) in --only: {sorted(bad)}")
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        code = args.func(cfg, outdir, args)
        write_json(outdir / "config.json", {**cfg.to_dict(), "_hash": cfg.content_hash()})
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (synthesis.SynthesisError, PlantError, sim.ScenarioError,
            analysis.AnalysisError, controllers.FrfError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
