"""Fixed-step nonlinear time-domain simulation engine.

Scenarios cover blocked-output reference tracking (step, sine dwell) and
prescribed-motion backdriving.  Controllers run at CONTROL_DT (1 kHz) with
the command held between ticks.  The clutch pure delay is a whole number of
ticks, a deque of tick commands in run_scenario, so the delayed command is
constant over each tick.  The plant integrates each tick with classical
fourth-order steps of sim_dt (10 kHz by default) in one Plant.rk4_step
call.  A run stops at its last whole control tick, so a duration that is
not a multiple of CONTROL_DT ends the trace at the tick before it.
"""
from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import analysis
from .plant import (CONTROL_DT, FRICTION_MODES, SIM_DT, Plant, TWO_PI, build_record,
                    build_state_space, check_choices, check_numbers, check_whole, write_json)
from .controllers import (CONTROLLER_NAMES, PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT,
                          ControllerFault, DitherConfig, LqgiController, OpenLoopController,
                          PidConfig, linear_pid_bandwidth, make_controller, pid_gain_margin_db)
from .synthesis import (NoiseCovariances, care_residual, closed_loop_dc_gain,
                        closed_loop_matrix, solve_care)

# 1 Hz backdrive displacement amplitude reproducing the published baseline
# torque deviation of 0.60 N.m at zero commanded torque (open loop, no
# dither, stick-slip friction).  Re-derived by a bisection helper in
# tests/test_sim.py.
BACKDRIVE_AMPLITUDE_1HZ = 1.445e-3  # [m]

# each scenario kind -> the Scenario fields a run of it reads; it never reads the rest
_EVERY_KIND_READS = ("kind", "controller", "seed", "duration", "noise", "friction_mode",
                     "sim_dt")
SCENARIO_READS = {
    "step": _EVERY_KIND_READS + ("torque_amplitude", "pre_hold"),
    "sine_dwell": _EVERY_KIND_READS + ("torque_amplitude", "torque_offset", "freq_hz"),
    "backdrive": _EVERY_KIND_READS + ("pre_hold", "backdrive_amplitude", "backdrive_freq",
                                      "backdrive_cycles", "torque_command", "ramp_torque_end"),
}
SCENARIO_KINDS = tuple(SCENARIO_READS)

STEP_SETTLE = 1.0   # a step run's length after the step [s]

# trace rows that to_csv converts to Python floats at a time; it formats
# them one row per %, since one % per block holds MBs of text at once
CSV_BLOCK_ROWS = 64


class ScenarioError(ValueError):
    """Inconsistent scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    """One simulation experiment, fully self-describing."""

    kind: str = "step"
    controller: str = "open_loop"
    duration: float | None = None    # derived from the profile when None
    pre_hold: float = 0.5            # settle before the step / motion [s]
    seed: int = 0
    noise: bool = False

    # reference profile
    torque_amplitude: float = 12.0   # step target / dwell amplitude [N.m]
    torque_offset: float = 10.0      # dwell offset [N.m]
    freq_hz: float = 1.0             # dwell frequency [Hz]

    # backdrive profile (prescribed third-mass motion)
    backdrive_amplitude: float = BACKDRIVE_AMPLITUDE_1HZ  # [m]
    backdrive_freq: float = 1.0      # [Hz]
    backdrive_cycles: int = 5
    torque_command: float = 0.0      # held torque reference [N.m]
    ramp_torque_end: float | None = None  # ramp the command to this value

    # plant/engine overrides
    friction_mode: str | None = None  # None: stick-slip for backdrive, else the plant's mode
    sim_dt: float = SIM_DT

    def __post_init__(self):
        # prescribed motion keeps reversing the piston, where friction sticks
        if self.kind == "backdrive" and self.friction_mode is None:
            object.__setattr__(self, "friction_mode", "stick_slip_sign")
        check_choices(self, ScenarioError, kind=SCENARIO_KINDS, controller=CONTROLLER_NAMES,
                      noise=(False, True), friction_mode=(None,) + FRICTION_MODES)
        check_numbers(self, ScenarioError, positive=("sim_dt", "freq_hz", "backdrive_freq"),
                      non_negative=("pre_hold",),
                      finite=("torque_amplitude", "torque_offset", "torque_command",
                              "backdrive_amplitude"),
                      sampled=("freq_hz",),   # the dwell reference, read at ticks
                      tick_divisor=("sim_dt",))
        if self.duration is not None:   # None: derived from the profile
            check_numbers(self, ScenarioError, positive=("duration",))
        if self.ramp_torque_end is not None:   # None: the command is held
            check_numbers(self, ScenarioError, finite=("ramp_torque_end",))
        check_whole(self, ScenarioError, seed=0, backdrive_cycles=1)
        if not 0.0 < self.total_duration() < math.inf:
            raise ScenarioError(f"total_duration() must be finite and positive, "
                                f"got {self.total_duration()}")

    def total_duration(self) -> float:
        if self.duration is not None:
            return self.duration
        if self.kind == "step":
            return self.pre_hold + STEP_SETTLE
        if self.kind == "sine_dwell":
            return max(0.6, 5.0 / self.freq_hz) + analysis.FIT_CYCLES / self.freq_hz
        return self.pre_hold + self.backdrive_cycles / self.backdrive_freq   # backdrive


# SimTrace series -> CSV column names: one name for a 1-D series, one per
# column for a 2-D one.  Orders the columns of the recorded table and of
# the CSV; the estimate columns are present only for LQGI runs.
TRACE_SCHEMA = {
    "t": "t [s]",
    "state": ("x1 [m]", "v1 [m/s]", "x2 [m]", "v2 [m/s]", "x3 [m]", "v3 [m/s]",
              "f_mr [N]"),
    "meas": ("meas_x1 [m]", "meas_v1 [m/s]", "meas_x3 [m]", "meas_pm [Pa]",
             "meas_ps [Pa]"),
    "ref_torque": "ref_torque [N.m]",
    "p_desired": "p_desired [Pa]",
    "p_master": "p_master [Pa]",
    "p_slave": "p_slave [Pa]",
    "torque": "torque [N.m]",
    "current": "current [A]",
    "force_cmd": "force_cmd [N]",
    "pressure_cmd": "pressure_cmd [Pa]",
    "saturated": "saturated [-]",
    "estimate": ("est_xi [Pa.s]",) + tuple(f"est_x{j} [-]" for j in range(1, 8)),
}


def _table_heads(with_estimate: bool) -> list:
    """CSV column names of a trace table, in TRACE_SCHEMA order."""
    return [h for name, heads in TRACE_SCHEMA.items() if with_estimate or name != "estimate"
            for h in ((heads,) if isinstance(heads, str) else heads)]


# TRACE_SCHEMA series -> its column (1-D) or column slice (2-D) of a trace table
_ALL_HEADS = _table_heads(True)
_SERIES_COLUMNS = {name: (_ALL_HEADS.index(h) if isinstance(h, str) else
                          slice(_ALL_HEADS.index(h[0]), _ALL_HEADS.index(h[-1]) + 1))
                   for name, h in TRACE_SCHEMA.items()}


@dataclass(eq=False)
class SimTrace:
    """Uniform-grid record of one run: its table, one row per control tick
    in TRACE_SCHEMA column order, and what ran.  Each TRACE_SCHEMA series
    reads as a view of its columns (trace.state: the (n, 7) true plant
    states; trace.meas: x1, v1, x3, p_master, p_slave, noisy if enabled),
    except trace.saturated, a bool copy, and trace.estimate, the (n, 8)
    [x_i, x_hat] of an LQGI run and None for a table without them.  A trace
    compares and hashes by identity; np.array_equal compares two tables."""

    table: np.ndarray        # (n, 22), or (n, 30) with the LQGI estimate
    scenario: Scenario       # what ran, its seed included
    plant_hash: str = ""
    aborted: str | None = None

    def __getattr__(self, name):
        # called only for names that normal lookup misses; before unpickling
        # sets the fields, self.table is one and raises AttributeError here too
        if name not in _SERIES_COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        cols = _SERIES_COLUMNS[name]
        if name == "estimate" and self.table.shape[1] <= cols.start:
            return None
        series = self.table[:, cols]
        return series > 0.5 if name == "saturated" else series

    def columns(self) -> dict:
        """CSV column name -> the table's column (a view), in table order."""
        heads = _table_heads(self.estimate is not None)
        return {h: self.table[:, j] for j, h in enumerate(heads)}

    def to_csv(self, path) -> None:
        """Comma-separated table with a one-line header naming columns/units.

        A sidecar <path>.meta.json carries the scenario, the plant hash and
        the abort reason, so the run can be reproduced exactly.
        """
        cols = self.columns()
        # %.17g of a Python float is the text numpy.savetxt writes for the float64
        row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for lo in range(0, len(self.table), CSV_BLOCK_ROWS):
                fh.writelines(row_fmt % tuple(r)
                              for r in self.table[lo:lo + CSV_BLOCK_ROWS].tolist())
        write_json(f"{path}.meta.json", {"aborted": self.aborted, "plant_hash": self.plant_hash,
                                         "scenario": asdict(self.scenario)})


def read_trace_csv(path) -> SimTrace:
    """Rebuild a SimTrace from the CSV and the meta sidecar that to_csv wrote.  Anything
    else raises ValueError naming the file or field: a header that is not a trace table's,
    a missing sidecar or one that is not JSON, a sidecar whose keys or value types are not
    to_csv's, or a scenario that does not rebuild to the very values recorded."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        if names not in (_table_heads(False), _table_heads(True)):
            raise ValueError(f"{path}: the header is not a trace table's columns")
        body = fh.tell()
        if fh.readline():
            fh.seek(body)
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        else:   # header only: a run aborted at its first tick
            data = np.empty((0, len(names)))
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: rows of {data.shape[1]} values under {len(names)} columns")
    where = f"{path}.meta.json"
    try:
        with open(where) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{where} is missing: a trace reads back with its sidecar") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where} is not JSON: {exc}") from None
    keys = sorted(meta) if isinstance(meta, dict) else type(meta).__name__
    if keys != ["aborted", "plant_hash", "scenario"]:
        raise ValueError(f"{where} must be an object with the keys "
                         f"['aborted', 'plant_hash', 'scenario'], got {keys}")
    plant_hash, aborted = meta["plant_hash"], meta["aborted"]
    if not (isinstance(plant_hash, str) and (aborted is None or isinstance(aborted, str))):
        raise ValueError(f"{where}: plant_hash must be a string and aborted a string or null, "
                         f"got {plant_hash!r} and {aborted!r}")
    recorded = meta["scenario"]
    scenario = build_record(Scenario(), recorded, f"the scenario of {where}", ValueError)
    changed = [k for k, v in asdict(scenario).items() if k not in recorded or recorded[k] != v]
    if changed:   # a field missing, or one the Scenario resolves to another value
        raise ValueError(f"the scenario of {where} does not rebuild to itself at {changed}")
    return SimTrace(data, scenario, plant_hash, aborted)


def _reference(sc: Scenario):
    """Torque reference profile as a function of time."""
    if sc.kind == "step":
        t0, amp = sc.pre_hold, sc.torque_amplitude
        return lambda t: amp if t >= t0 else 0.0
    if sc.kind == "sine_dwell":
        off, amp, w = sc.torque_offset, sc.torque_amplitude, TWO_PI * sc.freq_hz
        return lambda t: off + amp * math.sin(w * t)
    # backdrive: the held command, or its ramp
    if sc.ramp_torque_end is not None:
        t_total = sc.total_duration()
        c0, c1 = sc.torque_command, sc.ramp_torque_end
        return lambda t: c0 + (c1 - c0) * min(t / t_total, 1.0)
    cmd = sc.torque_command
    return lambda t: cmd


def _backdrive_profile(sc: Scenario):
    """Prescribed (x3, v3, a3) motion, at rest until pre_hold."""
    amp = sc.backdrive_amplitude
    w = TWO_PI * sc.backdrive_freq
    t0 = sc.pre_hold
    v_amp, a_amp = amp * w, -amp * w * w

    def profile(t):
        if t < t0:
            return 0.0, 0.0, 0.0
        ph = w * (t - t0)
        sin_ph = math.sin(ph)
        return amp * sin_ph, v_amp * math.cos(ph), a_amp * sin_ph

    return profile


def run_scenario(sc: Scenario, plant: Plant | None = None, controller=None,
                 gains=None, controller_kwargs: dict | None = None) -> SimTrace:
    """Execute one scenario and return its trace.

    The controller is built from sc.controller when not supplied;
    controller_kwargs forwards dither/PID overrides to the factory.  On a
    numeric blow-up the partial trace is returned with `aborted` set.
    """
    if plant is None:
        plant = Plant()
    q = round(plant.tau_delay / CONTROL_DT)   # whole: MRClutchParams refuses any other
    if sc.friction_mode is not None:
        plant = Plant(plant.params.with_friction(mode=sc.friction_mode))
    if controller is None:
        controller = make_controller(sc.controller, plant, gains=gains,
                                     **(controller_kwargs or {}))

    dt = sc.sim_dt
    ticks_per_ctrl = int(round(CONTROL_DT / dt))
    duration = sc.total_duration()
    n_rec = int(round(duration / dt)) // ticks_per_ctrl + 1   # one row per whole tick

    rng = np.random.default_rng(sc.seed)
    # sensor noise: [x1, v1, x3, P_M] variances from the estimator design,
    # slave transducer assumed identical to the master one
    r_diag = NoiseCovariances.r_diag
    stds = np.sqrt(r_diag + r_diag[3:])
    noise = rng.standard_normal((n_rec, 5)) * stds if sc.noise else None

    ref = _reference(sc)
    backdrive = _backdrive_profile(sc) if sc.kind == "backdrive" else None

    # the clutch delay of q ticks: after tick j's command is appended,
    # line[0] holds tick j - q's command, 0 before the run
    line = deque([0.0] * (q + 1), maxlen=q + 1)
    rk4_step = plant.rk4_step
    state = (0.0,) * 7
    is_lqgi = isinstance(controller, LqgiController)
    heads = _table_heads(is_lqgi)
    table = np.zeros((n_rec, len(heads)))
    n_rows = n_rec
    aborted = None

    try:
        for j in range(n_rec):
            i = j * ticks_per_ctrl
            if j:   # the previous tick's steps
                state = rk4_step(state, dt, line[0], backdrive, i - ticks_per_ctrl,
                                 ticks_per_ctrl)
            t = i * dt
            pm = plant.master_pressure(state)
            ps = plant.slave_pressure(state)
            meas = (state[0], state[1], state[4], pm, ps)
            if noise is not None:
                nz = noise[j].tolist()   # Python-float sums: the same IEEE additions
                meas = (meas[0] + nz[0], meas[1] + nz[1], meas[2] + nz[2],
                        meas[3] + nz[3], meas[4] + nz[4])
            r_now = ref(t)
            p_desired = plant.pressure_from_torque(r_now)
            cmd = controller.step(t, p_desired, meas)
            # one row, values in TRACE_SCHEMA order
            row = (t, *state, *meas, r_now, p_desired, pm, ps,
                   plant.torque_from_pressure(ps), cmd.current, cmd.force,
                   cmd.pressure_cmd, cmd.saturated)
            table[j] = row + (controller.x_i, *controller.x_hat) if is_lqgi else row
            line.append(cmd.force)
    except (FloatingPointError, ControllerFault, OverflowError) as exc:
        aborted = f"{type(exc).__name__}: {exc}"
        n_rows = j   # rows 0 .. j - 1 are complete

    return SimTrace(table[:n_rows], sc, plant.params.content_hash(), aborted)


# ---------------- canned scenarios ----------------

def step_scenario(controller: str = "open_loop", amplitude: float = Scenario.torque_amplitude,
                  pre_hold: float = Scenario.pre_hold, settle: float = STEP_SETTLE,
                  **kw) -> Scenario:
    return Scenario(kind="step", controller=controller, torque_amplitude=amplitude,
                    pre_hold=pre_hold, duration=pre_hold + settle, **kw)


def dwell_scenario(controller: str, freq_hz: float, amplitude: float = 2.0,
                   **kw) -> Scenario:
    return Scenario(kind="sine_dwell", controller=controller, freq_hz=freq_hz,
                    torque_amplitude=amplitude, **kw)


def backdrive_scenario(controller: str, pre_hold: float = 1.0, **kw) -> Scenario:
    """A backdrive Scenario; kw sets its other fields by name."""
    return Scenario(kind="backdrive", controller=controller, pre_hold=pre_hold, **kw)


def friction_id_scenario(plant: Plant) -> Scenario:
    """Friction-coefficient identification protocol.

    60 s of 1 Hz backdrive at 5 mm/s peak piston speed while the commanded
    pressure ramps from 300 kPa to 1.6 MPa on plant; plant in smooth-tanh
    mode (its configured friction model), dither off via the open-loop
    baseline controller.
    """
    peak_speed = 5e-3   # [m/s]
    return backdrive_scenario("open_loop", backdrive_amplitude=peak_speed / TWO_PI,
                              backdrive_freq=1.0, backdrive_cycles=59,   # after 1 s: 60 s
                              torque_command=plant.torque_from_pressure(300e3),
                              ramp_torque_end=plant.torque_from_pressure(1.6e6),
                              friction_mode="smooth_tanh")


FRF_GRID_DEFAULT = tuple(float(f) for f in np.logspace(0.0, 2.0, 13))


def _scored_run(label: str, sc: Scenario, trace_hook=None, **run_kw) -> SimTrace:
    """run_scenario(sc, **run_kw), handed to trace_hook(label, trace) when
    one is given; an aborted trace then raises ScenarioError naming label."""
    trace = run_scenario(sc, **run_kw)
    if trace_hook is not None:
        trace_hook(label, trace)
    if trace.aborted:
        raise ScenarioError(f"run {label} aborted: {trace.aborted}")
    return trace


def dwell_frf(name: str, freqs, plant: Plant | None = None, gains=None,
              controller_kwargs: dict | None = None, seed: int = 0) -> list:
    """Sine-dwell frequency response of one controller, fit for a bandwidth.

    The grid needs at least two frequencies and passes
    analysis.frf_from_sine_dwell's checks before any dwell runs.  Fails
    closed: an aborted dwell raises ScenarioError naming it.
    """
    freqs = list(freqs)
    if len(freqs) < 2:
        raise analysis.AnalysisError("a bandwidth needs at least two dwell frequencies "
                                     f"in (0, 200] Hz, got {freqs}")
    return analysis.frf_from_sine_dwell(
        lambda f: _scored_run(f"dwell_{f:g}hz_{name}", dwell_scenario(name, f, seed=seed),
                              plant=plant, gains=gains, controller_kwargs=controller_kwargs),
        freqs)


def measure_controller_row(name: str, plant: Plant | None = None, gains=None,
                           controller_kwargs: dict | None = None,
                           frf_freqs=FRF_GRID_DEFAULT, seed: int = 0,
                           trace_hook=None):
    """Measure one comparison-table row: step metrics, dwell bandwidth and
    the three backdrive torque-deviation cells.

    trace_hook(label, trace_or_points) receives the step and backdrive
    traces and the FRF points, not the dwell traces (each is freed once
    fitted); pass None to discard them.  Fails closed: a scored run that
    aborted raises ScenarioError naming it (a step or backdrive run after
    its hook call).
    """
    run_kw = {"plant": plant, "gains": gains, "controller_kwargs": controller_kwargs}

    # each trace is scored in the expression that runs it, so no finished
    # trace stays alive while the next run records
    metrics = analysis.step_metrics(
        _scored_run(f"step_{name}", step_scenario(name, seed=seed), trace_hook, **run_kw))

    points = dwell_frf(name, frf_freqs, seed=seed, **run_kw)
    if trace_hook is not None:
        trace_hook(f"frf_{name}", points)

    def deviation(freq, cmd):
        sc = backdrive_scenario(name, torque_command=cmd, backdrive_freq=freq, seed=seed)
        label = f"backdrive_{int(freq)}hz_{int(cmd)}nm_{name}"
        return analysis.torque_deviation(_scored_run(label, sc, trace_hook, **run_kw))

    return analysis.RowResult(analysis.bandwidth(points), metrics.rise_time_63,
                              metrics.overshoot, deviation(1.0, 0.0), deviation(1.0, 10.0),
                              deviation(5.0, 10.0))


def measure_evidence(names, plant: Plant, gains, dither: DitherConfig = DitherConfig(),
                     pid_master: PidConfig = PID_MASTER_DEFAULT,
                     pid_slave: PidConfig = PID_SLAVE_DEFAULT, seed: int = 0,
                     trace_hook=None) -> analysis.Evidence:
    """The acceptance evidence that analysis.verdicts judges, measured on plant with the LQGI
    gains and the controller settings: the named rows (measure_controller_row, with seed and
    trace_hook) and, when names cover CONTROLLER_NAMES, the rows' wall time and the model
    evidence outside the matrix.  An aborted scored run raises ScenarioError naming it."""
    kw = {"dither": dither, "pid_master": pid_master, "pid_slave": pid_slave}
    t0 = time.perf_counter()
    rows = {name: measure_controller_row(name, plant=plant, gains=gains, controller_kwargs=kw,
                                         seed=seed, trace_hook=trace_hook) for name in names}
    if not set(CONTROLLER_NAMES) <= rows.keys():
        return analysis.Evidence(rows)
    matrix_s = time.perf_counter() - t0
    ss = build_state_space(plant.params)
    # the scalar CARE, then a seeded batch of random stable cases, each certified
    scalar_err = abs(solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]]).item() - (math.sqrt(2) - 1))
    rng = np.random.default_rng(2024)
    t0, worst = time.perf_counter(), 0.0
    for _ in range(100):
        n, m = int(rng.integers(2, 11)), int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
        B, C = rng.standard_normal((n, m)), rng.standard_normal((max(1, n // 2), n))
        Q, R = C.T @ C, np.eye(m) * float(rng.uniform(0.1, 10.0))
        worst = max(worst, care_residual(A, B, Q, R, solve_care(A, B, Q, R)))
    care = analysis.CareBatch(scalar_err, worst, time.perf_counter() - t0)
    loop = analysis.LinearLoop(gains.weights, gains.noise, closed_loop_dc_gain(ss, gains),
                               float(np.linalg.eigvals(closed_loop_matrix(ss, gains)).real.max()))
    friction = analysis.identify_friction(
        _scored_run("friction_id", friction_id_scenario(plant), plant=plant))
    # the PID calibration on the linear model; the slave tap's step on the friction-free plant
    design_step = _scored_run("design_step_pid_slave",
                              step_scenario("pid_slave", settle=2.0, friction_mode="off"),
                              plant=plant, controller_kwargs=kw)
    pids = (pid_master, pid_slave)
    bandwidths = [linear_pid_bandwidth(plant, ss, p) for p in pids]
    pid = analysis.PidDesign(*(math.nan if bw is None else bw for bw in bandwidths),
                             *(pid_gain_margin_db(plant, ss, p) for p in pids),
                             analysis.step_metrics(design_step).overshoot)
    # the reversal band of a 1 Hz backdrive at 1.31 MPa, without and with dither
    sc = backdrive_scenario("open_loop", torque_command=plant.torque_from_pressure(1310e3),
                            backdrive_freq=1.0, backdrive_cycles=4)
    dithered = OpenLoopController(plant, dither=replace(dither, enabled=True))
    study = analysis.dither_smoothing(
        _scored_run("dither_off", sc, plant=plant),
        _scored_run("dither_on", sc, plant=plant, controller=dithered), dither.frequency)
    # step halving on each scenario kind, and a seeded noisy LQGI run twice
    worst = 0.0
    for sc in (step_scenario("open_loop"), dwell_scenario("open_loop", 10.0),
               backdrive_scenario("open_loop", torque_command=10.0, backdrive_cycles=2)):
        p1, p2 = (_scored_run(f"halving_{sc.kind}_{dt:g}", replace(sc, sim_dt=dt),
                              plant=plant).p_slave for dt in (1e-4, 5e-5))
        rms = math.sqrt(float(np.mean((p1 - p2) ** 2)))   # the same rows: whole ticks
        worst = max(worst, rms / math.sqrt(float(np.mean(p1 ** 2))))
    sc = step_scenario("lqgi", settle=0.3, noise=True, seed=77)
    t1, t2 = (_scored_run("seeded_lqgi", sc, plant=plant, gains=gains) for _ in range(2))
    reproducible = np.array_equal(t1.table, t2.table)
    return analysis.Evidence(rows, matrix_s, care, loop, friction, pid, study,
                             analysis.StepHalving(worst, reproducible))
