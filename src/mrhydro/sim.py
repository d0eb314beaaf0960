"""Fixed-step nonlinear time-domain simulation engine.

Scenarios cover blocked-output reference tracking (step, sine dwell,
current chirp) and prescribed-motion backdriving.  Controllers run at
1 kHz with the command held between ticks.  The clutch pure delay is a
deque of tick commands in run_scenario, so the delayed command is constant
over each tick, or over its two pieces when the delay is not a whole
number of ticks.  The plant integrates each piece with classical
fourth-order steps at 10 kHz in one Plant.rk4_step call.  A run stops at
its last whole control tick, so a duration that is not a multiple of
control_dt ends the trace at the tick before it.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, asdict, field

import numpy as np

from . import analysis
from .plant import Plant, PlantError, TWO_PI, known_keys, write_json
from .controllers import (CONTROL_DT, SIM_DT, Command, ControllerFault,
                          LqgiController, make_controller)
from .synthesis import NoiseCovariances

# 1 Hz backdrive displacement amplitude reproducing the published baseline
# torque deviation of 0.60 N.m at zero commanded torque (open loop, no
# dither, stick-slip friction).  Re-derived by a bisection helper in
# tests/test_sim.py.
BACKDRIVE_AMPLITUDE_1HZ = 1.445e-3  # [m]

SCENARIO_KINDS = ("step", "chirp", "sine_dwell", "backdrive")

STEP_SETTLE = 1.0   # a step run's length after the step [s]


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

    # chirp (open-loop current injection)
    chirp_f0: float = 0.0
    chirp_f1: float = 200.0
    chirp_i_offset: float = 2.0      # [A]
    chirp_i_amplitude: float = 0.5   # [A]

    # backdrive profile (prescribed third-mass motion)
    backdrive_amplitude: float = BACKDRIVE_AMPLITUDE_1HZ  # [m]
    backdrive_freq: float = 1.0      # [Hz]
    backdrive_cycles: int = 5
    torque_command: float = 0.0      # held torque reference [N.m]
    ramp_torque_end: float | None = None  # ramp the command to this value

    # plant/engine overrides
    friction_mode: str | None = None  # None: stick-slip for backdrive, else the plant's mode
    sim_dt: float = SIM_DT
    control_dt: float = CONTROL_DT

    def __post_init__(self):
        # prescribed motion keeps reversing the piston, where friction sticks
        if self.kind == "backdrive" and self.friction_mode is None:
            object.__setattr__(self, "friction_mode", "stick_slip_sign")

    def validate(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(f"kind must be one of {SCENARIO_KINDS}")
        kind_rate = {"sine_dwell": ("freq_hz",), "backdrive": ("backdrive_freq",)}
        for name in ("sim_dt", "control_dt") + kind_rate.get(self.kind, ()):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ScenarioError(f"{name} must be finite and positive, got {value}")
        if self.kind == "backdrive" and self.backdrive_cycles < 1:
            raise ScenarioError("backdrive_cycles must be at least 1")
        ratio = self.control_dt / self.sim_dt
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ScenarioError("control_dt must be an integer multiple of sim_dt")
        if self.duration is not None and not 0.0 < self.duration < math.inf:
            raise ScenarioError(f"duration must be finite and positive, got {self.duration}")
        for name in ("torque_amplitude", "torque_offset", "torque_command", "ramp_torque_end",
                     "backdrive_amplitude", "chirp_f0", "chirp_f1", "chirp_i_offset",
                     "chirp_i_amplitude"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):   # ramp_torque_end may be None
                raise ScenarioError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.pre_hold < math.inf:
            raise ScenarioError(f"pre_hold must be finite and >= 0, got {self.pre_hold}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
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
        if self.kind == "backdrive":
            return self.pre_hold + self.backdrive_cycles / self.backdrive_freq
        return 4.0  # chirp

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        sc = cls(**known_keys(cls, data, "scenario", ScenarioError))
        sc.validate()
        return sc


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


@dataclass
class SimTrace:
    """Uniform-grid record of one run; all series share the time axis."""

    t: np.ndarray
    state: np.ndarray        # (n, 7) true plant states
    meas: np.ndarray         # (n, 5) x1, v1, x3, p_master, p_slave (noisy if enabled)
    ref_torque: np.ndarray
    p_desired: np.ndarray
    p_master: np.ndarray     # true pressures
    p_slave: np.ndarray
    torque: np.ndarray       # delivered joint torque from slave pressure
    current: np.ndarray
    force_cmd: np.ndarray
    pressure_cmd: np.ndarray
    saturated: np.ndarray
    estimate: np.ndarray | None = None   # (n, 8) [x_i, x_hat] for LQGI runs
    scenario: dict = field(default_factory=dict)
    plant_hash: str = ""
    seed: int = 0
    aborted: str | None = None

    def columns(self) -> dict:
        cols = {}
        for name, heads in TRACE_SCHEMA.items():
            series = getattr(self, name)
            if series is None:
                continue
            if isinstance(heads, str):
                cols[heads] = np.asarray(series, dtype=float)
            else:
                cols.update((h, series[:, j]) for j, h in enumerate(heads))
        return cols

    def to_csv(self, path) -> None:
        """Comma-separated table with a one-line header naming columns/units.

        A sidecar <path>.meta.json carries the scenario, seed and plant
        hash so the run can be reproduced exactly.
        """
        cols = self.columns()
        header = ",".join(cols)
        data = np.column_stack(list(cols.values()))
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")
        write_json(f"{path}.meta.json",
                   {k: getattr(self, k) for k in ("scenario", "plant_hash", "seed", "aborted")})


def _table_heads(with_estimate: bool) -> list:
    """CSV column names of a trace table, in TRACE_SCHEMA order."""
    return [h for name, heads in TRACE_SCHEMA.items() if with_estimate or name != "estimate"
            for h in ((heads,) if isinstance(heads, str) else heads)]


def _split_table(table: np.ndarray, names: list) -> dict:
    """SimTrace series as column views of a table whose columns are named by names."""
    index = {h: j for j, h in enumerate(names)}
    series = {}
    for name, heads in TRACE_SCHEMA.items():
        if isinstance(heads, str):
            series[name] = table[:, index[heads]]
        elif heads[0] in index:
            j = index[heads[0]]
            if tuple(names[j:j + len(heads)]) != heads:
                raise ValueError(f"trace columns of '{name}' are not in schema order")
            series[name] = table[:, j:j + len(heads)]
    series["saturated"] = series["saturated"] > 0.5
    return series


def read_trace_csv(path) -> SimTrace:
    """Rebuild a SimTrace from its CSV and its meta sidecar, whose absent
    fields take the SimTrace defaults and whose unknown keys raise ValueError."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:   # header only: a run aborted at its first tick
        data = data.reshape(0, len(names))
    try:
        with open(f"{path}.meta.json") as fh:
            meta = known_keys(SimTrace, json.load(fh), f"{path}.meta.json", ValueError)
    except FileNotFoundError:
        meta = {}
    return SimTrace(**_split_table(data, names), **meta)


def _reference(sc: Scenario):
    """Torque reference profile as a function of time."""
    if sc.kind == "step":
        t0, amp = sc.pre_hold, sc.torque_amplitude
        return lambda t: amp if t >= t0 else 0.0
    if sc.kind == "sine_dwell":
        off, amp, w = sc.torque_offset, sc.torque_amplitude, TWO_PI * sc.freq_hz
        return lambda t: off + amp * math.sin(w * t)
    if sc.kind == "backdrive":
        if sc.ramp_torque_end is not None:
            t_total = sc.total_duration()
            c0, c1 = sc.torque_command, sc.ramp_torque_end
            return lambda t: c0 + (c1 - c0) * min(t / t_total, 1.0)
        cmd = sc.torque_command
        return lambda t: cmd
    return lambda t: 0.0  # chirp drives current directly


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
    sc.validate()
    if plant is None:
        plant = Plant()
    dt = sc.sim_dt
    n_delay = int(round(plant.tau_delay / dt))
    if abs(plant.tau_delay / dt - n_delay) > 1e-9:
        raise PlantError(f"tau_delay {plant.tau_delay} s is not a whole number "
                         f"of {dt} s steps")
    if sc.friction_mode is not None:
        plant = Plant(plant.params.with_friction(mode=sc.friction_mode))
    if sc.kind != "chirp":
        if controller is None:
            controller = make_controller(sc.controller, plant, gains=gains, dt=sc.control_dt,
                                         **(controller_kwargs or {}))
        elif not math.isclose(getattr(controller, "dt", sc.control_dt), sc.control_dt,
                              rel_tol=1e-9):
            raise ScenarioError(f"controller runs at dt={controller.dt} s, "
                                f"scenario at control_dt={sc.control_dt} s")

    ticks_per_ctrl = int(round(sc.control_dt / dt))
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
    chirp_rate = (sc.chirp_f1 - sc.chirp_f0) / (2.0 * duration)

    # the clutch delay of n_delay = q * ticks_per_ctrl + split steps: after
    # tick j's command is appended, line[0] holds tick j - q - 1's command
    # and line[1] tick j - q's, both 0 before the run
    q, split = divmod(n_delay, ticks_per_ctrl)
    line = deque([0.0] * (q + 2), maxlen=q + 2)
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
            if j:
                # the previous tick's steps: the first `split` see line[0], the rest line[1]
                i0 = i - ticks_per_ctrl
                if split:
                    state = rk4_step(state, dt, line[0], backdrive, i0, split)
                state = rk4_step(state, dt, line[1], backdrive, i0 + split,
                                 ticks_per_ctrl - split)
            t = i * dt
            pm = plant.master_pressure(state)
            ps = plant.slave_pressure(state)
            meas = (state[0], state[1], state[4], pm, ps)
            if noise is not None:
                nz = noise[j]
                meas = (meas[0] + nz[0], meas[1] + nz[1], meas[2] + nz[2],
                        meas[3] + nz[3], meas[4] + nz[4])
            r_now = ref(t)
            if sc.kind == "chirp":
                phase = sc.chirp_f0 * t + chirp_rate * t * t
                current = sc.chirp_i_offset + sc.chirp_i_amplitude * math.sin(TWO_PI * phase)
                current = min(max(current, 0.0), plant.params.clutch.current_max)
                cmd = Command(current=current, force=plant.clutch_force(current),
                              pressure_cmd=0.0, saturated=False)
                p_desired = 0.0
            else:
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

    return SimTrace(**_split_table(table[:n_rows], heads), scenario=sc.to_dict(),
                    plant_hash=plant.params.content_hash(), seed=sc.seed, aborted=aborted)


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


def friction_id_scenario() -> Scenario:
    """Friction-coefficient identification protocol.

    60 s of 1 Hz backdrive at 5 mm/s peak piston speed while the commanded
    pressure ramps from 300 kPa to 1.6 MPa; plant in smooth-tanh mode (its
    configured friction model), dither off via the open-loop baseline
    controller.
    """
    plant = Plant()
    duration, peak_speed = 60.0, 5e-3   # [s], [m/s]
    return backdrive_scenario("open_loop", backdrive_amplitude=peak_speed / TWO_PI,
                              backdrive_freq=1.0, backdrive_cycles=int(duration) - 1,
                              duration=duration,
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
    row = analysis.RowResult()
    run_kw = {"plant": plant, "gains": gains, "controller_kwargs": controller_kwargs}

    # each trace is scored in the expression that runs it, so no finished
    # trace stays alive while the next run records
    metrics = analysis.step_metrics(
        _scored_run(f"step_{name}", step_scenario(name, seed=seed), trace_hook, **run_kw))
    row.rise_ms = metrics.rise_time_63
    row.overshoot = metrics.overshoot

    points = dwell_frf(name, frf_freqs, seed=seed, **run_kw)
    if trace_hook is not None:
        trace_hook(f"frf_{name}", points)
    row.bandwidth = analysis.bandwidth(points)

    for attr, freq, cmd in (("dev_1hz_0", 1.0, 0.0), ("dev_1hz_10", 1.0, 10.0),
                            ("dev_5hz_10", 5.0, 10.0)):
        sc = backdrive_scenario(name, torque_command=cmd, backdrive_freq=freq, seed=seed)
        label = f"backdrive_{int(freq)}hz_{int(cmd)}nm_{name}"
        setattr(row, attr, analysis.torque_deviation(_scored_run(label, sc, trace_hook,
                                                                 **run_kw)))
    return row
