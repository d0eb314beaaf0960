"""Discrete-time implementations of the four torque controllers.

Each controller maps (time, desired pressure, measurements) to an MR coil
current once per CONTROL_DT tick.  Measurements arrive as the tuple
(x1, v1, x3, p_master, p_slave); the slave pressure is only consumed by
the non-collocated PID.  All controllers superpose the dither command.
Each keeps its memory as one settable `state` vector, and each but the
friction compensator states its tick as a LinearLaw through `linear_law()`.

Gain calibration helpers work on the linear model in the frequency
domain: loop gain margins and closed-loop bandwidth from the published
criterion (first -3 dB or -135 deg crossing).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import linalg

from .analysis import REFERENCE_RESULTS, LowPass, crossing_bandwidth
from .plant import (Plant, StateSpace, TWO_PI, build_state_space, check_choices,
                    check_numbers, friction_pressure)
from .synthesis import GainSet, closed_loop_input, closed_loop_matrix, synthesize

CONTROL_DT = 1e-3   # 1 kHz loop rate
SIM_DT = 1e-4       # 10 kHz plant substep
NYQUIST_HZ = 0.5 / CONTROL_DT   # highest frequency the loop samples without aliasing

CONTROLLER_NAMES = tuple(REFERENCE_RESULTS)


class ControllerFault(RuntimeError):
    """Estimator divergence or non-finite controller state."""


def check_sampled(obj, error: type, name: str) -> None:
    """Refuse the frequency field name of obj unless it is below NYQUIST_HZ: the
    loop evaluates it only at control ticks, where a higher one aliases."""
    if not getattr(obj, name) < NYQUIST_HZ:
        raise error(f"{name} must be below {NYQUIST_HZ:g} Hz, half the control rate, "
                    f"got {getattr(obj, name)!r}")


@dataclass(frozen=True)
class DitherConfig:
    """150 Hz command superposition that keeps the screw interface slipping.

    Amplitude grows affinely with the desired pressure.  The slope default
    is set where the dither force at the piston exceeds the friction
    breakaway level mu*P*A across the operating range (after the clutch
    lag attenuates the 150 Hz component); below that threshold the dither
    has no smoothing effect on this model.
    """

    frequency: float = 150.0       # [Hz]
    amplitude_slope: float = 0.5   # fraction of desired pressure
    amplitude_floor: float = 20e3  # [Pa]
    enabled: bool = True

    def __post_init__(self):
        check_numbers(self, ValueError, positive=("frequency",),
                      finite=("amplitude_slope", "amplitude_floor"))
        check_sampled(self, ValueError, "frequency")
        check_choices(self, ValueError, enabled=(False, True))


def dither_signal(t: float, p_desired: float, cfg: DitherConfig) -> float:
    """Instantaneous dither pressure command."""
    if not cfg.enabled:
        return 0.0
    amp = cfg.amplitude_floor + cfg.amplitude_slope * p_desired
    return amp * math.sin(TWO_PI * cfg.frequency * t)


@dataclass
class Command:
    """One controller output sample."""

    current: float          # coil current [A]
    force: float            # realized steady clutch force [N]
    pressure_cmd: float     # pre-conversion pressure command [Pa]
    saturated: bool


def _anti_windup(u: float, u_max: float, du: float) -> tuple[bool, bool]:
    """Conditional integration of a command u limited to [0, u_max].

    Returns (saturated, integrate).  Past a limit the integrator holds
    unless du, which has the sign of the command change integrating would
    cause, points back inside; otherwise recovery would deadlock.  A du of
    zero or NaN holds.
    """
    if u < 0.0:
        return True, du > 0.0
    if u > u_max:
        return True, du < 0.0
    return False, True


class LinearLaw(NamedTuple):
    """One primed controller tick, z' = F @ z + G @ w + f and u = H @ z + J @ w + h, of
    its state z and w = (x1, v1, x3, p_master, p_slave, p_desired).  u is the screw-force
    request [N] that _anti_windup judges.  The law leaves out the dither, the saturation
    and anti-windup, and the clutch (its remnant and curve inversion), so LQGI's u_prev'
    is u itself."""

    F: np.ndarray   # (n, n)
    G: np.ndarray   # (n, 6)
    f: np.ndarray   # (n,)
    H: np.ndarray   # (n,)
    J: np.ndarray   # (6,)
    h: float


_W = np.eye(6)   # rows: the unit input on each entry of w
_W.flags.writeable = False


def _checked_state(value, size: int, priming=()) -> np.ndarray:
    """value as a float vector of length size; ValueError for another length or a
    non-finite entry, except NaN at an index in priming (set by the first tick)."""
    z = np.array(value, dtype=float)
    if z.shape != (size,):
        raise ValueError(f"state must be a vector of {size} values, got shape {z.shape}")
    bad = [i for i, v in enumerate(z.tolist())
           if not (math.isfinite(v) or (i in priming and math.isnan(v)))]
    if bad:
        raise ValueError(f"state entries {bad} must be finite, got {z.tolist()}")
    return z


COMP_STEEPNESS = 1000.0    # tanh slope of the friction-compensation estimate [s/m]
COMP_V1_FILTER_HZ = 150.0  # piston-speed filter of the friction-compensation estimate
ESTIMATE_GUARD = 1e12      # largest |LQGI state estimate| before it counts as diverged


class OpenLoopController:
    """Feedthrough reference conversion with optional friction compensation.

    The compensation estimates the screw friction pressure from the
    identified mu, the measured master pressure and the filtered piston
    speed and adds it to the command.  COMP_STEEPNESS is deliberately
    sharp so the estimate tracks the near-discontinuous stick-slip
    friction it has to cancel.

    state: [v1f], the filtered piston speed, with friction compensation and
    [] without.  v1f reads NaN until the first tick sets it from v1.  The
    compensator's tanh has no linear law, so its linear_law() raises
    ValueError.
    """

    def __init__(self, plant: Plant, dither: DitherConfig = DitherConfig(),
                 friction_comp: bool = False):
        self.plant = plant
        self.dither = dither
        self.friction_comp = friction_comp
        self._v1_filter = LowPass(COMP_V1_FILTER_HZ, CONTROL_DT)

    @property
    def state(self) -> np.ndarray:
        return np.array([self._v1_filter.y] if self.friction_comp else [])

    @state.setter
    def state(self, value) -> None:
        n = int(self.friction_comp)
        z = _checked_state(value, n, priming=range(n))
        if n:
            self._v1_filter.y = float(z[0])

    def linear_law(self) -> LinearLaw:
        if self.friction_comp:
            raise ValueError("the friction compensator's tanh estimate has no linear law")
        return LinearLaw(np.zeros((0, 0)), np.zeros((0, 6)), np.zeros(0), np.zeros(0),
                         self.plant.area_slave * _W[5], 0.0)

    def step(self, t: float, p_desired: float, meas) -> Command:
        p_cmd = p_desired
        if self.friction_comp:
            _, v1, _, p_master, _ = meas
            v1f = self._v1_filter.step(v1)
            p_cmd += friction_pressure(self.plant.params.friction.mu, p_master, v1f,
                                       COMP_STEEPNESS)
        p_cmd += dither_signal(t, p_desired, self.dither)
        current, force, saturated = self.plant.drive(p_cmd * self.plant.area_slave)
        return Command(current=current, force=force, pressure_cmd=p_cmd, saturated=saturated)


@dataclass(frozen=True)
class PidConfig:
    """Pressure-feedback loop gains and tap selection.

    Defaults come from calibrate_pid_defaults(): the integral gain is swept
    until the linear closed loop reaches the published bandwidth for its
    tap while keeping at least 6 dB of gain margin.  The master tap needs
    a small derivative term to clear the first transmission resonance at
    that bandwidth; integral action still dominates below 30 Hz.
    """

    kp: float
    ki: float
    kd: float
    feedback_tap: str = "master"      # "master" or "slave"
    deriv_filter_hz: float = 150.0

    def __post_init__(self):
        check_choices(self, ValueError, feedback_tap=("master", "slave"))
        check_numbers(self, ValueError, positive=("deriv_filter_hz",), finite=("kp", "ki", "kd"))


# shipped defaults, produced by calibrate_pid_defaults() on the default plant
PID_MASTER_DEFAULT = PidConfig(kp=0.0, ki=40.0, kd=1.0e-3, feedback_tap="master")
PID_SLAVE_DEFAULT = PidConfig(kp=0.0, ki=19.0, kd=0.0, feedback_tap="slave")


class PidController:
    """Parallel PID on pressure error, conditional anti-windup, dither.

    The command rides on the DC pretension so that zero error with an
    empty integrator commands exactly the line pretension feedthrough.

    state: [integral, previous feedback, filtered derivative].  The last two
    read NaN until the first tick sets them: with no previous feedback the
    tick's derivative is zero, and the filter primes at it.  linear_law() is
    the tick from the same gains and filter coefficient; the continuous
    design law is _pid_c.
    """

    def __init__(self, plant: Plant, config: PidConfig,
                 dither: DitherConfig = DitherConfig()):
        self.plant = plant
        self.config = config
        self.dither = dither
        self._integral = 0.0
        self._prev_fb = math.nan
        self._dfilt = LowPass(config.deriv_filter_hz, CONTROL_DT)

    @property
    def state(self) -> np.ndarray:
        return np.array([self._integral, self._prev_fb, self._dfilt.y])

    @state.setter
    def state(self, value) -> None:
        self._integral, self._prev_fb, self._dfilt.y = \
            _checked_state(value, 3, priming=(1, 2)).tolist()

    def linear_law(self) -> LinearLaw:
        cfg, a, dt = self.config, self._dfilt.alpha, CONTROL_DT
        tap = _W[3] if cfg.feedback_tap == "master" else _W[4]
        c = (1.0 - a) / dt   # filtered-derivative weight of a feedback difference
        F = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -c, a]])
        G = np.array([cfg.ki * dt * (_W[5] - tap), tap, c * tap])
        area = self.plant.area_slave
        return LinearLaw(F, G, np.zeros(3), area * (np.eye(3)[0] - cfg.kd * F[2]),
                         area * (cfg.kp * (_W[5] - tap) - cfg.kd * G[2]),
                         area * self.plant.p_dc)

    def step(self, t: float, p_desired: float, meas) -> Command:
        cfg = self.config
        _, _, _, p_master, p_slave = meas
        fb = p_master if cfg.feedback_tap == "master" else p_slave
        error = p_desired - fb

        prev_fb = self._prev_fb
        d_raw = 0.0 if prev_fb != prev_fb else (fb - prev_fb) / CONTROL_DT   # NaN: first tick
        self._prev_fb = fb
        d_term = -cfg.kd * self._dfilt.step(d_raw)

        p_cmd = self.plant.p_dc + cfg.kp * error + self._integral + d_term
        # anti-windup on the feedback command's own limits; the zero-mean
        # dither is added afterwards
        saturated, integrate = _anti_windup(p_cmd * self.plant.area_slave,
                                            self.plant.force_max, error)
        if integrate:
            self._integral += cfg.ki * error * CONTROL_DT
        p_cmd += dither_signal(t, p_desired, self.dither)
        current, force, _ = self.plant.drive(p_cmd * self.plant.area_slave)
        return Command(current=current, force=force, pressure_cmd=p_cmd,
                       saturated=saturated)


class LqgiController:
    """State-feedback law on Kalman estimates with integral action.

    The estimator is the zero-order-hold discretization of the continuous
    observer (A - LC, [B, L]) at the loop rate, which is stable for any
    Hurwitz design; mapping the continuous gain as L*dt diverges here
    because the fastest estimator pole exceeds the sampling bandwidth.
    The integral state accumulates (P_d - estimated slave pressure) and is
    held by the PID's windup law, _anti_windup, and by nothing else.

    state: [x_i, x_hat (7), u_prev], the first 8 in the order of a trace's
    estimate columns; u_prev is the force delivered on the last tick, which
    the estimator reads.  linear_law() is the tick from the same estimator
    and gains; the continuous design loop is synthesis.closed_loop_matrix.
    """

    def __init__(self, plant: Plant, gains: GainSet, dither: DitherConfig = DitherConfig()):
        self.plant = plant
        self.dither = dither
        model = build_state_space(plant.params)
        self.C_d = model.C_d[0]
        A, B, C, L = model.A, model.B, model.C, gains.L
        m = np.zeros((12, 12))
        m[:7, :7] = (A - L @ C) * CONTROL_DT
        m[:7, 7:8] = B * CONTROL_DT
        m[:7, 8:] = L * CONTROL_DT
        em = linalg.expm(m)
        self._phi = em[:7, :7]
        self._gamma_u = em[:7, 7]
        self._gamma_y = em[:7, 8:]
        self._k_i = gains.K_integral
        self._k_x = gains.K_x
        self._k_ff = gains.K_ff
        self.x_hat = np.zeros(7)
        self.x_i = 0.0
        self._u_prev = 0.0

    @property
    def state(self) -> np.ndarray:
        return np.concatenate(([self.x_i], self.x_hat, [self._u_prev]))

    @state.setter
    def state(self, value) -> None:
        z = _checked_state(value, 9)
        self.x_i, self.x_hat, self._u_prev = float(z[0]), z[1:8].copy(), float(z[8])

    def linear_law(self) -> LinearLaw:
        # x_hat' = Fx @ z + Gx @ w, the estimator update that u and x_i' read
        Fx = np.hstack([np.zeros((7, 1)), self._phi, self._gamma_u[:, None]])
        Gx = np.hstack([self._gamma_y, np.zeros((7, 2))])
        H = -self._k_i * np.eye(9)[0] - self._k_x @ Fx
        J = -self._k_x @ Gx + self._k_ff * _W[5]
        F = np.vstack([np.eye(9)[0] - CONTROL_DT * (self.C_d @ Fx), Fx, H])
        G = np.vstack([CONTROL_DT * (_W[5] - self.C_d @ Gx), Gx, J])
        return LinearLaw(F, G, np.zeros(9), H, J, 0.0)

    def step(self, t: float, p_desired: float, meas) -> Command:
        y = np.array([meas[0], meas[1], meas[2], meas[3]])
        self.x_hat = self._phi @ self.x_hat + self._gamma_u * self._u_prev + self._gamma_y @ y
        if not np.abs(self.x_hat).max() <= ESTIMATE_GUARD:  # NaN and inf too
            raise ControllerFault("state estimate diverged")
        ps_hat = float(self.C_d @ self.x_hat)

        u = -self._k_i * self.x_i - float(self._k_x @ self.x_hat) + self._k_ff * p_desired
        # anti-windup decided on the feedback command alone; the zero-mean
        # dither is superposed afterwards and may clip on its own crests
        err_i = p_desired - ps_hat
        saturated, integrate = _anti_windup(u, self.plant.force_max, -self._k_i * err_i)
        if integrate:
            self.x_i += err_i * CONTROL_DT
        force_req = u + dither_signal(t, p_desired, self.dither) * self.plant.area_slave
        current, force, _ = self.plant.drive(force_req)
        self._u_prev = force
        return Command(current=current, force=force,
                       pressure_cmd=force_req / self.plant.area_slave,
                       saturated=saturated)


def make_controller(name: str, plant: Plant, gains: GainSet | None = None,
                    dither: DitherConfig = DitherConfig(),
                    pid_master: PidConfig = PID_MASTER_DEFAULT,
                    pid_slave: PidConfig = PID_SLAVE_DEFAULT):
    """Factory for the five benchmark controller variants.

    The open-loop baseline runs without dither; every other variant keeps
    the dither enabled, matching the benchmark protocol.
    """
    if name == "open_loop":
        return OpenLoopController(plant, dither=replace(dither, enabled=False),
                                  friction_comp=False)
    if name == "friction_comp":
        return OpenLoopController(plant, dither=dither, friction_comp=True)
    if name == "pid_master":
        return PidController(plant, pid_master, dither=dither)
    if name == "pid_slave":
        return PidController(plant, pid_slave, dither=dither)
    if name == "lqgi":
        if gains is None:
            gains = synthesize(plant.params)
        return LqgiController(plant, gains, dither=dither)
    raise ValueError(f"unknown controller '{name}'; choose from {CONTROLLER_NAMES}")


# ---------------- linear-model frequency-domain tools ----------------

# Frequency grid of the linear-model checks: calibration, bandwidth, gain margins.
DESIGN_FREQS = np.logspace(math.log10(0.05), math.log10(400.0), 3000)
DESIGN_FREQS.flags.writeable = False

# Frequencies per block of the residue evaluation: a fixed block keeps the (block, n)
# work arrays small, where the whole 3000-point grid at once adds ~8 MB of peak memory.
_FRF_BLOCK = 256

# Certificate of each design FRF point: the largest componentwise backward error
# it may carry, and the largest refinement step relative to the solution.
FRF_BACKWARD_BOUND = 1e-13
FRF_STEP_BOUND = 1e-6


class FrfError(RuntimeError):
    """A design frequency response that its certificate does not cover."""


def _rank_one(blk):
    """u, w with outer(u, w) equal to the block up to rounding, zeros for a zero block.

    A block of higher rank gives a wrong solution, which the certificate refuses."""
    if not blk.any():
        return np.zeros(blk.shape[0]), np.zeros(blk.shape[1])
    u = blk[:, np.argmax(np.abs(blk).max(axis=0))]
    i = np.argmax(np.abs(u))
    return u, blk[i] / u[i]


def _plant_output_frf(freqs, M, b, row, tau: float) -> np.ndarray:
    """row @ x[:n] with (sI - M(s)) x = b(s) at each s = j*2*pi*f, in blocks of _FRF_BLOCK.

    The first n = len(row) states are the plant's; its input terms M[:n, n:]
    and b[:n] carry the delay d = exp(-s*tau).  The plant input is scalar, so
    M[:n, n:] = u w^T and the delay is a scalar loop around the delay-free M0:
    x is a residue sum over the eigenvalues of the balanced M0, closed by
    Sherman-Morrison, then one step of iterative refinement.  Each point is
    certified by its componentwise backward error
    max|r| / (|s||x| + |M(s)||x| + |b(s)|), r taken from M and b as passed
    (Oettli & Prager, Numer. Math. 6, 1964; Skeel, Math. Comp. 35, 1980), and
    by the refinement step, which measures what the residue sum missed: where
    M0 has no eigenvector basis or s sits on a pole, the backward error passes
    a huge answer but the step does not.  FrfError past either bound.
    """
    n = len(row)
    delayed, bd = np.zeros_like(M), np.zeros_like(b)
    delayed[:n, n:], bd[:n] = M[:n, n:], b[:n]
    m0, b0 = M - delayed, b - bd
    u, w = _rank_one(M[:n, n:])
    bal, t = linalg.matrix_balance(m0)
    try:
        lam, vec = np.linalg.eig(bal)
        v, v_inv = t @ vec, np.linalg.inv(vec) @ np.linalg.inv(t)
    except np.linalg.LinAlgError as exc:
        raise FrfError(f"no eigenvector basis of the delay-free loop: {exc}") from exc
    u_eig, w_eig = v_inv[:, :n] @ u, w @ v[n:]
    b0_eig, bd_eig = v_inv @ b0, v_inv @ bd
    m0_t, delayed_t = m0.T.astype(complex), delayed.T.astype(complex)   # cast once, not per block
    abs_m0_t, abs_delayed_t = np.abs(m0.T), np.abs(delayed.T)

    f = np.asarray(freqs, dtype=float)
    s_all = 2j * np.pi * f
    out = np.empty(len(s_all), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, len(s_all), _FRF_BLOCK):
            s = s_all[lo:lo + _FRF_BLOCK, None]
            d = np.exp(-tau * s)
            g = 1.0 / (s - lam)
            gu = g * u_eig
            dl = d / (1.0 - d * (g @ (w_eig * u_eig))[:, None])

            def solve(rhs_eig):
                z = g * rhs_eig
                z += dl * (z @ w_eig)[:, None] * gu
                return z @ v.T

            def residual(x):
                return b_s + x @ m0_t + (d * x) @ delayed_t - s * x

            b_s = b0 + d * bd
            x = solve(b0_eig + d * bd_eig)
            dx = solve(residual(x) @ v_inv.T)
            x += dx
            ax, r = np.abs(x), np.abs(residual(x))
            scale = np.abs(s) * ax + ax @ abs_m0_t + (np.abs(d) * ax) @ abs_delayed_t + np.abs(b_s)
            step, size_x = np.abs(dx).max(axis=1), ax.max(axis=1)
            bad = ~((r <= FRF_BACKWARD_BOUND * scale).all(axis=1)   # NaN fails too
                    & (step <= FRF_STEP_BOUND * size_x))
            if bad.any():
                k = np.argmax(bad)
                raise FrfError(f"FRF at {float(f[lo + k])!r} Hz not certified: backward error "
                               f"{np.max(r[k] / scale[k]):.3g}, refinement step "
                               f"{step[k] / size_x[k]:.3g} of max|x| "
                               f"(bounds {FRF_BACKWARD_BOUND:.0e}, {FRF_STEP_BOUND:.0e})")
            out[lo:lo + len(s)] = x[:, :n] @ row
    return out


def pressure_command_frf(plant: Plant, ss: StateSpace, freqs, output: str = "slave",
                         with_delay: bool = True) -> np.ndarray:
    """Complex response of a pressure tap, "slave" or "master", to the pressure command."""
    if output not in ("slave", "master"):
        raise ValueError(f"pressure tap must be 'slave' or 'master', got {output!r}")
    row = ss.C_d[0] if output == "slave" else ss.C[3]
    tau = plant.tau_delay if with_delay else 0.0
    return _plant_output_frf(freqs, ss.A, ss.B[:, 0], row, tau) * plant.area_slave


def _pid_c(cfg: PidConfig, w) -> np.ndarray:
    """The PID's continuous C(s) at s = w, with the derivative filter the implementation
    runs; with kd = 0 the derivative term is an exact complex zero."""
    wc = TWO_PI * cfg.deriv_filter_hz
    return cfg.kp + cfg.ki / w + cfg.kd * w * (wc / (w + wc))


def pid_loop_gain(plant: Plant, ss: StateSpace, cfg: PidConfig, freqs,
                  with_delay: bool = True) -> np.ndarray:
    g_tap = pressure_command_frf(plant, ss, freqs, output=cfg.feedback_tap,
                                 with_delay=with_delay)
    return _pid_c(cfg, 2j * np.pi * np.asarray(freqs, dtype=float)) * g_tap


def _tap_frfs(plant, ss, tap):
    """Slave-pressure and feedback-tap responses to the pressure command on DESIGN_FREQS."""
    g_slave = pressure_command_frf(plant, ss, DESIGN_FREQS, "slave")
    return g_slave, (g_slave if tap == "slave" else
                     pressure_command_frf(plant, ss, DESIGN_FREQS, tap))


def gain_margin_db(loop: np.ndarray, freqs) -> float:
    """Classical gain margin from the -180 deg crossings of a loop response."""
    phase = np.unwrap(np.angle(loop)) * 180.0 / math.pi
    mag_db = 20.0 * np.log10(np.abs(loop))
    a, b = phase[:len(freqs) - 1], phase[1:len(freqs)]
    gm = math.inf
    for th in (-180.0, -540.0, -900.0, -1260.0):
        i = np.flatnonzero(((a > th) & (th >= b)) | ((b > th) & (th >= a)))
        m = mag_db[i] + (a[i] - th) / (a[i] - b[i]) * (mag_db[i + 1] - mag_db[i])
        gm = min(gm, -m.max(initial=-math.inf))
    return gm


def pid_gain_margin_db(plant: Plant, ss: StateSpace, cfg: PidConfig) -> float:
    """Gain margin of a PID loop on the delay-free linear model over DESIGN_FREQS."""
    return float(gain_margin_db(pid_loop_gain(plant, ss, cfg, DESIGN_FREQS, with_delay=False),
                                DESIGN_FREQS))


def _pid_bandwidth(c, g_slave, g_tap) -> float | None:
    """Closed-loop bandwidth of C(j*omega) and tap responses sampled on DESIGN_FREQS,
    or on its first len(c) points."""
    resp = g_slave * c / (1.0 + c * g_tap)
    return crossing_bandwidth(DESIGN_FREQS[:len(resp)], 20.0 * np.log10(np.abs(resp)),
                              np.degrees(np.unwrap(np.angle(resp))))


def linear_pid_bandwidth(plant: Plant, ss: StateSpace, cfg: PidConfig) -> float | None:
    return _pid_bandwidth(_pid_c(cfg, 2j * np.pi * DESIGN_FREQS),
                          *_tap_frfs(plant, ss, cfg.feedback_tap))


def _bisect_integral_gain(g_slave, g_tap, target_hz: float, cfg: PidConfig) -> PidConfig:
    """cfg with its ki bisected until the loop of these tap responses hits target_hz.

    Each step decides bw >= target_hz on the grid prefix through the first point
    above the target: the crossing is the first hit, and np.unwrap is cumulative,
    so a hit there gives the full grid's bandwidth.  A prefix without a hit
    puts any crossing above the target, so only then is the whole grid scanned,
    to tell a crossing from none.
    """
    w = 2j * np.pi * DESIGN_FREQS
    c_rest = _pid_c(replace(cfg, ki=0.0), w)
    k = max(int(np.searchsorted(DESIGN_FREQS, target_hz, side="right")) + 1, 2)
    lo, hi = 1e-2, 5e3
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        for n in (k, len(w)):
            bw = _pid_bandwidth(mid / w[:n] + c_rest[:n], g_slave[:n], g_tap[:n])
            if bw is not None:
                break
        if bw is not None and bw >= target_hz:
            hi = mid
        else:
            lo = mid
    return replace(cfg, ki=math.sqrt(lo * hi))


def calibrate_pid_defaults(plant: Plant, ss: StateSpace) -> tuple[PidConfig, PidConfig]:
    """Reproduce the shipped PID defaults from the published bandwidths.

    Each shipped default's ki is bisected until its tap hits the REFERENCE_RESULTS
    bandwidth: the master tap's 11 Hz needs the small kd for margin at the first
    resonance; the slave tap's 3 Hz takes pure integral action.  Both taps share
    one slave response.
    """
    g_slave, g_master = _tap_frfs(plant, ss, "master")
    return (_bisect_integral_gain(g_slave, g_master, REFERENCE_RESULTS["pid_master"].bandwidth,
                                  PID_MASTER_DEFAULT),
            _bisect_integral_gain(g_slave, g_slave, REFERENCE_RESULTS["pid_slave"].bandwidth,
                                  PID_SLAVE_DEFAULT))


def lqgi_closed_loop_frf(plant: Plant, ss: StateSpace, gains: GainSet, freqs) -> np.ndarray:
    """Linear tracking response of the full LQGI interconnection.

    The clutch delay applies to the physical path into the plant but not
    to the estimator model, matching the implementation.
    """
    M, b = closed_loop_matrix(ss, gains), closed_loop_input(ss, gains)
    return _plant_output_frf(freqs, M, b, ss.C_d[0], plant.tau_delay)
