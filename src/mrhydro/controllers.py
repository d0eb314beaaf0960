"""Discrete-time implementations of the four torque controllers.

Each controller maps (time, desired pressure, measurements) to an MR coil
current at a fixed rate.  Measurements arrive as the tuple
(x1, v1, x3, p_master, p_slave); the slave pressure is only consumed by
the non-collocated PID.  All controllers superpose the dither command.

Gain calibration helpers work on the linear model in the frequency
domain: loop gain margins and closed-loop bandwidth from the published
criterion (first -3 dB or -135 deg crossing).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .analysis import REFERENCE_RESULTS, REPORT_COLUMNS, LowPass, crossing_bandwidth
from .plant import (Plant, StateSpace, TWO_PI, build_state_space, check_numbers,
                    friction_pressure)
from .synthesis import GainSet, closed_loop_input, closed_loop_matrix, synthesize

CONTROL_DT = 1e-3   # 1 kHz loop rate
SIM_DT = 1e-4       # 10 kHz plant substep

CONTROLLER_NAMES = tuple(REFERENCE_RESULTS)


class ControllerFault(RuntimeError):
    """Estimator divergence or non-finite controller state."""


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


COMP_STEEPNESS = 1000.0    # tanh slope of the friction-compensation estimate [s/m]
COMP_V1_FILTER_HZ = 150.0  # piston-speed filter of the friction-compensation estimate


class OpenLoopController:
    """Feedthrough reference conversion with optional friction compensation.

    The compensation estimates the screw friction pressure from the
    identified mu, the measured master pressure and the filtered piston
    speed and adds it to the command.  COMP_STEEPNESS is deliberately
    sharp so the estimate tracks the near-discontinuous stick-slip
    friction it has to cancel.
    """

    def __init__(self, plant: Plant, dither: DitherConfig = DitherConfig(),
                 friction_comp: bool = False, dt: float = CONTROL_DT):
        self.plant = plant
        self.dither = dither
        self.friction_comp = friction_comp
        self.dt = dt
        self._v1_filter = LowPass(COMP_V1_FILTER_HZ, dt)

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
        if self.feedback_tap not in ("master", "slave"):
            raise ValueError("feedback_tap must be 'master' or 'slave'")
        check_numbers(self, ValueError, positive=("deriv_filter_hz",), finite=("kp", "ki", "kd"))


# shipped defaults, produced by calibrate_pid_defaults() on the default plant
PID_MASTER_DEFAULT = PidConfig(kp=0.0, ki=40.0, kd=1.0e-3, feedback_tap="master")
PID_SLAVE_DEFAULT = PidConfig(kp=0.0, ki=19.0, kd=0.0, feedback_tap="slave")


class PidController:
    """Parallel PID on pressure error, conditional anti-windup, dither.

    The command rides on the DC pretension so that zero error with an
    empty integrator commands exactly the line pretension feedthrough.
    """

    def __init__(self, plant: Plant, config: PidConfig,
                 dither: DitherConfig = DitherConfig(), dt: float = CONTROL_DT):
        self.plant = plant
        self.config = config
        self.dither = dither
        self.dt = dt
        self.integral = 0.0
        self._prev_fb = None
        self._dfilt = LowPass(config.deriv_filter_hz, dt)

    def step(self, t: float, p_desired: float, meas) -> Command:
        cfg = self.config
        _, _, _, p_master, p_slave = meas
        fb = p_master if cfg.feedback_tap == "master" else p_slave
        error = p_desired - fb

        if self._prev_fb is None:
            d_raw = 0.0
        else:
            d_raw = (fb - self._prev_fb) / self.dt
        self._prev_fb = fb
        d_term = -cfg.kd * self._dfilt.step(d_raw)

        p_cmd = self.plant.p_dc + cfg.kp * error + self.integral + d_term
        # anti-windup on the feedback command's own limits; the zero-mean
        # dither is added afterwards
        saturated, integrate = _anti_windup(p_cmd * self.plant.area_slave,
                                            self.plant.force_max, error)
        if integrate:
            self.integral += cfg.ki * error * self.dt
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
    held while the force command saturates.
    """

    def __init__(self, plant: Plant, gains: GainSet, dt: float = CONTROL_DT,
                 dither: DitherConfig = DitherConfig()):
        self.plant = plant
        self.gains = gains
        self.dt = dt
        self.dither = dither
        model = build_state_space(plant.params)
        self.C_d = model.C_d[0]
        A, B, C, L = model.A, model.B, model.C, gains.L
        m = np.zeros((12, 12))
        m[:7, :7] = (A - L @ C) * dt
        m[:7, 7:8] = B * dt
        m[:7, 8:] = L * dt
        em = linalg.expm(m)
        self._phi = em[:7, :7]
        self._gamma_u = em[:7, 7]
        self._gamma_y = em[:7, 8:]
        self._k_i = gains.K_integral
        self._k_x = gains.K_x
        self._k_ff = gains.K_ff
        self.xi_clamp = 2.0 * plant.force_max / max(abs(self._k_i), 1e-12)
        self.estimate_guard = 1e12
        self.x_hat = np.zeros(7)
        self.x_i = 0.0
        self._u_prev = 0.0

    def step(self, t: float, p_desired: float, meas) -> Command:
        y = np.array([meas[0], meas[1], meas[2], meas[3]])
        self.x_hat = self._phi @ self.x_hat + self._gamma_u * self._u_prev + self._gamma_y @ y
        if not np.abs(self.x_hat).max() <= self.estimate_guard:  # NaN and inf too
            raise ControllerFault("state estimate diverged")
        ps_hat = float(self.C_d @ self.x_hat)

        u = -self._k_i * self.x_i - float(self._k_x @ self.x_hat) + self._k_ff * p_desired
        # anti-windup decided on the feedback command alone; the zero-mean
        # dither is superposed afterwards and may clip on its own crests
        err_i = p_desired - ps_hat
        saturated, integrate = _anti_windup(u, self.plant.force_max, -self._k_i * err_i)
        if integrate:
            self.x_i += err_i * self.dt
            self.x_i = min(max(self.x_i, -self.xi_clamp), self.xi_clamp)
        force_req = u + dither_signal(t, p_desired, self.dither) * self.plant.area_slave
        current, force, _ = self.plant.drive(force_req)
        self._u_prev = force
        return Command(current=current, force=force,
                       pressure_cmd=force_req / self.plant.area_slave,
                       saturated=saturated)


def make_controller(name: str, plant: Plant, gains: GainSet | None = None,
                    dither: DitherConfig = DitherConfig(),
                    pid_master: PidConfig = PID_MASTER_DEFAULT,
                    pid_slave: PidConfig = PID_SLAVE_DEFAULT,
                    dt: float = CONTROL_DT):
    """Factory for the five benchmark controller variants.

    The open-loop baseline runs without dither; every other variant keeps
    the dither enabled, matching the benchmark protocol.
    """
    if name == "open_loop":
        return OpenLoopController(plant, dither=replace(dither, enabled=False),
                                  friction_comp=False, dt=dt)
    if name == "friction_comp":
        return OpenLoopController(plant, dither=dither, friction_comp=True, dt=dt)
    if name == "pid_master":
        return PidController(plant, pid_master, dither=dither, dt=dt)
    if name == "pid_slave":
        return PidController(plant, pid_slave, dither=dither, dt=dt)
    if name == "lqgi":
        if gains is None:
            gains = synthesize(plant.params)
        return LqgiController(plant, gains, dt=dt, dither=dither)
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
    """Complex response of a pressure tap to the pressure command."""
    row = ss.C_d[0] if output == "slave" else ss.C[3]
    tau = plant.tau_delay if with_delay else 0.0
    return _plant_output_frf(freqs, ss.A, ss.B[:, 0], row, tau) * plant.area_slave


def _pid_jw_parts(kd: float, deriv_filter_hz: float, freqs):
    """The j*omega grid and the filtered derivative term of C(j*omega), None
    without one: the parts that do not depend on kp or ki."""
    w = 2j * np.pi * np.asarray(freqs, dtype=float)
    if not kd:
        return w, None
    # derivative is filtered in the implementation; include the roll-off
    wc = TWO_PI * deriv_filter_hz
    return w, kd * w * (wc / (w + wc))


def _pid_c_of_jw(kp: float, ki: float, w, kd_term) -> np.ndarray:
    c = kp + ki / w
    return c if kd_term is None else c + kd_term


def pid_loop_gain(plant: Plant, ss: StateSpace, cfg: PidConfig, freqs,
                  with_delay: bool = True) -> np.ndarray:
    g_tap = pressure_command_frf(plant, ss, freqs, output=cfg.feedback_tap,
                                 with_delay=with_delay)
    w, kd_term = _pid_jw_parts(cfg.kd, cfg.deriv_filter_hz, freqs)
    return _pid_c_of_jw(cfg.kp, cfg.ki, w, kd_term) * g_tap


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


def _pid_bandwidth(c, g_slave, g_tap) -> float | None:
    """Closed-loop bandwidth of C(j*omega) and tap responses sampled on DESIGN_FREQS,
    or on its first len(c) points."""
    resp = g_slave * c / (1.0 + c * g_tap)
    return crossing_bandwidth(DESIGN_FREQS[:len(resp)], 20.0 * np.log10(np.abs(resp)),
                              np.degrees(np.unwrap(np.angle(resp))))


def linear_pid_bandwidth(plant: Plant, ss: StateSpace, cfg: PidConfig) -> float | None:
    c = _pid_c_of_jw(cfg.kp, cfg.ki, *_pid_jw_parts(cfg.kd, cfg.deriv_filter_hz, DESIGN_FREQS))
    return _pid_bandwidth(c, *_tap_frfs(plant, ss, cfg.feedback_tap))


def _bisect_integral_gain(g_slave, g_tap, target_hz: float, kd: float) -> float:
    """Bisect ki, with kp = 0, until the loop of these tap responses hits target_hz.

    Each step decides bw >= target_hz on the grid prefix through the first point
    above the target: the crossing is the first hit, and np.unwrap is cumulative,
    so a hit there gives the full grid's bandwidth.  A prefix without a hit
    puts any crossing above the target, so only then is the whole grid scanned,
    to tell a crossing from none.
    """
    w, kd_term = _pid_jw_parts(kd, PidConfig.deriv_filter_hz, DESIGN_FREQS)
    k = max(int(np.searchsorted(DESIGN_FREQS, target_hz, side="right")) + 1, 2)
    prefix = (w[:k], None if kd_term is None else kd_term[:k], g_slave[:k], g_tap[:k])
    lo, hi = 1e-2, 5e3
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        for w_, kd_, g_s, g_t in (prefix, (w, kd_term, g_slave, g_tap)):
            bw = _pid_bandwidth(_pid_c_of_jw(0.0, mid, w_, kd_), g_s, g_t)
            if bw is not None:
                break
        if bw is not None and bw >= target_hz:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


def calibrate_integral_gain(plant: Plant, ss: StateSpace, tap: str, target_hz: float,
                            kd: float = 0.0) -> float:
    """Bisect the integral gain until the linear loop hits the target bandwidth.

    The tap responses do not depend on the gain, so they are computed once.
    """
    return _bisect_integral_gain(*_tap_frfs(plant, ss, tap), target_hz, kd)


def calibrate_pid_defaults(plant: Plant, ss: StateSpace) -> tuple[PidConfig, PidConfig]:
    """Reproduce the shipped PID defaults from the published bandwidths.

    Each tap targets its REFERENCE_RESULTS bandwidth: the master tap's 11 Hz
    needs the small kd for margin at the first resonance; the slave tap's
    3 Hz takes pure integral action.  Both taps share one slave response.
    """
    col = [attr for attr, _, _ in REPORT_COLUMNS].index("bandwidth")
    g_slave, g_master = _tap_frfs(plant, ss, "master")
    ki_m = _bisect_integral_gain(g_slave, g_master, REFERENCE_RESULTS["pid_master"][col],
                                 PID_MASTER_DEFAULT.kd)
    ki_s = _bisect_integral_gain(g_slave, g_slave, REFERENCE_RESULTS["pid_slave"][col], 0.0)
    master = PidConfig(kp=0.0, ki=ki_m, kd=PID_MASTER_DEFAULT.kd, feedback_tap="master")
    slave = PidConfig(kp=0.0, ki=ki_s, kd=0.0, feedback_tap="slave")
    return master, slave


def lqgi_closed_loop_frf(plant: Plant, ss: StateSpace, gains: GainSet, freqs) -> np.ndarray:
    """Linear tracking response of the full LQGI interconnection.

    The clutch delay applies to the physical path into the plant but not
    to the estimator model, matching the implementation.
    """
    M, b = closed_loop_matrix(ss, gains), closed_loop_input(ss, gains)
    return _plant_output_frf(freqs, M, b, ss.C_d[0], plant.tau_delay)
