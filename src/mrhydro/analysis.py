"""Performance metrics from traces and linear models.

Frequency response by per-frequency sine dwell with least-squares fits,
bandwidth by the first -3 dB / -135 deg crossing, step metrics, peak
backdriving torque deviation, friction-coefficient identification, the
dither smoothing study, the benchmark comparison table and the acceptance
verdicts.
"""
from __future__ import annotations

import io
import math
from collections import namedtuple
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .plant import TWO_PI, FrictionParams

# The comparison table's columns: RowResult attribute, header label, unit.
REPORT_COLUMNS = (
    ("bandwidth", "Bandwidth", "[Hz]"),
    ("rise_ms", "Rise 63%", "[ms]"),
    ("overshoot", "Overshoot", "[%]"),
    ("dev_1hz_0", "1Hz dev @0", "[N.m]"),
    ("dev_1hz_10", "1Hz dev @10", "[N.m]"),
    ("dev_5hz_10", "5Hz dev @10", "[N.m]"),
)


@dataclass(frozen=True)
class RowResult:
    """Measured six-column row for one controller."""
    bandwidth: float | None = None
    rise_ms: float | None = None
    overshoot: float | None = None
    dev_1hz_0: float | None = None
    dev_1hz_10: float | None = None
    dev_5hz_10: float | None = None


# Reference results for the five controller variants (measured on the
# original bench; the 5 Hz torque-deviation column is simulation there too).
REFERENCE_RESULTS = {
    "open_loop":     RowResult(25.0, 16.6, 34.0, 0.60, 2.4, 4.2),
    "friction_comp": RowResult(25.0, 15.8, 38.0, 0.38, 1.2, 5.0),
    "pid_master":    RowResult(11.0, 17.2, 10.0, 0.17, 0.5, 3.1),
    "pid_slave":     RowResult(3.0, 22.2, 2.0, 0.23, 0.5, 3.1),
    "lqgi":          RowResult(34.0, 14.4, 19.0, 0.24, 0.6, 1.8),
}

ROW_LABELS = {
    "open_loop": "Open-loop (baseline)",
    "friction_comp": "Open-loop + friction comp.",
    "pid_master": "Master pressure PID",
    "pid_slave": "Slave pressure PID",
    "lqgi": "State feedback LQGI",
}

FIT_CYCLES = 10               # trailing steady cycles of a dwell that its sine fits use
SETTLE_FRACTION = 0.2         # trailing share of a step response that sets its final value
REVERSAL_BAND_SPEED = 0.5e-3  # backdrive speed bound of a motion reversal [m/s]
SPREAD_FILTER_HZ = 50.0       # low-pass on the master pressure before its reversal spread


class AnalysisError(ValueError):
    pass


@dataclass
class FrfPoint:
    frequency: float       # [Hz]
    magnitude_db: float    # relative to the command, absolute scale
    phase_deg: float       # unwrapped across the sweep
    flagged: bool = False  # sine fit residual above 10% of amplitude


@dataclass
class StepMetrics:
    rise_time_63: float       # [ms]
    overshoot: float          # [%]
    final_value: float        # [N.m]
    reliable: bool = True


def fit_sine(t: np.ndarray, y: np.ndarray, freq: float):
    """Least-squares amplitude/phase/offset of a sinusoid at a known frequency.

    Returns (amplitude, phase_rad, offset, rms_residual).
    """
    w = TWO_PI * freq
    X = np.column_stack([np.sin(w * t), np.cos(w * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    amp = math.hypot(coef[0], coef[1])
    phase = math.atan2(coef[1], coef[0])
    resid = y - X @ coef
    return amp, phase, coef[2], float(np.sqrt(np.mean(resid**2)))


class LowPass:
    """Causal first-order low-pass stepped one sample at a time, primed at
    its first input: y[0] = x[0], y[n] = a y[n-1] + (1 - a) x[n].  y reads
    NaN until then, and a y set to NaN primes at the next input."""

    __slots__ = ("alpha", "y")

    def __init__(self, cutoff_hz: float, dt: float):
        self.alpha = math.exp(-TWO_PI * cutoff_hz * dt)
        self.y = math.nan

    def step(self, u: float) -> float:
        y = self.y
        self.y = u if y != y else self.alpha * y + (1.0 - self.alpha) * u   # y != y: NaN
        return self.y


def lowpass(y: np.ndarray, cutoff_hz: float, dt: float) -> np.ndarray:
    """A fresh LowPass stepped over the samples of y."""
    f = LowPass(cutoff_hz, dt)
    return np.array([f.step(v) for v in np.asarray(y, dtype=float).tolist()])


def frf_from_sine_dwell(runner, freqs) -> list[FrfPoint]:
    """Measure the tracking frequency response one dwell at a time.

    runner(freq) must return a trace of at least FIT_CYCLES steady cycles
    of sinusoidal desired pressure; gain and phase come from sinusoid fits
    to the slave and desired pressures over the trailing window.  freqs
    must be strictly increasing, since the phase is unwrapped along them;
    the grid is checked before the first dwell runs.
    """
    freqs = list(freqs)
    if not all(0.0 < f <= 200.0 for f in freqs):
        raise AnalysisError("dwell frequencies must lie in (0, 200] Hz")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise AnalysisError("dwell frequencies must be strictly increasing")

    def fit(f: float, trace) -> tuple:
        t_end = trace.t[-1]
        window = trace.t >= t_end - FIT_CYCLES / f
        t = trace.t[window]
        amp_y, ph_y, _, res_y = fit_sine(t, trace.p_slave[window], f)
        amp_r, ph_r, _, _ = fit_sine(t, trace.p_desired[window], f)
        if amp_r <= 0.0:
            raise AnalysisError(f"dwell at {f} Hz has no reference excitation")
        return f, amp_y / amp_r, ph_y - ph_r, res_y > 0.10 * max(amp_y, 1e-12)

    # each trace is fitted in the expression that runs it, so no finished
    # trace stays alive while the next dwell records
    raw = [fit(f, runner(f)) for f in freqs]
    phases = np.unwrap([p for _, _, p, _ in raw])
    return [
        FrfPoint(frequency=f, magnitude_db=20.0 * math.log10(g),
                 phase_deg=math.degrees(ph), flagged=fl)
        for (f, g, _, fl), ph in zip(raw, phases)
    ]


def crossing_bandwidth(freqs, mag_db, phase_deg) -> float | None:
    """First frequency at -3 dB below DC or -135 deg, whichever is lower.

    The DC reference is the lowest-frequency point.  Linear interpolation
    between grid points; None when neither criterion is crossed in range.
    """
    f = np.asarray(freqs, dtype=float)
    if len(f) < 2:
        raise AnalysisError("need at least two FRF points")
    if np.any(np.diff(f) <= 0.0):
        raise AnalysisError("frequency grid must be strictly increasing")
    mag, ph = np.asarray(mag_db, dtype=float), np.asarray(phase_deg, dtype=float)
    hit = (mag <= mag[0] - 3.0) | (ph <= -135.0)
    if not hit.any():
        return None
    i = int(np.argmax(hit))
    if i == 0:
        return float(f[0])
    # neither criterion holds at i - 1: interpolate each one that holds at i
    r = min((a[i - 1] - th) / (a[i - 1] - a[i])
            for a, th in ((mag, mag[0] - 3.0), (ph, -135.0)) if a[i] <= th)
    return float(f[i - 1] + r * (f[i] - f[i - 1]))


def bandwidth(frf: list[FrfPoint]) -> float | None:
    """crossing_bandwidth of measured frequency-response points."""
    return crossing_bandwidth([p.frequency for p in frf], [p.magnitude_db for p in frf],
                              [p.phase_deg for p in frf])


def step_metrics(trace) -> StepMetrics:
    """Rise time and overshoot of a single-step torque trace.

    The step instant is read from the reference series; the final value is
    the mean over the trailing SETTLE_FRACTION of the post-step window.
    """
    ref = trace.ref_torque
    changes = np.nonzero(np.diff(ref) != 0.0)[0]
    if len(changes) != 1:
        raise AnalysisError("trace must contain exactly one reference step")
    i0 = changes[0] + 1
    t = trace.t[i0:] - trace.t[i0]
    y = trace.torque[i0:]
    if t[-1] < 0.5:
        raise AnalysisError("need at least 0.5 s of post-step window")
    n_tail = max(int(len(y) * SETTLE_FRACTION), 1)
    final = float(np.mean(y[-n_tail:]))
    prev_tail = float(np.mean(y[-2 * n_tail:-n_tail]))
    reliable = abs(prev_tail - final) <= 0.02 * abs(final) if final != 0.0 else False
    above = np.nonzero(y >= 0.63 * final)[0]
    if len(above) == 0 or final <= 0.0:
        return StepMetrics(math.nan, math.nan, final, reliable=False)
    rise_ms = float(t[above[0]] * 1e3)
    overshoot = max(0.0, (float(np.max(y)) - final) / final * 100.0)
    return StepMetrics(rise_ms, overshoot, final, reliable=reliable)


def _first_cycle_end(trace) -> float:
    """Start of a backdrive run's scored window: the first motion cycle is excluded."""
    return trace.scenario.pre_hold + 1.0 / trace.scenario.backdrive_freq


def torque_deviation(trace) -> float:
    """Peak |delivered - recorded commanded| torque, first backdrive cycle excluded."""
    mask = trace.t >= _first_cycle_end(trace)
    if not np.any(mask):
        raise AnalysisError("trace shorter than one backdrive cycle")
    return float(np.abs(trace.torque[mask] - trace.ref_torque[mask]).max())


@dataclass
class FrictionIdResult:
    mu: float
    r_squared: float
    n_cycles: int
    intercept: float  # speed-proportional (damping) share [Pa]


def identify_friction(trace) -> FrictionIdResult:
    """Recover the friction coefficient from a ramped backdrive run.

    Per backdrive cycle: remove a linear trend from the master pressure,
    take half the peak-to-peak deviation as the friction pressure, and
    normalize the cycle's load by tanh of the measured peak piston speed,
    at the plant's default smooth-friction slope FrictionParams.n_steepness.
    A linear fit of deviation against normalized load gives mu; the
    damping contribution is speed-constant across cycles and lands in the
    intercept.
    """
    t0 = _first_cycle_end(trace)
    period = 1.0 / trace.scenario.backdrive_freq
    loads, devs = [], []
    c = 0
    while True:
        lo = t0 + c * period
        hi = lo + period
        if hi > trace.t[-1] + 1e-9:
            break
        m = (trace.t >= lo) & (trace.t < hi)
        c += 1
        if m.sum() < 50:
            continue
        tt = trace.t[m] - lo
        X = np.column_stack([np.ones(m.sum()), tt])
        coef, *_ = np.linalg.lstsq(X, trace.p_master[m], rcond=None)
        resid = trace.p_master[m] - X @ coef
        p_nominal = coef[0] + coef[1] * 0.5 * period
        v_peak = float(np.percentile(np.abs(trace.state[m, 1]), 98))
        loads.append(p_nominal * math.tanh(FrictionParams.n_steepness * v_peak))
        devs.append(0.5 * (resid.max() - resid.min()))
    if len(loads) < 5:
        raise AnalysisError("need at least five full cycles to identify friction")
    loads = np.array(loads)
    devs = np.array(devs)
    X = np.column_stack([loads, np.ones_like(loads)])
    coef, *_ = np.linalg.lstsq(X, devs, rcond=None)
    pred = X @ coef
    ss_res = float(np.sum((devs - pred) ** 2))
    ss_tot = float(np.sum((devs - devs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return FrictionIdResult(mu=float(coef[0]), r_squared=r2,
                            n_cycles=len(loads), intercept=float(coef[1]))


@dataclass
class DitherStudy:
    spread_off: float        # [Pa] reversal-band pressure spread, dither off
    spread_on: float         # [Pa] same with dither on
    ripple_master: float     # [Pa] dither-frequency master ripple amplitude
    ripple_slave: float      # [Pa] same at the slave
    dither_hz: float         # [Hz] the frequency the ripples are fit at


def dither_smoothing(trace_off, trace_on, dither_hz: float) -> DitherStudy:
    """Quantify friction smoothing around motion reversals.

    Spread = max - min of the low-passed master pressure over samples where
    the prescribed backdrive speed is within the reversal band, first cycle
    excluded.  Ripple amplitudes come from sinusoid fits at dither_hz on
    the dithered run.
    """
    def spread(trace):
        dt = float(trace.t[1] - trace.t[0])
        pm = lowpass(trace.p_master, SPREAD_FILTER_HZ, dt)
        start = _first_cycle_end(trace)
        m = (trace.t >= start) & (np.abs(trace.state[:, 5]) <= REVERSAL_BAND_SPEED)
        if not np.any(m):
            raise AnalysisError("no samples inside the reversal band")
        return float(pm[m].max() - pm[m].min())

    m = trace_on.t >= _first_cycle_end(trace_on)
    amp_m, *_ = fit_sine(trace_on.t[m], trace_on.p_master[m], dither_hz)
    amp_s, *_ = fit_sine(trace_on.t[m], trace_on.p_slave[m], dither_hz)
    return DitherStudy(spread_off=spread(trace_off), spread_on=spread(trace_on),
                       ripple_master=amp_m, ripple_slave=amp_s, dither_hz=dither_hz)


# ---------------- comparison table ----------------

def _window(name: str, attr: str, lo: float, hi: float) -> tuple:
    return f"{name}.{attr} in [{lo:.3g}, {hi:.3g}]", ((name, attr),), lambda v: lo <= v <= hi


_DEV = tuple((name, "dev_5hz_10") for name in REFERENCE_RESULTS)
_STEP = tuple((name, attr) for attr in ("bandwidth", "rise_ms", "overshoot")
              for name in ("open_loop", "lqgi"))

# The matrix legs of the acceptance verdicts, by verdict label: a leg's label, the (row,
# column) cells it reads and its test of their values; in this order, comparison_report's
# checks.  A one-cell window is checked when its row is present, and a missing cell fails
# it; a cross-row leg, only when every cell it reads was measured.  0 marks open loop.
MATRIX_LEGS = {
    "open-loop baseline step": (
        _window("open_loop", "bandwidth", 17.5, 32.5),
        _window("open_loop", "rise_ms", 16.6 * 0.7, 16.6 * 1.3),
        _window("open_loop", "overshoot", 22.0, 46.0)),
    "5 Hz backdrive magnitudes": (
        _window("open_loop", "dev_5hz_10", 3.0, 5.4),
        _window("lqgi", "dev_5hz_10", 1.2, 2.4),
        ("5 Hz ordering: lqgi smallest", _DEV, lambda ol, fc, pm, ps, lq: lq < min(ol, fc, pm, ps)),
        ("5 Hz ordering: master ~ slave PID", _DEV,
         lambda ol, fc, pm, ps, lq: abs(math.log(pm / ps)) <= math.log(1.3))),
    "ordering PIDs < open-loop": (
        ("5 Hz ordering: PIDs < open_loop", _DEV, lambda ol, fc, pm, ps, lq: max(pm, ps) < ol),),
    "ordering open-loop < friction-comp": (
        ("5 Hz ordering: open_loop < friction_comp", _DEV, lambda ol, fc, *_: ol < fc),),
    "LQGI step": (
        ("lqgi bandwidth >= max(28, open_loop)", _STEP,
         lambda bw0, bw, rise0, rise, ov0, ov: bw >= 28.0 and bw >= bw0),
        ("lqgi overshoot < open_loop", _STEP, lambda bw0, bw, rise0, rise, ov0, ov: ov < ov0),
        ("lqgi rise <= open_loop", _STEP, lambda bw0, bw, rise0, rise, ov0, ov: rise <= rise0)),
}


@dataclass
class ComparisonReport:
    rows: dict     # name -> RowResult
    checks: dict   # label -> bool

    def render_text(self) -> str:
        out = io.StringIO()
        width = 16
        hdr = f"{'Controller':<28}" + "".join(f"{lab:>{width}}" for _, lab, _ in REPORT_COLUMNS)
        unit = f"{'':<28}" + "".join(f"{u:>{width}}" for _, _, u in REPORT_COLUMNS)
        out.write(hdr + "\n" + unit + "\n" + "-" * len(hdr) + "\n")

        def cell(val, ref):
            meas = "absent" if val is None else f"{val:.2f}"
            return f"{meas + ' (' + format(ref, '.2f') + ')':>{width}}"

        for name, ref in REFERENCE_RESULTS.items():
            row = self.rows.get(name)
            label = ROW_LABELS[name]
            if row is None:
                out.write(f"{label:<28}{'row absent':>{width}}\n")
                continue
            out.write(f"{label:<28}" + "".join(cell(getattr(row, attr), getattr(ref, attr))
                                               for attr, _, _ in REPORT_COLUMNS) + "\n")
        out.write("\nmeasured (reference) per cell\n\nchecks:\n")
        for label, ok in self.checks.items():
            out.write(f"  [{'PASS' if ok else 'FAIL'}] {label}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("controller,metric,measured,reference\n")
        for name, ref in REFERENCE_RESULTS.items():
            row = self.rows.get(name)
            for metric, _, _ in REPORT_COLUMNS:
                mv = getattr(row, metric, None) if row else None
                out.write(f"{name},{metric},"
                          f"{'' if mv is None else format(mv, '.17g')},{getattr(ref, metric)}\n")
        for label, ok in self.checks.items():
            out.write(f'check,"{label}",{int(ok)},1\n')
        return out.getvalue()


def comparison_report(rows: dict) -> ComparisonReport:
    """Assemble the comparison table from per-controller measured rows.

    rows maps controller name -> RowResult (missing names are reported as
    absent).  Pure function of its inputs: rerunning on saved results
    reproduces the same report.
    """
    unknown = set(rows) - set(REFERENCE_RESULTS)
    if unknown:
        raise AnalysisError(f"unknown controller row(s): {sorted(unknown)}")
    checks = {}
    for label, cells, test in (leg for legs in MATRIX_LEGS.values() for leg in legs):
        if all(name in rows for name, _ in cells):
            values = [getattr(rows[name], attr) for name, attr in cells]
            if None not in values:
                checks[label] = test(*values)
            elif len(cells) == 1:
                checks[label] = False
    return ComparisonReport(rows=dict(rows), checks=checks)


# ---------------- acceptance verdicts ----------------

# What the acceptance verdicts read; a field not measured is None.  Evidence: the matrix
# rows (name -> RowResult), their wall time [s] and the model evidence.  CareBatch: the
# scalar CARE's error, a seeded batch's largest residual and its wall time [s].
# LinearLoop: the LQGI weights and noise covariances, the linear DC gain and the largest
# closed-loop eigenvalue real part [rad/s].  PidDesign: each tap's linear bandwidth [Hz]
# (nan: none in range) and delay-free gain margin [dB], and the slave tap's overshoot on
# the friction-free plant [%].  StepHalving: the worst relative RMS change of p_slave
# when sim_dt halves, and whether a seeded noisy LQGI run repeats bit for bit.
CareBatch = namedtuple("CareBatch", "scalar_err worst_residual seconds")
LinearLoop = namedtuple("LinearLoop", "weights noise dc_gain max_real")
PidDesign = namedtuple("PidDesign", "bw_master bw_slave gm_master gm_slave slave_overshoot")
StepHalving = namedtuple("StepHalving", "worst_rms reproducible")
Evidence = namedtuple("Evidence", "rows matrix_s care loop friction pid dither halving",
                      defaults=(None,) * 7)


class Verdict(NamedTuple):
    number: int
    label: str
    ok: bool | None   # None: its evidence was not measured
    detail: str = ""

    def line(self) -> str:
        said = "not measured" if self.ok is None else f"{'PASS' if self.ok else 'FAIL'} -- "
        return f"ACCEPTANCE {self.number} ({self.label}): {said}{self.detail}"


def _published_weights(lp: LinearLoop) -> bool:
    return (lp.weights.rho == 1e-4 and lp.weights.rho_i == 1000.0 and lp.noise.rho_l == 3e-5
            and tuple(lp.noise.r_diag) == (3.6e-9, 1e-6, 2.5e-11, 5.6e5)
            and tuple(lp.noise.d_diag) == (1.0, 1e5, 1.0, 1.0, 1.0, 1e6, 1.0))


def verdicts(ev: Evidence) -> list:
    """The twelve ACCEPTANCE verdicts of an evidence record, in criterion order.  A matrix
    criterion is decided by its MATRIX_LEGS; an unmeasured cell in its detail reads nan."""
    checks = comparison_report(ev.rows).checks
    r = {n: RowResult(*(math.nan if v is None else v for v in astuple(row)))
         for n, row in ev.rows.items()}

    def legs(label):   # the leg verdicts of criterion label; None while a row is absent
        group = MATRIX_LEGS[label]
        if all(n in r for _, cells, _ in group for n, _ in cells):
            return [checks.get(leg, False) for leg, _, _ in group]

    def dither(d):
        spread, ripple = d.spread_on / d.spread_off, d.ripple_slave / d.ripple_master
        return (spread <= 0.5 and ripple <= 0.35,
                f"reversal-band spread {d.spread_off / 1e3:.0f} -> {d.spread_on / 1e3:.0f} kPa, "
                f"ratio {spread:.2f} (<=0.5); slave/master {d.dither_hz:g} Hz ripple "
                f"{ripple:.3f} (<=0.35)")

    ol, lq = r.get("open_loop"), r.get("lqgi")
    dev = {n: r[n].dev_5hz_10 for n in REFERENCE_RESULTS if n in r}
    table = (
        (1, "CARE correctness", ev.care, lambda c: (
            c.scalar_err <= 1e-10 and c.worst_residual <= 1e-8 and c.seconds < 5.0,
            f"scalar err {c.scalar_err:.2e} (<=1e-10), worst residual "
            f"{c.worst_residual:.2e} (<=1e-8), 100 cases in {c.seconds:.2f} s (<5)")),
        (2, "feedforward exactness", ev.loop, lambda lp: (
            abs(lp.dc_gain - 1.0) <= 1e-6,
            f"linear closed-loop DC gain {lp.dc_gain:.9f} (1 +- 1e-6)")),
        (3, "stability certificates", ev.loop, lambda lp: (
            _published_weights(lp) and lp.max_real < 0.0,
            f"default weights in effect: {_published_weights(lp)}; 15-state max "
            f"eigenvalue real part {lp.max_real:.4g} rad/s (<0)")),
        (4, "friction identification", ev.friction, lambda f: (
            abs(f.mu - 0.14) <= 0.01 and f.r_squared >= 0.97,
            f"mu {f.mu:.4f} (0.14 +- 0.01), R^2 {f.r_squared:.4f} (>=0.97) "
            f"over {f.n_cycles} cycles")),
        (5, "open-loop baseline step", legs("open-loop baseline step"), lambda oks: (all(oks),
            f"bandwidth {ol.bandwidth:.1f} Hz (25 +- 30%), rise {ol.rise_ms:.1f} ms "
            f"(16.6 +- 30%), overshoot {ol.overshoot:.1f}% (34 +- 12 pp)")),
        (6, "LQGI step", legs("LQGI step"), lambda oks: (all(oks),
            f"bandwidth {lq.bandwidth:.1f} Hz (>=28 and >= baseline {ol.bandwidth:.1f}), "
            f"overshoot {lq.overshoot:.1f}% (< {ol.overshoot:.1f}), rise {lq.rise_ms:.1f} ms "
            f"(<= {ol.rise_ms:.1f})")),
        (7, "PID calibration", ev.pid, lambda p: (
            abs(p.bw_master - 11.0) <= 3.0 and abs(p.bw_slave - 3.0) <= 1.5
            and p.slave_overshoot <= 5.0 and p.gm_master >= 6.0 and p.gm_slave >= 6.0,
            f"master {p.bw_master:.2f} Hz (11 +- 3) GM {p.gm_master:.1f} dB (>=6); "
            f"slave {p.bw_slave:.2f} Hz (3 +- 1.5) GM {p.gm_slave:.1f} dB (>=6); "
            f"slave design overshoot {p.slave_overshoot:.2f}% (<=5)")),
        (8, "5 Hz backdrive magnitudes", legs("5 Hz backdrive magnitudes"), lambda oks: (all(oks),
            ", ".join(f"{n}={v:.2f}" for n, v in dev.items())
            + f"; LQGI in [1.2, 2.4]: {oks[1]}; open-loop in [3.0, 5.4]: {oks[0]}; "
            f"LQGI smallest: {oks[2]}; master ~ slave: {oks[3]}")),
        (8, "ordering PIDs < open-loop", legs("ordering PIDs < open-loop"), lambda oks: (all(oks),
            f"max PID {max(dev['pid_master'], dev['pid_slave']):.2f} vs "
            f"open-loop {dev['open_loop']:.2f}")),
        (8, "ordering open-loop < friction-comp", legs("ordering open-loop < friction-comp"),
         lambda oks: (all(oks), f"open-loop {dev['open_loop']:.2f} vs friction-comp "
                                f"{dev['friction_comp']:.2f}")),
        (9, "dither smoothing", ev.dither, dither),
        (10, "numerical hygiene", None if ev.matrix_s is None else ev.halving, lambda h: (
            h.worst_rms <= 1e-3 and h.reproducible and ev.matrix_s <= 600.0,
            f"worst step-halving RMS {h.worst_rms:.2e} (<=1e-3), seeded runs bit-identical: "
            f"{h.reproducible}, full matrix in {ev.matrix_s:.0f} s (<=600)")),
    )
    return [Verdict(num, label, None) if seen is None else Verdict(num, label, *judge(seen))
            for num, label, seen, judge in table]
