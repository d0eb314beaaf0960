"""Performance metrics from traces and linear models.

Frequency response by per-frequency sine dwell with least-squares fits,
bandwidth by the first -3 dB / -135 deg crossing, step metrics, peak
backdriving torque deviation, friction-coefficient identification, the
dither smoothing study, and the benchmark comparison table.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

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

# Reference results for the five controller variants, one value per
# REPORT_COLUMNS entry (measured on the original bench; the 5 Hz
# torque-deviation column is simulation there too).
REFERENCE_RESULTS = {
    "open_loop":     (25.0, 16.6, 34.0, 0.60, 2.4, 4.2),
    "friction_comp": (25.0, 15.8, 38.0, 0.38, 1.2, 5.0),
    "pid_master":    (11.0, 17.2, 10.0, 0.17, 0.5, 3.1),
    "pid_slave":     (3.0, 22.2, 2.0, 0.23, 0.5, 3.1),
    "lqgi":          (34.0, 14.4, 19.0, 0.24, 0.6, 1.8),
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
    its first input: y[0] = x[0], y[n] = a y[n-1] + (1 - a) x[n]."""

    __slots__ = ("alpha", "y")

    def __init__(self, cutoff_hz: float, dt: float):
        self.alpha = math.exp(-TWO_PI * cutoff_hz * dt)
        self.y = None

    def step(self, u: float) -> float:
        self.y = u if self.y is None else self.alpha * self.y + (1.0 - self.alpha) * u
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


def _scenario_values(trace, *keys) -> list:
    """The trace's scenario record at keys; AnalysisError names any it lacks."""
    missing = [k for k in keys if k not in trace.scenario]
    if missing:
        raise AnalysisError(f"trace scenario record lacks {missing}")
    return [trace.scenario[k] for k in keys]


def _first_cycle_end(trace) -> float:
    """Start of a backdrive run's scored window: the first motion cycle is excluded."""
    pre_hold, freq = _scenario_values(trace, "pre_hold", "backdrive_freq")
    return pre_hold + 1.0 / freq


def torque_deviation(trace) -> float:
    """Peak |delivered - commanded| torque, first backdrive cycle excluded."""
    mask = trace.t >= _first_cycle_end(trace)
    if not np.any(mask):
        raise AnalysisError("trace shorter than one backdrive cycle")
    (command,) = _scenario_values(trace, "torque_command")
    return float(np.abs(trace.torque[mask] - command).max())


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
    period = 1.0 / trace.scenario["backdrive_freq"]
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


def dither_smoothing(trace_off, trace_on) -> DitherStudy:
    """Quantify friction smoothing around motion reversals.

    Spread = max - min of the low-passed master pressure over samples where
    the prescribed backdrive speed is within the reversal band, first cycle
    excluded.  Ripple amplitudes come from sinusoid fits at the default
    dither frequency on the dithered run.
    """
    from .controllers import DitherConfig  # local: controllers imports analysis

    def spread(trace):
        dt = float(trace.t[1] - trace.t[0])
        pm = lowpass(trace.p_master, SPREAD_FILTER_HZ, dt)
        start = _first_cycle_end(trace)
        m = (trace.t >= start) & (np.abs(trace.state[:, 5]) <= REVERSAL_BAND_SPEED)
        if not np.any(m):
            raise AnalysisError("no samples inside the reversal band")
        return float(pm[m].max() - pm[m].min())

    m = trace_on.t >= _first_cycle_end(trace_on)
    amp_m, *_ = fit_sine(trace_on.t[m], trace_on.p_master[m], DitherConfig.frequency)
    amp_s, *_ = fit_sine(trace_on.t[m], trace_on.p_slave[m], DitherConfig.frequency)
    return DitherStudy(spread_off=spread(trace_off), spread_on=spread(trace_on),
                       ripple_master=amp_m, ripple_slave=amp_s)


# ---------------- comparison table ----------------

@dataclass
class RowResult:
    """Measured six-column row for one controller."""
    bandwidth: float | None = None
    rise_ms: float | None = None
    overshoot: float | None = None
    dev_1hz_0: float | None = None
    dev_1hz_10: float | None = None
    dev_5hz_10: float | None = None


# per-cell acceptance windows where the benchmark defines one
_CELL_CHECKS = {
    ("open_loop", "bandwidth"): (17.5, 32.5),
    ("open_loop", "rise_ms"): (16.6 * 0.7, 16.6 * 1.3),
    ("open_loop", "overshoot"): (22.0, 46.0),
    ("open_loop", "dev_5hz_10"): (3.0, 5.4),
    ("lqgi", "dev_5hz_10"): (1.2, 2.4),
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
            out.write(f"{label:<28}" + "".join(cell(getattr(row, attr), rf)
                                               for (attr, _, _), rf in zip(REPORT_COLUMNS, ref))
                      + "\n")
        out.write("\nmeasured (reference) per cell\n\nchecks:\n")
        for label, ok in self.checks.items():
            out.write(f"  [{'PASS' if ok else 'FAIL'}] {label}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("controller,metric,measured,reference\n")
        for name, ref in REFERENCE_RESULTS.items():
            row = self.rows.get(name)
            for (metric, _, _), rv in zip(REPORT_COLUMNS, ref):
                mv = getattr(row, metric, None) if row else None
                out.write(f"{name},{metric},"
                          f"{'' if mv is None else format(mv, '.17g')},{rv}\n")
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
    for (name, attr), (lo, hi) in _CELL_CHECKS.items():
        row = rows.get(name)
        if row is not None:
            val = getattr(row, attr)
            checks[f"{name}.{attr} in [{lo:.3g}, {hi:.3g}]"] = val is not None and lo <= val <= hi
    r = {n: rows.get(n) for n in REFERENCE_RESULTS}
    if all(r[n] and r[n].dev_5hz_10 is not None for n in r):
        d = {n: r[n].dev_5hz_10 for n in r}
        checks["5 Hz ordering: lqgi smallest"] = (
            d["lqgi"] < min(v for n, v in d.items() if n != "lqgi"))
        checks["5 Hz ordering: master ~ slave PID"] = (
            abs(math.log(d["pid_master"] / d["pid_slave"])) <= math.log(1.3))
        checks["5 Hz ordering: PIDs < open_loop"] = (
            max(d["pid_master"], d["pid_slave"]) < d["open_loop"])
        checks["5 Hz ordering: open_loop < friction_comp"] = d["open_loop"] < d["friction_comp"]
    ol, lq = r["open_loop"], r["lqgi"]
    if ol and lq and None not in (ol.bandwidth, lq.bandwidth, ol.rise_ms,
                                  lq.rise_ms, ol.overshoot, lq.overshoot):
        checks["lqgi bandwidth >= max(28, open_loop)"] = (
            lq.bandwidth >= 28.0 and lq.bandwidth >= ol.bandwidth)
        checks["lqgi overshoot < open_loop"] = lq.overshoot < ol.overshoot
        checks["lqgi rise <= open_loop"] = lq.rise_ms <= ol.rise_ms
    return ComparisonReport(rows=dict(rows), checks=checks)
