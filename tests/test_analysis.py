import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import mrhydro
from mrhydro.analysis import (AnalysisError, FrfPoint, LowPass,
                              REFERENCE_RESULTS, RowResult, bandwidth,
                              comparison_report, crossing_bandwidth, dither_smoothing, fit_sine,
                              frf_from_sine_dwell, identify_friction, lowpass,
                              step_metrics, torque_deviation)
from mrhydro.plant import TWO_PI


class FakeTrace:
    """Duck-typed trace for analysis-level tests."""

    def __init__(self, t, p_slave=None, p_desired=None, torque=None,
                 ref_torque=None, p_master=None, state=None, scenario=None):
        n = len(t)
        self.t = np.asarray(t, dtype=float)
        self.p_slave = p_slave if p_slave is not None else np.zeros(n)
        self.p_desired = p_desired if p_desired is not None else np.zeros(n)
        self.torque = torque if torque is not None else np.zeros(n)
        self.ref_torque = ref_torque if ref_torque is not None else np.zeros(n)
        self.p_master = p_master if p_master is not None else np.zeros(n)
        self.state = state if state is not None else np.zeros((n, 7))
        self.scenario = scenario or {}


class TestFitSine:
    def test_recovers_known_parameters(self):
        t = np.arange(0.0, 2.0, 1e-3)
        y = 3.2 * np.sin(TWO_PI * 7.0 * t + 0.6) + 1.5
        amp, phase, offset, resid = fit_sine(t, y, 7.0)
        assert amp == pytest.approx(3.2, rel=1e-9)
        assert phase == pytest.approx(0.6, abs=1e-9)
        assert offset == pytest.approx(1.5, abs=1e-9)
        assert resid < 1e-9


def first_order_runner(cutoff_hz):
    """Dwell runner on y' = wc (u - y), integrated far finer than needed."""
    wc = TWO_PI * cutoff_hz

    def runner(freq):
        dt = 1e-5
        settle = max(0.5, 5.0 / freq)
        n = int((settle + 10.0 / freq) / dt)
        t = np.arange(n) * dt
        u = 1e5 + 2e4 * np.sin(TWO_PI * freq * t)
        y = np.zeros(n)
        for i in range(n - 1):
            k1 = wc * (u[i] - y[i])
            k2 = wc * (u[i] - (y[i] + 0.5 * dt * k1))
            k3 = wc * (u[i] - (y[i] + 0.5 * dt * k2))
            k4 = wc * (u[i] - (y[i] + dt * k3))
            y[i + 1] = y[i] + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return FakeTrace(t, p_slave=y, p_desired=u)

    return runner


class TestFrfFromSineDwell:
    def test_first_order_lag_analytic(self):
        points = frf_from_sine_dwell(first_order_runner(64.0), [64.0])
        assert points[0].magnitude_db == pytest.approx(-3.0103, abs=0.05)
        assert points[0].phase_deg == pytest.approx(-45.0, abs=0.5)
        assert not points[0].flagged

    def test_matches_analytic_response_across_grid(self):
        freqs = [2.0, 8.0, 20.0, 50.0, 64.0, 120.0]
        points = frf_from_sine_dwell(first_order_runner(64.0), freqs)
        for p in points:
            h = 1.0 / (1.0 + 1j * p.frequency / 64.0)
            assert p.magnitude_db == pytest.approx(20 * math.log10(abs(h)), abs=0.2)
            assert p.phase_deg == pytest.approx(math.degrees(np.angle(h)), abs=2.0)

    def test_phase_unwrap_no_jumps(self):
        points = frf_from_sine_dwell(first_order_runner(5.0),
                                     [1, 3, 5, 10, 20, 40, 80])
        phases = [p.phase_deg for p in points]
        assert all(abs(b - a) <= 180.0 for a, b in zip(phases, phases[1:]))

    def test_out_of_range_frequency_rejected(self):
        with pytest.raises(AnalysisError):
            frf_from_sine_dwell(first_order_runner(64.0), [250.0])

    @pytest.mark.parametrize("freqs", [[20.0, 10.0], [10.0, 10.0], [5.0, math.nan]])
    def test_unordered_grid_rejected_before_any_dwell(self, freqs):
        with pytest.raises(AnalysisError):
            frf_from_sine_dwell(lambda f: pytest.fail("dwell ran"), freqs)

    def test_previous_trace_released_before_next_dwell(self):
        # two dwell tables must never be alive at once
        previous = []

        def runner(freq):
            if previous:
                assert previous[-1]() is None, "previous dwell trace still alive"
            t = np.arange(0.0, 1.0, 1e-3)
            u = 1e5 + 2e4 * np.sin(TWO_PI * freq * t)
            trace = FakeTrace(t, p_slave=0.5 * u, p_desired=u)
            previous.append(weakref.ref(trace))
            return trace

        points = frf_from_sine_dwell(runner, [10.0, 20.0, 40.0])
        assert len(previous) == 3
        assert all(p.magnitude_db == pytest.approx(20 * math.log10(0.5)) for p in points)


def synthetic_frf(freqs, mag_fun, phase_fun):
    return [FrfPoint(f, mag_fun(f), phase_fun(f)) for f in freqs]


class TestBandwidth:
    def test_first_order_cutoff(self):
        freqs = np.logspace(0, math.log10(200.0), 200)
        pts = synthetic_frf(
            freqs,
            lambda f: 20 * math.log10(abs(1 / (1 + 1j * f / 64.0))),
            lambda f: math.degrees(np.angle(1 / (1 + 1j * f / 64.0))))
        assert bandwidth(pts) == pytest.approx(64.0, rel=0.01)

    def test_pure_delay_phase_criterion(self):
        # unity magnitude, 2 ms delay: -135 deg at 135/(360*0.002) = 187.5 Hz
        freqs = np.linspace(1.0, 200.0, 400)
        pts = synthetic_frf(freqs, lambda f: 0.0, lambda f: -360.0 * f * 0.002)
        assert bandwidth(pts) == pytest.approx(187.5, rel=1e-3)

    def test_magnitude_criterion_invariant_to_gain_scaling(self):
        freqs = np.logspace(0, 2, 100)
        mag = lambda f: 20 * math.log10(abs(1 / (1 + 1j * f / 30.0)))
        pts = synthetic_frf(freqs, mag, lambda f: 0.0)
        pts_scaled = synthetic_frf(freqs, lambda f: mag(f) + 12.0, lambda f: 0.0)
        assert bandwidth(pts_scaled) == pytest.approx(bandwidth(pts), rel=1e-12)

    def test_lower_criterion_wins(self):
        freqs = np.linspace(1, 100, 300)
        # phase crosses -135 at 50 Hz, magnitude -3 dB at 80 Hz
        pts = synthetic_frf(freqs,
                            lambda f: -3.5 if f >= 80 else 0.0,
                            lambda f: -2.7 * f)
        assert bandwidth(pts) == pytest.approx(50.0, rel=0.01)

    def test_no_crossing_returns_none(self):
        freqs = np.linspace(1, 50, 50)
        assert bandwidth(synthetic_frf(freqs, lambda f: -1.0, lambda f: -10.0)) is None

    def test_decreasing_grid_rejected(self):
        pts = synthetic_frf([10.0, 5.0], lambda f: 0.0, lambda f: 0.0)
        with pytest.raises(AnalysisError):
            bandwidth(pts)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-8.0, 4.0), st.floats(-200.0, 0.0)),
                    min_size=2, max_size=40))
    def test_matches_pointwise_scan(self, samples):
        # every interpolated crossing of either criterion, lowest one wins
        f = np.arange(1.0, len(samples) + 1.0)
        mag, ph = (np.array(col) for col in zip(*samples))
        th = mag[0] - 3.0
        crossings = []
        for i in range(1, len(f)):
            if mag[i] <= th < mag[i - 1]:
                crossings.append(f[i - 1] + (mag[i - 1] - th) / (mag[i - 1] - mag[i]))
            if ph[i] <= -135.0 < ph[i - 1]:
                crossings.append(f[i - 1] + (ph[i - 1] + 135.0) / (ph[i - 1] - ph[i]))
        if ph[0] <= -135.0:
            expected = f[0]
        else:
            expected = min(crossings) if crossings else None
        assert crossing_bandwidth(f, mag, ph) == expected


def second_order_step(zeta, wn=50.0, dt=1e-4, t_end=3.0, pre=0.2):
    """Analytic underdamped step response sampled on a grid."""
    t = np.arange(0.0, t_end, dt)
    ref = np.where(t >= pre, 1.0, 0.0)
    ts = np.clip(t - pre, 0.0, None)
    wd = wn * math.sqrt(1.0 - zeta**2)
    phi = math.atan2(zeta, math.sqrt(1 - zeta**2))
    y = 1.0 - np.exp(-zeta * wn * ts) * np.cos(wd * ts - phi) / math.sqrt(1 - zeta**2)
    y[t < pre] = 0.0
    return FakeTrace(t, torque=y, ref_torque=ref)


class TestStepMetrics:
    def test_first_order_rise_and_zero_overshoot(self):
        t = np.arange(0.0, 2.0, 1e-4)
        tau = 0.05
        ref = np.where(t >= 0.2, 1.0, 0.0)
        y = np.where(t >= 0.2, 1.0 - np.exp(-(t - 0.2) / tau), 0.0)
        m = step_metrics(FakeTrace(t, torque=y, ref_torque=ref))
        # 63% of final is reached one time constant after the step
        assert m.rise_time_63 == pytest.approx(tau * 1e3, rel=0.02)
        assert m.overshoot == pytest.approx(0.0, abs=0.2)
        assert m.reliable

    def test_second_order_overshoot_closed_form(self):
        # overshoot oracle: exp(-pi zeta / sqrt(1 - zeta^2))
        m = step_metrics(second_order_step(0.5))
        assert m.overshoot == pytest.approx(100 * math.exp(-math.pi * 0.5 /
                                                           math.sqrt(0.75)), rel=0.01)

    @pytest.mark.parametrize("zeta", [0.2, 0.35, 0.5, 0.7, 0.9])
    def test_second_order_family_matches_formulas(self, zeta):
        m = step_metrics(second_order_step(zeta))
        expect_ov = 100 * math.exp(-math.pi * zeta / math.sqrt(1 - zeta**2))
        assert m.overshoot == pytest.approx(expect_ov, rel=0.01)
        # rise oracle: root of the analytic response crossing 0.63
        wn = 50.0
        wd = wn * math.sqrt(1 - zeta**2)
        phi = math.atan2(zeta, math.sqrt(1 - zeta**2))

        def resp(ts):
            return 1.0 - math.exp(-zeta * wn * ts) * math.cos(wd * ts - phi) \
                / math.sqrt(1 - zeta**2) - 0.63

        t63 = brentq(resp, 1e-6, 2.0 / wn * math.pi)
        assert m.rise_time_63 == pytest.approx(t63 * 1e3, rel=0.01, abs=0.11)

    def test_non_settling_flagged(self):
        t = np.arange(0.0, 1.5, 1e-3)
        ref = np.where(t >= 0.2, 1.0, 0.0)
        y = np.where(t >= 0.2, 1.0 + 0.5 * np.sin(3.0 * t), 0.0)  # drifting
        m = step_metrics(FakeTrace(t, torque=y, ref_torque=ref))
        assert not m.reliable

    def test_requires_single_step(self):
        t = np.arange(0.0, 2.0, 1e-3)
        ref = np.where(t >= 0.5, 1.0, 0.0) + np.where(t >= 1.0, 1.0, 0.0)
        with pytest.raises(AnalysisError):
            step_metrics(FakeTrace(t, torque=ref, ref_torque=ref))


class TestTorqueDeviation:
    def make_trace(self, shift_periods=0):
        t = np.arange(0.0, 6.0, 1e-3)
        sc = {"backdrive_freq": 1.0, "pre_hold": 1.0, "torque_command": 10.0}
        arg = TWO_PI * 1.0 * (t - 1.0) + TWO_PI * shift_periods
        torque = 10.0 + 1.5 * np.sin(arg) + 0.8 * np.sin(3 * arg)
        return FakeTrace(t, torque=torque, scenario=sc)

    def test_peak_deviation(self):
        dev = torque_deviation(self.make_trace())
        assert dev == pytest.approx(np.abs(1.5 * np.sin(np.linspace(0, TWO_PI, 9999))
                                           + 0.8 * np.sin(3 * np.linspace(0, TWO_PI, 9999))).max(),
                                    rel=1e-3)

    def test_invariant_to_whole_period_shift(self):
        assert torque_deviation(self.make_trace(0)) == pytest.approx(
            torque_deviation(self.make_trace(3)), rel=1e-6)

    @pytest.mark.parametrize("key", ["backdrive_freq", "pre_hold", "torque_command"])
    def test_missing_scenario_key_named(self, key):
        tr = self.make_trace()
        del tr.scenario[key]
        with pytest.raises(AnalysisError, match=key):
            torque_deviation(tr)

    def test_settled_zero_amplitude(self):
        t = np.arange(0.0, 4.0, 1e-3)
        sc = {"backdrive_freq": 1.0, "pre_hold": 1.0, "torque_command": 5.0}
        tr = FakeTrace(t, torque=np.full_like(t, 5.0), scenario=sc)
        assert torque_deviation(tr) == 0.0


class TestIdentifyFriction:
    def test_recovers_mu_from_synthetic_quasi_static(self):
        # simulate the quasi-static deviation law directly
        mu, n_steep, v_pk = 0.14, 30.0, 5e-3
        freq = 1.0
        t = np.arange(0.0, 42.0, 1e-3)
        p_nom = 3e5 + (1.5e6 - 3e5) * t / t[-1]
        v1 = v_pk * np.cos(TWO_PI * freq * (t - 1.0))
        p_m = p_nom - mu * p_nom * np.tanh(n_steep * v1) - 4e3 * np.sign(v1)
        state = np.zeros((len(t), 7))
        state[:, 1] = v1
        tr = FakeTrace(t, p_master=p_m, state=state,
                       scenario={"backdrive_freq": freq, "pre_hold": 1.0})
        res = identify_friction(tr)  # at the plant's default slope, n_steep
        assert res.mu == pytest.approx(mu, abs=0.005)
        assert res.r_squared >= 0.99
        assert res.intercept == pytest.approx(4e3, rel=0.2)

    def test_too_few_cycles_rejected(self):
        t = np.arange(0.0, 3.0, 1e-3)
        tr = FakeTrace(t, scenario={"backdrive_freq": 1.0, "pre_hold": 1.0})
        with pytest.raises(AnalysisError):
            identify_friction(tr)


class TestDitherSmoothing:
    def test_spread_and_ripple_on_synthetic(self):
        freq = 1.0
        t = np.arange(0.0, 5.0, 1e-3)
        sc = {"backdrive_freq": freq, "pre_hold": 1.0}
        v3 = 0.01 * np.cos(TWO_PI * freq * (t - 1.0))
        state = np.zeros((len(t), 7))
        state[:, 5] = v3
        # friction flips at velocity reversals; the dithered variant
        # transitions smoothly over a few mm/s
        jump = 2e5 * np.sign(v3)
        smooth = 2e5 * np.tanh(v3 / 0.004)
        ripple = 3e4 * np.sin(TWO_PI * 150.0 * t)
        off = FakeTrace(t, p_master=1e6 + jump, p_slave=np.full_like(t, 1e6),
                        state=state, scenario=sc)
        on = FakeTrace(t, p_master=1e6 + smooth + ripple,
                       p_slave=1e6 + 0.25 * ripple, state=state, scenario=sc)
        study = dither_smoothing(off, on)
        assert study.spread_off > 2 * study.spread_on
        assert study.ripple_master == pytest.approx(3e4, rel=0.05)
        assert study.ripple_slave / study.ripple_master == pytest.approx(0.25, abs=0.03)


class TestComparisonReport:
    def full_rows(self):
        rows = {}
        for name, ref in REFERENCE_RESULTS.items():
            rows[name] = RowResult(bandwidth=ref[0], rise_ms=ref[1], overshoot=ref[2],
                                   dev_1hz_0=ref[3], dev_1hz_10=ref[4],
                                   dev_5hz_10=ref[5])
        return rows

    def test_reference_values_pass_all_checks(self):
        report = comparison_report(self.full_rows())
        assert all(report.checks.values())
        text = report.render_text()
        assert "Open-loop (baseline)" in text and "State feedback LQGI" in text
        assert "[PASS]" in text and "[FAIL]" not in text

    def test_ordering_violation_flagged(self):
        rows = self.full_rows()
        rows["lqgi"].dev_5hz_10 = 9.0
        report = comparison_report(rows)
        assert not report.checks["5 Hz ordering: lqgi smallest"]

    def test_single_row_table(self):
        report = comparison_report({"open_loop": self.full_rows()["open_loop"]})
        text = report.render_text()
        assert "row absent" in text

    def test_absent_row_has_no_cell_checks(self):
        report = comparison_report({"open_loop": self.full_rows()["open_loop"]})
        assert not any(label.startswith("lqgi.") for label in report.checks)
        assert all(report.checks.values())

    def test_present_row_with_missing_cell_fails(self):
        report = comparison_report({"lqgi": RowResult(bandwidth=34.0)})
        assert report.checks["lqgi.dev_5hz_10 in [1.2, 2.4]"] is False

    def test_unknown_row_rejected(self):
        with pytest.raises(AnalysisError):
            comparison_report({"pid_elbow": RowResult()})

    def test_report_is_deterministic(self):
        a = comparison_report(self.full_rows())
        b = comparison_report(self.full_rows())
        assert a.render_text() == b.render_text()
        assert a.to_csv() == b.to_csv()


class TestLowpass:
    def test_dc_preserved(self):
        y = np.full(500, 3.3)
        np.testing.assert_allclose(lowpass(y, 50.0, 1e-3), 3.3, rtol=1e-9)

    def test_attenuates_above_cutoff(self):
        t = np.arange(0.0, 1.0, 1e-3)
        y = np.sin(TWO_PI * 150.0 * t)
        out = lowpass(lowpass(y, 20.0, 1e-3), 20.0, 1e-3)
        assert np.abs(out[200:]).max() < 0.05

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_matches_recursion(self, order):
        # the first-order recursion, each pass primed with its input's first sample
        y = np.random.default_rng(4).standard_normal(2000).cumsum()
        a = math.exp(-TWO_PI * 20.0 * 1e-3)
        ref = y.copy()
        for _ in range(order):
            acc = ref[0]
            for i in range(1, len(ref)):
                acc = a * acc + (1.0 - a) * ref[i]
                ref[i] = acc
        out = y
        for _ in range(order):
            out = lowpass(out, 20.0, 1e-3)
        np.testing.assert_array_equal(out, ref)

    def test_first_sample_passes_exactly(self):
        # 2.9 is an input where the weighted sum (1 - a) x0 + a x0 misses x0
        a = math.exp(-TWO_PI * 50.0 * 1e-3)
        assert (1.0 - a) * 2.9 + a * 2.9 != 2.9
        assert lowpass(np.full(10, 2.9), 50.0, 1e-3)[0] == 2.9

    def test_is_the_stepped_controller_filter(self):
        # one law: the array filter is the filter the controllers step each tick
        y = np.random.default_rng(7).standard_normal(3000).cumsum()
        y += 2.9 - y[0]
        f = LowPass(50.0, 1e-3)
        np.testing.assert_array_equal(lowpass(y, 50.0, 1e-3), [f.step(v) for v in y])

    def test_import_leaves_scipy_signal_unloaded(self):
        # the package never imports scipy.signal, neither at import nor in a filter call
        code = ("import sys, mrhydro; mrhydro.analysis.lowpass([1.0, 2.0], 50.0, 1e-3); "
                "print('scipy.signal' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(mrhydro.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.strip() == "False"
