import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrhydro import controllers
from mrhydro.controllers import (DESIGN_FREQS, DitherConfig, LqgiController,
                                 OpenLoopController, PidConfig, PidController,
                                 PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT,
                                 calibrate_integral_gain, calibrate_pid_defaults,
                                 dither_signal, gain_margin_db,
                                 linear_pid_bandwidth, lqgi_closed_loop_frf,
                                 make_controller, pid_loop_gain,
                                 pressure_command_frf)
from mrhydro.plant import Plant, PlantParams, StateSpace, build_state_space
from mrhydro.synthesis import closed_loop_input, closed_loop_matrix, synthesize

DT = 1e-3


@pytest.fixture(scope="module")
def plant():
    return Plant()


@pytest.fixture(scope="module")
def gains():
    return synthesize()


class TestDither:
    def test_disabled_is_zero(self):
        cfg = DitherConfig(enabled=False)
        for t in np.linspace(0.0, 1.0, 57):
            assert dither_signal(t, 2e6, cfg) == 0.0

    def test_zero_crossings(self):
        cfg = DitherConfig(frequency=150.0, amplitude_slope=0.5, amplitude_floor=2e4)
        for k in range(5):
            t = k / (2 * 150.0)  # sin is zero at half periods
            assert dither_signal(t, 1e6, cfg) == pytest.approx(0.0, abs=1e-6)

    def test_peak_amplitude_formula(self):
        cfg = DitherConfig(frequency=150.0, amplitude_slope=0.05, amplitude_floor=0.0)
        t_peak = 1.0 / (4 * 150.0)
        assert dither_signal(t_peak, 1e6, cfg) == pytest.approx(5e4, rel=1e-9)

    def test_amplitude_affine_in_pressure(self):
        cfg = DitherConfig()
        t_peak = 1.0 / (4 * cfg.frequency)
        a1 = dither_signal(t_peak, 1e6, cfg)
        a2 = dither_signal(t_peak, 2e6, cfg)
        assert a2 - a1 == pytest.approx(cfg.amplitude_slope * 1e6, rel=1e-9)


class TestOpenLoop:
    def test_pure_feedthrough(self, plant):
        ctrl = OpenLoopController(plant, dither=DitherConfig(enabled=False),
                                  friction_comp=False)
        for torque in (0.0, 5.0, 12.0):
            p_d = plant.pressure_from_torque(torque)
            cmd = ctrl.step(0.0, p_d, (0.0, 0.0, 0.0, 0.0, 0.0))
            expect, _, _ = plant.drive(p_d * plant.area_slave)
            assert cmd.current == pytest.approx(expect, abs=1e-12)

    def test_zero_speed_compensation_is_zero(self, plant):
        on = OpenLoopController(plant, dither=DitherConfig(enabled=False),
                                friction_comp=True)
        off = OpenLoopController(plant, dither=DitherConfig(enabled=False),
                                 friction_comp=False)
        meas = (0.0, 0.0, 0.0, 8e5, 8e5)
        assert on.step(0.0, 1e6, meas).current == off.step(0.0, 1e6, meas).current

    def test_steady_speed_compensation_term(self, plant):
        # constant v1 long enough for the 150 Hz filter to settle
        ctrl = OpenLoopController(plant, dither=DitherConfig(enabled=False),
                                  friction_comp=True)
        p_master, v1 = 9e5, 0.004
        meas = (0.0, v1, 0.0, p_master, 9e5)
        for k in range(300):
            cmd = ctrl.step(k * DT, 1e6, meas)
        expected = 1e6 + plant.mu * p_master * math.tanh(1000.0 * v1)
        assert cmd.pressure_cmd == pytest.approx(expected, rel=1e-6)

    def test_saturation_flagged(self, plant):
        ctrl = OpenLoopController(plant, dither=DitherConfig(enabled=False))
        p_over = plant.force_max / plant.area_slave * 1.5
        assert ctrl.step(0.0, p_over, (0.0,) * 5).saturated


def test_anti_windup_rule_decisions():
    # the rule written out: integrate inside the limits, or past one when the
    # integration points back inside; signed zeros, infinities and NaN included
    values = (-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf, -math.inf, math.nan)
    for u in values:
        for du in values:
            hit = u < 0.0 or u > 1.0
            unwinds = (u > 1.0 and du < 0.0) or (u < 0.0 and du > 0.0)
            assert controllers._anti_windup(u, 1.0, du) == (hit, not hit or unwinds), (u, du)


class TestPid:
    def test_zero_error_zero_integrator_feedthrough_only(self, plant):
        ctrl = PidController(plant, PID_SLAVE_DEFAULT, dither=DitherConfig(enabled=False))
        p_d = plant.p_dc
        cmd = ctrl.step(0.0, p_d, (0.0, 0.0, 0.0, p_d, p_d))
        assert cmd.pressure_cmd == pytest.approx(plant.p_dc, rel=1e-12)
        assert ctrl.integral == pytest.approx(0.0)

    def test_proportional_offset(self, plant):
        cfg = PidConfig(kp=0.7, ki=0.0, kd=0.0, feedback_tap="master")
        ctrl = PidController(plant, cfg, dither=DitherConfig(enabled=False))
        err = 3e5
        cmd = ctrl.step(0.0, plant.p_dc + err, (0.0, 0.0, 0.0, plant.p_dc, plant.p_dc))
        assert cmd.pressure_cmd - plant.p_dc == pytest.approx(0.7 * err, rel=1e-12)

    def test_integral_accumulates(self, plant):
        cfg = PidConfig(kp=0.0, ki=10.0, kd=0.0, feedback_tap="slave")
        ctrl = PidController(plant, cfg, dither=DitherConfig(enabled=False))
        err = 1e5
        for k in range(100):
            ctrl.step(k * DT, plant.p_dc + err, (0.0, 0.0, 0.0, plant.p_dc, plant.p_dc))
        assert ctrl.integral == pytest.approx(10.0 * err * 100 * DT, rel=1e-9)

    def test_anti_windup_halts_under_saturation(self, plant):
        cfg = PidConfig(kp=0.0, ki=50.0, kd=0.0, feedback_tap="slave")
        ctrl = PidController(plant, cfg, dither=DitherConfig(enabled=False))
        p_huge = plant.force_max / plant.area_slave * 3.0
        for k in range(3000):
            ctrl.step(k * DT, p_huge, (0.0, 0.0, 0.0, 0.0, 0.0))
        # saturation threshold plus at most one pre-saturation increment
        bound = (plant.force_max / plant.area_slave - plant.p_dc
                 + cfg.ki * p_huge * DT)
        assert ctrl.integral <= bound * (1.0 + 1e-9)

    def test_recovers_after_saturation(self, plant):
        # integral loop alone: time constant ~1/ki once back in range
        cfg = PidConfig(kp=0.0, ki=19.0, kd=0.0, feedback_tap="slave")
        ctrl = PidController(plant, cfg, dither=DitherConfig(enabled=False))
        p_huge = plant.force_max / plant.area_slave * 3.0
        for k in range(2000):
            ctrl.step(k * DT, p_huge, (0.0, 0.0, 0.0, 0.0, 0.0))
        p_ok = plant.p_dc + 2e5
        # feed back exactly the command: loop error decays with ki
        fb = 0.0
        n_tc = int(10.0 / cfg.ki / DT)
        for k in range(n_tc):
            cmd = ctrl.step(k * DT, p_ok, (0.0, 0.0, 0.0, fb, fb))
            fb = cmd.pressure_cmd
        assert fb == pytest.approx(p_ok, rel=0.01)

    @pytest.mark.parametrize("limit", ["upper", "lower"])
    @pytest.mark.parametrize("unwinds", [False, True])
    def test_anti_windup_at_force_limits(self, plant, limit, unwinds):
        cfg = PidConfig(kp=0.0, ki=10.0, kd=0.0, feedback_tap="slave")
        ctrl = PidController(plant, cfg, dither=DitherConfig(enabled=False))
        p_limit = plant.force_max / plant.area_slave
        p_cmd = 2.0 * p_limit if limit == "upper" else -p_limit
        # integrating pushes the command further out unless it unwinds
        outward = 1.0 if limit == "upper" else -1.0
        error = 1e4 * outward * (-1.0 if unwinds else 1.0)
        ctrl.integral = p_cmd - plant.p_dc
        cmd = ctrl.step(0.0, error, (0.0, 0.0, 0.0, 0.0, 0.0))
        assert cmd.saturated
        expected = p_cmd - plant.p_dc + (cfg.ki * error * DT if unwinds else 0.0)
        assert ctrl.integral == expected

    def test_bad_tap_rejected(self, plant):
        with pytest.raises(ValueError):
            PidController(plant, PidConfig(kp=0, ki=1, kd=0, feedback_tap="elbow"))


class TestLqgi:
    def test_equilibrium_stays_at_zero(self, gains):
        # remnant-free clutch so zero current maps to exactly zero force
        from dataclasses import replace
        params = PlantParams()
        params = replace(params, clutch=replace(params.clutch, poly_c0=0.0))
        lin = Plant(params)
        ctrl = LqgiController(lin, gains, dither=DitherConfig(enabled=False))
        meas = (0.0, 0.0, 0.0, 0.0, 0.0)
        for k in range(500):
            cmd = ctrl.step(k * DT, 0.0, meas)
            assert cmd.force == pytest.approx(0.0, abs=1e-9)
        assert np.linalg.norm(ctrl.x_hat) == pytest.approx(0.0, abs=1e-9)
        assert ctrl.x_i == pytest.approx(0.0, abs=1e-9)

    def test_zero_steady_state_error_on_linear_plant(self, gains):
        # friction off, no delay: discrete loop settles exactly on target
        from dataclasses import replace
        params = PlantParams().with_friction(mode="off")
        params = replace(params, clutch=replace(params.clutch, tau_delay=0.0))
        from mrhydro.sim import run_scenario, step_scenario
        sc = step_scenario("lqgi", amplitude=10.0, settle=2.0)
        trace = run_scenario(sc, plant=Plant(params), gains=gains,
                             controller_kwargs={"dither": DitherConfig(enabled=False)})
        tail = trace.torque[-200:]
        assert np.mean(tail) == pytest.approx(10.0, abs=0.01)

    def test_estimation_error_decays_on_linear_plant(self, plant, gains):
        from dataclasses import replace
        params = PlantParams().with_friction(mode="off")
        params = replace(params, clutch=replace(params.clutch, tau_delay=0.0))
        lin = Plant(params)
        ctrl = LqgiController(lin, gains, dither=DitherConfig(enabled=False))
        ctrl.x_hat = np.array([1e-3, 0.0, -1e-3, 0.0, 5e-4, 0.0, 100.0])
        state = (0.0,) * 7
        errs = []
        for k in range(400):
            meas = (state[0], state[1], state[4], lin.master_pressure(state),
                    lin.slave_pressure(state))
            cmd = ctrl.step(k * DT, lin.p_dc, meas)
            for _ in range(10):
                state = lin.rk4_step(state, 1e-4, cmd.force)
            errs.append(np.linalg.norm(ctrl.x_hat - np.array(state)))
        # envelope decay after the initial transient
        assert max(errs[200:]) < 0.05 * max(errs[:50])

    def test_divergence_guard(self, plant, gains):
        from mrhydro.controllers import ControllerFault
        ctrl = LqgiController(plant, gains)
        ctrl.estimate_guard = 1e-6
        with pytest.raises(ControllerFault):
            for k in range(100):
                ctrl.step(k * DT, 1e6, (1.0, 1.0, 1.0, 1e6, 1e6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_estimate_raises(self, plant, gains, bad):
        from mrhydro.controllers import ControllerFault
        ctrl = LqgiController(plant, gains)
        with pytest.raises(ControllerFault):
            ctrl.step(0.0, 1e6, (0.0, 0.0, 0.0, bad, 0.0))

    def test_integral_clamp(self, plant, gains):
        ctrl = LqgiController(plant, gains, dither=DitherConfig(enabled=False))
        ctrl.xi_clamp = 1.0
        for k in range(2000):
            ctrl.step(k * DT, plant.p_dc + 1e5, (0.0, 0.0, 0.0, plant.p_dc, plant.p_dc))
        assert abs(ctrl.x_i) <= 1.0 + 1e-12

    @pytest.mark.parametrize("limit", ["upper", "lower"])
    @pytest.mark.parametrize("unwinds", [False, True])
    def test_anti_windup_at_force_limits(self, plant, gains, limit, unwinds):
        # zero measurements keep the estimate at zero, so the integrated error
        # is p_desired and the feedback command -k_i * x_i + k_ff * p_desired
        ctrl = LqgiController(plant, gains, dither=DitherConfig(enabled=False))
        ctrl.xi_clamp = math.inf
        k_i = gains.K_integral
        u = 2.0 * plant.force_max if limit == "upper" else -plant.force_max
        # integrating pushes the command further out unless it unwinds
        outward = 1.0 if limit == "upper" else -1.0
        p_desired = 1e4 * outward * math.copysign(1.0, -k_i) * (-1.0 if unwinds else 1.0)
        x_i0 = (u - gains.K_ff * p_desired) / -k_i
        ctrl.x_i = x_i0
        cmd = ctrl.step(0.0, p_desired, (0.0, 0.0, 0.0, 0.0, 0.0))
        assert cmd.saturated
        assert ctrl.x_i == (x_i0 + p_desired * DT if unwinds else x_i0)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["open_loop", "friction_comp", "pid_master",
                                      "pid_slave", "lqgi"])
    def test_bit_identical_command_sequences(self, plant, gains, name):
        rng = np.random.default_rng(11)
        meas_seq = [tuple(rng.standard_normal(5) * [1e-4, 1e-3, 1e-4, 1e4, 1e4])
                    for _ in range(200)]
        outs = []
        for _ in range(2):
            ctrl = make_controller(name, plant, gains=gains)
            seq = [ctrl.step(k * DT, 8e5, meas_seq[k]).current for k in range(200)]
            outs.append(seq)
        assert outs[0] == outs[1]


class TestDitherSuperposition:
    @pytest.mark.parametrize("name", ["open_loop", "pid_slave"])
    def test_low_frequency_command_unchanged(self, name):
        # constant reference, friction-free linear plant: below 20 Hz the
        # dithered and undithered commands agree within 1%.  The friction
        # compensator is excluded: on a frictionless plant it injects pure
        # anti-damping by construction.
        from mrhydro.analysis import lowpass
        from mrhydro.controllers import OpenLoopController, PidController
        from mrhydro.sim import Scenario, run_scenario
        params = PlantParams().with_friction(mode="off")
        cmds = {}
        for enabled in (False, True):
            lin = Plant(params)
            if name == "open_loop":
                ctrl = OpenLoopController(lin, dither=DitherConfig(enabled=enabled))
            else:
                ctrl = PidController(lin, PID_SLAVE_DEFAULT,
                                     dither=DitherConfig(enabled=enabled))
            sc = Scenario(kind="step", controller=name, torque_amplitude=8.0,
                          pre_hold=0.0, duration=2.0)
            tr = run_scenario(sc, plant=lin, controller=ctrl)
            cmd = tr.pressure_cmd
            for _ in range(4):
                cmd = lowpass(cmd, 20.0, DT)
            cmds[enabled] = cmd
        settled = slice(1000, None)
        diff = np.abs(cmds[True][settled] - cmds[False][settled])
        assert diff.max() <= 0.01 * np.abs(cmds[False][settled]).max()


class TestCalibration:
    def test_defaults_hit_published_bandwidths(self, plant):
        ss = build_state_space(plant.params)
        bw_m = linear_pid_bandwidth(plant, ss, PID_MASTER_DEFAULT)
        bw_s = linear_pid_bandwidth(plant, ss, PID_SLAVE_DEFAULT)
        assert bw_m == pytest.approx(11.0, abs=3.0)
        assert bw_s == pytest.approx(3.0, abs=1.5)

    def test_margins_at_defaults(self, plant):
        ss = build_state_space(plant.params)
        for cfg in (PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT):
            gm = gain_margin_db(pid_loop_gain(plant, ss, cfg, DESIGN_FREQS,
                                              with_delay=False), DESIGN_FREQS)
            assert gm >= 6.0

    def test_calibration_reproduces_defaults(self, plant):
        ss = build_state_space(plant.params)
        master, slave = calibrate_pid_defaults(plant, ss)
        assert master.ki == pytest.approx(PID_MASTER_DEFAULT.ki, rel=0.15)
        assert slave.ki == pytest.approx(PID_SLAVE_DEFAULT.ki, rel=0.15)

    def test_calibration_shares_slave_response_exactly(self, plant):
        # both taps bisect against one slave response, to the same ki as one tap alone
        ss = build_state_space(plant.params)
        master, slave = calibrate_pid_defaults(plant, ss)
        assert master.ki == calibrate_integral_gain(plant, ss, "master", 11.0,
                                                    kd=PID_MASTER_DEFAULT.kd)
        assert slave.ki == calibrate_integral_gain(plant, ss, "slave", 3.0, kd=0.0)

    @pytest.mark.parametrize("delayed", [True, False])
    def test_calibration_matches_full_grid_bisection(self, plant, delayed):
        # the bisection decides most steps on a grid prefix; the public bandwidth
        # scans the whole grid on every step and must give the same ki
        plant = plant if delayed else undelayed(plant)
        ss = build_state_space(plant.params)
        master, slave = calibrate_pid_defaults(plant, ss)
        for cfg, target in ((master, 11.0), (slave, 3.0)):
            lo, hi = 1e-2, 5e3
            for _ in range(60):
                mid = math.sqrt(lo * hi)
                bw = linear_pid_bandwidth(plant, ss, replace(cfg, ki=mid))
                if bw is not None and bw >= target:
                    hi = mid
                else:
                    lo = mid
            assert cfg.ki == math.sqrt(lo * hi)

    @pytest.mark.parametrize("with_delay", [True, False])
    @pytest.mark.parametrize("cfg", [PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT])
    def test_gain_margin_matches_pointwise_scan(self, plant, cfg, with_delay):
        ss = build_state_space(plant.params)
        loop = pid_loop_gain(plant, ss, cfg, DESIGN_FREQS, with_delay=with_delay)
        phase = np.unwrap(np.angle(loop)) * 180.0 / math.pi
        mag_db = 20.0 * np.log10(np.abs(loop))
        expected = math.inf
        for i in range(1, len(loop)):
            a, b = phase[i - 1], phase[i]
            for th in (-180.0, -540.0, -900.0, -1260.0):
                if (a > th >= b) or (b > th >= a):
                    m = mag_db[i - 1] + (a - th) / (a - b) * (mag_db[i] - mag_db[i - 1])
                    expected = min(expected, -m)
        assert gain_margin_db(loop, DESIGN_FREQS) == expected

    @pytest.mark.parametrize("delayed", [True, False])
    @pytest.mark.parametrize("tap, target, kd", [("master", 11.0, PID_MASTER_DEFAULT.kd),
                                                 ("slave", 3.0, 0.0)])
    def test_calibrated_gain_hits_target_bandwidth(self, plant, tap, target, kd, delayed):
        # the bisection reuses one plant FRF per tap; the public path recomputes it
        plant = plant if delayed else undelayed(plant)
        ss = build_state_space(plant.params)
        ki = calibrate_integral_gain(plant, ss, tap, target, kd=kd)
        bw = linear_pid_bandwidth(plant, ss, PidConfig(kp=0.0, ki=ki, kd=kd, feedback_tap=tap))
        assert bw == pytest.approx(target, rel=1e-6)

    def test_lqgi_linear_frf_dc_unity(self, plant, gains):
        ss = build_state_space(plant.params)
        resp = lqgi_closed_loop_frf(plant, ss, gains, [0.01])
        assert abs(resp[0]) == pytest.approx(1.0, abs=1e-4)


def undelayed(plant):
    """The plant with the clutch pure delay set to zero."""
    return Plant(replace(plant.params, clutch=replace(plant.params.clutch, tau_delay=0.0)))


def reference_pressure_frf(plant, ss, freqs, output, with_delay):
    """One linear solve per frequency, the definition of the tap response."""
    row = ss.C_d[0] if output == "slave" else ss.C[3]
    out = np.empty(len(freqs), dtype=complex)
    for i, f in enumerate(freqs):
        s = 2j * math.pi * f
        g = row @ np.linalg.solve(s * np.eye(ss.A.shape[0]) - ss.A, ss.B[:, 0]) * plant.area_slave
        out[i] = g * np.exp(-s * plant.tau_delay) if with_delay else g
    return out


def reference_lqgi_frf(plant, ss, gains, freqs):
    """Plant, estimator and integral state written out, each frequency solved in
    30-digit arithmetic; the clutch delay sits on the plant input only."""
    A, B, C, C_d, L = ss.A, ss.B[:, 0], ss.C, ss.C_d[0], gains.L
    K_x, k_i, K_ff = gains.K_x, gains.K_integral, gains.K_ff
    fixed, delayed = np.zeros((15, 15)), np.zeros((15, 15))
    fixed[0:7, 0:7] = A
    delayed[0:7, 7:14] = -np.outer(B, K_x)
    delayed[0:7, 14] = -B * k_i
    fixed[7:14, 0:7] = L @ C
    fixed[7:14, 7:14] = A - L @ C - np.outer(B, K_x)
    fixed[7:14, 14] = -B * k_i
    fixed[14, 7:14] = -C_d
    rhs_fixed = np.concatenate((np.zeros(7), B * K_ff, [1.0]))
    rhs_delayed = np.concatenate((B * K_ff, np.zeros(8)))
    out = np.empty(len(freqs), dtype=complex)
    with mpmath.workdps(30):
        m_fixed, m_delayed = mpmath.matrix(fixed.tolist()), mpmath.matrix(delayed.tolist())
        r_fixed, r_delayed = mpmath.matrix(rhs_fixed.tolist()), mpmath.matrix(rhs_delayed.tolist())
        for i, f in enumerate(freqs):
            s = 2j * mpmath.pi * f
            d = mpmath.exp(-s * plant.tau_delay)
            x = mpmath.lu_solve(s * mpmath.eye(15) - m_fixed - d * m_delayed,
                                r_fixed + d * r_delayed)
            out[i] = complex(mpmath.fsum(float(C_d[k]) * x[k] for k in range(7)))
    return out


def checked_points(n, spread):
    """Indices of an n-point grid that the 30-digit reference checks (about 25 ms
    a point): `spread` of them evenly spaced, and both sides of every edge
    between 256-point blocks of the evaluator."""
    edges = [i for k in range(256, n, 256) for i in (k - 1, k)]
    return sorted(set(np.linspace(0, n - 1, spread).astype(int).tolist()) | set(edges))


class TestStackedFrf:
    """The residue evaluator against one plain solve per frequency (the pressure
    taps) and against one 30-digit solve per frequency (the LQGI loop)."""

    @pytest.fixture(scope="class")
    def ss(self, plant):
        return build_state_space(plant.params)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3000])
    @pytest.mark.parametrize("with_delay", [True, False])
    @pytest.mark.parametrize("output", ["slave", "master"])
    def test_pressure_frf_matches_per_frequency_solve(self, plant, ss, n, output,
                                                      with_delay):
        freqs = np.logspace(math.log10(0.05), math.log10(400.0), n)
        np.testing.assert_allclose(
            pressure_command_frf(plant, ss, freqs, output=output, with_delay=with_delay),
            reference_pressure_frf(plant, ss, freqs, output, with_delay), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3000])
    @pytest.mark.parametrize("delayed", [True, False])
    def test_lqgi_frf_matches_per_frequency_solve(self, plant, ss, gains, n, delayed):
        plant = plant if delayed else undelayed(plant)
        freqs = np.logspace(math.log10(0.05), math.log10(400.0), n)
        i = checked_points(n, spread=16)
        np.testing.assert_allclose(lqgi_closed_loop_frf(plant, ss, gains, freqs)[i],
                                   reference_lqgi_frf(plant, ss, gains, freqs[i]),
                                   rtol=1e-12, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(freqs=st.lists(st.floats(0.01, 1000.0), min_size=1, max_size=773).map(sorted),
           output=st.sampled_from(["slave", "master"]), with_delay=st.booleans())
    def test_random_grids_match_per_frequency_solve(self, plant, ss, gains, freqs, output,
                                                    with_delay):
        np.testing.assert_allclose(
            pressure_command_frf(plant, ss, freqs, output=output, with_delay=with_delay),
            reference_pressure_frf(plant, ss, freqs, output, with_delay), rtol=1e-12, atol=0)
        plant = plant if with_delay else undelayed(plant)
        i = checked_points(len(freqs), spread=3)
        np.testing.assert_allclose(lqgi_closed_loop_frf(plant, ss, gains, freqs)[i],
                                   reference_lqgi_frf(plant, ss, gains, np.array(freqs)[i]),
                                   rtol=1e-12, atol=0)


def _state_space(A):
    """A 7-state design model around A, every state driven and read."""
    return StateSpace(A=A, B=np.ones((7, 1)), C=np.ones((4, 7)), C_d=np.ones((1, 7)))


class TestFrfCertificate:
    """Every FRF point is certified, and what cannot be certified raises."""

    @pytest.mark.parametrize("size", [2, 7])
    def test_jordan_block_is_refused(self, plant, size):
        # a Jordan block has no eigenvector basis for the residue sum
        A = -10.0 * np.eye(7)
        A[7 - size:, 7 - size:] = -np.eye(size) + np.eye(size, k=1)
        with pytest.raises(controllers.FrfError):
            pressure_command_frf(plant, _state_space(A), [0.1, 1.0, 10.0])

    @pytest.mark.parametrize("pole_hz", [0.0, 5.0])
    def test_grid_point_on_an_imaginary_axis_pole_is_refused(self, plant, pole_hz):
        # an integrator at 0 Hz, an undamped oscillator at 5 Hz: sI - A is singular
        A = -np.eye(7)
        w = 2.0 * math.pi * pole_hz
        A[0:2, 0:2] = [[0.0, 1.0], [-w * w, 0.0]]
        with pytest.raises(controllers.FrfError, match=f"at {pole_hz!r} Hz"):
            pressure_command_frf(plant, _state_space(A), [pole_hz, 20.0])

    def test_delay_block_of_rank_two_is_refused(self, plant, gains):
        # the delay loop is closed as rank one; a block that is not is caught
        ss = build_state_space(plant.params)
        M, b = closed_loop_matrix(ss, gains), closed_loop_input(ss, gains)
        M[0, 7] += np.abs(M[:7, 7:]).max()
        with pytest.raises(controllers.FrfError):
            controllers._plant_output_frf(DESIGN_FREQS, M, b, ss.C_d[0], plant.tau_delay)

    def test_every_call_computes_the_certificate(self, plant, gains, monkeypatch):
        # a zero bound refuses any rounding in the residual, so these calls raise
        ss = build_state_space(plant.params)
        monkeypatch.setattr(controllers, "FRF_BACKWARD_BOUND", 0.0)
        with pytest.raises(controllers.FrfError):
            pressure_command_frf(plant, ss, DESIGN_FREQS)
        with pytest.raises(controllers.FrfError):
            lqgi_closed_loop_frf(plant, ss, gains, DESIGN_FREQS)
