import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import cont2discrete

from mrhydro.analysis import REFERENCE_RESULTS, torque_deviation
from mrhydro.controllers import CONTROLLER_NAMES, Command, ControllerFault, make_controller
from mrhydro.plant import FRICTION_MODES, Plant, PlantError, PlantParams, build_state_space
from mrhydro.sim import (BACKDRIVE_AMPLITUDE_1HZ, SCENARIO_KINDS, TRACE_SCHEMA, Scenario,
                         ScenarioError, SimTrace, backdrive_scenario, dwell_scenario,
                         measure_controller_row, read_trace_csv, run_scenario, step_scenario)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
from mrhydro.synthesis import synthesize


class TestEquilibrium:
    def test_zero_reference_holds_dc_pressure(self):
        sc = Scenario(kind="step", controller="open_loop", torque_amplitude=0.0,
                      pre_hold=0.0, duration=2.0)
        tr = run_scenario(sc)
        plant = Plant()
        tail = slice(-400, None)
        assert np.allclose(tr.p_master[tail], plant.p_dc, rtol=0.02)
        assert np.allclose(tr.p_slave[tail], plant.p_dc, rtol=0.02)
        assert np.abs(tr.torque[tail]).max() < 0.05
        assert tr.aborted is None


class TestLinearOracle:
    def test_step_matches_discretized_linear_model(self):
        # friction and dither off: the engine must match an independently
        # discretized simulation of the linear model within 0.5% RMS
        params = PlantParams().with_friction(mode="off")
        plant = Plant(params)
        sc = step_scenario("open_loop", amplitude=12.0, control_dt=1e-4)
        tr = run_scenario(sc, plant=plant)

        ss = build_state_space(params)
        dt = sc.sim_dt
        ad, bd, _, _, _ = cont2discrete((ss.A, ss.B, ss.C_d, [[0.0]]), dt)
        delay_steps = int(round(plant.tau_delay / dt))
        n = len(tr.t)
        x = np.zeros(7)
        p_lin = np.zeros(n)
        force = np.zeros(n + delay_steps)
        ticks = int(round(sc.control_dt / dt))
        for i in range(n):
            t = i * dt
            if i % ticks == 0:
                torque = 12.0 if t >= sc.pre_hold else 0.0
                p_d = plant.pressure_from_torque(torque)
                _, f_now, _ = plant.drive(p_d * plant.area_slave)
            force[i + delay_steps] = f_now
            p_lin[i] = (ss.C_d @ x)[0]
            x = ad @ x + bd[:, 0] * force[i]
        err = tr.p_slave - p_lin
        rms = math.sqrt(float(np.mean(err**2))) / math.sqrt(float(np.mean(p_lin**2)))
        assert rms <= 0.005


class TestDelayRealization:
    def test_cross_correlation_peaks_at_tau(self):
        # with a nearly instantaneous lag the clutch-force increment tracks
        # the delayed command, so correlating command against increment
        # locates the pure delay exactly
        params = PlantParams().with_friction(mode="off")
        params = replace(params, clutch=replace(params.clutch, omega_c=2e4))
        plant = Plant(params)
        sc = Scenario(kind="chirp", duration=2.0, control_dt=1e-4)
        tr = run_scenario(sc, plant=plant)
        # command change active at index i; force increment over [i, i+1)
        # sits at diff index i, so the peak lag is the delay bin count
        c = np.diff(tr.force_cmd, prepend=tr.force_cmd[0])
        g = np.diff(tr.state[:, 6])
        lags = np.arange(0, 41)
        score = [float(np.dot(c[: len(g) - lag], g[lag:])) for lag in lags]
        dt = tr.t[1] - tr.t[0]
        assert lags[int(np.argmax(score))] * dt == pytest.approx(plant.tau_delay,
                                                                 abs=1e-12)


def _tick_scenario(ticks_per_ctrl: int, n_ticks: int) -> Scenario:
    """A step run of n_ticks whole ticks of ticks_per_ctrl 0.1 ms steps."""
    control_dt = ticks_per_ctrl * 1e-4
    return Scenario(kind="step", duration=n_ticks * control_dt, control_dt=control_dt)


class TestDelayLine:
    def test_commands_arrive_tau_late(self, plant_inputs):
        steps, _ = plant_inputs(_tick_scenario(10, 8))
        assert steps[20:] == [float(s // 10 + 1) for s in range(len(steps) - 20)]

    def test_fractional_delay_rejected(self):
        # 2 ms is 6.67 steps of 0.3 ms: refuse rather than round the delay
        sc = Scenario(kind="step", duration=0.03, sim_dt=3e-4, control_dt=3e-4)
        with pytest.raises(PlantError, match="whole number"):
            run_scenario(sc)

    def test_zero_delay_passthrough(self, plant_inputs):
        # each tick's steps see that tick's own command
        steps, _ = plant_inputs(_tick_scenario(10, 4), n_delay=0)
        assert steps == [float(s // 10 + 1) for s in range(40)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 60))
    def test_tick_line_equals_step_ring(self, plant_inputs, ticks_per_ctrl, n_delay):
        # the per-step commands run_scenario feeds the plant against a ring
        # buffer pushed once per step
        n_ticks = n_delay // ticks_per_ctrl + 3
        steps, _ = plant_inputs(_tick_scenario(ticks_per_ctrl, n_ticks), n_delay)
        ring = [0.0] * n_delay
        want = []
        for s in range(n_ticks * ticks_per_ctrl):
            ring.append(float(s // ticks_per_ctrl + 1))
            want.append(ring.pop(0))
        assert steps == want

    def test_no_step_past_last_row(self, plant_inputs):
        # 0.7 s is 466.67 ticks of 1.5 ms: the trace ends at tick 466 and the
        # plant is not integrated past it
        sc = Scenario(kind="step", duration=0.7, control_dt=1.5e-3)
        steps, trace = plant_inputs(sc)
        assert len(trace.t) == 467
        assert len(steps) == 466 * 15
        assert trace.t[-1] == pytest.approx(0.699, abs=1e-12)


def calibrate_backdrive_amplitude(plant: Plant | None = None, tol: float = 1e-3) -> float:
    """Displacement amplitude making the open-loop baseline deviation hit its reference.

    Bisection on the 1 Hz zero-command backdrive peak torque deviation
    (first cycle excluded), stick-slip friction, dither off, against the
    published open-loop dev_1hz_0 cell.  An aborted run raises ScenarioError.
    """
    target = REFERENCE_RESULTS["open_loop"][3]   # dev_1hz_0

    def deviation(amp: float) -> float:
        trace = run_scenario(backdrive_scenario("open_loop", backdrive_amplitude=amp),
                             plant=plant)
        if trace.aborted:
            raise ScenarioError(f"backdrive at amplitude {amp} m aborted: {trace.aborted}")
        return torque_deviation(trace)

    lo, hi = 0.1e-3, 12e-3
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if deviation(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * 1e-3:
            break
    return 0.5 * (lo + hi)


class TestBackdrive:
    def test_prescribed_motion_exact(self):
        sc = backdrive_scenario("open_loop", torque_command=5.0, backdrive_freq=2.0,
                                backdrive_cycles=3)
        tr = run_scenario(sc)
        w = 2 * math.pi * sc.backdrive_freq
        active = tr.t >= sc.pre_hold
        expect = sc.backdrive_amplitude * np.sin(w * (tr.t[active] - sc.pre_hold))
        np.testing.assert_allclose(tr.state[active, 4], expect, atol=1e-15)

    def test_zero_amplitude_reduces_to_hold(self):
        sc = backdrive_scenario("open_loop", torque_command=10.0, backdrive_freq=1.0,
                                backdrive_cycles=2, backdrive_amplitude=0.0)
        tr = run_scenario(sc)
        tail = slice(-500, None)
        assert np.abs(tr.torque[tail] - 10.0).max() < 0.15

    def test_defaults(self):
        sc = backdrive_scenario("open_loop")
        assert sc.backdrive_freq == 1.0 and sc.backdrive_cycles == 5
        assert sc.backdrive_amplitude == BACKDRIVE_AMPLITUDE_1HZ

    def test_stick_slip_mode_applied(self):
        sc = backdrive_scenario("open_loop")
        tr = run_scenario(sc)
        assert tr.scenario["friction_mode"] == "stick_slip_sign"

    def test_calibrated_amplitude_near_shipped_value(self):
        # a coarse 1 mm bisection still brackets the shipped 1 Hz amplitude
        amp = calibrate_backdrive_amplitude(tol=1.0)
        assert amp == pytest.approx(BACKDRIVE_AMPLITUDE_1HZ, abs=1e-3)

    def test_friction_default_lives_in_scenario(self):
        assert Scenario(kind="backdrive").friction_mode == "stick_slip_sign"
        assert backdrive_scenario("lqgi", friction_mode="off").friction_mode == "off"
        assert step_scenario("open_loop").friction_mode is None
        assert dwell_scenario("open_loop", 5.0).friction_mode is None


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        sc = step_scenario("pid_master", settle=0.3, noise=True, seed=123)
        tr1 = run_scenario(sc)
        tr2 = run_scenario(sc)
        for attr in ("state", "meas", "torque", "current", "p_slave"):
            np.testing.assert_array_equal(getattr(tr1, attr), getattr(tr2, attr))

    def test_different_seed_differs(self):
        t1 = run_scenario(step_scenario("pid_master", settle=0.3, noise=True, seed=1))
        t2 = run_scenario(step_scenario("pid_master", settle=0.3, noise=True, seed=2))
        assert not np.array_equal(t1.meas, t2.meas)

    def test_noise_off_is_clean(self):
        tr = run_scenario(step_scenario("open_loop", settle=0.3, noise=False))
        np.testing.assert_array_equal(tr.meas[:, 0], tr.state[:, 0])


class TestStepHalving:
    @pytest.mark.parametrize("factory", [
        lambda dt: step_scenario("open_loop", sim_dt=dt),
        lambda dt: backdrive_scenario("open_loop", torque_command=10.0, backdrive_cycles=2,
                                      sim_dt=dt),
    ])
    def test_halving_within_tolerance(self, factory):
        tr1, tr2 = run_scenario(factory(1e-4)), run_scenario(factory(5e-5))
        n = min(len(tr1.t), len(tr2.t))
        diff = tr1.p_slave[:n] - tr2.p_slave[:n]
        rms = math.sqrt(float(np.mean(diff**2)))
        ref = math.sqrt(float(np.mean(tr1.p_slave[:n] ** 2)))
        assert rms / ref <= 1e-3


class TestChirp:
    def test_current_injection_profile(self):
        sc = Scenario(kind="chirp", duration=2.0)
        tr = run_scenario(sc)
        assert sc.chirp_f0 == 0.0 and sc.chirp_f1 == 200.0
        assert np.all(tr.current >= 0.0) and np.all(tr.current <= 3.0)
        assert np.abs(tr.current - 2.0).max() == pytest.approx(0.5, abs=0.02)
        # response has appreciable energy (model validation style run)
        assert tr.p_slave.max() > 2 * Plant().p_dc


class TestAbort:
    def test_nan_command_aborts_with_partial_trace(self):
        class Broken:
            def step(self, t, p_desired, meas):
                f = math.nan if t > 0.2 else 100.0
                return Command(current=0.0, force=f, pressure_cmd=0.0,
                               saturated=False)

        sc = Scenario(kind="step", controller="open_loop", duration=1.0,
                      torque_amplitude=0.0)
        tr = run_scenario(sc, controller=Broken())
        assert tr.aborted is not None
        assert 0 < len(tr.t) < 1001


class TestMeasureRow:
    def test_aborted_run_raises_with_its_label(self):
        # a sign-flipped estimator gain trips the LQGI estimate guard near the
        # end of the step run, leaving enough of a trace to score
        gains = synthesize()
        broken = replace(gains, L=gains.L * -1e-3)
        seen = []
        with pytest.raises(ScenarioError, match="step_lqgi aborted"):
            measure_controller_row("lqgi", gains=broken, frf_freqs=(5.0, 10.0),
                                   trace_hook=lambda label, obj: seen.append(obj))
        assert len(seen) == 1 and seen[0].aborted is not None
        assert seen[0].t[-1] > 1.0


class TestTraceIO:
    def test_csv_round_trip(self, tmp_path):
        sc = step_scenario("lqgi", settle=0.2, noise=True, seed=5)
        tr = run_scenario(sc)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        again = read_trace_csv(path)
        np.testing.assert_array_equal(again.t, tr.t)
        np.testing.assert_array_equal(again.state, tr.state)
        np.testing.assert_array_equal(again.torque, tr.torque)
        np.testing.assert_array_equal(again.estimate, tr.estimate)
        assert again.scenario == tr.scenario
        assert again.seed == tr.seed
        assert (tmp_path / "trace.csv.meta.json").exists()

    def test_header_names_columns_with_units(self, tmp_path):
        tr = run_scenario(step_scenario("open_loop", settle=0.2))
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("t [s],x1 [m],")
        assert "p_slave [Pa]" in header and "torque [N.m]" in header

    def test_lqgi_header_frozen(self, tmp_path):
        tr = run_scenario(step_scenario("lqgi", settle=0.2))
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        assert path.read_text().splitlines()[0] == (
            "t [s],x1 [m],v1 [m/s],x2 [m],v2 [m/s],x3 [m],v3 [m/s],f_mr [N],"
            "meas_x1 [m],meas_v1 [m/s],meas_x3 [m],meas_pm [Pa],meas_ps [Pa],"
            "ref_torque [N.m],p_desired [Pa],p_master [Pa],p_slave [Pa],"
            "torque [N.m],current [A],force_cmd [N],pressure_cmd [Pa],saturated [-],"
            "est_xi [Pa.s],est_x1 [-],est_x2 [-],est_x3 [-],est_x4 [-],est_x5 [-],"
            "est_x6 [-],est_x7 [-]")

    def test_scrambled_series_columns_rejected(self, tmp_path):
        tr = run_scenario(step_scenario("open_loop", settle=0.2))
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("x1 [m],v1 [m/s]", "v1 [m/s],x1 [m]", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="'state'"):
            read_trace_csv(path)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 6), st.booleans())
    def test_random_tables_round_trip(self, data, n, with_estimate):
        series = {}
        for name, heads in TRACE_SCHEMA.items():
            if name != "estimate" or with_estimate:
                shape = n if isinstance(heads, str) else (n, len(heads))
                series[name] = data.draw(arrays(float, shape, elements=FINITE), label=name)
        series["saturated"] = data.draw(arrays(bool, n), label="saturated")
        tr = SimTrace(**series, scenario={"kind": "step"}, plant_hash="abc", seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            tr.to_csv(path)
            again = read_trace_csv(path)
        for name in TRACE_SCHEMA:
            want, got = getattr(tr, name), getattr(again, name)
            assert (got is None) if want is None else np.array_equal(got, want), name
        assert (again.scenario, again.plant_hash, again.seed, again.aborted) == (
            tr.scenario, tr.plant_hash, tr.seed, tr.aborted)

    @pytest.mark.filterwarnings("ignore:loadtxt")   # numpy notes the header-only file
    def test_zero_row_trace_round_trip(self, tmp_path):
        class FailsAtOnce:
            dt = 1e-3

            def step(self, t, p_desired, meas):
                raise ControllerFault("no first command")

        tr = run_scenario(step_scenario("pid_slave", settle=0.2), controller=FailsAtOnce())
        assert len(tr.t) == 0 and tr.aborted == "ControllerFault: no first command"
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        again = read_trace_csv(path)
        for name, heads in TRACE_SCHEMA.items():
            want, got = getattr(tr, name), getattr(again, name)
            assert (got is None) if want is None else (
                got.shape == want.shape and got.dtype == want.dtype), name
        assert again.state.shape == (0, 7) and again.aborted == tr.aborted

    def test_unknown_sidecar_key_named(self, tmp_path):
        path = tmp_path / "t.csv"
        run_scenario(step_scenario("open_loop", settle=0.2)).to_csv(path)
        sidecar = tmp_path / "t.csv.meta.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "sede": 3}))
        with pytest.raises(ValueError,
                           match=r"unknown key\(s\) in .*t\.csv\.meta\.json: \['sede'\]"):
            read_trace_csv(path)

    def test_round_trip_without_estimate(self, tmp_path):
        tr = run_scenario(step_scenario("pid_slave", settle=0.2))
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        again = read_trace_csv(path)
        assert again.estimate is None
        np.testing.assert_array_equal(again.meas, tr.meas)
        np.testing.assert_array_equal(again.saturated, tr.saturated)


class TestScenarioValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown"):
            Scenario.from_dict({"kind": "step", "tork_amplitude": 3.0})

    def test_bad_kind_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(kind="waltz").validate()

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(control_dt=1e-3, sim_dt=3e-4).validate()

    def test_round_trip(self):
        sc = backdrive_scenario("lqgi", torque_command=10.0, backdrive_freq=5.0)
        assert Scenario.from_dict(sc.to_dict()) == sc

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_scenarios_round_trip(self, data):
        positive = st.floats(1e-3, 1e3)
        sim_dt = data.draw(st.sampled_from([2.5e-5, 5e-5, 1e-4, 2.5e-4]))
        sc = Scenario(
            kind=data.draw(st.sampled_from(SCENARIO_KINDS)),
            controller=data.draw(st.sampled_from(CONTROLLER_NAMES)),
            duration=data.draw(st.none() | positive), pre_hold=data.draw(st.floats(0.0, 10.0)),
            seed=data.draw(st.integers(0, 2**32 - 1)), noise=data.draw(st.booleans()),
            torque_amplitude=data.draw(FINITE), torque_offset=data.draw(FINITE),
            freq_hz=data.draw(positive), chirp_f0=data.draw(FINITE), chirp_f1=data.draw(FINITE),
            chirp_i_offset=data.draw(FINITE), chirp_i_amplitude=data.draw(FINITE),
            backdrive_amplitude=data.draw(FINITE), backdrive_freq=data.draw(positive),
            backdrive_cycles=data.draw(st.integers(1, 1000)),
            torque_command=data.draw(FINITE), ramp_torque_end=data.draw(st.none() | FINITE),
            friction_mode=data.draw(st.none() | st.sampled_from(FRICTION_MODES)),
            sim_dt=sim_dt, control_dt=data.draw(st.integers(1, 20)) * sim_dt)
        sc.validate()
        assert Scenario.from_dict(sc.to_dict()) == sc

    @pytest.mark.parametrize("fields, name", [
        ({"sim_dt": 0.0}, "sim_dt"),
        ({"sim_dt": -1e-4}, "sim_dt"),
        ({"sim_dt": math.nan}, "sim_dt"),
        ({"control_dt": 0.0}, "control_dt"),
        ({"control_dt": math.inf}, "control_dt"),
        ({"control_dt": math.nan}, "control_dt"),
        ({"duration": math.nan}, "duration"),
        ({"kind": "sine_dwell", "freq_hz": 0.0}, "freq_hz"),
        ({"kind": "sine_dwell", "freq_hz": -1.0}, "freq_hz"),
        ({"kind": "backdrive", "backdrive_freq": 0.0}, "backdrive_freq"),
        ({"kind": "backdrive", "backdrive_cycles": 0}, "backdrive_cycles"),
        ({"controller": "pid_master", "torque_amplitude": math.nan}, "torque_amplitude"),
        ({"kind": "sine_dwell", "torque_offset": math.inf}, "torque_offset"),
        ({"kind": "backdrive", "torque_command": math.nan}, "torque_command"),
        ({"kind": "backdrive", "ramp_torque_end": -math.inf}, "ramp_torque_end"),
        ({"kind": "backdrive", "backdrive_amplitude": math.nan}, "backdrive_amplitude"),
        ({"kind": "chirp", "chirp_f1": math.inf}, "chirp_f1"),
        ({"kind": "chirp", "chirp_i_offset": math.nan}, "chirp_i_offset"),
        ({"pre_hold": -1.0}, "pre_hold"),
        ({"kind": "backdrive", "pre_hold": math.nan}, "pre_hold"),
        ({"seed": -1}, "seed"),
        ({"kind": "backdrive", "backdrive_freq": 1e-320}, "total_duration"),
    ])
    def test_bad_numbers_named(self, fields, name):
        with pytest.raises(ScenarioError, match=name):
            Scenario(**fields).validate()


class TestControlRate:
    @pytest.mark.parametrize("name", ["pid_master", "lqgi"])
    def test_control_dt_reaches_the_controller(self, name):
        # the factory-built controller discretizes at the scenario's rate
        plant = Plant()
        sc = step_scenario(name, settle=0.2, control_dt=2e-3)
        built = run_scenario(sc, plant=plant)
        supplied = run_scenario(sc, plant=plant, controller=make_controller(name, plant, dt=2e-3))
        assert np.array_equal(built.p_slave, supplied.p_slave)
        assert np.array_equal(built.current, supplied.current)

    def test_controller_at_another_rate_rejected(self):
        plant = Plant()
        sc = step_scenario("pid_master", settle=0.2, control_dt=2e-3)
        with pytest.raises(ScenarioError, match="control_dt"):
            run_scenario(sc, plant=plant, controller=make_controller("pid_master", plant))
