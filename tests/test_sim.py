import json
import math
import pickle
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import cont2discrete

from mrhydro import sim
from mrhydro.analysis import REFERENCE_RESULTS, Evidence, torque_deviation
from mrhydro.controllers import (CONTROL_DT, CONTROLLER_NAMES, PID_MASTER_DEFAULT,
                                 PID_SLAVE_DEFAULT, NYQUIST_HZ, Command, ControllerFault,
                                 DitherConfig, make_controller)
from mrhydro.plant import (FRICTION_MODES, Plant, PlantError, PlantParams, build_record,
                           build_state_space)
from mrhydro.sim import (BACKDRIVE_AMPLITUDE_1HZ, CSV_BLOCK_ROWS, SCENARIO_KINDS,
                         SCENARIO_READS, TRACE_SCHEMA, Scenario, ScenarioError, SimTrace,
                         backdrive_scenario, dwell_scenario, friction_id_scenario,
                         measure_controller_row, measure_evidence, read_trace_csv, run_scenario,
                         step_scenario)

FINITE = st.floats(allow_nan=False, allow_infinity=False)

from mrhydro.synthesis import NoiseCovariances, synthesize


def _json_round_trip(sc: Scenario) -> Scenario:
    """sc written as JSON and built back over the default scenario, as a config reads it."""
    return build_record(Scenario(), json.loads(json.dumps(asdict(sc))), "scenario", ScenarioError)


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
        # discretized simulation of the linear model within 0.5% RMS, a
        # zero-order hold of each 1 ms tick's command over its sim_dt steps
        params = PlantParams().with_friction(mode="off")
        plant = Plant(params)
        sc = step_scenario("open_loop", amplitude=12.0)
        tr = run_scenario(sc, plant=plant)

        ss = build_state_space(params)
        dt = sc.sim_dt
        ad, bd, _, _, _ = cont2discrete((ss.A, ss.B, ss.C_d, [[0.0]]), dt)
        delay_steps = int(round(plant.tau_delay / dt))
        ticks = int(round(CONTROL_DT / dt))
        n = len(tr.t)
        x = np.zeros(7)
        p_lin = np.zeros(n)
        force = np.zeros(n * ticks + delay_steps)
        for i in range((n - 1) * ticks + 1):
            if i % ticks == 0:   # a control tick: record the row, hold a new command
                torque = 12.0 if i * dt >= sc.pre_hold else 0.0
                p_d = plant.pressure_from_torque(torque)
                _, f_now, _ = plant.drive(p_d * plant.area_slave)
                p_lin[i // ticks] = (ss.C_d @ x)[0]
            force[i + delay_steps] = f_now
            x = ad @ x + bd[:, 0] * force[i]
        err = tr.p_slave - p_lin
        rms = math.sqrt(float(np.mean(err**2))) / math.sqrt(float(np.mean(p_lin**2)))
        assert rms <= 0.005


class _CurrentSweep:
    """Stub controller commanding, through plant.drive, the force of a coil-current
    sweep rising 100 Hz per second, 2 + 0.5 sin(2 pi 50 t^2) A."""

    def __init__(self, plant: Plant):
        self.plant = plant

    def step(self, t, p_desired, meas):
        current = 2.0 + 0.5 * math.sin(2.0 * math.pi * 50.0 * t * t)
        force = self.plant.mr_torque_from_current(current) * self.plant.force_per_torque
        current, force, saturated = self.plant.drive(force)
        return Command(current=current, force=force, pressure_cmd=0.0, saturated=saturated)


class TestDelayRealization:
    def test_cross_correlation_peaks_at_tau(self):
        # with a nearly instantaneous lag the clutch-force increment tracks
        # the delayed command, so correlating command against increment
        # locates the pure delay exactly
        params = PlantParams().with_friction(mode="off")
        params = replace(params, clutch=replace(params.clutch, omega_c=2e4))
        plant = Plant(params)
        sc = Scenario(kind="step", torque_amplitude=0.0, duration=2.0)
        tr = run_scenario(sc, plant=plant, controller=_CurrentSweep(plant))
        # command change active at tick i; force increment over tick [i, i+1)
        # sits at diff index i, so the peak lag is the delay in ticks
        c = np.diff(tr.force_cmd, prepend=tr.force_cmd[0])
        g = np.diff(tr.state[:, 6])
        lags = np.arange(0, 41)
        score = [float(np.dot(c[: len(g) - lag], g[lag:])) for lag in lags]
        assert lags[int(np.argmax(score))] * CONTROL_DT == pytest.approx(plant.tau_delay,
                                                                         abs=1e-12)


class TestDelayLine:
    def test_commands_arrive_tau_late(self, plant_inputs):
        # the default 2 ms delay: 20 steps of 0.1 ms, 2 ticks
        steps, _ = plant_inputs(Scenario(kind="step", duration=0.008))
        assert steps[20:] == [float(s // 10 + 1) for s in range(len(steps) - 20)]

    @pytest.mark.parametrize("tau_delay", [1.5e-3, 5e-4, 2.05e-3])
    def test_fractional_delay_rejected(self, tau_delay):
        # whole 0.1 ms steps but not whole 1 ms ticks: refuse rather than round
        params = PlantParams()
        plant = Plant(replace(params, clutch=replace(params.clutch, tau_delay=tau_delay)))
        with pytest.raises(PlantError, match="whole number"):
            run_scenario(Scenario(kind="step", duration=0.03), plant=plant)

    def test_zero_delay_passthrough(self, plant_inputs):
        # each tick's steps see that tick's own command
        steps, _ = plant_inputs(Scenario(kind="step", duration=0.004), q=0)
        assert steps == [float(s // 10 + 1) for s in range(40)]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2, 4, 5, 10, 20]), st.integers(0, 6))
    def test_tick_line_equals_step_ring(self, plant_inputs, n, q):
        # the per-step commands run_scenario feeds the plant, at n steps per
        # tick and a delay of q ticks, against a ring buffer of q * n steps
        # pushed once per step
        n_ticks = q + 3
        sc = Scenario(kind="step", duration=n_ticks * CONTROL_DT, sim_dt=CONTROL_DT / n)
        steps, _ = plant_inputs(sc, q)
        ring = [0.0] * (q * n)
        want = []
        for s in range(n_ticks * n):
            ring.append(float(s // n + 1))
            want.append(ring.pop(0))
        assert steps == want

    def test_no_step_past_last_row(self, plant_inputs):
        # 0.7005 s is 700.5 ticks of 1 ms: the trace ends at tick 700 and the
        # plant is not integrated past it
        steps, trace = plant_inputs(Scenario(kind="step", duration=0.7005))
        assert len(trace.t) == 701
        assert len(steps) == 700 * 10
        assert trace.t[-1] == pytest.approx(0.7, abs=1e-12)


def calibrate_backdrive_amplitude(plant: Plant | None = None, tol: float = 1e-3) -> float:
    """Displacement amplitude making the open-loop baseline deviation hit its reference.

    Bisection on the 1 Hz zero-command backdrive peak torque deviation
    (first cycle excluded), stick-slip friction, dither off, against the
    published open-loop dev_1hz_0 cell.  An aborted run raises ScenarioError.
    """
    target = REFERENCE_RESULTS["open_loop"].dev_1hz_0

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
        assert tr.scenario.friction_mode == "stick_slip_sign"

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

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_noise_is_added_exactly(self, name):
        seed = 11
        tr = run_scenario(step_scenario(name, settle=0.3, noise=True, seed=seed))
        assert tr.aborted is None
        clean = np.column_stack([tr.state[:, 0], tr.state[:, 1], tr.state[:, 4],
                                 tr.p_master, tr.p_slave])
        r = NoiseCovariances.r_diag
        draws = np.random.default_rng(seed).standard_normal((len(tr.t), 5)) * np.sqrt(r + r[3:])
        assert np.array_equal(tr.meas, clean + draws)

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


class TestMeasureEvidence:
    def test_subset_measures_its_rows_alone(self, monkeypatch):
        # fewer rows than the matrix: no model evidence and no matrix time, so no run starts
        calls = []

        def fake_row(name, **kw):
            calls.append((name, kw))
            return REFERENCE_RESULTS[name]

        def hook(label, obj):
            pass

        monkeypatch.setattr(sim, "measure_controller_row", fake_row)
        monkeypatch.setattr(sim, "run_scenario", lambda *a, **kw: pytest.fail("a run started"))
        plant, gains = Plant(), synthesize()
        dither, pid_slave = DitherConfig(amplitude_slope=0.4), replace(PID_SLAVE_DEFAULT, ki=2.0)
        names = ("open_loop", "lqgi")
        ev = measure_evidence(names, plant, gains, dither=dither, pid_slave=pid_slave, seed=7,
                              trace_hook=hook)
        assert ev == Evidence({n: REFERENCE_RESULTS[n] for n in names})
        assert [name for name, _ in calls] == list(names)
        for _, kw in calls:
            assert kw["plant"] is plant and kw["gains"] is gains
            assert kw["seed"] == 7 and kw["trace_hook"] is hook
            assert kw["controller_kwargs"] == {"dither": dither, "pid_master": PID_MASTER_DEFAULT,
                                               "pid_slave": pid_slave}


class TestFrictionIdScenario:
    def test_ramp_is_converted_on_the_plant_it_names(self):
        # a larger slave piston needs less pressure per torque: the ramp still
        # spans 300 kPa -> 1.6 MPa on that plant
        params = PlantParams()
        plant = Plant(replace(params, geometry=replace(
            params.geometry, area_slave=1.2 * params.geometry.area_slave)))
        sc = friction_id_scenario(plant)
        assert plant.pressure_from_torque(sc.torque_command) == pytest.approx(300e3, rel=1e-12)
        assert plant.pressure_from_torque(sc.ramp_torque_end) == pytest.approx(1.6e6, rel=1e-12)


class _FailsAtOnce:
    dt = 1e-3

    def step(self, t, p_desired, meas):
        raise ControllerFault("no first command")


def _header_only_trace() -> SimTrace:
    """The trace of a run aborted at its first tick: no rows."""
    return run_scenario(step_scenario("pid_slave", settle=0.2), controller=_FailsAtOnce())


def _stacked(series: dict) -> np.ndarray:
    """The trace table of the TRACE_SCHEMA series given, stacked in TRACE_SCHEMA order."""
    return np.column_stack([series[name] for name in TRACE_SCHEMA if name in series])


def _special_values_trace() -> SimTrace:
    """A hand-built trace whose every column holds signed zeros, the
    smallest subnormal, the largest finite values, nan and both infinities."""
    special = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               math.nan, math.inf, -math.inf, 1.0 / 3.0]
    n = len(special)
    series = {}
    for k, (name, heads) in enumerate(TRACE_SCHEMA.items()):
        width = 1 if isinstance(heads, str) else len(heads)
        cols = [np.roll(special, k + j) for j in range(width)]
        series[name] = cols[0] if isinstance(heads, str) else np.column_stack(cols)
    series["saturated"] = np.arange(n) % 2 == 0
    return SimTrace(_stacked(series), Scenario())


def _assert_series_view_table(tr: SimTrace) -> None:
    """Every series of tr but saturated is a view of tr.table; saturated is bool."""
    assert tr.saturated.dtype == bool
    for name in TRACE_SCHEMA:
        series = getattr(tr, name)
        if name != "saturated" and series is not None and len(tr.table):   # no rows: no memory
            assert np.shares_memory(series, tr.table), name


def _savetxt_reference(tr: SimTrace, path) -> None:
    """The trace table as numpy.savetxt writes it: the writer's byte reference."""
    np.savetxt(path, tr.table, delimiter=",", header=",".join(tr.columns()), comments="",
               fmt="%.17g")


def _without(lines: list, *heads) -> list:
    """CSV lines lacking the columns named heads."""
    keep = [j for j, h in enumerate(lines[0].split(",")) if h not in heads]
    return [",".join(line.split(",")[j] for j in keep) for line in lines]


def _sidecar_scenario(meta: dict, drop: str = "", **fields) -> dict:
    """A copy of sidecar meta whose scenario has fields set and the field drop removed."""
    sc = {k: v for k, v in {**meta["scenario"], **fields}.items() if k != drop}
    return {**meta, "scenario": sc}


@pytest.fixture(scope="module")
def backdrive_files(tmp_path_factory):
    """The CSV lines and sidecar of a 2-cycle open-loop backdrive, as to_csv writes them."""
    path = tmp_path_factory.mktemp("backdrive") / "t.csv"
    run_scenario(backdrive_scenario("open_loop", backdrive_cycles=2)).to_csv(path)
    return path.read_text().splitlines(), json.loads(Path(f"{path}.meta.json").read_text())


class TestTraceIO:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: run_scenario(step_scenario("lqgi", noise=True, seed=7)),
                     id="noisy_lqgi"),
        pytest.param(lambda: run_scenario(step_scenario("pid_slave", noise=True, seed=8)),
                     id="noisy_pid_slave"),
        pytest.param(lambda: run_scenario(Scenario(duration=(2 * CSV_BLOCK_ROWS + 5) * 1e-3)),
                     id="partial_last_block"),
        pytest.param(_header_only_trace, id="header_only"),
        pytest.param(_special_values_trace, id="special_values"),
    ])
    def test_csv_bytes_equal_savetxt(self, tmp_path, make):
        tr = make()
        path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
        tr.to_csv(path)
        _savetxt_reference(tr, ref)
        assert path.read_bytes() == ref.read_bytes()
        again = read_trace_csv(path)
        want, got = tr.table, again.table
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # the read-back trace writes the very bytes it was read from
        again.to_csv(tmp_path / "again.csv")
        for suffix in ("", ".meta.json"):
            assert (Path(f"{tmp_path / 'again.csv'}{suffix}").read_bytes()
                    == Path(f"{path}{suffix}").read_bytes()), suffix

    @pytest.mark.parametrize("name", ["pid_master", "lqgi"])
    def test_series_are_views_of_the_table(self, tmp_path, name):
        tr = run_scenario(step_scenario(name, settle=0.2, noise=True, seed=4))
        tr.to_csv(tmp_path / "t.csv")
        for trace in (tr, read_trace_csv(tmp_path / "t.csv")):
            _assert_series_view_table(trace)
            assert (trace.estimate is None) == (name != "lqgi")

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: run_scenario(step_scenario("lqgi", settle=0.2, noise=True, seed=9)),
                     id="noisy_lqgi"),
        pytest.param(_header_only_trace, id="header_only"),
    ])
    def test_pickle_round_trip(self, make):
        tr = make()
        again = pickle.loads(pickle.dumps(tr))
        assert again.table.shape == tr.table.shape and np.array_equal(again.table, tr.table)
        # a trace compares and hashes by identity; its content compares through its table
        assert again != tr and tr == tr and len({tr, again}) == 2
        assert (again.scenario, again.plant_hash, again.aborted) == (
            tr.scenario, tr.plant_hash, tr.aborted)
        _assert_series_view_table(again)

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
        with pytest.raises(ValueError, match=r"t\.csv: the header is not a trace table's"):
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
        tr = SimTrace(_stacked(series), Scenario(seed=3), plant_hash="abc")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            tr.to_csv(path)
            again = read_trace_csv(path)
        for name in TRACE_SCHEMA:
            want, got = getattr(tr, name), getattr(again, name)
            assert (got is None) if want is None else np.array_equal(got, want), name
        assert (again.scenario, again.plant_hash, again.aborted) == (
            tr.scenario, tr.plant_hash, tr.aborted)

    def test_zero_row_trace_round_trip(self, tmp_path):
        tr = _header_only_trace()
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
        with pytest.raises(ValueError, match=r"t\.csv\.meta\.json must be an object with the keys "
                           r".*got \['aborted', 'plant_hash', 'scenario', 'sede'\]$"):
            read_trace_csv(path)

    @pytest.mark.parametrize("sc", [
        step_scenario("pid_master", settle=0.5),
        dwell_scenario("open_loop", 20.0),
        backdrive_scenario("friction_comp", backdrive_freq=5.0, backdrive_cycles=1),
        step_scenario("lqgi", settle=0.2, noise=True, seed=5),
    ], ids=["step", "dwell", "backdrive", "lqgi_step"])
    def test_every_kind_round_trips(self, tmp_path, sc):
        tr = run_scenario(sc)
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        again = read_trace_csv(path)
        assert again.scenario == tr.scenario == sc
        assert (again.plant_hash, again.aborted) == (tr.plant_hash, tr.aborted)
        for name in TRACE_SCHEMA:
            want, got = getattr(tr, name), getattr(again, name)
            assert (got is None) if want is None else np.array_equal(got, want), name

    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda lines, meta: (lines, {**meta, "t": 1}),
                     r"meta\.json must be an object with the keys .*got "
                     r"\['aborted', 'plant_hash', 'scenario', 't'\]$", id="sidecar_t"),
        pytest.param(lambda lines, meta: (lines, _sidecar_scenario(meta, backdrive_freq=-1.0)),
                     r"^backdrive_freq must be finite and > 0, got -1\.0$", id="negative_freq"),
        pytest.param(lambda lines, meta: (lines, _sidecar_scenario(meta, backdrive_freq="x")),
                     r"^backdrive_freq must be finite and > 0, got 'x'$", id="text_freq"),
        pytest.param(lambda lines, meta: (lines, _sidecar_scenario(meta, bogus=1)),
                     r"unknown key\(s\) in the scenario of .*meta\.json: \['bogus'\]$",
                     id="unknown_scenario_field"),
        pytest.param(lambda lines, meta: (_without(lines, TRACE_SCHEMA["torque"]), meta),
                     r"t\.csv: the header is not a trace table's", id="no_torque_column"),
        pytest.param(lambda lines, meta: (_without(lines, *TRACE_SCHEMA["state"]), meta),
                     r"t\.csv: the header is not a trace table's", id="no_state_columns"),
        pytest.param(lambda lines, meta: ([line + ",0" for line in lines], meta),
                     r"t\.csv: the header is not a trace table's", id="extra_column"),
        pytest.param(lambda lines, meta: ([",".join(sim._table_heads(True))] + lines[1:], meta),
                     r"t\.csv: rows of 22 values under 30 columns$", id="lqgi_header"),
        pytest.param(lambda lines, meta: (lines, None),
                     r"t\.csv\.meta\.json is missing", id="no_sidecar"),
        pytest.param(lambda lines, meta: (lines, {**meta, "seed": 0}),
                     r"got \['aborted', 'plant_hash', 'scenario', 'seed'\]$",
                     id="sidecar_with_seed"),
        pytest.param(lambda lines, meta: (lines, [meta]),
                     r"meta\.json must be an object .*got list$", id="sidecar_not_object"),
        pytest.param(lambda lines, meta: (lines, {**meta, "plant_hash": 5}),
                     r"meta\.json: plant_hash must be a string .*got 5 and None$",
                     id="plant_hash_not_text"),
        pytest.param(lambda lines, meta: (lines, {**meta, "aborted": ["x"]}),
                     r"meta\.json: plant_hash must be .*aborted a string or null, "
                     r"got '[0-9a-f]+' and \['x'\]$", id="aborted_not_text"),
        pytest.param(lambda lines, meta: (lines, "{aborted: null}"),
                     r"t\.csv\.meta\.json is not JSON: Expecting", id="sidecar_not_json"),
        pytest.param(lambda lines, meta: (lines, _sidecar_scenario(meta, drop="pre_hold")),
                     r"scenario of .*meta\.json does not rebuild to itself at \['pre_hold'\]$",
                     id="no_pre_hold"),
        pytest.param(lambda lines, meta: (lines, _sidecar_scenario(meta, friction_mode=None)),
                     r"does not rebuild to itself at \['friction_mode'\]$",
                     id="backdrive_friction_mode_null"),
    ])
    def test_refuses_what_to_csv_does_not_write(self, tmp_path, backdrive_files, edit, match):
        lines, meta = edit(*backdrive_files)
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        if meta is not None:   # a str is the sidecar's text as it is
            text = meta if isinstance(meta, str) else json.dumps(meta)
            Path(f"{path}.meta.json").write_text(text)
        with pytest.raises(ValueError, match=match):
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
        with pytest.raises(ScenarioError,
                           match=r"^unknown key\(s\) in scenario: \['tork_amplitude'\]$"):
            build_record(Scenario(), {"kind": "step", "tork_amplitude": 3.0}, "scenario",
                         ScenarioError)

    def test_bad_kind_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(kind="waltz")

    def test_rate_mismatch_rejected(self):
        # 1 ms is 3.33 steps of 0.3 ms
        with pytest.raises(ScenarioError, match="sim_dt"):
            Scenario(sim_dt=3e-4)

    def test_round_trip(self):
        sc = backdrive_scenario("lqgi", torque_command=10.0, backdrive_freq=5.0)
        assert _json_round_trip(sc) == sc

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_scenarios_round_trip(self, data):
        positive = st.floats(1e-3, 1e3)
        sc = Scenario(
            kind=data.draw(st.sampled_from(SCENARIO_KINDS)),
            controller=data.draw(st.sampled_from(CONTROLLER_NAMES)),
            duration=data.draw(st.none() | positive), pre_hold=data.draw(st.floats(0.0, 10.0)),
            seed=data.draw(st.integers(0, 2**32 - 1)), noise=data.draw(st.booleans()),
            torque_amplitude=data.draw(FINITE), torque_offset=data.draw(FINITE),
            freq_hz=data.draw(st.floats(1e-3, NYQUIST_HZ, exclude_max=True)),
            backdrive_amplitude=data.draw(FINITE), backdrive_freq=data.draw(positive),
            backdrive_cycles=data.draw(st.integers(1, 1000)),
            torque_command=data.draw(FINITE), ramp_torque_end=data.draw(st.none() | FINITE),
            friction_mode=data.draw(st.none() | st.sampled_from(FRICTION_MODES)),
            sim_dt=data.draw(st.sampled_from([2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3])))
        assert _json_round_trip(sc) == sc

    @pytest.mark.parametrize("fields, name", [
        ({"sim_dt": 0.0}, "sim_dt"),
        ({"sim_dt": -1e-4}, "sim_dt"),
        ({"sim_dt": math.nan}, "sim_dt"),
        ({"sim_dt": math.inf}, "sim_dt"),
        ({"sim_dt": 2e-3}, "sim_dt"),   # coarser than the 1 ms control tick
        ({"sim_dt": 3e-4}, "sim_dt"),   # 3.33 steps per tick
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
        ({"duration": 0.0}, "duration"),
        ({"kind": "sine_dwell", "freq_hz": math.nan}, "freq_hz"),
        ({"kind": "sine_dwell", "freq_hz": 500.0}, "freq_hz must be below 500 Hz"),
        ({"kind": "sine_dwell", "freq_hz": 1150.0}, "freq_hz must be below 500 Hz"),
        ({"pre_hold": -1.0}, "pre_hold"),
        ({"kind": "backdrive", "pre_hold": math.nan}, "pre_hold"),
        ({"seed": -1}, "seed"),
        ({"kind": "backdrive", "backdrive_freq": 1e-320}, "total_duration"),
        ({"seed": 1.5}, "seed"),
        ({"seed": 1e30}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": False}, "seed"),
        ({"kind": "backdrive", "backdrive_cycles": True}, "backdrive_cycles"),
        ({"seed": 2**64}, "seed must be below"),
        ({"torque_amplitude": 10**400}, "torque_amplitude"),
        ({"noise": "no"}, "noise"),
        ({"noise": 1}, "noise"),
        ({"friction_mode": "sticky"}, "friction_mode"),
        ({"controller": "bogus"}, "controller"),
        ({"freq_hz": "x"}, "freq_hz"),
        ({"backdrive_freq": None}, "backdrive_freq"),
        ({"backdrive_cycles": "x"}, "backdrive_cycles"),
        ({"kind": "backdrive", "backdrive_cycles": 10**400}, "backdrive_cycles"),
        ({"kind": "backdrive", "backdrive_cycles": 0.5}, "backdrive_cycles"),
        ({"kind": "backdrive", "backdrive_cycles": 2.5}, "backdrive_cycles"),
        ({"kind": "backdrive", "backdrive_cycles": 5.0}, "backdrive_cycles"),
        ({"backdrive_cycles": 5.0}, "backdrive_cycles"),
    ])
    def test_bad_numbers_named(self, fields, name):
        with pytest.raises(ScenarioError, match=name):
            Scenario(**fields)

    # a second valid value of each field that not every kind reads
    ALTERED = {"pre_hold": 0.02, "torque_amplitude": 3.0, "torque_offset": 4.0, "freq_hz": 70.0,
               "backdrive_amplitude": 2e-3, "backdrive_freq": 30.0, "backdrive_cycles": 2,
               "torque_command": 6.0, "ramp_torque_end": 9.0}

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_reads_table_is_what_a_run_reads(self, kind):
        # a field a kind reads changes its trace; a field it never reads changes nothing
        every = set.intersection(*map(set, SCENARIO_READS.values()))
        assert set(self.ALTERED) == {f.name for f in fields(Scenario)} - every
        base = Scenario(kind=kind, controller="pid_master", pre_hold=0.01, freq_hz=50.0,
                        backdrive_freq=20.0, backdrive_cycles=1)
        table = run_scenario(base).table
        for name, value in self.ALTERED.items():
            altered = run_scenario(replace(base, **{name: value})).table
            assert np.array_equal(altered, table) == (name not in SCENARIO_READS[kind]), name


class TestControlRate:
    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_supplied_controller_equals_the_built_one(self, name):
        # a controller from the factory runs at the one CONTROL_DT, as the
        # one run_scenario builds from sc.controller does
        plant = Plant()
        sc = step_scenario(name, settle=0.2, noise=True, seed=3)
        built = run_scenario(sc, plant=plant)
        supplied = run_scenario(sc, plant=plant, controller=make_controller(name, plant))
        want = built.columns()
        got = supplied.columns()
        assert list(got) == list(want)
        for head, values in want.items():
            assert np.array_equal(got[head], values), head

    @pytest.mark.parametrize("sim_dt", [1e-3, 1e-4, 2.5e-5])
    def test_one_controller_call_per_tick(self, sim_dt):
        # whatever the integration step, the controller is called once per
        # 1 ms tick and each call writes one trace row
        calls = []

        def step(t, p_desired, meas):
            calls.append(t)
            return Command(current=0.0, force=0.0, pressure_cmd=0.0, saturated=False)

        counter = type("Counter", (), {"step": staticmethod(step)})()
        tr = run_scenario(Scenario(kind="step", duration=0.05, sim_dt=sim_dt),
                          controller=counter)
        assert len(calls) == len(tr.t) == 51
        assert np.array_equal(calls, tr.t)
        np.testing.assert_allclose(np.diff(tr.t), CONTROL_DT, rtol=1e-9)
