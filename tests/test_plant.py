import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mrhydro.plant import (CONTROL_DT, FRICTION_MODES, GeometryParams, MRClutchParams, Plant,
                           PlantError, PlantParams, TransmissionParams, build_record,
                           build_state_space, friction_pressure)
from mrhydro.sim import Scenario


@pytest.fixture(scope="module")
def plant():
    return Plant()


def mechanical_energy(plant, state) -> float:
    """Kinetic plus spring potential energy of the three-mass chain."""
    x1, v1, x2, v2, x3, v3, _ = state
    t = plant.params.transmission
    ke = 0.5 * (t.m1 * v1 * v1 + t.m2 * v2 * v2 + t.m3 * v3 * v3)
    pe = 0.5 * (t.k1 * (x1 - x2) ** 2 + t.k2 * (x2 - x3) ** 2 + t.k3 * x3 * x3)
    return ke + pe


# polynomial oracle: direct evaluation of the static-curve coefficients
def poly_torque(i, c3=-0.015, c2=0.104, c1=0.225, c0=0.044):
    return ((c3 * i + c2) * i + c1) * i + c0


def reference_current_from_torque(plant, torque):
    """The 60-step bisection through the range-checked, clamped static curve."""
    c = plant.params.clutch
    saturated = torque >= c.torque_max
    torque = min(torque, c.torque_max)
    if torque <= c.poly_c0:
        return 0.0, saturated
    if torque >= poly_torque(c.current_max, c.poly_c3, c.poly_c2, c.poly_c1, c.poly_c0):
        return c.current_max, True
    lo, hi = 0.0, c.current_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if plant.mr_torque_from_current(mid) < torque:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), saturated


def reference_rk4_step(plant, state, dt, f_cmd, profile=None, t=0.0):
    """Stage-by-stage RK4 over Plant.derivative, the profile sampled per stage.

    With a prescribed motion the stepped x3, v3 are replaced by the
    profile's values at t + dt.
    """
    def slope(s, at):
        if profile is None:
            return plant.derivative(*s, f_cmd)
        _, v3, a3 = profile(at)
        return plant.derivative(*s, f_cmd, (v3, a3))

    k1 = slope(state, t)
    s2 = tuple(state[j] + 0.5 * dt * k1[j] for j in range(7))
    k2 = slope(s2, t + 0.5 * dt)
    s3 = tuple(state[j] + 0.5 * dt * k2[j] for j in range(7))
    k3 = slope(s3, t + 0.5 * dt)
    s4 = tuple(state[j] + dt * k3[j] for j in range(7))
    k4 = slope(s4, t + dt)
    sixth = dt / 6.0
    out = tuple(state[j] + sixth * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                for j in range(7))
    if profile is not None:
        x3, v3, _ = profile(t + dt)
        out = out[:4] + (x3, v3) + out[6:]
    return out


def shared_and_fresh(dt, n):
    """How many of steps 1 .. n-1 start at the float (i-1)*dt + dt, where the previous
    step ended, and how many do not."""
    same = sum(i * dt == (i - 1) * dt + dt for i in range(1, n))
    return same, n - 1 - same


def sine_motion(amp=1.5e-3, freq=5.0, t0=0.02):
    """Prescribed (x3, v3, a3), at rest until t0."""
    w = 2.0 * math.pi * freq

    def profile(t):
        if t < t0:
            return 0.0, 0.0, 0.0
        ph = w * (t - t0)
        return amp * math.sin(ph), amp * w * math.cos(ph), -amp * w * w * math.sin(ph)

    return profile


class TestClutchStatics:
    def test_zero_current_gives_remnant(self, plant):
        assert plant.mr_torque_from_current(0.0) == pytest.approx(0.044, abs=1e-12)

    def test_polynomial_values(self, plant):
        # frozen from the direct-evaluation oracle above
        assert poly_torque(2.5) == pytest.approx(1.022125, abs=1e-12)
        assert plant.mr_torque_from_current(2.5) == pytest.approx(1.022125, abs=1e-9)
        assert plant.mr_torque_from_current(1.0) == pytest.approx(0.358, abs=1e-9)

    def test_out_of_range_current_rejected(self, plant):
        with pytest.raises(PlantError):
            plant.mr_torque_from_current(-0.1)
        with pytest.raises(PlantError):
            plant.mr_torque_from_current(3.5)

    def test_strictly_increasing_on_range(self, plant):
        grid = np.linspace(0.0, 3.0, 1000)
        torques = [plant.mr_torque_from_current(i) for i in grid]
        assert all(b > a for a, b in zip(torques, torques[1:]))

    def test_inverse_of_remnant_is_zero(self, plant):
        current, saturated = plant.current_from_torque(0.044)
        assert current == 0.0 and not saturated

    def test_inverse_round_trip_grid(self, plant):
        t_max_reachable = plant.mr_torque_from_current(3.0)
        for torque in np.linspace(0.045, t_max_reachable - 1e-9, 1000):
            current, saturated = plant.current_from_torque(torque)
            assert not saturated
            assert plant.mr_torque_from_current(current) == pytest.approx(torque, abs=1e-6)

    def test_inverse_of_known_point(self, plant):
        current, _ = plant.current_from_torque(1.022125)
        assert current == pytest.approx(2.5, abs=1e-6)

    def test_over_rating_saturates_with_flag(self, plant):
        current, saturated = plant.current_from_torque(2.5)
        assert saturated and current == 3.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.1 * MRClutchParams.torque_max))
    def test_inversion_equals_bisection_through_static_curve(self, plant, torque):
        assert plant.current_from_torque(torque) == reference_current_from_torque(plant, torque)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.044, 1.25, exclude_min=True))
    def test_inversion_round_trip(self, plant, torque):
        # (poly_c0, max reachable = T(current_max) = 1.25 N.m]
        assert plant.mr_torque_from_current(3.0) == pytest.approx(1.25, abs=1e-15)
        current, _ = plant.current_from_torque(torque)
        assert plant.mr_torque_from_current(current) == pytest.approx(torque, abs=1e-12)

    # (c3, c2, c1, c0, current_max), often not monotone; a place in the torque range: a
    # fraction of it, or k ulps above the remnant (k > 0) or below T(current_max) (k < 0)
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.floats(-0.05, 0.05), st.floats(-0.2, 0.2), st.floats(1e-3, 1.0),
                     st.floats(0.0, 0.1), st.floats(0.5, 5.0) | st.just(2.7)),
           st.floats(0.0, 1.0) | st.integers(1, 1000) | st.integers(-1000, -1))
    @example((-0.015, 0.104, 0.225, 0.044, 3.0), 0.5)       # the shipped clutch
    @example((-0.015, 0.104, 0.225, 0.044, 2.7), 3)         # a long significand: K = 1
    @example((0.1, -0.3, 0.3 + 1e-6, 0.044, 3.0), -2)       # least slope 1e-6, at 1 A
    @example((0.1, -0.3, 0.3 + 1e-6, 0.0, 3.0), 0.09)       # torque near the vertex
    def test_inversion_equals_bisection_for_any_clutch(self, coefficients, place):
        c3, c2, c1, c0, current_max = coefficients
        try:
            clutch = MRClutchParams(poly_c3=c3, poly_c2=c2, poly_c1=c1, poly_c0=c0,
                                    torque_max=100.0, current_max=current_max)
        except PlantError:
            assume(False)
        plant = Plant(PlantParams(clutch=clutch))
        low, high = c0, plant.torque_reach
        if isinstance(place, float):
            torque = low + place * (high - low)
        else:
            torque = low + place * math.ulp(low) if place > 0 else high + place * math.ulp(high)
        assert plant.current_from_torque(torque) == reference_current_from_torque(plant, torque)

    def test_bisection_start_level(self):
        # shipped: the slope bound allows level 47, one is kept in hand; the grid allows 51
        assert Plant().bisect_level == 46
        # 2.7's significand has an odd part of 52 bits: one exact halving
        assert Plant(PlantParams(clutch=MRClutchParams(current_max=2.7))).bisect_level == 1
        # a bound that overflows allows no jump
        huge = MRClutchParams(poly_c3=0.05, poly_c2=0.0, current_max=1e300)
        assert Plant(PlantParams(clutch=huge)).bisect_level == 0

    @pytest.mark.parametrize("torque_max", [2.0, 1.0])
    def test_saturation_flag_at_and_above_rating(self, torque_max):
        params = PlantParams()
        plant = Plant(replace(params, clutch=replace(params.clutch, torque_max=torque_max)))
        # the top of the clamped static curve: the rating or T(current_max) = 1.25 N.m,
        # delivered by 3 A, or by 2.45 A at a 1 N.m rating
        top = min(torque_max, 1.25)
        i_top = 3.0 if torque_max == 2.0 else 2.4523292534211194
        assert poly_torque(i_top) == pytest.approx(top, abs=1e-12)
        for torque in (top, torque_max, 1.1 * torque_max, 10.0):
            assert plant.current_from_torque(torque) == (i_top, True)
        current, saturated = plant.current_from_torque(top - 1e-6)
        assert not saturated and current < i_top

    def test_drive_composes_inverse_and_static_curve(self, plant):
        f_max = plant.force_max
        for force in (-1e3, -1e-9, 0.0, 100.0, 0.37 * f_max, f_max, 1.5 * f_max):
            clamped = min(max(force, 0.0), f_max)
            current, saturated = plant.current_from_torque(clamped / plant.force_per_torque)
            assert plant.drive(force) == (
                current, plant.mr_torque_from_current(current) * plant.force_per_torque,
                saturated or force < 0.0)
        assert plant.drive(-1.0)[2] and plant.drive(f_max)[2] and not plant.drive(100.0)[2]

    def test_nan_torque_rejected(self, plant):
        # NaN fails every comparison: unrejected, the bisection would return ~0 A
        with pytest.raises(PlantError, match="torque must be >= 0, got nan"):
            plant.current_from_torque(math.nan)

    @pytest.mark.parametrize("force", [math.nan, math.inf, -math.inf])
    def test_drive_refuses_non_finite_request(self, plant, force):
        with pytest.raises(FloatingPointError, match=f"non-finite clutch force request {force}"):
            plant.drive(force)

    def test_negative_remnant_torque_rejected(self):
        with pytest.raises(PlantError, match="poly_c0"):
            MRClutchParams(poly_c0=-0.01)

    @pytest.mark.parametrize("c1_offset, monotone", [(-1e-6, False), (1e-6, True)])
    def test_slope_checked_at_its_vertex(self, c1_offset, monotone):
        # slope 0.3 i^2 - 0.6 i + 0.3 + offset is least at 1 A, between grid samples
        coefficients = {"poly_c3": 0.1, "poly_c2": -0.3, "poly_c1": 0.3 + c1_offset}
        if monotone:
            MRClutchParams(**coefficients)
        else:
            with pytest.raises(PlantError, match="not monotone"):
                MRClutchParams(**coefficients)
            assert poly_torque(1.001, 0.1, -0.3, 0.3 + c1_offset) < \
                poly_torque(0.999, 0.1, -0.3, 0.3 + c1_offset)


class TestFriction:
    def test_zero_speed_zero_friction(self):
        assert friction_pressure(0.14, 5e5, 0.0, 30.0) == 0.0

    def test_saturation_level(self):
        assert friction_pressure(0.14, 1.0e6, 10.0, 30.0) == pytest.approx(1.4e5, rel=1e-9)
        assert friction_pressure(0.14, 1.0e6, -10.0, 30.0) == pytest.approx(-1.4e5, rel=1e-9)

    def test_oddness(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = float(rng.uniform(0.0, 3e6))
            v = float(rng.uniform(-0.2, 0.2))
            assert friction_pressure(0.14, p, -v, 30.0) == pytest.approx(
                -friction_pressure(0.14, p, v, 30.0), abs=1e-12)

    def test_negative_pressure_clamps_to_zero(self):
        assert friction_pressure(0.14, -1.0, 0.1, 30.0) == 0.0

    def test_modes(self):
        off = Plant(PlantParams().with_friction(mode="off"))
        assert off.mu == 0.0
        sign = Plant(PlantParams().with_friction(mode="stick_slip_sign"))
        # regularized sign: saturated well before the smooth mode is
        assert friction_pressure(sign.mu, 1e6, 0.01, sign.friction_steepness) == \
            pytest.approx(0.14e6, rel=1e-3)
        smooth = Plant()
        assert (smooth.mu, smooth.friction_steepness) == (0.14, 30.0)

    @pytest.mark.parametrize("mode", ["smooth_tanh", "stick_slip_sign"])
    def test_derivative_subtracts_friction_force(self, mode):
        plant = Plant(PlantParams().with_friction(mode=mode))
        off = Plant(PlantParams().with_friction(mode="off"))
        state = (1e-3, 2e-3, 0.0, 0.0, 0.0, 0.0, 300.0)
        p_master = plant.master_pressure(state)
        loss = friction_pressure(0.14, p_master, state[1], plant.friction_steepness)
        a1 = plant.derivative(*state, 0.0)[1]
        a1_free = off.derivative(*state, 0.0)[1]
        assert a1_free - a1 == pytest.approx(loss * plant.area_master * plant.inv_m1,
                                             rel=1e-9)


class TestConversions:
    def test_zero_torque_maps_to_dc_pressure(self, plant):
        assert plant.pressure_from_torque(0.0) == pytest.approx(205e3)

    def test_max_point(self, plant):
        p = plant.pressure_from_torque(29.0)
        assert p - plant.p_dc == pytest.approx(2.31e6, rel=1e-9)

    def test_midpoint_linearity(self, plant):
        p_full = plant.pressure_from_torque(29.0)
        p_half = plant.pressure_from_torque(14.5)
        assert p_half - plant.p_dc == pytest.approx(0.5 * (p_full - plant.p_dc), rel=1e-12)

    def test_pull_below_gauge_clamped(self, plant):
        assert plant.pressure_from_torque(-10.0) == 0.0

    def test_round_trip(self, plant):
        for torque in (0.0, 3.3, 14.5, 29.0):
            p = plant.pressure_from_torque(torque)
            assert plant.torque_from_pressure(p) == pytest.approx(torque, abs=1e-9)

    def test_geometry_consistency(self, plant):
        g = plant.params.geometry
        assert g.area_slave * g.r_pulley * 2.31e6 == pytest.approx(29.0, rel=0.01)


class TestStateSpace:
    def test_structure(self):
        ss = build_state_space(PlantParams())
        np.testing.assert_allclose(ss.A[0], [0, 1, 0, 0, 0, 0, 0])
        wc = 2 * math.pi * 64.0
        assert ss.A[6, 6] == pytest.approx(-wc)
        assert ss.B[6, 0] == pytest.approx(wc)
        assert ss.A.shape == (7, 7) and ss.C.shape == (4, 7) and ss.C_d.shape == (1, 7)

    def test_mechanical_eigenfrequencies_match_chain_oracle(self):
        # brute-force generalized eigenproblem of the undamped 3-mass chain,
        # assembled independently of the state-space code
        params = PlantParams(transmission=TransmissionParams(b1=1e-9, b2=1e-9, b3=1e-9))
        t = params.transmission
        M = np.diag([t.m1, t.m2, t.m3])
        K = np.array([
            [t.k1, -t.k1, 0.0],
            [-t.k1, t.k1 + t.k2, -t.k2],
            [0.0, -t.k2, t.k2 + t.k3],
        ])
        w2 = np.sort(np.linalg.eigvals(np.linalg.solve(M, K)).real)
        ss = build_state_space(params)
        ev = np.linalg.eigvals(ss.A[:6, :6])
        freqs = np.sort(np.unique(np.round(np.abs(ev.imag), 6)))
        freqs = freqs[freqs > 0.0]
        np.testing.assert_allclose(freqs, np.sqrt(w2), rtol=1e-6)

    def test_linearization_matches_model(self):
        # with friction off the nonlinear derivative must equal A x + B u
        params = PlantParams().with_friction(mode="off")
        plant = Plant(params)
        ss = build_state_space(params)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(7) * [1e-3, 1e-2, 1e-3, 1e-2, 1e-3, 1e-2, 100.0]
            u = float(rng.uniform(0, 1000))
            dx = np.array(plant.derivative(*x, u))
            np.testing.assert_allclose(dx, ss.A @ x + ss.B[:, 0] * u, rtol=1e-12, atol=1e-9)

    def test_finite_difference_jacobian(self):
        params = PlantParams().with_friction(mode="off")
        plant = Plant(params)
        ss = build_state_space(params)
        x0 = np.zeros(7)
        jac = np.zeros((7, 7))
        eps = 1e-6
        for j in range(7):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += eps
            xm[j] -= eps
            jac[:, j] = (np.array(plant.derivative(*xp, 0.0)) -
                         np.array(plant.derivative(*xm, 0.0))) / (2 * eps)
        np.testing.assert_allclose(jac, ss.A, rtol=1e-6, atol=1e-4)


class TestDynamics:
    def test_equilibrium_zero_derivative(self, plant):
        dx = plant.derivative(*(0.0,) * 7, 0.0)
        assert all(v == 0.0 for v in dx)

    def test_blocked_static_force_balance(self):
        # very stiff third mass: steady slave pressure equals force / area
        params = PlantParams(transmission=TransmissionParams(k3=1e9, b3=1e5))
        params = params.with_friction(mode="off")
        plant = Plant(params)
        state = (0.0,) * 7
        f_cmd = 500.0
        for _ in range(200000):
            state = plant.rk4_step(state, 1e-4, f_cmd)
        assert plant.slave_pressure(state) == pytest.approx(f_cmd / plant.area_slave, rel=1e-3)

    def test_linear_nonlinear_consistency(self):
        # friction off, no delay: simulating the state space with the same
        # integrator must agree to roundoff over one second
        params = PlantParams().with_friction(mode="off")
        plant = Plant(params)
        ss = build_state_space(params)
        A, B = ss.A, ss.B[:, 0]

        def lin_rk4(x, dt, u):
            k1 = A @ x + B * u
            k2 = A @ (x + 0.5 * dt * k1) + B * u
            k3 = A @ (x + 0.5 * dt * k2) + B * u
            k4 = A @ (x + dt * k3) + B * u
            return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        state = (0.0,) * 7
        x = np.zeros(7)
        dt = 1e-4
        worst = 0.0
        for i in range(10000):
            u = 400.0 if i * dt >= 0.1 else 0.0
            state = plant.rk4_step(state, dt, u)
            x = lin_rk4(x, dt, u)
            scale = max(np.abs(x).max(), 1e-12)
            worst = max(worst, np.abs(np.array(state) - x).max() / scale)
        assert worst <= 1e-9

    def test_passivity_of_mechanical_block(self):
        params = PlantParams().with_friction(mode="off")
        plant = Plant(params)
        state = (1e-3, 0.0, -0.5e-3, 0.0, 0.2e-3, 0.0, 0.0)
        energy = mechanical_energy(plant, state)
        for _ in range(20000):
            state = plant.rk4_step(state, 1e-4, 0.0)
            e_next = mechanical_energy(plant, state)
            assert e_next <= energy * (1.0 + 1e-12) + 1e-15
            energy = e_next

    # 5e-5 s is the halved step of the convergence check
    @pytest.mark.parametrize("dt", [1e-4, 5e-5])
    @pytest.mark.parametrize("mode", FRICTION_MODES)
    @pytest.mark.parametrize("prescribed", [False, True], ids=["free", "backdrive"])
    def test_rk4_step_equals_stagewise_reference(self, mode, prescribed, dt):
        plant = Plant(PlantParams().with_friction(mode=mode))
        profile = sine_motion() if prescribed else None
        state = ref = (0.0,) * 7
        assert all(shared_and_fresh(dt, 2500))
        for i in range(2500):
            t = i * dt
            f_cmd = 900.0 + 400.0 * math.sin(2.0 * math.pi * 7.0 * t)
            state = plant.rk4_step(state, dt, f_cmd, profile, i)
            ref = reference_rk4_step(plant, ref, dt, f_cmd, profile, t)
            assert state == ref, f"step {i}"
        # the friction term was live: piston moving under line pressure
        assert ref[1] != 0.0 and plant.master_pressure(ref) > 0.0

    @pytest.mark.parametrize("dt", [1e-4, 5e-5])
    @pytest.mark.parametrize("mode", FRICTION_MODES)
    @pytest.mark.parametrize("prescribed", [False, True], ids=["free", "backdrive"])
    def test_multistep_call_equals_single_steps(self, mode, prescribed, dt):
        # pieces of 7 and 8 steps, so a piece starts at any step mod 15;
        # the pieces over steps 195..201 at 1e-4 s and 397..404 at 5e-5 s cross the
        # motion start (t0 = 0.02 s).  Within a piece a step reuses the previous step's
        # end sample only where the two float times are equal, and both kinds occur.
        plant = Plant(PlantParams().with_friction(mode=mode))
        profile = sine_motion() if prescribed else None
        state = ref = (0.0,) * 7
        assert all(shared_and_fresh(dt, 2500))
        i = 0
        while i < 2500:
            n = 7 if i % 15 == 0 else 8
            f_cmd = 900.0 + 400.0 * math.sin(2.0 * math.pi * 7.0 * i * dt)
            state = plant.rk4_step(state, dt, f_cmd, profile, i, n)
            for j in range(i, i + n):
                ref = reference_rk4_step(plant, ref, dt, f_cmd, profile, j * dt)
            assert state == ref, f"piece from step {i}"
            i += n
        assert ref[1] != 0.0 and plant.master_pressure(ref) > 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(FRICTION_MODES), prescribed=st.booleans(),
           dt=st.sampled_from([1e-4, 5e-5]), n=st.integers(1, 12), i0=st.integers(0, 1000))
    def test_rk4_step_equals_stagewise_reference_on_any_plant(self, data, mode, prescribed,
                                                              dt, n, i0):
        # every plant constant the stages read, scaled on its own, so a stage that reads a
        # wrong one differs; master pressure of either sign takes both friction branches
        scale = st.floats(0.5, 2.0)
        base = TransmissionParams()
        params = PlantParams(
            transmission=TransmissionParams(**{f.name: getattr(base, f.name) * data.draw(scale)
                                               for f in fields(base)}),
            clutch=MRClutchParams(omega_c=MRClutchParams.omega_c * data.draw(scale)),
            geometry=GeometryParams(area_master=GeometryParams.area_master * data.draw(scale)),
        ).with_friction(mode=mode)
        plant = Plant(params)
        position = st.floats(-2e-3, 2e-3)
        speed = st.floats(-0.1, 0.1) | st.sampled_from([0.0, -0.0])
        state = (data.draw(position), data.draw(speed), data.draw(position), data.draw(speed),
                 data.draw(position), data.draw(speed), data.draw(st.floats(0.0, 2000.0)))
        f_cmd = data.draw(st.floats(0.0, 2000.0))
        profile = sine_motion() if prescribed else None
        got = plant.rk4_step(state, dt, f_cmd, profile, i0, n)
        want = state
        for i in range(i0, i0 + n):
            want = reference_rk4_step(plant, want, dt, f_cmd, profile, i * dt)
        # bit for bit, signed zeros included
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_nan_state_raises(self, plant):
        with pytest.raises(FloatingPointError):
            plant.rk4_step((math.nan,) * 7, 1e-4, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_inf_state_raises(self, plant, bad):
        with pytest.raises(FloatingPointError):
            plant.rk4_step((0.0, 0.0, 0.0, 0.0, bad, 0.0, 0.0), 1e-4, 0.0, n=3)


class TestParams:
    def test_defaults_match_identified_values(self):
        t = TransmissionParams()
        assert (t.m1, t.m2, t.m3) == (11.0, 7.0, 976.0)
        assert (t.k1, t.k2, t.k3) == (6.2e5, 5.3e5, 2.2e5)
        assert (t.b1, t.b2, t.b3) == (650.0, 204.0, 10000.0)

    def test_invalid_rejected(self):
        with pytest.raises(PlantError):
            PlantParams(transmission=TransmissionParams(m1=-1.0))
        with pytest.raises(PlantError):
            PlantParams().with_friction(mu=1.5)
        with pytest.raises(PlantError):
            PlantParams().with_friction(mode="nope")

    def test_dict_round_trip_and_fail_closed(self):
        params = PlantParams().with_friction(mu=0.1)
        again = build_record(PlantParams(), json.loads(json.dumps(asdict(params))), "plant",
                             PlantError)
        assert again == params
        with pytest.raises(PlantError, match=r"^unknown key\(s\) in plant: \['transmision'\]$"):
            build_record(PlantParams(), {"transmision": {}}, "plant", PlantError)
        with pytest.raises(PlantError,
                           match=r"^unknown key\(s\) in plant\.friction: \['bogus'\]$"):
            build_record(PlantParams(), {"friction": {"mu": 0.1, "bogus": 1}}, "plant",
                         PlantError)

    def test_empty_dict_reproduces_defaults(self):
        assert build_record(PlantParams(), {}, "plant", PlantError) == PlantParams()

    def test_hash_stability(self):
        assert PlantParams().content_hash() == PlantParams().content_hash()
        assert PlantParams().content_hash() != \
            PlantParams().with_friction(mu=0.1).content_hash()

    def test_every_numeric_field_is_read(self):
        # a field the model never reads is a knob that silently does nothing
        def model(params):
            ss = build_state_space(params)
            attrs = {k: v for k, v in vars(Plant(params)).items() if k != "params"}
            return [m.tolist() for m in (ss.A, ss.B, ss.C, ss.C_d)], attrs

        base = PlantParams()
        for section in fields(base):
            group = getattr(base, section.name)
            for f in fields(group):
                value = getattr(group, f.name)
                if not isinstance(value, float):
                    continue
                # tau_delay takes whole control ticks, so it moves by one
                moved = value + CONTROL_DT if f.name == "tau_delay" else 1.01 * value
                nudged = replace(base, **{section.name: replace(group, **{f.name: moved})})
                assert any(model(nudged.with_friction(mode=mode)) !=
                           model(base.with_friction(mode=mode)) for mode in FRICTION_MODES), \
                    f"{section.name}.{f.name} changes neither the linear model nor the Plant"

    def test_friction_modes_enumerated(self):
        assert set(FRICTION_MODES) == {"smooth_tanh", "stick_slip_sign", "off"}



class TestPlantState:
    """The actuator's input delay, tau_delay, as run_scenario applies it."""

    def test_delay_buffer_spans_tau(self, plant_inputs):
        # a delay of q ticks: the first command reaches the plant at the first
        # step of tick q, q * CONTROL_DT / sim_dt steps late
        for sim_dt, q in ((1e-4, 3), (1e-4, 1), (5e-5, 1), (2.5e-4, 0)):
            n_delay = q * round(CONTROL_DT / sim_dt)
            sc = Scenario(kind="step", duration=0.01, sim_dt=sim_dt)
            steps, _ = plant_inputs(sc, q)
            assert steps[:n_delay] == [0.0] * n_delay
            assert steps[n_delay] == 1.0

    def test_default_delay_ratios(self, plant_inputs):
        # the default 2 ms delay is 2 ticks: 20 steps at 10 kHz and 40 at 20 kHz
        assert Plant().tau_delay == 2 * CONTROL_DT
        for sim_dt, n_delay in ((1e-4, 20), (5e-5, 40)):
            sc = Scenario(kind="step", duration=0.01, sim_dt=sim_dt)
            steps, _ = plant_inputs(sc)
            assert steps[:n_delay] == [0.0] * n_delay
            assert steps[n_delay] == 1.0
