import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg

from mrhydro.plant import PlantParams, build_state_space
from mrhydro.synthesis import (CARE_RESIDUAL_TOL, CostWeights, GainSet, NoiseCovariances,
                               SynthesisError, care_residual,
                               closed_loop_dc_gain, closed_loop_matrix,
                               kalman_gain, lqi_gains, solve_care, synthesize)

SQRT2_M1 = math.sqrt(2.0) - 1.0  # root of p^2 + 2p - 1 = 0


ENTRY = st.floats(-2.0, 2.0)


@st.composite
def care_problems(draw):
    """(A, B, Q, R), n <= 6, with Q >= 0, R > 0 and (A, B) stabilizable by
    construction: A = S + B K0 with S Hurwitz, so A - B K0 is."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    M = draw(arrays(float, (n, n), elements=ENTRY))
    S = M - (np.linalg.eigvals(M).real.max() + draw(st.floats(0.1, 2.0))) * np.eye(n)
    B = draw(arrays(float, (n, m), elements=ENTRY))
    K0 = draw(arrays(float, (m, n), elements=ENTRY))
    W = draw(arrays(float, (n, draw(st.integers(0, n))), elements=ENTRY))
    V = draw(arrays(float, (m, m), elements=ENTRY))
    return S + B @ K0, B, W @ W.T, V @ V.T + draw(st.floats(1e-3, 1.0)) * np.eye(m)


@pytest.fixture(scope="module")
def ss():
    return build_state_space(PlantParams())


@pytest.fixture(scope="module")
def gains():
    return synthesize()


class TestSolveCare:
    @settings(max_examples=300, deadline=None)
    @given(care_problems())
    def test_random_stabilizable_pairs_certified(self, problem):
        # either a refusal or a symmetric, certified, stabilizing solution
        A, B, Q, R = problem
        try:
            P = solve_care(A, B, Q, R)
        except SynthesisError:
            return
        assert np.array_equal(P, P.T)
        assert care_residual(A, B, Q, R, P) <= CARE_RESIDUAL_TOL
        assert np.linalg.eigvals(A - B @ np.linalg.solve(R, B.T @ P)).real.max() < 0.0

    def test_scalar_analytic(self):
        # A=-1, B=1, Q=1, R=1: -2P - P^2 + 1 = 0 solved by sqrt(2)-1
        P = solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(SQRT2_M1, abs=1e-10)

    def test_zero_q_with_stable_a(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        P = solve_care(A, np.eye(2), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(P, 0.0, atol=1e-10)

    def test_random_stabilizable_batch(self):
        rng = np.random.default_rng(42)
        t0 = time.time()
        for _ in range(100):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            C = rng.standard_normal((max(1, n // 2), n))
            Q = C.T @ C
            R = np.eye(m) * float(rng.uniform(0.1, 10.0))
            A = A - (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)  # stable A
            P = solve_care(A, B, Q, R)
            assert care_residual(A, B, Q, R, P) <= 1e-8
            assert np.linalg.norm(P - P.T) <= 1e-10 * max(np.linalg.norm(P), 1.0)
        assert time.time() - t0 < 5.0

    def test_badly_scaled_problem(self, ss):
        # the production problem: output weights ~1e17 against rho 1e-4
        w = CostWeights(pressure_scale=1.0)
        A, B, C_d = ss.A, ss.B, ss.C_d
        A_aug = np.zeros((8, 8)); A_aug[0, 1:] = C_d[0]; A_aug[1:, 1:] = A
        B_aug = np.zeros((8, 1)); B_aug[1:, 0] = B[:, 0]
        Q = np.zeros((8, 8)); Q[0, 0] = w.rho_i; Q[1:, 1:] = C_d.T @ C_d
        P = solve_care(A_aug, B_aug, Q, [[w.rho]])
        assert care_residual(A_aug, B_aug, Q, np.array([[w.rho]]), P) <= 1e-8

    def test_indefinite_r_rejected(self):
        with pytest.raises(SynthesisError):
            solve_care([[-1.0]], [[1.0]], [[1.0]], [[-1.0]])

    def test_unstabilizable_rejected(self):
        # unstable mode unreachable by B
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(SynthesisError):
            solve_care(A, B, np.eye(2), [[1.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SynthesisError):
            solve_care(np.eye(3), np.ones((2, 1)), np.eye(3), [[1.0]])

    @pytest.mark.parametrize("Q, R, name", [
        (np.eye(2), [[1.0, 0.5], [0.0, 1.0]], "R"),
        ([[1.0, 1.0], [0.0, 1.0]], np.eye(2), "Q")])
    def test_asymmetric_weight_rejected(self, Q, R, name):
        with pytest.raises(SynthesisError, match=f"^{name} must be symmetric$"):
            solve_care(-np.eye(2), np.eye(2), Q, R)

    @pytest.mark.parametrize("A, B", [([[0.0]], [[1.0]]),
                                      ([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]])])
    def test_imaginary_axis_mode_rejected(self, A, B):
        # with Q = 0 the Hamiltonian keeps A's imaginary-axis eigenvalues, so its
        # stable subspace is not n-dimensional
        n = len(A)
        with pytest.raises(SynthesisError, match=f"dimension 0, expected {n}"):
            solve_care(A, B, np.zeros((n, n)), [[1.0]])


class TestLqiGains:
    def test_dc_tracking_exact(self, ss, gains):
        assert closed_loop_dc_gain(ss, gains) == pytest.approx(1.0, abs=1e-6)

    def test_feedforward_construction(self, ss, gains):
        # K_ff forces unity DC through the state-partition loop alone
        K_x = gains.K_x
        Acl = ss.A - ss.B @ K_x[None, :]
        dc = -(ss.C_d @ np.linalg.solve(Acl, ss.B))[0, 0] * gains.K_ff
        assert dc == pytest.approx(1.0, abs=1e-9)

    def test_cheap_control_limit(self, ss):
        k_small, _ = lqi_gains(ss, CostWeights(rho=1e-4))
        k_large, _ = lqi_gains(ss, CostWeights(rho=1e2))
        assert np.linalg.norm(k_large) < np.linalg.norm(k_small)

    def test_default_closed_loop_well_left_of_axis(self, ss, gains):
        A_aug = np.zeros((8, 8)); A_aug[0, 1:] = -ss.C_d[0]; A_aug[1:, 1:] = ss.A
        B_aug = np.zeros((8, 1)); B_aug[1:, 0] = ss.B[:, 0]
        ev = np.linalg.eigvals(A_aug - B_aug @ gains.K[None, :])
        assert ev.real.max() < -1.0

    def test_invalid_weights_rejected(self, ss):
        with pytest.raises(SynthesisError):
            lqi_gains(ss, CostWeights(rho=0.0))


class TestKalmanGain:
    def test_scalar_sanity(self):
        # dual quadratic: same equation as the regulator case
        from mrhydro.plant import StateSpace
        toy = StateSpace(A=np.array([[-1.0]]), B=np.array([[1.0]]),
                         C=np.array([[1.0]]), C_d=np.array([[1.0]]))
        Pf = solve_care(toy.A.T, toy.C.T, np.eye(1), np.eye(1))
        L = Pf @ toy.C.T
        assert L[0, 0] == pytest.approx(SQRT2_M1, abs=1e-10)

    def test_trust_model_limit(self, ss):
        L_default = kalman_gain(ss)
        L_tiny = kalman_gain(ss, NoiseCovariances(rho_l=1e-15))
        assert np.linalg.norm(L_tiny) < 1e-3 * np.linalg.norm(L_default)

    def test_duality_with_regulator(self, ss):
        nc = NoiseCovariances()
        L = kalman_gain(ss, nc)
        P = solve_care(ss.A.T, ss.C.T, nc.Q(), nc.R())
        K = np.linalg.solve(nc.R(), ss.C @ P)  # regulator on the transposed pair
        assert np.linalg.norm(L - K.T) <= 1e-8 * np.linalg.norm(L)

    def test_estimator_hurwitz(self, ss, gains):
        ev = np.linalg.eigvals(ss.A - gains.L @ ss.C)
        assert ev.real.max() < 0.0

    def test_estimator_converges_on_truth_model(self, ss, gains):
        # continuous observer against the noiseless linear plant
        A, B, C = ss.A, ss.B[:, 0], ss.C
        L = gains.L
        dt = 1e-5
        x = np.array([1e-3, 0.0, -2e-4, 0.0, 1e-4, 0.0, 50.0])
        xh = np.zeros(7)
        err0 = np.linalg.norm(x - xh)
        for k in range(20000):
            u = 300.0
            dx = A @ x + B * u
            dxh = A @ xh + B * u + L @ (C @ x - C @ xh)
            x = x + dt * dx
            xh = xh + dt * dxh
        assert np.linalg.norm(x - xh) < 1e-3 * err0


class TestStabilityCertificates:
    def test_fifteen_state_interconnection_hurwitz(self, ss, gains):
        ev = np.linalg.eigvals(closed_loop_matrix(ss, gains))
        assert ev.real.max() < 0.0

    def test_synthesize_records_provenance(self, gains):
        assert gains.plant_hash == PlantParams().content_hash()


def assert_saved_as_held(gs, path):
    """The save() file holds each gain, the weights, the noise and the provenance as gs does."""
    saved = json.loads(Path(path).read_text())
    assert saved.keys() == {"K", "K_ff", "L", "weights", "noise", "plant_hash"}
    assert np.array_equal(saved["K"], gs.K) and np.array_equal(saved["L"], gs.L)
    assert saved["K_ff"] == gs.K_ff and saved["plant_hash"] == gs.plant_hash
    assert CostWeights(**saved["weights"]) == gs.weights
    assert NoiseCovariances(**saved["noise"]) == gs.noise


class TestGainSetIO:
    def test_save_writes_the_record(self, gains, tmp_path):
        gains.save(tmp_path / "gains.json")
        assert_saved_as_held(gains, tmp_path / "gains.json")

    @settings(max_examples=50, deadline=None)
    @given(K=arrays(float, 8, elements=st.floats(allow_nan=False, allow_infinity=False)),
           K_ff=st.floats(allow_nan=False, allow_infinity=False),
           L=arrays(float, (7, 4), elements=st.floats(allow_nan=False, allow_infinity=False)),
           weights=st.builds(CostWeights, st.floats(1e-12, 1e12), st.floats(0.0, 1e12),
                             st.floats(1e-6, 1e9)),
           noise=st.builds(NoiseCovariances,
                           st.tuples(*[st.floats(1e-15, 1e15)] * 4), st.floats(0.0, 1e6),
                           st.tuples(*[st.floats(0.0, 1e15)] * 7)),
           plant_hash=st.text(max_size=12))
    def test_random_gain_sets_round_trip(self, K, K_ff, L, weights, noise, plant_hash):
        gs = GainSet(K=K, K_ff=K_ff, L=L, weights=weights, noise=noise, plant_hash=plant_hash)
        with tempfile.TemporaryDirectory() as tmp:
            gs.save(Path(tmp) / "gains.json")
            assert_saved_as_held(gs, Path(tmp) / "gains.json")

    def test_save_is_byte_stable(self, gains, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        gains.save(p1)
        gains.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
