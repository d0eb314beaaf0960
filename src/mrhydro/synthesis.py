"""Offline gain synthesis: Riccati solver, LQI regulator, Kalman estimator.

All design is done on the continuous-time linear model; controllers
discretize at their own rate.  The Riccati solver certifies every
solution by its residual, independent of the method used to obtain it.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import linalg

from .plant import PlantParams, StateSpace, build_state_space, known_keys, write_json

CARE_RESIDUAL_TOL = 1e-8


class SynthesisError(RuntimeError):
    """Riccati solve failed or produced a non-stabilizing result."""


@dataclass(frozen=True)
class CostWeights:
    """Quadratic-cost weights for the regulator.

    The cost integrand penalizes the tracked slave pressure, the integral
    state and the input force.  rho and rho_i are the published tuning
    values; pressure_scale expresses the pressure-valued terms of the cost
    in units of `pressure_scale` pascal.  The source never states the unit
    system its weights were tuned in; the default scale is calibrated so
    the resulting closed loop reproduces the reported step response and
    bandwidth on the identified model.
    """

    rho: float = 1e-4          # input force penalty
    rho_i: float = 1000.0      # integral-state penalty
    pressure_scale: float = 3e4    # Pa per cost unit for pressure terms

    def validate(self) -> None:
        if self.rho <= 0.0:
            raise SynthesisError("rho must be > 0")
        if self.rho_i < 0.0:
            raise SynthesisError("rho_i must be >= 0")
        if self.pressure_scale <= 0.0:
            raise SynthesisError("pressure_scale must be > 0")


@dataclass(frozen=True)
class NoiseCovariances:
    """Sensor and state covariances driving the Kalman design.

    r_diag covers [x1, v1, x3, P_M]; d_diag shapes the state noise with
    extra weight on the two velocity states for backdriven operation.
    """

    r_diag: tuple = (3.6e-9, 1e-6, 2.5e-11, 5.6e5)
    rho_l: float = 3e-5
    d_diag: tuple = (1.0, 1e5, 1.0, 1.0, 1.0, 1e6, 1.0)

    def __post_init__(self):
        # JSON gives lists; tuples keep the record hashable
        for name in ("r_diag", "d_diag"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def validate(self) -> None:
        if len(self.r_diag) != 4 or any(v <= 0.0 for v in self.r_diag):
            raise SynthesisError("r_diag must be 4 positive entries")
        if self.rho_l < 0.0:
            raise SynthesisError("rho_l must be >= 0")
        if len(self.d_diag) != 7 or any(v < 0.0 for v in self.d_diag):
            raise SynthesisError("d_diag must be 7 non-negative entries")

    def R(self) -> np.ndarray:
        return np.diag(self.r_diag)

    def Q(self) -> np.ndarray:
        return self.rho_l * np.diag(self.d_diag)


@dataclass
class GainSet:
    """Regulator, feedforward and estimator gains with their provenance.

    K is stored in the runtime convention u = -K @ [x_i, x] + K_ff * P_d
    with x_i the integral of (P_d - estimated slave pressure).
    """

    K: np.ndarray                 # (8,)
    K_ff: float
    L: np.ndarray                 # (7, 4)
    weights: CostWeights = field(default_factory=CostWeights)
    noise: NoiseCovariances = field(default_factory=NoiseCovariances)
    plant_hash: str = ""

    @property
    def K_integral(self) -> float:
        return float(self.K[0])

    @property
    def K_x(self) -> np.ndarray:
        return np.asarray(self.K[1:], dtype=float)

    def save(self, path) -> None:
        write_json(path, {
            "K": [float(v) for v in np.ravel(self.K)],
            "K_ff": float(self.K_ff),
            "L": [[float(v) for v in row] for row in np.asarray(self.L)],
            "weights": asdict(self.weights),
            "noise": asdict(self.noise),
            "plant_hash": self.plant_hash,
        })

    @classmethod
    def load(cls, path) -> "GainSet":
        """Read a save() file.  An unknown key at any level, a missing or
        non-object section, or a K or L that is ragged or not shaped for the
        7-state model raises SynthesisError naming the field."""
        with open(path) as fh:
            payload = known_keys(cls, json.load(fh), "gains", SynthesisError)
        missing = [k for k in ("K", "K_ff", "L", "weights", "noise") if k not in payload]
        if missing:
            raise SynthesisError(f"gains lacks {missing}")
        arrays = {}
        for name, shape in (("K", (8,)), ("L", (7, 4))):
            try:
                arrays[name] = np.asarray(payload[name], dtype=float)
            except (TypeError, ValueError) as exc:   # ragged rows, non-numbers
                raise SynthesisError(f"gains.{name} is not a numeric array: {exc}") from None
            if arrays[name].shape != shape:
                raise SynthesisError(f"gains.{name} has shape {arrays[name].shape}, "
                                     f"expected {shape}")
        return cls(
            **arrays,
            K_ff=float(payload["K_ff"]),
            weights=CostWeights(**known_keys(CostWeights, payload["weights"], "gains.weights",
                                             SynthesisError)),
            noise=NoiseCovariances(**known_keys(NoiseCovariances, payload["noise"],
                                                "gains.noise", SynthesisError)),
            plant_hash=payload.get("plant_hash", ""),
        )


def care_residual(A, B, Q, R, P) -> float:
    """Relative residual of A'P + PA - P B R^-1 B' P + Q = 0."""
    G = B @ np.linalg.solve(R, B.T)
    res = A.T @ P + P @ A - P @ G @ P + Q
    return float(np.linalg.norm(res) / max(np.linalg.norm(P), 1e-300))


def solve_care(A, B, Q, R, tol: float = CARE_RESIDUAL_TOL) -> np.ndarray:
    """Stabilizing solution of the continuous algebraic Riccati equation.

    Method: joint (Q, R) rescaling to balance the Hamiltonian blocks, a
    diagonal balancing similarity, an ordered real Schur decomposition of
    the Hamiltonian, then Newton refinement through Lyapunov solves.  The
    returned P is certified to the requested relative residual; failure to
    certify raises instead of returning a doubtful solution.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n or Q.shape != (n, n):
        raise SynthesisError("inconsistent CARE dimensions")
    if np.linalg.norm(R - R.T) > 1e-12 * max(np.linalg.norm(R), 1.0):
        raise SynthesisError("R must be symmetric")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("R must be positive definite") from exc
    if np.linalg.norm(Q - Q.T) > 1e-9 * max(np.linalg.norm(Q), 1.0):
        raise SynthesisError("Q must be symmetric")

    G = B @ np.linalg.solve(R, B.T)
    nq, ng = np.linalg.norm(Q), np.linalg.norm(G)
    scale = math.sqrt(nq / ng) if (nq > 0.0 and ng > 0.0) else 1.0
    Qs = Q / scale
    Gs = G * scale

    H = np.block([[A, -Gs], [-Qs, -A.T]])
    Hb, D = linalg.matrix_balance(H, permute=False, separate=False)
    try:
        _, Z, sdim = linalg.schur(Hb, output="real", sort="lhp")
    except linalg.LinAlgError as exc:
        raise SynthesisError(f"Schur decomposition failed: {exc}") from exc
    if sdim != n:
        raise SynthesisError(
            f"stable invariant subspace has dimension {sdim}, expected {n}; "
            "pair likely not stabilizable/detectable"
        )
    U = D @ Z[:, :n]
    U11, U21 = U[:n, :], U[n:, :]
    try:
        P = np.linalg.solve(U11.T, U21.T).T
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("singular subspace basis; CARE has no solution") from exc
    P = 0.5 * (P + P.T)

    # Newton refinement on the scaled equation
    for _ in range(25):
        res = A.T @ P + P @ A - P @ Gs @ P + Qs
        rel = np.linalg.norm(res) / max(np.linalg.norm(P), 1e-300)
        if rel <= tol:
            break
        Acl = A - Gs @ P
        if np.linalg.eigvals(Acl).real.max() >= 0.0:
            break
        try:
            dP = linalg.solve_continuous_lyapunov(Acl.T, -res)
        except Exception:
            break
        P = 0.5 * ((P + dP) + (P + dP).T)

    P = P * scale
    rel = care_residual(A, B, Q, R, P)
    if not np.isfinite(rel) or rel > tol:
        raise SynthesisError(f"CARE residual {rel:.3e} exceeds tolerance {tol:.1e}")
    return P


def lqi_gains(ss: StateSpace, weights: CostWeights = CostWeights()) -> tuple[np.ndarray, float]:
    """Regulator over the integral-augmented state plus the feedforward gain.

    Returns (K, K_ff) with K shaped (8,) in the runtime convention
    u = -K @ [x_i, x] + K_ff * P_d, x_i integrating (P_d - P_s estimate).
    """
    weights.validate()
    A, B, C_d = ss.A, ss.B, ss.C_d
    n = A.shape[0]
    S = weights.pressure_scale
    A_aug = np.zeros((n + 1, n + 1))
    A_aug[0, 1:] = C_d[0]
    A_aug[1:, 1:] = A
    B_aug = np.zeros((n + 1, 1))
    B_aug[1:, 0] = B[:, 0]
    Q_aug = np.zeros((n + 1, n + 1))
    Q_aug[0, 0] = weights.rho_i / S**2
    Q_aug[1:, 1:] = (C_d.T @ C_d) / S**2
    R = np.array([[weights.rho]])
    P = solve_care(A_aug, B_aug, Q_aug, R)
    K_design = np.linalg.solve(R, B_aug.T @ P)[0]

    ev = np.linalg.eigvals(A_aug - B_aug @ K_design[None, :])
    if ev.real.max() >= 0.0:
        raise SynthesisError("augmented regulator is not stabilizing")

    K_x = K_design[1:]
    Acl = A - B @ K_x[None, :]
    try:
        dc = (C_d @ np.linalg.solve(Acl, B))[0, 0]
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("A - B K_x singular; feedforward undefined") from exc
    if dc == 0.0:
        raise SynthesisError("zero DC path; feedforward undefined")
    K_ff = -1.0 / dc

    # runtime integral state integrates (P_d - P_s_hat), the design state
    # integrates +P_s, so the integral partition flips sign
    K_runtime = np.concatenate(([-K_design[0]], K_x))
    return K_runtime, float(K_ff)


def kalman_gain(ss: StateSpace, noise: NoiseCovariances = NoiseCovariances()) -> np.ndarray:
    """Steady-state estimator gain from the dual Riccati equation."""
    noise.validate()
    A, C = ss.A, ss.C
    R_L = noise.R()
    Q_L = noise.Q()
    P_f = solve_care(A.T, C.T, Q_L, R_L)
    L = P_f @ C.T @ np.linalg.inv(R_L)
    ev = np.linalg.eigvals(A - L @ C)
    if ev.real.max() >= 0.0:
        raise SynthesisError("estimator error dynamics not Hurwitz")
    return L


def synthesize(params: PlantParams = PlantParams(), weights: CostWeights = CostWeights(),
               noise: NoiseCovariances = NoiseCovariances()) -> GainSet:
    """Full gain synthesis for a plant parameter set."""
    ss = build_state_space(params)
    K, K_ff = lqi_gains(ss, weights)
    L = kalman_gain(ss, noise)
    return GainSet(K=K, K_ff=K_ff, L=L, weights=weights, noise=noise,
                   plant_hash=params.content_hash())


def closed_loop_matrix(ss: StateSpace, gains: GainSet) -> np.ndarray:
    """15-state interconnection: plant, estimator and integral error state.

    States ordered [x (7), x_hat (7), x_i]; input is the desired pressure.
    Used for stability certificates and DC-gain checks of the linear loop.
    """
    A, B, C, C_d = ss.A, ss.B, ss.C, ss.C_d
    L = gains.L
    K_x = gains.K_x
    k_i = gains.K_integral
    LC = L @ C
    M = np.zeros((15, 15))
    # u = -k_i x_i - K_x x_hat (+ K_ff P_d handled by the input matrix)
    M[0:7, 0:7] = A
    M[0:7, 7:14] = -B @ K_x[None, :]
    M[0:7, 14] = -B[:, 0] * k_i
    M[7:14, 0:7] = LC
    M[7:14, 7:14] = A - LC - B @ K_x[None, :]
    M[7:14, 14] = -B[:, 0] * k_i
    M[14, 7:14] = -C_d[0]          # d(x_i)/dt = P_d - C_d x_hat
    return M


def closed_loop_input(ss: StateSpace, gains: GainSet) -> np.ndarray:
    """Input column matching closed_loop_matrix, driven by P_d."""
    B = ss.B
    col = np.zeros(15)
    col[0:7] = B[:, 0] * gains.K_ff
    col[7:14] = B[:, 0] * gains.K_ff
    col[14] = 1.0
    return col


def closed_loop_dc_gain(ss: StateSpace, gains: GainSet) -> float:
    """Steady-state slave pressure per unit desired pressure, linear loop."""
    M = closed_loop_matrix(ss, gains)
    b = closed_loop_input(ss, gains)
    x = np.linalg.solve(-M, b)
    return float(ss.C_d[0] @ x[0:7])
