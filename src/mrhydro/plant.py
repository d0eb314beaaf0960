"""Physical model of the MR-clutch hydrostatic actuator.

Holds all identified constants (transmission chain, clutch statics and
dynamics, ball-screw friction, geometry), the nonlinear continuous-time
model, and unit conversions between joint torque, line pressure, clutch
torque and coil current.

Everything is SI and reflected at the slave-piston referential.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, is_dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

FRICTION_MODES = ("smooth_tanh", "stick_slip_sign", "off")


class PlantError(ValueError):
    """Invalid parameter set or out-of-range operating point."""


def known_keys(cls, data: dict, where: str, error: type) -> dict:
    """data itself once it is a dict whose keys all name fields of dataclass cls; else error."""
    if not isinstance(data, dict):
        raise error(f"{where} must be an object, got {data!r}")
    bad = set(data) - set(cls.__dataclass_fields__)
    if bad:
        raise error(f"unknown key(s) in {where}: {sorted(bad)}")
    return data


def build_record(default, data: dict, where: str, error: type):
    """default with the fields that JSON object data names replaced; a field whose default
    is itself a record is built over that default the same way.  A non-object or an
    unknown key raises error naming its path; a bad value, the record's own error."""
    known_keys(type(default), data, where, error)
    return replace(default, **{
        name: build_record(getattr(default, name), value, f"{where}.{name}", error)
        if is_dataclass(getattr(default, name)) else value for name, value in data.items()})


def is_real(value) -> bool:
    """A real number that is not a bool: bool is a numbers.Real, and JSON true reads as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# check_numbers' rules: name -> (the test of a value as a float, what its message says)
_RULES = {"positive": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
          "non_negative": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
          "finite": (math.isfinite, "finite"), "fraction": (lambda v: 0.0 <= v < 1.0, "in [0, 1)")}


def checked_float(value, rule: str, name: str, error: type) -> float:
    """value as a float once it is a real number that passes _RULES[rule]; else error naming
    name.  Each test reads like `not low < x < inf`, which NaN and +-inf fail."""
    ok, says = _RULES[rule]
    try:
        number = float(value) if is_real(value) else math.nan
    except OverflowError:   # an int that no float can hold
        raise error(f"{name} must be {says}, got an integer too large for a float") from None
    if not ok(number):
        raise error(f"{name} must be {says}, got {value!r}")
    return number


def check_numbers(obj, error: type, **rules) -> None:
    """Store each field of obj that rules lists (rule=(name, ...)) as its checked_float."""
    for rule, names in rules.items():
        for name in names:
            object.__setattr__(obj, name, checked_float(getattr(obj, name), rule, name, error))


def check_choices(obj, error: type, **choices) -> None:
    """Refuse each field of obj that choices lists (name=(allowed, ...)) unless it is one of
    its allowed values and of the same type, so a flag takes True or False, not 1 or "no"."""
    for name, allowed in choices.items():
        value = getattr(obj, name)
        if not any(type(value) is type(ok) and value == ok for ok in allowed):
            raise error(f"{name} must be one of {allowed}, got {value!r}")


def check_whole(obj, error: type, **lows) -> None:
    """Refuse each field of obj that lows lists (name=least value) but an integer below 2**64."""
    for name, low in lows.items():
        value = getattr(obj, name)
        if not (is_real(value) and isinstance(value, numbers.Integral) and value >= low):
            raise error(f"{name} must be >= {low} and an integer, got {value!r}")
        if value >= 2**64:
            raise error(f"{name} must be below 2**64, got {value.bit_length()} bits")


def write_json(path, record) -> None:
    """Indented, key-sorted JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_hash(record) -> str:
    """First 12 hex digits of the sha256 of the key-sorted JSON."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class TransmissionParams:
    """Three-mass chain: clutch/screw/piston, fluid column, robot structure."""

    m1: float = 11.0      # clutch + ball screw + piston mass [kg]
    m2: float = 7.0       # hydraulic fluid mass [kg]
    m3: float = 976.0     # robot structure + payload mass [kg]
    k1: float = 6.2e5     # power-unit transmission stiffness [N/m]
    k2: float = 5.3e5     # robot-side transmission stiffness [N/m]
    k3: float = 2.2e5     # robot structure + base stiffness [N/m]
    b1: float = 650.0     # clutch + ball screw damping [N.s/m]
    b2: float = 204.0     # hydraulic viscous damping [N.s/m]
    b3: float = 10000.0   # robot + base viscous damping [N.s/m]

    def __post_init__(self):
        check_numbers(self, PlantError, positive=tuple(vars(self)))   # every field


@dataclass(frozen=True)
class MRClutchParams:
    """Static polynomial and first-order-plus-delay dynamics of one clutch."""

    poly_c3: float = -0.015   # [N.m/A^3]
    poly_c2: float = 0.104    # [N.m/A^2]
    poly_c1: float = 0.225    # [N.m/A]
    poly_c0: float = 0.044    # remnant torque at zero current [N.m]
    tau_delay: float = 0.002  # drive + fluid response pure delay [s]
    omega_c: float = TWO_PI * 64.0  # first-order cutoff [rad/s]
    torque_max: float = 2.0   # clutch rating [N.m]
    current_max: float = 3.0  # drive limit [A]

    def __post_init__(self):
        check_numbers(self, PlantError, positive=("omega_c", "torque_max", "current_max"),
                      non_negative=("tau_delay", "poly_c0"),
                      finite=("poly_c3", "poly_c2", "poly_c1"))
        if not all(s > 0.0 for s in self.extreme_slopes()):   # NaN too
            raise PlantError("clutch polynomial not monotone on [0, current_max]")

    def extreme_slopes(self) -> list[float]:
        """The static curve's slope at the points where its least value on [0, current_max]
        lies: both ends, and the slope's own vertex when that is inside."""
        c3, c2, c1 = self.poly_c3, self.poly_c2, self.poly_c1
        at = [0.0, self.current_max]
        if c3 > 0.0 and 0.0 < -c2 / (3.0 * c3) < self.current_max:
            at.append(-c2 / (3.0 * c3))
        return [(3.0 * c3 * i + 2.0 * c2) * i + c1 for i in at]


@dataclass(frozen=True)
class FrictionParams:
    """Ball-screw friction model: pressure-proportional Coulomb level.

    The smooth form uses tanh(n_steepness * v) in place of sign(v).  The
    steepness default is calibrated so an open-loop dwell about 10 N.m
    shows the reported low-frequency phase lag without locking small
    motions (the value is not given in the source data).

    The stick-slip mode realizes sign(v) as a very steep tanh inside the
    integrator: sign_regularization keeps the velocity boundary layer
    resolved at the fixed step so the simulation converges under step
    halving; behavior is indistinguishable from sign(v) above ~1 mm/s.
    """

    mu: float = 0.14            # friction coefficient [-]
    n_steepness: float = 30.0   # tanh transition slope [s/m]
    mode: str = "smooth_tanh"
    sign_regularization: float = 2500.0  # slope realizing sign(v) [s/m]

    def __post_init__(self):
        check_numbers(self, PlantError, fraction=("mu",),
                      positive=("n_steepness", "sign_regularization"))
        check_choices(self, PlantError, mode=FRICTION_MODES)


# Geometry defaults are derived from the hard numbers available: 29 N.m at
# 2310 kPa at the joint, 2 N.m clutch rating, 8 mm screw lead.  Ideal screw
# force at rating F = T * 2*pi/lead sets the master area at max pressure;
# the slave area is taken equal (symmetric line) and the pulley radius then
# follows from the joint torque/pressure pair.
_LEAD_DEFAULT = 0.008
_P_MAX = 2.31e6
_T_JOINT_MAX = 29.0
_AREA_DEFAULT = (MRClutchParams.torque_max * TWO_PI / _LEAD_DEFAULT) / _P_MAX  # ~6.80e-4 m^2
_R_PULLEY_DEFAULT = (_T_JOINT_MAX / _P_MAX) / _AREA_DEFAULT      # ~18.5 mm


@dataclass(frozen=True)
class GeometryParams:
    """Piston areas, pulley radius, screw lead and line pretension."""

    area_master: float = _AREA_DEFAULT   # [m^2]
    area_slave: float = _AREA_DEFAULT    # [m^2]
    r_pulley: float = _R_PULLEY_DEFAULT  # joint pulley radius [m]
    screw_lead: float = _LEAD_DEFAULT    # ball-screw lead [m/rev]
    p_dc: float = 205e3                  # DC pretension pressure [Pa]

    def __post_init__(self):
        check_numbers(self, PlantError, positive=("area_master", "area_slave", "r_pulley",
                                                  "screw_lead"), non_negative=("p_dc",))


@dataclass(frozen=True)
class PlantParams:
    """Complete parameter set; defaults reproduce the identified bench."""

    transmission: TransmissionParams = field(default_factory=TransmissionParams)
    clutch: MRClutchParams = field(default_factory=MRClutchParams)
    friction: FrictionParams = field(default_factory=FrictionParams)
    geometry: GeometryParams = field(default_factory=GeometryParams)

    def content_hash(self) -> str:
        """Short stable hash for provenance records."""
        return json_hash(asdict(self))

    def with_friction(self, **changes) -> "PlantParams":
        return replace(self, friction=replace(self.friction, **changes))


def friction_pressure(mu: float, p_master: float, v1: float, steepness: float) -> float:
    """Ball-screw friction pressure: mu * max(P_M, 0) * tanh(steepness * v1).

    Positive for positive piston speed: the loss the plant subtracts from
    the clutch force, and what a compensator adds to its command.
    """
    # equals max(p_master, 0.0), for -0.0 and NaN too, without the builtin call
    return mu * (0.0 if p_master < 0.0 else p_master) * math.tanh(steepness * v1)


@dataclass(frozen=True)
class StateSpace:
    """Linear design model: x = [x1 v1 x2 v2 x3 v3 F_MR], u = F_MRs.

    Friction and the clutch pure delay are intentionally absent.
    """

    A: np.ndarray    # (7, 7)
    B: np.ndarray    # (7, 1)
    C: np.ndarray    # (4, 7) measurements [x1, v1, x3, P_M]
    C_d: np.ndarray  # (1, 7) tracked output: slave pressure


def build_state_space(params: PlantParams) -> StateSpace:
    """Assemble the seventh-order linear model from the parameter set."""
    t = params.transmission
    g = params.geometry
    wc = params.clutch.omega_c
    k12 = t.k1 + t.k2
    k23 = t.k2 + t.k3
    A = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [-t.k1 / t.m1, -t.b1 / t.m1, t.k1 / t.m1, 0.0, 0.0, 0.0, 1.0 / t.m1],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [t.k1 / t.m2, 0.0, -k12 / t.m2, -t.b2 / t.m2, t.k2 / t.m2, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, t.k2 / t.m3, 0.0, -k23 / t.m3, -t.b3 / t.m3, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -wc],
    ])
    B = np.zeros((7, 1))
    B[6, 0] = wc
    C = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [t.k1 / g.area_master, 0.0, -t.k1 / g.area_master, 0.0, 0.0, 0.0, 0.0],
    ])
    C_d = np.array([[0.0, 0.0, t.k2 / g.area_slave, 0.0, -t.k2 / g.area_slave, 0.0, 0.0]])
    return StateSpace(A=A, B=B, C=C, C_d=C_d)


# gamma_6 = 6u / (1 - 6u), u the unit roundoff of a double
_GAMMA6 = 6.0 * 2.0 ** -53 / (1.0 - 6.0 * 2.0 ** -53)


def _bisection_start_level(c: MRClutchParams) -> int:
    """The level K of the clutch bisection that Plant.current_from_torque may jump to.

    Halving [0, current_max] is exact for K levels while K <= 53 - b, b the bit length of
    the odd part of current_max's significand (and the cell width stays representable), so
    the level-K brackets are the cells [j*w, (j+1)*w], w = current_max / 2**K.  The float
    Horner value of the static curve is within gamma_6 * p~(current_max) of the curve, p~
    having the coefficients' magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., eq. 5.3), plus 2**-1070 * (1 + current_max)**2 for underflow.  While
    the least slope times w exceeds twice that, the float values increase along the cell
    ends, so the bisection reaches the one cell whose ends bracket a torque.  K keeps one
    level in hand for the rounding of this bound itself; 0 means no jump.
    """
    cm = c.current_max
    num, den = cm.as_integer_ratio()
    level = min(53 - (num // (num & -num)).bit_length(), 1075 - den.bit_length())
    p_abs = ((abs(c.poly_c3) * cm + abs(c.poly_c2)) * cm + abs(c.poly_c1)) * cm + c.poly_c0
    err = _GAMMA6 * p_abs + 2.0 ** -1070 * (1.0 + cm) * (1.0 + cm)   # inf, not OverflowError
    s_min = min(c.extreme_slopes())
    while level > 0 and not s_min * cm / 2.0 ** (level + 1) > 2.0 * err:
        level -= 1
    return level


class Plant:
    """Nonlinear continuous-time actuator model plus unit conversions.

    One instance owns one simulation run's state derivative evaluation;
    it holds no mutable state itself, so instances can be shared across
    threads for independent runs.
    """

    def __init__(self, params: PlantParams = PlantParams()):
        self.params = params
        t, c, g = params.transmission, params.clutch, params.geometry
        # scalar attributes for the hot integration loop
        self.k1, self.k2 = t.k1, t.k2
        self.b1, self.b2, self.b3 = t.b1, t.b2, t.b3
        self.k12 = t.k1 + t.k2
        self.k23 = t.k2 + t.k3
        self.inv_m1, self.inv_m2, self.inv_m3 = 1.0 / t.m1, 1.0 / t.m2, 1.0 / t.m3
        self.omega_c = c.omega_c
        self.tau_delay = c.tau_delay
        self.area_master = g.area_master
        self.area_slave = g.area_slave
        self.r_pulley = g.r_pulley
        self.p_dc = g.p_dc
        f = params.friction
        # the configured mode's friction law, picked once for derivative()
        self.mu = 0.0 if f.mode == "off" else f.mu
        self.friction_steepness = (f.sign_regularization if f.mode == "stick_slip_sign"
                                   else f.n_steepness)
        self.force_per_torque = TWO_PI / g.screw_lead   # ideal screw [N per N.m]
        self.force_max = c.torque_max * self.force_per_torque
        # top of the static curve before the rating clamp
        i_max = c.current_max
        self.torque_reach = ((c.poly_c3 * i_max + c.poly_c2) * i_max + c.poly_c1) * i_max \
            + c.poly_c0
        # where current_from_torque may start: a certified bisection level and its cell width
        self.bisect_level = _bisection_start_level(c)
        self.bisect_cell = i_max / 2 ** self.bisect_level

    # ---------------- clutch statics ----------------

    def mr_torque_from_current(self, current: float) -> float:
        """Static clutch torque for a coil current, clamped to the rating."""
        c = self.params.clutch
        if current < 0.0 or current > c.current_max:
            raise PlantError(f"current {current} A outside [0, {c.current_max}]")
        torque = ((c.poly_c3 * current + c.poly_c2) * current + c.poly_c1) * current + c.poly_c0
        return min(max(torque, 0.0), c.torque_max)

    def current_from_torque(self, torque: float) -> tuple[float, bool]:
        """Invert the static curve on its monotone branch.

        Returns (current, saturated).  Torque at or above the rating maps
        to the current delivering the rating, and torque at or above the
        reachable maximum T(current_max) to current_max, both with the
        flag set; torque at or below the remnant maps to zero current.

        The result is the midpoint after 60 halvings of [0, current_max] on
        the float Horner value of the curve.  The halving starts at level
        bisect_level (see _bisection_start_level) when Newton's cell there
        brackets the torque, and stops once the bracket is two adjacent
        floats; both leave the result unchanged.
        """
        c = self.params.clutch
        if not torque >= 0.0:   # NaN too
            raise PlantError(f"torque must be >= 0, got {torque}")
        saturated = False
        if torque >= c.torque_max:
            torque = c.torque_max
            saturated = True
        if torque <= c.poly_c0:
            return 0.0, saturated
        if torque >= self.torque_reach:
            return c.current_max, True
        # the bracket stays inside [0, current_max] and 0 < torque <= torque_max,
        # so the rating clamp of mr_torque_from_current cannot change a comparison
        c3, c2, c1, c0 = c.poly_c3, c.poly_c2, c.poly_c1, c.poly_c0
        lo, hi, steps = 0.0, c.current_max, 60
        if self.bisect_level:
            # Newton from the chord picks a level-K cell, taken only when the curve's float
            # values at its ends bracket the torque, as the bisection's level-K bracket does
            s2, s1 = 3.0 * c3, 2.0 * c2
            x = (torque - c0) / (self.torque_reach - c0) * hi
            for _ in range(4):
                x -= (((c3 * x + c2) * x + c1) * x + c0 - torque) / ((s2 * x + s1) * x + c1)
                if x < 0.0:
                    x = 0.0
                elif x > hi:
                    x = hi
            w = self.bisect_cell
            a = int(x / w) * w
            b = a + w
            if ((c3 * a + c2) * a + c1) * a + c0 < torque <= ((c3 * b + c2) * b + c1) * b + c0:
                lo, hi, steps = a, b, 60 - self.bisect_level
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:   # adjacent floats: no later step moves the bracket
                break
            if ((c3 * mid + c2) * mid + c1) * mid + c0 < torque:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi), saturated

    # ---------------- pressure / torque / force conversions ----------------

    def pressure_from_torque(self, torque: float) -> float:
        """Joint torque -> absolute line pressure (DC pretension added), clamped
        at 0: a single pushing line cannot realize a pressure below it."""
        p = torque / (self.area_slave * self.r_pulley) + self.p_dc
        return 0.0 if p < 0.0 else p

    def torque_from_pressure(self, pressure: float) -> float:
        """Absolute slave pressure -> delivered joint torque."""
        return (pressure - self.p_dc) * self.area_slave * self.r_pulley

    def drive(self, force: float) -> tuple[float, float, bool]:
        """Screw-force request -> (coil current, delivered force, saturated); the request
        is clamped to [0, force_max], and saturated marks a clamped or unreachable one.
        Raises FloatingPointError for a request that is not finite."""
        if not math.isfinite(force):
            raise FloatingPointError(f"non-finite clutch force request {force}")
        current, saturated = self.current_from_torque(
            min(max(force, 0.0), self.force_max) / self.force_per_torque)
        return (current, self.mr_torque_from_current(current) * self.force_per_torque,
                saturated or force < 0.0)

    # ---------------- pressures from a state ----------------

    def master_pressure(self, state) -> float:
        return self.k1 * (state[0] - state[2]) / self.area_master

    def slave_pressure(self, state) -> float:
        return self.k2 * (state[2] - state[4]) / self.area_slave

    # ---------------- dynamics ----------------

    def derivative(self, x1, v1, x2, v2, x3, v3, fmr, f_cmd_delayed: float, motion=None):
        """Time derivative of the 7-state vector (x1, v1, x2, v2, x3, v3, f_mr).

        The state comes as seven floats, so RK4 stages pass theirs without
        building a tuple.  f_cmd_delayed: commanded steady clutch force
        already delayed by tau_delay (the caller owns the delay buffer).
        motion: None for free output, else the prescribed third-mass
        (v3, a3) at this instant; it replaces the m3 dynamics.
        """
        pm = self.k1 * (x1 - x2) / self.area_master
        ff = friction_pressure(self.mu, pm, v1, self.friction_steepness) * self.area_master
        a1 = (-self.k1 * x1 - self.b1 * v1 + self.k1 * x2 + fmr - ff) * self.inv_m1
        a2 = (self.k1 * x1 - self.k12 * x2 - self.b2 * v2 + self.k2 * x3) * self.inv_m2
        if motion is None:
            d_x3 = v3
            a3 = (self.k2 * x2 - self.k23 * x3 - self.b3 * v3) * self.inv_m3
        else:
            d_x3, a3 = motion
        d_fmr = self.omega_c * (f_cmd_delayed - fmr)
        return (v1, a1, v2, a2, d_x3, a3, d_fmr)

    def rk4_step(self, state, dt: float, f_cmd_delayed: float, backdrive=None,
                 i0: int = 0, n: int = 1):
        """Classical fixed-step integration over steps i0 .. i0 + n - 1.

        Step i runs from t = i*dt to t + dt; all n steps see the one held
        delayed command.  backdrive: None for free output, else a callable
        t -> (x3, v3, a3) of t alone, prescribing the third mass.  Each step
        uses its values at t, t + dt/2 and t + dt, taking the one at t from
        the previous step's end when that time is the same float, and the
        returned x3, v3 are its values at t + dt.  Raises FloatingPointError
        when the state reached is not finite.
        """
        deriv = self.derivative
        h = 0.5 * dt
        sixth = dt / 6.0
        m_start = m_mid = m_end = t_end = None
        s0, s1, s2, s3, s4, s5, s6 = state
        for i in range(i0, i0 + n):
            if backdrive is not None:
                t = i * dt
                # equal float times share a sample
                if t == t_end:
                    m_start = m_end
                else:
                    _, v, acc = backdrive(t)
                    m_start = (v, acc)
                _, v, acc = backdrive(t + h)
                m_mid = (v, acc)
                t_end = t + dt
                x3_end, v3_end, acc = backdrive(t_end)
                m_end = (v3_end, acc)
            # a, b, c, d: the four stage slopes k1..k4, component by component
            a0, a1, a2, a3, a4, a5, a6 = deriv(s0, s1, s2, s3, s4, s5, s6, f_cmd_delayed,
                                               m_start)
            b0, b1, b2, b3, b4, b5, b6 = deriv(
                s0 + h * a0, s1 + h * a1, s2 + h * a2, s3 + h * a3, s4 + h * a4, s5 + h * a5,
                s6 + h * a6, f_cmd_delayed, m_mid)
            c0, c1, c2, c3, c4, c5, c6 = deriv(
                s0 + h * b0, s1 + h * b1, s2 + h * b2, s3 + h * b3, s4 + h * b4, s5 + h * b5,
                s6 + h * b6, f_cmd_delayed, m_mid)
            d0, d1, d2, d3, d4, d5, d6 = deriv(
                s0 + dt * c0, s1 + dt * c1, s2 + dt * c2, s3 + dt * c3, s4 + dt * c4,
                s5 + dt * c5, s6 + dt * c6, f_cmd_delayed, m_end)
            s0 += sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
            s1 += sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            s2 += sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
            s3 += sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
            if backdrive is None:
                s4 += sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
                s5 += sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
            else:
                s4, s5 = x3_end, v3_end
            s6 += sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
        out = (s0, s1, s2, s3, s4, s5, s6)
        if not all(map(math.isfinite, out)):
            raise FloatingPointError("non-finite plant state")
        return out
