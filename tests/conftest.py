import warnings
from dataclasses import replace

import pytest

# hypothesis reports a failing example through hypothesis.extra._patching, whose
# import (through libcst) raises mypy_extensions' TypedDict DeprecationWarning.
# Under filterwarnings = error that turns one failing @given test into an
# INTERNALERROR that ends the session, so import it here with that one warning off.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:   # without libcst hypothesis skips the patch too
        pass

from mrhydro.controllers import Command
from mrhydro.plant import Plant, PlantParams
from mrhydro.sim import Scenario, run_scenario


class _TickCounter:
    """Stub controller commanding force j + 1 at control tick j."""

    def __init__(self, dt: float):
        self.dt = dt
        self.ticks = 0

    def step(self, t, p_desired, meas):
        self.ticks += 1
        return Command(current=0.0, force=float(self.ticks), pressure_cmd=0.0,
                       saturated=False)


def _plant_inputs(sc: Scenario, n_delay: int | None = None):
    """Per-step delayed commands run_scenario feeds the plant, and the trace.

    The controller is a _TickCounter and the plant's rk4_step is replaced by
    a recorder that holds the state, so each call's (i0, n, f) is seen.
    n_delay sets tau_delay in sim_dt steps; None keeps the default 2 ms.
    """
    params = PlantParams()
    if n_delay is not None:
        params = replace(params, clutch=replace(params.clutch, tau_delay=n_delay * sc.sim_dt))
    plant = Plant(params)
    steps = []

    def record(state, dt, f, backdrive=None, i0=0, n=1):
        assert i0 == len(steps), "steps out of order"
        steps.extend([f] * n)
        return state

    plant.rk4_step = record
    trace = run_scenario(sc, plant=plant, controller=_TickCounter(sc.control_dt))
    return steps, trace


@pytest.fixture(scope="session")
def plant_inputs():
    """The _plant_inputs probe of run_scenario's delay line."""
    return _plant_inputs
