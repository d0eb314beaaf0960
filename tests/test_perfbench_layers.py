"""The benchmark's traced names still exist in the program.

perfbench/layers.py wraps mrhydro functions and methods by name.
Installing its wrappers and undoing them here makes a renamed traced name
fail this suite, not only a traced benchmark run.
"""
from pathlib import Path

import mrhydro
from mrhydro import analysis, controllers, plant, sim, synthesis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (mrhydro, analysis, controllers, plant, sim, synthesis)


def _bindings() -> dict:
    """Every attribute of the traced modules and of the classes they define."""
    out = {}
    for mod in MODULES:
        for name, obj in vars(mod).items():
            out[mod.__name__, name] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                out.update(((mod.__name__, name, a), v) for a, v in vars(obj).items())
    return out


def test_install_wraps_and_undo_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Patcher, Tracer

    before = _bindings()
    patcher, tr = Patcher(), Tracer()
    try:
        layers.install(patcher, tr)
        wrapped = {k for k, v in _bindings().items() if before.get(k) is not v}
        assert ("mrhydro.plant", "Plant", "rk4_step") in wrapped
        assert ("mrhydro.plant", "Plant", "derivative") in wrapped
        for name in ("pressure_command_frf", "linear_pid_bandwidth", "calibrate_pid_defaults",
                     "lqgi_closed_loop_frf"):
            assert ("mrhydro.controllers", name) in wrapped
        assert ("mrhydro.sim", "run_scenario") in wrapped
        # the wrappers run: one short traced run reaches the plant
        sim.run_scenario(sim.step_scenario("pid_master", pre_hold=0.0, settle=0.01))
        assert tr.aggregate_totals("plant.rk4_step")[0] == 10
        assert tr.span_totals()["controllers.step.pid_master"][0] == 11
    finally:
        patcher.undo()
    after = _bindings()
    assert {k for k in before if after.get(k) is not before[k]} == set()
