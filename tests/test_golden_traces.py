"""Golden traces: every 100th row of every trace column of short seeded runs.

The rows in golden_traces.json pin the values and the column order of the
trace table.  Regenerate them only after an intended change of results:

    PYTHONPATH=src python tests/test_golden_traces.py
"""
import json
from pathlib import Path

import numpy as np
import pytest

from mrhydro.controllers import CONTROLLER_NAMES
from mrhydro.sim import Scenario, backdrive_scenario, run_scenario, step_scenario

GOLDEN = Path(__file__).with_name("golden_traces.json")
STRIDE = 100

RUNS = {f"step_{name}": step_scenario(name, settle=0.2, noise=True, seed=11)
        for name in CONTROLLER_NAMES}
RUNS["backdrive_5hz"] = backdrive_scenario("pid_master", torque_command=10.0,
                                           backdrive_freq=5.0, backdrive_cycles=2)
# the friction compensator in stick-slip friction
RUNS["backdrive_1hz_stick_slip_friction_comp"] = backdrive_scenario(
    "friction_comp", torque_command=10.0, backdrive_freq=1.0, backdrive_cycles=2,
    friction_mode="stick_slip_sign")
# 20 steps of 50 us per 1 ms control tick, the 2 ms clutch delay 40 of them
RUNS["step_pid_master_sim_dt_50us"] = step_scenario("pid_master", settle=0.2, noise=True,
                                                    seed=11, sim_dt=5e-5)


def sampled_columns(sc: Scenario) -> dict:
    tr = run_scenario(sc)
    return {"n_rows": len(tr.t),
            "columns": {h: col[::STRIDE].tolist() for h, col in tr.columns().items()}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", list(RUNS))
def test_run_reproduces_golden_rows(golden, label):
    want = golden[label]
    got = sampled_columns(RUNS[label])
    assert got["n_rows"] == want["n_rows"]
    assert list(got["columns"]) == list(want["columns"])
    for head, values in want["columns"].items():
        np.testing.assert_allclose(got["columns"][head], values, rtol=1e-12, atol=0.0,
                                   err_msg=head)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({label: sampled_columns(sc) for label, sc in RUNS.items()},
                                 indent=1) + "\n")
