"""Torque-fidelity control toolkit for an MR-clutch hydrostatic actuator.

Desk-scale reproduction of a four-way controller benchmark: open-loop
with friction compensation, collocated and non-collocated pressure PID,
and LQGI state feedback, on an identified seventh-order nonlinear model.
"""
from .plant import (FrictionParams, GeometryParams, MRClutchParams, Plant,
                    PlantError, PlantParams, StateSpace, TransmissionParams,
                    build_state_space, friction_pressure)
from .synthesis import (CostWeights, GainSet, NoiseCovariances, SynthesisError,
                        care_residual, closed_loop_dc_gain, closed_loop_matrix,
                        kalman_gain, lqi_gains, solve_care, synthesize)
from .controllers import (Command, ControllerFault, DitherConfig, LqgiController,
                          OpenLoopController, PidConfig, PidController,
                          PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT,
                          calibrate_pid_defaults, dither_signal, make_controller)
from .sim import (BACKDRIVE_AMPLITUDE_1HZ, FRF_GRID_DEFAULT, Scenario,
                  ScenarioError, SimTrace, backdrive_scenario, dwell_scenario,
                  friction_id_scenario, measure_controller_row, measure_evidence,
                  read_trace_csv, run_scenario, step_scenario)
from .analysis import (ComparisonReport, DitherStudy, Evidence, FrfPoint, FrictionIdResult,
                       RowResult, StepMetrics, Verdict, bandwidth, comparison_report,
                       dither_smoothing, frf_from_sine_dwell, identify_friction,
                       step_metrics, torque_deviation, verdicts)
from .config import ConfigError, RunConfig, load_run_config

__version__ = "0.1.0"
