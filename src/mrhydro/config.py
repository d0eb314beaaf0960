"""Layered run configuration with fail-closed parsing.

Precedence: built-in defaults, then the config file, then command-line
flags; the last writer wins.  Unknown keys anywhere are rejected with the
offending key named, so a typo cannot silently fall back to a default.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import partial

from .controllers import (CONTROLLER_NAMES, DitherConfig, PidConfig,
                          PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT)
from .plant import PlantParams, json_hash, known_keys
from .sim import Scenario, delay_steps
from .synthesis import CostWeights, NoiseCovariances, SynthesisError


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything one command needs, resolved and hashable."""

    plant: dict = field(default_factory=dict)       # nested parameter overrides
    controller: str = "open_loop"
    dither: dict = field(default_factory=dict)
    pid_master: dict = field(default_factory=dict)
    pid_slave: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    noise_cov: dict = field(default_factory=dict)
    scenario: dict = field(default_factory=dict)
    output_dir: str = "."
    seed: int = 0

    def __post_init__(self):
        if self.controller not in CONTROLLER_NAMES:
            raise ConfigError(
                f"unknown controller '{self.controller}'; choose from {CONTROLLER_NAMES}")
        # each section's settings check themselves when built
        for section, build in (("plant", self.plant_params), ("dither", self.dither_config),
                               ("pid_master", partial(self.pid_config, "pid_master")),
                               ("pid_slave", partial(self.pid_config, "pid_slave")),
                               ("weights", self.cost_weights),
                               ("noise_cov", self.noise_covariances),
                               ("scenario", self.scenario_for_run),
                               ("plant", self._delay_steps)):
            try:
                build()
            except ConfigError:
                raise   # known_keys already names the section
            except (ValueError, TypeError, SynthesisError) as exc:   # TypeError: "x" for a number
                raise ConfigError(f"{section}: {exc}") from exc

    def plant_params(self) -> PlantParams:
        return PlantParams.from_dict(self.plant)

    def dither_config(self) -> DitherConfig:
        return DitherConfig(**known_keys(DitherConfig, self.dither, "dither", ConfigError))

    def pid_config(self, section: str) -> PidConfig:
        """The pid_master or pid_slave section over its shipped default."""
        default = PID_MASTER_DEFAULT if section == "pid_master" else PID_SLAVE_DEFAULT
        return replace(default, **known_keys(PidConfig, getattr(self, section), section,
                                             ConfigError))

    def cost_weights(self) -> CostWeights:
        return CostWeights(**known_keys(CostWeights, self.weights, "weights", ConfigError))

    def noise_covariances(self) -> NoiseCovariances:
        return NoiseCovariances(**known_keys(NoiseCovariances, self.noise_cov, "noise_cov",
                                             ConfigError))

    def scenario_for_run(self) -> Scenario:
        """The run command's scenario: the scenario section with this controller and seed."""
        return Scenario.from_dict({**self.scenario, "controller": self.controller,
                                   "seed": self.seed})

    def _delay_steps(self) -> int:
        """The clutch delay in whole steps of the run's sim_dt, as run_scenario takes it."""
        return delay_steps(self.plant_params().clutch.tau_delay, self.scenario_for_run().sim_dt)

    def to_dict(self) -> dict:
        return asdict(self)

    def content_hash(self) -> str:
        """Hash of the experiment; where its outputs go is not part of it."""
        return json_hash({k: v for k, v in self.to_dict().items() if k != "output_dir"})


def load_run_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the file, then explicit overrides; all fail-closed."""
    layers: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        layers.update(data)
    if overrides:
        for key, val in overrides.items():
            if isinstance(val, dict) and isinstance(layers.get(key), dict):
                layers[key] = {**layers[key], **val}
            else:
                layers[key] = val
    return RunConfig(**known_keys(RunConfig, layers, "run config", ConfigError))
