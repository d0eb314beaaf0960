"""Layered run configuration with fail-closed parsing.

Precedence: built-in defaults, then the config file, then command-line
flags; the last writer wins.  Unknown keys anywhere are rejected with the
offending key named, so a typo cannot silently fall back to a default.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from .controllers import (CONTROLLER_NAMES, DitherConfig, PidConfig,
                          PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT)
from .plant import PlantParams, json_hash, known_keys
from .synthesis import CostWeights, NoiseCovariances


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

    def validate(self) -> None:
        if self.controller not in CONTROLLER_NAMES:
            raise ConfigError(
                f"unknown controller '{self.controller}'; choose from {CONTROLLER_NAMES}")
        # building each section performs its own fail-closed check
        self.plant_params()
        self.dither_config()
        self.pid_configs()
        self.cost_weights()
        self.noise_covariances()

    def plant_params(self) -> PlantParams:
        try:
            return PlantParams.from_dict(self.plant)
        except Exception as exc:
            raise ConfigError(str(exc)) from exc

    def dither_config(self) -> DitherConfig:
        return DitherConfig(**known_keys(DitherConfig, self.dither, "dither", ConfigError))

    def pid_configs(self) -> tuple[PidConfig, PidConfig]:
        master = known_keys(PidConfig, self.pid_master, "pid_master", ConfigError)
        slave = known_keys(PidConfig, self.pid_slave, "pid_slave", ConfigError)
        return replace(PID_MASTER_DEFAULT, **master), replace(PID_SLAVE_DEFAULT, **slave)

    def cost_weights(self) -> CostWeights:
        return CostWeights(**known_keys(CostWeights, self.weights, "weights", ConfigError))

    def noise_covariances(self) -> NoiseCovariances:
        return NoiseCovariances(**known_keys(NoiseCovariances, self.noise_cov, "noise_cov",
                                             ConfigError))

    def to_dict(self) -> dict:
        return asdict(self)

    def content_hash(self) -> str:
        """Hash of the experiment; where its outputs go is not part of it."""
        return json_hash({k: v for k, v in self.to_dict().items() if k != "output_dir"})


def load_run_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the file, then explicit overrides; all fail-closed."""
    layers: dict = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        layers.update(data)
    if overrides:
        for key, val in overrides.items():
            if isinstance(val, dict) and isinstance(layers.get(key), dict):
                layers[key] = {**layers[key], **val}
            else:
                layers[key] = val
    cfg = RunConfig(**known_keys(RunConfig, layers, "run config", ConfigError))
    cfg.validate()
    return cfg
