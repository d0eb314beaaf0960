"""Layered run configuration with fail-closed parsing.

Precedence: built-in defaults, then the config file, then command-line
flags; the last writer wins.  Unknown keys anywhere are rejected with the
offending key named, so a typo cannot silently fall back to a default.
`RunConfig.save` writes every resolved setting; `load_run_config` reads it back.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cached_property

from .controllers import (CONTROL_DT, CONTROLLER_NAMES, DitherConfig, PidConfig,
                          PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT)
from .plant import PlantParams, build_record, json_hash, known_keys, write_json
from .sim import SCENARIO_READS, Scenario, ScenarioError, delay_steps
from .synthesis import CostWeights, NoiseCovariances, SynthesisError


class ConfigError(ValueError):
    pass


@contextmanager
def _section(name: str):
    """Re-raise a bad value in section `name` as a ConfigError naming it."""
    try:
        yield
    except ConfigError:
        raise   # build_record already names the path
    except (ValueError, TypeError, SynthesisError) as exc:   # TypeError: "x" for a number
        raise ConfigError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything one command needs, resolved and hashable."""

    plant: PlantParams = PlantParams()
    controller: str = "open_loop"
    dither: DitherConfig = DitherConfig()
    pid_master: PidConfig = PID_MASTER_DEFAULT
    pid_slave: PidConfig = PID_SLAVE_DEFAULT
    weights: CostWeights = CostWeights()
    noise_cov: NoiseCovariances = NoiseCovariances()
    scenario: dict = field(default_factory=dict)   # the run command's Scenario fields
    output_dir: str = "."
    seed: int = 0

    def __post_init__(self):
        """The checks no one section makes; each section checked itself when built."""
        for f in fields(self):   # a dict in a settings section's place would fail much later
            if is_dataclass(f.default) and not isinstance(getattr(self, f.name), type(f.default)):
                raise ConfigError(f"{f.name} must be a {type(f.default).__name__}, "
                                  f"got {getattr(self, f.name)!r}")
        if self.controller not in CONTROLLER_NAMES:
            raise ConfigError(
                f"unknown controller '{self.controller}'; choose from {CONTROLLER_NAMES}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a path string, got {self.output_dir!r}")
        with _section("scenario"):
            run = self.scenario_for_run
        # the named keys as resolved, so 6 and 6.0 hash the same and config.json loads back
        object.__setattr__(self, "scenario", {k: getattr(run, k) for k in self.scenario})
        with _section("plant"):   # run_scenario takes the clutch delay in whole control ticks
            delay_steps(self.plant.clutch.tau_delay, CONTROL_DT)

    @cached_property
    def scenario_for_run(self) -> Scenario:
        """The run command's scenario: the scenario section with this controller and seed.
        A key that a run of the section's kind never reads is refused (SCENARIO_READS)."""
        run = build_record(Scenario(controller=self.controller, seed=self.seed), self.scenario,
                           "scenario", ScenarioError)
        for key in ("controller", "seed"):
            if key in self.scenario:
                raise ScenarioError(f"set '{key}' at the top level of the config, "
                                    "not in its scenario section")
        unread = sorted(self.scenario.keys() - set(SCENARIO_READS[run.kind]))
        if unread:   # a key the run never reads would be recorded as if it had been
            raise ScenarioError(f"a {run.kind} run never reads {unread}; remove them")
        return run

    def content_hash(self) -> str:
        """Hash of the resolved experiment; where its outputs go is not part of it."""
        return json_hash({k: v for k, v in asdict(self).items() if k != "output_dir"})

    def save(self, path) -> None:
        """config.json: every resolved setting and the hash, as load_run_config reads it."""
        write_json(path, {**asdict(self), "_hash": self.content_hash()})


def load_run_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the file, then explicit overrides; all fail-closed."""
    layers: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:   # ValueError: bad JSON, UTF-8 or a >4300-digit int
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        data.pop("_hash", None)   # unchecked: layers and edits change it; save re-hashes
        layers.update(data)
    for key, val in (overrides or {}).items():   # a section merges key-wise over the file's
        merge = isinstance(val, dict) and isinstance(layers.get(key), dict)
        layers[key] = {**layers[key], **val} if merge else val
    known_keys(RunConfig, layers, "run config", ConfigError)
    for f in fields(RunConfig):   # each settings section over its shipped default, once
        if f.name in layers and is_dataclass(f.default):
            with _section(f.name):
                layers[f.name] = build_record(f.default, layers[f.name], f.name, ConfigError)
    return RunConfig(**layers)
