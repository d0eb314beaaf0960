import json
import math
import re
import shlex
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrhydro import analysis, sim
from mrhydro.analysis import REFERENCE_RESULTS
from mrhydro.cli import build_parser, main
from mrhydro.config import ConfigError, RunConfig, load_run_config
from mrhydro.controllers import (PID_MASTER_DEFAULT, PID_SLAVE_DEFAULT, DitherConfig,
                                 make_controller)
from mrhydro.plant import (FRICTION_MODES, FrictionParams, GeometryParams, MRClutchParams,
                           Plant, PlantError, PlantParams, TransmissionParams, build_record)
from mrhydro.synthesis import CostWeights, NoiseCovariances, SynthesisError

# one instance of each frozen settings type, with the error its check raises
SETTINGS = [(TransmissionParams(), PlantError), (MRClutchParams(), PlantError),
            (FrictionParams(), PlantError), (GeometryParams(), PlantError),
            (CostWeights(), SynthesisError), (NoiseCovariances(), SynthesisError),
            (PID_MASTER_DEFAULT, ValueError), (DitherConfig(), ValueError)]

# the settings types and the scenario: every field of each checks itself when built
CHECKED = SETTINGS + [(sim.Scenario(), sim.ScenarioError)]

HUGE_INT = 10**400   # a JSON integer that no float can hold

# the allowed values of each settings field that is a choice
CHOICES = {"mode": FRICTION_MODES, "feedback_tap": ("master", "slave")}


def near(value, name=""):
    """Records like value: each number within 10% of its own, each choice any allowed one."""
    if is_dataclass(value):
        return st.builds(lambda **kw: replace(value, **kw),
                         **{f.name: near(getattr(value, f.name), f.name) for f in fields(value)})
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, str):
        return st.sampled_from(CHOICES[name])
    if isinstance(value, tuple):
        return st.tuples(*map(near, value))
    return st.floats(0.9, 1.1).map(lambda scale: scale * value)


class TestSettingsCheckThemselves:
    @pytest.mark.parametrize("base, error, name, bad", [
        pytest.param(base, error, f.name, bad,
                     id=f"{type(base).__name__}.{f.name}={'10**400' if bad is HUGE_INT else bad}")
        for base, error in CHECKED for f in fields(base)
        if isinstance(getattr(base, f.name), float)
        for bad in (math.nan, math.inf, -math.inf, True, False, HUGE_INT)])
    def test_non_finite_float_refused(self, base, error, name, bad):
        with pytest.raises(error, match=name):
            replace(base, **{name: bad})

    @pytest.mark.parametrize("base, error, name, bad", [
        pytest.param(base, error, f.name, bad, id=f"{type(base).__name__}.{f.name}={bad!r}")
        for base, error in CHECKED for f in fields(base)
        if not isinstance(getattr(base, f.name), float)
        # "x", and a value of the wrong type: 1 for a flag, True for anything else
        for bad in ("x", 1 if isinstance(getattr(base, f.name), bool) else True)])
    def test_wrong_type_refused(self, base, error, name, bad):
        # every field has a rule, so one added without one fails here
        with pytest.raises(error, match=name):
            replace(base, **{name: bad})

    @pytest.mark.parametrize("changes, name", [
        ({"r_diag": 5}, "r_diag"), ({"r_diag": (1.0, 1.0, 1.0)}, "r_diag"),
        ({"r_diag": (1.0, 1.0, math.nan, 1.0)}, "r_diag"),
        ({"d_diag": (1.0,) * 6 + (math.inf,)}, "d_diag"), ({"d_diag": "1234567"}, "d_diag"),
        ({"r_diag": (True, 1.0, 1.0, 1.0)}, "r_diag"), ({"d_diag": (1.0,) * 6 + (False,)}, "d_diag"),
        ({"r_diag": (HUGE_INT, 1.0, 1.0, 1.0)}, "r_diag"),
        ({"d_diag": (1.0,) * 6 + (HUGE_INT,)}, "d_diag")])
    def test_noise_diagonals_checked(self, changes, name):
        with pytest.raises(SynthesisError, match=name):
            NoiseCovariances(**changes)

    @pytest.mark.parametrize("config, command, section", [
        ({"weights": {"rho": "x"}}, "synth", "weights"),
        ({"plant": {"transmission": {"m1": math.nan}}}, "synth", "plant"),
        ({"weights": {"rho": math.nan}}, "synth", "weights"),
        ({"noise_cov": {"r_diag": 5}}, "synth", "noise_cov"),
        ({"pid_master": {"ki": math.nan}}, "synth", "pid_master"),
        ({"plant": {"geometry": {"p_dc": math.inf}}}, "synth", "plant"),
        ({"dither": {"frequency": math.nan}}, "synth", "dither"),
        ({"scenario": {"kind": "waltz"}}, "run", "scenario"),
        ({"scenario": {"kind": "chirp"}}, "run", "scenario"),
        ({"scenario": {"chirp_f1": 100.0}}, "run", "scenario"),
        ({"weights": {"rho": True}}, "synth", "weights"),
        ({"seed": True}, "run", "scenario"),
        ({"weights": {"rho": HUGE_INT}}, "synth", "weights"),
        ({"noise_cov": {"r_diag": [HUGE_INT, 1.0, 1.0, 1.0]}}, "frf", "noise_cov"),
        ({"pid_master": {"kp": HUGE_INT}}, "report", "pid_master"),
        ({"plant": {"friction": {"mu": HUGE_INT}}}, "synth", "plant"),
        ({"scenario": {"torque_amplitude": HUGE_INT}}, "run", "scenario"),
        ({"seed": HUGE_INT}, "run", "scenario"),
        ({"seed": 2**64}, "synth", "scenario"),
        ({"dither": {"enabled": "no"}}, "synth", "dither"),
        ({"scenario": {"noise": "no"}}, "run", "scenario"),
        ({"scenario": {"friction_mode": "sticky"}}, "run", "scenario"),
        ({"scenario": {"kind": "backdrive", "backdrive_cycles": 2.5}}, "run", "scenario"),
        # frequencies the 1 kHz loop cannot sample
        ({"dither": {"frequency": 500.0}}, "synth", "dither"),
        ({"dither": {"frequency": 1000.0}}, "run", "dither"),
        ({"dither": {"frequency": 1150.0}}, "report", "dither"),
        ({"scenario": {"kind": "sine_dwell", "freq_hz": 500.0}}, "run", "scenario"),
        # keys a run of the section's kind never reads
        ({"scenario": {"kind": "step", "backdrive_freq": 5.0}}, "run", "scenario"),
        ({"scenario": {"kind": "sine_dwell", "pre_hold": 3.0, "backdrive_cycles": 9}},
         "run", "scenario"),
        ({"scenario": {"kind": "backdrive", "torque_amplitude": 3.0}}, "run", "scenario"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_bad_setting_is_a_config_error(self, tmp_path, capsys, config, command, section):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), command, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("default, error", SETTINGS + [(PlantParams(), PlantError)],
                             ids=lambda v: type(v).__name__ if is_dataclass(v) else None)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_json_round_trip(self, default, error, data):
        record = data.draw(near(default))
        text = json.dumps(asdict(record))
        assert build_record(default, json.loads(text), "section", error) == record


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        assert cfg.controller == "open_loop"
        assert cfg.plant == PlantParams() and cfg.pid_master == PID_MASTER_DEFAULT
        assert load_run_config() == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="controler"):
            load_run_config(overrides={"controler": "lqgi"})

    def test_unknown_nested_keys_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config(overrides={"plant": {"friction": {"bogus": 1}}})
        with pytest.raises(ConfigError, match="slope"):
            load_run_config(overrides={"dither": {"slope": 0.1}})
        # the controllers run at the one CONTROL_DT: a scenario sets no loop rate
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in scenario: \['control_dt'\]$"):
            load_run_config(overrides={"scenario": {"control_dt": 1e-3}})

    @pytest.mark.parametrize("section", ["pid_master", "pid_slave"])
    def test_unknown_pid_key_named(self, section):
        with pytest.raises(ConfigError, match=rf"^unknown key\(s\) in {section}: \['kq'\]$"):
            load_run_config(overrides={section: {"kq": 1.0}})

    @pytest.mark.parametrize("section", [{"dither": 5}, {"plant": {"clutch": [1.0]}}])
    def test_non_object_section_named(self, section):
        with pytest.raises(ConfigError, match="must be an object, got "):
            load_run_config(overrides=section)

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigError, match="pid_elbow"):
            load_run_config(overrides={"controller": "pid_elbow"})
        with pytest.raises(ConfigError, match="pid_elbow"):
            RunConfig(controller="pid_elbow")
        with pytest.raises(ValueError, match=r"^unknown controller 'pid_elbow'; choose from "):
            make_controller("pid_elbow", Plant())

    def test_layering_file_then_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"controller": "pid_slave", "seed": 7,
                                    "weights": {"rho": 2e-4}}))
        cfg = load_run_config(str(path), overrides={"seed": 9,
                                                    "weights": {"rho_i": 500.0}})
        assert cfg.controller == "pid_slave"
        assert cfg.seed == 9
        # nested dicts merge key-wise, over the shipped default
        assert cfg.weights == CostWeights(rho=2e-4, rho_i=500.0)

    def test_hash_reflects_content(self):
        assert RunConfig().content_hash() == RunConfig().content_hash()
        assert RunConfig().content_hash() != RunConfig(seed=1).content_hash()

    def test_hash_covers_resolved_values(self):
        # one experiment, one hash: spelling out a default changes nothing
        spelled = load_run_config(overrides={"weights": {"rho": CostWeights().rho},
                                             "pid_master": {"ki": PID_MASTER_DEFAULT.ki}})
        assert spelled == load_run_config()
        assert spelled.content_hash() == load_run_config().content_hash()

    @pytest.mark.parametrize("ints, floats", [
        ({"weights": {"rho_i": 1000}}, {"weights": {"rho_i": 1000.0}}),
        ({"plant": {"friction": {"mu": 0}}}, {"plant": {"friction": {"mu": 0.0}}}),
        ({"noise_cov": {"d_diag": [1, 100000, 1, 1, 1, 1000000, 1]}},
         {"noise_cov": {"d_diag": [1.0, 1e5, 1.0, 1.0, 1.0, 1e6, 1.0]}}),
        ({"scenario": {"torque_amplitude": 6}}, {"scenario": {"torque_amplitude": 6.0}}),
    ], ids=["rho_i", "mu", "d_diag", "torque_amplitude"])
    def test_integer_spelling_hashes_as_its_float(self, tmp_path, ints, floats):
        as_ints, as_floats = load_run_config(overrides=ints), load_run_config(overrides=floats)
        assert as_ints == as_floats
        assert as_ints.content_hash() == as_floats.content_hash()
        saved = []   # one output directory, since config.json records it
        for config in (ints, floats):
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            assert main(["--config", str(tmp_path / "cfg.json"), "run",
                         "--out-dir", str(tmp_path / "out")]) == 0
            saved.append((tmp_path / "out" / "config.json").read_bytes())
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)
                                      if is_dataclass(f.default)])
    def test_dict_section_refused(self, name):
        # the dict would otherwise fail far from here, e.g. deep inside synthesize
        with pytest.raises(ConfigError, match=rf"^{name} must be a [A-Za-z]+, got \{{"):
            RunConfig(**{name: asdict(getattr(RunConfig(), name))})

    def test_hash_ignores_output_dir(self):
        here = load_run_config(overrides={"output_dir": "a"})
        there = load_run_config(overrides={"output_dir": "b/c"})
        assert here.content_hash() == there.content_hash()
        assert there.output_dir == "b/c"

    def test_pid_overrides_merge_with_defaults(self):
        cfg = load_run_config(overrides={"pid_master": {"ki": 55.0}})
        assert cfg.pid_master.ki == 55.0 and cfg.pid_master.kd == 1.0e-3
        assert cfg.pid_slave == PID_SLAVE_DEFAULT


class TestCliSynth:
    def test_writes_gains_and_certificates(self, tmp_path, capsys):
        rc = main(["synth", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Hurwitz" in out and "gain margins" in out
        assert (tmp_path / "gains.json").exists()
        assert (tmp_path / "config.json").exists()

    def test_cheap_control_trend_via_config(self, tmp_path, capsys):
        base = tmp_path / "base"
        expensive = tmp_path / "exp"
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"weights": {"rho": 1e-2}}))
        assert main(["synth", "--out-dir", str(base)]) == 0
        norm_base = float(capsys.readouterr().out.split("|K| = ")[1].split(",")[0])
        assert main(["--config", str(cfgfile), "synth", "--out-dir", str(expensive)]) == 0
        norm_exp = float(capsys.readouterr().out.split("|K| = ")[1].split(",")[0])
        assert norm_exp < norm_base

    def test_corrupted_config_names_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"scenari": {}}))
        rc = main(["--config", str(cfgfile), "synth", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "scenari" in capsys.readouterr().err
        cfgfile.write_text(json.dumps([{"seed": 1}]))
        rc = main(["--config", str(cfgfile), "synth", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "config error: config file must hold a JSON object\n"


    @pytest.mark.parametrize("content", [None, b"{\"seed\": 1,", b"\xff\xfe{}",
                                         b"{\"seed\": " + b"1" * 4301 + b"}"],
                             ids=["missing", "malformed", "not-utf8", "4301-digit-int"])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, content):
        cfgfile = tmp_path / "cfg.json"
        if content is not None:
            cfgfile.write_bytes(content)
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "synth", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfgfile}: ")
        assert "Traceback" not in err
        assert not out.exists()


class TestCliRun:
    def test_step_run_reproducible(self, tmp_path):
        args = ["run", "--kind", "step", "--controller", "open_loop",
                "--seed", "3", "--amplitude", "6.0"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        f1 = d1 / "trace_step_open_loop_seed3.csv"
        f2 = d2 / "trace_step_open_loop_seed3.csv"
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_kind_refused_by_the_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--kind", "chirp", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice: 'chirp'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        rc = main(["run", "--seed", "-1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: scenario: seed must be >= 0")

    @pytest.mark.parametrize("key, value", [("controller", "lqgi"), ("seed", 5)])
    def test_scenario_section_refuses_top_level_keys(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": {key: value, "noise": True}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "run", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: scenario: set '{key}' at the top level of the config, "
            "not in its scenario section\n")
        assert not out.exists()

    def test_flags_a_kind_never_reads_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--kind", "step", "--freq", "5", "--cmd-torque", "7",
                   "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: scenario: a step run never reads "
            "['backdrive_freq', 'torque_command']; remove them\n")
        assert not out.exists()

    def test_fractional_delay_refused_before_the_run(self, tmp_path, capsys):
        # 1.5 ms is 1.5 control ticks of 1 ms, though 15 steps of the 0.1 ms sim_dt
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"plant": {"clutch": {"tau_delay": 0.0015}}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "run", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: plant: tau_delay 0.0015 s is not a whole number of 0.001 s steps")
        assert not out.exists()

    def test_backdrive_flags(self, tmp_path):
        rc = main(["run", "--kind", "backdrive", "--controller", "open_loop",
                   "--freq", "1.0", "--cmd-torque", "0.0",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "trace_backdrive_open_loop_seed0.csv"
        assert path.exists()
        meta = json.loads((str(path) + ".meta.json" and
                           (tmp_path / "trace_backdrive_open_loop_seed0.csv.meta.json")
                           ).read_text())
        assert meta["scenario"]["friction_mode"] == "stick_slip_sign"

    def test_nan_dither_aborts(self, tmp_path, capsys):
        # JSON reads NaN; the dither refuses it before any run starts
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"controller": "pid_master",
                                       "dither": {"frequency": float("nan")}}))
        out = tmp_path / "out"
        rc = main(["--config", str(cfgfile), "run", "--kind", "step", "--out-dir", str(out)])
        assert rc == 2
        assert "config error: dither: frequency must be finite and > 0, got nan" in \
            capsys.readouterr().err
        assert not out.exists()


class TestCliFrf:
    def test_two_point_sweep(self, tmp_path, capsys):
        rc = main(["frf", "--controller", "open_loop", "--freqs", "5", "10",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "frf_open_loop.csv").read_text().splitlines()
        assert lines[0].startswith("frequency [Hz]")
        assert len(lines) == 3
        assert "bandwidth" in capsys.readouterr().out

    def test_out_of_range_frequency_is_an_error(self, tmp_path, capsys):
        rc = main(["frf", "--freqs", "300", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(0, 200] Hz" in err

    def test_aborted_dwell_fails_closed(self, tmp_path, capsys):
        # a stiff enough transmission blows up every dwell; no FRF may be scored from it
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"plant": {"transmission": {"k1": 1e11}}}))
        out = tmp_path / "out"
        rc = main(["--config", str(cfgfile), "frf", "--freqs", "5", "10",
                   "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run dwell_5hz_open_loop aborted: ")
        assert not list(out.glob("frf_*.csv"))

    @pytest.mark.parametrize("freqs", [["100", "50"], ["50"]])
    def test_unusable_grid_rejected_before_any_dwell(self, tmp_path, capsys, monkeypatch, freqs):
        monkeypatch.setattr(sim, "run_scenario", lambda *a, **kw: pytest.fail("dwell ran"))
        rc = main(["frf", "--freqs", *freqs, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


def reference_row(name, **kw):
    return REFERENCE_RESULTS[name]


def not_measured(*args, **kw):
    pytest.fail("report measured the model evidence")


def no_run(*args, **kw):
    pytest.fail("a run started")


class TestCliReport:
    def test_single_row_subset(self, tmp_path, capsys, monkeypatch):
        # the report layout only; the acceptance suite measures real rows
        measured = []
        trace = sim.run_scenario(sim.Scenario(duration=0.005))

        def fake_row(name, **kw):
            measured.append(name)
            kw["trace_hook"](f"step_{name}", trace)
            kw["trace_hook"](f"frf_{name}", [])
            return reference_row(name)

        monkeypatch.setattr(sim, "measure_controller_row", fake_row)
        monkeypatch.setattr(sim, "run_scenario", no_run)   # a subset measures no model evidence
        rc = main(["report", "--only", "open_loop", "--out-dir", str(tmp_path)])
        assert rc == 0 and measured == ["open_loop"]
        # one progress line per file the hook writes
        out = capsys.readouterr().out
        assert re.search(r"^  wrote frf_open_loop\.csv \(\d+ s elapsed\)$", out, re.MULTILINE)
        assert (tmp_path / "frf_open_loop.csv").read_text().startswith("frequency [Hz],")
        assert re.search(r"^  wrote step_open_loop\.csv \(\d+ s elapsed\)$", out, re.MULTILINE)
        again = sim.read_trace_csv(tmp_path / "step_open_loop.csv")
        assert again.table.shape == trace.table.shape == (6, 22)
        assert np.array_equal(again.table, trace.table)
        text = (tmp_path / "comparison.txt").read_text()
        assert "Open-loop (baseline)" in text
        assert "row absent" in text  # other rows not measured
        assert "[FAIL] lqgi." not in text
        csv = (tmp_path / "comparison.csv").read_text()
        assert csv.splitlines()[0] == "controller,metric,measured,reference"
        # criterion 5 reads the open-loop row alone; every other one is not measured
        lines = (tmp_path / "verdicts.txt").read_text().splitlines()
        assert len(lines) == 12
        assert lines[4].startswith("ACCEPTANCE 5 (open-loop baseline step): PASS -- bandwidth 25.0")
        assert all(line.endswith("): not measured") for line in lines[:4] + lines[5:])

    def test_full_report_writes_every_verdict(self, tmp_path, monkeypatch):
        # stubbed rows and model evidence: the report writes what analysis.verdicts judges,
        # measured on the config's controller settings and seed
        seen = []

        def fake_evidence(names, plant, gains, dither, pid_master, pid_slave, seed, trace_hook):
            assert dither == DitherConfig(amplitude_slope=0.4) and seed == 5
            assert pid_master == PID_MASTER_DEFAULT and pid_slave == PID_SLAVE_DEFAULT
            seen.append(analysis.Evidence(
                {name: reference_row(name) for name in names}, 20.0,
                analysis.CareBatch(1e-17, 1e-14, 0.1),
                analysis.LinearLoop(gains.weights, gains.noise, 1.0, -5.0),
                analysis.FrictionIdResult(0.145, 0.999, 58, 0.0),
                analysis.PidDesign(11.0, 3.0, 10.0, 8.0, 1.0),
                analysis.DitherStudy(3e5, 1e5, 2e4, 2e3, 150.0),
                analysis.StepHalving(1e-5, True)))
            return seen[-1]

        monkeypatch.setattr(sim, "measure_controller_row", reference_row)
        monkeypatch.setattr(sim, "run_scenario", no_run)
        monkeypatch.setattr(sim, "measure_evidence", fake_evidence)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"dither": {"amplitude_slope": 0.4}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), "report", "--seed", "5", "--out-dir", str(out)]) == 0
        assert list(seen[0].rows) == list(REFERENCE_RESULTS)
        lines = (out / "verdicts.txt").read_text().splitlines()
        assert lines == [v.line() for v in analysis.verdicts(seen[0])]
        assert [line.split(" (")[0] for line in lines] == [
            f"ACCEPTANCE {n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 9, 10)]
        assert all(": PASS -- " in line for line in lines)

    @pytest.mark.parametrize("only, named", [("open_loop,nope", "['nope']"), ("", "['']")])
    def test_unknown_subset_rejected(self, tmp_path, capsys, monkeypatch, only, named):
        monkeypatch.setattr(sim, "measure_controller_row",
                            lambda name, **kw: pytest.fail("report measured a row"))
        monkeypatch.setattr(sim, "measure_evidence", not_measured)
        out = tmp_path / "out"
        rc = main(["report", "--only", only, "--out-dir", str(out)])
        assert rc == 2
        assert f"unknown controller(s) in --only: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_section_rejected(self, tmp_path, capsys, monkeypatch):
        # the matrix runs fixed scenarios; an override would be silently dropped
        monkeypatch.setattr(sim, "measure_controller_row",
                            lambda name, **kw: pytest.fail("report measured a row"))
        monkeypatch.setattr(sim, "measure_evidence", not_measured)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": {"backdrive_freq": 2.0}}))
        out = tmp_path / "out"
        rc = main(["--config", str(cfgfile), "report", "--out-dir", str(out)])
        assert rc == 2
        assert "backdrive_freq" in capsys.readouterr().err
        assert not out.exists()


class TestReadme:
    def test_library_example_prints_every_verdict(self, monkeypatch, capsys):
        # README's "Library example" runs as written, its rows stubbed to the reference rows
        text = (Path(__file__).parents[1] / "README.md").read_text()
        code = text.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1]
        monkeypatch.setattr(sim, "measure_controller_row", reference_row)
        exec(code.split("\n```", 1)[0], {})
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("ACCEPTANCE ")]
        assert len(lines) == 12
        # criteria 5 and 6 are judged from the two rows; the rest are not measured
        assert [i for i, line in enumerate(lines) if not line.endswith("not measured")] == [4, 5]

    def test_command_lines_parse(self):
        # each line of README's "Command line" block names commands and flags the parser knows
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines()]
        assert lines and all(line.startswith("mrhydro ") for line in lines)
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])


class TestCliEntry:
    @pytest.mark.parametrize("command", ["synth", "frf"])
    def test_scenario_section_rejected(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(sim, "run_scenario", lambda *a, **kw: pytest.fail("a run started"))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": {"torque_amplitude": 3.0}}))
        out = tmp_path / "out"
        rc = main(["--config", str(cfgfile), command, "--out-dir", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{command} ignores scenario key(s) ['torque_amplitude']" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "frf", "report", "synth"])
    @pytest.mark.parametrize("seed", [1.5, 1e30])
    def test_non_integer_seed_is_an_error(self, tmp_path, capsys, command, seed):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": seed}))
        out = tmp_path / "out"
        assert main(["--config", str(cfgfile), command, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: scenario: seed must be >= 0 and an integer, got {seed!r}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["synth"],
        ["run", "--kind", "step", "--seed", "2"],
        ["frf", "--freqs", "50", "100"],
        ["report", "--only", "open_loop"],
    ], ids=lambda argv: argv[0])
    def test_every_command_writes_config(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(sim, "measure_controller_row", reference_row)
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        cfg = load_run_config(str(out / "config.json"))
        assert echo["_hash"] == cfg.content_hash()
        assert echo["output_dir"] == str(out)
        assert echo["seed"] == (2 if argv[0] == "run" else 0)

    @pytest.mark.parametrize("argv", [
        ["synth"],
        ["run", "--kind", "step", "--controller", "lqgi", "--seed", "2"],
        ["frf", "--freqs", "50", "100"],
        ["report", "--only", "open_loop"],
    ], ids=lambda argv: argv[0])
    def test_config_json_reloads(self, tmp_path, monkeypatch, argv):
        # an output directory's config.json reproduces its run through --config
        monkeypatch.setattr(sim, "measure_controller_row", reference_row)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"weights": {"rho": 2e-4}}))
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["--config", str(cfgfile)] + argv + ["--out-dir", str(first)]) == 0
        assert main(["--config", str(first / "config.json"), argv[0]] + argv[1:]
                    + ["--out-dir", str(again)]) == 0
        hashes = [json.loads((d / "config.json").read_text())["_hash"] for d in (first, again)]
        assert hashes[0] == hashes[1]
        if argv[0] == "run":
            name = "trace_step_lqgi_seed2.csv"
            assert (first / name).read_bytes() == (again / name).read_bytes()

    @pytest.mark.parametrize("command", ["synth", "run", "frf", "report"])
    def test_non_string_output_dir_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                     command):
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"output_dir": 5}))
        assert main(["--config", str(cfgfile), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir must be a path string, got 5")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
