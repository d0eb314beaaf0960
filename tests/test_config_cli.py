import json

import pytest

from mrhydro import sim
from mrhydro.analysis import REFERENCE_RESULTS, RowResult
from mrhydro.cli import main
from mrhydro.config import ConfigError, RunConfig, load_run_config


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.controller == "open_loop"
        assert cfg.plant_params().content_hash()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="controler"):
            load_run_config(overrides={"controler": "lqgi"})

    def test_unknown_nested_keys_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig(plant={"friction": {"bogus": 1}}).validate()
        with pytest.raises(ConfigError, match="slope"):
            RunConfig(dither={"slope": 0.1}).validate()

    @pytest.mark.parametrize("section", ["pid_master", "pid_slave"])
    def test_unknown_pid_key_named(self, section):
        with pytest.raises(ConfigError, match=rf"^unknown key\(s\) in {section}: \['kq'\]$"):
            RunConfig(**{section: {"kq": 1.0}}).validate()

    @pytest.mark.parametrize("section", [{"dither": 5}, {"plant": {"clutch": [1.0]}}])
    def test_non_object_section_named(self, section):
        with pytest.raises(ConfigError, match="must be an object, got "):
            RunConfig(**section).validate()

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigError, match="pid_elbow"):
            RunConfig(controller="pid_elbow").validate()

    def test_layering_file_then_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"controller": "pid_slave", "seed": 7,
                                    "weights": {"rho": 2e-4}}))
        cfg = load_run_config(str(path), overrides={"seed": 9,
                                                    "weights": {"rho_i": 500.0}})
        assert cfg.controller == "pid_slave"
        assert cfg.seed == 9
        # nested dicts merge key-wise
        assert cfg.weights == {"rho": 2e-4, "rho_i": 500.0}

    def test_hash_reflects_content(self):
        assert RunConfig().content_hash() == RunConfig().content_hash()
        assert RunConfig().content_hash() != RunConfig(seed=1).content_hash()

    def test_hash_ignores_output_dir(self):
        here, there = RunConfig(output_dir="a"), RunConfig(output_dir="b/c")
        assert here.content_hash() == there.content_hash()
        assert there.to_dict()["output_dir"] == "b/c"

    def test_pid_overrides_merge_with_defaults(self):
        cfg = RunConfig(pid_master={"ki": 55.0})
        master, slave = cfg.pid_configs()
        assert master.ki == 55.0 and master.kd == 1.0e-3
        assert slave.ki == 19.0


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

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        rc = main(["run", "--seed", "-1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

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
        # JSON reads NaN; a NaN clutch command must abort the run, not drive ~0 A to its end
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"controller": "pid_master",
                                       "dither": {"frequency": float("nan")}}))
        rc = main(["--config", str(cfgfile), "run", "--kind", "step",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "aborted: FloatingPointError" in capsys.readouterr().out
        meta = json.loads((tmp_path / "trace_step_pid_master_seed0.csv.meta.json").read_text())
        assert meta["aborted"].startswith("FloatingPointError: non-finite clutch force request")


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


class TestCliReport:
    def test_single_row_subset(self, tmp_path, capsys, monkeypatch):
        # the report layout only; the acceptance matrix measures real rows
        measured = []

        def fake_row(name, **kw):
            measured.append(name)
            return RowResult(*REFERENCE_RESULTS[name])

        monkeypatch.setattr(sim, "measure_controller_row", fake_row)
        rc = main(["report", "--only", "open_loop", "--out-dir", str(tmp_path)])
        assert rc == 0 and measured == ["open_loop"]
        text = (tmp_path / "comparison.txt").read_text()
        assert "Open-loop (baseline)" in text
        assert "row absent" in text  # other rows not measured
        assert "[FAIL] lqgi." not in text
        csv = (tmp_path / "comparison.csv").read_text()
        assert csv.splitlines()[0] == "controller,metric,measured,reference"

    def test_unknown_subset_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["report", "--only", "open_loop,nope", "--out-dir", str(out)])
        assert rc == 2
        assert "unknown controller(s) in --only: ['nope']" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_section_rejected(self, tmp_path, capsys, monkeypatch):
        # the matrix runs fixed scenarios; an override would be silently dropped
        monkeypatch.setattr(sim, "measure_controller_row",
                            lambda name, **kw: pytest.fail("report measured a row"))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"scenario": {"backdrive_freq": 2.0}}))
        out = tmp_path / "out"
        rc = main(["--config", str(cfgfile), "report", "--only", "open_loop",
                   "--out-dir", str(out)])
        assert rc == 2
        assert "backdrive_freq" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("argv", [
        ["synth"],
        ["run", "--kind", "step", "--seed", "2"],
        ["frf", "--freqs", "50", "100"],
        ["report", "--only", "open_loop"],
    ], ids=lambda argv: argv[0])
    def test_every_command_writes_config(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(sim, "measure_controller_row",
                            lambda name, **kw: RowResult(*REFERENCE_RESULTS[name]))
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        cfg = RunConfig(**{k: v for k, v in echo.items() if k != "_hash"})
        assert echo["_hash"] == cfg.content_hash()
        assert echo["output_dir"] == str(out)
        assert echo["seed"] == (2 if argv[0] == "run" else 0)
