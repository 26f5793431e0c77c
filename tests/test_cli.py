import dataclasses
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from rotordyn import cli, control, lab
from rotordyn.cli import ConfigError, RunConfig, main, parse_config
from rotordyn.integrators import RUNAWAY
from conftest import g_flipped_coriolis


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.dt == 0.01 and cfg.integrator == "rk4"
        assert cfg.params.mass == pytest.approx(0.468)

    def test_full_example(self):
        cfg = parse_config("""
            [run]
            command = compare     # trailing comment
            dt = 0.001
            duration = 30
            integrator = rk4

            [params]
            mass = 1.2
            gyro = off

            [input]
            preset = custom
            base = 400, 400, 400, 400
            amp = 1, 0, 0, 0
            freq = 2.5
        """)
        assert cfg.command == "compare"
        assert cfg.dt == 0.001 and cfg.integrator == "rk4"
        assert cfg.params.mass == 1.2 and not cfg.params.gyro_enabled
        u = cfg.input_fn()(0.0)
        assert np.allclose(u, 400.0)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[run]\ncommand = compare\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[rotors\]"):
            parse_config("[rotors]\ncount = 4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[run]\ndt = 0.01\ndt = 0.02\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("dt = 0.01\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("[run]\ndt = fast\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config("[run]\njust some words\n")

    @pytest.mark.parametrize("body", [
        "[run]\ncommand = fly\n",
        "[run]\ncommand = compare\ndt = -1\n",
        "[run]\ncommand = compare\nintegrator = heun\n",
        "[run]\ncommand = compare\nintegrator = euler\n",
        "[run]\ncommand = simulate\nmodel = dcm\n",
        "[input]\npreset = step\n",
        "[input]\nbase = 1, 2, 3\n",
        "[params]\nmass = -1\n",
        "[sweep]\ncompensators = pid\n",
    ])
    def test_semantic_validation(self, body):
        with pytest.raises(ConfigError):
            parse_config(body)

    @pytest.mark.parametrize("body, reason", [
        ("[params]\nmass = nan\n", "must be finite"),
        ("[gains]\natt_kp = nan\n", "must be finite"),
        ("[helix]\nradius = nan\n", "must be finite"),
        ("[input]\nfreq = -inf\n", "must be finite"),
        ("[run]\nseed = -3\n", "must be >= 0"),
        ("[sweep]\nki_grid = 8000, -1\n", "must be >= 0"),
        ("[helix]\nduration = 60\n", "unknown key 'duration'"),
    ])
    def test_rejects_with_reason(self, body, reason):
        with pytest.raises(ConfigError, match=reason):
            parse_config(body)

    @pytest.mark.parametrize("value", ["0", "-1e-9"])
    def test_tol_must_be_positive(self, tmp_path, capsys, value):
        text = f"[run]\ncommand = verify\ntol = {value}\n"
        with pytest.raises(ConfigError, match="tol = .*must be > 0"):
            parse_config(text)
        p = tmp_path / "c.cfg"
        p.write_text(text)
        assert main(["run", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_input_fn_drifting_preset(self):
        cfg = parse_config("[input]\npreset = drifting\n")
        assert np.allclose(cfg.input_fn()(0.0),
                           [475.9, 476.2, 476.0, 476.1])

    def test_default_input_is_the_drifting_input_bit_for_bit(self):
        u = parse_config("[input]\npreset = drifting\n").input_fn()
        ts = np.linspace(-50.0, 50.0, 2001).tolist() + [0.0, -0.0, 1e-300]
        assert all(type(lab.drifting_rotor_input(t)) is list for t in ts)
        got = np.array([u(t) for t in ts])
        want = np.array([lab.drifting_rotor_input(t) for t in ts])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("key", ["base = 1, 2, 3, 4",
                                     "amp = 1, 0, 0, 0", "freq = 2"])
    def test_drifting_preset_takes_no_input_keys(self, tmp_path, capsys,
                                                 key):
        text = f"[input]\npreset = drifting\n{key}\n"
        with pytest.raises(ConfigError, match="preset = drifting takes no"):
            parse_config(text)
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = compare\n" + text)
        assert main(["run", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_input_fn_returns_a_list_of_floats(self):
        u = parse_config("[input]\nbase = 1, 2, 3, 4\namp = 1, 0, 0, 0\n"
                         "freq = 2\n").input_fn()(0.25)
        assert type(u) is list and all(type(v) is float for v in u)
        assert u == [1.0 + math.sin(0.5), 2.0, 3.0, 4.0]

    def test_input_keys_without_preset_are_used(self):
        cfg = parse_config("[input]\nbase = 1, 2, 3, 4\n")
        assert cfg.input_preset == "custom"
        assert np.array_equal(cfg.input_fn()(0.0), [1.0, 2.0, 3.0, 4.0])


class TestMain:
    def test_missing_config_file(self, capsys):
        assert main(["compare", "--config", "/nonexistent.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nwat = 1\n")
        assert main(["compare", "--config", str(p)]) == 2

    def test_position_integral_gain_is_an_unknown_key(self, tmp_path, capsys):
        # the outer loop is PD plus feedforward: there is no pos_ki to set
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = track\n[gains]\npos_ki = 0.5\n")
        assert main(["run", "--config", str(p)]) == 2
        assert ("line 4: unknown key 'pos_ki' in [gains]"
                in capsys.readouterr().err)

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_run_requires_command_in_config(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ndt = 0.01\n")
        assert main(["run", "--config", str(p)]) == 2

    def test_flag_overrides_config(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = compare\nduration = 1\ndt = 0.05\n")
        assert main(["run", "--config", str(p), "--dt", "0.02"]) == 0
        assert "dt = 0.02" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["compare", "--dt", "nan"],
        ["compare", "--duration", "inf", "--dt", "0.5"],
        ["verify", "--seed", "-1"],
        ["compare", "--duration", "1e300", "--dt", "1e-300"],
    ])
    def test_bad_flag_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--out", "r.csv"], ["verify", "--dt", "5"],
        ["verify", "--duration", "1"], ["track", "--seed", "4"],
        ["sweep", "--seed", "4"], ["compare", "--seed", "4"],
        ["simulate", "--seed", "4"], ["oracle", "--seed", "4"]])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "does not read it" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_config_key_the_command_does_not_read_is_accepted(
            self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = simulate\nduration = 0.05\n")
        assert main(["verify", "--config", str(p)]) == 0

    def test_echo_lists_the_config_keys_the_command_does_not_read(
            self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = simulate\nduration = 0.05\n"
                     "seed = 3\n[sweep]\nki_grid = 8000, 9000\n"
                     "[gains]\natt_kp = 800\n[helix]\nradius = 3\n"
                     "[input]\nfreq = 2\n")
        assert main(["run", "--config", str(p)]) == 0
        echo = capsys.readouterr().out.splitlines()
        assert ("  ignored: [run] seed, [sweep] ki_grid, [gains] att_kp, "
                "[helix] radius") in echo
        assert main(["verify", "--config", str(p), "--seed", "1"]) == 0
        echo = capsys.readouterr().out.splitlines()
        assert ("  ignored: [run] duration, [sweep] ki_grid, "
                "[gains] att_kp, [helix] radius, [input] freq") in echo

    # the rotor keys of [params]: no closed-loop or verify number moves
    # with them (gyro is off in the closed loop whatever the file says)
    ROTOR_KEYS = ("arm = 0.5\nthrust_coeff = 1e-5\ndrag_coeff = 1e-7\n"
                  "rotor_inertia = 1.0\ngyro = true\n")

    @pytest.mark.parametrize("command,keys", [
        ("track", "duration = 0.02\n[params]\nmass = 0.5\ngravity = 9.8\n"),
        ("sweep", "duration = 0.02\n[sweep]\nki_grid = 8000\n"
                  "[params]\nmass = 0.5\ngravity = 9.8\n"),
        ("verify", "samples = 10\n[params]\n"),
    ], ids=["track", "sweep", "verify"])
    def test_echo_lists_the_params_keys_the_command_does_not_read(
            self, tmp_path, capsys, command, keys):
        p = tmp_path / "c.cfg"
        p.write_text(f"[run]\ncommand = {command}\n{keys}jx = 5e-3\n"
                     f"{self.ROTOR_KEYS}")
        assert main(["run", "--config", str(p)]) == 0
        assert ("  ignored: [params] arm, [params] thrust_coeff, "
                "[params] drag_coeff, [params] rotor_inertia, "
                "[params] gyro") in capsys.readouterr().out.splitlines()

    def test_verify_ignores_mass_and_gravity(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[params]\nmass = 5.0\ngravity = 3.0\n")
        assert main(["verify"]) == 0
        default = capsys.readouterr().out.split("relation residuals")[1]
        assert main(["verify", "--config", str(p)]) == 0
        echo, results = capsys.readouterr().out.split("relation residuals")
        assert "  ignored: [params] mass, [params] gravity" in echo
        assert results == default

    def test_echo_lists_nothing_when_every_key_is_read(self, tmp_path,
                                                       capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = sweep\nduration = 0.02\n"
                     "[sweep]\nki_grid = 8000\n[gains]\natt_kp = 800\n"
                     "[helix]\nradius = 3\n[params]\nmass = 0.5\n")
        assert main(["run", "--config", str(p)]) == 0
        assert "ignored" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        c for c in cli.COMMANDS if "duration" in cli.READS[c]])
    def test_duration_shorter_than_one_step_exits_2(self, capsys, command):
        assert main([command, "--duration", "0.001", "--dt", "0.01"]) == 2
        assert "at least one step" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "sweep"])
    def test_infeasible_helix_exits_2(self, tmp_path, capsys, command):
        p = tmp_path / "c.cfg"
        p.write_text(f"[run]\ncommand = {command}\ndt = 0.01\n"
                     "duration = 0.1\n[helix]\nradius = 2\nrate = 10\n"
                     "[sweep]\nki_grid = 8000\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "error: commanded specific force" in capsys.readouterr().err

    # An RK4 stage that runs away to an infinite angle makes math.sin raise
    # inside the kernel: the run ends as diverged and the report is printed.
    def test_runaway_sweep_cell_keeps_the_other_cells(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = sweep\ndt = 0.002\nduration = 0.2\n"
                     "[sweep]\nki_grid = 8000, 1e308\ncompensators = el\n")
        assert main(["run", "--config", str(p)]) == 0
        rows = [r.split() for r in capsys.readouterr().out.splitlines()
                if r.startswith("el ")]
        assert [(r[1], r[2]) for r in rows] == [("8000", "True"),
                                                ("1e+308", "False")]

    def test_runaway_track_run_is_reported_as_diverged(self, tmp_path,
                                                       capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = track\ndt = 0.002\nduration = 0.2\n"
                     "[gains]\natt_kp = 1e308\n")
        assert main(["run", "--config", str(p)]) == 0
        assert (f"rel compensator: diverged: {RUNAWAY}, "
                in capsys.readouterr().out)

    def test_runaway_compare_models_are_reported_as_diverged(self, tmp_path,
                                                             capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = compare\ndt = 0.01\nduration = 0.1\n"
                     "[params]\ngravity = 1e308\n")
        assert main(["run", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        for model in ("ne", "el", "rel"):
            assert f"note: {model}: diverged at step 0: {RUNAWAY}" in out

    # grids of PiB size, which no machine allocates: the step fails at once
    @pytest.mark.parametrize("command", ["simulate", "track", "sweep",
                                         "compare", "oracle"])
    def test_step_grid_too_large_to_allocate_exits_2(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--dt", "1e-12", "--duration", "60"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Unable to allocate" in err
        assert list(tmp_path.iterdir()) == []

    def test_sample_batch_too_large_to_allocate_exits_2(self, tmp_path,
                                                        capsys):
        p = tmp_path / "c.cfg"
        p.write_text(f"[run]\ncommand = verify\nsamples = {10 ** 17}\n")
        assert main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Unable to allocate" in err

    @pytest.mark.parametrize("command", ["track", "sweep"])
    def test_tangent_yaw_without_rate_exits_2(self, tmp_path, capsys,
                                              command):
        p = tmp_path / "c.cfg"
        p.write_text(f"[run]\ncommand = {command}\n"
                     "[helix]\nyaw_mode = tangent\nrate = 0\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "tangent yaw needs a nonzero rate" in capsys.readouterr().err

    def test_verify_passes_on_defaults(self, capsys):
        assert main(["verify"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_fails_on_the_coriolis_identity(self, monkeypatch,
                                                   capsys):
        monkeypatch.setattr(lab, "coriolis_matrix", g_flipped_coriolis)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "R7:" in out and "  FAIL  " not in out   # the relations pass
        assert out.endswith("verify: FAIL\n")

    def test_simulate_writes_trajectory_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = simulate\nmodel = rel\n"
                     "duration = 1\ndt = 0.01\n")
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z,phi,theta,psi,xd,yd,zd,phid,thetad,psid"
        assert len(lines) == 102  # header + 101 samples
        row = lines[5].split(",")
        assert len(row) == 13
        assert float(row[0]) == pytest.approx(0.04)

    def test_compare_writes_table_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = compare\nduration = 1\n")
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "group,el,rel"
        assert len(lines) == 5

    def test_track_writes_error_csv(self, tmp_path):
        out = tmp_path / "err.csv"
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = track\ndt = 0.005\n"
                     "duration = 1\n")
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,e_phi,e_theta,e_psi"

    @pytest.mark.parametrize("command", ["track", "sweep"])
    def test_closed_loop_echo_shows_gyro_off(self, tmp_path, capsys,
                                             command):
        p = tmp_path / "c.cfg"
        p.write_text(f"[run]\ncommand = {command}\ndt = 0.01\n"
                     "duration = 0.1\n[params]\ngyro = true\n"
                     "[sweep]\nki_grid = 8000\n")
        assert main(["run", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "gyro_enabled=False" in out
        assert "gyro_enabled=True" not in out

    def test_reruns_are_byte_identical(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = simulate\nmodel = ne\n"
                     "duration = 2\ndt = 0.01\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(p), "--out", str(a)]) == 0
        assert main(["run", "--config", str(p), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_diverged_ne_run_is_written_in_generalized_coordinates(
            self, tmp_path, request):
        full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
        args = ["simulate", "--duration", "1", "--out"]
        assert main(args + [str(full)]) == 0
        request.getfixturevalue("ne_diverges")
        assert main(args + [str(cut)]) == 0
        cut_rows = cut.read_text().splitlines()
        assert len(cut_rows) == 52   # header + the 51 samples before step 50
        assert cut_rows == full.read_text().splitlines()[:52]

    # argparse takes a plain negative number after a space; any other value
    # that starts with '-' reaches the converter only as --flag=value
    @pytest.mark.parametrize("argv, value, reason", [
        (["--dt=-1e-3"], "-1e-3", "must be > 0"),
        (["--dt=-inf"], "-inf", "must be finite"),
        (["--dt", "-.5"], "-.5", "must be > 0")],
        ids=["-1e-3-must be > 0", "-inf-must be finite", "-.5-must be > 0"])
    def test_value_starting_with_dash_reaches_converter(self, capsys, argv,
                                                        value, reason):
        assert main(["compare", *argv]) == 2
        assert f"dt = '{value}': {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e-3", "-inf"])
    def test_dash_value_after_space_exits_2_naming_the_flag(self, capsys,
                                                           value):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--dt", value])
        assert exc.value.code == 2
        assert "argument --dt: expected one argument" in capsys.readouterr().err

    def test_out_value_starting_with_dash_is_written(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--duration", "0.1", "--out=-name.csv"]) == 0
        assert (tmp_path / "-name.csv").read_text().startswith("t,")

    @pytest.mark.parametrize("argv", [
        ["compare", "--dur", "-1e-3"], ["compare", "--dur", "1"],
        ["compare", "--dur=1"], ["compare", "--int", "euler"],
        ["compare", "--integrator", "rk4"]])
    def test_abbreviated_flag_is_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_echo_shows_only_what_the_command_reads(self, command):
        echo = RunConfig(command=command).echo().splitlines()[1:]
        names = {line.split(" = ", 1)[0].strip() for line in echo}
        assert names == {"command", *cli.READS[command]}
        closed_loop = command in ("track", "sweep")
        for name in ("helix", "gains"):
            assert (name in names) == closed_loop
        assert ("ki_grid" in names) == (command == "sweep")
        assert ("compensators" in names) == (command == "sweep")
        assert ("input_base" in names) == (not closed_loop
                                           and command != "verify")

    def test_unwritable_output_fails(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[run]\ncommand = simulate\nduration = 1\n")
        code = main(["run", "--config", str(p),
                     "--out", str(tmp_path / "no-dir" / "x.csv")])
        assert code != 0


def test_repo_configs_parse():
    import pathlib
    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    found = sorted(cfg_dir.glob("*.cfg"))
    assert found, "configs directory should ship example configs"
    for path in found:
        cfg = parse_config(path.read_text())
        assert cfg.command in cli.COMMANDS


CONFIGS = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, capsys, path):
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(path), "--duration", "0.02",
                 "--out", str(out)]) == 0
    echo = capsys.readouterr().out
    if parse_config(path.read_text()).command in ("track", "sweep"):
        assert "duration=0.02)" in echo  # helix.duration follows --duration
    if path.name == "fig1.cfg":
        last = out.read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(0.02)


def test_series_csv_bytes_are_repr_of_each_float(tmp_path):
    tiny = 5e-324
    times = np.array([0.0, 0.01, 1e300])
    values = np.array([[-0.0, tiny, -tiny],
                       [2.2250738585072014e-308, 1e300, -1e-300],
                       [0.1, math.pi, -1.7976931348623157e308]])
    path = tmp_path / "s.csv"
    cli._write_series(["t", "a", "b", "c"], times, values, str(path))
    want = "t,a,b,c\n" + "".join(
        ",".join([repr(float(t))] + [repr(float(x)) for x in v]) + "\n"
        for t, v in zip(times, values))
    assert path.read_bytes() == want.encode()
    assert "-0.0,5e-324,-5e-324" in want


def test_series_csv_is_streamed_row_by_row(tmp_path):
    # 50 000 rows x (t + 12 values); the writer's tracemalloc peak read
    # 1.55 MiB before CSV fields were formatted by repr, most of it the
    # list of times.  Every row held at once, as floats (21 MiB) or as
    # strings (75 MiB), exceeds the bound by far.
    rng = np.random.default_rng(1)
    times = np.arange(50_000) * 0.01
    values = rng.standard_normal((50_000, 12))
    path = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        cli._write_series(cli.TRAJECTORY_HEADER, times, values, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"\n") == 50_001
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("rate", [1.4, -1.4])
def test_fig4_only_the_revised_compensator_tracks(tmp_path, rate):
    # default gains, heading tangent to the helix: el reaches the error
    # limit at t = 6.108 s, rel stays near 2.3e-5 rad after the transient
    path = pathlib.Path(__file__).resolve().parents[1] / "configs/fig4.cfg"
    cfg = parse_config(path.read_text())
    assert cfg.helix.rate == 1.4
    if rate == 1.4:
        out = tmp_path / "fig4.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert [(r[0], r[2]) for r in rows[1:]] == [("el", "False"),
                                                   ("rel", "True")]
    spec = dataclasses.replace(cfg.helix, rate=rate, duration=cfg.duration)
    result = control.run_tracking("rel", spec, cfg.gains,
                                  cfg.params.with_gyro(False), cfg.dt)
    assert not result.diverged
    assert np.abs(result.states[result.times >= 2.0]).max() < 1e-4
