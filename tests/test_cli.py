import json
import math
import os

import numpy as np
import pytest

from dunkl_lab.cli import (main, RunConfig, ConfigError, CATALOG, _fmt,
                           EXIT_OK, EXIT_FAIL, EXIT_CONFIG)


def run(args):
    return main(list(args))


def test_config_validation_direct():
    cfg = RunConfig(alpha=-0.6)
    with pytest.raises(ConfigError):
        cfg.validate()
    for bad in (dict(k=0), dict(p=0.5), dict(q=0.2), dict(beta=1.2),
                dict(x_min=-1.0), dict(fmt="xml"), dict(function="nope"),
                dict(suites=["nope"]), dict(points_per_decade=0)):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    RunConfig().validate()


def test_bad_alpha_exits_2(capsys):
    assert run(["kernel", "--alpha", "-0.6"]) == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


def test_unknown_function_exits_2():
    assert run(["translate", "--function", "nonexistent"]) == EXIT_CONFIG


def test_bad_config_file_field(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"no_such_field": 1}))
    assert run(["verify", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text("{not json")
    assert run(["verify", "--config", str(cfg)]) == EXIT_CONFIG
    assert run(["verify", "--config", str(tmp_path / "missing.json")]) \
        == EXIT_CONFIG


def test_config_file_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1]")
    assert run(["taylor", "--config", str(cfg)]) == EXIT_CONFIG
    assert "JSON object" in _one_error_line(capsys)


def test_config_file_q_inf_and_flag_override(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"q": "inf", "alpha": 1.5, "k": 3}))
    # flags win over the file; the merged config must still validate
    from dunkl_lab.cli import _load_config, build_parser
    args = build_parser().parse_args(
        ["sweep", "--config", str(cfg), "--alpha", "0.5"])
    merged = _load_config(args)
    assert merged.alpha == 0.5
    assert merged.k == 3
    assert math.isinf(merged.q)


def test_kernel_command_writes_csv(tmp_path, capsys):
    assert run(["kernel", "--alpha", "0.5", "--t", "1.0",
                "--x-max", "4.0", "--out-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "kernel.csv"
    assert path.exists()
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "x,re,im,modulus"
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert vals.shape == (201, 4)
    assert np.max(vals[:, 3]) <= 1.0 + 1e-12


def test_translate_command(tmp_path):
    assert run(["translate", "--alpha", "0.5", "--function", "gaussian",
                "--x", "0.9", "--x-max", "3.0",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "translate.csv").exists()


def test_taylor_command_stdout(capsys):
    assert run(["taylor", "--alpha", "0.5", "--k", "2",
                "--function", "gaussian", "--x", "0.9", "--a", "0.3"]) \
        == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["identity_residual"] < 1e-9
    assert doc["remainder_integral"] == pytest.approx(
        doc["remainder_recurrence"], rel=1e-8, abs=1e-12)
    assert doc["theta_mass"] <= doc["theta_mass_bound"] + 1e-12


def test_sweep_csv_and_json_agree(tmp_path):
    common = ["sweep", "--alpha", "0.5", "--k", "2", "--p", "2",
              "--function", "gaussian", "--x-min", "0.01", "--x-max", "100",
              "--points-per-decade", "1"]
    d1, d2 = tmp_path / "csv", tmp_path / "json"
    assert run(common + ["--out-dir", str(d1), "--format", "csv"]) == EXIT_OK
    assert run(common + ["--out-dir", str(d2), "--format", "json"]) == EXIT_OK
    rows = (d1 / "smoothness.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header == ["x", "omega", "omega_tilde", "k_upper"]
    doc = json.loads((d2 / "smoothness.json").read_text())
    assert len(doc) == len(rows) - 1
    for line, rec in zip(rows[1:], doc):
        for name, txt in zip(header, line.split(",")):
            # 17-significant-digit CSV floats round-trip exactly
            assert float(txt) == rec[name]
    assert (d1 / "convolution.csv").exists()


def test_fmt_roundtrip():
    for v in (1.0 / 3.0, 1e-17, math.pi, -2.5e16):
        assert float(_fmt(v)) == v


def test_verify_single_suite(tmp_path, capsys):
    assert run(["verify", "--suite", "kernel",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "failed" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["FAIL"] == 0
    assert report["config"]["suites"] == ["kernel"]
    assert all(c["status"] == "PASS" for c in report["checks"])


def test_verify_unknown_suite_exits_2():
    assert run(["verify", "--suite", "nonsense"]) == EXIT_CONFIG


def test_catalog_functions_are_normable():
    for name, f in CATALOG.items():
        assert f.is_normable, name


def test_one_function_catalog():
    from dunkl_lab import verify
    assert CATALOG is verify.CATALOG
    assert verify.TEST_FUNCTIONS == tuple(CATALOG.items())[:3]
    assert verify.WIDE_GAUSSIAN is CATALOG["wide_gaussian"]


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


def test_taylor_at_x_zero_exits_2(capsys):
    assert run(["taylor", "--alpha", "0.5", "--k", "2", "--x", "0"]) \
        == EXIT_CONFIG
    assert "nonzero" in _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["besov", "--p", "nan"],
    ["taylor", "--a", "nan"],
    ["translate", "--x", "nan"],
    ["taylor", "--x", "inf"],
    ["taylor", "--x", "nan"],
    ["kernel", "--t=-inf"],
    ["sweep", "--q", "nan"],
    ["sweep", "--x-max", "inf"],
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)] if argv[0] != "taylor"
               else argv) == EXIT_CONFIG
    assert "must be a finite number" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("doc", ['{"alpha": NaN}', '{"x": Infinity}',
                                 '{"k": -Infinity}', '{"a": "0.5"}'])
def test_non_finite_config_fields_exit_2(tmp_path, capsys, doc):
    cfg = tmp_path / "c.json"
    cfg.write_text(doc)
    assert run(["taylor", "--config", str(cfg)]) == EXIT_CONFIG
    assert "must be a finite number" in _one_error_line(capsys)


def test_q_may_be_inf_only_upwards():
    RunConfig(q=math.inf).validate()
    with pytest.raises(ConfigError):
        RunConfig(q=-math.inf).validate()


def test_function_record_without_gauss_scale_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"function_record": {"coeffs": [1.0]}}))
    assert run(["taylor", "--config", str(cfg)]) == EXIT_CONFIG
    assert "gauss_scale" in _one_error_line(capsys)


@pytest.mark.parametrize("alpha,k", [("0", "2"), ("1", "4")])
def test_resonant_alpha_gives_the_remainder(capsys, alpha, k):
    # an antiderivative exponent of Theta_{k-1} reaches -1 (a log term)
    assert run(["taylor", "--alpha", alpha, "--k", k]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["identity_residual"] <= 1e-12
    assert out["remainder_integral"] == pytest.approx(
        out["remainder_recurrence"], rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("command", ["besov", "sweep"])
def test_non_normable_function_record_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"function_record": {"coeffs": [1.0, 2.0],
                                                   "gauss_scale": 0.0}}))
    assert run([command, "--config", str(cfg),
                "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "gauss_scale" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_verify_rejects_the_flags_it_ignores(tmp_path, capsys):
    # verify runs its fixed matrix; a matrix or table flag would be ignored
    out = tmp_path / "out"
    assert run(["verify", "--alpha", "7", "--suite", "kernel",
                "--out-dir", str(out)]) == EXIT_CONFIG
    assert "--alpha" in _one_error_line(capsys)
    assert not out.exists()
    flags = [("--alpha", "0.5"), ("--k", "2"), ("--p", "2"), ("--q", "inf"),
             ("--beta", "0.5"), ("--function", "gaussian"), ("--t", "1"),
             ("--x", "1"), ("--a", "0.5"), ("--x-min", "0.01"),
             ("--x-max", "10"), ("--points-per-decade", "3"),
             ("--format", "json")]
    argv = ["verify", "--suite", "kernel", "--out-dir", str(out)]
    for flag, val in flags:
        argv += [flag, val]
    assert run(argv) == EXIT_CONFIG
    err = _one_error_line(capsys)
    assert all(flag in err for flag, _ in flags)
    assert not out.exists()


def test_verify_rejects_the_config_fields_it_ignores(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha": 7, "suites": ["kernel"]}))
    assert run(["verify", "--config", str(cfg),
                "--out-dir", str(out)]) == EXIT_CONFIG
    assert "'alpha'" in _one_error_line(capsys)
    assert not out.exists()
    fields = {"alpha": 0.5, "k": 2, "p": 2.0, "q": "inf", "beta": 0.5,
              "function": "gaussian", "t": 1.0, "x": 1.0, "a": 0.5,
              "x_min": 0.01, "x_max": 10.0, "points_per_decade": 3,
              "fmt": "json",
              "function_record": {"coeffs": [1.0], "gauss_scale": 1.0}}
    cfg.write_text(json.dumps(dict(fields, suites=["kernel"])))
    assert run(["verify", "--config", str(cfg), "--alpha", "1",
                "--out-dir", str(out)]) == EXIT_CONFIG
    err = _one_error_line(capsys)
    assert "--alpha" in err and all(f"'{key}'" in err for key in fields)
    assert not out.exists()
    # the fields verify does use still pass
    cfg.write_text(json.dumps({"suites": ["kernel"], "out_dir": str(out),
                               "report_path": "r.json"}))
    assert run(["verify", "--config", str(cfg)]) == EXIT_OK
    assert (out / "r.json").exists()


#: an accepted value for every flag and for every config-file field
_FLAG_VALUES = {"--alpha": "0.5", "--k": "2", "--p": "2", "--q": "inf",
                "--beta": "0.5", "--function": "gaussian", "--t": "1",
                "--x": "0.9", "--a": "0.3", "--x-min": "0.01",
                "--x-max": "10", "--points-per-decade": "1",
                "--format": "json", "--report-path": "r.json",
                "--suite": "kernel", "--paper-defaults": None}
_FIELD_VALUES = {"alpha": 0.5, "k": 2, "p": 2.0, "q": "inf", "beta": 0.5,
                 "function": "gaussian",
                 "function_record": {"coeffs": [1.0], "gauss_scale": 1.0},
                 "t": 1.0, "x": 0.9, "a": 0.3, "x_min": 0.01, "x_max": 10.0,
                 "points_per_decade": 1, "fmt": "json",
                 "report_path": "r.json", "suites": ["kernel"],
                 "paper_defaults": False, "command": "kernel"}


def _field(flag):
    return {"--format": "fmt", "--suite": "suites"}.get(
        flag, flag[2:].replace("-", "_"))


def _argv(flags):
    out = []
    for flag in flags:
        out += [flag] if _FLAG_VALUES[flag] is None else [flag, _FLAG_VALUES[flag]]
    return out


@pytest.mark.parametrize("command", ["kernel", "translate", "taylor", "besov",
                                     "sweep", "verify"])
def test_commands_reject_the_flags_and_fields_they_ignore(tmp_path, capsys,
                                                          command):
    from dunkl_lab.cli import COMMAND_FIELDS, _load_config, build_parser
    reads = COMMAND_FIELDS[command]
    out = tmp_path / "out"
    ignored = [f for f in _FLAG_VALUES if _field(f) not in reads]
    assert ignored
    assert run([command] + _argv(ignored) + ["--out-dir", str(out)]) \
        == EXIT_CONFIG
    err = _one_error_line(capsys)
    assert err.startswith(f"configuration error: {command} does not take")
    assert all(flag in err for flag in ignored)
    assert not out.exists()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: val for key, val in _FIELD_VALUES.items()
                               if key not in reads}))
    assert run([command, "--config", str(cfg)]) == EXIT_CONFIG
    err = _one_error_line(capsys)
    assert all(f"'{key}'" in err for key in _FIELD_VALUES if key not in reads)
    # every flag and field the command reads is taken
    read_flags = [f for f in _FLAG_VALUES if _field(f) in reads]
    cfg.write_text(json.dumps({key: val for key, val in _FIELD_VALUES.items()
                               if key in reads}))
    merged = _load_config(build_parser().parse_args(
        [command, "--config", str(cfg)] + _argv(read_flags)))
    assert merged.command == command

