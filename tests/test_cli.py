import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dunkl_lab.cli import (main, RunConfig, ConfigError, CATALOG,
                           _write_table, build_parser, EXIT_OK, EXIT_CONFIG)
from dunkl_lab.dunklcore import translate_many
from dunkl_lab.funcalg import GaussPolyFunction
from dunkl_lab.special import AlphaParam


def run(args):
    return main(list(args))


def test_config_validation_direct():
    # the rules no library type owns; the alpha, k, p, q, beta and L^p
    # rules are AlphaParam's, BesovParams', LpContext's and BesovSamples'
    for bad in (dict(x_min=-1.0), dict(fmt="xml"), dict(function="nope"),
                dict(suites=["nope"]), dict(points_per_decade=0)):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    RunConfig().validate()
    RunConfig(alpha=-0.6, k=0, p=0.5, q=0.2, beta=1.2).validate()


@pytest.mark.parametrize("argv,message", [
    (["kernel", "--alpha", "-0.6"], "alpha must be > -1/2"),
    (["translate", "--alpha", "-0.5"], "alpha must be > -1/2"),
    (["taylor", "--k", "0"], "k must be >= 1"),
    (["taylor", "--k", "-3"], "k must be >= 1"),
    (["besov", "--p", "0.5"], "p must satisfy 1 <= p < inf"),
    (["sweep", "--q", "0.5"], "q must be >= 1"),
    (["besov", "--k", "0"], "k must be >= 1"),
    (["sweep", "--beta", "1.5"], "beta must lie in (0, 1)"),
    (["sweep", "--beta", "0"], "beta must lie in (0, 1)"),
    (["sweep", "--alpha", "-0.7"], "alpha must be > -1/2"),
], ids=["kernel-alpha", "translate-alpha", "taylor-k-0", "taylor-k-neg",
        "besov-p", "sweep-q", "besov-k-0", "sweep-beta-1.5", "sweep-beta-0",
        "sweep-alpha"])
def test_range_rules_of_the_library_types_exit_2(tmp_path, capsys, argv,
                                                 message):
    # each command builds its AlphaParam (and BesovParams) before any work
    # or file write: the type's own message is the one stderr line
    out = tmp_path / "out"
    if argv[0] != "taylor":
        argv = argv + ["--out-dir", str(out)]
    assert run(argv) == EXIT_CONFIG
    assert _one_error_line(capsys).startswith(f"input error: {message}")
    assert not out.exists()


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


@pytest.mark.parametrize("alpha,k,x,a", [(0.5, 2, 0.9, 0.3),
                                         (0.0, 3, -1.4, 0.0),
                                         (1.0, 4, 1.7, -1.2),
                                         (-0.25, 1, -0.3, 1.9)])
def test_taylor_translates_once_with_the_former_output(capsys, monkeypatch,
                                                       alpha, k, x, a):
    # one tau_x f(a), shared by the recurrence remainder and the residual,
    # prints what the former two translations printed, byte for byte
    from dunkl_lab import cli, taylor as T
    from dunkl_lab.special import AlphaParam
    al, f = AlphaParam(alpha), CATALOG["cubic_gaussian"]
    calls = []
    for mod, name in ((cli, "translate"), (T, "translate_many")):
        def counted(*args, _orig=getattr(mod, name)):
            calls.append(args[1] == f)       # translations of f itself
            return _orig(*args)
        monkeypatch.setattr(mod, name, counted)
    argv = ["taylor", "--alpha", str(alpha), "--k", str(k), "--x", str(x),
            "--a", str(a), "--function", "cubic_gaussian"]
    assert run(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert sum(calls) == 1
    monkeypatch.undo()
    rem = T.remainder(al, k, f, x, a)
    rec = float(T.remainder_profile(al, k, f, x)(a))
    former = {
        "remainder_integral": rem,
        "remainder_recurrence": rec,
        "identity_residual": abs(rec - rem),
        "theta_mass": T.theta_mass(al, k, x),
        "theta_mass_bound": (T.b_coeff(al, k, abs(x))
                             + abs(x) * T.b_coeff(al, k - 1, abs(x))),
    }
    assert printed == json.dumps(former, indent=1, sort_keys=True) + "\n"


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


def test_fmt_roundtrip(tmp_path):
    vals = [1.0 / 3.0, 1e-17, math.pi, -2.5e16]
    path = _write_table(RunConfig(out_dir=str(tmp_path)), "t", ["v"],
                        [(v,) for v in vals])
    assert [float(v) for v in open(path).read().split()[1:]] == vals


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


_DEEP_TAYLOR = ["taylor", "--alpha", "0.5", "--x", "2", "--a", "0.5"]


@pytest.mark.parametrize("k", [36, 43])
def test_taylor_past_its_accuracy_exits_2(capsys, k):
    # from k ~ 34 the Theta tables cancel.  At k = 36 theta_mass is under its
    # bound but the integral and recurrence remainders differ by 2.3e-6
    # (1 + |tau|), past verify's taylor-identity tolerance; at k = 43
    # theta_mass exceeds its bound 184 fold
    from dunkl_lab import taylor as T
    from dunkl_lab.special import AlphaParam
    assert run(_DEEP_TAYLOR + ["--k", str(k)]) == EXIT_CONFIG
    assert _one_error_line(capsys).startswith(
        f"numerical error: the remainder at k = {k} is past its accuracy")
    al = AlphaParam(0.5)
    ratio = T.theta_mass(al, k, 2.0) / T.theta_mass_bound(al, k, 2.0)
    assert ratio < 1.0 if k == 36 else ratio > 100.0
    assert run(_DEEP_TAYLOR + ["--k", "30"]) == EXIT_OK


@pytest.mark.xfail(strict=True, reason="at k = 32 the integral and "
                   "recurrence remainders differ by 2.3% of their value, but "
                   "the gap, 8.1e-7, is under 1e-6 (1 + |tau|) and theta_mass "
                   "under its bound")
def test_taylor_guard_catches_k_32():
    assert run(_DEEP_TAYLOR + ["--k", "32"]) == EXIT_CONFIG


def test_taylor_at_x_zero_gives_zeros(capsys):
    # R_k(0, f) = 0 exactly, and the Theta_{k-1}(0, .) mass with it
    assert run(["taylor", "--alpha", "0.5", "--k", "2", "--x", "0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"remainder_integral": 0.0, "remainder_recurrence": 0.0,
                   "identity_residual": 0.0, "theta_mass": 0.0,
                   "theta_mass_bound": 0.0}


@pytest.mark.parametrize("alpha", ["47", "60", "140"])
def test_large_alpha_taylor_gives_theta_mass(capsys, alpha):
    # each Theta term carries A(y) in its exponent, so no term overflows
    # where the weight underflows
    assert run(["taylor", "--alpha", alpha, "--k", "2", "--x", "0.5",
                "--a", "0.3", "--function", "gaussian"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(v) for v in doc.values())
    assert 0.0 < doc["theta_mass"] <= doc["theta_mass_bound"]
    assert doc["identity_residual"] < 1e-12


@pytest.mark.parametrize("alpha,msg", [
    ("200", "input error: alpha = 200 is too large"),  # Gamma(a+1) overflows
])
def test_large_alpha_taylor_exits_2(capsys, alpha, msg):
    assert run(["taylor", "--alpha", alpha, "--k", "2", "--x", "0.5",
                "--a", "0.3", "--function", "gaussian"]) == EXIT_CONFIG
    assert msg in _one_error_line(capsys)


def test_large_alpha_sweep_exits_2(tmp_path, capsys):
    # the bump's dilation t^(-2(a+1)) t^(-n) overflows a float at t = 1e-3:
    # at alpha = 50 in the product, at alpha = 60 in the power itself
    for alpha in ("50", "60"):
        out = tmp_path / alpha
        assert run(["sweep", "--alpha", alpha, "--k", "2", "--function",
                    "gaussian", "--points-per-decade", "2",
                    "--out-dir", str(out)]) == EXIT_CONFIG
        assert "input error: dilating by t = 0.001" in _one_error_line(capsys)
        assert not out.exists()


def test_large_alpha_besov_writes_its_table(tmp_path):
    # besov tabulates omega, omega_tilde and the K bound, never the bump
    # convolution, so it dilates nothing; at alpha = 120 the L^p rule's
    # weights stay finite (a RuntimeWarning fails the suite)
    for alpha in ("50", "120"):
        out = tmp_path / alpha
        assert run(["besov", "--alpha", alpha, "--k", "2", "--function",
                    "gaussian", "--points-per-decade", "2",
                    "--out-dir", str(out)]) == EXIT_OK
        rows = np.loadtxt(out / "besov.csv", delimiter=",", skiprows=1)
        assert rows.shape == (9, 4) and np.isfinite(rows).all()


def test_small_a_taylor_closes_the_identity(capsys):
    # a just off 0: a rule split at |a| printed an identity residual 1.3e-4
    assert run(["taylor", "--alpha", "-0.25", "--k", "3", "--function",
                "x_gaussian", "--x", "2", "--a", "1e-6"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["identity_residual"] <= 1e-12


@pytest.mark.parametrize("argv", [["--x", "1e-200"], ["--x", "1e-300"],
                                  ["--alpha", "60", "--k", "2", "--x", "1e-3",
                                   "--a", "0.3"]],
                         ids=["1e-200", "1e-300", "alpha60-1e-3"])
def test_tiny_x_taylor_gives_values(capsys, argv):
    # |x|^(2a+1) underflows to 0 here; the Theta tables on the unit
    # interval never form it
    assert run(["taylor"] + argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(v) for v in doc.values())
    assert doc["identity_residual"] <= 1e-12
    assert 0.0 <= doc["theta_mass"] <= doc["theta_mass_bound"]


def test_overflowing_norm_rule_exits_2(tmp_path, capsys):
    # from alpha = 129 the head rule's weights overflow a float at T = 16
    out = tmp_path / "out"
    assert run(["besov", "--alpha", "140", "--out-dir", str(out)]) \
        == EXIT_CONFIG
    assert "Gauss-Jacobi weights overflow a float" in _one_error_line(capsys)
    assert not out.exists()


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


#: records that are malformed (rejected when read), then records whose
#: numbers leave the float range (no non-finite value is written or printed)
BAD_RECORDS = {
    "empty": ('{"coeffs": [], "gauss_scale": 1}', "finite coeffs"),
    "nan-coeff": ('{"coeffs": [1.0, NaN], "gauss_scale": 1}', "finite coeffs"),
    "inf-scale": ('{"coeffs": [1.0], "gauss_scale": Infinity}',
                  "finite coeffs"),
    "bool-coeff": ('{"coeffs": [true], "gauss_scale": 1}', "finite coeffs"),
    "huge-coeffs": ('{"coeffs": [1e308, 1e308], "gauss_scale": 1}',
                    "numerical error"),
    "huge-scale": ('{"coeffs": [1.0], "gauss_scale": 1e300}',
                   "numerical error"),
    # Lambda-coordinates that cancel (kappa = 9e19: translate wrote 8188.6
    # for -2.353 at y = -3) and a basis diagonal that underflows
    "tiny-scale": ('{"coeffs": [1.0, 0.5, -0.3], "gauss_scale": 1e-20}',
                   "numerical error"),
    "underflow-scale": ('{"coeffs": [1.0, 0.5, -0.3], "gauss_scale": 1e-170}',
                        "numerical error"),
}


def _run_record(tmp_path, command, record):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"function_record": %s}' % record)
    return run([command, "--config", str(cfg)] + (
        [] if command == "taylor" else ["--out-dir", str(tmp_path / "out")]))


def _assert_huge_scale_translate_is_exact(tmp_path, capsys, status):
    # the one bad record with finite output: at s = 1e300 the closed form
    # G [n_a - w n_(a+1) / (2(a+1))] stays finite, and translate writes
    # tau_x f within 1e-15 max|f| of e^(-s(x^2+y^2)) E_a(-2sxy) at 50 digits
    mpmath = pytest.importorskip("mpmath")
    assert status == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("wrote ")
    rows = (tmp_path / "out" / "translate.csv").read_text().splitlines()
    ys, got = np.loadtxt(rows[1:], delimiter=",", unpack=True)
    cfg = RunConfig()
    with mpmath.workdps(50):
        a, x, s = (mpmath.mpf(v) for v in (cfg.alpha, cfg.x, 1e300))
        jn = lambda nu, w: (mpmath.gamma(nu + 1) * (w / 2) ** -nu
                            * mpmath.besseli(nu, w))
        ref = []
        for y in map(mpmath.mpf, ys.tolist()):
            w = 2 * s * abs(x * y)
            # as 0 < e^(-w) j_nu(iw) <= 1, |tau| <= G (1 + w / (2(a+1))),
            # G = e^(-s(|x| - |y|)^2): below 1e-300 it is 0 to the tolerance
            bound = mpmath.exp(-s * (abs(x) - abs(y)) ** 2) * (1 + w)
            ref.append(0.0 if w and bound < 1e-300 else float(
                mpmath.exp(-s * (x + y) ** 2) if w == 0 else
                mpmath.exp(-s * (x * x + y * y)) * (
                    jn(a, w) - mpmath.sign(x * y) * w / (2 * (a + 1))
                    * jn(a + 1, w))))
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)   # max|f| = 1


@pytest.mark.parametrize("command", ["taylor", "translate", "besov", "sweep"])
@pytest.mark.parametrize("record,message", BAD_RECORDS.values(),
                         ids=BAD_RECORDS.keys())
def test_bad_function_records_exit_2(tmp_path, capsys, command, record,
                                     message):
    # numpy's overflow warnings are errors here, as in the Tier-1 run
    status = _run_record(tmp_path, command, record)
    if (record, command) == (BAD_RECORDS["huge-scale"][0], "translate"):
        return _assert_huge_scale_translate_is_exact(tmp_path, capsys, status)
    assert status == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["taylor", "translate", "besov", "sweep"])
@pytest.mark.parametrize("name", ["huge-coeffs", "huge-scale"])
def test_non_finite_results_are_neither_written_nor_printed(
        tmp_path, capsys, command, name):
    # with numpy's warnings ignored, the commands' own checks stop the nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        status = _run_record(tmp_path, command, BAD_RECORDS[name][0])
    if (name, command) == ("huge-scale", "translate"):
        return _assert_huge_scale_translate_is_exact(tmp_path, capsys, status)
    assert status == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "non-finite value" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["taylor", "translate", "besov", "sweep"])
def test_huge_gauss_scale_prints_one_line(tmp_path, capsys, command):
    # with warnings shown, not raised: the Dunkl powers L^k f that taylor,
    # besov and sweep take overflow, and only the command's own line reports
    # it; translate needs no power and writes finite values
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        status = _run_record(tmp_path, command, BAD_RECORDS["huge-scale"][0])
    assert [str(w.message) for w in seen] == []
    if command == "translate":
        return _assert_huge_scale_translate_is_exact(tmp_path, capsys, status)
    assert status == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "numerical error" in err


@pytest.mark.parametrize("command", ["taylor", "translate", "besov", "sweep"])
def test_huge_coeffs_print_one_line(tmp_path, capsys, command):
    # with warnings shown, not raised: the closed-form translation (and
    # f at translate's point mass y = 0) overflows silently, and only the
    # command's own line reports it
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _run_record(tmp_path, command,
                           BAD_RECORDS["huge-coeffs"][0]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "numerical error" in err
    assert [str(w.message) for w in seen] == []


@pytest.mark.parametrize("command", ["taylor", "translate", "besov", "sweep"])
@pytest.mark.parametrize("name", ["tiny-scale", "underflow-scale"])
@pytest.mark.parametrize("action", ["error", "ignore", "always"])
def test_cancelling_coordinates_print_one_line(tmp_path, capsys, command,
                                               name, action):
    # with numpy's warnings raised, ignored or shown: lambda_coeffs refuses
    # the coordinates before any number is formed, and nothing else warns
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action, RuntimeWarning)
        status = _run_record(tmp_path, command, BAD_RECORDS[name][0])
    assert status == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "kappa = " in err and "Traceback" not in err
    assert [str(w.message) for w in seen] == []
    assert not (tmp_path / "out").exists()


def test_translate_at_a_small_width_matches_the_quadrature_route(tmp_path):
    # at s = 1e-4 the coordinates cancel by kappa ~ 9e3, under the bound:
    # the closed form matches the 48-node route within 1e-12 of max|tau|
    rec = {"coeffs": [1.0, 0.5, -0.3], "gauss_scale": 1e-4}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"function_record": rec}))
    assert run(["translate", "--config", str(cfg), "--x", "1.1",
                "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    rows = (tmp_path / "out" / "translate.csv").read_text().splitlines()
    ys, got = np.loadtxt(rows[1:], delimiter=",", unpack=True)
    f = GaussPolyFunction.from_record(rec)
    ref = translate_many(AlphaParam(RunConfig().alpha), lambda y: f(y), 1.1,
                         ys)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_taylor_of_a_narrow_gaussian_record(tmp_path, capsys):
    # the node count follows the record's Gaussian width 1/sqrt(s), not |x|
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"function_record": {"coeffs": [1.0],
                                                   "gauss_scale": 25.0},
                               "alpha": 0.5, "k": 3, "x": 4.0, "a": -1.3}))
    assert run(["taylor", "--config", str(cfg)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["identity_residual"] <= 1e-6


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
                "--suite": "kernel"}
_FIELD_VALUES = {"alpha": 0.5, "k": 2, "p": 2.0, "q": "inf", "beta": 0.5,
                 "function": "gaussian",
                 "function_record": {"coeffs": [1.0], "gauss_scale": 1.0},
                 "t": 1.0, "x": 0.9, "a": 0.3, "x_min": 0.01, "x_max": 10.0,
                 "points_per_decade": 1, "fmt": "json",
                 "report_path": "r.json", "suites": ["kernel"],
                 "command": "kernel"}


def _field(flag):
    return {"--format": "fmt", "--suite": "suites"}.get(
        flag, flag[2:].replace("-", "_"))


def _argv(flags):
    return [v for flag in flags for v in (flag, _FLAG_VALUES[flag])]


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



@pytest.mark.parametrize("command,doc,message", [
    ("verify", {"suites": 5}, "suites has the wrong type: 5"),
    ("verify", {"suites": ["taylor", 3]}, "unknown suite(s): 3"),
    ("verify", {"suites": [["taylor"]]}, "unhashable type"),
    ("verify", {"report_path": 5}, "report_path has the wrong type"),
    ("verify", {"suites": "kernel"}, "suites has the wrong type: 'kernel'"),
    ("taylor", {"function_record": 5}, "function_record has the wrong type"),
    ("taylor", {"function_record": {"coeffs": 5, "gauss_scale": 1.0}},
     "'int' object is not iterable"),
    ("taylor", {"k": 2.5}, "k has the wrong type: 2.5"),
    ("taylor", {"function": ["gaussian"]}, "function has the wrong type"),
    ("kernel", {"out_dir": 5}, "out_dir has the wrong type: 5"),
    ("kernel", {"fmt": 5}, "fmt has the wrong type: 5"),
])
def test_config_fields_of_the_wrong_type_exit_2(tmp_path, capsys, command,
                                                doc, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert run([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert _one_error_line(capsys).startswith(
        f"configuration error: {message}")


def test_verify_writes_suite_timings(tmp_path, capsys):
    assert run(["verify", "--suite", "kernel", "--suite", "norms",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert list(timings) == ["kernel", "norms"]
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    # one progress line per suite on stderr; the report holds no timing
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["suite kernel",
                                                    "suite norms"]
    assert "timings" not in (tmp_path / "report.json").read_text()


# -- one parser per process ----------------------------------------------------

def _fresh_interpreter(code):
    """Run code in a new interpreter; returns its last stdout line."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_parser_is_built_on_first_main_call_and_only_then():
    # every ArgumentParser made, the subparsers included, is counted
    code = (
        "import argparse, json\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **kw):\n"
        "    made.append(1)\n"
        "    init(self, *a, **kw)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import dunkl_lab.cli as cli\n"
        "counts = [len(made)]\n"
        "for _ in range(3):\n"
        "    cli.main(['taylor'])\n"
        "    counts.append(len(made))\n"
        "print(json.dumps(counts))\n")
    at_import, first, second, third = json.loads(_fresh_interpreter(code))
    assert at_import == 0 and first > 0 and second == third == first


def test_build_parser_returns_one_object():
    assert build_parser() is build_parser()


def test_repeated_verify_calls_give_identical_reports(tmp_path, capsys):
    reports = []
    for name in ("one", "two"):
        assert run(["verify", "--suite", "kernel",
                    "--out-dir", str(tmp_path / name)]) == EXIT_OK
        reports.append((tmp_path / name / "report.json").read_bytes())
    # the append action of --suite starts from nothing on every call
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["suites"] == ["kernel"]


@pytest.mark.parametrize("rejected", [["taylor", "--no-such-flag", "1"],
                                      ["taylor", "--t", "3"],
                                      ["taylor", "--k", "two"]])
def test_a_rejected_call_leaves_the_next_one_unchanged(capsys, rejected):
    argv = ["taylor", "--alpha", "1.5", "--k", "3", "--x", "0.7"]
    assert run(argv) == EXIT_OK
    first = capsys.readouterr().out
    try:
        code = run(rejected)
    except SystemExit as exc:       # argparse's own errors exit from parse
        code = exc.code
    assert code == EXIT_CONFIG
    capsys.readouterr()
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == first


def test_taylor_path_does_not_import_numpy_ma(tmp_path):
    code = (
        "import sys\n"
        "import dunkl_lab.cli as cli\n"
        "assert cli.main(['taylor', '--alpha', '1', '--k', '4']) == 0\n"
        "assert cli.main(['verify', '--suite', 'taylor', '--out-dir', "
        f"{str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    assert _fresh_interpreter(code) == "False"


# -- x_max per command, suites once --------------------------------------------

@pytest.mark.parametrize("command", ["kernel", "translate"])
def test_symmetric_interval_takes_any_positive_x_max(tmp_path, capsys,
                                                     command):
    assert run([command, "--x-max", "0.0005",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / f"{command}.csv").read_text().strip().split("\n")
    assert len(rows) == 202 and float(rows[1].split(",")[0]) == -0.0005
    for bad in ("0", "-5"):
        out = tmp_path / f"out{bad}"
        assert run([command, f"--x-max={bad}",
                    "--out-dir", str(out)]) == EXIT_CONFIG
        assert "x_max must be > 0" in _one_error_line(capsys)
        assert not out.exists()


@pytest.mark.parametrize("command", ["besov", "sweep"])
def test_grid_x_max_must_exceed_x_min(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run([command, "--x-max", "0.0005",
                "--out-dir", str(out)]) == EXIT_CONFIG
    assert "need 0 < x_min < x_max" in _one_error_line(capsys)
    assert not out.exists()


def test_a_repeated_suite_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["verify", "--suite", "kernel", "--suite", "norms",
                "--suite", "kernel", "--out-dir", str(out)]) == EXIT_CONFIG
    assert _one_error_line(capsys).startswith(
        "configuration error: repeated suite(s): kernel")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"suites": ["taylor", "taylor"],
                               "out_dir": str(out)}))
    assert run(["verify", "--config", str(cfg)]) == EXIT_CONFIG
    assert "repeated suite(s): taylor" in _one_error_line(capsys)
    assert not out.exists()


# -- one parser per command ----------------------------------------------------

@pytest.mark.parametrize("command", ["kernel", "translate", "taylor", "besov",
                                     "sweep", "verify"])
def test_help_offers_exactly_the_flags_of_the_command(capsys, command):
    from dunkl_lab.cli import COMMAND_FIELDS
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    offered = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*",
                             capsys.readouterr().out))
    reads = COMMAND_FIELDS[command]
    assert offered == {"-h", "--help", "--config"} | {
        flag for flag in list(_FLAG_VALUES) + ["--out-dir"]
        if _field(flag) in reads}


def test_top_level_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "taylor" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["taylor", "--k", "two"], "argument --k: invalid int value: 'two'"),
    (["kernel", "--format", "xml"], "argument --format: invalid choice"),
    (["taylor", "--format", "xml"], "taylor does not take --format xml"),
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["taylor", "--alph", "1.5"], "taylor does not take --alph 1.5"),
    (["taylor", "5"], "taylor does not take 5"),
    (["taylor", "--k"], "argument --k: expected one argument"),
], ids=["bad-int", "bad-choice", "foreign-flag", "no-command",
        "unknown-command", "abbreviation", "positional", "missing-value"])
def test_command_line_errors_are_one_line(capsys, argv, message):
    assert run(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith(f"configuration error: {message}")
    assert "usage:" not in err


@pytest.mark.parametrize("command,flag", [("kernel", "--x"),
                                          ("besov", "--points")])
def test_flags_are_never_abbreviated(tmp_path, capsys, command, flag):
    # with per-command flag sets, kernel --x would be --x-max otherwise
    out = tmp_path / "out"
    assert run([command, flag, "0.9", "--out-dir", str(out)]) == EXIT_CONFIG
    assert f"does not take {flag} 0.9" in _one_error_line(capsys)
    assert not out.exists()


def test_flags_take_the_type_of_their_field():
    # --q too: float("inf") reads "inf"
    args = build_parser().parse_args(
        ["sweep", "--q", "inf", "--k", "3", "--p", "1", "--points-per-decade",
         "2", "--function", "x_gaussian", "--out-dir", "o"])
    assert args.q == math.inf
    assert [type(getattr(args, f)) for f in ("q", "k", "p", "points_per_decade",
                                             "function", "out_dir")] \
        == [float, int, float, int, str, str]


# -- the removed --paper-defaults flag -----------------------------------------

def test_verify_rejects_paper_defaults(tmp_path, capsys):
    # verify always runs its fixed matrix: the flag and the field are gone
    out = tmp_path / "out"
    assert run(["verify", "--paper-defaults", "--out-dir", str(out)]) \
        == EXIT_CONFIG
    assert "--paper-defaults" in _one_error_line(capsys)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"paper_defaults": True}))
    assert run(["verify", "--config", str(cfg)]) == EXIT_CONFIG
    assert "'paper_defaults'" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("q", ["true", '"2"'])
def test_config_file_q_is_a_number_or_inf(tmp_path, capsys, q):
    # "inf" is the one string q takes, as --q inf; true is no number
    cfg = tmp_path / "c.json"
    cfg.write_text('{"q": %s}' % q)
    assert run(["sweep", "--config", str(cfg),
                "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "q must be a finite number" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()
