"""Acceptance gate: runs the full verification matrix once through the CLI
and asserts each top-level guarantee from the report, one line per criterion.

Criterion 9 (convolution decay rate) asserts the documented behavior of an
even moment-vanishing bump: the measured slope equals the first surviving
moment order 2*n0 (which is k+1 for odd k, not k); see the check detail in
the report.  This is a deliberate, documented deviation from the naive
exponent-k window.

The fixture's report is also compared, record by record, with the committed
reference report tests/reference/report.json (README, Tests).
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dunkl_lab import taylor as T
from dunkl_lab import verify as V
from dunkl_lab.special import AlphaParam

SQRT2 = math.sqrt(2.0)


def _run_verify(out_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl_lab.cli", "verify",
         "--out-dir", str(out_dir)],
        capture_output=True, text=True)
    return proc


@pytest.fixture(scope="session")
def report(tmp_path_factory):
    # exit 1 (a check failed) still writes the report, and every test below
    # reads it: the reference gate then names each flipped record
    out = tmp_path_factory.mktemp("verify_run")
    proc = _run_verify(out)
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    assert (out / "report.json").exists(), proc.stdout + proc.stderr
    doc = json.loads((out / "report.json").read_text())
    doc["_raw"] = (out / "report.json").read_bytes()
    doc["_proc"] = proc
    return doc


def test_verify_exits_0(report):
    proc = report["_proc"]
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _checks(report, prefix):
    got = [c for c in report["checks"] if c["id"].startswith(prefix)]
    assert got, f"no checks matching {prefix!r}"
    return got


def _gate(n, name, checks, tol=None):
    ok = all(c["status"] == "PASS" for c in checks)
    if tol is not None:
        ok = ok and all(c["tolerance"] == tol for c in checks)
    worst = max(c["residual"] for c in checks)
    print(f"CRITERION {n:02d} {'PASS' if ok else 'FAIL'} - {name} "
          f"({len(checks)} checks, worst residual {worst:.3e})")
    assert ok, f"criterion {n} failed: " + "; ".join(
        f"{c['id']}={c['status']}" for c in checks if c["status"] != "PASS")


def test_criterion_01_taylor_identity(report):
    _gate(1, "Taylor expansion with integral remainder, 5x5 (x,a) grid, "
             "relative residual <= 1e-6",
          _checks(report, "taylor-identity["), tol=1e-6)


def test_criterion_02_measure_mass(report):
    checks = _checks(report, "measure-mass-bound[")
    # residual is total variation minus sqrt(2); slack 1e-8
    _gate(2, "translation measure total variation <= sqrt(2) + 1e-8",
          checks, tol=1e-8)


def test_criterion_03_product_formula(report):
    _gate(3, "kernel product formula, 9 pairs x 3 frequencies, <= 1e-6",
          _checks(report, "product-formula["), tol=1e-6)


def test_criterion_04_contraction_and_young(report):
    checks = (_checks(report, "translation-contraction[")
              + _checks(report, "young-inequality["))
    _gate(4, "translation/convolution norm ratios <= sqrt(2) + 1e-6",
          checks, tol=1e-6)


def test_criterion_05_theta_mass(report):
    checks = _checks(report, "theta-mass-bound[")
    _gate(5, "remainder kernel mass within the coefficient bound, "
             "x in {0.2, 0.8, 2}", checks, tol=1e-8)
    # each residual is the largest gap, max(theta_mass - bound) < 0
    for c in checks:
        a, k = re.fullmatch(r".*\[a=(.*),k=(\d)\]", c["id"]).groups()
        al, k = AlphaParam(float(a)), int(k)
        assert c["residual"] == max(
            T.theta_mass(al, k, x) - T.theta_mass_bound(al, k, x)
            for x in (0.2, 0.8, 2.0)) < 0.0, c["id"]


def test_criterion_06_moment_identity(report):
    _gate(6, "order-zero kernel maps b_p to b_{p+1}, p <= 4, <= 1e-8",
          _checks(report, "theta-moment-identity["), tol=1e-8)


def test_criterion_07_identity_suite(report):
    exact = (_checks(report, "remainder-step[")
             + _checks(report, "remainder-recursion[")
             + _checks(report, "symmetric-remainder["))
    _gate(7, "remainder recursion / peeling / symmetric identities <= 1e-6 "
             "(finite-difference iterate checks <= 1e-4)", exact, tol=1e-6)
    fd = (_checks(report, "iterated-integral-remainder[")
          + _checks(report, "iterated-integral-shift["))
    assert all(c["status"] == "PASS" and c["tolerance"] == 1e-4 for c in fd), \
        [c["id"] for c in fd if c["status"] != "PASS"]


def test_criterion_08_norm_bounds(report):
    checks = (_checks(report, "remainder-norm-bound[")
              + _checks(report, "remainder-norm-bound-same-order["))
    _gate(8, "remainder norms within the explicit sqrt(2) constant chain",
          checks, tol=1e-9)


def test_criterion_09_scaling_exponents(report):
    om = _checks(report, "omega-scaling[")
    assert all(c["status"] == "PASS" and c["tolerance"] == 0.1 for c in om)
    # DOCUMENTED BEHAVIOR: the bump is even, so its first surviving moment
    # has order 2*n0 = 2*floor((k-1)/2)+2 and the measured convolution decay
    # slope equals 2*n0, not k, when k is odd.  The check asserts
    # |slope - 2*n0| <= 0.15; the naive [k-1-0.15, k+0.15] window is
    # unattainable for odd k with even bumps.
    cv = _checks(report, "conv-scaling[")
    _gate(9, "modulus slope within 0.1 of k; convolution slope within 0.15 "
             "of the surviving moment order 2*n0 (documented deviation for "
             "odd k)", om + cv)
    assert all(c["tolerance"] == 0.15 for c in cv)
    assert all("even" in c["detail"] for c in cv)


def test_criterion_10_sandwich_and_p1_path(report):
    checks = (_checks(report, "sandwich-flatness[")
              + _checks(report, "sandwich-spread[")
              + _checks(report, "p1-inclusion-direction["))
    _gate(10, "modulus/K-functional sandwich flat (|slope| <= 0.15, "
              "spread < 50); p=1 asserts only the bump-scale inclusion",
          checks)
    assert all(c["tolerance"] == 0.15
               for c in _checks(report, "sandwich-flatness["))


def test_criterion_11_bump_moments(report):
    _gate(11, "enforced even moments of the Hermite bump vanish, <= 1e-10",
          _checks(report, "bump-moments-vanish["), tol=1e-10)


def test_criterion_12_determinism(report, tmp_path):
    # a failed check is the reference gate's to name, not determinism's
    proc = _run_verify(tmp_path)
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    second = (tmp_path / "report.json").read_bytes()
    ok = second == report["_raw"]
    print(f"CRITERION 12 {'PASS' if ok else 'FAIL'} - two verify runs "
          f"produce byte-identical report.json ({len(second)} bytes)")
    assert ok


def test_criterion_13_resonant_alpha(report):
    # alpha in {0, 1}: Theta_k carries log terms; the Taylor-layer checks
    # run there at the same tolerances (the resonant suite)
    checks = [c for c in report["checks"]
              if c["id"].endswith(("[a=0.0]", "[a=1.0]"))
              or "[a=0.0," in c["id"] or "[a=1.0," in c["id"]]
    assert len(checks) == 70
    assert any(c["id"] == "taylor-identity[a=0.0,k=4,f=gaussian]"
               for c in checks)
    _gate(13, "Taylor-layer identities at resonant alpha in {0, 1}, k <= 4",
          checks)


def test_full_matrix_is_green(report):
    s = report["summary"]
    print(f"SUMMARY: {s['PASS']} passed, {s['FAIL']} failed, "
          f"{s['INCONCLUSIVE']} inconclusive")
    assert s["FAIL"] == 0 and s["INCONCLUSIVE"] == 0


# -- the committed reference report -------------------------------------------

REFERENCE = Path(__file__).parent / "reference" / "report.json"
#: how far a record's residual, and each number in its detail, may move from
#: the reference: >= 10x the largest move measured (numpy 2.4.6) with numpy's
#: AVX-512 dispatch off, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL
#: X86_V4"; the families not named moved by <= 4.3e-15, most by 0 or an ulp.
BOUNDS = dict.fromkeys(V.FAMILIES, 1e-13) | {
    "kernel-eigenfunction": 1e-12,          # 9.6e-14
    "iterated-integral-remainder": 1e-9,    # 4.8e-11
    "iterated-integral-shift": 1e-9,        # 2.4e-11
    "omega-scaling": 1e-11,                 # 1.3e-13
    "conv-scaling": 1e-9,                   # 8.5e-11
    "sandwich-flatness": 1e-11,             # 3.1e-13
    "sandwich-spread": 1e-11,               # 6.4e-13
}
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _numbers(check):
    return [check["residual"], *map(float, _NUMBER.findall(check["detail"]))]


def _report_diff(got, ref):
    """One line, naming the ID, per way the check records `got` differ from
    `ref` beyond the gate: a missing, extra or reordered ID, a status, anchor
    or tolerance not equal, or a residual or detail number past BOUNDS."""
    ids, ref_ids = [c["id"] for c in got], [c["id"] for c in ref]
    out = [f"{i}: missing" for i in ref_ids if i not in ids]
    out += [f"{i}: not in the reference" for i in ids if i not in ref_ids]
    if not out and ids != ref_ids:
        out.append(next(f"{i}: out of order" for i, j in zip(ids, ref_ids)
                        if i != j))
    by_id = {c["id"]: c for c in ref}
    for c in (c for c in got if c["id"] in by_id):
        r, bound = by_id[c["id"]], BOUNDS[c["id"].split("[")[0]]
        out += [f"{c['id']}: {key} {c[key]!r}, reference {r[key]!r}"
                for key in ("status", "anchor", "tolerance")
                if c[key] != r[key]]
        if _NUMBER.sub("#", c["detail"]) != _NUMBER.sub("#", r["detail"]) \
                or not all(v == w or abs(v - w) <= bound
                           for v, w in zip(_numbers(c), _numbers(r))):
            out.append(f"{c['id']}: residual {c['residual']!r}, detail "
                       f"{c['detail']!r}; reference {r['residual']!r}, "
                       f"{r['detail']!r} (bound {bound:g})")
    return out


def _reference_checks():
    return json.loads(REFERENCE.read_text())["checks"]


def test_report_matches_the_reference(report):
    # a record that moves on purpose is declared by regenerating the
    # reference file: its git diff lists the moved records
    problems = _report_diff(report["checks"], _reference_checks())
    assert not problems, "\n".join(problems)


_EQUIV = "equivalence-diagnostics[a=0.5,k=2,p=2]"


@pytest.mark.parametrize("change", ["residual", "detail", "status", "anchor",
                                    "tolerance", "missing", "extra", "order",
                                    "inside"])
def test_reference_gate_names_each_altered_record(change):
    # each change to one record of the reference fails, naming its ID; every
    # residual moved by half its family's bound passes
    ref, got = _reference_checks(), _reference_checks()
    i, check_id = [c["id"] for c in ref].index(_EQUIV), _EQUIV
    c = got[i]
    if change == "residual":
        c["residual"] += 10 * BOUNDS["equivalence-diagnostics"]
    elif change == "detail":
        c["detail"] = c["detail"].replace("lower ratio 0.8", "lower ratio "
                                          "0.80000000000001")
    elif change in ("status", "anchor", "tolerance"):
        c[change] = {"status": "FAIL", "anchor": "", "tolerance": 1.0}[change]
    elif change == "missing":
        del got[i]
    elif change == "extra":
        check_id = _EQUIV.replace("k=2", "k=3")
        got.insert(i + 1, dict(c, id=check_id))
    elif change == "order":
        got.insert(0, got.pop(i))
    else:
        for c in got:
            c["residual"] += 0.5 * BOUNDS[c["id"].split("[")[0]]
        assert _report_diff(got, ref) == []
        return
    problems = _report_diff(got, ref)
    assert len(problems) == 1 and problems[0].startswith(check_id + ": ")


def test_parts_of_the_matrix_equal_the_full_run_bit_for_bit(report):
    # the norms and taylor suites on an order set with gaps, one p and one
    # alpha give the full run's records with the same IDs
    full = {c["id"]: c for c in report["checks"]}
    got = (V.suite_norms(alphas=(0.5,), ks=(3, 1), ps=(2.0,))
           + V.suite_taylor(alphas=(1.5,), ks=(3, 1)))
    assert len(got) == 25
    assert [c["id"] for c in got if c != full[c["id"]]] == []
