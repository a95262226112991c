"""The three benchmark workloads and their correctness gates.

Each workload runs in a fresh interpreter (see worker.py), builds its
inputs, runs one pass of program calls (the timed phase, returned as
perf_counter stamps t0 and t1) and then gates every output.  One *operation* is one verify check or one CLI command.  An
operation fails on a non-PASS status, an exception, a non-zero exit or an
output outside its reference; it is *wrong* when it produced an output
that the gate rejects.  A run is correct when no operation is wrong and
the workload's gate holds.

- identities   `dunkl-lab verify --suite kernel --suite translate
                --suite taylor --suite norms`, in-process through cli.main,
               on the paper matrix.  Gate: exit 0, check IDs equal the
               reference list, all PASS.  Takes no seed.
- besov-slice  `verify.suite_besov(alphas=(-0.25,), ks=(2,))`: the part of
               the besov suite where equivalence_report and
               seminorm_samples recompute the same sample sets.
               alpha = -0.25 gives the singular Jacobi endpoint weight.
               Gate: check IDs equal the reference list, all PASS.  Takes
               no seed.
- cli-tables   one fixed `sweep` (CSV values gated against a stored
               reference), then 40 `taylor` probes on the grid
               alpha x k, two per cell, each with x, a and a
               function_record drawn from the seed.  Probes are gated by
               the residuals they print.  The resonant cells (alpha = 0 with
               k >= 2, alpha = 1 with k = 4) raise at the seed; they count
               as failed operations and are not filtered out.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import random
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

IDENTITY_SUITES = ("kernel", "translate", "taylor", "norms")

SWEEP_ARGS = ("sweep", "--alpha", "1.5", "--k", "3", "--p", "1", "--q", "inf",
              "--beta", "0.7", "--function", "cubic_gaussian",
              "--points-per-decade", "3")
SWEEP_TABLES = ("smoothness.csv", "convolution.csv")
# A value v passes against reference r when
#   |v - r| <= SWEEP_RTOL * |r| + SWEEP_ATOL_OF_COLUMN_MAX * max|column|.
# Swapping the 48-node translation rule for a 64-node one (a stand-in for an
# exact closed form) moves conv_norm by up to 2.2e-7 relative and the
# cancellation-limited small-x values of omega / omega_tilde by up to
# 4.6e-16 of their column maximum; both pass.  A 40-node rule moves
# conv_norm by 2.8e-5 relative and fails.
SWEEP_RTOL = 1e-5
SWEEP_ATOL_OF_COLUMN_MAX = 1e-11

PROBE_ALPHAS = (-0.25, 0.0, 0.5, 1.0, 1.5)
PROBE_KS = (1, 2, 3, 4)
PROBES_PER_CELL = 2
# the tolerance of verify's taylor-identity check, applied here without its
# 1/(1 + |tau_x f(a)|) scaling, so never looser than the suite
TAYLOR_TOL = 1e-6


def _cli():
    return importlib.import_module("dunkl_lab.cli")


def _call_cli(argv):
    """Run cli.main in-process; returns (exit code, stdout, error or None)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = _cli().main(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), buf.getvalue(), \
            f"SystemExit({exc.code})"
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), None


def _op(name, failed, wrong=False, detail="", ms=None):
    return {"op": name, "failed": bool(failed or wrong), "wrong": bool(wrong),
            "detail": detail, "ms": ms}


def _reference_ids(name):
    with open(os.path.join(REFERENCE, name), encoding="utf-8") as fh:
        return json.load(fh)


def _gate_checks(checks, ref_ids, error=None):
    """One operation per reference check ID, failed unless it PASSes; the
    gate also needs the ID list to equal the reference and no error."""
    got = {c["id"]: c["status"] for c in checks}
    ops = []
    for cid in ref_ids:
        status = got.get(cid, "MISSING")
        ops.append(_op(cid, status != "PASS", wrong=status != "PASS",
                       detail=status if status != "PASS" else ""))
    gate = error or ""
    if not gate and [c["id"] for c in checks] != ref_ids:
        gate = "check ID list differs from the reference"
    return ops, gate


# ------------------------------------------------------------ identities ----

def run_identities(seed, workdir):
    argv = ["verify"]
    for s in IDENTITY_SUITES:
        argv += ["--suite", s]
    argv += ["--out-dir", workdir]
    t0 = time.perf_counter()
    rc, _out, err = _call_cli(argv)
    t1 = time.perf_counter()
    checks = []
    report = os.path.join(workdir, "report.json")
    if err is None and os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
    if rc != 0 and err is None:
        err = f"exit code {rc}"
    ops, gate = _gate_checks(checks, _reference_ids("identities_check_ids.json"),
                             err)
    return {"t0": t0, "t1": t1, "ops": ops, "gate": gate,
            "outputs": [[c["id"], c["status"]] for c in checks]}


# ----------------------------------------------------------- besov-slice ----

def run_besov_slice(seed, workdir):
    verify = importlib.import_module("dunkl_lab.verify")
    err, checks = None, []
    t0 = time.perf_counter()
    try:
        checks = verify.suite_besov(alphas=(-0.25,), ks=(2,))
    except Exception as exc:  # noqa: BLE001 - a crash fails the gate
        err = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    ops, gate = _gate_checks(checks, _reference_ids("besov_slice_check_ids.json"),
                             err)
    return {"t0": t0, "t1": t1, "ops": ops, "gate": gate,
            "outputs": [[c["id"], c["status"]] for c in checks]}


# ------------------------------------------------------------ cli-tables ----

def probe_inputs(seed):
    """The 40 taylor probes for a seed: alpha hops between neighbours."""
    rng = random.Random(seed)
    probes = []
    for k in PROBE_KS:
        for _rep in range(PROBES_PER_CELL):
            for alpha in PROBE_ALPHAS:
                deg = rng.randint(0, 3)
                record = {
                    "coeffs": [round(rng.uniform(-1.0, 1.0), 6)
                               for _ in range(deg + 1)],
                    "gauss_scale": round(rng.uniform(0.3, 1.5), 6),
                }
                x = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0), 6)
                a = round(rng.uniform(-2.0, 2.0), 6)
                probes.append({"alpha": alpha, "k": k, "x": x, "a": a,
                               "function_record": record})
    return probes


def _read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def gate_sweep(workdir):
    """'' when both CSVs match the stored reference within tolerance."""
    for name in SWEEP_TABLES:
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            return f"{name} missing"
        head, rows = _read_table(path)
        rhead, rrows = _read_table(os.path.join(REFERENCE, "sweep", name))
        if head != rhead or len(rows) != len(rrows):
            return f"{name}: shape or header differs from the reference"
        for j, col in enumerate(rhead):
            cmax = max(abs(r[j]) for r in rrows)
            for i, (row, ref) in enumerate(zip(rows, rrows)):
                tol = SWEEP_RTOL * abs(ref[j]) + SWEEP_ATOL_OF_COLUMN_MAX * cmax
                if not abs(row[j] - ref[j]) <= tol:
                    return (f"{name} row {i + 1} {col}: {row[j]!r} vs "
                            f"reference {ref[j]!r}")
    return ""


def gate_probe(out):
    """'' when a taylor probe's printed residuals pass TAYLOR_TOL."""
    try:
        doc = json.loads(out)
        resid = float(doc["identity_residual"])
        gap = abs(float(doc["remainder_integral"])
                  - float(doc["remainder_recurrence"]))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if not resid <= TAYLOR_TOL:
        return f"identity_residual {resid:.3e} > {TAYLOR_TOL:g}"
    if not gap <= TAYLOR_TOL:
        return f"|integral - recurrence| {gap:.3e} > {TAYLOR_TOL:g}"
    return ""


def run_cli_tables(seed, workdir):
    probes = probe_inputs(seed)
    argvs = [list(SWEEP_ARGS) + ["--out-dir", workdir]]
    for i, pr in enumerate(probes):
        cfg = os.path.join(workdir, f"probe{i:02d}.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"function_record": pr["function_record"]}, fh)
        argvs.append(["taylor", "--config", cfg, "--alpha", repr(pr["alpha"]),
                      "--k", str(pr["k"]), "--x", repr(pr["x"]),
                      "--a", repr(pr["a"])])
    results = []
    t0 = time.perf_counter()
    for argv in argvs:
        t = time.perf_counter()
        rc, out, err = _call_cli(argv)
        results.append((rc, out, err, (time.perf_counter() - t) * 1e3))
    t1 = time.perf_counter()

    ops, outputs = [], {}
    rc, _out, err, ms = results[0]
    bad = gate_sweep(workdir)     # a sweep that wrote no tables fails the gate
    ops.append(_op("sweep", err is not None or rc != 0, wrong=bool(bad),
                   detail=err or bad or ("" if rc == 0 else f"exit {rc}"),
                   ms=ms))
    for name in SWEEP_TABLES:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outputs[name] = hashlib.sha256(fh.read()).hexdigest()
    for i, (pr, (rc, out, err, ms)) in enumerate(zip(probes, results[1:])):
        name = f"taylor[a={pr['alpha']},k={pr['k']},#{i}]"
        if err is not None or rc != 0:
            ops.append(_op(name, True, detail=err or f"exit {rc}", ms=ms))
            continue
        bad = gate_probe(out)
        ops.append(_op(name, False, wrong=bool(bad), detail=bad, ms=ms))
        outputs[name] = out
    return {"t0": t0, "t1": t1, "ops": ops, "gate": "", "outputs": outputs}


WORKLOADS = {
    "identities": run_identities,
    "besov-slice": run_besov_slice,
    "cli-tables": run_cli_tables,
}
