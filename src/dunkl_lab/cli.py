"""Command-line interface.

    dunkl-lab kernel    --alpha A --t T [--x-max ..]
    dunkl-lab translate --alpha A --function NAME --x X [--x-max ..]
    dunkl-lab taylor    --alpha A --k K --function NAME --x X --a A0
    dunkl-lab besov     --alpha A --k K --p P --q Q --beta B --function NAME
    dunkl-lab sweep     [--config FILE] [flags]      -> smoothness/convolution CSVs
    dunkl-lab verify    [--config FILE] [--paper-defaults] [--suite NAME ...]

Configuration is a single JSON document; command-line flags override its
fields, and a command takes only those it reads (COMMAND_FIELDS).
`--paper-defaults` pins the canonical reproduction matrix.  CSV floats are
printed with 17 significant digits so they round-trip exactly.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 configuration,
input or I/O error (one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, asdict
from typing import List, Optional

import numpy as np

from .special import AlphaParam, dunkl_kernel_it
from .funcalg import GaussPolyFunction, hermite_phi
from .dunklcore import translate_many
from . import taylor as T
from . import besov as B
from . import verify as V
from .verify import CATALOG

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


class ConfigError(ValueError):
    pass


_GRID_TABLE = ("alpha", "k", "p", "q", "beta", "function", "function_record",
               "x_min", "x_max", "points_per_decade", "out_dir", "fmt")
#: the RunConfig fields each command reads; a flag or config-file field
#: that its command would ignore is a configuration error (verify runs the
#: fixed matrix of verify.DEFAULT_* on verify's own test functions)
COMMAND_FIELDS = {
    "kernel": ("alpha", "t", "x_max", "out_dir", "fmt"),
    "translate": ("alpha", "function", "function_record", "x", "x_max",
                  "out_dir", "fmt"),
    "taylor": ("alpha", "k", "function", "function_record", "x", "a"),
    "besov": _GRID_TABLE,
    "sweep": _GRID_TABLE,
    "verify": ("suites", "paper_defaults", "out_dir", "report_path"),
}
#: flag spellings that differ from "--" + the field name with dashes
_FLAG_NAMES = {"fmt": "--format", "suites": "--suite"}


@dataclass
class RunConfig:
    command: str = "verify"
    alpha: float = 0.5
    k: int = 2
    p: float = 2.0
    q: float = 1.0          # math.inf accepted as the string "inf"
    beta: float = 0.5
    function: str = "gaussian"
    function_record: Optional[dict] = None
    t: float = 1.0
    x: float = 1.0
    a: float = 0.5
    x_min: float = 1e-3
    x_max: float = 1e2
    points_per_decade: int = 6
    suites: List[str] = field(default_factory=lambda: list(V.SUITES))
    out_dir: str = "."
    fmt: str = "csv"
    report_path: str = "report.json"
    paper_defaults: bool = False

    def validate(self):
        for name in ("alpha", "k", "p", "q", "beta", "t", "x", "a", "x_min",
                     "x_max", "points_per_decade"):   # json.load takes NaN
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
                    math.isfinite(v) or (name == "q" and v == math.inf)):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
        if self.alpha <= -0.5:
            raise ConfigError(f"alpha must exceed -1/2, got {self.alpha}")
        if self.k < 1:
            raise ConfigError("k must be a positive integer")
        if self.p < 1.0:
            raise ConfigError("p must be >= 1")
        if self.q < 1.0:
            raise ConfigError("q must be >= 1 (or inf)")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must lie in (0, 1)")
        if self.x_min <= 0.0 or self.x_max <= self.x_min:
            raise ConfigError("need 0 < x_min < x_max")
        if self.points_per_decade < 1:
            raise ConfigError("points_per_decade must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        bad = [s for s in self.suites if s not in V.SUITES]
        if bad:
            raise ConfigError(f"unknown suite(s): {', '.join(bad)}")
        if self.function_record is None and self.function not in CATALOG:
            raise ConfigError(f"unknown catalog function {self.function!r}")
        if self.command in ("besov", "sweep") \
                and not self.resolve_function().is_normable:
            raise ConfigError("the function is not in L^p(mu_alpha): "
                              "a function_record needs gauss_scale > 0")

    def resolve_function(self) -> GaussPolyFunction:
        if self.function_record is not None:
            return GaussPolyFunction.from_record(self.function_record)
        return CATALOG[self.function]

    def grid(self) -> np.ndarray:
        return B.default_grid(self.x_min, self.x_max, self.points_per_decade)


def _load_config(args) -> RunConfig:
    doc = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError("a config file holds one JSON object")
    flags = {key: val for key, val in vars(args).items()
             if key not in ("command", "config") and val is not None}
    reads = COMMAND_FIELDS[args.command]
    given = [_FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
             for key in flags if key not in reads]
    given += [f"config field {key!r}" for key in doc if key not in reads]
    if given:
        raise ConfigError(f"{args.command} does not take {', '.join(given)}")
    cfg = RunConfig(command=args.command)
    for key, val in list(doc.items()) + list(flags.items()):
        if key == "q":
            val = math.inf if val == "inf" else float(val)
        setattr(cfg, key, val)
    if cfg.paper_defaults:
        cfg.suites = list(V.SUITES)
    cfg.validate()
    return cfg


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_table(cfg: RunConfig, name: str, header, rows) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.fmt == "json":
        path = os.path.join(cfg.out_dir, f"{name}.json")
        doc = [dict(zip(header, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        path = os.path.join(cfg.out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
    return path


# ------------------------------------------------------------- commands ----

def cmd_kernel(cfg: RunConfig) -> int:
    al = AlphaParam(cfg.alpha)
    xs = np.linspace(-cfg.x_max, cfg.x_max, 201)
    vals = dunkl_kernel_it(al, cfg.t, xs)
    rows = [(float(x), float(v.real), float(v.imag), float(abs(v)))
            for x, v in zip(xs, np.atleast_1d(vals))]
    path = _write_table(cfg, "kernel", ("x", "re", "im", "modulus"), rows)
    print(f"wrote {path} (max modulus "
          f"{max(r[3] for r in rows):.17g})")
    return EXIT_OK


def cmd_translate(cfg: RunConfig) -> int:
    al = AlphaParam(cfg.alpha)
    f = cfg.resolve_function()
    ys = np.linspace(-cfg.x_max, cfg.x_max, 201)
    vals = translate_many(al, f, cfg.x, ys)
    rows = [(float(y), float(v)) for y, v in zip(ys, vals)]
    path = _write_table(cfg, "translate", ("y", "value"), rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_taylor(cfg: RunConfig) -> int:
    al = AlphaParam(cfg.alpha)
    f = cfg.resolve_function()
    rem = T.remainder(al, cfg.k, f, cfg.x, cfg.a)
    out = {
        "remainder_integral": rem,
        "remainder_recurrence": float(T.remainder_profile(al, cfg.k, f,
                                                          cfg.x)(cfg.a)),
        "identity_residual": T.taylor_identity_residual(al, cfg.k, f, cfg.x,
                                                        cfg.a, rem=rem),
        "theta_mass": T.theta_mass(al, cfg.k, cfg.x),
        "theta_mass_bound": (T.b_coeff(al, cfg.k, abs(cfg.x))
                             + abs(cfg.x) * T.b_coeff(al, cfg.k - 1,
                                                      abs(cfg.x))),
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK


def _besov_rows(cfg: RunConfig):
    al = AlphaParam(cfg.alpha)
    pr = B.BesovParams(al, cfg.k, cfg.p, cfg.q, cfg.beta,
                       x_grid=cfg.grid(), t_grid=cfg.grid(), norm_T=16.0)
    s = B.BesovSamples(pr, cfg.resolve_function(),
                       hermite_phi(al, (cfg.k - 1) // 2 + 1, cfg.k))
    xs = [x for x in cfg.grid().tolist() if x <= 10.0]
    om, omt, ku, cn = (s.value(kind, np.array(xs)).tolist()
                       for kind in ("B", "B_tilde", "K", "C"))
    return list(zip(xs, om, omt, ku)), list(zip(xs, cn))


def cmd_besov(cfg: RunConfig) -> int:
    smooth, _ = _besov_rows(cfg)
    path = _write_table(cfg, "besov",
                        ("x", "omega", "omega_tilde", "k_upper"), smooth)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if len(cfg.grid()) == 0:
        raise ConfigError("empty grid")
    smooth, conv = _besov_rows(cfg)
    p1 = _write_table(cfg, "smoothness",
                      ("x", "omega", "omega_tilde", "k_upper"), smooth)
    p2 = _write_table(cfg, "convolution", ("t", "conv_norm"), conv)
    print(f"wrote {p1}\nwrote {p2}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = V.run_suites(cfg.suites)
    checks = [c for name in cfg.suites for c in results[name]]
    counts = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
    for c in checks:
        counts[c["status"]] += 1
        print(f"{c['status']:<13} {c['id']}  "
              f"(residual {c['residual']:.3e}, tol {c['tolerance']:.1e})")
    report = {
        "config": {
            "suites": list(cfg.suites),
            "paper_defaults": cfg.paper_defaults,
            "alphas": list(V.DEFAULT_ALPHAS),
            "ks": list(V.DEFAULT_KS),
            "ps": list(V.DEFAULT_PS),
            "qs": ["inf" if math.isinf(q) else q for q in V.DEFAULT_QS],
            "betas": list(V.DEFAULT_BETAS),
        },
        "checks": checks,
        "summary": counts,
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, cfg.report_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\n{counts['PASS']} passed, {counts['FAIL']} failed, "
          f"{counts['INCONCLUSIVE']} inconclusive -> {path}")
    if counts["FAIL"] or counts["INCONCLUSIVE"]:
        return EXIT_FAIL
    return EXIT_OK


COMMANDS = {
    "kernel": cmd_kernel,
    "translate": cmd_translate,
    "taylor": cmd_taylor,
    "besov": cmd_besov,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dunkl-lab",
        description="One-dimensional Dunkl harmonic analysis at desk scale.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--k", type=int)
        sp.add_argument("--p", type=float)
        sp.add_argument("--q", help="q >= 1 or 'inf'")
        sp.add_argument("--beta", type=float)
        sp.add_argument("--function", help=f"one of {', '.join(CATALOG)}")
        sp.add_argument("--t", type=float)
        sp.add_argument("--x", type=float)
        sp.add_argument("--a", type=float)
        sp.add_argument("--x-min", dest="x_min", type=float)
        sp.add_argument("--x-max", dest="x_max", type=float)
        sp.add_argument("--points-per-decade", dest="points_per_decade",
                        type=int)
        sp.add_argument("--out-dir", dest="out_dir")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"))
        sp.add_argument("--report-path", dest="report_path")
        sp.add_argument("--suite", dest="suites", action="append",
                        help=f"restrict verify to a suite "
                             f"({', '.join(V.SUITES)}); repeatable")
        sp.add_argument("--paper-defaults", action="store_true", default=None,
                        help="run the canonical reproduction matrix")
    return ap


def _describe(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return str(exc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError, json.JSONDecodeError, ValueError,
            KeyError) as exc:
        print(f"configuration error: {_describe(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[cfg.command](cfg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as exc:
        print(f"input error: {_describe(exc)}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
