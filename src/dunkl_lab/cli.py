"""Command-line interface.

    dunkl-lab kernel    --alpha A --t T [--x-max ..]
    dunkl-lab translate --alpha A --function NAME --x X [--x-max ..]
    dunkl-lab taylor    --alpha A --k K --function NAME --x X --a A0
    dunkl-lab besov     --alpha A --k K --p P --q Q --beta B --function NAME
    dunkl-lab sweep     [--config FILE] [flags]      -> smoothness/convolution CSVs
    dunkl-lab verify    [--config FILE] [--suite NAME ...]

Configuration is a single JSON document; flags override its fields.  Each
command takes --config and one flag per field it reads (COMMAND_FIELDS),
spelled in full.  CSV floats are printed with 17 significant digits so
they round-trip exactly.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 configuration,
input, numerical or I/O error (one line on stderr, no traceback), such as
an unknown flag, a function_record without finite coeffs, or a nan result.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .special import AlphaParam, dunkl_kernel_it
from .funcalg import GaussPolyFunction
from .dunklcore import translate, translate_many
from .quad import QuadratureError
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
    "verify": ("suites", "out_dir", "report_path"),
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

    def validate(self):
        for name in ("alpha", "k", "p", "q", "beta", "t", "x", "a", "x_min",
                     "x_max", "points_per_decade"):   # json.load takes NaN
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
                    math.isfinite(v) or (name == "q" and v == math.inf)):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
        for name, kind in (("k", int), ("function", str), ("suites", list),
                           ("out_dir", str), ("fmt", str), ("report_path", str),
                           ("function_record", (dict, type(None)))):
            v = getattr(self, name)         # json.load gives any type
            if not isinstance(v, kind):
                raise ConfigError(f"{name} has the wrong type: {v!r}")
        grid = self.command in ("besov", "sweep")   # else [-x_max, x_max]
        if self.x_min <= 0.0 or (grid and self.x_max <= self.x_min):
            raise ConfigError("need 0 < x_min < x_max")
        if self.x_max <= 0.0:
            raise ConfigError("x_max must be > 0")
        if self.points_per_decade < 1:
            raise ConfigError("points_per_decade must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        bad = [str(s) for s in self.suites if s not in V.SUITES]
        if bad:
            raise ConfigError(f"unknown suite(s): {', '.join(bad)}")
        twice = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if twice:
            raise ConfigError(f"repeated suite(s): {', '.join(twice)}")
        if self.function_record is None and self.function not in CATALOG:
            raise ConfigError(f"unknown catalog function {self.function!r}")
        self.resolve_function()     # a wrongly typed field: TypeError

    def resolve_function(self) -> GaussPolyFunction:
        if self.function_record is not None:
            return GaussPolyFunction.from_record(self.function_record)
        return CATALOG[self.function]

    def grid(self) -> np.ndarray:
        return B.default_grid(self.x_min, self.x_max, self.points_per_decade)


def _load_config(args, extras=()) -> RunConfig:
    """The command's config: its file's fields, then its flags; extras are
    the command-line tokens its parser did not take."""
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError("a config file holds one JSON object")
    given = [" ".join(extras)] if extras else []
    given += [f"config field {key!r}" for key in doc
              if key not in COMMAND_FIELDS[args.command]]
    if given:
        raise ConfigError(f"{args.command} does not take {', '.join(given)}")
    flags = {key: val for key, val in vars(args).items()
             if key not in ("command", "config") and val is not None}
    cfg = RunConfig(command=args.command)
    for key, val in list(doc.items()) + list(flags.items()):
        if key == "q" and val == "inf":     # a config file's spelling of inf
            val = math.inf
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_table(cfg: RunConfig, name: str, header, rows) -> str:
    if not all(math.isfinite(v) for row in rows for v in row):
        raise FloatingPointError(f"the {name} table has a non-finite value")
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.fmt == "json":
        path = os.path.join(cfg.out_dir, f"{name}.json")
        _write_json(path, [dict(zip(header, row)) for row in rows])
    else:
        path = os.path.join(cfg.out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" if isinstance(v, float)
                                  else str(v) for v in row) + "\n")
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
    tau = translate(al, f, cfg.x, cfg.a)
    rec = float(T.remainder_profile(al, cfg.k, f, cfg.x)(cfg.a, tau=tau))
    out = {
        "remainder_integral": rem,
        "remainder_recurrence": rec,
        "identity_residual": abs(rec - rem),
        "theta_mass": T.theta_mass(al, cfg.k, cfg.x),
        "theta_mass_bound": T.theta_mass_bound(al, cfg.k, cfg.x),
    }
    if not all(map(math.isfinite, out.values())):
        raise FloatingPointError("the taylor output has a non-finite value")
    tol = V.FAMILIES["taylor-identity"][1] * (1.0 + abs(tau))
    if out["theta_mass"] > out["theta_mass_bound"] or abs(rec - rem) > tol:
        raise FloatingPointError(
            f"the remainder at k = {cfg.k} is past its accuracy (theta_mass "
            f"over its bound or identity_residual over {tol:.3g}): {out}")
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK


def _besov_rows(cfg: RunConfig):
    """The sample set behind the besov and sweep tables, the grid points
    x <= 10 they tabulate, and the (x, omega, omega_tilde, k_upper) rows."""
    pr = B.BesovParams(AlphaParam(cfg.alpha), cfg.k, cfg.p, cfg.q, cfg.beta,
                       cfg.grid())
    s = B.BesovSamples(pr.alpha, cfg.resolve_function())
    xs = pr.grid[pr.grid <= 10.0]
    om, omt, ku = (s.value(kind, xs, pr.k, pr.p).tolist()
                   for kind in ("B", "B_tilde", "K"))
    return s, xs, list(zip(xs.tolist(), om, omt, ku))


def cmd_besov(cfg: RunConfig) -> int:
    _, _, smooth = _besov_rows(cfg)
    path = _write_table(cfg, "besov",
                        ("x", "omega", "omega_tilde", "k_upper"), smooth)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    s, ts, smooth = _besov_rows(cfg)
    conv = list(zip(ts.tolist(), s.value("C", ts, cfg.k, cfg.p).tolist()))
    p1 = _write_table(cfg, "smoothness",
                      ("x", "omega", "omega_tilde", "k_upper"), smooth)
    p2 = _write_table(cfg, "convolution", ("t", "conv_norm"), conv)
    print(f"wrote {p1}\nwrote {p2}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    checks, timings = [], {}
    for name in cfg.suites:
        t0 = time.perf_counter()
        checks += V.SUITES[name]()
        timings[name] = time.perf_counter() - t0
        print(f"suite {name}: {timings[name]:.2f} s", file=sys.stderr)
    counts = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
    for c in checks:
        counts[c["status"]] += 1
        print(f"{c['status']:<13} {c['id']}  "
              f"(residual {c['residual']:.3e}, tol {c['tolerance']:.1e})")
    report = {
        "config": {
            "suites": list(cfg.suites),
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
    _write_json(path, report)
    _write_json(os.path.join(os.path.dirname(path), "timings.json"), timings)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # one line and exit 2, through main
        raise ConfigError(message)


#: the keywords of the flags that are more than a value of their field's type
_FLAG_KEYWORDS = {
    "q": dict(help="q >= 1 or 'inf'"),
    "function": dict(help=f"one of {', '.join(CATALOG)}"),
    "fmt": dict(choices=("csv", "json")),
    "suites": dict(action="append", help=f"restrict verify to a suite "
                   f"({', '.join(V.SUITES)}); repeatable"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once, on first use: --config and one flag per field a command
    reads (function_record is a config file's only), typed as its default."""
    ap = _Parser(prog="dunkl-lab", allow_abbrev=False, description=(
        "One-dimensional Dunkl harmonic analysis at desk scale."))
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="JSON configuration file")
        flags = [f for f in COMMAND_FIELDS[name] if f != "function_record"]
        for f in flags:
            kw = _FLAG_KEYWORDS.get(f, {})
            if "action" not in kw:
                kw = dict(type=type(getattr(RunConfig, f)), **kw)
            sp.add_argument(_FLAG_NAMES.get(f, "--" + f.replace("_", "-")),
                            dest=f, **kw)
    return ap


def _describe(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return str(exc)


def main(argv=None) -> int:
    try:
        cfg = _load_config(*build_parser().parse_known_args(argv))
    except (ConfigError, OSError, json.JSONDecodeError, ValueError,
            KeyError, TypeError, OverflowError) as exc:
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
    # RuntimeWarning: numpy's overflow or nan, where warnings are errors;
    # ZeroDivisionError: a Python float divided by a power that underflowed
    except (QuadratureError, OverflowError, FloatingPointError,
            ZeroDivisionError, RuntimeWarning) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
