"""Verification suites: every identity and bound the library implements,
checked numerically on a fixed configuration matrix.

Each check is a dict {id, anchor, residual, tolerance, status, detail};
`anchor` is a stable, self-describing name for the property being tested.
All grids and samples are fixed constants, so a given configuration always
produces the identical report.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List

import numpy as np

from .special import AlphaParam, dunkl_kernel, dunkl_kernel_it
from .funcalg import (GaussPolyFunction, dunkl_power, dunkl_fd,
                      dunkl_fd_power, hermite_phi)
from .quad import LpContext, lp_norm, jacobi_rule
from .dunklcore import (translate, translate_many, w_total_variation,
                        convolve, dunkl_transform,
                        translate_convolution_commutes,
                        product_formula_residual)
from . import taylor as T
from . import besov as B

SQRT2 = math.sqrt(2.0)

#: the reference matrix driving `verify --paper-defaults`
DEFAULT_ALPHAS = (-0.25, 0.5, 1.5)
DEFAULT_KS = (1, 2, 3)
DEFAULT_PS = (1.0, 2.0)
DEFAULT_QS = (1.0, math.inf)
DEFAULT_BETAS = (0.3, 0.7)

#: the function catalog, also the CLI's `--function` choices
CATALOG = {
    "gaussian": GaussPolyFunction((1.0,), 1.0),
    "x_gaussian": GaussPolyFunction((0.0, 1.0), 1.0),
    "cubic_gaussian": GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5),
    "wide_gaussian": GaussPolyFunction((1.0,), 0.25),
}
#: test functions: a Gaussian, an odd one, and a non-symmetric cubic one
TEST_FUNCTIONS = tuple(CATALOG.items())[:3]
#: slow-decay Gaussian used where the probe window must sit below the
#: ||L^{k-1}f|| / ||L^k f|| crossover scale
WIDE_GAUSSIAN = CATALOG["wide_gaussian"]


def _check(check_id: str, anchor: str, residual: float, tol: float,
           detail: str = "") -> Dict:
    status = "PASS" if residual <= tol else "FAIL"
    if not math.isfinite(residual):
        status = "INCONCLUSIVE"
    return {"id": check_id, "anchor": anchor, "residual": float(residual),
            "tolerance": float(tol), "status": status, "detail": detail}


def _ratio_check(check_id: str, anchor: str, value: float, bound: float,
                 slack: float, detail: str = "") -> Dict:
    # "residual" is the (signed) bound excess; negative means comfortably in
    return _check(check_id, anchor, value - bound, slack, detail)


# ---------------------------------------------------------------- kernel ----

def suite_kernel(alphas=DEFAULT_ALPHAS) -> List[Dict]:
    checks = []
    ts = np.array([0.3, 1.0, 2.5, 6.0])
    xs = np.linspace(-4.0, 4.0, 41)
    for a in alphas:
        al = AlphaParam(a)
        worst = 0.0
        for t in ts:
            worst = max(worst, float(np.max(np.abs(
                dunkl_kernel_it(al, float(t), xs)) - 1.0)))
        checks.append(_check(f"kernel-modulus-bound[a={a}]",
                             "oscillatory kernel modulus <= 1",
                             worst, 1e-10))
        checks.append(_check(
            f"kernel-at-zero[a={a}]", "kernel value 1 at the origin",
            abs(complex(dunkl_kernel(al, 2.0 + 1.0j, 0.0)) - 1.0), 1e-14))
        worst = 0.0
        for lam in (0.8, 2.0):
            for x in (0.5, -1.2):
                g = lambda u, _l=lam: float(dunkl_kernel(al, _l, u).real)
                resid = abs(dunkl_fd(al, g, x, h=1e-4)
                            - lam * g(x)) / (1.0 + abs(lam * g(x)))
                worst = max(worst, resid)
        checks.append(_check(f"kernel-eigenfunction[a={a}]",
                             "kernel solves the first-order eigenproblem",
                             worst, 1e-6))
    return checks


# ------------------------------------------------------------- translate ----

def _numeric_lp(al: AlphaParam, p: float, g: Callable, T: float = 12.0) -> float:
    return lp_norm(LpContext(al, p, T), g)


def suite_translate(alphas=DEFAULT_ALPHAS) -> List[Dict]:
    checks = []
    grid6 = (0.2, 0.5, 0.9, 1.3, 2.0, 3.1)
    pairs9 = [(0.3, 0.3), (0.3, 1.1), (1.1, 0.3), (0.7, -0.7), (-1.5, 0.4),
              (2.2, 2.2), (-0.9, -1.8), (0.15, 2.5), (1.0, 1.0)]
    for a in alphas:
        al = AlphaParam(a)
        worst = 0.0
        for x in grid6:
            for y in grid6:
                worst = max(worst, w_total_variation(al, x, y))
        checks.append(_ratio_check(f"measure-mass-bound[a={a}]",
                                   "translation measure total variation <= sqrt(2)",
                                   worst, SQRT2, 1e-8))
        worst = 0.0
        for t in (0.3, 1.0, 2.5):
            for x, y in pairs9:
                worst = max(worst, product_formula_residual(al, x, y, t))
        checks.append(_check(f"product-formula[a={a}]",
                             "kernel product equals translated kernel",
                             worst, 1e-6))

        for p in (1.0, 2.0):
            worst = 0.0
            for name, f in TEST_FUNCTIONS:
                base = _numeric_lp(al, p, f)
                for x in (0.4, 1.1, 2.3):
                    prof = lambda ys, _x=x: translate_many(al, f, _x, ys)
                    worst = max(worst, _numeric_lp(al, p, prof, T=16.0) / base)
            checks.append(_ratio_check(
                f"translation-contraction[a={a},p={p:g}]",
                "translation norm ratio <= sqrt(2)", worst, SQRT2, 1e-6))

        f = TEST_FUNCTIONS[0][1]
        g = TEST_FUNCTIONS[2][1]
        conv = lambda us: convolve(al, f, g, us, T=12.0)
        for (p, q, r) in ((1.0, 1.0, 1.0), (1.0, 2.0, 2.0)):
            num = _numeric_lp(al, r, conv, T=16.0)
            den = _numeric_lp(al, p, f) * _numeric_lp(al, q, g)
            checks.append(_ratio_check(
                f"young-inequality[a={a},p={p:g},q={q:g},r={r:g}]",
                "convolution Young bound with constant sqrt(2)",
                num / den, SQRT2, 1e-6))

        worst = 0.0
        for xi in (0.5, 1.7):
            lhs = dunkl_transform(al, conv, xi, T=16.0)
            rhs = (dunkl_transform(al, f, xi, T=12.0)
                   * dunkl_transform(al, g, xi, T=12.0))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        checks.append(_check(f"transform-of-convolution[a={a}]",
                             "transform turns convolution into a product",
                             worst, 1e-8))

        worst = 0.0
        for (t, x) in ((0.6, 0.9), (-1.2, 0.3)):
            worst = max(worst, translate_convolution_commutes(
                al, f, g, t, x, T=14.0))
        checks.append(_check(f"translate-convolve-commute[a={a}]",
                             "translation commutes with convolution",
                             worst, 1e-8))
    return checks


# ----------------------------------------------------------------- taylor ----

TAYLOR_XS = (0.2, -0.6, 0.9, -1.4, 2.1)
TAYLOR_AS = (0.0, 0.45, -0.8, 1.5, -2.2)
TAYLOR_PAIRS = [(x, pt) for x in TAYLOR_XS for pt in TAYLOR_AS]

def suite_taylor(alphas=DEFAULT_ALPHAS, ks=DEFAULT_KS) -> List[Dict]:
    checks = []
    for a in alphas:
        al = AlphaParam(a)
        # tau_x f(a) does not depend on k: once per (f, pair)
        taus = {name: [translate(al, f, x, pt) for x, pt in TAYLOR_PAIRS]
                for name, f in TEST_FUNCTIONS}
        for k in ks:
            for name, f in TEST_FUNCTIONS:
                rems = T.remainder(al, k, f, *np.transpose(TAYLOR_PAIRS))
                worst = 0.0
                for (x, pt), rem, tau in zip(TAYLOR_PAIRS, rems, taus[name]):
                    worst = max(worst, T.taylor_identity_residual(
                        al, k, f, x, pt, rem=rem, tau=tau) / (1.0 + abs(tau)))
                checks.append(_check(
                    f"taylor-identity[a={a},k={k},f={name}]",
                    "expansion plus integral remainder reproduces translation",
                    worst, 1e-6))
            worst = 0.0
            for x in (0.2, 0.8, 2.0):
                mass = T.theta_mass(al, k, x)
                bound = (T.b_coeff(al, k, x)
                         + x * T.b_coeff(al, k - 1, x))
                worst = max(worst, mass - bound)
            checks.append(_check(f"theta-mass-bound[a={a},k={k}]",
                                 "remainder kernel mass bound",
                                 worst, 1e-8))
        worst = 0.0
        for p in range(5):
            for x in (0.5, -0.5, 1.0, -1.0, 2.0):
                worst = max(worst, abs(T.theta0_moment(al, p, x)
                                       - T.b_coeff(al, p + 1, x)))
        checks.append(_check(f"theta-moment-identity[a={a}]",
                             "order-zero kernel maps b_p to b_{p+1}",
                             worst, 1e-8))

        f = TEST_FUNCTIONS[2][1]
        lf = dunkl_power(al, f, 1)
        samples = ((0.7, 0.45), (-1.3, 0.0), (1.9, -0.8))
        for k in ks:
            w_step = w_rec = w_sym = 0.0
            for x, pt in samples:
                lhs = T.remainder(al, k, f, x, pt)
                if k == 1:
                    rhs = T.remainder_profile(al, 1, f, x)(pt)
                else:
                    rhs = (T.remainder(al, k - 1, f, x, pt)
                           - T.b_coeff(al, k - 1, x)
                           * dunkl_power(al, f, k - 1)(np.float64(pt)))
                w_step = max(w_step, abs(lhs - rhs))
                w_rec = max(w_rec, T.remainder_recursion_residual(
                    al, k, f, x, pt))
                w_sym = max(w_sym, T.symmetric_remainder_residual(
                    al, k, f, x, pt))
            checks.append(_check(f"remainder-step[a={a},k={k}]",
                                 "one-term peeling of the remainder",
                                 w_step, 1e-6))
            checks.append(_check(f"remainder-recursion[a={a},k={k}]",
                                 "remainder as kernel-weighted lower remainder",
                                 w_rec, 1e-6))
            checks.append(_check(f"symmetric-remainder[a={a},k={k}]",
                                 "even-part remainder identity",
                                 w_sym, 1e-6))
        for k in (1, 2):
            w_nest = w_rem = 0.0
            for x, pt in samples[:2]:
                g = lambda aa, _x=x, _k=k: T.iterated_integral_I(
                    al, _k, f, _x, aa, n_cheb=32)
                lhs = dunkl_fd_power(al, g, pt if pt else 0.45, k, h=2e-3)
                rhs = T.remainder_profile(al, k, f, x)(pt if pt else 0.45)
                w_rem = max(w_rem, abs(lhs - rhs) / (1.0 + abs(rhs)))
                if k == 1:
                    lhs2 = dunkl_fd_power(al, g, pt if pt else 0.45, 2, h=2e-3)
                    g2 = lambda aa, _x=x: T.iterated_integral_I(
                        al, 1, lf, _x, aa, n_cheb=32)
                    rhs2 = dunkl_fd_power(al, g2, pt if pt else 0.45, 1, h=2e-3)
                    w_nest = max(w_nest, abs(lhs2 - rhs2) / (1.0 + abs(rhs2)))
            checks.append(_check(f"iterated-integral-remainder[a={a},k={k}]",
                                 "k-fold operator on iterate gives remainder "
                                 "(finite differences)", w_rem, 1e-4))
            if k == 1:
                checks.append(_check(
                    f"iterated-integral-shift[a={a},k={k}]",
                    "extra operator application shifts inside the iterate "
                    "(finite differences)", w_nest, 1e-4))

        for k in DEFAULT_KS:
            n0_min = (k - 1) // 2 + 1
            worst = 0.0
            for n0 in (n0_min, n0_min + 1):
                phi = hermite_phi(al, n0, k)
                z, w = jacobi_rule(160, al.weight_exp, 0.0, 0.0, 10.0)
                for i in range(n0_min):
                    worst = max(worst, abs(float(
                        np.dot(w, z ** (2 * i) * phi(z))) / al.norm_const))
            checks.append(_check(f"bump-moments-vanish[a={a},k={k}]",
                                 "enforced even moments of the bump vanish",
                                 worst, 1e-10))
    return checks


# ------------------------------------------------------------------ norms ----

def suite_norms(alphas=DEFAULT_ALPHAS, ks=DEFAULT_KS,
                ps=DEFAULT_PS) -> List[Dict]:
    checks = []
    xs = (0.25, 0.5, 1.0, 2.0, 3.0)
    for a in alphas:
        al = AlphaParam(a)
        for k in ks:
            for p in ps:
                worst_lo = worst_hi = -math.inf
                for name, f in TEST_FUNCTIONS:
                    nk = _numeric_lp(al, p, dunkl_power(al, f, k - 1), T=14.0)
                    for x in xs:
                        rm = _numeric_lp(al, p, T.remainder_profile(
                            al, k - 1, f, x), T=18.0)
                        worst_lo = max(worst_lo,
                                       rm - T.remainder_norm_coeff(al, k, x) * nk)
                        rs = _numeric_lp(al, p, T.remainder_profile(
                            al, k, f, x), T=18.0)
                        worst_hi = max(
                            worst_hi,
                            rs - T.remainder_norm_coeff_same_order(al, k, x) * nk)
                checks.append(_check(
                    f"remainder-norm-bound[a={a},k={k},p={p:g}]",
                    "lower-order remainder norm within the explicit constant",
                    worst_lo, 1e-9))
                checks.append(_check(
                    f"remainder-norm-bound-same-order[a={a},k={k},p={p:g}]",
                    "full-order remainder norm within the peeled constant",
                    worst_hi, 1e-9))
    return checks


# ------------------------------------------------------------------ besov ----

def _coarse_params(al, k, p, q, beta, per_decade=4):
    g = B.default_grid(1e-3, 1e2, per_decade)
    return B.BesovParams(al, k, p, q, beta, x_grid=g, t_grid=g, norm_T=16.0)


def suite_besov(alphas=DEFAULT_ALPHAS, ks=DEFAULT_KS, qs=DEFAULT_QS,
                betas=DEFAULT_BETAS) -> List[Dict]:
    checks = []
    gauss = TEST_FUNCTIONS[0][1]
    # the equivalence diagnostics (k = 2) run first: the sample set each one
    # returns serves the scaling checks at k = 2 and the q, beta, p checks
    reps = {}
    for a in alphas:
        al = AlphaParam(a)
        reps[a] = B.equivalence_report(_coarse_params(al, 2, 2.0, 1.0, 0.5),
                                       gauss, hermite_phi(al, 1, 2))
    for a in alphas:
        al = AlphaParam(a)
        for k in ks:
            n0 = (k - 1) // 2 + 1
            pr = _coarse_params(al, k, 2.0, 1.0, 0.5)
            phi = hermite_phi(al, n0, k)
            sm = reps[a].get("samples") if k == 2 else None
            if sm is None:
                sm = B.BesovSamples(pr, gauss, phi)

            xs = np.geomspace(1e-2, 1e-1, 8)
            s_om = B.slope_estimate(list(zip(xs.tolist(), sm.value("B", xs))))
            checks.append(_check(
                f"omega-scaling[a={a},k={k}]",
                "modulus of smoothness scales with exponent k",
                abs(s_om - k), 0.1))

            ts = np.geomspace(1e-2, 1e-1, 8)
            s_cv = B.slope_estimate(list(zip(ts.tolist(), sm.value("C", ts))))
            checks.append(_check(
                f"conv-scaling[a={a},k={k}]",
                "bump convolution decays with the first surviving moment "
                f"order 2*n0 = {2 * n0}",
                abs(s_cv - 2 * n0), 0.15,
                detail="even bumps force an even first moment; for odd k the "
                       "naive exponent-k window is unattainable"))

            xs2 = np.geomspace(1e-2, 1.0, 12)
            wide = B.BesovSamples(pr, WIDE_GAUSSIAN)
            rat = [om / (x ** (k - 1) * ku) for x, om, ku in
                   zip(xs2.tolist(), wide.value("B", xs2), wide.value("K", xs2))]
            s_r = B.slope_estimate(list(zip(xs2, rat)))
            checks.append(_check(
                f"sandwich-flatness[a={a},k={k}]",
                "modulus and K-functional agree up to constants (slope)",
                abs(s_r), 0.15))
            checks.append(_ratio_check(
                f"sandwich-spread[a={a},k={k}]",
                "modulus and K-functional agree up to constants (spread)",
                max(rat) / min(rat), 50.0, 0.0))

    # one-sided convolution estimates + seminorm finiteness + the p = 1 path
    for a in alphas:
        al = AlphaParam(a)
        k = 2
        rep = reps[a]
        resid = 0.0 if rep["status"] == "PASS" else math.inf
        checks.append(_check(
            f"equivalence-diagnostics[a={a},k={k},p=2]",
            "four-scale equivalence diagnostics", resid, 0.0,
            detail=f"upper ratio {rep.get('conv_upper_ratio_max', 'n/a')}, "
                   f"lower ratio {rep.get('conv_lower_ratio_max', 'n/a')}"
                   + (f", error {rep['error']}" if "error" in rep else "")))
        # without a sample set these checks are INCONCLUSIVE (nan residual)
        sm = rep.get("samples")
        lost = "" if sm is not None else f"no sample set: {rep['error']}"
        grids = ({} if sm is None
                 else {kind: sm.samples(kind) for kind in B.KINDS})
        for q in qs:
            q_label = "inf" if math.isinf(q) else f"{q:g}"
            for beta in betas:
                prq = _coarse_params(al, k, 2.0, q, beta)
                ests = [B.seminorm_from_samples(prq, kind, *g)
                        for kind, g in grids.items()]
                div = (float(sum(e.diverging or not math.isfinite(e.value)
                                 for e in ests)) if grids else math.nan)
                checks.append(_check(
                    f"seminorms-finite[a={a},k={k},q={q_label},beta={beta}]",
                    "all four seminorms finite for a smooth decaying function",
                    div, 0.0, detail=lost))

        pr1 = _coarse_params(al, k, 1.0, 1.0, 0.5)
        ok = math.nan
        if sm is not None:
            bt, cv = (B.seminorm_from_samples(pr1, kind,
                                              *sm.samples(kind, p=1.0))
                      for kind in ("B_tilde", "C"))
            # B_tilde finite => C finite
            ok = 0.0 if (not bt.diverging) <= (not cv.diverging) else math.inf
        checks.append(_check(
            f"p1-inclusion-direction[a={a},k={k}]",
            "for p = 1 only the bump-scale inclusion is asserted",
            ok, 0.0, detail=lost
            or "reverse direction requires p > 1 and is not asserted"))
    return checks


SUITES = {
    "kernel": suite_kernel,
    "translate": suite_translate,
    "taylor": suite_taylor,
    "norms": suite_norms,
    "besov": suite_besov,
    # alpha where an antiderivative exponent of Theta_{k-1} reaches -1
    # (alpha = 0 from k = 2, alpha = 1 from k = 4): the kernels carry log terms
    "resonant": functools.partial(suite_taylor, alphas=(0.0, 1.0),
                                  ks=(1, 2, 3, 4)),
}


def run_suites(names) -> Dict[str, List[Dict]]:
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    return {n: SUITES[n]() for n in names}
