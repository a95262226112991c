"""Verification suites: every identity and bound the library implements,
checked numerically on a fixed configuration matrix.

Each check is a dict {id, anchor, residual, tolerance, status, detail};
`anchor` names the property tested.  Grids and samples are fixed, so a
configuration always gives the identical report.  Each L^p sample is taken
once: node values serve every p, and all x (or xi) of a check are one call.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List

import numpy as np

from .special import AlphaParam, dunkl_kernel, dunkl_kernel_it
from .funcalg import (GaussPolyFunction, dunkl_power, dunkl_fd,
                      dunkl_fd_power, hermite_phi)
from .quad import (LpContext, lp_norm_from_nodes, norm_node_values,
                   _norm_rules)
from .dunklcore import (translate_many, w_total_variation,
                        convolve, dunkl_transform,
                        translate_convolution_commutes,
                        product_formula_residual)
from . import taylor as T
from . import besov as B

SQRT2 = math.sqrt(2.0)

#: the fixed matrix every `verify` run checks
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


# ---------------------------------------------------------------- kernel ----

def suite_kernel(alphas=DEFAULT_ALPHAS) -> List[Dict]:
    checks = []
    ts = np.array([[0.3], [1.0], [2.5], [6.0]])    # one t per row
    xs = np.linspace(-4.0, 4.0, 41)
    for a in alphas:
        al = AlphaParam(a)
        worst = max(0.0, np.abs(dunkl_kernel_it(al, ts, xs)).max() - 1.0)
        checks.append(_check(f"kernel-modulus-bound[a={a}]",
                             "oscillatory kernel modulus <= 1",
                             worst, 1e-10))
        # real lam: scaled-Bessel path, imaginary lam: J-Bessel (b_5 ~ 1e-17)
        worst = 0.0
        for lam in (2.0, 2.0j):
            x = 1e-3 / abs(lam)
            poly = sum(T.b_coeff(al, n, 1.0) * (lam * x) ** n
                       for n in range(5))
            worst = max(worst, abs(complex(dunkl_kernel(al, lam, x)) - poly))
        checks.append(_check(f"kernel-at-zero[a={a}]",
                             "kernel equals sum_{n<=4} b_n(w) at |w| = 1e-3",
                             worst, 1e-14))
        worst, h = 0.0, 1e-4
        for lam in (0.8, 2.0):
            for x in (0.5, -1.2):   # g on dunkl_fd's stencil in one call
                us = [x + 2 * h, x + h, x, x - h, x - 2 * h, -x]
                g = dict(zip(us, dunkl_kernel(al, lam, us).real.tolist())).get
                worst = max(worst, abs(dunkl_fd(al, g, x, h=h) - lam * g(x))
                            / (1.0 + abs(lam * g(x))))
        checks.append(_check(f"kernel-eigenfunction[a={a}]",
                             "kernel solves the first-order eigenproblem",
                             worst, 1e-6))
    return checks


# ------------------------------------------------------------- translate ----

def _node_values(al: AlphaParam, g: Callable, T: float):
    # |g| on the nodes of the L^p rules truncated at T, which serve every p
    return norm_node_values(LpContext(al, 1.0, T), g)


def suite_translate(alphas=DEFAULT_ALPHAS) -> List[Dict]:
    checks = []
    grid6 = np.array([0.2, 0.5, 0.9, 1.3, 2.0, 3.1])
    pairs9 = [(0.3, 0.3), (0.3, 1.1), (1.1, 0.3), (0.7, -0.7), (-1.5, 0.4),
              (2.2, 2.2), (-0.9, -1.8), (0.15, 2.5), (1.0, 1.0)]
    for a in alphas:
        al = AlphaParam(a)
        worst = float(np.max(w_total_variation(al, grid6[:, None], grid6)))
        checks.append(_check(f"measure-mass-bound[a={a}]",
                             "translation measure total variation <= sqrt(2)",
                             worst - SQRT2, 1e-8))
        worst = 0.0
        px, py = np.transpose(pairs9)
        for t in (0.3, 1.0, 2.5):    # one translation per t takes every pair
            worst = max(worst, *product_formula_residual(
                al, px, py, t).tolist())
        checks.append(_check(f"product-formula[a={a}]",
                             "kernel product equals translated kernel",
                             worst, 1e-6))

        # node values once per function, reduced for every p: ||f|| (T = 12)
        # and tau_x f with every x as the rows of one profile (T = 16)
        base = {name: _node_values(al, f, 12.0) for name, f in TEST_FUNCTIONS}
        norm = lambda p, name: lp_norm_from_nodes(
            LpContext(al, p, 12.0), base[name]).value
        xs = np.array([[0.4], [1.1], [2.3]])
        moved = {name: _node_values(al, functools.partial(
            translate_many, al, f, xs), 16.0) for name, f in TEST_FUNCTIONS}
        for p in (1.0, 2.0):
            worst = 0.0
            for name, _ in TEST_FUNCTIONS:
                rows = lp_norm_from_nodes(LpContext(al, p, 16.0), moved[name])
                worst = max(worst, *(rows.value / norm(p, name)).tolist())
            checks.append(_check(
                f"translation-contraction[a={a},p={p:g}]",
                "translation norm ratio <= sqrt(2)", worst - SQRT2, 1e-6))

        (fname, f), (gname, g) = TEST_FUNCTIONS[0], TEST_FUNCTIONS[2]
        conv = lambda us: convolve(al, f, g, us, T=12.0)
        conv_nodes = _node_values(al, conv, 16.0)
        for (p, q, r) in ((1.0, 1.0, 1.0), (1.0, 2.0, 2.0)):
            num = lp_norm_from_nodes(LpContext(al, r, 16.0), conv_nodes).value
            checks.append(_check(
                f"young-inequality[a={a},p={p:g},q={q:g},r={r:g}]",
                "convolution Young bound with constant sqrt(2)",
                num / (norm(p, fname) * norm(q, gname)) - SQRT2, 1e-6))

        worst = 0.0     # one transform per function takes both xi
        xis = np.array([0.5, 1.7])
        for lhs, ft, gt in zip(*(dunkl_transform(al, h, xis, T=t).tolist()
                                 for h, t in ((conv, 16.0), (f, 12.0),
                                              (g, 12.0)))):
            rhs = ft * gt
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
# plus one pair just off a = 0: a quadrature split at |a| is 1e-4 off there
TAYLOR_PAIRS = [(x, pt) for x in TAYLOR_XS for pt in TAYLOR_AS] + [(2.1, 1e-4)]
TAYLOR_TOL = 1e-6    # on |integral - recurrence| / (1 + |tau_x f(a)|)

def suite_taylor(alphas=DEFAULT_ALPHAS, ks=DEFAULT_KS) -> List[Dict]:
    checks = []
    xs, us = np.transpose(TAYLOR_PAIRS)
    for a in alphas:
        al = AlphaParam(a)
        # tau_x f(a) does not depend on k: once per (f, pair)
        taus = [translate_many(al, f, xs, us) for _, f in TEST_FUNCTIONS]
        for k in ks:
            for (name, f), tau in zip(TEST_FUNCTIONS, taus):
                gap = (T.remainder_profile(al, k, f, xs)(us, tau=tau)
                       - T.remainder(al, k, f, xs, us))
                worst = float(np.max(np.abs(gap) / (1.0 + np.abs(tau))))
                checks.append(_check(
                    f"taylor-identity[a={a},k={k},f={name}]",
                    "expansion plus integral remainder reproduces translation",
                    worst, TAYLOR_TOL))
            worst = max(0.0, *(T.theta_mass(al, k, x)
                               - T.theta_mass_bound(al, k, x)
                               for x in (0.2, 0.8, 2.0)))
            checks.append(_check(f"theta-mass-bound[a={a},k={k}]",
                                 "remainder kernel mass bound",
                                 worst, 1e-8))
        x5 = np.array([0.5, -0.5, 1.0, -1.0, 2.0])    # one call per p
        worst = max(0.0, *(np.abs(T.theta0_moment(al, p, x5) - T.b_coeff(
            al, p + 1, x5)).max() for p in range(5)))
        checks.append(_check(f"theta-moment-identity[a={a}]",
                             "order-zero kernel maps b_p to b_{p+1}",
                             worst, 1e-8))

        f = TEST_FUNCTIONS[2][1]
        lf = dunkl_power(al, f, 1)
        samples = ((0.7, 0.45), (-1.3, 0.0), (1.9, -0.8))
        sx, spt = np.transpose(samples)
        # R_k once per k on the rows [x, -x] (R_0 = tau_x f): row 0 serves the
        # step checks at k and k + 1, both rows the symmetric sum at k
        pm = np.stack([sx, -sx]), np.stack([spt, spt])
        rem = functools.cache(lambda k: T.remainder(al, k, f, *pm) if k
                              else T.remainder_profile(al, 0, f, sx)(spt)[None])
        pair = T.symmetric_remainder_profile(al, 0, f, sx)(spt)
        w_rec = T.remainder_recursion_residual(al, np.array(ks)[:, None], f,
                                               sx, spt)     # a row per k
        for k, rec in zip(ks, w_rec.tolist()):
            rhs = rem(k - 1)[0] - (T.b_coeff(al, k - 1, sx)
                                   * dunkl_power(al, f, k - 1)(spt))
            w_step = max(0.0, *np.abs(rem(k)[0] - rhs).tolist())
            sym = T.symmetric_remainder_profile(al, k, f, sx)(spt, tau=pair)
            w_sym = max(0.0, *np.abs(rem(k)[0] + rem(k)[1] - sym).tolist())
            checks.append(_check(f"remainder-step[a={a},k={k}]",
                                 "one-term peeling of the remainder",
                                 w_step, 1e-6))
            checks.append(_check(f"remainder-recursion[a={a},k={k}]",
                                 "remainder as kernel-weighted lower remainder",
                                 max(0.0, *rec), 1e-6))
            checks.append(_check(f"symmetric-remainder[a={a},k={k}]",
                                 "even-part remainder identity",
                                 w_sym, 1e-6))
        # finite differences at two samples, one iterated_integral_I call per
        # (order, function): a first pass of every stencil records its
        # distinct (x, point) pairs, of both samples and both stencils
        xu = [(x, pt or 0.45) for x, pt in samples[:2]]

        def fd(k, g, ns):   # dunkl_fd_power(I_k(x, g), u, n) per (x, u), n
            jobs, row = [(x, u, n) for x, u in xu for n in ns], {}
            for x, u, n in jobs:    # pass 1 numbers each distinct (x, t)
                dunkl_fd_power(al, lambda t, x=x: [row.setdefault(
                    (x, v), len(row)) for v in t.tolist()] and 0.0 * t,
                    u, n, h=2e-3)
            vals = T.iterated_integral_I(al, k, g, *np.transpose(list(row)))
            return [dunkl_fd_power(al, lambda t, x=x: vals[[
                row[x, v] for v in t.tolist()]], u, n, h=2e-3)
                for x, u, n in jobs]

        rel = lambda lhs, rhs: max(0.0, *(abs(v - r) / (1.0 + abs(r))
                                          for v, r in zip(lhs, rhs)))
        x2, u2 = np.transpose(xu)
        tau = translate_many(al, f, x2, u2)
        rems = [T.remainder_profile(al, k, f, x2)(u2, tau=tau).tolist()
                for k in (1, 2)]
        first = fd(1, f, (1, 2))    # per sample: L I_1, then L^2 I_1
        for k, lhs, rhs in ((1, first[0::2], rems[0]),
                            (2, fd(2, f, (2,)), rems[1])):
            checks.append(_check(f"iterated-integral-remainder[a={a},k={k}]",
                                 "k-fold operator on iterate gives remainder "
                                 "(finite differences)", rel(lhs, rhs), 1e-4))
            if k == 1:
                checks.append(_check(
                    f"iterated-integral-shift[a={a},k={k}]",
                    "extra operator application shifts inside the iterate "
                    "(finite differences)",
                    rel(first[1::2], fd(1, lf, (1,))), 1e-4))

        (z, w), _ = _norm_rules(al, 10.0)
        for k in DEFAULT_KS:
            n0_min = (k - 1) // 2 + 1
            worst = 0.0
            for phi in (hermite_phi(al, n) for n in (n0_min, n0_min + 1)):
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
    xs = np.array([0.25, 0.5, 1.0, 2.0, 3.0])
    orders = sorted({j for k in ks for j in (k - 1, k)})
    for a in alphas:
        al = AlphaParam(a)
        # node values once per order j, reduced for every p: R_j(x, f), x the
        # rows, on one tau_x f per (f, rule) (T = 18), and L^j f (T = 14)
        nodes = [np.concatenate([z, -z]) for z, _ in _norm_rules(al, 18.0)]
        rem = {}
        for name, f in TEST_FUNCTIONS:
            taus = [translate_many(al, f, xs[:, None], u) for u in nodes]
            for j in orders:
                prof = T.remainder_profile(al, j, f, xs[:, None])
                rem[name, j] = [abs(prof(u, tau=t)) for u, t in zip(nodes, taus)]
        lj = {(name, j): _node_values(al, dunkl_power(al, f, j), 14.0)
              for name, f in TEST_FUNCTIONS for j in orders}
        for k in ks:
            for p in ps:
                worst_lo = worst_hi = -math.inf
                for name, _ in TEST_FUNCTIONS:
                    nk = lp_norm_from_nodes(LpContext(al, p, 14.0),
                                            lj[name, k - 1]).value
                    ctx = LpContext(al, p, 18.0)
                    for x, rm, rs in zip(xs.tolist(), *(
                            lp_norm_from_nodes(ctx, rem[name, j]).value
                            for j in (k - 1, k))):
                        worst_lo = max(worst_lo,
                                       rm - T.remainder_norm_coeff(al, k, x) * nk)
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

#: the x grid of B, B_tilde and K and the t grid of C in the besov suite
COARSE_GRID = B.default_grid(1e-3, 1e2, 4)


def _coarse_params(al, k, p, q, beta):
    return B.BesovParams(al, k, p, q, beta, COARSE_GRID)


def suite_besov(alphas=DEFAULT_ALPHAS, ks=DEFAULT_KS, qs=DEFAULT_QS,
                betas=DEFAULT_BETAS) -> List[Dict]:
    checks = []
    gauss = TEST_FUNCTIONS[0][1]
    # the equivalence diagnostics (k = 2) run first: the sample set each one
    # returns serves the scaling checks at every k and the q, beta, p checks
    reps = {a: B.equivalence_report(_coarse_params(AlphaParam(a), 2, 2.0,
                                                   1.0, 0.5), gauss)
            for a in alphas}
    # the scaling window of omega and C, and the sandwich window
    xs, xs2 = np.geomspace(1e-2, 1e-1, 8), np.geomspace(1e-2, 1.0, 12)
    for a in alphas:
        al = AlphaParam(a)
        sm = reps[a].get("samples") or B.BesovSamples(al, gauss)
        wide = B.BesovSamples(al, WIDE_GAUSSIAN)
        for k in ks:
            n0 = (k - 1) // 2 + 1
            s_om = B.slope_estimate(list(zip(xs.tolist(),
                                             sm.value("B", xs, k, 2.0))))
            checks.append(_check(
                f"omega-scaling[a={a},k={k}]",
                "modulus of smoothness scales with exponent k",
                abs(s_om - k), 0.1))

            s_cv = B.slope_estimate(list(zip(xs.tolist(),
                                             sm.value("C", xs, k, 2.0))))
            checks.append(_check(
                f"conv-scaling[a={a},k={k}]",
                "bump convolution decays with the first surviving moment "
                f"order 2*n0 = {2 * n0}",
                abs(s_cv - 2 * n0), 0.15,
                detail="even bumps force an even first moment; for odd k the "
                       "naive exponent-k window is unattainable"))

            rat = [om / (x ** (k - 1) * ku) for x, om, ku in zip(
                xs2.tolist(), *(wide.value(kind, xs2, k, 2.0)
                                for kind in ("B", "K")))]
            s_r = B.slope_estimate(list(zip(xs2, rat)))
            checks.append(_check(
                f"sandwich-flatness[a={a},k={k}]",
                "modulus and K-functional agree up to constants (slope)",
                abs(s_r), 0.15))
            checks.append(_check(
                f"sandwich-spread[a={a},k={k}]",
                "modulus and K-functional agree up to constants (spread)",
                max(rat) / min(rat) - 50.0, 0.0))

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
        grids = ({} if sm is None else {
            kind: (COARSE_GRID, sm.value(kind, COARSE_GRID, k, 2.0))
            for kind in B.KINDS})
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
            bt, cv = (B.seminorm_from_samples(
                pr1, kind, COARSE_GRID, sm.value(kind, COARSE_GRID, k, 1.0))
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
