"""Verification suites: every identity and bound the library implements,
checked numerically on a fixed configuration matrix.

Each check is a dict {id, anchor, residual, tolerance, status, detail},
built by `_check` from its family's entry in `FAMILIES`; `anchor` names the
property tested.  The library measures and this module alone judges: every
residual is a signed excess over its family's bound (for the seminorms, an
edge-slope margin), passing at <= the tolerance, INCONCLUSIVE where it is
not finite.  Grids and samples are fixed, so a configuration always gives
the identical report.  Each L^p sample is taken once: node values
serve every p, and all x (or xi) of a check are one call.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List

import numpy as np

from .special import AlphaParam, dunkl_kernel, dunkl_kernel_it
from .funcalg import (GaussPolyFunction, dunkl_power, dunkl_fd_power,
                      hermite_phi)
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


#: (anchor, tolerance) per check family; a callable anchor takes the ID fields
FAMILIES = {
    "kernel-modulus-bound": ("oscillatory kernel modulus <= 1", 1e-10),
    "kernel-at-zero": ("kernel equals sum_{n<=4} b_n(w) at |w| = 1e-3", 1e-14),
    "kernel-eigenfunction": ("kernel solves the first-order eigenproblem",
                             1e-6),
    "measure-mass-bound": ("translation measure total variation <= sqrt(2)",
                           1e-8),
    "product-formula": ("kernel product equals translated kernel", 1e-6),
    "translation-contraction": ("translation norm ratio <= sqrt(2)", 1e-6),
    "young-inequality": ("convolution Young bound with constant sqrt(2)",
                         1e-6),
    "transform-of-convolution": ("transform turns convolution into a product",
                                 1e-8),
    "translate-convolve-commute": ("translation commutes with convolution",
                                   1e-8),
    # on |integral - recurrence| / (1 + |tau_x f(a)|), also `taylor`'s bound
    "taylor-identity": ("expansion plus integral remainder reproduces "
                        "translation", 1e-6),
    "theta-mass-bound": ("remainder kernel mass bound", 1e-8),
    "theta-moment-identity": ("order-zero kernel maps b_p to b_{p+1}", 1e-8),
    "remainder-step": ("one-term peeling of the remainder", 1e-6),
    "remainder-recursion": ("remainder as kernel-weighted lower remainder",
                            1e-6),
    "symmetric-remainder": ("even-part remainder identity", 1e-6),
    "iterated-integral-remainder": ("k-fold operator on iterate gives "
                                    "remainder (finite differences)", 1e-4),
    "iterated-integral-shift": ("extra operator application shifts inside "
                                "the iterate (finite differences)", 1e-4),
    "bump-moments-vanish": ("enforced even moments of the bump vanish", 1e-10),
    "remainder-norm-bound": ("lower-order remainder norm within the explicit "
                             "constant", 1e-9),
    "remainder-norm-bound-same-order": ("full-order remainder norm within the "
                                        "peeled constant", 1e-9),
    "omega-scaling": ("modulus of smoothness scales with exponent k", 0.1),
    "conv-scaling": (lambda a, k: "bump convolution decays with the first "
                     f"surviving moment order 2*n0 = {2 * B.bump_order(k)}",
                     0.15),
    "sandwich-flatness": ("modulus and K-functional agree up to constants "
                          "(slope)", 0.15),
    "sandwich-spread": ("modulus and K-functional agree up to constants "
                        "(spread)", 0.0),
    "equivalence-diagnostics": ("four-scale equivalence diagnostics", 0.0),
    "seminorms-finite": ("all four seminorms finite for a smooth decaying "
                         "function", 0.0),
    "p1-inclusion-direction": ("for p = 1 only the bump-scale inclusion is "
                               "asserted", 0.0),
}


def _check(family: str, *samples, detail: str = "", **params) -> Dict:
    """The record of `family` at `params` (the ID's fields, in order: `a` by
    str, other floats by :g).  The residual is the max of every entry of
    `samples` in order, NaN if any entry is NaN; a non-finite residual is
    INCONCLUSIVE."""
    anchor, tol = FAMILIES[family]
    vals = [v for s in samples for v in np.ravel(s).tolist()]
    residual = math.nan if any(map(math.isnan, vals)) else max(vals)
    fields = ",".join(f"{key}={v:g}" if isinstance(v, float) and key != "a"
                      else f"{key}={v}" for key, v in params.items())
    status = ("INCONCLUSIVE" if not math.isfinite(residual)
              else "PASS" if residual <= tol else "FAIL")
    return {"id": f"{family}[{fields}]",
            "anchor": anchor(**params) if callable(anchor) else anchor,
            "residual": float(residual), "tolerance": float(tol),
            "status": status, "detail": detail}


# ---------------------------------------------------------------- kernel ----

def suite_kernel(alphas=DEFAULT_ALPHAS) -> List[Dict]:
    checks = []
    ts = np.array([[0.3], [1.0], [2.5], [6.0]])    # one t per row
    xs = np.linspace(-4.0, 4.0, 41)
    for a in alphas:
        al = AlphaParam(a)
        checks.append(_check("kernel-modulus-bound",
                             np.abs(dunkl_kernel_it(al, ts, xs)) - 1.0, a=a))
        # real lam: scaled-Bessel path, imaginary lam: J-Bessel (b_5 ~ 1e-17)
        zero_gap = lambda lam, x: abs(complex(dunkl_kernel(al, lam, x)) - sum(
            T.b_coeff(al, n, 1.0) * (lam * x) ** n for n in range(5)))
        checks.append(_check("kernel-at-zero", [zero_gap(lam, 1e-3 / abs(lam))
                                                for lam in (2.0, 2.0j)], a=a))
        # one kernel call per lam gives g(x) = E(lam x) and L g(x)
        eigen = lambda lam: dunkl_fd_power(al, lambda t: dunkl_kernel(
            al, lam, t).real, (0.5, -1.2), (0, 1), h=1e-4)
        checks.append(_check("kernel-eigenfunction", *(
            np.abs(lg - lam * g) / (1.0 + np.abs(lam * g))
            for lam in (0.8, 2.0) for g, lg in [eigen(lam)]), a=a))
    return checks


# ------------------------------------------------------------- translate ----

def suite_translate(alphas=DEFAULT_ALPHAS) -> List[Dict]:
    checks = []
    grid6 = np.array([0.2, 0.5, 0.9, 1.3, 2.0, 3.1])
    pairs9 = [(0.3, 0.3), (0.3, 1.1), (1.1, 0.3), (0.7, -0.7), (-1.5, 0.4),
              (2.2, 2.2), (-0.9, -1.8), (0.15, 2.5), (1.0, 1.0)]
    for a in alphas:
        al = AlphaParam(a)
        checks.append(_check("measure-mass-bound", w_total_variation(
            al, grid6[:, None], grid6) - SQRT2, a=a))
        px, py = np.transpose(pairs9)    # one translation per t: every pair
        checks.append(_check("product-formula", *(product_formula_residual(
            al, px, py, t) for t in (0.3, 1.0, 2.5)), a=a))

        # ||f|| and ||tau_x f|| = ||R_0(x, f)|| from one sample set per f, at
        # every p; only the Young numerator takes its node values here
        sets = [B.BesovSamples(al, f) for _, f in TEST_FUNCTIONS]
        xs = np.array([0.4, 1.1, 2.3])
        for p in (1.0, 2.0):
            checks.append(_check("translation-contraction", *(
                s.remainder_norm(xs, 0, p) / s.power_norm(0, p) - SQRT2
                for s in sets), a=a, p=p))

        (_, f), (_, g) = TEST_FUNCTIONS[0], TEST_FUNCTIONS[2]
        conv = lambda us: convolve(al, f, g, us)
        conv_nodes = norm_node_values(al, conv)
        for (p, q, r) in ((1.0, 1.0, 1.0), (1.0, 2.0, 2.0)):
            num = lp_norm_from_nodes(LpContext(al, r), conv_nodes)
            checks.append(_check("young-inequality", num / (
                sets[0].power_norm(0, p) * sets[2].power_norm(0, q)) - SQRT2,
                a=a, p=p, q=q, r=r))

        xis = np.array([0.5, 1.7])    # one transform per function takes both
        checks.append(_check("transform-of-convolution", [
            abs(lhs - ft * gt) / (1.0 + abs(ft * gt)) for lhs, ft, gt in zip(
                *(dunkl_transform(al, h, xis).tolist()
                  for h in (conv, f, g)))], a=a))
        checks.append(_check("translate-convolve-commute", *(
            translate_convolution_commutes(al, f, g, t, x)
            for (t, x) in ((0.6, 0.9), (-1.2, 0.3))), a=a))
    return checks


# ----------------------------------------------------------------- taylor ----

TAYLOR_XS = (0.2, -0.6, 0.9, -1.4, 2.1)
TAYLOR_AS = (0.0, 0.45, -0.8, 1.5, -2.2)
# plus one pair just off a = 0: a quadrature split at |a| is 1e-4 off there
TAYLOR_PAIRS = [(x, pt) for x in TAYLOR_XS for pt in TAYLOR_AS] + [(2.1, 1e-4)]


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
                checks.append(_check("taylor-identity", np.abs(gap) / (
                    1.0 + np.abs(tau)), a=a, k=k, f=name))
            checks.append(_check("theta-mass-bound", [
                T.theta_mass(al, k, x) - T.theta_mass_bound(al, k, x)
                for x in (0.2, 0.8, 2.0)], a=a, k=k))
        x5 = np.array([0.5, -0.5, 1.0, -1.0, 2.0])    # one call per p
        checks.append(_check("theta-moment-identity", *(np.abs(
            T.theta0_moment(al, p, x5) - T.b_coeff(al, p + 1, x5))
            for p in range(5)), a=a))

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
        for k, rec in zip(ks, w_rec):
            rhs = rem(k - 1)[0] - (T.b_coeff(al, k - 1, sx)
                                   * dunkl_power(al, f, k - 1)(spt))
            sym = T.symmetric_remainder_profile(al, k, f, sx)(spt, tau=pair)
            checks.append(_check("remainder-step", np.abs(rem(k)[0] - rhs),
                                 a=a, k=k))
            checks.append(_check("remainder-recursion", rec, a=a, k=k))
            checks.append(_check("symmetric-remainder", np.abs(
                rem(k)[0] + rem(k)[1] - sym), a=a, k=k))
        # finite differences at two samples: one I_k call per (order, f)
        x2, u2 = np.transpose([(x, pt or 0.45) for x, pt in samples[:2]])
        fd = lambda k, g, n: dunkl_fd_power(al, lambda t: (
            T.iterated_integral_I(al, k, g, x2[:, None], t)), u2, n, h=2e-3)
        tau = translate_many(al, f, x2, u2)
        rems = [T.remainder_profile(al, k, f, x2)(u2, tau=tau) for k in (1, 2)]
        first = fd(1, f, (1, 2))    # rows L I_1 and L^2 I_1, x the columns
        for family, k, lhs, rhs in (    # |lhs - rhs| / (1 + |rhs|) per sample
                ("iterated-integral-remainder", 1, first[0], rems[0]),
                ("iterated-integral-shift", 1, first[1], fd(1, lf, 1)),
                ("iterated-integral-remainder", 2, fd(2, f, 2), rems[1])):
            checks.append(_check(family, np.abs(lhs - rhs) / (1.0 + np.abs(
                rhs)), a=a, k=k))

        z, w = _norm_rules(al)
        for k in DEFAULT_KS:
            n0_min = B.bump_order(k)
            phis = [hermite_phi(al, n) for n in (n0_min, n0_min + 1)]
            checks.append(_check("bump-moments-vanish", [abs(float(np.dot(
                w, z ** (2 * i) * phi(z))) / al.norm_const) for phi in phis
                for i in range(n0_min)], a=a, k=k))
    return checks


# ------------------------------------------------------------------ norms ----

def suite_norms(alphas=DEFAULT_ALPHAS, ks=DEFAULT_KS,
                ps=DEFAULT_PS) -> List[Dict]:
    checks = []
    xs = np.array([0.25, 0.5, 1.0, 2.0, 3.0])
    for a in alphas:
        al = AlphaParam(a)
        # ||R_j(x, f)|| and ||L^j f|| at every p from one set per function
        sets = [B.BesovSamples(al, f) for _, f in TEST_FUNCTIONS]
        for k in ks:
            # ||R_{k-1}|| and ||R_k|| against their constants times
            # ||L^{k-1} f||, per function and x
            coeffs = [np.array([c(al, k, x) for x in xs.tolist()]) for c in (
                T.remainder_norm_coeff, T.remainder_norm_coeff_same_order)]
            for p in ps:
                nk = [s.power_norm(k - 1, p) for s in sets]
                for family, j, c in zip(("remainder-norm-bound",
                                         "remainder-norm-bound-same-order"),
                                        (k - 1, k), coeffs):
                    checks.append(_check(family, *(
                        s.remainder_norm(xs, j, p) - c * n
                        for s, n in zip(sets, nk)), a=a, k=k, p=p))
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
            s_om, s_cv = (B.slope_estimate(list(zip(xs.tolist(), sm.value(
                kind, xs, k, 2.0)))) for kind in ("B", "C"))
            checks.append(_check("omega-scaling", abs(s_om - k), a=a, k=k))
            checks.append(_check(
                "conv-scaling", abs(s_cv - 2 * B.bump_order(k)), a=a, k=k,
                detail="even bumps force an even first moment; for odd k the "
                       "naive exponent-k window is unattainable"))

            rat = np.array([om / (x ** (k - 1) * ku) for x, om, ku in zip(
                xs2.tolist(), *(wide.value(kind, xs2, k, 2.0)
                                for kind in ("B", "K")))])
            s_r = B.slope_estimate(list(zip(xs2, rat)))
            checks.append(_check("sandwich-flatness", abs(s_r), a=a, k=k))
            checks.append(_check("sandwich-spread",
                                 rat.max() / rat.min() - 50.0, a=a, k=k))

    # one-sided convolution constants, seminorm margins and the p = 1 path;
    # no sample set or a non-finite seminorm value: INCONCLUSIVE (nan)
    margin = lambda e: e.margin if math.isfinite(e.value) else math.nan
    for a in alphas:
        al = AlphaParam(a)
        k = 2
        rep = reps[a]
        consts = [rep.get(f"conv_{side}_ratio_max", math.nan)
                  for side in ("upper", "lower")]
        checks.append(_check(
            "equivalence-diagnostics", 0.0 if all(map(
                math.isfinite, consts)) else math.nan, a=a, k=k, p=2.0,
            detail=f"upper ratio {rep.get('conv_upper_ratio_max', 'n/a')}, "
                   f"lower ratio {rep.get('conv_lower_ratio_max', 'n/a')}"
                   + (f", error {rep['error']}" if "error" in rep else "")))
        sm = rep.get("samples")
        lost = "" if sm is not None else f"no sample set: {rep['error']}"
        grids = ({} if sm is None else {
            kind: (COARSE_GRID, sm.value(kind, COARSE_GRID, k, 2.0))
            for kind in B.KINDS})
        for q in qs:
            for beta in betas:
                prq = _coarse_params(al, k, 2.0, q, beta)
                checks.append(_check("seminorms-finite", [
                    margin(B.seminorm_from_samples(prq, kind, *g))
                    for kind, g in grids.items()] or math.nan, a=a, k=k, q=q,
                    beta=beta, detail=lost))

        ok = math.nan
        if sm is not None:
            bt, cv = (B.seminorm_from_samples(_coarse_params(
                al, k, 1.0, 1.0, 0.5), kind, COARSE_GRID, sm.value(
                    kind, COARSE_GRID, k, 1.0)) for kind in ("B_tilde", "C"))
            # B_tilde finite => C finite: fails where only C diverges
            ok = np.minimum(-margin(bt), margin(cv))
        checks.append(_check(
            "p1-inclusion-direction", ok, a=a, k=k, detail=lost
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
