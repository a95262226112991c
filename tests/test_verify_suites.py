"""The identities suites against their former loop forms: one lp_norm call
per (k, p, f, x) in the norms suite, one per (p, f, x) and one scalar
transform per xi in the translate suite, and the taylor suite's sample
residuals per k and per sample; and a NaN sample of any family's check
reading INCONCLUSIVE."""

import functools
import math

import numpy as np
import pytest

from dunkl_lab import verify as V
from dunkl_lab import taylor as T
from dunkl_lab.special import AlphaParam
from dunkl_lab.funcalg import dunkl_power, dunkl_fd_power
from dunkl_lab.quad import LpContext, lp_norm
from dunkl_lab.dunklcore import (translate_many, w_total_variation, convolve,
                                 dunkl_transform,
                                 translate_convolution_commutes,
                                 product_formula_residual)


def _check(check_id, anchor, residual, tol, detail=""):
    # one record from a residual the loop reduced itself, with its ID,
    # anchor and tolerance written out
    status = "PASS" if residual <= tol else "FAIL"
    if not math.isfinite(residual):
        status = "INCONCLUSIVE"
    return {"id": check_id, "anchor": anchor, "residual": float(residual),
            "tolerance": float(tol), "status": status, "detail": detail}


def _numeric_lp(al, p, g, T=12.0):
    return lp_norm(LpContext(al, p, T), g)


def _suite_translate_loop(alphas):
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
        checks.append(_check(
            f"measure-mass-bound[a={a}]",
            "translation measure total variation <= sqrt(2)",
            worst - V.SQRT2, 1e-8))
        worst = 0.0
        for t in (0.3, 1.0, 2.5):
            for x, y in pairs9:
                worst = max(worst, product_formula_residual(al, x, y, t))
        checks.append(_check(f"product-formula[a={a}]",
                               "kernel product equals translated kernel",
                               worst, 1e-6))
        for p in (1.0, 2.0):
            worst = 0.0
            for name, f in V.TEST_FUNCTIONS:
                base = _numeric_lp(al, p, f)
                for x in (0.4, 1.1, 2.3):
                    prof = lambda ys, _x=x: translate_many(al, f, _x, ys)
                    worst = max(worst, _numeric_lp(al, p, prof, T=16.0) / base)
            checks.append(_check(
                f"translation-contraction[a={a},p={p:g}]",
                "translation norm ratio <= sqrt(2)", worst - V.SQRT2, 1e-6))
        f = V.TEST_FUNCTIONS[0][1]
        g = V.TEST_FUNCTIONS[2][1]
        conv = lambda us: convolve(al, f, g, us, T=12.0)
        for (p, q, r) in ((1.0, 1.0, 1.0), (1.0, 2.0, 2.0)):
            num = _numeric_lp(al, r, conv, T=16.0)
            den = _numeric_lp(al, p, f) * _numeric_lp(al, q, g)
            checks.append(_check(
                f"young-inequality[a={a},p={p:g},q={q:g},r={r:g}]",
                "convolution Young bound with constant sqrt(2)",
                num / den - V.SQRT2, 1e-6))
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


def _suite_norms_loop(alphas, ks=V.DEFAULT_KS, ps=V.DEFAULT_PS):
    checks = []
    xs = (0.25, 0.5, 1.0, 2.0, 3.0)
    for a in alphas:
        al = AlphaParam(a)
        for k in ks:
            for p in ps:
                worst_lo = worst_hi = -math.inf
                for name, f in V.TEST_FUNCTIONS:
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


def _taylor_sample_checks_loop(alphas, ks=V.DEFAULT_KS):
    # remainder-step, -recursion, symmetric-remainder and the finite
    # differences per k and per sample, each residual on its own samples
    # (remainder_recursion_residual at one k is checked against its per-k
    # form in tests/test_taylor.py)
    checks = []
    f = V.TEST_FUNCTIONS[2][1]
    samples = ((0.7, 0.45), (-1.3, 0.0), (1.9, -0.8))
    sx, spt = np.transpose(samples)
    for a in alphas:
        al = AlphaParam(a)
        lf = dunkl_power(al, f, 1)
        rem = lambda k: (T.remainder(al, k, f, sx, spt) if k
                         else translate_many(al, f, sx, spt))
        for k in ks:
            rhs = rem(k - 1) - (T.b_coeff(al, k - 1, sx)
                                * dunkl_power(al, f, k - 1)(spt))
            r = T.remainder(al, k, f, np.stack([sx, -sx]),
                            np.stack([spt, spt]))
            sym = np.abs(r[0] + r[1] - T.symmetric_remainder_profile(
                al, k, f, sx)(spt))
            for name, anchor, res in (
                    ("remainder-step", "one-term peeling of the remainder",
                     np.abs(rem(k) - rhs)),
                    ("remainder-recursion",
                     "remainder as kernel-weighted lower remainder",
                     T.remainder_recursion_residual(al, k, f, sx, spt)),
                    ("symmetric-remainder", "even-part remainder identity",
                     sym)):
                checks.append(_check(f"{name}[a={a},k={k}]", anchor,
                                       max(0.0, *res.tolist()), 1e-6))
        for k in (1, 2):
            w_nest = w_rem = 0.0
            for x, pt in samples[:2]:
                u = pt or 0.45
                g = lambda t, k=k, x=x: T.iterated_integral_I(al, k, f, x, t)
                lhs = dunkl_fd_power(al, g, u, k, h=2e-3)
                rhs = T.remainder_profile(al, k, f, x)(u)
                w_rem = max(w_rem, abs(lhs - rhs) / (1.0 + abs(rhs)))
                if k == 1:
                    lhs2 = dunkl_fd_power(al, g, u, 2, h=2e-3)
                    g2 = lambda t, x=x: T.iterated_integral_I(al, 1, lf, x, t)
                    rhs2 = dunkl_fd_power(al, g2, u, 1, h=2e-3)
                    w_nest = max(w_nest, abs(lhs2 - rhs2) / (1.0 + abs(rhs2)))
            checks.append(_check(
                f"iterated-integral-remainder[a={a},k={k}]",
                "k-fold operator on iterate gives remainder "
                "(finite differences)", w_rem, 1e-4))
            if k == 1:
                checks.append(_check(
                    f"iterated-integral-shift[a={a},k={k}]",
                    "extra operator application shifts inside the iterate "
                    "(finite differences)", w_nest, 1e-4))
    return checks


_SAMPLE_CHECKS = ("remainder-step", "remainder-recursion",
                  "symmetric-remainder", "iterated-integral-")


@pytest.mark.parametrize("alphas,ks", [((0.5,), V.DEFAULT_KS),
                                       ((-0.25, 1.0), (1, 2, 3, 4)),
                                       ((1.5,), (3, 1))])
def test_taylor_suite_equals_its_loop_form(alphas, ks):
    # the shared R_k(+-x) rows, the recursion over every k at once and one
    # iterated integral per finite-difference order give the per-k and
    # per-sample residuals bit for bit (resonant alpha = 1 and an order set
    # with gaps included)
    got = [c for c in V.suite_taylor(alphas=alphas, ks=ks)
           if c["id"].startswith(_SAMPLE_CHECKS)]
    assert got == _taylor_sample_checks_loop(alphas, ks)


def test_translate_suite_equals_its_loop_form():
    assert V.suite_translate(alphas=(0.5,)) == _suite_translate_loop((0.5,))


def test_translate_suite_builds_one_measure_rule_per_alpha():
    # every dmu_a integral on (0, T) (norms, convolve, dunkl_transform) reads
    # the cached L^p head rule: from cold caches, the translate suite builds
    # the head (160, 2a+1, 0) and tail (32, 0, 0) rules and the translation
    # rule (48, a-1/2, a-1/2), and no other
    from dunkl_lab import quad
    quad._jacobi_ref.cache_clear()
    quad._norm_rules.cache_clear()
    V.suite_translate(alphas=(0.5,))
    assert quad._jacobi_ref.cache_info().currsize == 3
    for key in ((160, 2.0, 0.0), (32, 0.0, 0.0), (48, 0.0, 0.0)):
        misses = quad._jacobi_ref.cache_info().misses
        quad._jacobi_ref(*key)
        assert quad._jacobi_ref.cache_info().misses == misses, key


def test_norms_suite_equals_its_loop_form():
    assert V.suite_norms(alphas=(0.5,)) == _suite_norms_loop((0.5,))
    # an order set with gaps, and one p
    assert V.suite_norms(alphas=(0.5,), ks=(3, 1), ps=(2.0,)) \
        == _suite_norms_loop((0.5,), ks=(3, 1), ps=(2.0,))


def test_norms_suite_opens_one_profile_per_order(monkeypatch):
    shapes = []
    orig = T.remainder_profile

    def profile(al, k, f, x):
        shapes.append((k, np.shape(x)))
        return orig(al, k, f, x)

    monkeypatch.setattr(T, "remainder_profile", profile)
    V.suite_norms(alphas=(0.5,))
    # orders 0..3 for k in {1, 2, 3}, per test function, each over the 5 x
    assert sorted(shapes) == sorted((j, (5, 1)) for j in range(4)
                                    for _ in V.TEST_FUNCTIONS)


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_norms_suite_translates_once_per_function_and_rule(monkeypatch):
    # tau_x f at the five x rows, once per test function and L^p rule (head
    # and tail), serves every order's profile: 3 x 2 closed-form passes
    # (test_norms_suite_equals_its_loop_form checks the values)
    from dunkl_lab import dunklcore
    calls = _count_calls(monkeypatch, dunklcore, "_translate_closed")
    V.suite_norms(alphas=(0.5,))
    assert len(calls) == 6


def test_taylor_suite_takes_each_remainder_and_theta_mass_once(monkeypatch):
    # 9 taylor-identity remainders, then per k one R_k on the rows [x, -x]
    # that serves the step check (R_{k-1} is the previous k's) and the
    # symmetric one: 12, where a separate symmetric call took 15 and
    # recomputing 20; one Theta mass integral per k (the x share a sign)
    T._unit_mass.cache_clear()
    rems = _count_calls(monkeypatch, T, "remainder")
    integrals = _count_calls(monkeypatch, T, "integrate")
    V.suite_taylor(alphas=(0.5,))
    assert (len(rems), len(integrals)) == (12, 3)


def test_taylor_suite_takes_each_sample_once(monkeypatch):
    # per alpha: 3 tau_x f(a) and 9 remainders (taylor identity), tau_x f,
    # 3 remainders on [x, -x], one pair sum and the recursion's tau_x f(a)
    # and Lf at the Theta_0 nodes (step, recursion, symmetric), and 3
    # iterated integrals and one tau_x f (finite differences): 23
    # closed-form translations, where taking them per k and per sample
    # took 40; 21 Theta-weighted integrals (9 + 5 moments + 3 + 1 + 3),
    # where 31
    from dunkl_lab import dunklcore
    translations = _count_calls(monkeypatch, dunklcore, "_translate_closed")
    weighted = _count_calls(monkeypatch, T, "_theta_weighted_integral")
    V.suite_taylor(alphas=(0.5,))
    assert len(translations) <= 23
    assert len(weighted) <= 21


def test_identity_check_loops_make_one_library_call_per_alpha(monkeypatch):
    # the 36 total variations are one call, the 25 Theta_0 moments one
    # call per p, and the kernel-eigenfunction stencils one real-lam kernel
    # call per lam (plus kernel-at-zero's); the scalar loops made 36, 25
    # and 33
    tv = _count_calls(monkeypatch, V, "w_total_variation")
    V.suite_translate(alphas=(0.5,))
    assert len(tv) == 1
    weighted = _count_calls(monkeypatch, T, "_theta_weighted_integral")
    V.suite_taylor(alphas=(0.5,), ks=(1,))
    assert len([c for c in weighted if c[3].__qualname__.startswith(
        "theta0_moment.")]) <= 5
    kernel = _count_calls(monkeypatch, V, "dunkl_kernel")
    V.suite_kernel(alphas=(0.5,))
    assert len([c for c in kernel if not complex(c[1]).imag]) <= 7


def test_identity_suites_bessel_and_translation_work(monkeypatch):
    # machine-independent work of the kernel, translate, taylor and norms
    # suites from an empty grid-factor cache: Bessel values (_scaled_j) and
    # translated points (translate_many).  Each taylor-suite sample taken
    # once reads 147,322 and 283,855; one Gauss rule per Theta family and
    # one Bessel pass per repeated grid read 159,850 and 292,021; one rule
    # per term and no reuse read 498,474 and 465,701
    import sys
    from dunkl_lab import dunklcore
    dunklcore._FACTORS.clear()
    work = {"bessel": 0, "points": 0}
    scaled_j, orig = dunklcore._scaled_j, dunklcore.translate_many

    def count_bessel(nu, w):
        work["bessel"] += w.size
        return scaled_j(nu, w)

    def count_points(alpha, f, x, ys):
        work["points"] += np.broadcast(np.asarray(x), np.asarray(ys)).size
        return orig(alpha, f, x, ys)

    monkeypatch.setattr(dunklcore, "_scaled_j", count_bessel)
    for name, module in list(sys.modules.items()):
        if (name.startswith("dunkl_lab")
                and getattr(module, "translate_many", None) is orig):
            monkeypatch.setattr(module, "translate_many", count_points)
    for suite in ("kernel", "translate", "taylor", "norms"):
        V.SUITES[suite]()
    assert work["bessel"] <= 147_322
    assert work["points"] <= 283_855


@pytest.mark.parametrize("path", ["real", "imaginary"])
def test_kernel_at_zero_sees_a_first_order_error(monkeypatch, path):
    # the w/(2(a+1)) term of E_a(w) 1e-6 too large on one kernel path only
    # (x is a float or, on the eigenfunction's stencils, an array)
    kernel = V.dunkl_kernel
    hit = {"real": lambda w: not np.any(w.imag),
           "imaginary": lambda w: not np.any(w.real)}[path]

    def scaled(al, lam, x):
        w = complex(lam) * np.asarray(x)
        e = kernel(al, lam, x)
        return e + 1e-6 * w / (2.0 * (al.alpha + 1.0)) if hit(w) else e

    at_zero = lambda: [c for c in V.suite_kernel()
                       if c["id"].startswith("kernel-at-zero")]
    assert [c["status"] for c in at_zero()] == ["PASS"] * 3
    monkeypatch.setattr(V, "dunkl_kernel", scaled)
    assert [c["status"] for c in at_zero()] == ["FAIL"] * 3


def _spoil(monkeypatch, owner, name, when=lambda *args: True, at=-1):
    # owner.name returns NaN at entry `at` of its result (a scalar result
    # becomes NaN) on the calls `when` selects
    orig = getattr(owner, name)

    def spoiled(*args, **kwargs):
        out = orig(*args, **kwargs)
        if not when(*args):
            return out
        if np.ndim(out) == 0:
            return math.nan
        out = np.array(out)
        out.flat[at] = math.nan
        return out

    monkeypatch.setattr(owner, name, spoiled)


def _spoil_bump(monkeypatch):
    # each bump's last node value NaN: every moment of the check is NaN
    orig = V.hermite_phi
    monkeypatch.setattr(V, "hermite_phi", lambda al, n: (
        lambda z, phi=orig(al, n): np.append(phi(z)[:-1], math.nan)))


def _besov_window(kind, size):
    # the samples of one kind at the scaling (8 x) or sandwich (12 x) window
    return lambda samples, got, xs, *_: got == kind and np.size(xs) == size


_CUBIC = V.TEST_FUNCTIONS[2][1]
# (suite, check ID at a = 0.5, the one library call that returns a NaN):
# the 18 families whose samples the parent's Python max reduced, the
# three slope checks and the two seminorm checks
_NAN_CASES = {
    "kernel-modulus-bound[a=0.5]": (
        "kernel", lambda mp: _spoil(mp, V, "dunkl_kernel_it")),
    "kernel-at-zero[a=0.5]": ("kernel", lambda mp: _spoil(
        mp, V, "dunkl_kernel", lambda al, lam, x: np.ndim(x) == 0)),
    "kernel-eigenfunction[a=0.5]": ("kernel", lambda mp: _spoil(
        mp, V, "dunkl_kernel", lambda al, lam, x: np.ndim(x) == 2)),
    "product-formula[a=0.5]": (
        "translate", lambda mp: _spoil(mp, V, "product_formula_residual")),
    "translation-contraction[a=0.5,p=1]": (
        "translate", lambda mp: _spoil(mp, V, "translate_many")),
    "transform-of-convolution[a=0.5]": (
        "translate", lambda mp: _spoil(mp, V, "dunkl_transform")),
    "translate-convolve-commute[a=0.5]": ("translate", lambda mp: _spoil(
        mp, V, "translate_convolution_commutes")),
    "theta-mass-bound[a=0.5,k=1]": (
        "taylor", lambda mp: _spoil(mp, T, "theta_mass")),
    "theta-moment-identity[a=0.5]": (
        "taylor", lambda mp: _spoil(mp, T, "theta0_moment")),
    # row x of R_k on [x, -x] (step and symmetric), then row -x (symmetric)
    "remainder-step[a=0.5,k=1]": ("taylor", lambda mp: _spoil(
        mp, T, "remainder", lambda al, k, f, x, a: np.ndim(x) == 2, at=0)),
    "symmetric-remainder[a=0.5,k=1]": ("taylor", lambda mp: _spoil(
        mp, T, "remainder", lambda al, k, f, x, a: np.ndim(x) == 2)),
    "remainder-recursion[a=0.5,k=1]": ("taylor", lambda mp: _spoil(
        mp, T, "remainder_recursion_residual", at=0)),
    "iterated-integral-remainder[a=0.5,k=2]": ("taylor", lambda mp: _spoil(
        mp, T, "iterated_integral_I", lambda al, k, *_: k == 2)),
    "iterated-integral-shift[a=0.5,k=1]": ("taylor", lambda mp: _spoil(
        mp, T, "iterated_integral_I", lambda al, k, g, *_: g is not _CUBIC)),
    "bump-moments-vanish[a=0.5,k=1]": ("taylor", _spoil_bump),
    # the last node value of tau_x f at x = 3: one of the 15 (f, x) samples
    "remainder-norm-bound[a=0.5,k=1,p=1]": (
        "norms", lambda mp: _spoil(mp, V, "translate_many")),
    "remainder-norm-bound-same-order[a=0.5,k=1,p=1]": (
        "norms", lambda mp: _spoil(mp, V, "translate_many")),
    "sandwich-spread[a=0.5,k=2]": ("besov", lambda mp: _spoil(
        mp, V.B.BesovSamples, "value", _besov_window("K", 12))),
    "omega-scaling[a=0.5,k=2]": ("besov", lambda mp: _spoil(
        mp, V.B.BesovSamples, "value", _besov_window("B", 8))),
    "conv-scaling[a=0.5,k=2]": ("besov", lambda mp: _spoil(
        mp, V.B.BesovSamples, "value", _besov_window("C", 8))),
    "sandwich-flatness[a=0.5,k=2]": ("besov", lambda mp: _spoil(
        mp, V.B.BesovSamples, "value", _besov_window("K", 12))),
    # the last C sample on the seminorm grid, at p = 2 and at p = 1: the
    # seminorm's edge slopes skip it, its value is NaN
    "seminorms-finite[a=0.5,k=2,q=1,beta=0.3]": ("besov", lambda mp: _spoil(
        mp, V.B.BesovSamples, "value", _besov_window(
            "C", V.COARSE_GRID.size))),
    "p1-inclusion-direction[a=0.5,k=2]": ("besov", lambda mp: _spoil(
        mp, V.B.BesovSamples, "value", _besov_window(
            "C", V.COARSE_GRID.size))),
}


@pytest.mark.parametrize("check_id", list(_NAN_CASES))
def test_nan_sample_is_inconclusive(monkeypatch, check_id):
    # one NaN entry among finite samples makes the residual NaN, never a
    # PASS on the finite rest
    suite, spoil = _NAN_CASES[check_id]
    run = functools.partial(V.SUITES[suite], alphas=(0.5,))
    if suite == "besov":
        run = functools.partial(run, ks=(2,))
    assert {c["id"]: c["status"] for c in run()}[check_id] == "PASS"
    spoil(monkeypatch)
    got = {c["id"]: c for c in run()}[check_id]
    assert got["status"] == "INCONCLUSIVE"
    assert math.isnan(got["residual"])
