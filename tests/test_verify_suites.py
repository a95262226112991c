"""The identities suites' work: the library calls, translations and Bessel
values each takes, and its L^p norms against fresh lp_norm calls; and a NaN
sample of any family's check reading INCONCLUSIVE.  Their records are pinned
by the reference report (tests/test_acceptance.py)."""

import functools
import math

import numpy as np
import pytest

from dunkl_lab import verify as V
from dunkl_lab import taylor as T
from dunkl_lab.funcalg import dunkl_power
from dunkl_lab.quad import LpContext, lp_norm


def test_translate_suite_builds_one_measure_rule_per_alpha():
    # every dmu_a integral on (0, T) (norms, convolve, dunkl_transform) reads
    # the cached L^p rule: from cold caches, the translate suite builds that
    # rule (160, 2a+1, 0) and the translation rule (48, a-1/2, a-1/2), and
    # no other
    from dunkl_lab import quad
    quad._jacobi_ref.cache_clear()
    quad._norm_rules.cache_clear()
    V.suite_translate(alphas=(0.5,))
    assert quad._jacobi_ref.cache_info().currsize == 2
    for key in ((160, 2.0, 0.0), (48, 0.0, 0.0)):
        misses = quad._jacobi_ref.cache_info().misses
        quad._jacobi_ref(*key)
        assert quad._jacobi_ref.cache_info().misses == misses, key


def test_translate_and_taylor_suites_share_one_norm_rule():
    # the norms, convolutions, transforms and bump moments of both suites
    # read the one L^p rule of their alpha: one _norm_rules entry in all
    from dunkl_lab import quad
    quad._norm_rules.cache_clear()
    V.suite_translate(alphas=(0.6875,))
    V.suite_taylor(alphas=(0.6875,), ks=(1,))
    assert quad._norm_rules.cache_info().currsize == 1


def test_norms_suite_opens_one_profile_per_order(monkeypatch):
    # the sample sets open the profiles, through besov's binding
    shapes = []
    orig = V.B.remainder_profile

    def profile(al, k, f, x):
        shapes.append((k, np.shape(x)))
        return orig(al, k, f, x)

    monkeypatch.setattr(V.B, "remainder_profile", profile)
    V.suite_norms(alphas=(0.5,))
    # orders 0..3 for k in {1, 2, 3}, per test function, each over the 5 x
    assert sorted(shapes) == sorted((j, (5, 1)) for j in range(4)
                                    for _ in V.TEST_FUNCTIONS)


@pytest.mark.parametrize("suite", ["translate", "norms"])
def test_suite_norms_are_fresh_lp_norms_at_norm_t(monkeypatch, suite):
    # every ||R_j(x, f)||_p (j = 0: tau_x f) and ||L^j f||_p the suite reads
    # from its sample sets is lp_norm of the profile at NORM_T, bit for bit;
    # the suite builds no L^p rule of its own
    reads = []
    for name in ("remainder_norm", "power_norm"):
        orig = getattr(V.B.BesovSamples, name)

        def read(s, *args, _orig=orig, _name=name):
            out = _orig(s, *args)
            reads.append((_name, s.alpha, s.f, args, np.ravel(out)))
            return out

        monkeypatch.setattr(V.B.BesovSamples, name, read)
    rules = _count_calls(monkeypatch, V, "_norm_rules")
    V.SUITES[suite]()
    assert not rules
    assert {(name, args[-2]) for name, _, _, args, _ in reads} >= {
        ("remainder_norm", 0), ("power_norm", 0)}
    for name, al, f, args, got in reads:
        ctx = LpContext(al, args[-1])
        if name == "remainder_norm":
            xs, j, _ = args
            want = [lp_norm(ctx, T.remainder_profile(al, j, f, x))
                    for x in np.ravel(xs).tolist()]
        else:
            want = [lp_norm(ctx, dunkl_power(al, f, args[0]))]
        assert got.tolist() == want, (name, al, args)


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_norms_suite_translates_once_per_function_and_rule(monkeypatch):
    # tau_x f at the five x rows, once per test function on the nodes of
    # both L^p rules (head and tail), serves every order's profile: 3
    # closed-form passes
    from dunkl_lab import dunklcore
    calls = _count_calls(monkeypatch, dunklcore, "_translate_closed")
    V.suite_norms(alphas=(0.5,))
    assert len(calls) == 3


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
    # the last L^p node value of tau_x f at x = 2.3 (one of 9 (f, x)
    # samples): the sample sets translate through besov's binding
    "translation-contraction[a=0.5,p=1]": (
        "translate", lambda mp: _spoil(mp, V.B, "translate_many")),
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
    # the last L^p node value of tau_x f at x = 3: one of the 15 (f, x)
    # samples
    "remainder-norm-bound[a=0.5,k=1,p=1]": (
        "norms", lambda mp: _spoil(mp, V.B, "translate_many")),
    "remainder-norm-bound-same-order[a=0.5,k=1,p=1]": (
        "norms", lambda mp: _spoil(mp, V.B, "translate_many")),
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
