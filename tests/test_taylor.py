import functools
import itertools
import math

import numpy as np
import pytest

from scipy import integrate as sint

from dunkl_lab import quad, taylor
from dunkl_lab.special import AlphaParam
from dunkl_lab.funcalg import GaussPolyFunction, dunkl_power, dunkl_fd_power
from dunkl_lab.dunklcore import translate, translate_many
from dunkl_lab.verify import CATALOG, TAYLOR_PAIRS, TEST_FUNCTIONS
from dunkl_lab.taylor import (b_coeff, _eval_terms, _theta_terms,
                              theta_mass, theta_mass_bound,
                              theta0_moment,
                              remainder, remainder_profile,
                              remainder_recursion_residual,
                              iterated_integral_I,
                              symmetric_remainder_profile,
                              remainder_norm_coeff,
                              remainder_norm_coeff_same_order)

import oracles

AL = AlphaParam(0.5)
F = GaussPolyFunction((1.0, 0.5, 0.0, 0.2), 1.0)


def symmetric_remainder_residual(alpha, k, f, x, a):
    # oracle: the even-coefficient form against R_k(x) + R_k(-x), two rows of
    # one integral remainder call; x and a may be arrays (verify's taylor
    # suite takes the same two rows, shared with its remainder-step check)
    xb, ab = np.broadcast_arrays(np.asarray(x, float), np.asarray(a, float))
    r = remainder(alpha, k, f, np.stack([xb, -xb]), np.stack([ab, ab]))
    out = np.abs(r[0] + r[1] - symmetric_remainder_profile(alpha, k, f, x)(a))
    return out if out.ndim else float(out)


def test_b_coeff_closed_forms():
    a = AL.alpha
    assert b_coeff(AL, 0, 1.7) == 1.0
    assert b_coeff(AL, 1, 1.7) == pytest.approx(1.7 / (2.0 * (a + 1.0)))
    assert b_coeff(AL, 2, 1.7) == pytest.approx(1.7 ** 2 / (4.0 * (a + 1.0)))
    assert b_coeff(AL, 3, 0.8) == pytest.approx(
        (0.8 / 2.0) ** 3 / ((a + 1.0) * (a + 2.0)))
    with pytest.raises(ValueError):
        b_coeff(AL, -1, 1.0)


def test_b_coeff_dunkl_ladder():
    # L b_{p+1} = b_p, the defining property of the coefficient family
    from dunkl_lab.funcalg import dunkl_apply
    for p in range(4):
        # b_{p+1} as the monomial c y^(p+1) of the algebra
        c = b_coeff(AL, p + 1, 2.0) / 2.0 ** (p + 1)
        lb = dunkl_apply(AL, GaussPolyFunction((0.0,) * (p + 1) + (c,), 0.0))
        xs = np.linspace(0.3, 2.0, 7)
        np.testing.assert_allclose(lb(xs), b_coeff(AL, p, xs), rtol=1e-12)


def _theta(a, k, x, y):
    """Theta_k(x, y) = |x|^(k-2a-1) Theta_k(sgn x, y/|x|) from the table on
    the unit interval."""
    ax = abs(x)
    return ax ** (k - 2.0 * a - 1.0) * _eval_terms(
        oracles.theta_table(a, k, math.copysign(1.0, x)), y / ax)


# pairs (x, y) at |x| of order one, small and large
THETA_POINTS = [(1.4, 0.6), (1.4, -0.6), (-2.0, 1.1), (1e-3, 4e-4),
                (-1e-3, -7e-4), (50.0, -21.0), (-50.0, 33.0)]


def test_theta0_closed_form():
    # Theta_0(x, y) = sgn(x)/(2 A(x)) + sgn(y)/(2 A(y))
    for x, y in [(1.3, 0.5), (-0.9, 0.4), (1.0, -0.6)] + THETA_POINTS:
        ref = (math.copysign(0.5, x) / abs(x) ** AL.weight_exp
               + math.copysign(0.5, y) / abs(y) ** AL.weight_exp)
        assert _theta(AL.alpha, 0, x, y) == pytest.approx(ref, rel=1e-13)


def _theta_nested(alpha, k, x, y):
    """Theta_k(x, y), y != 0, by nesting QUADPACK (scipy, a test-only
    oracle, at tolerances tighter than the library's) through the u/v
    recursion: the reference for the term tables."""
    tol = {"epsabs": 1e-12, "epsrel": 1e-10}
    ax = abs(x)
    we = alpha.weight_exp

    def u(j, m):
        if j == 0:
            return math.copysign(0.5, x) / ax ** we
        if m >= ax:
            return 0.0
        return sint.quad(lambda z: v(j - 1, z), m, ax, **tol)[0]

    def v(j, m):
        # value of v_j(x, z) at z = m > 0
        if j == 0:
            return 0.5 / m ** we
        if m >= ax:
            return 0.0
        return sint.quad(lambda z: u(j - 1, z) * z ** we, m, ax,
                         **tol)[0] / m ** we

    return u(k, abs(y)) + math.copysign(1.0, y) * v(k, abs(y))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("a", [0.5, 0.0, 1.0])
def test_theta_terms_vs_nested_quadrature(a, k):
    # alpha = 0 (every k here) and alpha = 1 (k = 3) carry log terms
    al = AlphaParam(a)
    for x, y in THETA_POINTS:
        assert _theta(a, k, x, y) == pytest.approx(
            _theta_nested(al, k, x, y), rel=1e-12), (x, y)


@pytest.mark.parametrize("a,k", [(0.0, 2), (0.0, 3), (1.0, 4)])
def test_theta_resonant_alpha_has_log_terms(a, k):
    # an antiderivative exponent reaches -1: Theta_{k-1} gets a log term,
    # and the Taylor identity holds as at any other alpha
    al = AlphaParam(a)
    assert any(j for _c, _sp, _e, j in _theta_terms(a, k - 1))
    for x, pt in [(0.9, 0.35), (-1.4, 0.0), (2.0, -0.7)]:
        scale = abs(translate(al, F, x, pt)) + 1.0
        gap = remainder(al, k, F, x, pt) - remainder_profile(al, k, F, x)(pt)
        assert abs(gap) / scale < 1e-12
        assert remainder(al, k, F, x, pt) == pytest.approx(
            remainder_profile(al, k, F, x)(pt), rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("ee", [1.0, 3.0])
@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("x,a", [(1.3, 0.0), (-0.6, 0.0), (2.5, 1.7)])
def test_log_term_rule_against_quadpack(monkeypatch, ee, j, x, a):
    # one term |t|^e log^j |t| (e = ee - 2 alpha - 1) of a unit-interval
    # table on y |-> tau_y f(a), y = |x| t: the rule on (0, 1) after t = u^3,
    # one piece across |y| = |a|; Theta_0(-1, t) = -Theta_0(1, -t), so the
    # table's coefficient sgn(x) gives the term coefficient 1 at either sign
    al, ax = AlphaParam(0.0), abs(x)
    monkeypatch.setattr(taylor, "_theta_terms", lambda a, k: (
        (math.copysign(1.0, x), 0, ee - al.weight_exp, j),))
    got = taylor._theta_weighted_integral(
        al, 0, x, lambda ys, rows: translate_many(al, F, a, ys))
    ref, _ = sint.quad(lambda z: (z / ax) ** ee * math.log(z / ax) ** j
                       * (translate(al, F, z, a) + translate(al, F, -z, a)),
                       0.0, ax, epsabs=1e-14, epsrel=1e-13)
    assert got == pytest.approx(ref, rel=1e-12)


def _per_term_integral(al, order, x, h, s):
    """_theta_weighted_integral at one x with one Gauss rule on (0, 1) per
    Theta term, for its own weighted exponent (and log power, after
    t = u^3), the layout before terms shared a family's rule.  Kept: other
    rules than the library's, so agreement to 1e-13 is evidence, not a copy
    of its float path."""
    ax = abs(x)
    n = 40 * min(max(math.ceil(ax * math.sqrt(max(s, 1.0)) / 4.0), 1), 10)
    total = 0.0
    sign = math.copysign(1.0, x)
    for c, sp, e, j in oracles.theta_table(al.alpha, order, sign):
        ee = e + al.weight_exp
        if j:
            u, w = quad.jacobi_rule(n, 3.0 * ee + 2.0, 0.0, 1.0)
            t, w = u ** 3, 3.0 * w * (3.0 * np.log(u)) ** j
        else:
            t, w = quad.jacobi_rule(n, ee, 0.0, 1.0)
        total += c * np.dot(w, h(ax * t) + (-1.0) ** sp * h(-ax * t))
    return ax ** (order + 1) * total


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0, 1.5, 47.0, 140.0])
def test_family_rules_match_per_term_rules(alpha):
    # a family's rule times t^m is exact for h of degree <= 2n - 1 - m, and
    # m <= 2(order + 1) keeps that near the per-term rules' 2n - 1; at
    # alpha = 47 and 140 the ladders j and 2a+1+j stay apart (a t^281
    # factor on the rule for t^0 is off by 1e-12)
    al = AlphaParam(alpha)
    logs = False
    for order in range(7):
        logs |= any(j for *_, j in _theta_terms(alpha, order))
        for f in CATALOG.values():
            for x, a in ((0.6, 0.3), (-1.7, 0.9), (5.0, -0.4)):
                h = functools.partial(translate_many, al, f, a)
                got = taylor._theta_weighted_integral(
                    al, order, x, lambda ys, rows: h(ys), f.gauss_scale)
                ref = _per_term_integral(al, order, x, h, f.gauss_scale)
                assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref)), \
                    (order, f, x)
    assert logs == (alpha in (0.0, 1.0))


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 1.0, 1.5])
def test_theta_rows_of_either_sign_equal_one_row_calls_bitwise(alpha):
    # every row reads the one table of Theta_order(1, .); a row whose x has
    # its sign bit set, -0.0 included, takes it through the sign flip
    al = AlphaParam(alpha)
    h = lambda ys, rows: translate_many(al, F, 0.45, ys)
    for order in range(5):
        for x in (0.6, 2.1, 5.0):
            xs = [x, -x, -0.0, 0.0]
            got = taylor._theta_weighted_integral(al, order, np.array(xs), h,
                                                  F.gauss_scale)
            one = [taylor._theta_weighted_integral(al, order, v, h,
                                                   F.gauss_scale) for v in xs]
            assert got.tobytes() == np.array(one).tobytes(), (order, x)


LARGE_X = (20.0, np.linspace(-22.0, 22.0, 23))     # x and a at |x| = 20


def _recurrence_gaps(alphas, xs, us, fs=tuple(dict(TEST_FUNCTIONS).values())):
    """(alpha, f, k, gap) for k = 1, 2, 3: the largest gap of the integral
    remainder to the recurrence form, relative to 1 + |tau|."""
    for alpha, f in itertools.product(alphas, fs):
        al = AlphaParam(alpha)
        tau = translate_many(al, f, xs, us)
        for k in (1, 2, 3):
            gap = (remainder(al, k, f, xs, us)
                   - remainder_profile(al, k, f, xs)(us, tau=tau))
            yield alpha, f, k, np.max(np.abs(gap) / (1.0 + np.abs(tau)))


def test_remainder_at_small_a_matches_recurrence():
    # y |-> tau_y f(a) is analytic, with no kink at |y| = |a|: one rule per
    # Theta term on (0, |x|) keeps the integral form on the recurrence form
    # as a -> 0 (a split at |a| was off by up to 1.3e-4 here)
    xs = np.array([[0.3], [1.0], [2.0]])
    us = np.array([1e-9, 1e-6, 1e-4, 1e-3, 1e-2])
    for *case, gap in _recurrence_gaps((-0.25, 0.0, 0.5), xs, us):
        assert gap <= 1e-12, case


def test_remainder_at_large_x_matches_recurrence():
    # the catalog's translates vary on a scale of one: at |x| = 20 the rules
    # take 200 nodes (40 left the remainder off by 6 relative to 1+|tau|)
    for *case, gap in _recurrence_gaps((-0.25, 0.0, 0.5, 1.5), *LARGE_X):
        assert gap <= 1e-4, case


@pytest.mark.xfail(strict=True, reason="the integral remainder drifts at "
                   "large |x|, by up to 7e-6 relative to 1+|tau| at |x| = 20")
def test_remainder_at_large_x_matches_recurrence_to_1e_9():
    # the same cases as above at the accuracy reached for |x| <= 2
    for *case, gap in _recurrence_gaps((-0.25, 0.0, 0.5, 1.5), *LARGE_X):
        assert gap <= 1e-9, case


def test_remainder_of_a_narrow_gaussian_matches_recurrence():
    # tau_y f(a) for f = p(y) e^(-s y^2) varies on the length 1/sqrt(s): at
    # s = 25 and |x| = 4 the rules take 200 nodes, as at s = 1 and |x| = 20
    # (40 nodes left the remainder off by 1.0 relative to 1+|tau|)
    fs = [GaussPolyFunction(c, 25.0) for c in ((1.0,), (0.0, 1.0),
                                               (1.0, 0.5, 0.0, 0.2))]
    xs, us = np.array([[-4.0], [4.0]]), np.linspace(-4.4, 4.4, 23)
    for *case, gap in _recurrence_gaps((-0.25, 0.0, 0.5, 1.5), xs, us, fs):
        assert gap <= 1e-6, case


def test_remainder_against_closed_form():
    # R_k(x, f)(a) = tau_x f(a) - sum_{p<k} b_p(x) L^p f(a) at 40 digits, at
    # verify's pairs and three with small a
    mp = pytest.importorskip("mpmath")
    pairs = list(TAYLOR_PAIRS) + [(0.3, 1e-6), (2.0, 1e-6), (2.0, 0.01)]
    xs, us = np.transpose(pairs)
    for alpha, (name, f) in itertools.product(
            (-0.25, 0.0, 0.5, 1.0, 1.5), TEST_FUNCTIONS):
        al = AlphaParam(alpha)
        with mp.workdps(40):
            tau = [oracles.tau(mp, alpha, f, x, [a])[0] for x, a in pairs]
            assert np.max(np.abs(np.array(tau, dtype=float)
                                 - translate_many(al, f, xs, us))) < 1e-13
            for k in (1, 2, 3):
                got = remainder(al, k, f, xs, us)
                for (x, a), t, g in zip(pairs, tau, got.tolist()):
                    ref = t - mp.fsum(
                        oracles.b_coeff(mp, alpha, p, x)
                        * oracles.dunkl_power(mp, alpha, f, p, a)
                        for p in range(k))
                    assert abs(g - ref) <= 2e-13 * (1 + abs(t)), (
                        name, k, x, a)


def test_theta_mass_against_coefficient_bound():
    for k in (1, 2, 3):
        for x in (0.4, 1.0, 2.2):
            m = theta_mass(AL, k, x)
            bound = (b_coeff(AL, k, x) + x * b_coeff(AL, k - 1, x))
            assert m <= bound + 1e-12
            assert m > 0.0


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
@pytest.mark.parametrize("x", [0.3, -1.7, 2.0])
def test_theta_mass_bound_is_the_one_formula(alpha, x):
    # cli, verify and remainder_norm_coeff share it, bit for bit
    al = AlphaParam(alpha)
    for k in (1, 2, 3, 5):
        assert theta_mass_bound(al, k, x) == (
            b_coeff(al, k, abs(x)) + abs(x) * b_coeff(al, k - 1, abs(x)))
        assert remainder_norm_coeff(al, k + 1, x) \
            == math.sqrt(2.0) * theta_mass_bound(al, k, x)


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_theta_mass_bound_holds_at_k_31(alpha):
    # theta_mass / bound is 0.04-0.08 at x = 1 here
    al = AlphaParam(alpha)
    assert 0.0 < theta_mass(al, 31, 1.0) <= theta_mass_bound(al, 31, 1.0)


@pytest.mark.xfail(strict=True, reason="from k ~ 37 the terms of the "
                   "Theta_(k-1) table cancel: theta_mass exceeds its bound "
                   "14-359 fold at k = 43")
@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_theta_mass_bound_holds_at_k_43(alpha):
    al = AlphaParam(alpha)
    assert 0.0 < theta_mass(al, 43, 1.0) <= theta_mass_bound(al, 43, 1.0)


def test_theta0_moment_is_next_coefficient():
    for p in range(4):
        for x in (0.7, -1.2, 2.0):
            assert theta0_moment(AL, p, x) == pytest.approx(
                b_coeff(AL, p + 1, x), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_theta0_moment_on_an_array_equals_scalar_calls_bitwise(alpha):
    # one row per x, at both node counts (|x| <= 4 and 6) and at x = -0.0
    al = AlphaParam(alpha)
    xs = np.array([[0.5, -0.5, 1.0, -1.0], [2.0, -0.0, 6.0, -6.0]])
    for p in range(5):
        got = theta0_moment(al, p, xs)
        one = [theta0_moment(al, p, x) for x in xs.ravel().tolist()]
        assert got.shape == xs.shape and all(type(v) is float for v in one)
        assert got.tobytes() == np.array(one).reshape(xs.shape).tobytes()


def test_remainder_modes_agree():
    # the integral remainder against the recurrence form of the profile
    for x, a in [(0.8, 0.3), (-1.2, 0.0), (1.7, -0.9)]:
        ri = remainder(AL, 2, F, x, a)
        rr = remainder_profile(AL, 2, F, x)(a)
        assert ri == pytest.approx(rr, rel=1e-9, abs=1e-11)
    with pytest.raises(ValueError):
        remainder(AL, 0, F, 0.5, 0.1)
    with pytest.raises(ValueError):
        remainder_profile(AL, -1, F, 0.5)


def test_taylor_exact_for_low_degree_polynomials():
    # if L^k f = 0 the remainder vanishes and the expansion is exact
    f = GaussPolyFunction((0.0, 0.0, 1.0), 0.0)   # x^2, killed by L^3
    x, a = 1.1, 0.4
    assert dunkl_power(AL, f, 3).coeffs == (0.0,)
    rhs = sum(b_coeff(AL, p, x) * dunkl_power(AL, f, p)(a) for p in range(3))
    assert translate(AL, f, x, a) == pytest.approx(rhs, rel=1e-12)
    assert remainder(AL, 3, f, x, a) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_taylor_identity(k):
    for x, a in [(0.9, 0.35), (-1.4, 0.0), (2.0, -0.7)]:
        scale = abs(translate(AL, F, x, a)) + 1.0
        gap = remainder(AL, k, F, x, a) - remainder_profile(AL, k, F, x)(a)
        assert abs(gap) / scale < 1e-9


def test_remainder_recursion():
    for k in (2, 3):
        assert remainder_recursion_residual(AL, k, F, 1.1, 0.45) < 1e-9


def test_x_zero_gives_exact_zeros_for_every_remainder_residual():
    # R_k(0, f) = 0: the Theta-weighted integrals scale by |x|^k, so x = 0
    # is a value, alone or as a row among others
    for fn in (remainder_recursion_residual, symmetric_remainder_residual,
               remainder, iterated_integral_I):
        for k in (1, 2, 3):
            assert fn(AL, k, F, 0.0, 0.45) == 0.0, (fn.__name__, k)
            rows = fn(AL, k, F, np.array([0.7, 0.0, -0.0]), 0.45)
            assert rows.tolist() == [fn(AL, k, F, 0.7, 0.45), 0.0, 0.0]
    assert theta_mass(AL, 2, 0.0) == 0.0


@pytest.mark.parametrize("alpha,x", [(0.5, 1e-300), (0.5, -1e-200),
                                     (60.0, 1e-3), (60.0, -1e-3)])
def test_taylor_identity_at_tiny_x(alpha, x):
    # |x|^(2a+1) underflows here; the unit-interval tables never form it
    al = AlphaParam(alpha)
    for k in (1, 2, 3):
        for a in (0.3, 0.0, -1.1):
            gap = remainder(al, k, F, x, a) - remainder_profile(al, k, F, x)(a)
            assert abs(gap) <= 1e-12, (k, a)
        assert 0.0 <= theta_mass(al, k, x) <= (
            b_coeff(al, k, abs(x)) + abs(x) * b_coeff(al, k - 1, abs(x)))


@pytest.mark.parametrize("alpha,k", [(-0.25, 1), (0.5, 2), (1.5, 3)])
def test_array_residuals_equal_scalar_calls_bitwise(alpha, k):
    # one row per (x, a) pair, as verify's taylor suite calls them
    al = AlphaParam(alpha)
    xs = np.array([0.7, -1.3, 1.9, 9.0])
    pts = np.array([0.45, 0.0, -0.8, 2.2])
    for fn in (remainder_recursion_residual, symmetric_remainder_residual):
        rows = fn(al, k, F, xs, pts)
        assert rows.shape == xs.shape
        assert rows.tolist() == [fn(al, k, F, float(x), float(pt))
                                 for x, pt in zip(xs, pts)]
        assert isinstance(fn(al, k, F, 0.7, 0.45), float)


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_recursion_residual_broadcasts_k_bitwise(alpha):
    # k broadcasts like x and a: a column of k against rows of (x, a) gives
    # the scalar-k calls' rows bit for bit, x = 0 and a = 0 included, and a
    # scalar triple stays a float
    al = AlphaParam(alpha)
    xs = np.array([0.7, -1.3, 1.9, 9.0, 0.0, -0.0])
    pts = np.array([0.45, 0.0, -0.8, 2.2, 0.3, 0.0])
    ks = np.array([1, 2, 3, 4])
    got = remainder_recursion_residual(al, ks[:, None], F, xs, pts)
    ref = [remainder_recursion_residual(al, k, F, xs, pts) for k in range(1, 5)]
    assert got.shape == (4, 6)
    assert got.tobytes() == np.array(ref).tobytes()
    mixed = remainder_recursion_residual(al, np.array([3, 1, 2]), F,
                                         0.9, np.array([0.4, 0.4, -1.2]))
    assert mixed.tolist() == [remainder_recursion_residual(al, k, F, 0.9, pt)
                              for k, pt in ((3, 0.4), (1, 0.4), (2, -1.2))]
    assert type(remainder_recursion_residual(al, 2, F, 1.1, 0.45)) is float
    with pytest.raises(ValueError):
        remainder_recursion_residual(al, np.array([2, 0]), F, 1.1, 0.45)


def test_remainder_profile_vectorizes():
    prof = remainder_profile(AL, 2, F, 0.9)
    us = np.array([-0.8, 0.0, 0.5, 1.3])
    ref = [translate(AL, F, 0.9, u) - sum(b_coeff(AL, p, 0.9)
                                          * dunkl_power(AL, F, p)(u)
                                          for p in range(2))
           for u in us.tolist()]
    np.testing.assert_allclose(prof(us), ref, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_array_x_profiles_equal_scalar_calls(k):
    # x broadcasts against u: each (x, u) value is the scalar call's, bit
    # for bit (b_p(x) does not depend on x's layout)
    xs = np.linspace(-2.3, 2.1, 23)
    us = np.linspace(-3.0, 3.0, 17)
    for profile in (remainder_profile, symmetric_remainder_profile):
        grid = profile(AL, k, F, xs[:, None])(us)
        assert grid.shape == (xs.size, us.size)
        for i, x in enumerate(xs.tolist()):
            row = [profile(AL, k, F, x)(u) for u in us.tolist()]
            assert grid[i].tolist() == row, (profile.__name__, x)


def test_order_zero_profiles_are_translates():
    xs = np.array([[-1.1], [0.4], [2.0]])
    us = np.linspace(-2.0, 2.0, 9)
    tau = translate_many(AL, F, xs, us)
    assert remainder_profile(AL, 0, F, xs)(us).tolist() == tau.tolist()
    # tau_x f + tau_{-x} f in one closed-form pass, against the 40-digit
    # translates at x and -x
    mp = pytest.importorskip("mpmath")
    xs = np.array([[1e-3], [0.05], [-0.7], [1.6], [3.0]])
    us = np.array([-2.3, -0.6, 0.02, 0.4, 1.1, 2.7])
    cubic = GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5)
    poly = GaussPolyFunction(F.coeffs, 0.0)
    for alpha in (-0.25, 0.5, 1.5, 20.0):
        al = AlphaParam(alpha)
        for f in (F, cubic):
            got = symmetric_remainder_profile(al, 0, f, xs)(us)
            with mp.workdps(40):
                ref = np.array([[float(p + m) for p, m in zip(
                    oracles.tau(mp, alpha, f, x, us),
                    oracles.tau(mp, alpha, f, -x, us))] for x in xs[:, 0]])
            assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-14
            # the point masses: 2 f(u) at x = 0, f(x) + f(-x) at u = 0
            prof = symmetric_remainder_profile(al, 0, f, np.array([[0.0], [1.3]]))
            assert prof(us)[0].tolist() == (2.0 * f(us)).tolist()
            assert prof(0.0)[1, 0] == f(1.3) + f(-1.3)
        # an s = 0 polynomial has no closed form: the two translates summed
        assert symmetric_remainder_profile(al, 0, poly, xs)(us).tolist() == (
            translate_many(al, poly, xs, us)
            + translate_many(al, poly, -xs, us)).tolist()


def test_small_x_profiles_match_50_digit_translates():
    # the rows |x| sqrt(max(s, 1)) <= X_S sum the b_p series: no O(1) terms
    # cancel to ~x^k, so each row is within 1e-14 of its largest value
    # against tau_x f - sum_{p<k} b_p L^p f at 50 digits (the subtraction
    # form lost 1e-6 of it at x = 1e-3, k = 3, alpha = 1.5)
    mp = pytest.importorskip("mpmath")
    us = [-2.3, -0.6, 0.0, 0.4, 1.1, 2.7]
    for alpha in (-0.25, 0.5, 1.5, 20.0):
        al = AlphaParam(alpha)
        for f in CATALOG.values():
            for x in (1e-3, 1e-2, taylor.X_S):
                assert taylor.series_rows(1, f, x)
                with mp.workdps(50):
                    tau = [oracles.tau(mp, alpha, f, v, us) for v in (x, -x)]
                    powers = [[oracles.dunkl_power(mp, alpha, f, p, u)
                               for u in us] for p in range(4)]
                    b = [oracles.b_coeff(mp, alpha, p, x) for p in range(4)]
                for k in (1, 2, 3, 4):
                    for step, profile in ((1, remainder_profile),
                                          (2, symmetric_remainder_profile)):
                        with mp.workdps(50):
                            ref = np.array([float(
                                sum(t[i] for t in tau[:step]) - sum(
                                    step * b[p] * powers[p][i]
                                    for p in range(0, k, step)))
                                for i in range(len(us))])
                        got = profile(al, k, f, x)(np.array(us))
                        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                        assert err <= 1e-14, (alpha, f, x, k, step, err)


@pytest.mark.parametrize("k", [1, 3])
def test_mixed_rows_equal_their_scalar_calls(k):
    # x and u of one shape (one row per entry), rows on both sides of X_S
    # and a passed tau, read by the translated rows alone
    xs = np.array([-0.5, 1e-3, taylor.X_S, 0.31, -0.02, 1.7])
    us = np.array([0.4, -1.2, 0.0, 2.2, 0.7, -0.3])
    for f in CATALOG.values():
        assert 0 < taylor.series_rows(k, f, xs).sum() < xs.size
        tau = translate_many(AL, f, xs, us)
        got = remainder_profile(AL, k, f, xs)(us, tau=tau)
        assert got.tolist() == [remainder_profile(AL, k, f, x)(u, tau=t)
                                for x, u, t in zip(*(v.tolist() for v in (
                                    xs, us, tau)))]
        sym = symmetric_remainder_profile(AL, k, f, xs)(us)
        assert sym.tolist() == [symmetric_remainder_profile(AL, k, f, x)(u)
                                for x, u in zip(xs.tolist(), us.tolist())]


@pytest.mark.parametrize("xs", [[[1e-3, 0.1, 0.2]], [[1.0, 2.0, 3.0]],
                                [[1e-3, 0.1, 2.0]]])
@pytest.mark.parametrize("profile", [remainder_profile,
                                     symmetric_remainder_profile])
def test_profiles_reject_a_third_layout(profile, xs):
    # one u per row (u of x's shape) and every u on every row (x's trailing
    # axes 1s) are the layouts; x of shape (1, 3) against u of shape (4, 1)
    # broadcasts, but rows by u, not by x: a ValueError naming both shapes,
    # with every row summing the series, none or some
    f, us = CATALOG["cubic_gaussian"], np.linspace(-1.0, 1.0, 4)
    prof = profile(AL, 2, f, np.array(xs))
    assert prof(us[:3].reshape(1, 3)).shape == prof(0.5).shape == (1, 3)
    with pytest.raises(ValueError, match=r"\(1, 3\).*\(4, 1\)"):
        prof(us[:, None])
    col = profile(AL, 2, f, np.array(xs).reshape(3, 1))(us)
    assert col.shape == (3, 4)
    assert col.tolist() == [[profile(AL, 2, f, x)(u) for u in us.tolist()]
                            for x in np.ravel(xs).tolist()]


@pytest.mark.parametrize("a", [6e-10, 3e-8, 1e-6, 4e-5, 1.0 + 6e-10])
def test_near_resonant_alpha_keeps_the_taylor_identity(a):
    # an antiderivative exponent e within 1e-4 of -1: a log series replaces
    # the 1/(e+1) terms, which cancel to ~1e-5 at alpha = 6e-10
    al = AlphaParam(a)
    f = GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5)
    assert any(j for _c, _sp, _e, j in _theta_terms(a, 3))
    for k in (2, 3, 4):
        for x, pt in [(0.7, 0.45), (-1.3, 0.0), (1.9, -0.8), (0.2, 1.5)]:
            scale = abs(translate(al, f, x, pt)) + 1.0
            gap = (remainder(al, k, f, x, pt)
                   - remainder_profile(al, k, f, x)(pt))
            assert abs(gap) / scale < 1e-12


def test_iterated_integral_identities_fd():
    # L^k I_k(x, f) = R_k(x, f), the operator acting in the evaluation point
    x, a = 1.2, 0.45
    for k in (1, 2):
        # g takes arrays: dunkl_fd_power calls it once, on every point
        g = lambda u, kk=k: iterated_integral_I(AL, kk, F, x, u)
        lhs = (dunkl_fd_power(AL, g, a, 1, h=1e-3) if k == 1
               else _fd2(g, a))
        rhs = remainder_profile(AL, k, F, x)(a)
        assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-6)


def _fd2(g, a, h=1e-2):
    # two nested first-order Dunkl differences, cached
    return dunkl_fd_power(AL, g, a, 2, h=h)


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_iterated_integral_deep_orders_close_the_taylor_identity(a):
    # no depth limit: tau_x f - sum_{p<k} b_p(x) L^p f = I_k(x, L^k f)
    al = AlphaParam(a)
    for k in (5, 6):
        lkf = dunkl_power(al, F, k)
        for x, pt in [(0.9, 0.35), (-1.4, 0.0), (2.0, -0.7)]:
            scale = abs(translate(al, F, x, pt)) + 1.0
            rec = remainder_profile(al, k, F, x)(pt)
            assert abs(rec - iterated_integral_I(al, k, lkf, x, pt)) \
                / scale < 1e-12, (k, x, pt)
    with pytest.raises(ValueError):
        iterated_integral_I(AL, 0, F, 1.0, 0.3)


def test_symmetric_remainder_matches_direct_sum():
    for k in (1, 2, 3):
        assert symmetric_remainder_residual(AL, k, F, 1.3, 0.4) < 1e-9


def test_symmetric_remainder_even_in_x():
    v1 = symmetric_remainder_profile(AL, 2, F, 0.9)(0.35)
    v2 = symmetric_remainder_profile(AL, 2, F, -0.9)(0.35)
    assert v1 == pytest.approx(v2, rel=1e-11)


def test_norm_coefficients():
    assert remainder_norm_coeff(AL, 1, 2.0) == pytest.approx(math.sqrt(2.0))
    c = remainder_norm_coeff(AL, 3, 1.5)
    assert c == pytest.approx(math.sqrt(2.0) * (b_coeff(AL, 2, 1.5)
                                                + 1.5 * b_coeff(AL, 1, 1.5)))
    assert remainder_norm_coeff_same_order(AL, 3, 1.5) == pytest.approx(
        c + abs(b_coeff(AL, 2, 1.5)))
    with pytest.raises(ValueError):
        remainder_norm_coeff(AL, 0, 1.0)


def test_theta_mass_is_even_homogeneous_and_exact_on_its_terms():
    # theta_mass(x) = |x|^k theta_mass(1) for either sign, bit for bit; the
    # unit mass within 1e-11 of the exact one (8.7e-13 off at alpha = -0.25):
    # Theta_{k-1}(1, .) keeps one sign on (0, 1) and on (-1, 0), and
    # int_0^1 t^ee log(t)^j dt = (-1)^j j! / (ee + 1)^(j + 1)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    xs = [0.0, -0.0, 1e-300, -2.0] + rng.uniform(-3, 3, 12).tolist()
    ts = np.linspace(1e-6, 0.99, 100)
    for alpha in (-0.25, 0.0, 0.5, 1.0, 1.5):
        al = AlphaParam(alpha)
        for k in (1, 2, 3, 4):
            unit = theta_mass(al, k, 1.0)
            assert theta_mass(al, k, -1.0) == unit
            for x in xs:
                assert theta_mass(al, k, x) == abs(x) ** k * unit, x
            exact = 0.0
            for s in (1, -1):
                sign = np.sign(_theta(alpha, k - 1, 1.0, s * ts))
                assert abs(sign.sum()) == ts.size, (alpha, k, s)
                with mp.workdps(30):
                    exact += abs(mp.fsum(
                        c * s ** sp * (-1) ** j * math.factorial(j)
                        / (mp.mpf(e) + 2.0 * alpha + 2.0) ** (j + 1)
                        for c, sp, e, j in _theta_terms(alpha, k - 1)))
            assert abs(unit - exact) <= 1e-11 * exact, (alpha, k)


def test_symmetric_residual_equals_its_two_call_form_bitwise():
    # R_k(x) and R_k(-x) as two rows of one remainder call give the sum of
    # two separate calls, bit for bit, scalar or array, at x = 0 and a = 0
    rng = np.random.default_rng(5)
    cases = [(0.5, 2, 0.0, 0.45), (0.5, 1, 0.7, 0.0), (0.0, 3, -0.0, 0.0),
             (1.5, 3, np.array([0.7, 0.0, -1.3]), 0.0)]
    for _ in range(16):
        n = int(rng.integers(0, 4))
        shape = () if n == 0 else (n,)
        cases.append((float(rng.choice([-0.25, 0.0, 0.5, 1.0, 1.5, 3.2])),
                      int(rng.integers(1, 5)),
                      rng.uniform(-3, 3, shape), rng.uniform(-2.5, 2.5, shape)))
    for alpha, k, x, a in cases:
        al = AlphaParam(alpha)
        f = GaussPolyFunction(tuple(rng.uniform(-1, 1, 3)),
                              float(rng.uniform(0.3, 1.5)))
        direct = remainder(al, k, f, x, a) + remainder(al, k, f,
                                                       np.negative(x), a)
        ref = np.abs(direct - symmetric_remainder_profile(al, k, f, x)(a))
        got = symmetric_remainder_residual(al, k, f, x, a)
        assert type(got) is (float if np.ndim(ref) == 0 else np.ndarray)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), \
            (alpha, k, x, a)
