import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunkl_lab.special import AlphaParam, _as_alpha
from dunkl_lab.funcalg import (GaussPolyFunction, dunkl_apply, dunkl_power,
                               dilate, hermite_phi, dunkl_fd_power)
from dunkl_lab.quad import integrate

AL = AlphaParam(0.5)

# no coefficient so small that a product with it leaves the normal range
coeff_lists = st.lists(st.floats(-4, 4, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 1e-100 else v), min_size=1, max_size=6)


def test_construction_trims_and_validates():
    f = GaussPolyFunction((1.0, 2.0, 0.0, 0.0), 1.0)
    assert f.coeffs == (1.0, 2.0)
    with pytest.raises(ValueError):
        GaussPolyFunction((1.0,), -1.0)


@pytest.mark.parametrize("coeffs,scale", [((math.nan,), 1.0),
                                          ((1.0, math.inf), 1.0),
                                          ((1.0,), math.nan),
                                          ((1.0,), math.inf)])
def test_non_finite_numbers_are_rejected(coeffs, scale):
    # a nan or inf coefficient or scale is a FloatingPointError, not a nan
    # norm or a "pure polynomial"
    with pytest.raises(FloatingPointError, match="non-finite value"):
        GaussPolyFunction(coeffs, scale)


def test_overflowing_coefficients_are_rejected():
    # (P e^{-x^2})' has the coefficient -2 * 1e308, which overflows
    with pytest.raises(FloatingPointError, match="non-finite value"):
        dunkl_apply(AL, GaussPolyFunction((1e308, 1e308), 1.0))


def test_evaluation_scalar_and_array():
    f = GaussPolyFunction((1.0, 0.0, 1.0), 0.5)   # (1+x^2) e^{-x^2/2}
    assert f(0.0) == 1.0
    assert f(1.0) == pytest.approx(2.0 * math.exp(-0.5))
    xs = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(f(xs), (1 + xs ** 2) * np.exp(-0.5 * xs ** 2))


def test_normable_flag():
    assert GaussPolyFunction((1.0,), 1.0).is_normable
    assert not GaussPolyFunction((0.0, 1.0), 0.0).is_normable
    assert GaussPolyFunction((0.0,), 0.0).is_normable


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.one_of(st.just(0.0), st.floats(0.2, 2.0)),
       st.sampled_from([-0.25, 0.0, 1.5]))
def test_dunkl_apply_matches_exact_rationals(coeffs, s, alpha):
    # out[j] = (j+1) c[j+1] - 2s c[j-1] + (2a+1) c[j+1] [j+1 odd] in exact
    # rationals; each float coefficient is within 4 eps of the sum of its
    # terms' magnitudes
    f = GaussPolyFunction(tuple(coeffs), s)
    got = dunkl_apply(alpha, f)
    assert got.gauss_scale == s
    c, eps = [Fraction(v) for v in f.coeffs], Fraction(np.finfo(float).eps)
    for j in range(len(c) + 1):
        terms = [-2 * Fraction(s) * c[j - 1]] if j >= 1 else []
        if j + 1 < len(c):
            terms.append((j + 1) * c[j + 1])
            if j % 2 == 0:
                terms.append(Fraction(2.0 * alpha + 1.0) * c[j + 1])
        v = got.coeffs[j] if j < len(got.coeffs) else 0.0
        assert abs(Fraction(v) - sum(terms)) <= 4 * eps * sum(map(abs, terms))


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_reflect_and_odd_part(coeffs):
    # Lambda_0 f - Lambda_{-1/2} f is the odd-part term odd(f)/x alone
    f = GaussPolyFunction(tuple(coeffs), 1.0)
    xs = np.linspace(0.1, 2.5, 9)
    np.testing.assert_allclose(dunkl_apply(0.0, f)(xs)
                               - dunkl_apply(-0.5, f)(xs),
                               (f(xs) - f(-xs)) / (2.0 * xs),
                               rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, st.floats(0.2, 2.0))
def test_derivative_matches_finite_differences(coeffs, s):
    # at alpha = -1/2 the odd-part term vanishes and Lambda is d/dx
    f = GaussPolyFunction(tuple(coeffs), s)
    df = dunkl_apply(-0.5, f)
    h = 1e-5
    for x in (0.3, -1.1, 2.0):
        fd = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
        assert df(x) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_dunkl_apply_matches_fd_operator():
    rng = np.random.default_rng(42)
    for _ in range(8):
        coeffs = tuple(rng.uniform(-2, 2, size=4))
        f = GaussPolyFunction(coeffs, 1.0)
        lf = dunkl_apply(AL, f)
        a = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        assert lf(a) == pytest.approx(dunkl_fd_power(AL, f, a, h=1e-4),
                                      rel=1e-8, abs=1e-8)


def test_dunkl_power_identity_and_errors():
    f = GaussPolyFunction((1.0, 1.0), 1.0)
    assert dunkl_power(AL, f, 0) is f
    with pytest.raises(ValueError):
        dunkl_power(AL, f, -1)
    # second power equals two applications
    g2 = dunkl_power(AL, f, 2)
    assert g2.coeffs == dunkl_apply(AL, dunkl_apply(AL, f)).coeffs


def test_dunkl_on_monomials_closed_form():
    # L x^2 = 2x, L x = 1 + (2a+1) = 2(a+1) for the even reflection part
    a = AL.alpha
    x2 = GaussPolyFunction((0.0, 0.0, 1.0), 0.0)
    assert dunkl_apply(AL, x2).coeffs == (0.0, 2.0)
    x1 = GaussPolyFunction((0.0, 1.0), 0.0)
    assert dunkl_apply(AL, x1).coeffs == (2.0 * (a + 1.0),)


def test_dilate_pointwise():
    a = AL.alpha
    phi = GaussPolyFunction((1.0, 0.0, -2.0), 1.0)
    t = 0.6
    phit = dilate(AL, phi, t)
    xs = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(phit(xs),
                               t ** (-2.0 * (a + 1.0)) * phi(xs / t),
                               rtol=1e-12)
    with pytest.raises(ValueError):
        dilate(AL, phi, 0.0)


def test_dilate_preserves_measure_integral():
    # int phi_t dmu_a is independent of t by the scaling of the weight
    phi = GaussPolyFunction((1.0,), 1.0)

    def mass(t):
        g = dilate(AL, phi, t)
        val, _ = integrate(lambda y: g(y) * np.abs(y) ** AL.weight_exp,
                           0.0, 40.0)
        return 2.0 * val / AL.norm_const

    assert mass(0.5) == pytest.approx(mass(1.0), rel=1e-9)
    assert mass(2.0) == pytest.approx(mass(1.0), rel=1e-9)


@pytest.mark.parametrize("n0,k", [(1, 1), (1, 2), (2, 3), (2, 4)])
def test_hermite_phi_vanishing_even_moments(n0, k):
    phi = hermite_phi(AL, n0)
    scale = abs(phi(0.3)) + 1.0
    we = AL.weight_exp
    for i in range((k - 1) // 2 + 1):
        val, _ = integrate(lambda y, i=i: y ** (2 * i) * phi(y)
                           * np.abs(y) ** we, 0.0, 12.0)
        assert abs(val) / scale < 1e-12
    # the next even moment must NOT vanish (phi is exactly degree 2 n0)
    val, _ = integrate(lambda y: y ** (2 * n0) * phi(y) * np.abs(y) ** we,
                       0.0, 12.0)
    assert abs(val) > 1e-6


def test_hermite_phi_rejects_low_degree():
    with pytest.raises(ValueError):
        hermite_phi(AL, 0)


def test_dilate_raises_where_a_coefficient_overflows():
    phi = hermite_phi(50.0, 1)
    for a in (50.0, 60.0):      # the product overflows; then the power too
        with pytest.raises(ValueError, match="overflows a float"):
            dilate(a, phi, 1e-3)
    assert all(map(math.isfinite, dilate(50.0, phi, 1e-2).coeffs))


def test_record_roundtrip():
    g = GaussPolyFunction.from_record({"coeffs": [1.0, -0.5, 2.0, 0.0],
                                       "gauss_scale": 0.25})
    assert g.coeffs == (1.0, -0.5, 2.0) and g.gauss_scale == 0.25


def test_dunkl_fd_power_consistency():
    f = GaussPolyFunction((1.0, 0.5, 1.0), 1.0)
    exact = dunkl_power(AL, f, 2)(0.8)
    assert dunkl_fd_power(AL, f, 0.8, 2, h=1e-3) == pytest.approx(
        exact, rel=1e-5)


def _dunkl_fd(alpha, g, a, h):
    # the former scalar operator: a 5-point central derivative plus the
    # exact reflection term, g called once per point
    al = _as_alpha(alpha)
    d = (-g(a + 2 * h) + 8.0 * g(a + h) - 8.0 * g(a - h) + g(a - 2 * h)) / (
        12.0 * h)
    return d + (2.0 * al + 1.0) / a * (g(a) - g(-a)) / 2.0


def _fd_power_per_point(alpha, g, a, k, h):
    # the former form: nested scalar stencils, each level cached by
    # round(t, 12), g called once per distinct point
    cache = {}

    def ev(lvl, t):
        key = (lvl, round(t, 12))
        if key not in cache:
            cache[key] = g(t) if lvl == 0 else _dunkl_fd(
                alpha, lambda u: ev(lvl - 1, u), t, h)
        return cache[key]
    return ev(k, a)


_FD_F = GaussPolyFunction((1.0, 0.5, 1.0), 1.0)


def _stencil_points(k, a, h):
    # the distinct points the former scalar stencils read
    points = []
    _fd_power_per_point(AL, lambda t: points.append(t) or 0.0, a, k, h)
    return points


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_dunkl_fd_power_calls_g_once(k):
    for a in (0.8, -1.3, 0.013):
        for h in (1e-4, 2e-3):
            calls = []

            def g(t):
                calls.append(np.shape(t))
                return _FD_F(t)

            got = dunkl_fd_power(AL, g, a, k, h=h)
            # the scalar stencils' value bit for bit, from one call of g
            # with a column per distinct point
            want = _fd_power_per_point(AL, _FD_F, a, k, h)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert calls == [(len(_stencil_points(k, a, h)),)]


@pytest.mark.parametrize("ks", [(0, 1), (1, 2), (2, 1, 3), (3,)])
def test_dunkl_fd_power_on_arrays_and_orders_equals_scalar_calls(ks):
    a = np.array([[0.8, -1.3], [0.013, 2.1]])
    calls = []

    def g(t):
        calls.append(np.array(t))
        return _FD_F(t)

    got = dunkl_fd_power(AL, g, a, ks, h=2e-3)
    assert got.shape == (len(ks), 2, 2)
    for row, k in zip(got, ks):
        for x, v in zip(a.ravel().tolist(), row.ravel()):
            assert v.tobytes() == np.float64(dunkl_fd_power(
                AL, _FD_F, x, k, h=2e-3)).tobytes()
    # one call on a's shape plus one axis; no two columns agree at every
    # entry, and each centre's columns are its orders' stencil points
    (t,) = calls
    assert t.shape[:2] == (2, 2)
    assert len({c.tobytes() for c in np.moveaxis(t, -1, 0)}) == t.shape[2]
    for x, cols in zip(a.ravel().tolist(), t.reshape(4, -1)):
        assert set(cols.tolist()) == {
            p for k in ks for p in _stencil_points(k, x, 2e-3)}
    # a single order on an array: its rows, no leading axis
    assert np.array_equal(dunkl_fd_power(AL, _FD_F, a, ks[0], h=2e-3),
                          got[0])


@pytest.mark.parametrize("a,k", [(0.0, 1), (2e-3, 2), (-4e-3, 3),
                                 (np.array([0.5, 2e-3]), (0, 2))])
def test_dunkl_fd_power_raises_at_a_stencil_point_zero(a, k):
    # the operator divides by each point above the last level: a point at 0
    # is a ValueError naming the centre, never an inf
    calls = []
    with pytest.raises(ValueError, match="centre a = (0|0.002|-0.004) "):
        dunkl_fd_power(AL, lambda t: calls.append(t) or _FD_F(t), a, k,
                       h=2e-3)
    assert calls == []


def test_dunkl_fd_power_order_zero_is_g():
    # no level divides at k = 0: g at the centre, 0 included
    assert dunkl_fd_power(AL, _FD_F, 0.0, 0) == _FD_F(0.0)
    with pytest.raises(ValueError):
        dunkl_fd_power(AL, _FD_F, 0.8, -1)


def _power_loop(alpha, f, k):
    for _ in range(k):
        f = dunkl_apply(alpha, f)
    return f


def test_dunkl_power_equals_its_loop_bitwise():
    # the kept powers are the loop's, bit for bit (repr shows signed zeros);
    # records that differ only in the sign of a zero keep their own powers
    rng = np.random.default_rng(7)
    records = [((0.0, 1.0, -0.0, 2.0), 0.0), ((-0.0, 1.0, 0.0, 2.0), -0.0),
               ((-0.0,), 0.5), ((0.0,), 0.5)]
    records += [(tuple(np.round(rng.uniform(-2, 2, rng.integers(1, 5)), 3)),
                 float(rng.choice([0.0, -0.0, rng.uniform(0.2, 1.5)])))
                for _ in range(20)]
    for coeffs, s in records:
        for alpha in (AL, 0.5, -0.25, AlphaParam(1.5), -0.0):
            f = GaussPolyFunction(coeffs, s)
            for k in (3, 0, 5, 1, 4):       # out of order: cached and new
                assert repr(dunkl_power(alpha, f, k)) \
                    == repr(_power_loop(alpha, f, k)), (coeffs, s, alpha, k)
