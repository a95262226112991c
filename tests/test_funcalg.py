import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunkl_lab.special import AlphaParam
from dunkl_lab import dunklcore, funcalg
from dunkl_lab.funcalg import (GaussPolyFunction, dunkl_apply, dunkl_power,
                               dilate, hermite_phi, dunkl_fd_power,
                               lambda_basis, lambda_coeffs, _at_width,
                               _dunkl_step, _unit_tables)
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


_FD_F = GaussPolyFunction((1.0, 0.5, 1.0), 1.0)
# degree 4: the 5-point derivative is exact on it, and each level lowers the
# degree, so every level of the stencil is exact up to rounding
_FD_P = GaussPolyFunction((1.0, -0.5, 0.75, 0.25, -0.3), 0.0)


def _stencil_points(k, a, h):
    # the points s a + m h that k levels read: a level at p reads p + 2h,
    # p + h, p - h, p - 2h, p and -p
    keys = {(1, 0)}
    for _ in range(k):
        keys = {(s, m + d) for s, m in keys for d in (2, 1, 0, -1, -2)} | {
            (-s, -m) for s, m in keys}
    return sorted(s * a + m * h for s, m in keys)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_dunkl_fd_power_calls_g_once(k):
    for a in (0.8, -1.3, 0.013):
        for h in (1e-4, 2e-3):
            calls = []

            def g(t):
                calls.append(np.sort(t))
                return _FD_P(t)

            got = dunkl_fd_power(AL, g, a, k, h=h)
            # L^k of the polynomial up to the stencil's rounding, at most
            # 1.05 eps / h^k here, from one call of g
            want = dunkl_power(AL, _FD_P, k)(a)
            assert isinstance(got, float)
            assert abs(got - want) <= 20 * np.finfo(float).eps * max(
                1.0, abs(want)) / h ** k
            # the lattice s a + m h, each point the float of that sum:
            # (4k + 1) + (4k - 3) of them for k >= 1
            (t,) = calls
            assert t.size == (8 * k - 2 if k else 1)
            assert np.array_equal(t, _stencil_points(k, a, h))


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
        gap = np.abs(cols[:, None] - _stencil_points(max(ks), x, 2e-3))
        assert gap.min(0).max() <= 1e-14 and gap.min(1).max() <= 1e-14
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
            # out of order, cached and new: L^k f = L L^(k-1) f at every k
            # from f, so each power is the loop of dunkl_apply's
            assert dunkl_power(alpha, f, 0) is f
            for k in (3, 5, 1, 4, 2):
                lower = dunkl_power(alpha, f, k - 1)
                assert repr(dunkl_power(alpha, f, k)) == repr(dunkl_apply(
                    alpha, lower)), (coeffs, s, alpha, k)


# -- the unit-width tables behind lambda_basis and the closed-form ladder -----

def _recursion_basis(alpha, s, m):
    # lambda_basis as a loop of dunkl_apply at width s (the oracle)
    rows, g = np.zeros((m, m)), GaussPolyFunction((1.0,), s)
    for j in range(m):
        rows[j, :len(g.coeffs)] = g.coeffs
        g = dunkl_apply(alpha, g)
    return rows


def _recursion_ladder(a, s, m):
    # (A_j, B_j) of tau_x L^j e^{-s.^2} as a loop of _dunkl_step at width s
    A, B = np.zeros((m, m)), np.zeros((m, m))
    A[0, 0], out = 1.0, [(A, B)]
    for _ in range(1, m):
        A, B = (_dunkl_step(A, B, -2.0 * s, s, 2.0 * a + 1.0),
                _dunkl_step(B, A, 2.0 * s, s, 2.0 * a + 1.0))
        out.append((A, B))
    return np.array(out)


@pytest.mark.parametrize("s", [1.0, 0.5, 0.25, 2.0, 4.0])
@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0, 1.5, 20.0])
def test_scaled_tables_equal_the_recursion_at_powers_of_two(alpha, s):
    # at a power-of-two width every term of a step scales by one power of
    # two, so the scaled unit tables are the recursion's floats, signed
    # zeros included
    for m in range(1, 13):
        assert lambda_basis(alpha, s, m).tobytes() == _recursion_basis(
            alpha, s, m).tobytes(), m
        assert _at_width(alpha, s, m)[:, :2].tobytes() == _recursion_ladder(
            alpha, s, m).tobytes(), m


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 20.0])
def test_odd_degree_entries_of_the_unit_table_are_zero(alpha):
    # an entry of odd total degree (j plus its powers of x and y) is 0, so
    # the scaling s^(d/2) is only ever taken at integer powers
    t = _unit_tables(alpha, 16)
    i = np.arange(16)
    odd = (i[:, None, None, None] + i[:, None] + i) % 2 == 1
    assert not np.broadcast_to(odd, t.shape)[t != 0].any()


def _exact_unit_tables(c, n):
    # the unit-width rows and ladder in exact rationals for 2a+1 = c
    zero = lambda *shape: np.full(shape, Fraction(0), dtype=object)

    def step(P, Q, sx):
        out = zero(*P.shape)
        out[:, :-1] += P[:, 1:] * np.arange(1, P.shape[1]).astype(object)
        out[1:, :] += sx * P[:-1, :]
        out[:, 1:] -= 2 * P[:, :-1]
        out[:, 0:-1:2] += c * Q[:, 1::2]
        return out

    rows, ladder = zero(n, n), zero(n, 2, n, n)
    rows[0, 0] = ladder[0, 0, 0, 0] = Fraction(1)
    for j in range(1, n):
        rows[j] = step(rows[j - 1:j], rows[j - 1:j], 0)[0]
        A, B = ladder[j - 1]
        ladder[j, 0], ladder[j, 1] = step(A, B, -2), step(B, A, 2)
    return rows, ladder


def test_scaled_tables_match_50_digits_at_random_widths():
    # the reference is exact for the operator whose 2a+1 is the float the
    # code holds (its rounding is the input's), scaled by s^(d/2) at 50
    # digits.  Basis entries (generalized Hermite coefficients, no
    # cancellation) are within 4e-16 relative; the ladder's entries of one
    # A_j, B_j cancel, so each is within 4 roundings of the largest of them
    mpmath = pytest.importorskip("mpmath")
    rng, m, eps = np.random.default_rng(44), 10, np.finfo(float).eps
    with mpmath.workdps(50):
        for _ in range(12):
            a, s = float(rng.uniform(-0.49, 20.0)), float(rng.uniform(0.05, 5.0))
            rows, ladder = _exact_unit_tables(Fraction(2.0 * a + 1.0), m)
            up = [mpmath.mpf(s) ** k for k in range(2 * m)]
            exact = lambda q, d: mpmath.mpf(q.numerator) / q.denominator * up[d // 2]
            for (j, i), v in np.ndenumerate(lambda_basis(a, s, m)):
                ref = exact(rows[j, i], j + i)
                assert abs(v - ref) <= 4e-16 * abs(ref), (a, s, j, i)
            top = [max(map(abs, ladder[j].ravel())) for j in range(m)]
            for (j, t, i, k), v in np.ndenumerate(_at_width(a, s, m)[:, :2]):
                assert abs(v - exact(ladder[j, t, i, k], j + i + k)) <= (
                    4 * eps * exact(top[j], j + i + k)), (a, s, j, t, i, k)


def test_fresh_widths_take_no_dunkl_step(monkeypatch):
    # one unit table per alpha: closed forms at 20 new widths after the
    # first scale it, with no step of the recursion
    a, coeffs = 0.8125, (1.0, 0.5, -0.3, 0.2)
    dunklcore._closed_form_polys(a, coeffs, 0.7)
    calls, step = [], funcalg._dunkl_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    for module in (funcalg, dunklcore):
        monkeypatch.setattr(module, "_dunkl_step", counted, raising=False)
    for s in np.linspace(0.31, 1.49, 20).tolist():
        dunklcore._closed_form_polys(a, coeffs, s)
    assert len(calls) == 0


def test_cancelling_coordinates_are_a_typed_error():
    # kappa = sum_j |c_j| sum_i |basis[j, i]| / max|P|: 9e19 at s = 1e-20,
    # and not finite where the basis diagonal underflows (s = 1e-170)
    coeffs = (1.0, 0.5, -0.3)
    for s, kappa in ((1e-20, "9e+19"), (1e-170, "nan")):
        with pytest.raises(FloatingPointError, match=re.escape(f"kappa = {kappa},")):
            lambda_coeffs(0.5, GaussPolyFunction(coeffs, s))
    lambda_coeffs(0.5, GaussPolyFunction(coeffs, 1e-4))
