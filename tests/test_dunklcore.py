import math

import numpy as np
import pytest

from dunkl_lab import quad
from dunkl_lab.special import AlphaParam
from dunkl_lab.funcalg import GaussPolyFunction, hermite_phi, lambda_coeffs
from dunkl_lab.quad import NORM_NODES, LpContext, lp_norm
from dunkl_lab.dunklcore import (w_total_variation, translate,
                                 translate_many, convolve, dunkl_transform,
                                 translate_convolution_commutes,
                                 product_formula_residual)

AL = AlphaParam(0.5)
GAUSS = GaussPolyFunction((1.0,), 1.0)
SQRT2 = math.sqrt(2.0)


# -- the translation density, the oracle of the tests below --------------------

def _w_const(a: float) -> float:
    return math.gamma(a + 1.0) ** 2 / (2.0 ** (a - 1.0) * math.sqrt(math.pi)
                                       * math.gamma(a + 0.5))


def w_kernel(alpha: AlphaParam, x: float, y: float, z):
    """Density W_a(x, y, z) of the translation measure; zero off-support.

    Requires x, y != 0 (the point-mass cases have no density).
    """
    if x == 0.0 or y == 0.0:
        raise ValueError("w_kernel is undefined for x = 0 or y = 0 (point mass)")
    a = alpha.alpha
    z = np.asarray(z, dtype=float)
    ax, ay = abs(x), abs(y)
    lo, hi = abs(ax - ay), ax + ay
    az = np.abs(z)
    inside = (az >= lo) & (az <= hi)
    out = np.zeros(np.broadcast(z).shape or (1,))
    zz = np.atleast_1d(z)[np.atleast_1d(inside)]
    if zz.size:
        bxyz = (x * x + y * y - zz * zz) / (2.0 * x * y)
        with np.errstate(divide="ignore", invalid="ignore"):
            bzxy = np.where(zz != 0.0, (zz * zz + x * x - y * y) / (2.0 * zz * x), 0.0)
            bzyx = np.where(zz != 0.0, (zz * zz + y * y - x * x) / (2.0 * zz * y), 0.0)
            delta = ((hi * hi - zz * zz) * (zz * zz - lo * lo)) ** (a - 0.5) \
                / np.abs(x * y * zz) ** (2.0 * a)
        vals = _w_const(a) * (1.0 - bxyz + bzxy + bzyx) * delta
        np.place(out, np.atleast_1d(inside), vals)
    return out if np.ndim(z) else float(out[0])


def test_measure_kinds_and_support():
    # x = 0 or y = 0: a point mass; else a density on
    # ||x| - |y|| <= |z| <= |x| + |y|
    assert w_total_variation(AL, 0.0, 1.0) == 1.0
    assert w_total_variation(AL, 1.0, 0.0) == 1.0
    z = np.array([0.9, 1.1, 1.9, 2.1])
    for zs in (z, -z):
        assert (w_kernel(AL, 1.5, -0.5, zs) != 0.0).tolist() == [
            False, True, True, False]


def test_w_kernel_vanishes_off_support():
    assert w_kernel(AL, 1.0, 0.5, 0.2) == 0.0
    assert w_kernel(AL, 1.0, 0.5, 1.7) == 0.0
    assert w_kernel(AL, 1.0, 0.5, 1.0) != 0.0
    with pytest.raises(ValueError):
        w_kernel(AL, 0.0, 1.0, 0.5)


def test_translate_point_mass_cases():
    assert translate(AL, GAUSS, 0.0, 0.7) == pytest.approx(GAUSS(0.7))
    assert translate(AL, GAUSS, 0.7, 0.0) == pytest.approx(GAUSS(0.7))


def test_translate_preserves_constants():
    one = lambda y: np.ones_like(np.asarray(y, dtype=float))
    for x, y in [(0.5, 0.3), (1.0, -1.0), (2.3, 0.9)]:
        assert translate(AL, one, x, y) == pytest.approx(1.0, abs=1e-12)


def test_translate_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    for _ in range(6):
        x, y = rng.uniform(-2.5, 2.5, size=2)
        if abs(x) < 0.05 or abs(y) < 0.05:
            continue
        assert translate(AL, GAUSS, float(x), float(y)) == pytest.approx(
            translate(AL, GAUSS, float(y), float(x)), rel=1e-11, abs=1e-12)


def test_translate_matches_density_integral():
    # Gauss-Jacobi path against the raw density integrated adaptively
    from dunkl_lab.quad import integrate
    x, y = 1.2, 0.7
    lo, hi = abs(x) - abs(y), abs(x) + abs(y)

    def g(z):
        return ((GAUSS(z) * w_kernel(AL, x, y, z)
                 + GAUSS(-z) * w_kernel(AL, x, y, -z))
                * np.abs(z) ** AL.weight_exp)

    val, _ = integrate(g, lo, hi, endpoint_exponent=AL.alpha - 0.5)
    assert translate(AL, GAUSS, x, y) == pytest.approx(
        val / AL.norm_const, rel=1e-8)


def test_translate_many_matches_scalar_and_shapes():
    ys = np.array([-1.3, -0.4, 0.0, 0.6, 2.0])
    out = translate_many(AL, GAUSS, 0.9, ys)
    ref = [translate(AL, GAUSS, 0.9, float(y)) for y in ys]
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
    # 2D input comes back 2D (nested translation passes matrices through)
    ys2 = ys.reshape(1, 5)
    out2 = translate_many(AL, GAUSS, 0.9, ys2)
    assert out2.shape == (1, 5)
    np.testing.assert_allclose(out2[0], ref, rtol=1e-12, atol=1e-14)
    # x = 0 short-circuit
    np.testing.assert_allclose(translate_many(AL, GAUSS, 0.0, ys), GAUSS(ys))


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_quadrature_translate_does_not_depend_on_its_call(alpha):
    # a callable goes through the Gauss-Jacobi rule; each point's nodes are
    # summed by their own dot product, so a point's value is the same bit
    # for bit whichever points share its call (401 points span two blocks)
    al = AlphaParam(alpha)
    cubic = GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5)
    g = lambda z: cubic(z)
    ys = np.linspace(-5.0, 5.0, 401)
    many = translate_many(al, g, 0.7, ys)
    assert many.tolist() == [translate(al, g, 0.7, y) for y in ys.tolist()]
    tf = lambda z: translate_many(al, cubic, 0.6, z)
    us = np.linspace(-3.0, 3.0, 12)
    assert convolve(al, tf, GAUSS, us).tolist() == \
        [convolve(al, tf, GAUSS, u) for u in us.tolist()]


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_total_variation_bounded_by_sqrt2(alpha):
    al = AlphaParam(alpha)
    rng = np.random.default_rng(11)
    for _ in range(6):
        x, y = rng.uniform(0.1, 3.0, size=2)
        tv = w_total_variation(al, float(x), float(y))
        assert 1.0 - 1e-9 <= tv <= SQRT2 + 1e-9


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
@pytest.mark.parametrize("x", [1e-8, 1e-20, 1e-200, -1e-200])
def test_total_variation_tends_to_one_linearly(alpha, x):
    """TV(x, y) = 1 + c|x| + O(x^2) as x -> 0; the endpoint form of the
    integrand cancelled there (off by 25-60% of c|x| at x = 1e-8, 0.0 at
    1e-20, ZeroDivisionError at 1e-200 for alpha = 1.5)."""
    al = AlphaParam(alpha)
    c = (w_total_variation(al, math.copysign(1e-4, x), 0.5) - 1.0) / 1e-4
    for tv in (w_total_variation(al, x, 0.5), w_total_variation(al, 0.5, x)):
        assert abs(tv - 1.0 - c * abs(x)) <= 1e-3 * c * abs(x) + 1e-15


@pytest.mark.parametrize("alpha", [120.0, 149.0])
def test_total_variation_finite_at_large_alpha(alpha):
    # the measure's constant Gamma(a+1) / (2 sqrt(pi) Gamma(a+1/2)), taken by
    # logs: its form with Gamma(a+1)^2 raised OverflowError from a ~ 100
    tv = w_total_variation(AlphaParam(alpha), 1.0, 0.7)
    assert math.isfinite(tv) and 1.0 <= tv <= SQRT2


def test_total_variation_exceeds_one_somewhere():
    # the measure is genuinely signed: TV > 1 at some pairs
    vals = [w_total_variation(AL, 1.0, y) for y in (0.5, 0.9, 1.0, 1.5)]
    assert max(vals) > 1.0 + 1e-6


def _total_variation_mp(mp, alpha, x, y):
    """w_total_variation's integral in mpmath (x, y > 0): in s = 1 - |t| =
    u^(1/(a+1/2)), which takes the weight s^(a-1/2) ds to du / (a+1/2),
    split every two decades of s from eps^2 / 100, eps = ||x| - |y|| / m:
    q/z has branch points at a distance ~eps^2 from s = 0."""
    a, e1 = mp.mpf(alpha), mp.mpf(alpha) + mp.mpf(1) / 2
    m = max(x, y)
    xs, ys = mp.mpf(x) / m, mp.mpf(y) / m

    def g(t):           # |b0 + q/z| + |b0 - q/z| at xy > 0
        z = mp.sqrt(xs ** 2 + ys ** 2 + 2 * xs * ys * t)
        return abs(1 + t + (xs + ys) * (1 + t) / z) + abs(
            1 + t - (xs + ys) * (1 + t) / z)

    def h(u):
        s = u ** (1 / e1)
        return (g(1 - s) + g(s - 1)) * (2 - s) ** (e1 - 1)

    eps2 = (xs - ys) ** 2
    pts = [eps2 * mp.mpf(10) ** j for j in range(-2, 40, 2)]
    pts = [0] + [v ** e1 for v in pts if v < 1] + [1]
    c = mp.exp(mp.loggamma(a + 1) - mp.loggamma(e1)) / (2 * mp.sqrt(mp.pi))
    return c / e1 * mp.quad(h, pts)


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_total_variation_near_the_diagonal_matches_mpmath(alpha):
    # near |x| = |y| the integrand has branch points ~eps^2 from t = -1, where
    # a fixed Gauss-Jacobi rule in sqrt(1 - |t|) is 1.9e-6 relative off
    # (alpha = -0.25 at (1, 0.999), 24 nodes); the adaptive loop's worst
    # here is 8.5e-10, at alpha = 0 and (2, 1.9999)
    mp = pytest.importorskip("mpmath")
    al = AlphaParam(alpha)
    with mp.workdps(25):
        for x, y in ((1.0, 0.999), (1.0, 1.001), (2.0, 1.9999),
                     (0.5, 0.5001)):
            ref = float(_total_variation_mp(mp, alpha, x, y))
            assert abs(w_total_variation(al, x, y) - ref) <= 2e-9 * ref


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_total_variation_on_a_grid_equals_scalar_calls(alpha):
    # the pairs with xy != 0 are one adaptive integral on a shared partition:
    # each within integrate's absolute tolerance of its own call; a zero row
    # and column (the point masses) read exactly 1
    al = AlphaParam(alpha)
    xs = np.array([0.0, 0.2, -0.7, 1.3, -2.0, 3.1])
    ys = np.array([-1.1, 0.0, 0.5, 0.9, -2.6, 2.0])
    got = w_total_variation(al, xs[:, None], ys)
    ref = [[w_total_variation(al, x, y) for y in ys.tolist()]
           for x in xs.tolist()]
    assert got.shape == (6, 6)
    assert np.abs(got - ref).max() <= quad.ABS_TOL
    assert (got[0] == 1.0).all() and (got[:, 1] == 1.0).all()
    assert all(type(v) is float for row in ref for v in row)


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_total_variation_is_one_at_mixed_signs(alpha):
    # for xy < 0, b0 = 1 - t and q = (x + y)(1 - t) with |x + y| <= |z|, so
    # |b0 + qz| + |b0 - qz| = 2(1 - t): the measure is positive, mass 1
    al = AlphaParam(alpha)
    x, y = np.array([0.3, -1.5, 0.7, -2.2]), np.array([-1.1, 0.4, -0.7, 3.1])
    scalar = [w_total_variation(al, u, v) for u, v in zip(x.tolist(),
                                                          y.tolist())]
    for tv in (w_total_variation(al, x, y), np.array(scalar)):
        assert np.abs(tv - 1.0).max() <= 1e-14


def test_product_formula():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = rng.uniform(0.2, 2.5, size=2)
        t = float(rng.uniform(0.2, 2.0))
        assert product_formula_residual(AL, float(x), float(y), t) < 1e-10


def test_translation_lp_contraction():
    ctx = LpContext(AL, 2.0)
    base = lp_norm(ctx, GAUSS)
    for x in (0.4, 1.1, 2.6):
        tf = lambda ys: translate_many(AL, GAUSS, x, np.asarray(ys))
        assert lp_norm(ctx, tf) <= SQRT2 * base + 1e-9


def test_convolution_commutes_and_transform_factorizes():
    g = GaussPolyFunction((1.0, 0.5), 1.0)
    # transform of a convolution is the product of transforms
    for xi in (0.4, 1.3):
        conv = lambda u: np.array([convolve(AL, GAUSS, g, float(v))
                                   for v in np.atleast_1d(u)])
        lhs = dunkl_transform(AL, conv, xi)
        rhs = dunkl_transform(AL, GAUSS, xi) * dunkl_transform(AL, g, xi)
        assert abs(lhs - rhs) < 1e-9
    assert translate_convolution_commutes(AL, GAUSS, g, 0.7, 0.4) < 1e-8


def test_translate_convolution_commutes_propagates_nan(monkeypatch):
    # the third convolution f * tau_t(h) NaN: two of the three gaps are NaN,
    # and their max is NaN, not the finite first gap
    from dunkl_lab import dunklcore
    g = GaussPolyFunction((1.0, 0.5), 1.0)
    calls, orig = [], dunklcore.convolve

    def third_nan(*args, **kwargs):
        calls.append(args)
        out = orig(*args, **kwargs)
        return math.nan if len(calls) == 3 else out

    monkeypatch.setattr(dunklcore, "convolve", third_nan)
    assert math.isnan(translate_convolution_commutes(AL, GAUSS, g, 0.7, 0.4))
    assert len(calls) == 3 and calls[2][2] is not g


def test_transform_gaussian_positive_at_zero():
    # F(f)(0) is the total mass; for the Gaussian that is (2)^-(a+1) * 2^(a+1) ...
    # computed directly: int e^{-y^2} dmu = 2^-(a+1)
    val = dunkl_transform(AL, GAUSS, 0.0)
    assert val.imag == pytest.approx(0.0, abs=1e-13)
    assert val.real == pytest.approx(2.0 ** (-(AL.alpha + 1.0)), rel=1e-10)


def test_convolution_is_symmetric():
    # one side a callable: the head-rule quadrature path, either order
    g = GaussPolyFunction((1.0, 0.0, -0.3), 1.0)
    for x in (0.5, 1.4):
        assert convolve(AL, GAUSS, lambda z: g(z), x) == pytest.approx(
            convolve(AL, g, lambda z: GAUSS(z), x), rel=1e-9, abs=1e-11)


def _algebra(al):
    # the function catalog and two moment-vanishing bumps
    from dunkl_lab.verify import CATALOG
    return list(CATALOG.values()) + [hermite_phi(al, 1), hermite_phi(al, 2)]


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_closed_form_convolution_matches_the_quadrature(alpha):
    # g wrapped in a lambda takes the L^p head rule
    al = AlphaParam(alpha)
    xs = np.linspace(-6.0, 6.0, 25)
    fns = _algebra(al)
    for f in fns:
        for g in fns:
            exact = convolve(al, f, g, xs)
            quad = convolve(al, f, lambda z: g(z), xs)
            assert np.max(np.abs(exact - quad)) <= 1e-9 * np.max(np.abs(quad))
            # exactly commutative, and a scalar x gives the array's value
            assert convolve(al, g, f, xs).tolist() == exact.tolist()
            assert convolve(al, f, g, float(xs[3])) == exact[3]


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_closed_form_convolution_transform_is_the_product(alpha):
    al = AlphaParam(alpha)
    xis = np.array([0.0, 0.5, 1.7, 3.0])
    fns = _algebra(al)
    for f, g in ((fns[0], fns[2]), (fns[1], fns[3]), (fns[2], fns[5])):
        conv = lambda us: convolve(al, f, g, us)
        lhs = dunkl_transform(al, conv, xis)
        rhs = dunkl_transform(al, f, xis) * dunkl_transform(al, g, xis)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-12


def _transform_exact(al, f, xi):
    """F_a(f)(xi) in closed form: f = sum_j c_j L^j e^{-s.^2} has the
    transform (2s)^-(a+1) e^{-xi^2/(4s)} sum_j c_j (i xi)^j."""
    s, c = f.gauss_scale, lambda_coeffs(al.alpha, f)
    return (np.polyval(c[::-1], 1j * xi) * (2.0 * s) ** -(al.alpha + 1.0)
            * np.exp(-xi ** 2 / (4.0 * s)))


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_array_xi_transform_equals_scalar_calls_bitwise(alpha, monkeypatch):
    # f once, and the kernel once with every +-xi a row of one column
    from dunkl_lab import dunklcore
    al = AlphaParam(alpha)
    g = GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5)
    calls, kernel_calls = [], []
    kernel = dunklcore.dunkl_kernel_it
    monkeypatch.setattr(dunklcore, "dunkl_kernel_it",
                        lambda *a: kernel_calls.append(a) or kernel(*a))

    def conv(us):
        calls.append(np.shape(us))
        return convolve(al, GAUSS, g, us)

    xis = np.array([[0.0, 0.5], [1.7, -2.3]])
    for f in (GAUSS, g, conv):
        calls.clear()
        kernel_calls.clear()
        got = dunkl_transform(al, f, xis)
        assert got.shape == xis.shape and got.dtype == complex
        assert len(kernel_calls) == 1
        if f is conv:
            assert calls == [(2 * NORM_NODES,)]   # f once, on y and -y
        # within 1e-14 of the closed form (6.2e-16 off at most here); the
        # convolution's is the product of its factors' closed forms
        ref = (_transform_exact(al, GAUSS, xis) * _transform_exact(al, g, xis)
               if f is conv else _transform_exact(al, f, xis))
        assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-14
        one = [dunkl_transform(al, f, xi) for xi in xis.ravel().tolist()]
        assert got.tobytes() == np.array(one).tobytes()
    assert isinstance(dunkl_transform(al, GAUSS, 0.5), complex)


def _identity_cases(al):
    # the transforms and callable-path convolutions of verify's translate
    # suite: transform-of-convolution and translate-convolve-commute
    f, g = GAUSS, GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5)
    conv = lambda us: convolve(al, f, g, us)
    xis = np.array([0.5, 1.7])
    out = [dunkl_transform(al, h, xis) for h in (conv, f, g)]
    for t, x in ((0.6, 0.9), (-1.2, 0.3)):
        tf = lambda ys: translate_many(al, f, t, ys)
        tg = lambda ys: translate_many(al, g, t, ys)
        out += [convolve(al, tf, g, x), convolve(al, f, tg, x)]
    return out


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_outer_sums_skip_only_what_cannot_reach_them(alpha, monkeypatch):
    al = AlphaParam(alpha)
    y, w = quad._norm_rules(al)
    assert not quad.kept_terms(w * GAUSS(y)).all()     # some nodes drop
    got = _identity_cases(al)
    monkeypatch.setattr(quad, "KEEP_RATIO", 0.0)        # the full rules
    assert all(np.array_equal(a, b) for a, b in zip(got, _identity_cases(al)))


def test_a_nan_at_a_far_node_reaches_the_sum():
    # a node a finite value there would drop: the nan is kept
    far = lambda z: np.where(np.abs(z) > 9.0, np.nan, GAUSS(z))
    assert np.isnan(convolve(AL, GAUSS, far, 0.3))
    assert np.isnan(dunkl_transform(AL, far, 0.5))
    assert math.isfinite(convolve(AL, GAUSS, lambda z: GAUSS(z), 0.3))
