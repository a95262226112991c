"""The closed-form translation of the polynomial x Gaussian algebra against
50-digit mpmath (40 digits for alpha from 17 to 150 and |x|, |y| up to 100,
and for elements of degree 6 to 8) and the Gauss-Jacobi quadrature path,
the batched Taylor and convolution loops against their former per-node
loop forms, the one-kernel iterated integral against its nested Chebyshev
form (all kept here as reference implementations), and the sharing of one
Bessel value per order among the points (+-x, +-y), with no order for a
part that is zero."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyval

from dunkl_lab import dunklcore, taylor
from dunkl_lab.besov import (BesovParams, conv_norm, conv_profile,
                             default_grid)
from dunkl_lab.dunklcore import convolve, translate, translate_many
from dunkl_lab.funcalg import (GaussPolyFunction, dilate, dunkl_power,
                               hermite_phi)
from dunkl_lab.quad import (NORM_NODES, LpContext, jacobi_rule, kept_terms,
                            lp_norm, _norm_rules)
from dunkl_lab.special import (AlphaParam, dunkl_kernel, dunkl_kernel_it,
                               _scaled_j)
from dunkl_lab.verify import CATALOG
from dunkl_lab.taylor import (iterated_integral_I, remainder,
                              remainder_profile, symmetric_remainder_profile,
                              _theta_terms, _theta_weighted_integral)

import oracles

CUBIC = GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5)
WIDE = GaussPolyFunction((1.0,), 0.25)


def _quadrature(f):
    """The same function as a plain callable, which forces the 48-node rule."""
    return lambda z: f(z)


# -- (a) heat-kernel formula ---------------------------------------------------

@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("s", [0.25, 1.0])
def test_gaussian_matches_heat_kernel(alpha, s):
    al = AlphaParam(alpha)
    g = GaussPolyFunction((1.0,), s)
    pts = (-3.0, -1.1, -0.2, 0.0, 0.05, 0.7, 2.4)
    for x in pts:
        for y in pts:
            ref = math.exp(-s * (x * x + y * y)) * dunkl_kernel(al, -2.0 * s * x, y).real
            assert abs(translate(al, g, x, y) - ref) <= 1e-13, (x, y)


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5, 7.0, 16.0])
@pytest.mark.parametrize("name", ["gaussian", "cubic_gaussian"])
def test_closed_form_matches_mpmath(alpha, name):
    # tau_x f and tau_x f + tau_{-x} f against 50 digits, within 8 roundings
    # of the larger of 1 and the parts G |S| n_a and G |D| w n_(a+1)/(2(a+1))
    # (their sum cancels at large same-sign x, y: ROADMAP item 7(b))
    mp = pytest.importorskip("mpmath")
    al, f = AlphaParam(alpha), CATALOG[name]
    pm = np.array([0.3, 2.0, 8.0, -0.3, -2.0, -8.0])
    x, y = (v.ravel() for v in np.meshgrid(pm, pm))
    with mp.workdps(50):
        one = {u: oracles.tau(mp, alpha, f, u, pm) for u in pm.tolist()}
        # a row per x, transposed to meshgrid's row per y
        ref, ref_pair = (np.array(v, dtype=float).T.ravel() for v in (
            [one[u] for u in one],
            [[p + m for p, m in zip(one[u], one[-u])] for u in one]))
    s, w = f.gauss_scale, 2.0 * f.gauss_scale * np.abs(x * y)
    g = np.exp(-s * (np.abs(x) - np.abs(y)) ** 2)
    for pair, got, want in ((False, translate_many(al, f, x, y), ref),
                            (True, dunklcore._translate_sum(al, f, x, y),
                             ref_pair)):
        C = dunklcore._closed_form_polys(alpha, f.coeffs, s, pair)
        S, D = (np.abs(polyval(y, polyval(x, C[..., i]), tensor=False))
                for i in (0, 1))
        parts = g * (S * _scaled_j(alpha, w)
                     + D * w / (2.0 * (alpha + 1.0)) * _scaled_j(alpha + 1.0, w))
        assert np.all(np.abs(got - want) <= 8.0 * 2.0 ** -52
                      * np.maximum(1.0, parts)), pair


_FAR = np.array([-100.0, -30.0, -10.0, -2.0, -0.5, 0.5, 2.0, 10.0, 30.0, 100.0])


def _row_error(mp, alpha, f, grid):
    """The largest error of tau_x f(y) on grid x grid against 40 digits,
    relative to its row's max |tau|, over the rows where that max is at
    least 1e-290."""
    with mp.workdps(40):
        ref = np.array([oracles.tau(mp, alpha, f, x, grid) for x in grid],
                       dtype=float)
    got = translate_many(AlphaParam(alpha), f, grid[:, None], grid[None, :])
    big = np.max(np.abs(ref), axis=1)
    keep = big >= 1e-290
    assert keep.sum() >= 8
    return float(np.max(np.max(np.abs(got - ref), axis=1)[keep] / big[keep]))


@lru_cache(maxsize=None)
def _far_errors(mp, alpha):
    """_row_error on the grid _FAR per test function."""
    return {name: _row_error(mp, alpha, CATALOG[name], _FAR)
            for name in ("gaussian", "x_gaussian", "cubic_gaussian")}


@pytest.mark.parametrize("alpha", [17.0, 20.0, 40.0, 100.0, 148.0, 150.0])
def test_large_alpha_closed_form_matches_mpmath_far_out(alpha):
    # the closed form past alpha = 16 (Debye's band of n_nu), out to |x|,
    # |y| = 100: the Gaussian to 2e-13 of each row's max |tau|; x_gaussian
    # and cubic_gaussian cancel at large same-sign |x|, |y| at every alpha
    # (ROADMAP item 7(b)), so they may read no worse than at alpha = 1.5
    mp = pytest.importorskip("mpmath")
    got, base = _far_errors(mp, alpha), _far_errors(mp, 1.5)
    assert got["gaussian"] <= 2e-13
    for name in ("x_gaussian", "cubic_gaussian"):
        assert got[name] <= base[name], (name, got[name], base[name])


DEG8 = GaussPolyFunction((0.5, -1.0, 0.3, 0.0, 0.2, 0.1, 0.0, -0.05, 0.02),
                         0.5)


def _high_degree_error(mp, alpha, r):
    """_row_error on {+-0.5, +-2, +-r/3, +-r} over L^3 and L^4 of
    cubic_gaussian (degrees 6 and 7) and DEG8."""
    al, cubic = AlphaParam(alpha), CATALOG["cubic_gaussian"]
    grid = np.array([0.5, 2.0, r / 3.0, r, -0.5, -2.0, -r / 3.0, -r])
    return max(_row_error(mp, alpha, h, grid) for h in (
        dunkl_power(al, cubic, 3), dunkl_power(al, cubic, 4), DEG8))


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_high_degree_closed_form_matches_mpmath(alpha):
    # degrees 6 to 8 out to |x|, |y| = 5: at most 9.5e-11 of a row's max
    # |tau| measured; at alpha = 20 DEG8's Lambda-coordinates cancel (kappa
    # = 1.41e6), the typed error
    mp = pytest.importorskip("mpmath")
    assert _high_degree_error(mp, alpha, 5.0) <= 1e-9
    with pytest.raises(FloatingPointError, match="kappa = 1.41e"):
        translate_many(AlphaParam(20.0), DEG8, 1.0, 1.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7(b): the two-order closed form "
                   "cancels at large same-sign |x|, |y|, 0.42-1.6 of a "
                   "row's max |tau| off at |x|, |y| = 100")
def test_high_degree_closed_form_matches_mpmath_at_100():
    mp = pytest.importorskip("mpmath")
    assert max(_high_degree_error(mp, alpha, 100.0)
               for alpha in (-0.25, 0.5, 1.5)) <= 1e-9


# -- (b) closed form against the quadrature path -------------------------------

_coord = st.one_of(st.just(0.0),
                   st.builds(lambda m, sg: sg * m, st.floats(1e-3, 4.0),
                             st.sampled_from((-1.0, 1.0))))


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
       s=st.floats(0.25, 2.0),
       alpha=st.floats(-0.45, 2.0, exclude_min=True),
       xs=st.lists(_coord, min_size=1, max_size=6),
       ys=st.lists(_coord, min_size=1, max_size=6))
def test_closed_form_matches_quadrature(coeffs, s, alpha, xs, ys):
    al = AlphaParam(alpha)
    f = GaussPolyFunction(tuple(coeffs), s)
    x = np.array(xs + [0.0]).reshape(-1, 1)
    y = np.array(ys + [0.0]).reshape(1, -1)
    closed = translate_many(al, f, x, y)
    quad = translate_many(al, _quadrature(f), x, y)
    assert closed.shape == (x.size, y.size)
    assert np.max(np.abs(closed - quad)) <= 1e-10


# -- (c) batched convolution and Taylor loops against their loop forms ---------

def _conv_profile_loop(params, f, t, n_outer=80):
    """Former per-node form of conv_profile: one closure per outer node.
    Kept: the 80-node rule is only ~eps/t^(2 n0) accurate (6.8e-9 off the
    exact convolution at alpha = 1.5, k = 3, t = 1e-2), so no exact oracle
    holds the 1e-10 bound of test_batched_conv_profile_matches_loop."""
    al, k = params.alpha, params.k
    phi_t = dilate(al, hermite_phi(al, (k - 1) // 2 + 1), t)
    xs, ws = jacobi_rule(n_outer, al.weight_exp, 0.0, 10.0 * t)
    coef = ws * phi_t(xs) / al.norm_const
    profs = [symmetric_remainder_profile(al, k, f, float(xv)) for xv in xs]

    def prof(us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        out = np.zeros_like(us)
        for c, pr in zip(coef, profs):
            out += c * pr(us)
        return out

    return prof


def cheb_nodes(n, a, b):
    """Chebyshev points of the first kind mapped to [a, b]."""
    k = np.arange(n)
    x = np.cos((2 * k + 1) * math.pi / (2 * n))
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def cheb_interpolator(nodes, values):
    """Barycentric interpolant through (nodes, values)."""
    n = len(nodes)
    k = np.arange(n)
    # first-kind Chebyshev barycentric weights up to common scale
    bw = (-1.0) ** k * np.sin((2 * k + 1) * math.pi / (2 * n))

    def interp(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        diff = x[:, None] - nodes[None, :]
        exact = np.isclose(diff, 0.0, atol=0.0)
        diff[exact] = 1.0
        q = bw / diff
        out = (q @ values) / q.sum(axis=1)
        hit_row, hit_col = np.nonzero(exact)
        out[hit_row] = values[hit_col]
        return out if out.shape != (1,) else float(out[0])

    return interp


def test_cheb_interpolator_reproduces_polynomials():
    nodes = cheb_nodes(16, 0.0, 2.0)
    vals = nodes ** 3 - 2.0 * nodes + 1.0
    interp = cheb_interpolator(nodes, vals)
    xs = np.linspace(0.0, 2.0, 37)
    np.testing.assert_allclose(interp(xs), xs ** 3 - 2.0 * xs + 1.0,
                               atol=1e-12)
    # exact node hit goes through the short-circuit branch
    assert interp(float(nodes[3])) == pytest.approx(float(vals[3]), abs=1e-14)


def _iterated_integral_loop(al, k, f, x, a, n_cheb=48):
    """Nested form of iterated_integral_I: the k-fold Theta_0-weighted
    iterate, each inner level a Chebyshev interpolant in y (one per sign)
    through one scalar call of the level below per node.  Kept: another
    algorithm than the library's one Theta_{k-1}-weighted integral."""
    if k == 1:
        return _theta_weighted_integral(
            al, 0, x, lambda ys, rows: translate_many(al, f, a, ys))
    nodes = cheb_nodes(n_cheb, 0.0, abs(x))
    ip, im = (cheb_interpolator(nodes, np.array(
        [_iterated_integral_loop(al, k - 1, f, s * float(y), a, n_cheb)
         for y in nodes])) for s in (1.0, -1.0))

    def h(ys, rows):
        ay = np.abs(ys).ravel()
        return np.where(ys >= 0.0, ip(ay).reshape(ys.shape),
                        im(ay).reshape(ys.shape))

    return _theta_weighted_integral(al, 0, x, h)


def _params(alpha, k, p=2.0):
    return BesovParams(AlphaParam(alpha), k, p, 1.0, 0.5,
                       default_grid(per_decade=4))


@pytest.mark.parametrize("alpha,k,n_cheb", [
    (0.5, 1, 48), (-0.25, 2, 48), (0.5, 2, 48), (1.5, 2, 48), (0.0, 2, 48),
    (1.0, 2, 48), (0.0, 3, 48)])          # alpha = 0, k = 3: Theta_2 has logs
def test_batched_iterated_integral_matches_loop(alpha, k, n_cheb):
    # the one Theta_{k-1}-weighted integral against the nested iterate
    al = AlphaParam(alpha)
    pairs = ((0.9, 0.3), (-1.4, 0.0), (0.6, -2.0))
    for x, a in pairs if k < 3 else pairs[:1]:     # k = 3 nests 96^2 calls
        loop = _iterated_integral_loop(al, k, CUBIC, x, a, n_cheb=n_cheb)
        batched = iterated_integral_I(al, k, CUBIC, x, a)
        assert isinstance(batched, float)
        assert abs(batched - loop) <= 1e-14 * (1.0 + abs(batched))
    # rows: one value per x, each the scalar call's bit for bit
    xs = np.array([[0.9, -0.3], [1.7, -2.2]])
    rows = iterated_integral_I(al, k, CUBIC, xs, 0.45)
    assert rows.shape == xs.shape
    for x, v in zip(xs.ravel(), rows.ravel()):
        assert v == iterated_integral_I(al, k, CUBIC, float(x), 0.45)


@pytest.mark.parametrize("alpha,k", [(-0.25, 1), (0.5, 2), (1.5, 3)])
def test_batched_remainder_equals_scalar_calls_bitwise(alpha, k):
    al = AlphaParam(alpha)
    xs = np.array([[0.2], [-0.6], [2.1], [9.0]])  # 9.0: 120-node rules
    pts = np.array([0.0, 0.45, -0.8, -2.2])     # a = 0, |a| < |x|, |a| > |x|
    rows = remainder(al, k, CUBIC, xs, pts)
    assert rows.shape == (4, 4)
    for (i, j), v in np.ndenumerate(rows):
        assert v == remainder(al, k, CUBIC, float(xs[i, 0]), float(pts[j]))


@pytest.mark.parametrize("alpha", [-0.25, 1.5])
def test_batched_convolve_equals_scalar_calls_bitwise(alpha):
    al = AlphaParam(alpha)
    us = np.linspace(-5.0, 5.0, 72).reshape(8, 9)   # two blocks, 51 rows a block
    tf = lambda ys: translate_many(al, CUBIC, 0.6, ys)  # a callable f, g
    for f, g in ((WIDE, CUBIC), (CUBIC, tf), (tf, WIDE)):
        out = convolve(al, f, g, us)
        assert out.shape == us.shape
        scalar = [convolve(al, f, g, float(u)) for u in us.ravel()]
        if f is tf:
            # the node rule's matrix-vector product rounds by block layout
            np.testing.assert_allclose(out.ravel(), scalar, rtol=1e-14)
        else:
            assert np.array_equal(out.ravel(), scalar)


def _count_translate_calls(monkeypatch):
    """Points of each translate_many call made through dunklcore, taylor or
    the reference implementations here."""
    calls = []
    orig = dunklcore.translate_many

    def count(alpha, f, x, ys, *args, **kwargs):
        calls.append(np.broadcast(np.asarray(x), np.asarray(ys)).size)
        return orig(alpha, f, x, ys, *args, **kwargs)

    monkeypatch.setattr(dunklcore, "translate_many", count)
    monkeypatch.setattr(taylor, "translate_many", count)
    monkeypatch.setitem(globals(), "translate_many", count)
    return calls


def test_batched_levels_make_few_translate_calls(monkeypatch):
    al = AlphaParam(0.5)
    calls = _count_translate_calls(monkeypatch)
    _iterated_integral_loop(al, 2, CUBIC, 0.9, 0.3, n_cheb=32)
    loop_points = sum(calls)
    calls.clear()
    iterated_integral_I(al, 2, CUBIC, 0.9, 0.3)
    # one call: the +-z of the rule on (0, 1) at |x| t of the one family
    # of Theta_1's terms (their weighted exponents 0..3 are integers)
    assert len(_theta_terms(0.5, 1)) > 1
    assert calls == [80]
    assert 20 * sum(calls) < loop_points
    calls.clear()
    # a callable g takes the L^p head rule, +-y at its kept nodes (two
    # algebra elements convolve in closed form, with no translation)
    y, w = _norm_rules(al)
    kept = int(kept_terms(w * WIDE(y)).sum())       # WIDE is even
    assert kept < NORM_NODES
    convolve(al, CUBIC, lambda z: WIDE(z), np.linspace(-6.0, 6.0, 384))
    assert calls == [384 * 2 * kept]        # every x in one call


@pytest.mark.parametrize("alpha,k", [(-0.25, 2), (1.5, 3)])
def test_batched_conv_profile_matches_loop(alpha, k):
    params = _params(alpha, k)
    us = np.linspace(-6.0, 6.0, 31)
    for t in (1e-2, 0.2, 2.0):
        loop = _conv_profile_loop(params, CUBIC, t)(us)
        got = conv_profile(params.alpha, params.k, CUBIC, t)(us)
        scale = np.max(np.abs(loop))
        assert scale > 0.0 and np.max(np.abs(got - loop)) <= 1e-10 * scale


# -- (d) shapes and path selection ---------------------------------------------

def test_broadcast_shapes_and_point_masses():
    al = AlphaParam(0.5)
    x = np.array([-1.2, 0.0, 0.4]).reshape(3, 1)
    ys = np.array([-0.7, 0.0, 0.9, 2.5]).reshape(1, 4)
    out = translate_many(al, CUBIC, x, ys)
    assert out.shape == (3, 4)
    for i, xv in enumerate(x[:, 0]):
        for j, yv in enumerate(ys[0]):
            assert out[i, j] == translate(al, CUBIC, float(xv), float(yv))
    # point masses: tau_0 f = f and tau_x f(0) = f(x)
    np.testing.assert_array_equal(out[1], CUBIC(ys[0]))
    np.testing.assert_array_equal(out[:, 1], CUBIC(x[:, 0]))
    # 2-d ys with one x per row
    y2 = np.array([[0.3, -1.0], [2.0, 0.1], [-0.5, 0.0]])
    out2 = translate_many(al, CUBIC, x, y2)
    assert out2.shape == (3, 2)
    assert out2[2, 0] == translate(al, CUBIC, 0.4, -0.5)
    # scalar in, 0-d out
    assert translate_many(al, CUBIC, 0.4, 0.3).shape == ()


def test_tiny_arguments_use_the_kernel_series():
    al = AlphaParam(1.5)
    # 2s|xy| = 1e-5: series branch, still checked against the quadrature
    x, ys = 1e-3, np.array([-1e-2, 1e-2])
    np.testing.assert_allclose(translate_many(al, CUBIC, x, ys),
                               translate_many(al, _quadrature(CUBIC), x, ys),
                               rtol=0.0, atol=1e-13)
    # ive(a+2, 2s|xy|) underflows here; tau_x f(y) = f(y) + O(|x|)
    ys = np.array([1e-200, 0.5, -2.0])
    np.testing.assert_allclose(translate_many(al, CUBIC, 1e-200, ys),
                               CUBIC(np.array([0.0, 0.5, -2.0])), rtol=1e-14)


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
@pytest.mark.parametrize("f", [CUBIC, GaussPolyFunction((1.0, 1.0), 1.0)])
@pytest.mark.parametrize("x", [1e-3, 1e-8, 1e-20, 1e-200, -1e-200])
def test_quadrature_is_exact_at_tiny_arguments(alpha, f, x):
    """The quadrature path has no cancelling support endpoints: it gave 0,
    inf or nan here when it formed ((|x|+|y|)^2 - (|x|-|y|)^2) / 2."""
    al = AlphaParam(alpha)
    ys = np.array([0.5, -0.7, x])
    np.testing.assert_allclose(translate_many(al, _quadrature(f), x, ys),
                               translate_many(al, f, x, ys),
                               rtol=0.0, atol=1e-12)


def test_path_follows_input_type(monkeypatch):
    al = AlphaParam(0.5)

    def refuse(*args, **kwargs):
        raise AssertionError("wrong translation path")

    ys = np.array([-1.0, 0.0, 0.6])
    monkeypatch.setattr(dunklcore, "_translate_closed", refuse)
    # complex callables and pure polynomials (s = 0) use the quadrature rule
    kern = lambda z: dunkl_kernel_it(al, 0.8, z)
    out = translate_many(al, kern, 0.7, ys)
    assert np.iscomplexobj(out)
    ref = dunkl_kernel_it(al, 0.8, 0.7) * dunkl_kernel_it(al, 0.8, ys)
    np.testing.assert_allclose(out, ref, atol=1e-12)
    one = translate_many(al, GaussPolyFunction((1.0,), 0.0), 0.7, ys)
    np.testing.assert_allclose(one, 1.0, atol=1e-12)
    monkeypatch.undo()
    monkeypatch.setattr(dunklcore, "_translate_quadrature", refuse)
    translate_many(al, CUBIC, 0.7, ys)


# -- (e) one Bessel value per order and distinct 2s|xy| ------------------------

@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_one_call_equals_separate_calls_bitwise(alpha):
    al = AlphaParam(alpha)
    # (2, 0.5), (1, 1) and (-1, -1) share w = 2s|xy| but not G; 0 is a mass
    mags = np.array([2.0, 1.0, 0.5, 0.0, 1e-3, 3.7])
    pm = np.concatenate([mags, -mags])
    one = translate_many(al, CUBIC, pm.reshape(-1, 1), pm.reshape(1, -1))
    m = mags.size
    for i, sx in enumerate((1.0, -1.0)):
        for j, sy in enumerate((1.0, -1.0)):
            sep = translate_many(al, CUBIC, sx * mags.reshape(-1, 1),
                                 sy * mags.reshape(1, -1))
            assert np.array_equal(one[i * m:(i + 1) * m, j * m:(j + 1) * m],
                                  sep)
    # same-shape x and y with few distinct magnitudes: the grid of distinct
    # (|x|, |y|) serves the whole call and each slice alike
    rng = np.random.default_rng(7)
    x = rng.choice(pm, 40000)
    y = rng.choice(np.concatenate([pm, [0.3, -2.2]]), 40000)
    whole = translate_many(al, CUBIC, x, y)
    parts = [translate_many(al, CUBIC, x[i:i + 7001], y[i:i + 7001])
             for i in range(0, x.size, 7001)]
    assert np.array_equal(whole, np.concatenate(parts))


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_per_point_path_is_layout_independent(monkeypatch, alpha):
    # 500 random same-shape pairs: the grid of distinct |x| times distinct
    # |y| has far more cells than points, so the Bessel pair is evaluated
    # once per point, and slices give the whole call's values bit for bit
    al = AlphaParam(alpha)
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-4.0, 4.0, (2, 500))
    work = _count_closed_form_work(monkeypatch, alpha + 1.0)
    for entry in (translate_many, dunklcore._translate_sum):
        work.update(points=0, bessel=0)
        whole = entry(al, CUBIC, x, y)
        assert work == {"points": 500, "bessel": 500}
        parts = [entry(al, CUBIC, x[i:i + 37], y[i:i + 37])
                 for i in range(0, x.size, 37)]
        assert np.array_equal(whole, np.concatenate(parts))
        # and a one-cell grid per point gives the same bits
        assert whole[:40].tolist() == [float(entry(al, CUBIC, a, b))
                                       for a, b in zip(x[:40], y[:40])]


def _count_closed_form_work(monkeypatch, nu):
    """Points reaching the closed form (the broadcast of its x and y), and
    Bessel values of order nu, from an empty grid-factor cache; one call per
    order counts several orders."""
    dunklcore._FACTORS.clear()
    work = {"points": 0, "bessel": 0}
    closed, scaled_j = dunklcore._translate_closed, dunklcore._scaled_j

    def count_points(alpha, f, x, y, *args, **kwargs):
        work["points"] += np.broadcast(x, y).size
        return closed(alpha, f, x, y, *args, **kwargs)

    def count_bessel(order, w):
        if nu == order:
            work["bessel"] += w.size
        return scaled_j(order, w)

    monkeypatch.setattr(dunklcore, "_translate_closed", count_points)
    monkeypatch.setattr(dunklcore, "_scaled_j", count_bessel)
    return work


def test_bessel_pair_shared_by_the_signs(monkeypatch):
    params = _params(1.5, 3)
    work = _count_closed_form_work(monkeypatch, 2.5)    # a + 1
    # conv_profile's kept nodes x of its 80-node rule (bump order n0 = 2)
    # above taylor.X_S take tau_x + tau_{-x} in one pass (those below sum
    # the b_p series); a symmetric us adds +-u: one Bessel value per cell of
    # the grid of the translated distinct |x| and the 37 distinct |u|
    xs, ws = jacobi_rule(80, params.alpha.weight_exp, 0.0, 2.0)
    coef = (ws * dilate(params.alpha, hermite_phi(params.alpha, 2), 0.2)(xs)
            / params.alpha.norm_const)
    kept = kept_terms(np.abs(coef) * (1.0 + xs ** 2))
    far = int((kept & (xs > taylor.X_S)).sum())     # CUBIC's s = 1/2 < 1
    assert far < kept.sum() < 80
    u = np.linspace(0.1, 6.0, 37)
    conv_profile(params.alpha, 3, CUBIC, 0.2)(np.concatenate([u, -u]))
    assert work["points"] == 2 * far * u.size
    assert work["bessel"] == far * u.size
    # lp_norm stacks +-u, remainder_profile has one x: two points per w
    work.update(points=0, bessel=0)
    lp_norm(LpContext(params.alpha, params.p),
            remainder_profile(params.alpha, 3, CUBIC, 0.7))
    assert work["points"] > 0
    assert work["bessel"] <= work["points"] / 2 + 8


@pytest.mark.parametrize("f", [CATALOG["gaussian"], WIDE],
                         ids=["gaussian", "wide_gaussian"])
def test_even_function_pair_takes_one_bessel_order(monkeypatch, f):
    # tau_x f + tau_{-x} f of an even f has D = 0: order a + 1 takes no
    # Bessel value and order a one per cell of the grid of the 80 distinct
    # |x| and 37 distinct |u|; tau_x f alone takes both orders, order a from
    # the grid-factor cache while that grid is in it
    al = AlphaParam(-0.25)
    low = _count_closed_form_work(monkeypatch, al.alpha)
    high = _count_closed_form_work(monkeypatch, al.alpha + 1.0)
    x = np.linspace(0.1, 8.0, 80).reshape(-1, 1)
    u = np.linspace(0.05, 6.0, 37)
    dunklcore._translate_sum(al, f, x, np.concatenate([u, -u]))
    assert (low["bessel"], high["bessel"]) == (80 * u.size, 0)
    translate_many(al, f, x, np.concatenate([u, -u]))
    assert (low["bessel"], high["bessel"]) == (80 * u.size, 80 * u.size)
    dunklcore._FACTORS.clear()
    translate_many(al, f, x, np.concatenate([u, -u]))
    assert (low["bessel"], high["bessel"]) == (2 * 80 * u.size,
                                               2 * 80 * u.size)


def test_point_mass_cells_take_no_bessel_value(monkeypatch):
    # the grid of 4 distinct |x| (one of them 0) and 6 distinct |y| (one of
    # them 0) takes a Bessel value per order on its 3 x 5 cells off the
    # point masses, and gives the values of one point at a time
    al = AlphaParam(0.5)
    low = _count_closed_form_work(monkeypatch, al.alpha)
    high = _count_closed_form_work(monkeypatch, al.alpha + 1.0)
    x = np.array([0.0, 0.3, -1.1, 2.4]).reshape(-1, 1)
    y = np.array([-2.0, -0.5, 0.0, 0.7, 1.6, 3.2])
    got = translate_many(al, CUBIC, x, y)
    assert (low["points"], low["bessel"], high["bessel"]) == (24, 15, 15)
    assert got.tolist() == [[translate(al, CUBIC, float(xv), float(yv))
                             for yv in y] for xv in x[:, 0]]
    assert got[0].tolist() == CUBIC(y).tolist()
    assert got[:, 2].tolist() == CUBIC(x[:, 0]).tolist()


def test_grid_factors_are_kept_per_alpha_and_order():
    # an odd f takes both orders: alpha = 1/2's order a + 1 = 3/2 factor
    # G w n_{3/2}(w) / (2(a+1)) shares its Bessel order, not its value, with
    # alpha = 3/2's order-a factor G n_{3/2}(w) on the same grid and scale
    f = CATALOG["x_gaussian"]
    x = np.linspace(0.2, 3.0, 8).reshape(-1, 1)
    y = np.linspace(-2.5, 2.5, 10)
    lo, hi = AlphaParam(0.5), AlphaParam(1.5)
    dunklcore._FACTORS.clear()
    fresh_lo = translate_many(lo, f, x, y)
    kept_hi = translate_many(hi, f, x, y)
    assert len(dunklcore._FACTORS) == 4
    assert all(not v.flags.writeable for v in dunklcore._FACTORS.values())
    again_lo = translate_many(lo, f, x, y)    # from the cache
    dunklcore._FACTORS.clear()
    np.testing.assert_array_equal(kept_hi, translate_many(hi, f, x, y))
    np.testing.assert_array_equal(again_lo, fresh_lo)


def test_each_sign_pair_is_one_call():
    al = AlphaParam(0.5)
    calls = []

    def g(u):
        calls.append(u.size)
        return CUBIC(u)

    ctx = LpContext(al, 2.0)
    lp_norm(ctx, g)
    assert calls == [2 * NORM_NODES]    # the rule's nodes [u, -u], one call
    calls.clear()
    assert len(_theta_terms(0.5, 1)) > 1
    _theta_weighted_integral(al, 1, 0.9, lambda ys, rows: g(ys))
    # one call: +-|x| t on the rule on (0, 1) of the terms' one family
    assert calls == [2 * 40]


def test_callables_are_called_once(monkeypatch):
    # the quadrature translation takes f at +-z of every point in one call,
    # and convolve's callable g takes +-y of the head rule in one call
    al, calls, quad = AlphaParam(0.5), [], []

    def g(u):
        calls.append(u.size)
        return CUBIC(u)

    def count(alpha, f, x, y):
        quad.append(x.size)
        return orig(alpha, f, x, y)

    orig, nodes = dunklcore._translate_quadrature, dunklcore.TRANSLATE_NODES
    monkeypatch.setattr(dunklcore, "_translate_quadrature", count)
    translate_many(al, g, np.linspace(0.1, 3.0, 351), 0.7)
    assert quad == [351]
    assert calls == [2 * 351 * nodes]       # +-z per node
    calls.clear()
    convolve(al, CUBIC, g, np.linspace(-2.0, 2.0, 7))
    assert calls == [2 * NORM_NODES]


# -- small-x accuracy ------------------------------------------------------------

def test_small_t_conv_norm_keeps_bump_decay():
    """||f * phi_t|| ~ t^(2 n0) with 2 n0 = 4: the symmetric remainder
    tau_x f + tau_{-x} f - 2 sum b_2i L^2i f cancels to ~x^4 at small x, so
    any absolute translation error shows up directly in the ratio."""
    params = _params(1.5, 3)                # the bump of k = 3 has n0 = 2
    ratio = conv_norm(params, CUBIC, 1e-3) / conv_norm(params, CUBIC, 1e-2)
    assert ratio == pytest.approx(1e-4, rel=2e-3)
