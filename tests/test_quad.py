import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as beta_fn

from dunkl_lab.special import AlphaParam
from dunkl_lab.funcalg import GaussPolyFunction
from dunkl_lab import quad
from dunkl_lab.quad import (integrate, jacobi_rule, LpContext,
                            lp_norm, lp_norm_full, lp_norm_from_nodes,
                            norm_node_values)


def test_integrate_rejects_a_nonintegrable_endpoint():
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, 1.0, endpoint_exponent=-1.0)


def test_integrate_smooth():
    val, err = integrate(np.exp, 0.0, 1.0)
    assert val == pytest.approx(math.e - 1.0, abs=1e-12)
    assert err < 1e-10


def test_integrate_orders_arguments():
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 0.0)


def test_integrate_returns_two_python_floats():
    # the benchmark tracer reads float(out[1]) of every integrate call;
    # integrals with leading row axes go through _integrate_rows
    for out in (integrate(np.exp, 0.0, 1.0),
                integrate(lambda x: x ** -0.5, 0.0, 1.0, -0.5)):
        assert type(out) is tuple and [type(v) for v in out] == [float, float]


def test_row_integrals_share_one_partition():
    # int_0^1 e^(cx) dx per row c, all rows on one partition, each within
    # integrate's tolerance; the error estimates come back per row
    c = np.array([[1.0, -3.0], [12.0, 0.5]])
    val, err = quad._integrate_rows(lambda x: np.exp(c[..., None] * x),
                                    0.0, 1.0)
    assert val.shape == err.shape == c.shape
    assert np.allclose(val, np.expm1(c) / c, rtol=1e-12, atol=0.0)
    assert (err <= np.maximum(quad.ABS_TOL, quad.REL_TOL * val)).all()


def test_integrate_endpoint_singularity():
    # int_0^1 x^(-1/2) dx = 2, singular weight declared and removed exactly
    val, _ = integrate(lambda x: x ** -0.5, 0.0, 1.0, -0.5)
    assert val == pytest.approx(2.0, abs=1e-10)
    # and a genuinely weighted integrand on top of it
    val, _ = integrate(lambda x: x ** -0.5 * np.cos(x), 0.0, 1.0, -0.5)
    # reference from the rapidly convergent series sum (-1)^k / (2k)! /(2k+1/2)
    ref = sum((-1.0) ** k / math.factorial(2 * k) / (2 * k + 0.5)
              for k in range(12))
    assert val == pytest.approx(ref, abs=1e-10)


def test_jacobi_rule_beta_oracle():
    # sum of weights = int_0^1 z^p (1-z)^q dz = B(p+1, q+1); the reference
    # rule on [-1, 1] carries the factor 2^(p+q+1)
    for p, q in [(0.0, 0.0), (-0.4, 0.0), (2.0, -0.3), (1.5, 2.5)]:
        _, w = quad._jacobi_ref(20, p, q)
        assert w.sum() * 0.5 ** (p + q + 1.0) == pytest.approx(
            beta_fn(p + 1.0, q + 1.0), rel=1e-13)
        if q == 0.0:
            _, w = jacobi_rule(20, p, 0.0, 1.0)
            assert w.sum() == pytest.approx(beta_fn(p + 1.0, 1.0), rel=1e-13)


@pytest.mark.parametrize("e", [-0.5 + 1e-15, -0.5 + 1e-9, -0.95, 0.0, 1.0])
def test_symmetric_jacobi_rule_moments(e):
    # int_{-1}^{1} x^(2m) (1-x^2)^e dx = B(m + 1/2, e + 1); equal exponents
    # near -1/2 (translation at alpha ~ 0) broke the Gegenbauer route
    z, w = quad._jacobi_ref(48, e, e)
    assert np.all(np.abs(z) < 1.0) and np.all(np.diff(z) > 0.0)
    for m in (0, 1, 5, 20, 47):
        assert np.dot(w, z ** (2 * m)) == pytest.approx(
            beta_fn(m + 0.5, e + 1.0), rel=1e-13)
    assert quad._jacobi_ref(1, e, e)[1][0] == pytest.approx(
        beta_fn(0.5, e + 1.0), rel=1e-14)


def test_jacobi_rule_affine_scaling():
    # int_1^3 (z-1)^0.5 (3-z)^0.5 z dz against adaptive quadrature, by the
    # reference rule moved to (1, 3) (half-width 1); int_1^3 (z-1)^0.5 z dz
    # by jacobi_rule's own scaling
    ref, _ = integrate(lambda z: (z - 1.0) ** 0.5 * (3.0 - z) ** 0.5 * z,
                       1.0, 3.0)
    x, w = quad._jacobi_ref(12, 0.5, 0.5)
    val = np.dot(w, 2.0 + x)
    assert val == pytest.approx(ref, rel=1e-10)
    ref, _ = integrate(lambda z: (z - 1.0) ** 0.5 * z, 1.0, 3.0)
    z, w = jacobi_rule(12, 0.5, 1.0, 3.0)
    assert np.dot(w, z) == pytest.approx(ref, rel=1e-10)


def test_jacobi_rule_rejects_nonintegrable():
    with pytest.raises(ValueError):
        jacobi_rule(8, -1.0, 0.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8),
       st.floats(-0.45, 2.0))
def test_jacobi_rule_polynomial_exactness(coeffs, ea):
    # degree <= 7 polynomial integrated exactly by an 8-point rule
    z, w = jacobi_rule(8, ea, 0.0, 2.0)
    val = float(np.dot(w, np.polynomial.polynomial.polyval(z, coeffs)))
    ref = sum(c * 2.0 ** (i + ea + 1.0) / (i + ea + 1.0)
              for i, c in enumerate(coeffs))
    assert val == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_lp_context_validation():
    # the rule sums |g|^p: at p = inf that gives 1 for 2 e^{-x^2}, whose sup
    # norm is 2, and a NaN p gives nan
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="1 <= p < inf"):
            LpContext(AlphaParam(0.5), p)


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_lp_norm_gaussian_closed_form(alpha, p):
    # || exp(-s x^2) ||_p^p = (2 p s)^-(alpha+1) for the normalized measure
    al = AlphaParam(alpha)
    s = 0.7
    ctx = LpContext(al, p)
    f = GaussPolyFunction((1.0,), s)
    ref = (2.0 * p * s) ** (-(alpha + 1.0) / p)
    assert lp_norm(ctx, f) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_truncation_at_norm_t_drops_at_most_1e_20(alpha, p):
    # for f = P e^{-s x^2} of degree d and |x| >= NORM_T >= 1, |f|^p <=
    # c^p |x|^(dp) e^{-ps x^2} with c = sum |P's coefficients|, so the mass
    # of |f|^p dmu_a beyond NORM_T is at most
    #   c^p (ps)^(-m/2) Gamma(m/2, ps NORM_T^2) / (2^(a+1) Gamma(a+1)),
    # m = dp + 2a + 2: at most 1e-20 of ||f||_p^p for every catalog function
    mp = pytest.importorskip("mpmath")
    from dunkl_lab.verify import CATALOG
    al, t = AlphaParam(alpha), quad.NORM_T
    assert t >= 1.0
    for name, f in CATALOG.items():
        c, d, s = sum(map(abs, f.coeffs)), len(f.coeffs) - 1, f.gauss_scale
        m = d * p + 2.0 * alpha + 2.0
        with mp.workdps(30):
            bound = (mp.mpf(c) ** p * mp.mpf(p * s) ** (-m / 2.0)
                     * mp.gammainc(m / 2.0, p * s * t * t)
                     / (2.0 ** (alpha + 1.0) * mp.gamma(alpha + 1.0)))
        assert bound <= 1e-20 * lp_norm(LpContext(al, p), f) ** p, name


def test_lp_norm_rejects_pure_polynomial():
    al = AlphaParam(0.5)
    ctx = LpContext(al, 2.0)
    with pytest.raises(ValueError):
        lp_norm(ctx, GaussPolyFunction((0.0, 1.0), 0.0))



# -- the one reduction: rows, cached rules -----------------------------------

def _profile_rows(x):
    # a Gaussian and a cubic one, each dilated by every x: one row per x
    def g(u):
        x2 = np.asarray(x)[..., None]
        return (np.exp(-(u / x2) ** 2) * (1.0 + u - 0.3 * u ** 3 / x2))
    return g


@pytest.mark.parametrize("alpha", [-0.25, 1.5, 120.0])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_row_norms_equal_single_profile_bitwise(alpha, p, shape):
    ctx = LpContext(AlphaParam(alpha), p)
    xs = np.linspace(0.3, 2.9, int(np.prod(shape))).reshape(shape)
    rows = lp_norm_from_nodes(ctx, norm_node_values(ctx.alpha,
                                                    _profile_rows(xs)))
    assert isinstance(rows, np.ndarray) and rows.shape == shape
    ref = [lp_norm_full(ctx, _profile_rows(x)) for x in xs.ravel().tolist()]
    assert rows.ravel().tolist() == ref
    assert all(type(v) is float for v in ref)
    assert np.all(rows > 0.0)


@pytest.mark.parametrize("at", [0, -1])
def test_a_nan_at_an_end_node_makes_its_row_nan(at):
    # the first and the last of a row's 2 NORM_NODES values are rule nodes:
    # a NaN there is that row's norm, and the other rows keep their bits
    ctx = LpContext(AlphaParam(0.5), 2.0)
    values = norm_node_values(ctx.alpha, _profile_rows(np.array([0.4, 1.1,
                                                                 2.6])))
    assert values.shape == (3, 2 * quad.NORM_NODES)
    spoiled = values.copy()
    spoiled[1, at] = math.nan
    clean, got = (lp_norm_from_nodes(ctx, v) for v in (values, spoiled))
    assert math.isnan(got[1]) and not np.isnan(clean).any()
    assert got[[0, 2]].tolist() == clean[[0, 2]].tolist()


@pytest.mark.parametrize("alpha", [-0.25, 1.5])
@pytest.mark.parametrize("p", [1.0, 2.5])
def test_node_values_are_one_call_that_lp_norm_from_nodes_splits(alpha, p):
    # norm_node_values calls g once, on the rule's nodes [u, -u];
    # lp_norm_from_nodes gives the rule's sum from them and its 1/p root,
    # bit for bit
    al, calls = AlphaParam(alpha), []
    g = _profile_rows(np.array([0.4, 1.1, 2.6]))

    def counted(u):
        calls.append(u.size)
        return g(u)

    values = norm_node_values(al, counted)
    z, w = quad._norm_rules(al)
    assert calls == [2 * z.size] and values.shape == (3, calls[0])
    hv = np.abs(g(np.concatenate([z, -z]))) ** p
    head = np.maximum(quad.rowdot(w, hv[:, :z.size] + hv[:, z.size:])
                      / al.norm_const, 0.0)
    assert lp_norm_from_nodes(LpContext(al, p), values).tolist() == [
        h ** (1.0 / p) for h in head.tolist()]


def test_rowdot_of_strided_rows_equals_their_contiguous_copy():
    # a weight array whose last axis is not unit-stride: each row's dot
    # product is the C-order copy's, bit for bit
    rng = np.random.default_rng(7)
    for w in (rng.standard_normal((40, 2 * 97))[:, ::2],
              rng.standard_normal((40, 97, 2))[..., 0]):
        v = rng.standard_normal((40, 97))
        assert w.strides[-1] != w.itemsize
        assert quad.rowdot(w, v).tolist() == quad.rowdot(w.copy(), v).tolist()


def test_rules_are_built_once_per_alpha(monkeypatch):
    calls = []
    orig = quad.jacobi_rule

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(quad, "jacobi_rule", counted)
    quad._norm_rules.cache_clear()
    al, f = AlphaParam(0.8125), GaussPolyFunction((1.0, 2.0), 0.6)
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(5):
            lp_norm_full(LpContext(al, p), f)
        lp_norm_from_nodes(LpContext(al, p), norm_node_values(
            al, _profile_rows(np.array([0.5, 1.0]))))
    assert len(calls) == 1          # the one L^p rule


def test_cached_rules_are_read_only():
    for v in quad._norm_rules(AlphaParam(0.5)):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0
