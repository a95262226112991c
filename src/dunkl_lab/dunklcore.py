"""Dunkl translation, convolution and transform on the real line.

The translation tau_x f(y) integrates f against the signed measure with
density W_a(x, y, .) supported on S u (-S), S = [||x|-|y||, |x|+|y|].
`translate_many` picks one of two evaluations from its input:

- f = P e^{-s.^2} with s > 0 (a GaussPolyFunction): the exact closed form
  e^{-s(x^2+y^2)} [A(x,y) E_a(-2sxy) + B(x,y) E_a(2sxy)], with bivariate
  polynomials A, B built once per (a, P, s) and the kernel from the power
  series and Hankel's expansion of e^{-w} j_nu(iw), so nothing overflows.
  The Bessel pair depends only on w = 2s|xy|, so one call evaluates it once
  per distinct value: the points (+-x, +-y) of a symmetric family share it.
- any other callable (profiles, kernels, complex values, pure polynomials,
  and P e^{-s.^2} for alpha above ~16):
  under u = z^2 the integrand becomes an analytic function of u times the
  exact Jacobi weight ((b^2-u)(u-a^2))^(a-1/2), so a single cached
  Gauss-Jacobi rule gives uniform spectral accuracy, including the
  degenerate |x| = |y| case (the endpoint exponents never change).  The
  integrand is written in x, y and the node directly, without the support
  endpoints, so it does not cancel as |xy| -> 0.

Both broadcast x against y; x = 0 or y = 0 is the point mass f(x + y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import integrate as sint

from .special import AlphaParam, dunkl_kernel_it
from .funcalg import GaussPolyFunction, dunkl_apply
from .quad import DEFAULT_SPEC, jacobi_rule, rowdot, _jacobi_ref

__all__ = [
    "TranslationMeasure",
    "w_kernel",
    "w_total_variation",
    "translate",
    "translate_many",
    "convolve",
    "dunkl_transform",
    "translate_convolution_commutes",
    "product_formula_residual",
]

TRANSLATE_NODES = 48
#: points (closed form) or point-node pairs (quadrature) per evaluation block
_BLOCK = 16384


def _w_const(a: float) -> float:
    return math.gamma(a + 1.0) ** 2 / (2.0 ** (a - 1.0) * math.sqrt(math.pi)
                                       * math.gamma(a + 0.5))


@dataclass(frozen=True)
class TranslationMeasure:
    """The measure gamma_{x,y}: density on S u (-S), or a point mass when
    one of the arguments vanishes."""

    alpha: AlphaParam
    x: float
    y: float

    @property
    def kind(self) -> str:
        if self.x == 0.0:
            return "point_mass_y"
        if self.y == 0.0:
            return "point_mass_x"
        return "density"

    @property
    def support(self):
        ax, ay = abs(self.x), abs(self.y)
        return (abs(ax - ay), ax + ay)

    def total_variation(self) -> float:
        if self.kind != "density":
            return 1.0
        return w_total_variation(self.alpha, self.x, self.y)


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


def translate(alpha: AlphaParam, f: Callable, x: float, y: float):
    """Dunkl translation tau_x(f)(y) at one point."""
    v = translate_many(alpha, f, x, y)[()]
    return complex(v) if np.iscomplexobj(v) else float(v)


def translate_many(alpha: AlphaParam, f: Callable, x, ys):
    """Vectorized tau_x(f)(y); x is a scalar or an array that broadcasts
    against ys, and the result has the broadcast shape.

    A GaussPolyFunction with gauss_scale > 0 is translated in closed form;
    any other callable goes through the 48-node Gauss-Jacobi rule.  Points
    with x = 0 or y = 0 take the point-mass value f(x + y).
    """
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(ys, dtype=float))
    xv, yv = xb.ravel(), yb.ravel()
    mass = (xv == 0.0) | (yv == 0.0)
    if not mass.any():
        return _translate_moving(alpha, f, xv, yv).reshape(xb.shape)
    vals = _translate_moving(alpha, f, xv[~mass], yv[~mass])
    fm = np.asarray(f(xv[mass] + yv[mass])).ravel()
    out = np.empty(xv.size, dtype=np.result_type(vals, fm))
    out[~mass] = vals
    out[mass] = fm
    return out.reshape(xb.shape)


def _translate_moving(alpha: AlphaParam, f: Callable, x, y):
    """tau_x(f)(y) for x, y != 0 (1-d arrays), in blocks of bounded size."""
    if isinstance(f, GaussPolyFunction) and f.gauss_scale > 0.0 and all(
            _bessel_tables(alpha.alpha + d) for d in (1.0, 2.0)):
        return _translate_closed(alpha, f, x, y)
    step = max(1, _BLOCK // TRANSLATE_NODES)
    if x.size <= step:
        return _translate_quadrature(alpha, f, x, y)
    return np.concatenate([_translate_quadrature(alpha, f, x[i:i + step],
                                                 y[i:i + step])
                           for i in range(0, x.size, step)])


def _translate_quadrature(alpha: AlphaParam, f: Callable, x, y):
    """tau_x(f)(y) for x, y != 0 (1-d arrays) by the Gauss-Jacobi rule in u.

    With t the Jacobi node, u = z^2 = x^2 + y^2 + 2|x||y|t and every term is
    written without the cancelling differences of the support endpoints:
    b0 = 1 + sgn(xy) t, q = x + y + t(sgn(x)|y| + sgn(y)|x|), and the
    half-width r = 2|x||y| cancels the density's (|x||y|)^(-2a) exactly.
    z and q are scaled by m = max(|x|, |y|), so q / z is free of underflow.
    One dot product per point (rowdot): no value depends on the call.
    """
    a = alpha.alpha
    xj, wj = _jacobi_ref(TRANSLATE_NODES, a - 0.5, a - 0.5)
    m = np.maximum(np.abs(x), np.abs(y))[:, None]
    xs, ys = x[:, None] / m, y[:, None] / m
    axs, ays = np.abs(xs), np.abs(ys)
    zs = np.sqrt(xs * xs + ys * ys + 2.0 * axs * ays * xj[None, :])
    z = m * zs
    fz = np.asarray(f(z.ravel())).reshape(z.shape)
    fmz = np.asarray(f(-z.ravel())).reshape(z.shape)
    b0 = 1.0 + np.sign(xs * ys) * xj[None, :]
    q = xs + ys + xj[None, :] * (np.sign(xs) * ays + np.sign(ys) * axs)
    s = (fz + fmz) * b0 + (fz - fmz) * (q / zs)
    # _w_const(a) 2^(2a) / (2 norm_const), whose Gamma(a+1)^2 overflows
    # from a ~ 85 on
    pref = (math.exp(math.lgamma(a + 1.0) - math.lgamma(a + 0.5))
            / (2.0 * math.sqrt(math.pi)))
    return pref * rowdot(s, wj)


def _dunkl_step(P, Q, sx: float, s: float, c: float):
    """Coefficients of dP/dy + sx x P - 2s y P + c odd_y(Q)/y, where entry
    [i, j] multiplies x^i y^j (the last row and column of P must be zero)."""
    out = P[:, 1:] * np.arange(1, P.shape[1])
    out = np.pad(out, ((0, 0), (0, 1)))
    out[1:, :] += sx * P[:-1, :]
    out[:, 1:] -= 2.0 * s * P[:, :-1]
    out[:, 0:-1:2] += c * Q[:, 1::2]
    return out


@lru_cache(maxsize=256)
def _closed_form_polys(a: float, coeffs: tuple, s: float):
    """Coefficients C[i, j] = ((A + B)[i, j], (B - A)[i, j]) of x^i y^j in
    the closed form for f = P e^{-s.^2}, s > 0:

        tau_x f(y) = e^{-s(x^2+y^2)} [A(x,y) E_a(-2sxy) + B(x,y) E_a(2sxy)].

    P e^{-s.^2} = sum_j c_j L^j(e^{-s.^2}) is triangular in j (L^j of the
    Gaussian has degree j and leading coefficient (-2s)^j).  tau_x commutes
    with L, tau_x(e^{-s.^2})(y) = e^{-s(x^2+y^2)} E_a(-2sxy) (Roesler 1998),
    and L(e^{-sy^2} h) = e^{-sy^2}(L - 2sy)h.  On h = A K + B sigma(K) with
    K(y) = E_a(-2sxy), [L, y] = 1 + (2a+1) sigma gives
    L(y^m K) = m y^(m-1) K - 2sx y^m K + [m odd] (2a+1) y^(m-1) sigma(K),
    hence one step of L - 2sy maps (A, B) to
    (dA/dy - 2s(x+y)A + (2a+1) odd(B)/y, dB/dy + 2s(x-y)B + (2a+1) odd(A)/y).
    """
    m = len(coeffs)
    basis, g = [], GaussPolyFunction((1.0,), s)
    for _ in range(m):
        basis.append(np.pad(g.coeffs, (0, m - len(g.coeffs))))
        g = dunkl_apply(a, g)
    rest, c = np.array(coeffs), np.zeros(m)
    for j in range(m - 1, -1, -1):
        c[j] = rest[j] / basis[j][j]
        rest = rest - c[j] * basis[j]
    A, B = np.zeros((m, m)), np.zeros((m, m))
    A[0, 0] = 1.0
    sa, sb = c[0] * A, c[0] * B
    for j in range(1, m):
        A, B = (_dunkl_step(A, B, -2.0 * s, s, 2.0 * a + 1.0),
                _dunkl_step(B, A, 2.0 * s, s, 2.0 * a + 1.0))
        sa, sb = sa + c[j] * A, sb + c[j] * B
    out = np.stack([sa + sb, sb - sa], axis=-1)
    out.flags.writeable = False     # shared by every caller of the cache
    return out


#: upper band edges of _scaled_j: the power series below 25, Hankel above
_BESSEL_EDGES = (0.25, 1.0, 3.0, 8.0, 15.0, 25.0, 40.0, 80.0, 200.0, 1000.0,
                 math.inf)


@lru_cache(maxsize=64)
def _bessel_tables(nu: float):
    """(Hankel?, coefficients highest first) per band of _BESSEL_EDGES: the
    last term below 2^-56 of the sum at the band's top (series) or bottom
    (Hankel).  Where Hankel's largest term is over 16 times its sum (large
    nu) the series serves, up to w = 80; None beyond that (nu above ~18)."""
    def terms(ratio, x):
        c, t, s, cs, big = 1.0, 1.0, 1.0, [1.0], 1.0
        for j in range(1, 400):
            c, t = c * ratio(j), t * ratio(j) * x
            s, big = s + t, max(big, abs(t))
            cs.append(c)
            if abs(t) < 2.0 ** -56 * abs(s):
                return np.array(cs[::-1]), big / abs(s)
        return None, math.inf

    bands, lo = [], 0.0
    for hi in _BESSEL_EDGES:
        cs, big = terms(lambda k: ((2 * k - 1) ** 2 - 4.0 * nu * nu)
                        / (8.0 * k), 1.0 / lo) if lo >= 25.0 else (None, math.inf)
        if big > 16.0:
            if hi > 80.0:
                return None
            cs, _ = terms(lambda m: 1.0 / (m * (nu + m)), hi * hi / 4.0)
        bands.append((big <= 16.0, cs))
        lo = hi
    return tuple(bands)


def _scaled_j(nu: float, w):
    """n_nu(w) = e^{-w} j_nu(iw) for sorted w >= 0, one slice of w per band,
    so a value depends on its own w only: below w = 25 the power series
    e^{-w} sum_m z^m / (m! (nu+1)_m), z = w^2/4 (DLMF 10.25.2), above it
    Hankel's Gamma(nu+1) (2/w)^nu (2 pi w)^(-1/2) sum_k a_k(nu) (-w)^(-k)
    (DLMF 10.40.1; the dropped branch is below e^-50).  Within 1.7e-15
    relative of 40-digit values for nu in [0.75, 9]."""
    ends = np.searchsorted(w, _BESSEL_EDGES).tolist()
    out = np.full(w.shape, np.nan)      # nan stays nan
    pre = math.gamma(nu + 1.0) * 2.0 ** nu / math.sqrt(2.0 * math.pi)
    for (hankel, cs), i, j in zip(_bessel_tables(nu), [0] + ends, ends):
        if j > i:
            ws = w[i:j]
            v = 1.0 / ws if hankel else 0.25 * ws * ws
            acc = cs[0] * v + cs[1]
            for c in cs[2:]:
                acc *= v
                acc += c
            out[i:j] = (pre * ws ** -(nu + 0.5) * acc if hankel
                        else acc * np.exp(-ws))
    return out


def _translate_closed(alpha: AlphaParam, f: GaussPolyFunction, x, y):
    """tau_x(f)(y) for x, y != 0 (1-d arrays), f = P e^{-s.^2} with s > 0.

    With w = 2s|xy|, G = e^{-s(|x|-|y|)^2} and n_nu = e^{-w} j_nu(iw),
    j_a(iw) = j_{a+1}(iw) + w^2 j_{a+2}(iw) / (4(a+1)(a+2)) gives

        e^{-s(x^2+y^2)} E_a(+-w)
            = G [n_{a+1} + w^2 n_{a+2} / (4(a+1)(a+2)) +- w n_{a+1} / (2(a+1))],

    so only positive orders and scaled values occur.  The Bessel pair
    depends on w alone, which the points (+-x, +-y) share, so _scaled_j
    takes the distinct w of the call, sorted; the polynomials, G and the
    combination run in blocks of _BLOCK points.
    """
    a, s = alpha.alpha, f.gauss_scale
    w = 2.0 * s * np.abs(x * y)
    # distinct values of w and the index of each point's value among them
    # (np.unique does the same at several times the per-call cost)
    order = np.argsort(w)
    ws = w[order]
    first = np.ones(ws.size, dtype=bool)
    first[1:] = ws[1:] != ws[:-1]
    wu = ws[first]
    inv = np.empty(w.size, dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    n1, n2 = _scaled_j(a + 1.0, wu), _scaled_j(a + 2.0, wu)
    even = n1 + 0.25 * wu * wu / ((a + 1.0) * (a + 2.0)) * n2
    odd = 0.5 * wu / (a + 1.0) * n1
    C = _closed_form_polys(a, f.coeffs, s)
    out = np.empty(w.size)
    for i in range(0, w.size, _BLOCK):
        xb, yb, ib = x[i:i + _BLOCK], y[i:i + _BLOCK], inv[i:i + _BLOCK]
        S, D = polyval(yb, polyval(xb, C), tensor=False)
        g = np.exp(-s * (np.abs(xb) - np.abs(yb)) ** 2)
        out[i:i + _BLOCK] = g * (S * even[ib] + np.sign(xb * yb) * D * odd[ib])
    return out


def w_total_variation(alpha: AlphaParam, x: float, y: float) -> float:
    """int |W_a(x,y,.)| dmu_a over the full support (both sign branches), in
    the node t and the terms of _translate_quadrature, so exact at |xy| -> 0."""
    if x == 0.0 or y == 0.0:
        return 1.0
    a = alpha.alpha
    m = max(abs(x), abs(y))
    xs, ys = x / m, y / m
    sx, sy = math.copysign(1.0, x), math.copysign(1.0, y)

    def g(t):
        zs = math.sqrt(max(xs * xs + ys * ys + 2.0 * abs(xs * ys) * t, 1e-300))
        b0 = 1.0 + sx * sy * t
        q = (xs + ys + t * (sx * abs(ys) + sy * abs(xs))) / zs
        return abs(b0 + q) + abs(b0 - q)

    res = sint.quad(g, -1.0, 1.0, weight="alg", wvar=(a - 0.5, a - 0.5),
                    epsabs=DEFAULT_SPEC.abs_tol, epsrel=DEFAULT_SPEC.rel_tol,
                    limit=DEFAULT_SPEC.max_subdivisions, full_output=True)
    return _w_const(a) * 2.0 ** (2.0 * a) / (2.0 * alpha.norm_const) * res[0]


def convolve(alpha: AlphaParam, f: Callable, g: Callable, x,
             T: float = None):
    """Dunkl convolution (f *_a g)(x) = int tau_x(f)(-y) g(y) dmu_a(y), for
    a scalar x or an array of x (the result has its shape).

    g must decay; T truncates the 120-node outer rule (default from g's
    support_hint when available).  One translate_many call takes the nodes
    -y and y for a block of x values, at most _BLOCK points in all; when f
    is translated in closed form, each value equals a scalar call's bit for
    bit."""
    if T is None:
        T = getattr(g, "support_hint", None) or 10.0
    y, w = jacobi_rule(120, alpha.weight_exp, 0.0, 0.0, T)
    ypm = np.concatenate([-y, y])
    gy = np.asarray(g(y))
    gmy = np.asarray(g(-y))
    xv = np.reshape(x, (-1, 1)).astype(float)
    step = max(1, _BLOCK // ypm.size)
    out = []
    for i in range(0, xv.shape[0], step):
        tau = translate_many(alpha, f, xv[i:i + step], ypm)
        out.append(rowdot(w, tau[:, :y.size] * gy + tau[:, y.size:] * gmy))
    return (np.concatenate(out) / alpha.norm_const).reshape(np.shape(x))[()]


def dunkl_transform(alpha: AlphaParam, f: Callable, xi: float,
                    T: float = None) -> complex:
    """Dunkl transform F_a(f)(xi) = int f(y) E_a(-i xi y) dmu_a(y)."""
    if T is None:
        T = getattr(f, "support_hint", None) or 10.0
    y, w = jacobi_rule(200, alpha.weight_exp, 0.0, 0.0, T)
    ep = dunkl_kernel_it(alpha, -xi, y)
    em = dunkl_kernel_it(alpha, xi, y)
    fy = np.asarray(f(y))
    fmy = np.asarray(f(-y))
    return complex(np.dot(w, fy * ep + fmy * em) / alpha.norm_const)


def translate_convolution_commutes(alpha: AlphaParam, f: Callable, h: Callable,
                                   t: float, x: float,
                                   T: float = None) -> float:
    """Max pairwise discrepancy of tau_t(f *_a h), tau_t(f) *_a h and
    f *_a tau_t(h) at the point x."""
    if T is None:
        Tf = getattr(f, "support_hint", None) or 10.0
        Th = getattr(h, "support_hint", None) or 10.0
        T = max(Tf, Th) + abs(t)
    conv_fh = lambda ys: convolve(alpha, f, h, ys, T=T)
    v1 = translate(alpha, conv_fh, t, x)
    tf = lambda ys: translate_many(alpha, f, t, ys)
    v2 = convolve(alpha, tf, h, x, T=T)
    th = lambda ys: translate_many(alpha, h, t, ys)
    v3 = convolve(alpha, f, th, x, T=T)
    return max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3))


def product_formula_residual(alpha: AlphaParam, x: float, y: float,
                             t: float) -> float:
    """|E(ixt) E(iyt) - int E(itz) dgamma_{x,y}(z)|."""
    lhs = (complex(dunkl_kernel_it(alpha, t, x))
           * complex(dunkl_kernel_it(alpha, t, y)))
    rhs = translate(alpha, lambda z: dunkl_kernel_it(alpha, t, z), x, y)
    return abs(lhs - rhs)
