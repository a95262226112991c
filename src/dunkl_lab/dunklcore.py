"""Dunkl translation, convolution and transform on the real line.

The translation tau_x f(y) integrates f against the signed measure with
density W_a(x, y, .) supported on S u (-S), S = [||x|-|y||, |x|+|y|].
`translate_many` picks one of two evaluations from its input:

- f = P e^{-s.^2} with s > 0 (a GaussPolyFunction), at every alpha: the
  exact closed form e^{-s(x^2+y^2)} [A(x,y) E_a(-2sxy) + B(x,y) E_a(2sxy)],
  with bivariate polynomials A, B built once per (a, P, s) and e^{-w}
  j_nu(iw) at nu = a, a + 1 (none where its polynomial is zero) from the
  power series, Hankel's and Debye's expansions (_scaled_j), so nothing
  overflows.  The Bessel values run on the grid of distinct |x| and |y|
  (or per point where that is larger); tau_x f + tau_{-x} f is one pass
  (_translate_sum).
- any other callable (profiles, kernels, complex values, pure polynomials):
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
from functools import lru_cache
from typing import Callable

import numpy as np

from .special import AlphaParam, dunkl_kernel_it, _scaled_j
from .funcalg import (GaussPolyFunction, lambda_basis, lambda_coeffs,
                      _at_width, _polyval)
from .quad import kept_terms, rowdot, _integrate_rows, _jacobi_ref, _norm_rules

__all__ = [
    "w_total_variation",
    "translate",
    "translate_many",
    "convolve",
    "dunkl_transform",
    "translate_convolution_commutes",
    "product_formula_residual",
]

TRANSLATE_NODES = 48
#: point-node pairs per quadrature block, translated points per convolve block
_BLOCK = 16384
#: _translate_closed's last grid factors (read-only), oldest first; size caps
_FACTORS, _FACTOR_ENTRIES, _FACTOR_CELLS = {}, 8, 4096


def _measure_const(a: float) -> float:
    # the constant Gamma(a+1)^2 / (2^(a-1) sqrt(pi) Gamma(a+1/2)) of the
    # density W_a, times 2^(2a) / (2 norm_const), by logs: Gamma(a+1)^2
    # overflows
    return (math.exp(math.lgamma(a + 1.0) - math.lgamma(a + 0.5))
            / (2.0 * math.sqrt(math.pi)))


def _measure_nodes(xs, ys, t):
    """|z|/m (floored: 0 where |x| = |y| meets t = -1), b0 = 1 + sgn(xy) t and
    q/|z|, q = x + y + t(sgn(x)|y| + sgn(y)|x|), at the node t of z^2 = x^2
    + y^2 + 2|x||y|t, for xs = x/m, ys = y/m, m = max(|x|, |y|)."""
    axs, ays = np.abs(xs), np.abs(ys)
    zs = np.sqrt(np.maximum(xs * xs + ys * ys + 2.0 * axs * ays * t, 1e-300))
    b0 = 1.0 + np.sign(xs * ys) * t
    q = xs + ys + t * (np.sign(xs) * ays + np.sign(ys) * axs)
    return zs, b0, q / zs


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
    x, ys = np.asarray(x, dtype=float), np.asarray(ys, dtype=float)
    if _has_closed_form(f):
        return _translate_closed(alpha, f, x, ys)
    xb, yb = np.broadcast_arrays(x, ys)
    mass = ((xb == 0.0) | (yb == 0.0)).ravel()
    xv, yv = xb.ravel()[~mass], yb.ravel()[~mass]
    step = max(1, _BLOCK // TRANSLATE_NODES)
    out = np.concatenate([_translate_quadrature(alpha, f, xv[i:i + step],
                                                yv[i:i + step])
                          for i in range(0, max(xv.size, 1), step)])
    if mass.any():
        fm = np.asarray(f(xb.ravel()[mass] + yb.ravel()[mass])).ravel()
        vals, out = out, np.empty(mass.size, np.result_type(out, fm))
        out[~mass], out[mass] = vals, fm
    return out.reshape(xb.shape)


def _translate_sum(alpha: AlphaParam, f: Callable, x, ys):
    """tau_x(f)(y) + tau_{-x}(f)(y), broadcast as by translate_many: one
    closed-form pass where that applies, else the two translates summed."""
    if _has_closed_form(f):
        return _translate_closed(alpha, f, np.asarray(x, dtype=float),
                                 np.asarray(ys, dtype=float), pair=True)
    return sum(translate_many(alpha, f, v, ys) for v in (x, np.negative(x)))


def _has_closed_form(f: Callable) -> bool:
    return isinstance(f, GaussPolyFunction) and f.gauss_scale > 0.0


def _translate_quadrature(alpha: AlphaParam, f: Callable, x, y):
    """tau_x(f)(y) for x, y != 0 (1-d arrays) by the Gauss-Jacobi rule in u
    on _measure_nodes, whose half-width 2|x||y| cancels the density's
    (|x||y|)^(-2a) exactly.  f takes all nodes +-z in one call; one dot
    product per point (rowdot)."""
    a = alpha.alpha
    xj, wj = _jacobi_ref(TRANSLATE_NODES, a - 0.5, a - 0.5)
    m = np.maximum(np.abs(x), np.abs(y))[:, None]
    zs, b0, qz = _measure_nodes(x[:, None] / m, y[:, None] / m, xj[None, :])
    fz, fmz = np.asarray(f(np.concatenate([m * zs, -m * zs]).ravel())
                         ).reshape((2,) + zs.shape)
    s = (fz + fmz) * b0 + (fz - fmz) * qz
    return _measure_const(a) * rowdot(s, wj)


@lru_cache(maxsize=256)
def _closed_form_polys(a: float, coeffs: tuple, s: float, pair: bool = False):
    """Coefficients C[i, j] = ((A + B)[i, j], (B - A)[i, j]) of x^i y^j in
    the closed form for f = P e^{-s.^2}, s > 0:

        tau_x f(y) = e^{-s(x^2+y^2)} [A(x,y) E_a(-2sxy) + B(x,y) E_a(2sxy)].

    P e^{-s.^2} = sum_j c_j L^j(e^{-s.^2}) (lambda_coeffs), and tau_x
    commutes with L: (A, B) sums c_j (A_j, B_j), in order of j, from the
    alpha's unit-width ladder scaled to s (funcalg._at_width).
    With pair, those of tau_x f + tau_{-x} f: x -> -x flips sgn(xy) and odd
    powers of x, leaving 2x the even-x rows of A + B and odd-x rows of B - A.
    """
    if pair:
        out = 2.0 * _closed_form_polys(a, coeffs, s, False)
        out[1::2, :, 0] = out[0::2, :, 1] = 0.0
    else:
        c = lambda_coeffs(a, GaussPolyFunction(coeffs, s))
        sa, sb, _ = np.add.reduce(c[:, None, None, None]
                                  * _at_width(a, s, c.size), axis=0)
        out = np.stack([sa + sb, sb - sa], axis=-1)
    out.flags.writeable = False     # shared by every caller of the cache
    return out


def _distinct(v):
    """np.unique's values and inverse for a 1-d v, by one sort (NaNs are not
    merged); fewer than two entries are their own distinct set."""
    if v.size < 2:
        return v, np.zeros(v.size, np.intp)
    perm, inv = v.argsort(), np.empty(v.size, np.intp)
    u = v[perm]
    new = np.concatenate(([True], u[1:] != u[:-1]))
    inv[perm] = np.cumsum(new) - 1
    return u[new], inv


def _translate_closed(alpha: AlphaParam, f: GaussPolyFunction, x, y,
                      pair: bool = False):
    """tau_x(f)(y) (+ tau_{-x}(f)(y) if pair) at the broadcast of the arrays
    x and y, f = P e^{-s.^2} with s > 0, and the point masses at xy = 0.

    With w = 2s|xy|, G = e^{-s(|x|-|y|)^2}, n_nu = e^{-w} j_nu(iw) and
    E_a(+-w) = j_a(iw) +- w j_{a+1}(iw) / (2(a+1)), tau is G [S n_a +
    sgn(xy) D w n_{a+1} / (2(a+1))] for the parts S, D of _closed_form_polys:
    scaled values only, and no order for a zero part (D, for an even f with
    pair).  n and G depend on (|x|, |y|) alone: one value per cell of the
    grid of _distinct |x| and |y| if it has no more cells than the call has
    points, else per point; _polyval in x per entry of x, then in y, in
    place.  One of the last 8 grids (of at most 4096 cells) takes no Bessel
    pass: its factors are kept by (a, i, s, distinct |x|, distinct |y|), i =
    0, 1 (a + i mixes alphas).  Overflows pass on as inf or nan."""
    a, s = alpha.alpha, f.gauss_scale
    shape = np.broadcast_shapes(x.shape, y.shape)
    (ux, ix), (uy, iy) = (_distinct(np.abs(v).ravel()) for v in (x, y))
    grid = ux.size * uy.size <= math.prod(shape)
    ax, ay = (ux[:, None], uy) if grid else (np.abs(x), np.abs(y))
    pick = ix.reshape(x.shape) * uy.size + iy.reshape(y.shape)
    C, out = _closed_form_polys(a, f.coeffs, s, pair), np.zeros(shape)
    # the point-mass cells (x = 0 or y = 0) take f(x + y) below: no Bessel
    # value there, and a 0 factor
    live = ((ax != 0.0) & (ay != 0.0)).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        w = (2.0 * s * (ax * ay)).ravel()
        g = np.exp(-s * (ax - ay) ** 2).ravel()
        for i, c in enumerate((g, 0.5 * w / (a + 1.0) * g)):
            if C[..., i].any():
                key = (a, i, s, ux.tobytes(), uy.tobytes()) if grid else None
                v = _FACTORS.pop(key, None)     # put back as the newest
                if v is None and live.all():
                    v = c * _scaled_j(a + i, w)
                elif v is None:
                    v = np.zeros(w.size)
                    v[live] = c[live] * _scaled_j(a + i, w[live])
                if grid and v.size <= _FACTOR_CELLS:
                    v.flags.writeable = False
                    _FACTORS[key] = v
                    if len(_FACTORS) > _FACTOR_ENTRIES:
                        del _FACTORS[next(iter(_FACTORS))]
                p = _polyval(_polyval(C[(..., i) + (None,) * x.ndim], x), y)
                p *= v[pick] if grid else v.reshape(shape)
                if i:
                    p *= np.sign(x * y)
                out += p
        mass = (x == 0.0) | (y == 0.0)
        if mass.any():
            xm, ym = (np.broadcast_to(v, shape)[mass] for v in (x, y))
            out[mass] = f(xm + ym) + f(ym - xm) if pair else f(xm + ym)
    return out


def w_total_variation(alpha: AlphaParam, x, y):
    """int |W_a(x,y,.)| dmu_a over the full support (both sign branches), in
    the node t and the terms of _translate_quadrature, so exact at |xy| -> 0;
    1 at xy = 0.  x, y broadcast: one adaptive pass on a shared partition."""
    xb, yb = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    out, mass = np.ones(xb.shape), (xb == 0.0) | (yb == 0.0)
    xv, yv = xb[~mass][:, None], yb[~mass][:, None]
    m = np.maximum(np.abs(xv), np.abs(yv))

    def g(t):
        _, b0, qz = _measure_nodes(xv / m, yv / m, t)
        return np.abs(b0 + qz) + np.abs(b0 - qz)

    # the weight (1 - t^2)^(a - 1/2) is even: fold t < 0 onto t > 0 and put
    # its singular endpoint t = 1 at s = 1 - t = 0
    e = alpha.alpha - 0.5
    out[~mass] = _measure_const(alpha.alpha) * _integrate_rows(
        lambda s: (g(1.0 - s) + g(s - 1.0)) * (s * (2.0 - s)) ** e,
        0.0, 1.0, e)[0]
    return out if out.ndim else float(out)


def convolve(alpha: AlphaParam, f: Callable, g: Callable, x):
    """Dunkl convolution (f *_a g)(x) = int tau_x(f)(-y) g(y) dmu_a(y), for
    a scalar x or an array of x (the result has its shape).

    Two algebra elements P e^{-s.^2} with s > 0 take the closed form of
    _convolve_closed.  Otherwise g must decay: the outer rule is the L^p
    rule on (0, NORM_T) at its kept nodes (term size |w_j|
    max|g(+-y_j)|, one call of g); one translate_many call takes -y and y
    for a block of x values, at most _BLOCK points in all."""
    if _has_closed_form(f) and _has_closed_form(g):
        # one order for the pair, so f * g and g * f are the same numbers
        f, g = sorted((f, g), key=lambda h: (h.gauss_scale, h.coeffs))
        return _convolve_closed(alpha.alpha, f, g)(np.asarray(x, float))
    y, w = _norm_rules(alpha)
    gy, gmy = np.split(np.asarray(g(np.concatenate([y, -y]))), 2)
    keep = kept_terms(w * np.maximum(np.abs(gy), np.abs(gmy)))
    y, w, gy, gmy = (v[keep] for v in (y, w, gy, gmy))
    ypm = np.concatenate([-y, y])
    xv = np.reshape(x, (-1, 1)).astype(float)
    step = max(1, _BLOCK // ypm.size)
    out = []
    for i in range(0, xv.shape[0], step):
        tau = translate_many(alpha, f, xv[i:i + step], ypm)
        out.append(rowdot(w, tau[:, :y.size] * gy + tau[:, y.size:] * gmy))
    return (np.concatenate(out) / alpha.norm_const).reshape(np.shape(x))[()]


@lru_cache(maxsize=256)
def _convolve_closed(a: float, f: GaussPolyFunction, g: GaussPolyFunction):
    """f * g for f = P e^{-s.^2}, g = Q e^{-r.^2} with s, r > 0.  As
    F(L^j e^{-s.^2})(xi) = (i xi)^j (2s)^(-(a+1)) e^{-xi^2/(4s)} and
    F(f * g) = F(f) F(g) (Roesler 1998), f * g = (2(s+r))^(-(a+1)) sum_n e_n
    L^n e^{-sigma.^2}, sigma = sr/(s+r), with e the discrete convolution of
    the Lambda-coefficient lists of f and g."""
    s, r = f.gauss_scale, g.gauss_scale
    e = np.convolve(lambda_coeffs(a, f), lambda_coeffs(a, g))
    sigma = s * r / (s + r)
    c = (2.0 * (s + r)) ** -(a + 1.0) * e @ lambda_basis(a, sigma, e.size)
    return GaussPolyFunction(tuple(c), sigma)


def dunkl_transform(alpha: AlphaParam, f: Callable, xi):
    """Dunkl transform F_a(f)(xi) = int f(y) E_a(-i xi y) dmu_a(y) on the L^p
    rule's kept nodes (size |w_j| max|f(+-y_j)|), xi a scalar or an
    array; f and E_a run once, each xi a scalar call's value."""
    y, w = _norm_rules(alpha)
    fy, fmy = np.split(np.asarray(f(np.concatenate([y, -y]))), 2)
    keep = kept_terms(w * np.maximum(np.abs(fy), np.abs(fmy)))
    y, w, fy, fmy = (v[keep] for v in (y, w, fy, fmy))
    v = np.reshape(xi, (-1, 1))
    e = dunkl_kernel_it(alpha, np.concatenate([-v, v]), y)  # one column
    out = [complex(np.dot(w, r) / alpha.norm_const)
           for r in fy * e[:v.size] + fmy * e[v.size:]]
    return np.reshape(out, np.shape(xi)) if np.ndim(xi) else out[0]


def translate_convolution_commutes(alpha: AlphaParam, f: Callable, h: Callable,
                                   t: float, x: float) -> float:
    """Max pairwise discrepancy of tau_t(f *_a h), tau_t(f) *_a h and
    f *_a tau_t(h) at the point x (NaN if any of the three is NaN)."""
    conv_fh = lambda ys: convolve(alpha, f, h, ys)
    v1 = translate(alpha, conv_fh, t, x)
    tf = lambda ys: translate_many(alpha, f, t, ys)
    v2 = convolve(alpha, tf, h, x)
    th = lambda ys: translate_many(alpha, h, t, ys)
    v3 = convolve(alpha, f, th, x)
    return float(np.max([abs(v1 - v2), abs(v1 - v3), abs(v2 - v3)]))


def product_formula_residual(alpha: AlphaParam, x, y, t: float):
    """|E(ixt) E(iyt) - int E(itz) dgamma_{x,y}(z)|; x and y may be arrays
    (one residual per broadcast pair, one translation for all)."""
    e = lambda z: dunkl_kernel_it(alpha, t, z)
    xb, yb = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    tau = translate_many(alpha, e, xb, yb)
    # complex products and moduli in Python: numpy's round differently
    out = [abs(u * v - r) for u, v, r in zip(
        e(xb).ravel().tolist(), e(yb).ravel().tolist(), tau.ravel().tolist())]
    return np.reshape(out, xb.shape) if xb.ndim else out[0]
