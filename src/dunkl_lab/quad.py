"""Quadrature engines and weighted L^p norms for the measure
dmu_a(x) = |x|^(2a+1) / (2^(a+1) Gamma(a+1)) dx.

Endpoint-singular integrals (exponent a - 1/2 can be negative) are handled
by analytic weight extraction with Gauss-Jacobi rules (Golub-Welsch, Math.
Comp. 23, 1969); everything else goes through a vectorized adaptive
Gauss-Kronrod 10/21 scheme with QUADPACK's error estimate (Piessens et al.,
1983).  numpy is the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .special import AlphaParam

__all__ = [
    "LpContext",
    "NORM_T",
    "QuadratureError",
    "integrate",
    "jacobi_rule",
    "lp_norm",
    "lp_norm_full",
    "lp_norm_from_nodes",
    "norm_node_values",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the partial estimate."""

    def __init__(self, message, partial=None, error=None):
        super().__init__(message)
        self.partial = partial
        self.error = error


#: integrate's absolute and relative tolerances and its interval budget
ABS_TOL, REL_TOL, MAX_SUBDIVISIONS = 1e-11, 1e-9, 2000
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


# QUADPACK's qk21: Kronrod nodes on (0, 1] (the odd ones are Gauss nodes),
# Kronrod weights (the last for 0) and Gauss weights, to the nearest double
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
       0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
       0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
       0.14887433898163122)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
       0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
       0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
       0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287)
_X21 = np.array([-v for v in _XK] + [0.0] + list(_XK[::-1]))
_W21 = np.array(_WK[:10] + _WK[::-1])
_G21 = np.zeros(21)
_G21[1:10:2], _G21[11:20:2] = _WG, _WG[::-1]


def _gk21(g, lo, hi, partial=None):
    """Kronrod values and QUADPACK error estimates, stacked, on the intervals
    (lo, hi) per row of g's values, g called once on the 21 nodes of all;
    QuadratureError with the partial sum so far on a non-finite value."""
    h = 0.5 * (hi - lo)
    fz = g(((lo + h)[:, None] + h[:, None] * _X21).ravel())
    fz = np.asarray(fz, float).reshape(np.shape(fz)[:-1] + (h.size, 21))
    if not np.isfinite(fz).all():
        raise QuadratureError("nan or infinite integrand value", partial=partial)
    k = fz @ _W21
    err, asc = np.abs(k - fz @ _G21), np.abs(fz - 0.5 * k[..., None]) @ _W21
    with np.errstate(over="ignore"):    # an infinite 200 err gives factor 1
        err = np.where(asc > 0.0, asc * np.minimum(
            1.0, (200.0 * err / np.where(asc > 0.0, asc, 1.0)) ** 1.5), err)
    return h * np.stack([k, np.maximum(err, 50.0 * np.finfo(float).eps
                                       * (np.abs(fz) @ _W21))])


def integrate(f: Callable, a: float, b: float,
              endpoint_exponent: Optional[float] = None):
    """Adaptive integral of f on (a, b); returns (value, error_estimate).

    f maps an array of points to the array of its values.  Each round
    bisects every interval whose error estimate exceeds its share of the
    tolerance, and evaluates f once on the 21 nodes of all new intervals.
    A declared integrable singularity (x - a)^e at the left endpoint is
    removed analytically by the substitution x = a + u^(1/(1+e)).
    QuadratureError, with the finite partial sum where there is one, when
    that would pass MAX_SUBDIVISIONS, on a nan or infinite value, or where
    an interval is too narrow to bisect in floats (QUADPACK's test; a
    non-integrable singularity ends at one of the last two).
    """
    return tuple(map(float, _integrate_rows(f, a, b, endpoint_exponent)))


def _integrate_rows(f, a, b, endpoint_exponent=None):
    """integrate for f mapping points (n,) to (*rows, n), values and errors
    per row: one partition, bisected for the rows that have not converged."""
    if not a < b:
        raise ValueError("need a < b")
    e = endpoint_exponent
    if e is not None and e <= -1.0:
        raise ValueError("endpoint exponent must be > -1 (integrable)")
    g, lo, hi = f, a, b
    if e is not None and e < 0.0:
        g1 = 1.0 / (1.0 + e)

        def g(u, _f=f):
            return _f(a + u ** g1) * g1 * u ** (g1 - 1.0)

        lo, hi = 0.0, (b - a) ** (1.0 + e)
    lo, hi = np.array([lo], dtype=float), np.array([hi], dtype=float)
    ve = _gk21(g, lo, hi)   # values and error estimates
    while True:
        total, esum = ve.sum(-1)
        tol = np.fmax(ABS_TOL, REL_TOL * np.abs(total))
        left = ~(esum <= tol)
        if not left.any():
            return total, esum
        split = (ve[1] > tol[..., None] / hi.size)[left].any(0)
        split[np.argmax(ve[1][left], -1)] = True    # rounding can leave none
        mid, keep, n = 0.5 * (lo + hi)[split], ~split, 2 * split.sum()
        nan = np.isnan(esum).any()
        narrow = (np.maximum(np.abs(lo), np.abs(hi))[split] <= (
            1.0 + 100.0 * _EPS) * (np.abs(mid) + 1000.0 * _TINY)).any()
        if nan or narrow or hi.size + split.sum() > MAX_SUBDIVISIONS:
            raise QuadratureError(
                "nan integrand value" if nan else "interval too narrow to "
                "bisect" if narrow else "maximum number of subdivisions "
                "reached", partial=total[()], error=esum[()])
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        ve = np.concatenate([ve[..., keep],
                             _gk21(g, lo[-n:], hi[-n:], total[()])], axis=-1)


@lru_cache(maxsize=256)
def _jacobi_ref(n: int, exp_a: float, exp_b: float):
    """Gauss rule on [-1, 1] for the weight (1+x)^exp_a (1-x)^exp_b by
    Golub-Welsch: eigenvalues of the Jacobi matrix of P^(exp_b, exp_a), each
    moved by one Newton step dx on the recurrence, and the Christoffel
    numbers mu0 / sum_{k<n} p_k(x)^2 of the orthonormal p_k, taken to first
    order at x + dx (nearer 30-digit values at the extreme nodes than the
    derivative formula).  The first off-diagonal entry is written without
    the 0/0 of exponent sum s = -1.
    """
    al, be = exp_b, exp_a
    s = al + be
    a, b = [(be - al) / (s + 2.0)], []
    for k in range(1, n):
        d = 2.0 * k + s
        a.append((be - al) * s / (d * (d + 2.0)))
        b.append(math.sqrt(4.0 * k * (k + al) * (k + be) * (
            (k + s) / (d * d * (d * d - 1.0)) if k > 1
            else 1.0 / ((2.0 + s) ** 2 * (3.0 + s)))))
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b, -1))
    b = [0.0] + b + [1.0]                                # p_n unnormalised
    p0, p, dp0, dp, sq, cross = 0.0, np.ones(n), 0.0, np.zeros(n), 1.0, 0.0
    for j in range(n):
        t, bp, bj = x - a[j], b[j], b[j + 1]
        p0, p = p, (t * p - bp * p0) / bj
        dp0, dp = dp, (t * dp + p0 - bp * dp0) / bj
        if j < n - 1:
            sq += p * p
            cross += p * dp
    dx = -p / dp
    mu0 = (2.0 ** (s + 1.0) * math.gamma(al + 1.0) * math.gamma(be + 1.0)
           / math.gamma(s + 2.0) if s < 160.0 else
           math.exp((s + 1.0) * math.log(2.0) + math.lgamma(al + 1.0)
                    + math.lgamma(be + 1.0) - math.lgamma(s + 2.0)))
    return x + dx, mu0 / (sq + 2.0 * dx * cross)


def jacobi_rule(n: int, exp: float, a: float, b: float):
    """Nodes and weights integrating f(z) (z-a)^exp exactly on (a, b) for
    polynomial f up to degree 2n-1, as sum(w * f(z)).  OverflowError where
    a weight is not finite (a large exponent on a wide interval)."""
    if exp <= -1.0:
        raise ValueError("Jacobi exponents must be > -1")
    x, w = _jacobi_ref(n, float(exp), 0.0)
    r = 0.5 * (b - a)
    z = 0.5 * (a + b) + r * x
    scale = r ** (exp + 1.0)
    # the weights are positive: the largest product decides, in floats
    if not math.isfinite(float(w.max()) * scale):
        raise OverflowError(f"Gauss-Jacobi weights overflow a float (weight "
                            f"exponent {exp:g} over a width {b - a:g})")
    return z, w * scale


#: terms of an outer quadrature sum below this share of the largest drop
KEEP_RATIO = 2.0 ** -70


def kept_terms(size):
    """Mask of the terms whose a-priori size (|weight| times a bound on the
    integrand) is >= KEEP_RATIO of the largest, or not finite (nan stays)."""
    finite = np.isfinite(size)
    return ~finite | (size >= KEEP_RATIO * size.max(where=finite, initial=0.0))


def rowdot(w, v):
    """Dot products along the last axis, each one np.dot of its two rows in
    C order (a row's rounding follows its stride), so unlike a matrix
    product a row's value does not depend on the others."""
    w, v = np.ascontiguousarray(w), np.ascontiguousarray(v)
    return np.matmul(w[..., None, :], v[..., :, None])[..., 0, 0]


# -- weighted L^p norms -------------------------------------------------------

#: nodes of the rule on (0, NORM_T), and truncation radius, of every L^p norm
NORM_NODES, NORM_T = 160, 16.0


@dataclass(frozen=True)
class LpContext:
    alpha: AlphaParam
    p: float

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:
            raise ValueError("p must satisfy 1 <= p < inf")


@lru_cache(maxsize=64)
def _norm_rules(alpha: AlphaParam):
    # the one rule of every dmu_a integral and L^p norm: (0, NORM_T), weight
    # u^(2a+1) extracted; |x| > NORM_T is truncated, not sampled
    z, w = jacobi_rule(NORM_NODES, alpha.weight_exp, 0.0, NORM_T)
    for v in (z, w):
        v.flags.writeable = False       # shared by every caller of the cache
    return z, w


def norm_node_values(alpha: AlphaParam, g: Callable):
    """|g| at the L^p rule's nodes [u, -u], one array (2 NORM_NODES on its
    last axis) from one call of g, which must accept numpy arrays (reject
    non-normable algebra elements upstream).  lp_norm_from_nodes reduces it
    at any p."""
    from .funcalg import GaussPolyFunction
    if isinstance(g, GaussPolyFunction) and not g.is_normable:
        raise ValueError("pure polynomials are not in L^p(mu_alpha)")
    z, _ = _norm_rules(alpha)
    return np.abs(np.asarray(g(np.concatenate([z, -z]))))


def lp_norm_from_nodes(ctx: LpContext, values):
    """(int_{-T}^{T} |g|^p dmu_a)^(1/p), T = NORM_T, from norm_node_values at
    ctx.p: a float for one profile, or an array in the rows' shape for each
    row along leading axes (a row's dot product and 1/p root are its own,
    bit for bit)."""
    a, p = ctx.alpha, ctx.p
    _, w = _norm_rules(a)
    vp = np.asarray(values) ** p
    mass = np.maximum(rowdot(w, vp[..., :w.size] + vp[..., w.size:])
                      / a.norm_const, 0.0)
    root = [m ** (1.0 / p) for m in np.ravel(mass).tolist()]
    return np.reshape(root, mass.shape) if mass.ndim else root[0]


# lp_norm and lp_norm_full: one reduction under the two names
# perfbench/tracer.py wraps, so neither calls the other
def lp_norm_full(ctx: LpContext, g: Callable) -> float:
    """(int_{-T}^{T} |g|^p dmu_a)^(1/p), T = NORM_T."""
    return lp_norm_from_nodes(ctx, norm_node_values(ctx.alpha, g))


def lp_norm(ctx: LpContext, g: Callable) -> float:
    return lp_norm_from_nodes(ctx, norm_node_values(ctx.alpha, g))
