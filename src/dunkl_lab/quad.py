"""Quadrature engines and weighted L^p norms for the measure
dmu_a(x) = |x|^(2a+1) / (2^(a+1) Gamma(a+1)) dx.

Endpoint-singular integrals (exponent a - 1/2 can be negative) are handled
by analytic weight extraction with Gauss-Jacobi rules; everything else goes
through adaptive Gauss-Kronrod (QUADPACK).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import integrate as sint
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

from .special import AlphaParam

__all__ = [
    "QuadSpec",
    "LpContext",
    "QuadratureError",
    "integrate",
    "integrate_jacobi",
    "jacobi_rule",
    "lp_norm",
    "lp_norm_full",
    "lp_norm_from_nodes",
    "norm_node_values",
    "NormEstimate",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the partial estimate."""

    def __init__(self, message, partial=None, error=None):
        super().__init__(message)
        self.partial = partial
        self.error = error


@dataclass(frozen=True)
class QuadSpec:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000
    endpoint_exponent: Optional[float] = None  # singularity at the left endpoint

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.endpoint_exponent is not None and self.endpoint_exponent <= -1.0:
            raise ValueError("endpoint exponent must be > -1 (integrable)")


DEFAULT_SPEC = QuadSpec()


def integrate(f: Callable, a: float, b: float, spec: QuadSpec = DEFAULT_SPEC,
              points=None):
    """Adaptive integral of f on (a, b); returns (value, error_estimate).

    A declared integrable singularity (x - a)^e at the left endpoint is
    removed analytically by the substitution x = a + u^(1/(1+e)).
    """
    if not a < b:
        raise ValueError("need a < b")
    g, lo, hi = f, a, b
    if spec.endpoint_exponent is not None and spec.endpoint_exponent < 0.0:
        e = spec.endpoint_exponent
        g1 = 1.0 / (1.0 + e)

        def g(u, _f=f):
            return _f(a + u ** g1) * g1 * u ** (g1 - 1.0)

        lo, hi = 0.0, (b - a) ** (1.0 + e)
        points = None
    kw = {}
    if points is not None:
        pts = [p for p in points if lo < p < hi]
        if pts:
            kw["points"] = pts
    val, err, info, *rest = sint.quad(
        g, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.max_subdivisions, full_output=True, **kw)
    if rest:  # QUADPACK warning message present
        raise QuadratureError(rest[0], partial=val, error=err)
    return val, err


@lru_cache(maxsize=256)
def _jacobi_ref(n: int, exp_a: float, exp_b: float):
    # reference rule on [-1, 1] for weight (1+x)^exp_a (1-x)^exp_b
    if exp_a == exp_b:
        return _symmetric_jacobi_ref(n, exp_a)
    x, w = roots_jacobi(n, exp_b, exp_a)
    return x, w


def _symmetric_jacobi_ref(n: int, e: float):
    """Gauss rule for (1-x^2)^e on [-1, 1] by Golub-Welsch.

    roots_jacobi sends equal exponents to roots_gegenbauer, whose first
    recurrence coefficient sqrt(2l / (4 l (1+l))), l = e + 1/2, cancels as
    e -> -1/2: at e = -1/2 + 1e-15 its nodes leave [-1, 1].  Here that
    coefficient is sqrt(1 / (2(1+l))), and the weights are the Christoffel
    numbers 1 / sum_k p_k(x)^2 of the orthonormal recurrence.
    """
    lam = e + 0.5
    k = np.arange(2.0, n)
    b = np.concatenate([[math.sqrt(0.5 / (1.0 + lam))],
                        np.sqrt(k * (k + 2.0 * lam - 1.0)
                                / (4.0 * (k + lam) * (k + lam - 1.0)))])[:n - 1]
    x = eigh_tridiagonal(np.zeros(n), b, eigvals_only=True)
    mu0 = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)
    p_prev, p = np.zeros(n), np.full(n, 1.0 / math.sqrt(mu0))
    total = p * p
    for j in range(n - 1):
        p_prev, p = p, (x * p - (b[j - 1] * p_prev if j else 0.0)) / b[j]
        total += p * p
    return x, 1.0 / total


def jacobi_rule(n: int, exp_a: float, exp_b: float, a: float, b: float):
    """Nodes and weights integrating f(z) (z-a)^exp_a (b-z)^exp_b exactly
    for polynomial f up to degree 2n-1, as sum(w * f(z)).  For arrays a, b
    of shape (..., 1) each row scales by a scalar power (numpy's array power
    can differ in the last bit), so it is its own interval's rule bit for bit.
    """
    if exp_a <= -1.0 or exp_b <= -1.0:
        raise ValueError("Jacobi exponents must be > -1")
    x, w = _jacobi_ref(n, float(exp_a), float(exp_b))
    r = 0.5 * (b - a)
    z = 0.5 * (a + b) + r * x
    e = exp_a + exp_b + 1.0
    if np.ndim(r):
        return z, w * np.reshape([v ** e for v in np.ravel(r).tolist()],
                                 np.shape(r))
    return z, w * r ** e


def rowdot(w, v):
    """Dot products along the last axis, each one np.dot of its two rows, so
    unlike a matrix product a row's value does not depend on the others."""
    return np.matmul(w[..., None, :], v[..., :, None])[..., 0, 0]


def integrate_jacobi(f: Callable, a: float, b: float, exp_a: float,
                     exp_b: float, n: int) -> float:
    """Gauss-Jacobi value of int_a^b f(z) (z-a)^exp_a (b-z)^exp_b dz."""
    z, w = jacobi_rule(n, exp_a, exp_b, a, b)
    return float(np.dot(w, np.asarray(f(z), dtype=float)))


# -- weighted L^p norms -------------------------------------------------------

@dataclass(frozen=True)
class LpContext:
    alpha: AlphaParam
    p: float
    truncation_T: float
    quad: QuadSpec = field(default_factory=QuadSpec)
    n_nodes: int = 160

    def __post_init__(self):
        if self.p < 1.0:
            raise ValueError("p must be >= 1")
        if self.truncation_T <= 0.0:
            raise ValueError("truncation radius must be positive")


@dataclass(frozen=True)
class NormEstimate:
    value: float
    head: float      # integral over [-T, T]
    tail: float      # estimated mass on T < |x| < 2T
    T: float


def _norm_rules(ctx: LpContext):
    # the head rule on (0, T), weight u^(2a+1) extracted; the tail's on (T, 2T)
    T = ctx.truncation_T
    return (jacobi_rule(ctx.n_nodes, ctx.alpha.weight_exp, 0.0, 0.0, T),
            jacobi_rule(32, 0.0, 0.0, T, 2.0 * T))


def norm_node_values(ctx: LpContext, g: Callable):
    """|g| on [u, -u] for the nodes u of lp_norm_full's head and tail rules,
    g called once per rule.  The rules do not depend on p, so these values
    give the norm for every p (lp_norm_from_nodes).  g must accept numpy
    arrays; reject non-normable algebra elements upstream."""
    from .funcalg import GaussPolyFunction
    if isinstance(g, GaussPolyFunction) and not g.is_normable:
        raise ValueError("pure polynomials are not in L^p(mu_alpha)")
    return [np.abs(np.asarray(g(np.concatenate([z, -z]))))
            for z, _ in _norm_rules(ctx)]


def lp_norm_from_nodes(ctx: LpContext, values) -> NormEstimate:
    """lp_norm_full at ctx.p from norm_node_values at any p, same rules."""
    a, p = ctx.alpha, ctx.p
    (z, w), (zt, wt) = _norm_rules(ctx)
    hv, tv = (v ** p for v in values)
    head = max(float(np.dot(w, hv[:z.size] + hv[z.size:])) / a.norm_const, 0.0)
    tail = float(np.dot(wt, (tv[:zt.size] + tv[zt.size:])
                        * zt ** a.weight_exp)) / a.norm_const
    return NormEstimate(head ** (1.0 / p), head, max(tail, 0.0),
                        ctx.truncation_T)


def row_norms(ctx: LpContext, values) -> np.ndarray:
    """lp_norm_from_nodes of each row of a profile's norm_node_values."""
    return np.array([lp_norm_from_nodes(ctx, rows).value
                     for rows in zip(*values)])


def lp_norm_full(ctx: LpContext, g: Callable) -> NormEstimate:
    """(int_{-T}^{T} |g|^p dmu_a)^(1/p) with a crude tail estimate."""
    return lp_norm_from_nodes(ctx, norm_node_values(ctx, g))


def lp_norm(ctx: LpContext, g: Callable) -> float:
    return lp_norm_full(ctx, g).value


# -- Chebyshev grids with barycentric interpolation ---------------------------

def cheb_nodes(n: int, a: float, b: float) -> np.ndarray:
    """Chebyshev points of the first kind mapped to [a, b]."""
    k = np.arange(n)
    x = np.cos((2 * k + 1) * math.pi / (2 * n))
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def cheb_interpolator(nodes: np.ndarray, values: np.ndarray) -> Callable:
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
