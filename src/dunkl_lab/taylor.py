"""Generalized Taylor formula with integral remainder.

The expansion coefficients b_p, the remainder kernels Theta_k built by the
u/v recursion, the order-k remainder R_k in both its integral and recurrence
forms, the iterated integrals I_k, and the symmetric remainder.

For a fixed first argument x, each Theta_k(x, .) is a finite combination of
power terms  c * sgn(y)^s * |y|^e  (the recursion integrates powers), so the
default evaluation path is exact term algebra.  Resonant alpha values, where
some antiderivative exponent hits -1, are detected and must use the numeric
nested-quadrature mode instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .special import AlphaParam, pochhammer
from .funcalg import GaussPolyFunction, dunkl_power
from .quad import QuadSpec, DEFAULT_SPEC, integrate, jacobi_rule
from .dunklcore import translate, translate_many

__all__ = [
    "ResonantAlphaError",
    "b_coeff",
    "b_poly",
    "ThetaKernel",
    "theta",
    "theta_mass",
    "theta0_moment",
    "remainder",
    "remainder_profile",
    "taylor_identity_residual",
    "remainder_recursion_residual",
    "iterated_integral_I",
    "symmetric_remainder",
    "symmetric_remainder_residual",
]

MAX_NESTED_ORDER = 4


class ResonantAlphaError(ValueError):
    """Symbolic kernel mode hit an exponent -1 antiderivative (log branch)."""


def b_coeff(alpha, p: int, x) -> float:
    """Taylor coefficient b_p(x):

    b_{2m}(x)   = (x/2)^{2m}   / ((a+1)_m m!)
    b_{2m+1}(x) = (x/2)^{2m+1} / ((a+1)_{m+1} m!)
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    a = alpha.alpha if isinstance(alpha, AlphaParam) else float(alpha)
    m, odd = divmod(p, 2)
    den = pochhammer(a + 1.0, m + odd) * math.factorial(m)
    x = np.asarray(x, dtype=float)
    val = (x / 2.0) ** p / den
    return val if val.ndim else float(val)


def b_poly(alpha, p: int) -> GaussPolyFunction:
    """b_p as an element of the algebra (pure monomial, s = 0)."""
    c = b_coeff(alpha, p, 2.0) / 2.0 ** p   # coefficient of x^p
    return GaussPolyFunction((0.0,) * p + (c,), 0.0)


# -- Theta kernels: symbolic power-term tables --------------------------------

def _integrate_terms_from(terms, ax: float):
    """Antiderivative step: terms(z) -> int_m^ax terms(z) dz as terms of m,
    for z > 0 (so sgn factors are 1)."""
    out = []
    for c, _sp, e in terms:
        if abs(e + 1.0) < 1e-9:
            raise ResonantAlphaError(
                f"antiderivative exponent hit -1 (term exponent {e}); "
                "use numeric mode")
        out.append((c * ax ** (e + 1.0) / (e + 1.0), 0, 0.0))
        out.append((-c / (e + 1.0), 0, e + 1.0))
    return out


def _merge(terms):
    acc = {}
    for c, sp, e in terms:
        key = (sp, round(e, 12))
        acc[key] = acc.get(key, 0.0) + c
    return [(c, sp, e) for (sp, e), c in acc.items() if c != 0.0]


@lru_cache(maxsize=4096)
def _theta_terms(a: float, k: int, x: float):
    """Power-term table of Theta_k(x, .) for fixed x: [(c, sgn_pow, exp)]."""
    ax = abs(x)
    we = 2.0 * a + 1.0
    u = [(math.copysign(0.5, x) / ax ** we, 0, 0.0)]
    v = [(0.5, 1, -we)]
    for _ in range(k):
        u_next = _integrate_terms_from(v, ax)
        # v-step: multiply u by A(z) = z^(2a+1), integrate, then sgn(y)/A(y)
        shifted = [(c, sp, e + we) for c, sp, e in u]
        v_next = [(c, 1, e - we) for c, _sp, e in _integrate_terms_from(shifted, ax)]
        u, v = _merge(u_next), _merge(v_next)
    return tuple(_merge(u + v))


def _eval_terms(terms, y):
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    sg = np.sign(y)
    out = np.zeros_like(ay)
    for c, sp, e in terms:
        t = c * ay ** e if e != 0.0 else np.full_like(ay, c)
        if sp:
            t = t * sg
        out = out + t
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ThetaKernel:
    """Order-k Taylor remainder kernel Theta_k(x, y)."""

    alpha: AlphaParam
    order: int
    eval_mode: str = "symbolic_power_terms"

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.eval_mode not in ("symbolic_power_terms", "numeric_nested"):
            raise ValueError(f"unknown eval_mode {self.eval_mode!r}")

    def term_table(self, x: float):
        """Symbolic power terms of Theta_order(x, .); raises on resonance."""
        return _theta_terms(self.alpha.alpha, self.order, float(x))


def _theta_numeric(alpha: AlphaParam, k: int, x: float, y: float,
                   spec: QuadSpec) -> float:
    if k > MAX_NESTED_ORDER:
        raise ValueError(f"numeric nesting is limited to order {MAX_NESTED_ORDER}")
    a = alpha.alpha
    ax = abs(x)
    we = 2.0 * a + 1.0

    def u(j, m):
        if j == 0:
            return math.copysign(0.5, x) / ax ** we
        if m >= ax:
            return 0.0
        val, _ = integrate(lambda z: v(j - 1, z), m, ax, spec.inner())
        return val

    def v(j, m):
        # value of v_j(x, z) at z = m > 0
        if j == 0:
            return 0.5 / m ** we
        if m >= ax:
            return 0.0
        val, _ = integrate(lambda z: u(j - 1, z) * z ** we, m, ax, spec.inner())
        return val / m ** we

    ay = abs(y)
    return u(k, ay) + math.copysign(1.0, y) * v(k, ay)


def theta(kernel: ThetaKernel, x: float, y: float,
          spec: QuadSpec = DEFAULT_SPEC) -> float:
    """Theta_k(x, y) for |y| <= |x|, x != 0."""
    if x == 0.0:
        raise ValueError("x must be nonzero")
    if abs(y) > abs(x) + 1e-15:
        raise ValueError("theta requires |y| <= |x|")
    if kernel.eval_mode == "symbolic_power_terms":
        return float(_eval_terms(kernel.term_table(x), y))
    if y == 0.0:
        raise ValueError("numeric mode requires y != 0")
    return _theta_numeric(kernel.alpha, kernel.order, x, y, spec)


def theta_mass(alpha: AlphaParam, k: int, x: float,
               spec: QuadSpec = DEFAULT_SPEC) -> float:
    """int_{-|x|}^{|x|} |Theta_{k-1}(x, y)| A(y) dy."""
    if x == 0.0:
        raise ValueError("x must be nonzero")
    terms = _theta_terms(alpha.alpha, k - 1, float(x))
    we = alpha.weight_exp
    ax = abs(x)

    def g(y):
        return (abs(_eval_terms(terms, y)) + abs(_eval_terms(terms, -y))) * y ** we

    val, _ = integrate(g, 0.0, ax, spec)
    return val


def theta0_moment(alpha: AlphaParam, p: int, x: float,
                  spec: QuadSpec = DEFAULT_SPEC) -> float:
    """int_{-|x|}^{|x|} Theta_0(x, y) b_p(y) A(y) dy  (equals b_{p+1}(x))."""
    if x == 0.0:
        raise ValueError("x must be nonzero")
    terms = _theta_terms(alpha.alpha, 0, float(x))
    we = alpha.weight_exp
    ax = abs(x)

    def g(y):
        return (_eval_terms(terms, y) * b_coeff(alpha, p, y)
                + _eval_terms(terms, -y) * b_coeff(alpha, p, -y)) * y ** we

    val, _ = integrate(g, 0.0, ax, spec)
    return val


# -- Theta-weighted integrals over (-|x|, |x|) --------------------------------

def _theta_weighted_integral(alpha: AlphaParam, terms, x: float,
                             h_many: Callable, split: Optional[float] = None,
                             n: int = 40) -> float:
    """int_{-|x|}^{|x|} Theta(x,y) h(y) A(y) dy with the A-weight carried
    analytically (per power term, the |y| exponent goes into a Jacobi rule).

    h_many maps a signed y-array to values; `split` marks an interior kink
    (typically |a| for translation-based integrands).
    """
    ax = abs(x)
    pieces = [(0.0, ax)]
    if split is not None and 0.0 < split < ax:
        pieces = [(0.0, split), (split, ax)]
    we = alpha.weight_exp
    total = 0.0
    for c, sp, e in terms:
        ee = e + we          # exponent of the full weight Theta-term * A
        sgn_fac = (-1.0) ** sp
        for j, (lo, hi) in enumerate(pieces):
            if lo == 0.0:
                z, w = jacobi_rule(n, ee, 0.0, lo, hi)
                fac = np.ones_like(z)
            else:
                z, w = jacobi_rule(n, 0.0, 0.0, lo, hi)
                fac = z ** ee
            hpm = np.asarray(h_many(np.concatenate([z, -z])))
            hp, hm = hpm[:n], hpm[n:]
            total += c * float(np.dot(w, fac * (hp + sgn_fac * hm)))
    return total


def _translate_profile(alpha: AlphaParam, f: Callable, a: float) -> Callable:
    """y |-> tau_y(f)(a), batched via the symmetry tau_y f(a) = tau_a f(y)."""
    return lambda ys: translate_many(alpha, f, a, ys)


# -- the remainder -------------------------------------------------------------

def remainder(alpha: AlphaParam, k: int, f: GaussPolyFunction, x: float,
              a: float, mode: str = "integral", n: int = 40) -> float:
    """Integral remainder R_k(x, f)(a) of the generalized Taylor formula.

    integral mode:   int_{-|x|}^{|x|} Theta_{k-1}(x,y) tau_y(L^k f)(a) A(y) dy
    recurrence mode: tau_x(f)(a) - sum_{p<k} b_p(x) L^p f(a)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if x == 0.0:
        raise ValueError("x must be nonzero")
    if mode == "recurrence":
        val = translate(alpha, f, x, a)
        for p in range(k):
            val -= b_coeff(alpha, p, x) * dunkl_power(alpha, f, p)(a)
        return float(val)
    if mode != "integral":
        raise ValueError(f"unknown mode {mode!r}")
    g = dunkl_power(alpha, f, k)
    terms = _theta_terms(alpha.alpha, k - 1, float(x))
    return _theta_weighted_integral(alpha, terms, x,
                                    _translate_profile(alpha, g, a),
                                    split=abs(a), n=n)


def remainder_profile(alpha: AlphaParam, k: int, f: GaussPolyFunction,
                      x: float) -> Callable:
    """u |-> R_k(x, f)(u), vectorized (recurrence form)."""
    consts = [(b_coeff(alpha, p, x), dunkl_power(alpha, f, p))
              for p in range(k)]

    def prof(us):
        val = translate_many(alpha, f, x, us)
        for bp, lpf in consts:
            val = val - bp * lpf(np.asarray(us, dtype=float))
        return val

    return prof


def taylor_identity_residual(alpha: AlphaParam, k: int, f: GaussPolyFunction,
                             x: float, a: float, n: int = 40) -> float:
    """|tau_x f(a) - sum_{p<k} b_p(x) L^p f(a) - R_k(x,f)(a)| with the
    integral-mode remainder."""
    lhs = translate(alpha, f, x, a)
    rhs = sum(b_coeff(alpha, p, x) * dunkl_power(alpha, f, p)(a)
              for p in range(k))
    rhs += remainder(alpha, k, f, x, a, mode="integral", n=n)
    return abs(lhs - rhs)


def remainder_recursion_residual(alpha: AlphaParam, k: int,
                                 f: GaussPolyFunction, x: float, a: float,
                                 n: int = 40) -> float:
    """Residual of R_k(x,f)(a) = int Theta_0(x,y) R_{k-1}(y, Lf)(a) A(y) dy."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = remainder(alpha, k, f, x, a, mode="recurrence")
    lf = dunkl_power(alpha, f, 1)
    consts = [(p, dunkl_power(alpha, lf, p)(a)) for p in range(k - 1)]
    tprof = _translate_profile(alpha, lf, a)

    def inner_rem(ys):
        val = np.asarray(tprof(ys), dtype=float).copy()
        for p, lpval in consts:
            val -= b_coeff(alpha, p, np.asarray(ys)) * lpval
        return val

    terms = _theta_terms(alpha.alpha, 0, float(x))
    rhs = _theta_weighted_integral(alpha, terms, x, inner_rem,
                                   split=abs(a), n=n)
    return abs(lhs - rhs)


def iterated_integral_I(alpha: AlphaParam, k: int, f: GaussPolyFunction,
                        x: float, a: float, n: int = 40,
                        n_cheb: int = 48) -> float:
    """I_k(x, f)(a): k-fold Theta_0-weighted iterate of the translation.

    Inner levels are memoized on Chebyshev grids in y (one interpolant per
    sign) before the outer quadrature.  Numeric nesting refuses k > 4.
    """
    from .quad import cheb_nodes, cheb_interpolator
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_NESTED_ORDER:
        raise ValueError(f"nesting depth limited to k <= {MAX_NESTED_ORDER}")
    if x == 0.0:
        raise ValueError("x must be nonzero")
    terms0 = _theta_terms(alpha.alpha, 0, float(x))
    if k == 1:
        return _theta_weighted_integral(alpha, terms0, x,
                                        _translate_profile(alpha, f, a),
                                        split=abs(a), n=n)
    nodes = cheb_nodes(n_cheb, 0.0, abs(x))
    vals_p = np.array([iterated_integral_I(alpha, k - 1, f, float(yy), a,
                                           n=n, n_cheb=n_cheb) for yy in nodes])
    vals_m = np.array([iterated_integral_I(alpha, k - 1, f, float(-yy), a,
                                           n=n, n_cheb=n_cheb) for yy in nodes])
    ip = cheb_interpolator(nodes, vals_p)
    im = cheb_interpolator(nodes, vals_m)

    def h(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        out = np.where(ys >= 0.0, np.asarray(ip(np.abs(ys))),
                       np.asarray(im(np.abs(ys))))
        return out

    return _theta_weighted_integral(alpha, terms0, x, h, split=abs(a), n=n)


def remainder_norm_coeff(alpha: AlphaParam, k: int, x: float) -> float:
    """Explicit constant C(x) with ||R_{k-1}(x,f)||_p <= C(x) ||L^{k-1}f||_p:
    sqrt(2) for k = 1 (translation contraction), and
    sqrt(2) (b_{k-1}(|x|) + |x| b_{k-2}(|x|)) for k >= 2 (contraction times
    the Theta_{k-2} mass bound)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return math.sqrt(2.0)
    ax = abs(x)
    return math.sqrt(2.0) * (b_coeff(alpha, k - 1, ax)
                             + ax * b_coeff(alpha, k - 2, ax))


def remainder_norm_coeff_same_order(alpha: AlphaParam, k: int,
                                    x: float) -> float:
    """Constant C(x) with ||R_k(x,f)||_p <= C(x) ||L^{k-1}f||_p, obtained by
    peeling one recurrence step off the order-(k-1) bound."""
    return remainder_norm_coeff(alpha, k, x) + abs(b_coeff(alpha, k - 1, x))


# -- the symmetric remainder ---------------------------------------------------

def symmetric_remainder(alpha: AlphaParam, k: int, f: GaussPolyFunction,
                        x: float, a: float) -> float:
    """R_k(x,f)(a) + R_k(-x,f)(a) via the even-coefficient form
    tau_x f + tau_{-x} f - 2 sum_{2i <= k-1} b_{2i}(x) L^{2i} f."""
    val = translate(alpha, f, x, a) + translate(alpha, f, -x, a)
    for i in range((k - 1) // 2 + 1):
        val -= 2.0 * b_coeff(alpha, 2 * i, x) * dunkl_power(alpha, f, 2 * i)(a)
    return float(val)


def symmetric_remainder_residual(alpha: AlphaParam, k: int,
                                 f: GaussPolyFunction, x: float, a: float,
                                 n: int = 40) -> float:
    """Residual between the even-coefficient form and the two integral-mode
    remainders summed directly."""
    direct = (remainder(alpha, k, f, x, a, mode="integral", n=n)
              + remainder(alpha, k, f, -x, a, mode="integral", n=n))
    return abs(direct - symmetric_remainder(alpha, k, f, x, a))


def symmetric_remainder_profile(alpha: AlphaParam, k: int,
                                f: GaussPolyFunction, x: float) -> Callable:
    """u |-> R_k(x,f)(u) + R_k(-x,f)(u), vectorized."""
    consts = [(2.0 * b_coeff(alpha, 2 * i, x), dunkl_power(alpha, f, 2 * i))
              for i in range((k - 1) // 2 + 1)]

    def prof(us):
        us = np.asarray(us, dtype=float)
        xpm = np.reshape([x, -x], (2,) + (1,) * us.ndim)
        tau = translate_many(alpha, f, xpm, us)
        val = tau[0] + tau[1]
        for c, lpf in consts:
            val = val - c * lpf(us)
        return val

    return prof
