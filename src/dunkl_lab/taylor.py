"""Generalized Taylor formula with integral remainder.

The expansion coefficients b_p, the remainder kernels Theta_k built by the
u/v recursion, the iterated integrals I_k, the order-k remainder R_k in both
its integral form R_k(x, f) = I_k(x, L^k f) and its recurrence form, and the
symmetric remainder.

Theta_k is homogeneous: Theta_k(x, y) = |x|^(k-2a-1) Theta_k(sgn x, y/|x|),
as Theta_0 has degree -(2a+1) and each step of the recursion integrates up
to |x|.  So Theta_k(1, .) alone is tabulated, once, on the unit interval, a
finite combination of terms  c * sgn(t)^s * |t|^e * log^j |t|, a set the
recursion's antiderivatives keep closed: an exponent -1 (resonant alpha:
alpha = 0 from Theta_1 on, alpha = 1 from Theta_3 on) integrates to a log
power, every other exponent exactly as a power.  A Theta-weighted integral
gives each family of terms (one log power, A-weighted exponents on the
ladders j or 2a+1+j) one Gauss rule on (0, 1), at the nodes y = |x| t.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .special import AlphaParam, pochhammer
from .funcalg import GaussPolyFunction, dunkl_power, lambda_coeffs, _polyval
from .quad import integrate, jacobi_rule, rowdot
from .dunklcore import translate_many, _translate_sum, _FACTOR_CELLS

__all__ = [
    "b_coeff",
    "theta_mass",
    "theta_mass_bound",
    "theta0_moment",
    "remainder",
    "remainder_profile",
    "remainder_recursion_residual",
    "iterated_integral_I",
]


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
    # layout-free b_p(x), as numpy's array power rounds unlike the scalar
    # one: h * h is correctly rounded, higher powers go element by element
    h = np.asarray(x, dtype=float) / 2.0
    if p == 2:
        hp = h * h
    elif p > 2:
        hp = np.reshape([v ** p for v in h.ravel().tolist()], h.shape)
    else:
        hp = h ** p
    val = hp / den
    return val if val.ndim else float(val)


# -- Theta kernels: power-log term tables on the unit interval ---------------

def _integrate_terms_from(terms):
    """Antiderivative step: terms(z) -> int_m^1 terms(z) dz as terms of m,
    for z > 0 (so sgn factors are 1).  z^e log^j z integrates to
    z^(e+1) sum_i (-1)^i j!/(j-i)! log^(j-i) z / (e+1)^(i+1), whose value
    at z = 1 is its i = j term.  Where those cancel, |eps| < 1e-4 with
    eps = e + 1, z^e = z^-1 sum_i (eps log z)^i / i! gives
    sum_i eps^i log^(i+j+1) z / (i! (i+j+1)), 0 at z = 1 (one term at
    eps = 0)."""
    out = []
    for c, _sp, e, j in terms:
        eps = e + 1.0
        if abs(eps) < 1e-4:
            out += [(-c * eps ** i / (math.factorial(i) * (i + j + 1)), 0,
                     0.0, i + j + 1) for i in range(8 if eps else 1)]
            continue
        for i in range(j + 1):
            d = (-1) ** i * math.perm(j, i) / eps ** (i + 1)
            out.append((-c * d, 0, eps, j - i))
        out.append((c * d, 0, 0.0, 0))
    return out


def _merge(terms):
    acc = {}
    for c, sp, e, j in terms:
        key = (sp, round(e, 12), j)
        acc[key] = acc.get(key, 0.0) + c
    return [(c, sp, e, j) for (sp, e, j), c in acc.items() if c != 0.0]


@lru_cache(maxsize=4096)
def _theta_terms(a: float, k: int):
    """Term table [(c, sgn_pow, exp, log_pow)] of Theta_k(1, .) on (-1, 1);
    Theta_k(-1, t) = (-1)^(k+1) Theta_k(1, -t) (_theta_weighted_integral)."""
    we = 2.0 * a + 1.0
    u = [(0.5, 0, 0.0, 0)]
    v = [(0.5, 1, -we, 0)]
    for _ in range(k):
        u_next = _integrate_terms_from(v)
        # v-step: multiply u by A(z) = z^(2a+1), integrate, then sgn(y)/A(y)
        shifted = [(c, sp, e + we, j) for c, sp, e, j in u]
        v_next = [(c, 1, e - we, j)
                  for c, _sp, e, j in _integrate_terms_from(shifted)]
        u, v = _merge(u_next), _merge(v_next)
    return tuple(_merge(u + v))


def _eval_terms(terms, y):
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    sg = np.sign(y)
    out = np.zeros_like(ay)
    for c, sp, e, j in terms:
        t = c * ay ** e if e != 0.0 else np.full_like(ay, c)
        if j:
            t = t * np.log(ay) ** j
        if sp:
            t = t * sg
        out = out + t
    return out if out.ndim else float(out)


def theta_mass(alpha: AlphaParam, k: int, x: float) -> float:
    """int_{-|x|}^{|x|} |Theta_{k-1}(x, y)| A(y) dy, |x|^k times that integral
    on (-1, 1), the same for both signs of x, taken once per (alpha, k) with
    A in each term's |t| exponent (no term overflows where A underflows)."""
    return abs(float(x)) ** k * _unit_mass(alpha, k)


@lru_cache(maxsize=1024)
def _unit_mass(alpha: AlphaParam, k: int) -> float:
    terms = [(c, sp, e + alpha.weight_exp, j) for c, sp, e, j
             in _theta_terms(alpha.alpha, k - 1)]
    return integrate(lambda t: abs(_eval_terms(terms, t))
                     + abs(_eval_terms(terms, -t)), 0.0, 1.0)[0]


def theta_mass_bound(alpha, k: int, x) -> float:
    """b_k(|x|) + |x| b_{k-1}(|x|), a bound on theta_mass(alpha, k, x)."""
    ax = abs(x)
    return b_coeff(alpha, k, ax) + ax * b_coeff(alpha, k - 1, ax)


def theta0_moment(alpha: AlphaParam, p: int, x):
    """int_{-|x|}^{|x|} Theta_0(x, y) b_p(y) A(y) dy = b_{p+1}(x), per entry
    of an array x; a family's n-node rule times t^m is exact while p+m < 2n."""
    return _theta_weighted_integral(alpha, 0, x,
                                    lambda ys, rows: b_coeff(alpha, p, ys))


# -- Theta-weighted integrals over (-|x|, |x|) --------------------------------

@lru_cache(maxsize=1024)
def _theta_families(table: tuple, we: float, order: int):
    """Rule families (j, b) of the terms of a Theta_order table, and per
    term its family and m: per log power j, a term whose weighted exponent
    ee (its |t| exponent + we, we = 2a+1) lies an integer m <= 2(order+1)
    above a family's lowest exponent b takes that family's rule times t^m."""
    bases, where, terms = [], {}, [(j, e + we) for _, _, e, j in table]
    for j, ee in sorted(set(terms)):
        i = next((i for i, (jb, b) in enumerate(bases) if jb == j and ee - b
                  <= 2 * order + 2 and abs(ee - b - round(ee - b)) < 1e-11),
                 len(bases))
        if i == len(bases):
            bases.append((j, ee))
        where[j, ee] = i, ee - bases[i][1]
    return bases, *zip(*(where[t] for t in terms))


def _theta_weighted_integral(alpha: AlphaParam, order: int, x, h: Callable,
                             s: float = 1.0):
    """int_{-|x|}^{|x|} Theta_order(x,y) h(y) A(y) dy, as |x|^(order+1) times
    int_{-1}^{1} Theta_order(sgn x, t) h(|x| t) A(t) dt with the A-weight
    carried analytically: each family (_theta_families) takes one rule on
    (0, 1), a Jacobi rule for its lowest |t| exponent b, or with log^j |t|,
    j > 0, that rule after t = u^3, so the log singularity sits under the
    weight u^(3b + 2); a term's weights are its family's times t^m, exact
    for h of degree <= 2n - 1 - m.  Gauss rules need h smooth on (-|x|,
    |x|), as y |-> tau_y f(a) is for f in the algebra; for f = p(y)
    e^(-s y^2) it varies on the width 1/sqrt(s) (at most one), and a rule
    has 40 nodes per 4 widths of |x| (at most 400).  x = 0 gives 0.

    x broadcasts to the rows of the result; a scalar gives a float.  Rows
    whose x has its sign bit (-0.0 too) take Theta_order(1, .)'s terms times
    (-1)^(order+1+sgn_pow): Theta(-1, t) = (-1)^(order+1) Theta(1, -t).
    h(ys, rows) maps the nodes ys[i, j] = [y, -y] of family j of row rows[i]
    to values; it is called once per node count (once for |x| <= 4 widths).
    Terms sum in table order: each row's sum is its single-row value bit
    for bit.
    """
    xb = np.asarray(x, float)
    xs = xb.ravel()
    ax = np.abs(xs)
    table = _theta_terms(alpha.alpha, order)
    c, sp = np.array([t[:2] for t in table]).T
    flip = np.where(np.signbit(xs)[:, None], (-1.0) ** (order + 1 + sp), 1.0)
    coef, sgn = c * flip, ((-1.0) ** sp)[:, None]
    bases, fam, pw = _theta_families(table, alpha.weight_exp, order)

    def rule(n, ee, j):
        # rule on (0, 1) for the weight t^ee log^j t (Theta-term * A)
        if not j:
            return jacobi_rule(n, ee, 0.0, 1.0)
        u, w = jacobi_rule(n, 3.0 * ee + 2.0, 0.0, 1.0)
        return u ** 3, 3.0 * w * (3.0 * np.log(u)) ** j

    reach = ax * math.sqrt(max(s, 1.0))    # |x| in widths
    ns = 40 * np.clip(np.ceil(reach / 4.0), 1, 10).astype(int)
    total = np.zeros(xs.size)
    for n in sorted(set(ns.tolist())):
        rows = np.flatnonzero(ns == n)
        rules = [rule(n, b, j) for j, b in bases]
        z = ax[rows, None, None] * np.stack([t for t, _ in rules])
        hv = h(np.concatenate([z, -z], axis=-1), rows)[:, fam]
        w = np.stack([rules[i][1] * rules[i][0] ** m for i, m in zip(fam, pw)])
        parts = coef[rows] * rowdot(w, hv[..., :n] + sgn * hv[..., n:])
        for j in range(len(fam)):   # per term, as one row would sum them
            total[rows] += parts[:, j]
    total *= [v ** (order + 1) for v in ax.tolist()]
    return total.reshape(xb.shape) if xb.ndim else float(total[0])


# -- iterated integrals and the remainder ------------------------------------

def iterated_integral_I(alpha: AlphaParam, k: int, f: GaussPolyFunction, x, a):
    """I_k(x, f)(a), the k-fold Theta_0-weighted iterate of the translation,
    as one integral: Theta_{k-1} is the kernel of that iterate (its u/v
    recursion is Fubini on the nested integrals), so

        I_k(x, f)(a) = int_{-|x|}^{|x|} Theta_{k-1}(x,y) tau_y f(a) A(y) dy,

    one rule per family of Theta terms on (0, 1), which needs y |-> tau_y f(a)
    smooth on (-|x|, |x|): it is for f in the algebra, whose translates are
    analytic in y (no kink at |y| = |a|).  x and a may be arrays (one row
    per broadcast pair)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x, a = np.broadcast_arrays(np.asarray(x, float), np.asarray(a, float))

    def h(ys, rows):   # tau_y f(a) = tau_a f(y), each row's a on its nodes
        return translate_many(alpha, f, a if a.ndim == 0
                              else a.ravel()[rows].reshape(-1, 1, 1), ys)

    return _theta_weighted_integral(alpha, k - 1, x, h, f.gauss_scale)


def remainder(alpha: AlphaParam, k: int, f: GaussPolyFunction, x, a):
    """Integral remainder R_k(x, f)(a) = I_k(x, L^k f)(a) of the generalized
    Taylor formula, int_{-|x|}^{|x|} Theta_{k-1}(x,y) tau_y(L^k f)(a) A(y) dy;
    x and a may be arrays (one row per broadcast pair).  remainder_profile
    gives the same remainder in its recurrence form."""
    if k < 1:       # before L^k f, whose own rule is k >= 0
        raise ValueError("k must be >= 1")
    return iterated_integral_I(alpha, k, dunkl_power(alpha, f, k), x, a)


#: rows with k >= 1 and |x| sqrt(max(s, 1)) <= X_S (|x| in widths) sum the
#: b_p series over SERIES_ORDERS orders; at x sqrt(s) = X_S the orders past
#: 24 sum to <= 1.2e-20 of a row's largest |R_k| (catalog, alpha <= 150)
X_S, SERIES_ORDERS = 0.3, 24


def series_rows(k: int, f: GaussPolyFunction, x):
    """Mask of the rows x whose order-k profiles sum the b_p series."""
    return (k >= 1) & (f.gauss_scale > 0.0) & (
        np.abs(x) * math.sqrt(max(f.gauss_scale, 1.0)) <= X_S)


def _series(alpha: AlphaParam, k: int, f: GaussPolyFunction, step: int, x, us):
    """sum_{p >= k, step | p} step b_p(x) L^p f(u) over SERIES_ORDERS orders,
    in widths y = x sqrt(s), v = u sqrt(s) (f = sum_j c_j L^j e^{-s.^2}, so
    b_p(x) L^p f(u) = b_p(y) sum_j c_j s^(j/2) h_{p+j}(v), h_m = L^m
    e^{-.^2}): one dot product per (x, u) of the weights d_m = sum_j c_j
    s^(j/2) step b_{m-j}(y) and h_m(v), so a row's value is its scalar
    call's.  b_p from its ratios b_{2i+1}/b_{2i} = (y/2)/(a+1+i),
    b_{2i+2}/b_{2i+1} = (y/2)/(i+1).  The first order takes L^k f from its
    polynomial: the c_j h_{k+j} cancel to ~1e-14 of a row at alpha = 20."""
    a, rs = alpha.alpha, math.sqrt(f.gauss_scale)
    k = -(-k // step) * step            # the sum's first order
    dens, at, by, q = _series_terms(a, f, k, step)
    b = np.cumprod((x[..., None] * rs / 2.0) / dens, axis=-1)
    d = (b[..., at] * by).sum(axis=-1)
    v = us * rs
    table = _hermite if v.size <= _FACTOR_CELLS else _hermite.__wrapped__
    n = k + len(at)
    h = table(a, v.tobytes(), -(-n // 16) * 16).reshape(v.shape + (-1,))
    lead = _polyval(q, us)              # L^k f / e^{-s.^2}
    return rowdot(d, np.concatenate([(lead * rs ** -k * h[..., 0])[..., None],
                                     h[..., k + 1:n]], axis=-1))


@lru_cache(maxsize=256)
def _series_terms(a: float, f: GaussPolyFunction, k: int, step: int):
    """_series's denominators of b_p / b_{p-1}, p = 1 .. k + SERIES_ORDERS
    - 1, its weight d_m as the sum of b[at[m]] by[m] (b[i] = b_{i+1}; d_0 is
    step b_k, the first order's), and L^k f / e^{-s.^2}, low to high."""
    p, c = np.arange(1, k + SERIES_ORDERS), lambda_coeffs(a, f)
    i, j = np.arange(step, SERIES_ORDERS, step)[:, None], np.arange(c.size)
    at = np.full((SERIES_ORDERS + c.size - 1, c.size), k - 1)
    by = np.zeros(at.shape)
    at[i + j, j], by[i + j, j] = k - 1 + i, step * c * math.sqrt(
        f.gauss_scale) ** j             # p = k + i
    by[0, 0] = step
    return (np.where(p % 2, a + 1.0 + (p - 1) // 2, p // 2), at, by,
            dunkl_power(a, f, k).coeffs)


@lru_cache(maxsize=8)
def _hermite(a: float, vb: bytes, n: int):
    """h_m(v), m < n on the last axis, v the floats of vb, by the generalized
    Hermite recurrence h_{m+1} = -2(v h_m + (m + (2a+1)[m odd]) h_{m-1});
    kept, as the L^p rules' nodes serve every row and order of one alpha."""
    v = np.frombuffer(vb)
    w, h = -2.0 * v, [np.exp(-v * v)]
    h.append(w * h[0])
    for m in range(1, n - 1):
        h.append(w * h[m] - 2.0 * (m + (2.0 * a + 1.0) * (m % 2)) * h[m - 1])
    out = np.stack(h, axis=-1)
    out.flags.writeable = False
    return out


def _peeled_profile(alpha: AlphaParam, k: int, f: GaussPolyFunction, x,
                    step: int) -> Callable:
    """u |-> T f(u) - sum_{p<k, step | p} step b_p(x) L^p f(u), vectorized,
    with T f = tau_x f (step 1) or tau_x f + tau_{-x} f (step 2), translated
    at each call unless the caller passes T f(u) as tau.  The rows of
    series_rows take _series instead, with no translation (tau is not read
    there): T f and the peeled terms are O(1) and their difference ~x^k.
    A row per entry of x takes one u (u of x's shape) or every u (x's
    trailing axes 1s; result and tau x's leading axes + u's shape)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    x = np.asarray(x, dtype=float)
    lps = [dunkl_power(alpha, f, p) for p in range(0, k, step)]
    ser = series_rows(k, f, x)

    def peel(xs, us, tau):
        if tau is None:     # looked up per call: a wrapper sees each one
            tau = (translate_many, _translate_sum)[step - 1](alpha, f, xs, us)
        for p, lpf in zip(range(0, k, step), lps):
            tau = tau - step * b_coeff(alpha, p, xs) * lpf(us)
        return tau

    def prof(us, tau=None):
        us = np.asarray(us, dtype=float)
        lead, each = x.shape[:max(x.ndim - us.ndim, 0)], us.shape == x.shape
        if not (each or x.size == math.prod(lead)):
            raise ValueError(f"x of shape {x.shape} and u of shape {us.shape}"
                             ": neither one u per row nor every u on each")
        if not ser.any():
            return peel(x, us, tau)
        if ser.all():
            return _series(alpha, k, f, step, x, us)
        x2, sel = x.reshape(-1, 1), ser.ravel()
        u2 = us.reshape((-1, 1) if each else (1, -1))
        out = np.empty((sel.size, u2.shape[1]))
        t2 = None if tau is None else np.reshape(tau, out.shape)
        for rows, part in ((sel, lambda xs, u, t: _series(
                alpha, k, f, step, xs, u)), (~sel, peel)):
            out[rows] = part(x2[rows], u2[rows] if each else u2,
                             None if t2 is None else t2[rows])
        return out.reshape(lead + us.shape)

    return prof


def remainder_profile(alpha: AlphaParam, k: int, f: GaussPolyFunction,
                      x) -> Callable:
    """u |-> R_k(x, f)(u) = tau_x f(u) - sum_{p<k} b_p(x) L^p f(u), vectorized
    (the recurrence form; R_0 = tau_x f).  u takes x's shape (one u per
    entry of x) or is every u on every entry (x's trailing axes 1s, or a
    scalar x); a caller that has tau_x f(u) already passes it as tau."""
    return _peeled_profile(alpha, k, f, x, 1)


def remainder_recursion_residual(alpha: AlphaParam, k, f: GaussPolyFunction,
                                 x, a):
    """Residual of R_k(x,f)(a) = int Theta_0(x,y) R_{k-1}(y, Lf)(a) A(y) dy;
    k, x and a may be arrays (one residual per broadcast triple).  One
    tau_x f(a) serves every left side, and the right sides are one Theta_0-
    weighted integral on one translation of Lf (of the nodes that do not
    sum the b_p series), each row peeling its own k - 1 terms."""
    k, x, a = np.broadcast_arrays(np.asarray(k), np.asarray(x, float),
                                  np.asarray(a, float))
    shape = x.shape
    if np.any(k < 1):
        raise ValueError("k must be >= 1")
    lf = dunkl_power(alpha, f, 1)

    def peeled(g, ks, xs, us):  # R_ks(xs, g)(us): ks, us per row of xs
        us, kb = (np.broadcast_to(v.reshape(v.shape + (1,) * (xs.ndim - 1)),
                                  xs.shape) for v in (us, ks))
        tau, out = np.zeros(xs.shape), np.empty(xs.shape)
        far = ~series_rows(kb, g, xs)
        tau[far] = translate_many(alpha, g, xs[far], us[far])
        for j in set(ks.tolist()):     # one profile per order
            sel = ks == j
            out[sel] = remainder_profile(alpha, j, g, xs[sel])(
                us[sel], tau=tau[sel])
        return out

    k, x, a = (v.ravel() for v in (k, x, a))
    out = np.abs(peeled(f, k, x, a) - _theta_weighted_integral(
        alpha, 0, x, lambda ys, rows: peeled(lf, k[rows] - 1, ys, a[rows]),
        lf.gauss_scale))    # each row's k and a on its nodes
    return out.reshape(shape) if shape else float(out[0])


def remainder_norm_coeff(alpha: AlphaParam, k: int, x: float) -> float:
    """Explicit constant C(x) with ||R_{k-1}(x,f)||_p <= C(x) ||L^{k-1}f||_p:
    sqrt(2) for k = 1 (translation contraction), and
    sqrt(2) (b_{k-1}(|x|) + |x| b_{k-2}(|x|)) for k >= 2 (contraction times
    the Theta_{k-2} mass bound)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return math.sqrt(2.0)
    return math.sqrt(2.0) * theta_mass_bound(alpha, k - 1, x)


def remainder_norm_coeff_same_order(alpha: AlphaParam, k: int,
                                    x: float) -> float:
    """Constant C(x) with ||R_k(x,f)||_p <= C(x) ||L^{k-1}f||_p, obtained by
    peeling one recurrence step off the order-(k-1) bound."""
    return remainder_norm_coeff(alpha, k, x) + abs(b_coeff(alpha, k - 1, x))


# -- the symmetric remainder ---------------------------------------------------

def symmetric_remainder_profile(alpha: AlphaParam, k: int,
                                f: GaussPolyFunction, x) -> Callable:
    """u |-> R_k(x,f)(u) + R_k(-x,f)(u), vectorized, in the even-coefficient
    form tau_x f + tau_{-x} f - 2 sum_{2i <= k-1} b_{2i}(x) L^{2i} f (k = 0
    gives tau_x f + tau_{-x} f).  u is laid out against x as for
    remainder_profile."""
    return _peeled_profile(alpha, k, f, x, 2)
