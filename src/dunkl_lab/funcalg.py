"""Test-function algebra: polynomials times a Gaussian, closed under the
Dunkl operator.

Every function handled here has the form f(x) = (c_0 + c_1 x + ... + c_N x^N)
* exp(-s x^2) with s >= 0.  The algebra is closed under differentiation,
reflection and multiplication by x, hence under the Dunkl operator

    L_a f(x) = f'(x) + (2a+1)/x * (f(x) - f(-x))/2,

and the image has exact coefficients (the apparent 1/x singularity cancels:
the odd part of a polynomial is divisible by x).  L is homogeneous of degree
-1, so the basis L^j e^{-s.^2} (lambda_basis) and the translation ladder of
the closed form are one width-1 table per alpha, scaled to each s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .special import _as_alpha

__all__ = [
    "GaussPolyFunction",
    "dunkl_apply",
    "dunkl_power",
    "lambda_basis",
    "lambda_coeffs",
    "dilate",
    "hermite_phi",
    "dunkl_fd_power",
]


def _trim(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(float(v) for v in c)


def _polyval(c, x):
    """sum_k c[k] x^k, c low to high along axis 0 (the rest broadcasts): the
    ops of numpy's polyval(x, c, tensor=False), c[-1] + 0x, c[-k] + acc x."""
    acc = c[-1] + x * 0
    for ck in c[-2::-1]:
        acc *= x
        acc += ck
    return acc


@dataclass(frozen=True)
class GaussPolyFunction:
    """P(x) * exp(-s x^2) with P given by low-to-high coefficients."""

    coeffs: tuple
    gauss_scale: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        if not all(map(math.isfinite, (*self.coeffs, self.gauss_scale))):
            raise FloatingPointError("non-finite value in a function's "
                                     "coefficients or gauss_scale")
        if self.gauss_scale < 0.0:
            raise ValueError("gauss_scale must be >= 0")

    # -- evaluation ---------------------------------------------------------
    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        p = _polyval(np.array(self.coeffs), x)
        if self.gauss_scale > 0.0:
            p = p * np.exp(-self.gauss_scale * x * x)
        return p if p.ndim else float(p)

    # -- algebra ------------------------------------------------------------
    @property
    def is_normable(self) -> bool:
        """Pure polynomials (s=0) are not in any L^p(mu_a) unless zero."""
        return self.gauss_scale > 0.0 or self.coeffs == (0.0,)

    # -- serialization (CLI wire format) -------------------------------------
    @staticmethod
    def from_record(rec: dict) -> "GaussPolyFunction":
        """ValueError unless coeffs (non-empty) and gauss_scale are finite."""
        c, s = tuple(rec["coeffs"]), rec["gauss_scale"]
        if not (c and all(isinstance(v, (int, float)) and not isinstance(
                v, bool) and math.isfinite(v) for v in (*c, s))):
            raise ValueError("a function record needs a non-empty list of "
                             "finite coeffs and a finite gauss_scale")
        return GaussPolyFunction(c, float(s))


def _dunkl_step(P, Q, sx, s: float, c: float):
    """Coefficients of dP/dy + sx x P - 2s y P + c odd_y(Q)/y, where entry
    [..., i, j] multiplies x^i y^j (the last row and column of P must be
    zero); leading axes stack polynomials, sx broadcasting against them."""
    out = np.zeros(P.shape)
    out[..., :-1] += P[..., 1:] * np.arange(1, P.shape[-1])
    out[..., 1:, :] += sx * P[..., :-1, :]
    out[..., 1:] -= 2.0 * s * P[..., :-1]
    out[..., 0:-1:2] += c * Q[..., 1::2]
    return out


def dunkl_apply(alpha, f: GaussPolyFunction) -> GaussPolyFunction:
    """Exact Dunkl operator on the algebra: f' + (2a+1) * odd(f)/x, one
    _dunkl_step on the row of f = P e^{-s.^2}'s coefficients."""
    row = np.array([f.coeffs + (0.0,)])
    # an overflow reaches GaussPolyFunction as a non-finite coefficient
    with np.errstate(over="ignore", invalid="ignore"):
        out = _dunkl_step(row, row, 0.0, f.gauss_scale,
                          2.0 * _as_alpha(alpha) + 1.0)
    return GaussPolyFunction(out[0].tolist(), f.gauss_scale)


def dunkl_power(alpha, f: GaussPolyFunction, k: int) -> GaussPolyFunction:
    """k-fold Dunkl operator; k = 0 is the identity.  Each (alpha, f) keeps
    its powers [f, L f, ...] (repr(f) keeps signed zeros apart)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    powers = _powers(_as_alpha(alpha), f, repr(f))
    while len(powers) <= k:
        powers.append(dunkl_apply(alpha, powers[-1]))
    return f if k == 0 else powers[k]


_powers = lru_cache(maxsize=256)(lambda a, f, key: [f])


@lru_cache(maxsize=256)
def _unit_tables(a: float, n: int) -> np.ndarray:
    """[j] = (A_j, B_j, R_j), j < n, at width 1 ([i, k] of x^i y^k): R_j[0]
    is L^j(e^{-.^2}) / e^{-.^2}, and tau_x L^j e^{-.^2}(y) = e^{-(x^2+y^2)}
    [A_j E_a(-2xy) + B_j E_a(2xy)]: L - 2y maps (A, B) to (dA/dy - 2(x+y)A
    + (2a+1) odd(B)/y, dB/dy + 2(x-y)B + (2a+1) odd(A)/y) (Roesler 1998)."""
    t, c = np.zeros((n, 3, n, n)), 2.0 * a + 1.0
    sx = np.array([-2.0, 2.0, 0.0])[:, None, None]
    t[0, 0, 0, 0] = t[0, 2, 0, 0] = 1.0
    for j in range(1, n):       # one step of the stack, Q = (B, A, R)
        t[j] = _dunkl_step(t[j - 1], t[j - 1, [1, 0, 2]], sx, 1.0, c)
    return t


@lru_cache(maxsize=256)
def _at_width(a: float, s: float, m: int) -> np.ndarray:
    """_unit_tables(a, n)[:m] at width s (n the power of two >= max(m, 8)):
    L and tau_x are homogeneous, so an entry of total degree d (j plus its
    powers of x and y; 0 if d is odd) scales as s^(d/2).  FloatingPointError
    where one is not finite.  Kept per (a, s, m), read-only."""
    i, n = np.arange(m), max(8, 1 << (m - 1).bit_length())
    with np.errstate(over="ignore", invalid="ignore"):
        out = _unit_tables(a, n)[:m, :, :m, :m] * s ** (
            (i[:, None, None, None] + i[:, None] + i) // 2)
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite value in a function's "
                                 "coefficients or gauss_scale")
    out.flags.writeable = False
    return out


def lambda_basis(alpha, s: float, m: int) -> np.ndarray:
    """Rows j < m: the coefficients of L^j(e^{-s.^2}) / e^{-s.^2}, padded to
    m; triangular for s > 0 (degree j, leading coefficient (-2s)^j)."""
    return _at_width(_as_alpha(alpha), s, m)[:, 2, 0].copy()


@lru_cache(maxsize=256)
def lambda_coeffs(alpha, f: GaussPolyFunction) -> np.ndarray:
    """c with f = P e^{-s.^2} = sum_j c_j L^j(e^{-s.^2}), s > 0; kept per
    (alpha, f), read-only.  A closed form built on c loses about kappa =
    sum_j |c_j| sum_i |basis[j, i]| / max|P| roundings (a small s cancels):
    FloatingPointError where kappa > 1e6 or is not finite."""
    basis = lambda_basis(alpha, f.gauss_scale, len(f.coeffs))
    rest, c = np.array(f.coeffs), np.zeros(len(f.coeffs))
    with np.errstate(all="ignore"):     # kappa judges what this gives
        for j in range(c.size - 1, -1, -1):     # back substitution
            c[j] = rest[j] / basis[j, j]
            rest = rest - c[j] * basis[j]
        kappa = np.abs(c) / (max(map(abs, f.coeffs)) or 1.0) @ abs(
            basis).sum(1)
    if not kappa <= 1e6:
        raise FloatingPointError(f"the Lambda-coordinates cancel: kappa = "
                                 f"{kappa:.3g}, not <= 1e6")
    c.flags.writeable = False
    return c


def dilate(alpha, phi: GaussPolyFunction, t: float) -> GaussPolyFunction:
    """phi_t(x) = t^(-2(a+1)) phi(x/t); exact on coefficients.  ValueError
    where a coefficient overflows a float (large alpha at small t)."""
    if t <= 0.0:
        raise ValueError(f"dilation parameter must be > 0, got {t}")
    a = _as_alpha(alpha)
    try:
        pref = t ** (-2.0 * (a + 1.0))
    except OverflowError:           # a float power raises where it overflows
        pref = math.inf
    c = tuple(v * pref * t ** (-n) for n, v in enumerate(phi.coeffs))
    if not all(map(math.isfinite, c)):
        raise ValueError(f"dilating by t = {t:g} at alpha = {a:g} overflows "
                         "a float")
    return GaussPolyFunction(c, phi.gauss_scale / (t * t))


def hermite_phi(alpha, n0: int) -> GaussPolyFunction:
    """Moment-vanishing bump phi = L^(2 n0) e^{-.^2}, the generalized Hermite
    function H_{2 n0}^{a+1/2}(x) e^{-x^2} (Roesler, Comm. Math. Phys. 192,
    1998), with exact coefficients.

    Its Dunkl transform is (i xi)^(2 n0) times a Gaussian, which vanishes to
    order 2 n0 at 0, so int_0^inf x^{2i} phi dmu_a = 0 for 0 <= i < n0.
    """
    if n0 < 1:
        raise ValueError("n0 must be positive")
    return dunkl_power(alpha, GaussPolyFunction((1.0,), 1.0), 2 * n0)


# -- finite-difference Dunkl operator on black-box callables -----------------

def dunkl_fd_power(alpha, g: Callable, a, k=1, h: float = 1e-3):
    """k-fold Dunkl operator on a callable at nonzero centres a of any shape,
    for an order k or a sequence of orders (one leading row each).  A level
    reads t + 2h, t + h, t - h, t - 2h (the 5-point derivative), t and -t
    (the exact term (2a+1)/t (g(t) - g(-t))/2).  g is called once, on a's
    shape plus one axis: the lattice s a + m h of order n = max(k), m h =
    np.arange(-2n, 2n + 1) * h, |m| <= 2n at s = 1 and 2n - 2 at s = -1;
    each level is two points shorter at each end, and an order is its level
    at m = 0.  ValueError at a point 0 that a level divides by."""
    al, a, ks = _as_alpha(alpha), np.asarray(a, float), np.atleast_1d(k)
    if ks.min() < 0:
        raise ValueError("k must be >= 0")
    top = int(ks.max())
    mh = np.arange(-2 * top, 2 * top + 1) * h
    pts = a[..., None] + mh, -a[..., None] + mh[2:-2]
    mid = lambda v, r: v[..., r:v.shape[-1] - r]    # r points off each end
    zero = (np.concatenate([mid(p, 2) for p in pts], -1) == 0.0).any(-1)
    if zero.any():
        raise ValueError(f"centre a = {a[zero][0]:g} at h = {h:g}: a "
                         f"stencil point is 0")
    vals = np.asarray(g(np.concatenate(pts, -1)))
    v, powers = np.split(vals, [mh.size], -1), [vals[..., 2 * top]]
    for n in range(1, top + 1):     # L^n g on mid(pts, 2n) from L^(n-1) g
        w = v[1][..., ::-1], mid(v[0], 4)[..., ::-1]    # at (-s, -m)
        v = [(-x[..., 4:] + 8.0 * x[..., 3:-1] - 8.0 * x[..., 1:-3]
              + x[..., :-4]) / (12.0 * h) + (2.0 * al + 1.0)
             / mid(p, 2 * n) * (x[..., 2:-2] - y) / 2.0
             for x, y, p in zip(v, w, pts)]
        powers.append(v[0][..., 2 * (top - n)])
    out = np.stack([powers[n] for n in ks]) if np.ndim(k) else powers[k]
    return out if out.ndim else float(out)
