"""Test-function algebra: polynomials times a Gaussian, closed under the
Dunkl operator.

Every function handled here has the form f(x) = (c_0 + c_1 x + ... + c_N x^N)
* exp(-s x^2) with s >= 0.  The algebra is closed under differentiation,
reflection and multiplication by x, hence under the Dunkl operator

    L_a f(x) = f'(x) + (2a+1)/x * (f(x) - f(-x))/2,

and the image has exact coefficients (the apparent 1/x singularity cancels:
the odd part of a polynomial is divisible by x).
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
        p = np.polynomial.polynomial.polyval(x, np.array(self.coeffs))
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


def _dunkl_step(P, Q, sx: float, s: float, c: float):
    """Coefficients of dP/dy + sx x P - 2s y P + c odd_y(Q)/y, where entry
    [i, j] multiplies x^i y^j (the last row and column of P must be zero)."""
    out = np.zeros(P.shape)
    out[:, :-1] += P[:, 1:] * np.arange(1, P.shape[1])
    out[1:, :] += sx * P[:-1, :]
    out[:, 1:] -= 2.0 * s * P[:, :-1]
    out[:, 0:-1:2] += c * Q[:, 1::2]
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


def lambda_basis(alpha, s: float, m: int) -> np.ndarray:
    """Rows j < m: the coefficients of L^j(e^{-s.^2}) / e^{-s.^2}, padded to
    m; triangular for s > 0 (degree j, leading coefficient (-2s)^j)."""
    rows, g = np.zeros((m, m)), GaussPolyFunction((1.0,), s)
    for j in range(m):
        rows[j, :len(g.coeffs)] = g.coeffs
        g = dunkl_apply(alpha, g)
    return rows


def lambda_coeffs(alpha, f: GaussPolyFunction) -> np.ndarray:
    """c with f = P e^{-s.^2} = sum_j c_j L^j(e^{-s.^2}), s > 0."""
    basis = lambda_basis(alpha, f.gauss_scale, len(f.coeffs))
    rest, c = np.array(f.coeffs), np.zeros(len(f.coeffs))
    for j in range(c.size - 1, -1, -1):     # back substitution
        c[j] = rest[j] / basis[j, j]
        rest = rest - c[j] * basis[j]
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
    (the exact term (2a+1)/t (g(t) - g(-t))/2); a point s a + m h, key
    s + i m, takes the float of the path first reaching it.  g is called
    once, on a's shape plus one axis: the distinct points of all orders,
    shared where floats agree at every entry.  ValueError at a point 0."""
    al, a, ks = _as_alpha(alpha), np.asarray(a, float), np.atleast_1d(k)
    if ks.min() < 0:
        raise ValueError("k must be >= 0")
    sign, step = np.array([1, 1, 1, 1, 1, -1]), np.array([2, 1, -1, -2, 0, 0])
    pts, kids, keys = [a[..., None]], [], [1.0 + 0j]
    for _ in range(ks.max()):       # each depth from the one above it
        if (pts[-1] == 0.0).any():
            raise ValueError(f"centre a = {a[(pts[-1] == 0).any(-1)][0]:g} "
                             f"at h = {h:g}: a stencil point is 0")
        z = (np.multiply.outer(keys, sign) + 1j * step).ravel().tolist()
        keys = list(dict.fromkeys(z))     # in the order first reached
        kids.append(np.reshape([keys.index(c) for c in z], (-1, 6)))
        i, j = np.divmod([z.index(c) for c in keys], 6)
        pts.append(pts[-1][..., i] * sign[j] + step[j] * h)
    cols = np.concatenate([pts[n] for n in ks], axis=-1)
    flat, inv = np.unique(cols.reshape(-1, cols.shape[-1]), axis=1,
                          return_inverse=True)
    vals = np.asarray(g(flat.reshape(*a.shape, -1)))[..., inv.ravel()]
    rows = []
    for n, v in zip(ks, np.split(vals, np.cumsum(
            [pts[n].shape[-1] for n in ks])[:-1], axis=-1)):
        for d in range(n - 1, -1, -1):
            w = np.moveaxis(v[..., kids[d]], -1, 0)
            v = ((-w[0] + 8.0 * w[1] - 8.0 * w[2] + w[3]) / (12.0 * h)
                 + (2.0 * al + 1.0) / pts[d] * (w[4] - w[5]) / 2.0)
        rows.append(v[..., 0])
    out = np.stack(rows) if np.ndim(k) else rows[0]
    return out if out.ndim else float(out)
