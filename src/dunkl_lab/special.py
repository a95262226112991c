"""Scalar special functions: normalized Bessel functions and the Dunkl
kernel."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "AlphaParam",
    "pochhammer",
    "dunkl_kernel",
]


@dataclass(frozen=True)
class AlphaParam:
    """Dunkl parameter alpha > -1/2 with its derived constants."""

    alpha: float
    norm_const: float = field(init=False)   # 2^(a+1) Gamma(a+1)
    weight_exp: float = field(init=False)   # 2a+1, exponent of |x| in the weight

    def __post_init__(self):
        a = float(self.alpha)
        if not a > -0.5:
            raise ValueError(f"alpha must be > -1/2, got {a}")
        nc = 2.0 ** (a + 1.0) * math.gamma(a + 1.0) if a < 170.0 else math.inf
        if not nc < math.inf:
            raise ValueError(f"alpha = {a:g} is too large: 2^(a+1) Gamma(a+1) "
                             "overflows a float")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "norm_const", nc)
        object.__setattr__(self, "weight_exp", 2.0 * a + 1.0)


def _as_alpha(alpha) -> float:
    return alpha.alpha if isinstance(alpha, AlphaParam) else float(alpha)


def pochhammer(a: float, m: int) -> float:
    """(a)_m = a (a+1) ... (a+m-1), computed multiplicatively."""
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


#: upper band edges of the Bessel kernels: below 25 the power series (I-type;
#: J-type below 1, then Miller's recurrence), Hankel's expansion above
_BESSEL_EDGES = (0.25, 1.0, 3.0, 8.0, 15.0, 25.0, 40.0, 80.0, 200.0, 1000.0,
                 math.inf)


def _terms(nu: float, x: float, hankel: bool = False):
    """Coefficients, highest first and up to the first term below 2^-56 of
    the sum at x, of sum_m x^m / (m! (nu+1)_m) or of Hankel's sum_k a_k(nu)
    (-x)^k (DLMF 10.17.1); and the largest term over the sum."""
    ratio = ((lambda k: ((2 * k - 1) ** 2 - 4.0 * nu * nu) / (8.0 * k))
             if hankel else (lambda m: 1.0 / (m * (nu + m))))
    c, t, s, cs, big = 1.0, 1.0, 1.0, [1.0], 1.0
    for j in range(1, 400):
        c, t = c * ratio(j), t * ratio(j) * x
        s, big = s + t, max(big, abs(t))
        cs.append(c)
        if abs(t) < 2.0 ** -56 * abs(s):
            return np.array(cs[::-1]), big / abs(s)
    return None, math.inf


def _debye_coeffs(nu: float):
    """Coefficients, highest first, of e^c sum_{k<=8} U_k(p) nu^-k, U_{k+1} =
    p^2 (1-p^2) U_k' / 2 + int_0^p (1-5t^2) U_k dt / 8 (DLMF 10.41.9, by
    np.convolve), c = sum_i B_2i nu^(1-2i) / (2i(2i-1)) (Stirling's series)."""
    u, cs = np.ones(1), np.zeros(25)
    for k in range(9):
        cs[:u.size] += u * nu ** -k
        du = u[1:] * np.arange(1, u.size)
        u = np.concatenate(([0.0], np.convolve([0.125, 0.0, -0.625], u)
                            / np.arange(1, u.size + 3)))
        u += np.convolve([0.0, 0.0, 0.5, 0.0, -0.5], du) if k else 0.0
    c = sum(b * nu ** (1 - 2 * i) for i, b in enumerate(
        (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360), 1))
    return math.exp(c) * cs[::-1]


@lru_cache(maxsize=64)
def _bessel_tables(nu: float):
    """(kind, coefficients highest first) per band of _BESSEL_EDGES: "series"
    to the last term below 2^-56 of the sum at the band's top, "hankel" at
    its bottom from w = 25 up where its largest term is within 16 times the
    sum; else the series to w = 80 and "debye" above, in every higher band
    too (nu > ~18.08: Hankel's w^-(nu+1/2) underflows before n_nu does)."""
    bands, lo = [], 0.0
    for hi in _BESSEL_EDGES:
        cs, big = _terms(nu, 1.0 / lo, True) if lo >= 25.0 else (None, math.inf)
        if hi > 80.0 and (big > 16.0 or bands[-1][0] == "debye"):
            bands.append(("debye", _debye_coeffs(nu)))
        elif big <= 16.0:
            bands.append(("hankel", cs))
        else:
            bands.append(("series", _terms(nu, hi * hi / 4.0)[0]))
        lo = hi
    return tuple(bands)


def _horner(cs, v):
    """The polynomial with coefficients cs (highest first, two or more) at v."""
    acc = cs[0] * v + cs[1]
    for c in cs[2:]:
        acc *= v
        acc += c
    return acc


def _scaled_j(nu: float, w):
    """n_nu(w) = e^{-w} j_nu(iw) for w >= 0 in any order, one band of w at a
    time, so a value depends on its own w only: the power series e^{-w}
    sum_m q^m / (m! (nu+1)_m), q = w^2/4 (DLMF 10.25.2), Hankel's Gamma(nu+1)
    (2/w)^nu (2 pi w)^(-1/2) sum_k a_k(nu) (-w)^(-k) (DLMF 10.40.1; the
    dropped branch is below e^-50) or Debye's (2/(1+s))^nu e^{nu(s-z-1)}
    s^(-1/2) e^c sum_k U_k(1/s) nu^-k, z = w/nu, s = (1+z^2)^(1/2) (DLMF
    10.41.3), by _bessel_tables.  Within 3.4e-15 relative of 40-digit values
    (at the exact float order) for nu in (-1/2, 9], 5e-14 in [18, 151.02]."""
    band = np.searchsorted(_BESSEL_EDGES, w, side="right")
    counts = np.bincount(band, minlength=len(_BESSEL_EDGES)).tolist()
    ends, ordered = np.cumsum(counts).tolist(), (band[1:] >= band[:-1]).all()
    out = np.full(w.shape, np.nan)      # nan stays nan
    pre = math.gamma(nu + 1.0) * 2.0 ** nu / math.sqrt(2.0 * math.pi)
    for b, (kind, cs) in enumerate(_bessel_tables(nu)):
        if counts[b]:   # bands in order (sorted w): one slice each
            sel = slice(ends[b] - counts[b], ends[b]) if ordered else band == b
            ws = w[sel]
            if kind == "series":
                out[sel] = _horner(cs, 0.25 * ws * ws) * np.exp(-ws)
            elif kind == "hankel":
                out[sel] = pre * ws ** -(nu + 0.5) * _horner(cs, 1.0 / ws)
            else:                   # Debye, s = (1 + z^2)^(1/2)
                s = np.hypot(1.0, ws / nu)
                out[sel] = ((2.0 / (1.0 + s)) ** nu / np.sqrt(s)
                            * np.exp(nu * (1.0 / (s + ws / nu) - 1.0))
                            * _horner(cs, 1.0 / s))
    return out


@lru_cache(maxsize=64)
def _j_tables(nu: float):
    """Per band of _BESSEL_EDGES: ("series", [coefficients of nu, nu + 1])
    below 1; ("hankel", [the same]) above 1000, from 25 up where both
    largest terms stay within 16 times the sum, and at nu = -1/2 (cos z,
    sin z / z: one term); else ("miller", N), the least N > hi/2 at which
    the first term the normalising sum of _j_pair drops is below 2^-56 of
    the sum by |J_m(z)| <= (z/2)^m / Gamma(m+1) at the band's top:
    (mu+N) Gamma(mu+N/2) (hi/2)^N / ((N/2)! Gamma(mu+N+1)), mu = nu + 1."""
    if not -0.5 <= nu <= 149.0:  # past it Hankel's prefactor overflows
        raise ValueError(f"Bessel order {nu:g} outside the supported range "
                         "[-1/2, 149]")
    bands, lo, mu = [], 0.0, nu + 1.0
    for hi in _BESSEL_EDGES:
        hankel = lo >= 25.0 or lo > 0.0 and nu == -0.5
        h = [_terms(v, 1.0 / lo, True) if hankel else (None, math.inf)
             for v in (nu, mu)]
        if hi <= 1.0:
            bands.append(("series", [_terms(v, hi * hi / 4.0)[0]
                                     for v in (nu, mu)]))
        elif hi == math.inf or max(big for _, big in h) <= 16.0:
            bands.append(("hankel", [cs for cs, _ in h]))
        else:
            lz, n = math.log(0.5 * hi), int(0.5 * hi) + 1
            while (math.log(mu + n) + math.lgamma(mu + n // 2) + n * lz
                   - math.lgamma(n // 2 + 1.0) - math.lgamma(mu + n + 1.0)
                   > -56.0 * math.log(2.0)):
                n += 1
            bands.append(("miller", n))
        lo = hi
    return tuple(bands)


def _j_pair(nu: float, z):
    """(j_nu(z), j_{nu+1}(z)) for real z, nu >= -1/2, one slice of the
    sorted |z| per band, so a value depends on its own z only: below 1 the
    power series; then Miller's backward recurrence y_{m-1} = 2(nu+m)/z y_m
    - y_{m+1} from y_N = 1 (N fixed per band), normalised by
    sum_k (mu+2k) (mu+1)_{k-1} / k! J_{mu+2k}(z) = (z/2)^mu / Gamma(mu+1),
    mu = nu + 1 (DLMF 10.23.15), whose terms are y_1, y_3, ...; where it
    serves, Hankel's J_nu = (2/(pi z))^(1/2) Re[(P + iQ) e^{i(z - nu pi/2 -
    pi/4)}] with P + iQ = sum_k a_k(nu) (i/z)^k (DLMF 10.17.3)."""
    az = np.abs(np.asarray(z, dtype=float)).ravel()
    order = np.argsort(az)
    zs = az[order]
    out = np.full((2, zs.size), np.nan)        # nan stays nan
    ends = np.searchsorted(zs, _BESSEL_EDGES).tolist()
    starts = {}
    for (kind, tab), i, j in zip(_j_tables(nu), [0] + ends, ends):
        if j > i and kind == "miller":      # adjacent bands may share an N
            starts[tab] = (starts.get(tab, (i,))[0], j)
        elif j > i:
            zb = zs[i:j]
            v = -0.25 * zb * zb if kind == "series" else -1j / zb
            for o, cs in enumerate(tab):
                acc = _horner(cs, v)
                if kind == "hankel":
                    e = nu + o + 0.5
                    acc = (math.gamma(e + 0.5) * 2.0 ** e / math.sqrt(math.pi)
                           * zb ** -e * (acc * np.exp(1j * zb)
                                         * np.exp(-0.5j * math.pi * e)).real)
                out[o, i:j] = acc
    if starts:
        lo, hi = min(starts.values())[0], max(starts.values())[1]
        r, mu, n = 2.0 / zs[lo:hi], nu + 1.0, max(starts)
        coef = np.multiply.outer(nu + np.arange(1.0, n + 1.0), r)
        k = np.arange(2.0, n // 2 + 1.0)       # c_k = (mu+2k) (mu+1)_{k-1} / k!
        c = np.r_[1.0, (mu + 2.0 * np.r_[1.0, k])
                  * np.cumprod(np.r_[1.0, (mu + k - 1.0) / k])]
        ya, yb, t, total = (np.zeros(r.size) for _ in range(4))
        for m in range(n, 0, -1):
            if m in starts:
                yb[starts[m][0] - lo:starts[m][1] - lo] = 1.0
            if m & 1:
                total += c[m // 2] * yb
            np.multiply(coef[m - 1], yb, out=t)
            t -= ya
            ya, yb, t = yb, t, ya
            if m % 64 == 0:           # rescale exactly before y can overflow
                ex = np.frexp(np.maximum(np.abs(ya), np.abs(yb)))[1]
                ya, yb, total = (np.ldexp(v, -ex) for v in (ya, yb, total))
        out[0, lo:hi] = yb / (total * mu * r)
        out[1, lo:hi] = ya / total
    return out[:, np.argsort(order)].reshape((2,) + np.shape(z))


def dunkl_kernel(alpha, lam: complex, x):
    """Dunkl kernel E_a(lam*x), the unique solution of the eigenproblem
    of the Dunkl operator with value 1 at the origin:

        E_a(w) = j_a(iw) + w/(2(a+1)) * j_{a+1}(iw),   w = lam*x,

    from _scaled_j for real lam and dunkl_kernel_it for imaginary lam, at a
    float x or each entry of an array.  ValueError for a lam that is neither
    (at every x), and a lam*x or E_a(lam*x) that is not a finite float.
    """
    a = _as_alpha(alpha)
    if not a > -0.5:
        raise ValueError(f"alpha must be > -1/2, got {a}")
    lam = complex(lam)
    with np.errstate(all="ignore"):
        w = lam * np.asarray(x, dtype=float)
    if not (np.abs(w) < math.inf).all():
        raise ValueError(f"lam*x must be finite, got {w}")
    if lam.real and lam.imag:
        raise ValueError(f"lam must be real or imaginary, got {lam}")
    if not lam.real:
        v = dunkl_kernel_it(a, lam.imag, x)
        return v if v.ndim else complex(v)
    w = w.real.ravel()
    s = np.abs(w)
    n0, cn1 = _scaled_j(a, s), w / (2.0 * (a + 1.0)) * _scaled_j(a + 1, s)
    # e^s by math.exp (numpy's exp rounds some values apart), in two factors
    # past 709; E overflows from 1419, and a float product to inf quietly
    v = np.array([math.exp(min(u, 709.0)) * (p + q) * (
        math.exp(max(u - 709.0, 0.0)) if u < 1419.0 else math.inf)
        for u, p, q in zip(s.tolist(), n0.tolist(), cn1.tolist())], complex)
    if not np.isfinite(v).all():
        raise ValueError(f"E_a({w[~np.isfinite(v)][0]:g}) exceeds a float "
                         f"at alpha = {a:g}")
    return v.reshape(np.shape(x)) if np.ndim(x) else complex(v[0])


def dunkl_kernel_it(alpha, t: float, x):
    """E_a(i t x) for real t and x that broadcast; returns a complex array."""
    a = _as_alpha(alpha)
    s = t * np.asarray(x, dtype=float)
    j0, j1 = _j_pair(a, s)
    return j0 + 1j * (s / (2.0 * (a + 1.0)) * j1)

