"""Oracles and tables shared by the test modules.  An mpmath oracle takes
the mpmath module as its first argument and works at the caller's precision
(``with mp.workdps(40): ...``): this module imports without mpmath.
f = P e^{-s.^2} is a GaussPolyFunction, its floats taken exactly;
coefficient lists run from degree 0 up."""

import math
from itertools import zip_longest

from dunkl_lab.taylor import _theta_terms


def _axpy(c, p, q):
    return [c * u + v for u, v in zip_longest(p, q, fillvalue=0)]


def dunkl_step(mp, alpha, s, c):
    """Q with L(P e^{-s.^2}) = Q e^{-s.^2}, P's coefficients c: y^i goes to
    i y^(i-1) - 2s y^(i+1) + [i odd] (2a+1) y^(i-1)."""
    a, s = mp.mpf(alpha), mp.mpf(s)
    out = [mp.mpf(0)] * (len(c) + 1)
    for i, v in enumerate(c):
        out[i + 1] -= 2 * s * v
        if i:
            out[i - 1] += (i + (2 * a + 1) * (i % 2)) * v
    return out


def dunkl_power(mp, alpha, f, p, y):
    """L^p f(y), by p exact steps on f's coefficients."""
    c, y = [mp.mpf(v) for v in f.coeffs], mp.mpf(y)
    for _ in range(p):
        c = dunkl_step(mp, alpha, f.gauss_scale, c)
    return mp.polyval(c[::-1], y) * mp.exp(-f.gauss_scale * y * y)


def lambda_poly(mp, alpha, s, c):
    """P with sum_j c_j L^j e^{-s.^2} = P e^{-s.^2}."""
    row, out = [mp.mpf(1)], []
    for cj in c:
        out, row = _axpy(cj, row, out), dunkl_step(mp, alpha, s, row)
    return out


def lambda_coords(mp, alpha, f):
    """f's Lambda-coordinates, c with f = sum_j c_j L^j e^{-s.^2} (s > 0),
    by back substitution: L^j e^{-s.^2} e^{s.^2} has degree j."""
    rows = [[mp.mpf(1)]]
    while len(rows) < len(f.coeffs):
        rows.append(dunkl_step(mp, alpha, f.gauss_scale, rows[-1]))
    rest, c = [mp.mpf(v) for v in f.coeffs], []
    for row in rows[::-1]:
        c.insert(0, rest[len(row) - 1] / row[-1])
        rest = _axpy(-c[0], row, rest)
    return c


def bessel_f(mp, nu, u):
    """F_nu(u) = 0F1(nu + 1; u^2/4) = j_nu(iu), u real."""
    return mp.hyp0f1(nu + 1, u * u / 4)


def dunkl_e(mp, alpha, u):
    """The Dunkl kernel E_a(u) = F_a(u) + u/(2(a+1)) F_(a+1)(u), u real."""
    a, u = mp.mpf(alpha), mp.mpf(u)
    return bessel_f(mp, a, u) + u / (2 * (a + 1)) * bessel_f(mp, a + 1, u)


def scaled_j(mp, nu, w):
    """n_nu(w) = e^{-w} j_nu(iw) = Gamma(nu+1) (2/w)^nu I_nu(w) e^{-w}."""
    nu, w = mp.mpf(nu), mp.mpf(w)
    return mp.gamma(nu + 1) * (2 / w) ** nu * mp.besseli(nu, w) * mp.exp(-w)


def b_coeff(mp, alpha, p, x):
    """b_p(x) = (x/2)^p / ((a+1)_(ceil(p/2)) floor(p/2)!), L b_(p+1) = b_p."""
    return ((mp.mpf(x) / 2) ** p
            / (mp.rf(mp.mpf(alpha) + 1, (p + 1) // 2) * mp.factorial(p // 2)))


def tau(mp, alpha, f, x, ys):
    """[tau_x f(y) for y in ys], f of any degree, s > 0: tau_x e^{-s.^2}(y)
    = e^{-s(x^2+y^2)} E_a(u), u = -2sxy (Roesler, Comm. Math. Phys. 192,
    1998), and tau_x commutes with L, so tau_x f(y) = e^{-s(x^2+y^2)} sum_i
    Q_i(y) F_(a+i)(u).  E_a gives Q_0 = 1, Q_1 = -sxy/(a+1); an L_y step
    takes each Q_i to its dunkl_step and, as d/dy F_nu(u) = 2 s^2 x^2 y
    F_(nu+1)(u) / (nu+1), adds 2 s^2 x^2 y Q_i / (a+i+1) to Q_(i+1).  The
    ladders weighted by f's Lambda-coordinates are summed first."""
    a, s, x = (mp.mpf(v) for v in (alpha, f.gauss_scale, x))
    q, total = [[mp.mpf(1)], [0, -s * x / (a + 1)]], []
    for cj in lambda_coords(mp, alpha, f):
        total = [_axpy(cj, r, t)
                 for r, t in zip_longest(q, total, fillvalue=[])]
        step = [dunkl_step(mp, a, s, r) for r in q] + [[]]
        for i, r in enumerate(q):
            step[i + 1] = _axpy(2 * (s * x) ** 2 / (a + i + 1), [0] + r,
                                step[i + 1])
        q = step
    return [mp.exp(-s * (x * x + y * y)) * mp.fsum(
        mp.polyval(r[::-1], y) * bessel_f(mp, a + i, -2 * s * x * y)
        for i, r in enumerate(total)) for y in map(mp.mpf, ys)]


def w_const(a):
    """The constant of the translation density W_a(x, y, z)."""
    return math.gamma(a + 1.0) ** 2 / (2.0 ** (a - 1.0) * math.sqrt(math.pi)
                                       * math.gamma(a + 0.5))


def theta_table(a, k, sign):
    """Term table of Theta_k(sign, .), sign = +-1, from the library's one of
    Theta_k(1, .): Theta_k(-1, t) = (-1)^(k+1) Theta_k(1, -t)."""
    return tuple((c * (-1) ** (k + 1 + sp) if sign < 0.0 else c, sp, e, j)
                 for c, sp, e, j in _theta_terms(a, k))


# every (n, exp_a, exp_b) that verify and the benchmark
# workloads request, and the sizes 120 and 200 beyond them
MATRIX_RULES = (
    [(32, e, 0.0) for e in (0.0, 0.5, 2.0, 4.0)]
    + [(40, e, 0.0) for e in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0,
                              5.0, 6.0, 7.0, 8.0, 11.0)]
    + [(48, e, e) for e in (-0.75, 0.0, 1.0)]
    + [(n, e, 0.0) for n in (80, 120, 200) for e in (0.5, 2.0, 4.0)]
    + [(160, e, 0.0) for e in (0.5, 1.0, 2.0, 3.0, 4.0)])
