"""The closed-form translation, the quadrature translation and convolution
of callables, the Gauss-Jacobi recurrence, Debye's tables,
GaussPolyFunction's evaluation and the finite-difference Dunkl operator
against their former forms (built on np.unique, numpy.polynomial, path keys
and fixed-size blocks of points, kept here as oracles): every value must be
the same float, bit for bit.  Only a NaN's sign bit may differ, which
follows the operand order inside numpy's loops and reaches no output."""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from dunkl_lab import dunklcore
from dunkl_lab import taylor as T
from dunkl_lab.dunklcore import (_closed_form_polys, _translate_closed,
                                 convolve, translate_many)
from dunkl_lab.funcalg import GaussPolyFunction, dunkl_fd_power, dunkl_power
from dunkl_lab.quad import _jacobi_ref, _norm_rules, kept_terms, rowdot
from dunkl_lab.special import (AlphaParam, _as_alpha, _debye_coeffs,
                               _scaled_j, dunkl_kernel, dunkl_kernel_it)
from dunkl_lab.verify import DEFAULT_ALPHAS, TEST_FUNCTIONS
from test_numpy_kernels import MATRIX_RULES


def _same_bits(new, old):
    """Equal shapes and dtypes, NaN where the oracle has NaN, and every other
    entry the same 64 bits (so -0.0 and 0.0 differ)."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    nan = np.isnan(old)
    assert np.array_equal(np.isnan(new), nan)
    assert np.array_equal(new[~nan].view(np.int64), old[~nan].view(np.int64))


# -- the former forms ----------------------------------------------------------

def _translate_closed_oracle(alpha, f, x, y, pair=False):
    """_translate_closed as it was with np.unique and numpy.polynomial's
    polyval, on the same factor cache."""
    a, s = alpha.alpha, f.gauss_scale
    shape = np.broadcast_shapes(x.shape, y.shape)
    (ux, ix), (uy, iy) = (np.unique(np.abs(v).ravel(), return_inverse=True)
                          for v in (x, y))
    grid = ux.size * uy.size <= math.prod(shape)
    ax, ay = (ux[:, None], uy) if grid else (np.abs(x), np.abs(y))
    pick = ix.reshape(x.shape) * uy.size + iy.reshape(y.shape)
    C, out = _closed_form_polys(a, f.coeffs, s, pair), np.zeros(shape)
    live = ((ax != 0.0) & (ay != 0.0)).ravel()
    factors = dunklcore._FACTORS
    with np.errstate(over="ignore", invalid="ignore"):
        w = (2.0 * s * (ax * ay)).ravel()
        g = np.exp(-s * (ax - ay) ** 2).ravel()
        for i, c in enumerate((g, 0.5 * w / (a + 1.0) * g)):
            if C[..., i].any():
                key = (a, i, s, ux.tobytes(), uy.tobytes()) if grid else None
                v = factors.pop(key, None)
                if v is None and live.all():
                    v = c * _scaled_j(a + i, w)
                elif v is None:
                    v = np.zeros(w.size)
                    v[live] = c[live] * _scaled_j(a + i, w[live])
                if grid and v.size <= dunklcore._FACTOR_CELLS:
                    v.flags.writeable = False
                    factors[key] = v
                    if len(factors) > dunklcore._FACTOR_ENTRIES:
                        del factors[next(iter(factors))]
                v = (v[pick] if grid else v.reshape(shape)) * P.polyval(
                    y, P.polyval(x, C[..., i]), tensor=False)
                out += np.sign(x * y) * v if i else v
        mass = (x == 0.0) | (y == 0.0)
        if mass.any():
            xm, ym = (np.broadcast_to(v, shape)[mass] for v in (x, y))
            out[mass] = f(xm + ym) + f(ym - xm) if pair else f(xm + ym)
    return out


#: the former cap on point-node pairs per quadrature call and on translated
#: points per convolve call
_OLD_BLOCK = 16384


def _translate_many_oracle(alpha, f, x, ys):
    """translate_many as it was: a callable's points in blocks of
    _OLD_BLOCK // 48 = 341, one _translate_quadrature call each."""
    x, ys = np.asarray(x, dtype=float), np.asarray(ys, dtype=float)
    if dunklcore._has_closed_form(f):
        return _translate_closed(alpha, f, x, ys)
    xb, yb = np.broadcast_arrays(x, ys)
    mass = ((xb == 0.0) | (yb == 0.0)).ravel()
    xv, yv = xb.ravel()[~mass], yb.ravel()[~mass]
    step = max(1, _OLD_BLOCK // dunklcore.TRANSLATE_NODES)
    out = np.concatenate([dunklcore._translate_quadrature(
        alpha, f, xv[i:i + step], yv[i:i + step])
        for i in range(0, max(xv.size, 1), step)])
    if mass.any():
        fm = np.asarray(f(xb.ravel()[mass] + yb.ravel()[mass])).ravel()
        vals, out = out, np.empty(mass.size, np.result_type(out, fm))
        out[~mass], out[mass] = vals, fm
    return out.reshape(xb.shape)


def _convolve_oracle(alpha, f, g, x):
    """convolve of a callable g as it was: the x in blocks of at most
    _OLD_BLOCK translated points, one _translate_many_oracle call each."""
    y, w = _norm_rules(alpha)
    gy, gmy = np.split(np.asarray(g(np.concatenate([y, -y]))), 2)
    keep = kept_terms(w * np.maximum(np.abs(gy), np.abs(gmy)))
    y, w, gy, gmy = (v[keep] for v in (y, w, gy, gmy))
    ypm = np.concatenate([-y, y])
    xv = np.reshape(x, (-1, 1)).astype(float)
    step = max(1, _OLD_BLOCK // ypm.size)
    out = []
    for i in range(0, xv.shape[0], step):
        tau = _translate_many_oracle(alpha, f, xv[i:i + step], ypm)
        out.append(rowdot(w, tau[:, :y.size] * gy + tau[:, y.size:] * gmy))
    return (np.concatenate(out) / alpha.norm_const).reshape(np.shape(x))[()]


def _jacobi_ref_oracle(n, exp_a, exp_b):
    """_jacobi_ref as it was: one scalar-row recurrence step at a time."""
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
    b = [0.0] + b + [1.0]
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


def _debye_coeffs_oracle(nu):
    """_debye_coeffs as it was, on numpy.polynomial's algebra."""
    u, cs = np.ones(1), np.zeros(25)
    for k in range(9):
        cs[:u.size] += u * nu ** -k
        u = P.polyadd(P.polymul([0.0, 0.0, 0.5, 0.0, -0.5], P.polyder(u)),
                      P.polyint(P.polymul([0.125, 0.0, -0.625], u)))
    c = sum(b * nu ** (1 - 2 * i) for i, b in enumerate(
        (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360), 1))
    return math.exp(c) * cs[::-1]


def _gauss_poly_oracle(f, x):
    """GaussPolyFunction.__call__ as it was."""
    x = np.asarray(x, dtype=float)
    p = P.polyval(x, np.array(f.coeffs))
    if f.gauss_scale > 0.0:
        p = p * np.exp(-f.gauss_scale * x * x)
    return p if p.ndim else float(p)


def _dunkl_fd_power_oracle(alpha, g, a, k=1, h=1e-3):
    """dunkl_fd_power as it was: a breadth-first walk of path keys s + i m,
    each point the float of the first path reaching it, and the columns of
    every order merged by np.unique."""
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


# -- the closed-form translation ----------------------------------------------

SPECIAL = np.array([0.0, -0.0, 0.7, -0.7, 1.3, math.nan, math.inf,
                    -math.inf, 2.5, -2.5, 1e-300, 30.0])
FUNCTIONS = [GaussPolyFunction((1.0,), 1.0),
             GaussPolyFunction((1.0, 1.0, 0.0, 1.0), 0.5),
             GaussPolyFunction((0.3, -1.2, 0.5), 0.734512),
             GaussPolyFunction((0.0, 1.0), 0.25)]
SHAPES = [((), ()), ((), (1,)), ((), (2,)), ((), (80,)), ((1,), ()),
          ((6, 1), (1, 9)), ((3, 1, 4), (2, 4)), ((5,), (5,)),
          ((0,), ()), ((), (0,)), ((2, 1), (1, 0))]


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 1.5, 20.0])
@pytest.mark.parametrize("f", FUNCTIONS, ids=range(len(FUNCTIONS)))
@pytest.mark.parametrize("pair", [False, True])
def test_translate_closed_matches_its_former_form(alpha, f, pair):
    al, rng = AlphaParam(alpha), np.random.default_rng(7)
    for sx, sy in SHAPES:
        # plain values, then the special ones (signed zeros, repeated |x|,
        # nan, +-inf, an underflowing product) on x alone and on both
        for x, y in ((rng.uniform(-3.0, 3.0, sx), rng.uniform(-3.0, 3.0, sy)),
                     (rng.choice(SPECIAL, sx), rng.uniform(-3.0, 3.0, sy)),
                     (rng.choice(SPECIAL, sx), rng.choice(SPECIAL, sy))):
            x, y = np.asarray(x, float), np.asarray(y, float)
            with np.errstate(all="ignore"):
                old = _translate_closed_oracle(al, f, x, y, pair)
                # the oracle filled the factor cache: clear it so the new
                # form computes its own factors too
                dunklcore._FACTORS.clear()
                _same_bits(_translate_closed(al, f, x, y, pair), old)
                # and once more from the cache the call just filled
                _same_bits(_translate_closed(al, f, x, y, pair), old)


@pytest.mark.parametrize("v", [np.zeros(0), np.array([2.0]),
                               np.array([3.0, 1.0, 3.0, 0.0, 1.0, 3.0]),
                               np.array([math.inf, 0.5, math.inf, 0.0]),
                               np.abs(np.random.default_rng(3).normal(
                                   size=500)).round(1)])
def test_distinct_is_np_unique_with_inverse(v):
    u, inv = dunklcore._distinct(v)
    ru, rinv = np.unique(v, return_inverse=True)
    _same_bits(u, ru)
    assert inv.dtype == rinv.dtype and np.array_equal(inv, rinv)


# -- the quadrature translation and convolution of callables -------------------

def _callables(al):
    """A real, a complex and a sign-changing callable, none in closed form."""
    return [lambda z: FUNCTIONS[1](z), lambda z: dunkl_kernel_it(al, 1.3, z),
            GaussPolyFunction((0.5, -1.0, 0.25))]


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_translate_many_of_a_callable_matches_its_blocks(alpha):
    # 351 and 1,000 points span two and three former blocks of 341; point
    # masses (x = 0 or y = 0) among them, all of them, and none at all
    al, rng = AlphaParam(alpha), np.random.default_rng(13)
    x351 = rng.uniform(-3.0, 3.0, 351)
    x351[[0, 200, 340, 341]] = 0.0
    y1000 = rng.uniform(-3.0, 3.0, (40, 25))
    y1000[3, :] = 0.0
    for f in _callables(al):
        for x, y in ((x351, 0.7), (x351, rng.uniform(-3.0, 3.0, 351)),
                     (rng.uniform(-3.0, 3.0, (40, 1)), y1000),
                     (0.9, y1000), (np.zeros(5), 1.1), (np.zeros(0), 0.4)):
            _same_bits(translate_many(al, f, x, y),
                       _translate_many_oracle(al, f, x, y))


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_convolve_of_a_callable_matches_its_blocks(alpha):
    # 384 x (x = 0, a point mass, among them) against a callable g span
    # three former blocks of translated points, and 200 x with both f and g
    # callable span two
    al = AlphaParam(alpha)
    g = lambda z: GaussPolyFunction((1.0, 0.5), 4.0)(z)
    per_x = 2 * dunklcore._kept_nodes(al, g)[0].size
    assert 2 * _OLD_BLOCK < 384 * per_x and _OLD_BLOCK < 200 * per_x
    xs = np.linspace(-6.0, 6.0, 385)[:384]
    assert 0.0 in xs
    for f in (FUNCTIONS[1], FUNCTIONS[3]):
        _same_bits(convolve(al, f, g, xs), _convolve_oracle(al, f, g, xs))
        _same_bits(convolve(al, f, g, 0.3), _convolve_oracle(al, f, g, 0.3))
    xs = np.linspace(-3.0, 3.0, 200)
    f = _callables(al)[0]
    _same_bits(convolve(al, f, g, xs), _convolve_oracle(al, f, g, xs))
    # no x: the blocks' concatenate raised on its empty list of blocks
    assert convolve(al, f, g, np.zeros(0)).shape == (0,)


# -- the finite-difference Dunkl operator --------------------------------------

def _kernel_g(al, lam):
    return lambda t: dunkl_kernel(al, lam, t).real


@pytest.mark.parametrize("k", [0, 1, (0, 1)], ids=str)
@pytest.mark.parametrize("h", [1e-4, 2e-3])
def test_dunkl_fd_power_low_orders_match_the_path_keys(k, h):
    # up to order 1 every stencil point is a + m h with |m| <= 2 or -a: the
    # same floats on the lattice as on the paths, at any centre
    rng = np.random.default_rng(11)
    f = GaussPolyFunction((1.0, 0.5, 1.0), 1.0)
    for shape in [(), (1,), (3,), (2, 4), (2, 1, 3)]:
        a = rng.uniform(-3.0, 3.0, shape)
        for alpha in (-0.25, 0.5, 1.5):
            for g in (f, _kernel_g(AlphaParam(alpha), 2.0)):
                _same_bits(dunkl_fd_power(alpha, g, a, k, h),
                           _dunkl_fd_power_oracle(alpha, g, a, k, h))


@pytest.mark.parametrize("alpha", DEFAULT_ALPHAS)
def test_dunkl_fd_power_matches_the_path_keys_where_verify_reads(alpha):
    # verify's calls: the real-lambda kernel at orders (0, 1), centres 0.5
    # and -1.2, h = 1e-4; the rows x of I_j(x, f)(t) at orders up to 2,
    # centre 0.45, h = 2e-3, where a + m h for |m| <= 4 is the paths' float
    al = AlphaParam(alpha)
    for lam in (0.8, 2.0):
        g = _kernel_g(al, lam)
        _same_bits(dunkl_fd_power(al, g, (0.5, -1.2), (0, 1), h=1e-4),
                   _dunkl_fd_power_oracle(al, g, (0.5, -1.2), (0, 1), h=1e-4))
    f = TEST_FUNCTIONS[2][1]
    x2, u2 = np.array([0.7, -1.3]), np.array([0.45, 0.45])
    for j, fj in ((1, f), (1, dunkl_power(al, f, 1)), (2, f)):
        g = lambda t: T.iterated_integral_I(al, j, fj, x2[:, None], t)
        for k in (1, 2, (1, 2)):
            _same_bits(dunkl_fd_power(al, g, u2, k, h=2e-3),
                       _dunkl_fd_power_oracle(al, g, u2, k, h=2e-3))


# -- Gauss-Jacobi rules, Debye's tables, GaussPolyFunction ---------------------

@pytest.mark.parametrize("n,ea,eb", sorted(set(
    MATRIX_RULES + [(1, 0.0, 0.0), (1, 0.5, 0.0), (2, -0.75, -0.75),
                    (400, 0.5, 0.0), (400, 2.0, 0.0)]
    + [(n, ea, eb) for n in (40, 200) for ea, eb in (
        (301.0, 0.0), (-0.9, 0.0), (-0.75, -0.75), (-0.5, -0.5))])))
def test_jacobi_rule_matches_its_former_recurrence(n, ea, eb):
    for new, old in zip(_jacobi_ref.__wrapped__(n, ea, eb),
                        _jacobi_ref_oracle(n, ea, eb)):
        _same_bits(new, old)


@pytest.mark.parametrize("nu", [18.1, 19.0, 20.5, 40.0, 60.25, 100.0, 148.0,
                                151.0])
def test_debye_table_matches_its_former_form(nu):
    _same_bits(_debye_coeffs(nu), _debye_coeffs_oracle(nu))


@pytest.mark.parametrize("coeffs", [(1.0,), (-0.5,), (1.0, -2.0, 0.5, 3.0),
                                    (0.0, 1.0)])
@pytest.mark.parametrize("s", [0.0, 0.7])
def test_gauss_poly_call_matches_its_former_form(coeffs, s):
    f, rng = GaussPolyFunction(coeffs, s), np.random.default_rng(5)
    for x in (0.3, -0.0, np.float64(-2.0), np.asarray(1.5),
              rng.normal(size=7), rng.normal(size=(3, 4)),
              np.array([math.nan, math.inf, -math.inf, -0.0, 0.0])):
        with np.errstate(all="ignore"):
            new, old = f(x), _gauss_poly_oracle(f, x)
        assert type(new) is type(old)
        _same_bits(new, old)


def test_import_loads_no_numpy_polynomial():
    code = ("import sys, dunkl_lab, dunkl_lab.cli; print(sorted(m for m in "
            "sys.modules if m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
