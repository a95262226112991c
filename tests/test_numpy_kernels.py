"""The numpy kernels that replace scipy at run time: the Golub-Welsch
Jacobi rule, the adaptive Gauss-Kronrod engine and the Bessel pair.
scipy and mpmath serve here only as oracles."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate as sint
from scipy.special import roots_jacobi

from dunkl_lab import taylor as T
from dunkl_lab.dunklcore import w_total_variation
from dunkl_lab.quad import (QuadratureError, _jacobi_ref, integrate,
                            jacobi_rule)
from dunkl_lab.special import (AlphaParam, _BESSEL_EDGES, _j_pair,
                               dunkl_kernel)

from oracles import MATRIX_RULES, theta_table, w_const

mp = pytest.importorskip("mpmath")


def test_import_loads_no_scipy():
    code = ("import sys, dunkl_lab, dunkl_lab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- Gauss-Jacobi rules --------------------------------------------------------

@pytest.mark.parametrize("n,ea,eb", MATRIX_RULES)
def test_jacobi_rule_matches_roots_jacobi(n, ea, eb):
    x, w = _jacobi_ref(n, ea, eb)
    xr, wr = roots_jacobi(n, eb, ea)
    np.testing.assert_allclose(x, xr, rtol=0.0, atol=2.3e-16)
    # roots_jacobi's own weights are off by up to 4e-10 at n = 200
    np.testing.assert_allclose(w, wr, rtol=1e-10, atol=0.0)


def _mp_jacobi_rule(n, e, x0):
    """30-digit Gauss rule for (1 - x^2)^e: Newton on P_n^(e,e) from x0,
    weights Gamma(n+e+1)^2 2^(2e+1) / (Gamma(n+2e+1) n! (1-x^2) P_n'^2)."""
    with mp.workdps(30):
        e = mp.mpf(e)
        dp = lambda x: (n + 2 * e + 1) / 2 * mp.jacobi(n - 1, e + 1, e + 1, x)
        xs, ws = [], []
        for v in x0:
            x = mp.mpf(v)
            for _ in range(3):
                x -= mp.jacobi(n, e, e, x) / dp(x)
            xs.append(float(x))
            ws.append(float(mp.gamma(n + e + 1) ** 2 * 2 ** (2 * e + 1)
                            / (mp.gamma(n + 2 * e + 1) * mp.factorial(n)
                               * (1 - x * x) * dp(x) ** 2)))
    return np.array(xs), np.array(ws)


@pytest.mark.parametrize("n,e,wtol", [(48, -0.75, 2e-14),
                                      (200, -0.75, 2e-13),
                                      (48, -0.5 + 1e-12, 2e-14),
                                      (200, -0.5 + 1e-12, 4e-13)])
def test_jacobi_rule_against_30_digit_rules(n, e, wtol):
    # the weights nearest +-1 move with the last bit of their node, which
    # sets the bound; roots_jacobi's equal-exponent (Gegenbauer) route is off
    # by 2e-3 at e = -1/2 + 1e-12 and by 4e-10 at n = 200, e = -0.75
    x, w = _jacobi_ref(n, e, e)
    xr, wr = _mp_jacobi_rule(n, e, x)
    np.testing.assert_allclose(x, xr, rtol=0.0, atol=2.3e-16)
    np.testing.assert_allclose(w, wr, rtol=wtol, atol=0.0)


@pytest.mark.parametrize("n,ea,eb", [(8, -0.45, 0.0), (48, -0.75, -0.75),
                                     (40, 11.0, 0.0), (160, 4.0, 0.0),
                                     (200, 0.5, 0.0), (33, 0.3, 2.7)])
def test_jacobi_rule_exact_to_degree_2n_minus_1(n, ea, eb):
    # int_0^1 z^j z^ea (1-z)^eb dz = B(j + ea + 1, eb + 1) for j < 2n; two
    # exponents by the reference rule on [-1, 1] moved to (0, 1)
    if eb == 0.0:
        z, w = jacobi_rule(n, ea, 0.0, 1.0)
    else:
        x, w = _jacobi_ref(n, ea, eb)
        z, w = 0.5 + 0.5 * x, w * 0.5 ** (ea + eb + 1.0)
    for j in sorted({0, 1, n // 2, n, 2 * n - 2, 2 * n - 1}):
        with mp.workdps(30):
            ref = float(mp.beta(j + ea + 1, eb + 1))
        assert np.dot(w, z ** j) == pytest.approx(ref, rel=2e-13)


# -- Bessel j_nu ---------------------------------------------------------------

BESSEL_Z = sorted({float(v) for v in np.geomspace(0.05, 1e3, 29)}
                  | {e for e in _BESSEL_EDGES[1:-1]}
                  | {math.nextafter(e, 0.0) for e in _BESSEL_EDGES[1:-1]})
# the former series + scipy.special.jv path was off by 5.6e-16, 8.0e-15,
# 1.6e-15, 2.0e-15, 2.5e-15, 7.8e-16, 3.3e-15 and 6.2e-14 on this grid
BESSEL_TOL = {-0.5: 4.5e-16, -0.25: 1e-15, 0.5: 4.5e-16, 0.75: 4.5e-16,
              1.5: 4.5e-16, 2.5: 4.5e-16, 17.5: 4.5e-16, 100.5: 4.5e-16,
              149.0: 4.5e-16}     # the largest order served


@pytest.mark.parametrize("nu", sorted(BESSEL_TOL))
def test_bessel_j_against_30_digit_values(nu):
    with mp.workdps(30):
        ref = [float(mp.gamma(nu + 1) * (2 / mp.mpf(z)) ** nu
                     * mp.besselj(nu, z)) for z in BESSEL_Z]
    z = np.array(BESSEL_Z)
    np.testing.assert_allclose(_j_pair(nu, z)[0], ref, rtol=0.0,
                               atol=BESSEL_TOL[nu])
    np.testing.assert_array_equal(_j_pair(nu, -z)[0], _j_pair(nu, z)[0])
    alone = [float(_j_pair(nu, v)[0]) for v in BESSEL_Z]
    assert alone == _j_pair(nu, z)[0].tolist()


def test_bessel_j_at_order_minus_half_is_cos():
    # Hankel's sums stop after their first term here, so they serve every
    # z >= 1 with no rounding of Miller's normalising sum
    z = np.linspace(0.0, 40.0, 20001)
    np.testing.assert_allclose(_j_pair(-0.5, z)[0], np.cos(z),
                               rtol=0.0, atol=2.3e-16)


@pytest.mark.parametrize("nu", [149.5, 200.5, 1000.5])
def test_bessel_j_past_the_largest_order_raises(nu):
    # past 149 Hankel's prefactor overflows; at 1000.5 no band serves z > 1000
    with pytest.raises(ValueError, match=r"supported range \[-1/2, 149\]"):
        _j_pair(nu, np.array([1.0, 2.0, 5.0, 300.0, 2000.0]))


# -- adaptive Gauss-Kronrod ----------------------------------------------------

def _theta_mass_quadpack(al, k, x):
    # Theta_{k-1}(x, y) = |x|^(k-1-2a-1) Theta_{k-1}(sgn x, y/|x|), on (0, |x|)
    ax = abs(x)
    terms = theta_table(al.alpha, k - 1, math.copysign(1.0, x))
    g = lambda y: ((abs(T._eval_terms(terms, y / ax))
                    + abs(T._eval_terms(terms, -y / ax)))
                   * ax ** (k - 1 - al.weight_exp) * y ** al.weight_exp)
    return sint.quad(g, 0.0, ax, epsabs=1e-11, epsrel=1e-9, limit=2000)[0]


# the identities suites' (alpha, k, x), the resonant suite's, and the
# cli-tables probe cells over the probes' range of x
THETA_CASES = sorted(
    {(a, k, x) for a in (-0.25, 0.5, 1.5) for k in (1, 2, 3)
     for x in (0.2, 0.8, 2.0)}
    | {(a, k, x) for a in (0.0, 1.0) for k in (1, 2, 3, 4)
       for x in (0.2, 0.8, 2.0)}
    | {(a, k, x) for a in (-0.25, 0.0, 0.5, 1.0, 1.5) for k in (1, 2, 3, 4)
       for x in (-1.7, -0.45, 0.2, 1.1, 2.0)})


def test_theta_mass_matches_quadpack():
    for a, k, x in THETA_CASES:
        al = AlphaParam(a)
        assert T.theta_mass(al, k, x) == pytest.approx(
            _theta_mass_quadpack(al, k, x), rel=1e-10), (a, k, x)


GRID6 = (0.2, 0.5, 0.9, 1.3, 2.0, 3.1)


@pytest.mark.parametrize("a", [-0.25, 0.5, 1.5])
def test_total_variation_matches_quadpack_and_closed_form(a):
    al = AlphaParam(a)
    e = a - 0.5
    const = w_const(a) * 2.0 ** (2.0 * a) / (2.0 * al.norm_const)
    for x in GRID6:
        for y in GRID6:
            tv = w_total_variation(al, x, y)
            if x != y:
                def g(t):
                    # |b0 + q| + |b0 - q| of the node t, for x, y > 0
                    q = (x + y) * (1.0 + t) / math.sqrt(x * x + y * y
                                                        + 2.0 * x * y * t)
                    return abs(1.0 + t + q) + abs(1.0 + t - q)

                ref = sint.quad(g, -1.0, 1.0, weight="alg", wvar=(e, e),
                                epsabs=1e-11, epsrel=1e-9, limit=2000)[0]
                assert tv == pytest.approx(const * ref, rel=1e-10), (x, y)
            else:
                # x = y: |W| integrates to 2 sqrt2 int_0^2 s^(e+1/2) (2-s)^e
                # ds; QUADPACK's alg weight misses it by 3.6e-10 at a = -0.25
                # and by 3.1e-11 at a = 1.5
                with mp.workdps(30):
                    ref = (2 * mp.sqrt(2) * 2 ** (2 * e + 1.5)
                           * mp.beta(e + 1.5, e + 1))
                assert tv == pytest.approx(const * float(ref), rel=2e-12)


def test_integrate_raises_when_it_cannot_converge():
    # 16,000 periods need more intervals than the subdivision budget: the
    # error names the budget and carries the partial sum and its estimate
    with pytest.raises(QuadratureError, match="maximum number of "
                       "subdivisions") as info:
        integrate(lambda x: np.cos(1e5 * x), 0.0, 1.0)
    assert math.isfinite(info.value.partial) and info.value.error > 1e-11


def test_integrate_raises_on_a_nan_value():
    with pytest.raises(QuadratureError, match="nan"):
        integrate(lambda x: np.where(x > 0.3, np.nan, x), 0.0, 1.0)


def test_integrate_stops_where_an_interval_is_too_narrow_to_bisect():
    # 1/x on (0, 1) is not integrable: bisection toward 0 ends at QUADPACK's
    # float-resolution test with a finite partial sum, before a node at 0
    # overflows (a RuntimeWarning fails the suite)
    with pytest.raises(QuadratureError, match="too narrow to bisect") as info:
        integrate(lambda x: 1.0 / x, 0.0, 1.0)
    assert 700.0 < info.value.partial < 720.0
    assert math.isfinite(info.value.error)


def test_integrate_stops_at_an_overflowing_integrand_value():
    # 1/x^2 overflows to inf at a node next to 0 before an interval is too
    # narrow to bisect: a QuadratureError with the finite partial sum, and
    # no warning from the rule's own arithmetic (only the integrand's)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(QuadratureError,
                           match="nan or infinite integrand value") as info:
            integrate(lambda x: 1.0 / x ** 2, 0.0, 1.0)
    assert math.isfinite(info.value.partial) and info.value.partial > 1e100
    assert [w.filename for w in seen if w.filename.endswith("quad.py")] == []


# -- the Dunkl kernel's arguments ----------------------------------------------

@pytest.mark.parametrize("w", [complex(math.nan, 0.0), complex(0.0, math.nan),
                               complex(math.inf, 1.0)])
def test_dunkl_kernel_refuses_a_non_finite_argument(w):
    with pytest.raises(ValueError, match="finite"):
        dunkl_kernel(AlphaParam(0.5), w, 1.0)
