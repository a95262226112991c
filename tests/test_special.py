import math

import numpy as np
import pytest
from scipy.special import jv

from dunkl_lab.special import (AlphaParam, pochhammer, dunkl_kernel,
                               dunkl_kernel_it, _j_pair)
from dunkl_lab.funcalg import dunkl_fd_power, hermite_phi

import oracles

ALPHAS = [-0.25, 0.5, 1.5]


def test_alpha_param_validation():
    with pytest.raises(ValueError):
        AlphaParam(-0.5)
    a = AlphaParam(0.5)
    assert a.norm_const == pytest.approx(2.0 ** 1.5 * math.gamma(1.5))
    assert a.weight_exp == pytest.approx(2.0)


def test_gamma_values():
    # norm_const = 2^(a+1) Gamma(a+1), refused where it overflows a float
    assert AlphaParam(0.0).norm_const == pytest.approx(2.0, rel=1e-12)
    assert AlphaParam(4.0).norm_const == pytest.approx(32.0 * 24.0, rel=1e-12)
    assert AlphaParam(-0.25).norm_const == pytest.approx(
        2.0 ** 0.75 * math.gamma(0.75), rel=1e-12)
    with pytest.raises(ValueError, match="too large"):
        AlphaParam(200.0)


def test_pochhammer_against_gamma_ratio():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = float(rng.uniform(0.3, 4.0))
        n = int(rng.integers(0, 6))
        assert pochhammer(a, n) == pytest.approx(
            math.gamma(a + n) / math.gamma(a), rel=1e-12)


def test_bessel_normalized_at_zero_and_half_order():
    for a in ALPHAS:
        assert float(_j_pair(a, 0.0)[0]) == 1.0
    # closed form: order 1/2 gives sin(z)/z
    for z in (0.3, math.pi, 7.5):
        assert float(_j_pair(0.5, z)[0]) == pytest.approx(
            math.sin(z) / z, abs=1e-13)


def test_bessel_normalized_series_and_evenness():
    z = 0.01
    a = 0.3
    expected = 1.0 - z * z / (4.0 * (a + 1.0))
    assert float(_j_pair(a, z)[0]) == pytest.approx(expected, abs=1e-9)
    zs = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(_j_pair(a, zs)[0], _j_pair(a, -zs)[0],
                               rtol=1e-14)


def test_bessel_normalized_matches_scipy_away_from_zero():
    for a in (0.25, 1.0, 2.5):
        for z in (0.5, 2.0, 11.0):
            ref = 2.0 ** a * math.gamma(a + 1.0) * jv(a, z) / z ** a
            assert float(_j_pair(a, z)[0]) == pytest.approx(ref, rel=1e-12)


def test_dunkl_kernel_initial_value_and_bound():
    for a in ALPHAS:
        al = AlphaParam(a)
        for lam in (3.0, -1.0j):
            assert dunkl_kernel(al, lam, 0.0) == 1.0
        xs = np.linspace(-6, 6, 61)
        vals = dunkl_kernel_it(AlphaParam(0.7), 3.0, xs)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_dunkl_kernel_takes_only_real_or_imaginary_lam(x):
    # real lam reads the scaled Bessel values, imaginary lam the J-Bessel
    # pair; a lam that is neither has no path, at x = 0 as well
    with pytest.raises(ValueError, match="real or imaginary"):
        dunkl_kernel(AlphaParam(0.5), 3.0 - 1.0j, x)


@pytest.mark.parametrize("a", [-0.25, 0.0, 0.5, 40.0])
def test_imaginary_lam_is_the_vectorized_kernel_bitwise(a):
    # imaginary lam has one implementation: E_a(i t x) of dunkl_kernel_it
    for t in (0.8, -2.5):
        for x in (0.0, 0.3, -0.3, 7.0, -7.0, 300.0, -300.0):
            got = np.complex128(dunkl_kernel(AlphaParam(a), 1j * t, x))
            assert got.tobytes() == np.complex128(
                dunkl_kernel_it(a, t, x)).tobytes(), (t, x)


def test_dunkl_kernel_eigen_equation_fd():
    # the kernel solves the first-order eigenproblem for the Dunkl operator
    al = AlphaParam(1.0)
    lam = 2.0
    # g maps the array of stencil points: one kernel call
    g = lambda x: np.real(dunkl_kernel(al, lam, x))
    val = dunkl_fd_power(al, g, 0.5, h=1e-4)
    assert val == pytest.approx(lam * g(0.5), rel=1e-9)


def test_dunkl_kernel_real_branch_consistent_with_series():
    al = AlphaParam(0.5)
    for lam, x in [(0.7, 0.9), (2.0, -1.3)]:
        # brute-force series of the unique analytic eigenfunction
        total, term = 0.0, 1.0
        z = lam * x
        series = sum((z / 2.0) ** (2 * m) / (pochhammer(al.alpha + 1.0, m)
                                             * math.factorial(m))
                     for m in range(40))
        series += sum((z / 2.0) ** (2 * m + 1)
                      / (pochhammer(al.alpha + 1.0, m + 1) * math.factorial(m))
                      for m in range(40))
        assert complex(dunkl_kernel(al, lam, x)).real == pytest.approx(
            series, rel=1e-12)


@pytest.mark.parametrize("a", [-0.25, 0.5, 1.5, 40.0])
def test_dunkl_kernel_on_an_array_equals_scalar_calls_bitwise(a):
    # real lam, |lam x| up to 710 (e^|w| in two factors past 709) and 0;
    # imaginary lam; then one entry past a float raises for the whole array
    al = AlphaParam(a)
    xs = np.array([[0.0, 0.3, -1.2, 5.0], [-300.0, 355.0, -355.0, 354.6]])
    for lam in (2.0, -2.0, 0.7, 2.5j):
        got = dunkl_kernel(al, lam, xs)
        one = [dunkl_kernel(al, lam, x) for x in xs.ravel().tolist()]
        assert got.shape == xs.shape and all(type(v) is complex for v in one)
        assert got.tobytes() == np.array(one).reshape(xs.shape).tobytes()
    for far in (700.0, 800.0):      # |w| = 1400, inside the split, and past
        with pytest.raises(ValueError, match="exceeds a float"):
            dunkl_kernel(al, -2.0, np.array([0.5, far]))


@pytest.mark.parametrize("a", [-0.25, 0.5, 1.5, 40.0])
def test_dunkl_kernel_past_exp_overflow(a):
    # e^|w| overflows a float from |w| = 709.78 on, E_a(w) only later: a
    # number where E_a is finite, the documented ValueError where it is not
    mp = pytest.importorskip("mpmath")
    for w in (700.0, -700.0, 710.0, -710.0):
        got = dunkl_kernel(AlphaParam(a), w, 1.0)
        assert got.imag == 0.0
        with mp.workdps(40):
            ref = oracles.dunkl_e(mp, a, w)
            assert abs(got.real - ref) <= 5e-13 * abs(ref), w
    with pytest.raises(ValueError, match="exceeds a float"):
        dunkl_kernel(AlphaParam(a), -1400.0, 1.0)


def _laguerre(n, a, u):
    # L_n^a(u) by the three-term recurrence, an oracle for hermite_phi
    prev, cur = np.ones_like(u), 1.0 + a - u
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 + a - u) * cur
                          - (m + a) * prev) / (m + 1.0)
    return prev if n == 0 else cur


def test_hermite_generalized_parity_and_laguerre_link():
    # hermite_phi(a, m) = L^2m e^{-x^2} = H_2m^(a+1/2) e^{-x^2} with
    # H_2m = (-1)^m 4^m m! L_m^a(x^2), the Laguerre polynomial by recurrence
    xs = np.linspace(-2, 2, 17)
    for a in (-0.25, 0.5, 1.5):
        for m in range(1, 4):
            phi = hermite_phi(a, m)
            np.testing.assert_allclose(phi(xs), phi(-xs), rtol=0.0, atol=0.0)
            ref = ((-1.0) ** m * 4.0 ** m * math.factorial(m)
                   * _laguerre(m, a, xs * xs) * np.exp(-xs * xs))
            np.testing.assert_allclose(phi(xs), ref, rtol=1e-12, atol=1e-12)
