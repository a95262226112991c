"""The Bessel kernel of the closed-form translation,
n_nu(w) = e^{-w} j_nu(iw), against tabulated 30-digit values, 40-digit
mpmath at the orders below the table's and at the large orders of Debye's
band, the half-integer closed form, and its layout independence."""

import math

import numpy as np
import pytest

from dunkl_lab import dunklcore
from dunkl_lab.special import (AlphaParam, _BESSEL_EDGES, _bessel_tables,
                               _scaled_j)
from dunkl_lab.taylor import symmetric_remainder_profile
from dunkl_lab.verify import CATALOG

# (nu, w, n_nu(w)): both sides of every band edge, and w up to 8e4; made
# once with mpmath 1.3 at 30 digits (w is the exact binary value shown):
#   from mpmath import mp, mpf, gamma, besseli, exp
#   mp.dps = 30
#   n = lambda nu, w: gamma(mpf(nu) + 1) * (2 / mpf(w)) ** mpf(nu) \
#       * besseli(mpf(nu), mpf(w)) * exp(-mpf(w))
#   print(repr(float(n(nu, w))))
TABLE = [
    (0.75, 0.24999999999999997, 0.7857741434351928),
    (0.75, 1.5, 0.3025634358562059),
    (0.75, 7.999999999999999, 0.04488225284620151),
    (0.75, 26.0, 0.010438758845774977),
    (0.75, 39.99999999999999, 0.006105685670462419),
    (0.75, 500.0, 0.0002607229509780787),
    (0.75, 999.9999999999999, 0.00010963765272018195),
    (1.0, 0.25, 0.7849010295789459),
    (1.0, 2.0, 0.21526928924893765),
    (1.0, 8.0, 0.03353562332317454),
    (1.0, 33.0, 0.004160611331333571),
    (1.0, 40.0, 0.003124111453722103),
    (1.0, 1000.0, 2.5221860513857258e-05),
    (1.0, 4000.0, 3.153619949827753e-06),
    (1.5, 1e-06, 0.9999990000006),
    (1.5, 0.9999999999999999, 0.4060058497098381),
    (1.5, 5.5, 0.04057197801101551),
    (1.5, 14.999999999999998, 0.006222222222222889),
    (1.5, 45.0, 0.0007242798353909465),
    (1.5, 79.99999999999999, 0.00023144531250000007),
    (1.5, 25000.0, 2.399904e-09),
    (1.75, 0.1, 0.9056602717481677),
    (1.75, 1.0, 0.4024575847365944),
    (1.75, 11.0, 0.008566343347501804),
    (1.75, 15.0, 0.004423537377558795),
    (1.75, 60.0, 0.00021037348398995906),
    (1.75, 80.0, 0.00011077992884638034),
    (1.75, 80000.0, 2.0050978020852626e-11),
    (2.5, 0.5, 0.6174370645557534),
    (2.5, 2.9999999999999996, 0.09098599395956812),
    (2.5, 13.0, 0.0026865575165486958),
    (2.5, 24.999999999999996, 0.0004247040000000002),
    (2.5, 130.0, 3.3355732534682853e-06),
    (2.5, 199.99999999999997, 9.235078125000004e-07),
    (3.5, 0.6, 0.5598780900895672),
    (3.5, 3.0, 0.08040647598892214),
    (3.5, 20.0, 0.000241376953125),
    (3.5, 25.0, 0.000105240576),
    (3.5, 200.0, 3.18403681640625e-08),
    (3.5, 300.0, 6.352928497942387e-09),
]


@pytest.mark.parametrize("nu", sorted({nu for nu, _, _ in TABLE}))
def test_kernel_matches_tabulated_values(nu):
    rows = [(w, v) for n, w, v in TABLE if n == nu]
    w = np.array([w for w, _ in rows])
    ref = np.array([v for _, v in rows])
    np.testing.assert_allclose(_scaled_j(nu, w), ref, rtol=4e-15, atol=0.0)


def test_table_covers_both_sides_of_every_band_edge():
    ws = {w for _, w, _ in TABLE}
    for edge in _BESSEL_EDGES[:-1]:
        assert edge in ws and math.nextafter(edge, 0.0) in ws, edge
    assert max(ws) >= 8e4


def test_half_integer_closed_form():
    # j_{3/2}(iw) = 3 (w cosh w - sinh w) / w^3, so
    # n_{3/2}(w) = 3 ((w - 1) + (w + 1) e^{-2w}) / (2 w^3)
    w = np.geomspace(1.0, 8e4, 400)
    ref = 3.0 * ((w - 1.0) + (w + 1.0) * np.exp(-2.0 * w)) / (2.0 * w ** 3)
    np.testing.assert_allclose(_scaled_j(1.5, w), ref, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("nu", [-0.25, 0.0, 0.25, 0.5])
def test_low_orders_match_mpmath(nu):
    # the closed form takes n_a for alpha in (-1/2, 16]: the orders below
    # the table's, at 40 digits, on both sides of every band edge
    mp = pytest.importorskip("mpmath")
    edges = list(_BESSEL_EDGES[:-1])
    w = np.unique(edges + [math.nextafter(e, 0.0) for e in edges]
                  + np.geomspace(1e-6, 8e4, 61).tolist())
    with mp.workdps(40):
        n = lambda v: (mp.gamma(nu + 1) * (2 / v) ** nu * mp.besseli(nu, v)
                       * mp.exp(-v))
        ref = np.array([float(n(mp.mpf(v))) for v in w.tolist()])
    np.testing.assert_allclose(_scaled_j(nu, w), ref, rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("nu", [0.5 + 1e-15, 0.75, 2.5, 9.0])
def test_kernel_at_zero_is_one(nu):
    assert _scaled_j(nu, np.array([0.0]))[0] == 1.0
    assert _scaled_j(nu, np.array([0.0, 1e-200, 3.0]))[:2].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("nu", [0.75, 1.5, 3.5])
def test_value_does_not_depend_on_its_call(nu):
    rng = np.random.default_rng(7)
    w = np.unique(np.concatenate([rng.uniform(0.0, 60.0, 300),
                                  np.geomspace(1e-8, 8e4, 100),
                                  list(_BESSEL_EDGES[:-1])]))
    whole = _scaled_j(nu, w)
    alone = np.concatenate([_scaled_j(nu, w[i:i + 1]) for i in range(w.size)])
    assert np.array_equal(whole, alone)
    assert np.array_equal(whole[50:90], _scaled_j(nu, w[50:90]))


def test_term_counts_per_band():
    # series terms grow with the band's top edge, Hankel terms fall with its
    # bottom edge; a half-integer order's Hankel sum terminates
    for nu in (0.75, 1.75, 3.5):
        bands = _bessel_tables(nu)
        series = [len(cs) for kind, cs in bands if kind == "series"]
        hankel = [len(cs) for kind, cs in bands if kind == "hankel"]
        assert len(series) == 6 and len(hankel) == 5
        assert series == sorted(series) and hankel == sorted(hankel)[::-1]
        assert 6 <= min(series) and max(series) <= 41
        assert 2 <= min(hankel) and max(hankel) <= 21
    assert {len(cs) for kind, cs in _bessel_tables(2.5)
            if kind == "hankel"} == {4}


def test_every_admitted_order_has_tables():
    # Hankel cancels at w = 80 from nu ~ 18.08 on: the series up to w = 80,
    # Debye's expansion above it, up to the largest order AlphaParam admits
    top = AlphaParam(150.017).alpha + 1.0
    with pytest.raises(ValueError, match="too large"):
        AlphaParam(150.018)
    for nu in np.r_[np.linspace(-0.49, top, 60), 18.0, 18.1]:
        kinds = [kind for kind, _ in _bessel_tables(float(nu))]
        assert len(kinds) == len(_BESSEL_EDGES)
        assert kinds[:6] == ["series"] * 6 and kinds[6] in ("series", "hankel")
        if nu <= 18.0:
            assert kinds[8:] == ["hankel"] * 3, nu
        else:
            assert kinds[6:] == ["series"] * 2 + ["debye"] * 3, nu


@pytest.mark.parametrize("nu", [18.25, 20.0, 40.5, 58.5, 63.5, 100.0, 148.0,
                                151.0])
def test_large_orders_match_mpmath(nu):
    # Debye's band from w = 80 up, the series below it, at 40 digits, on
    # both sides of every band edge, wherever n_nu(w) >= 1e-290; at nu =
    # 58.5 and 63.5 Hankel's terms would serve above w = 1000, but its
    # w^-(nu+1/2) underflows at w = 3e5 (30% off and 0 there)
    mp = pytest.importorskip("mpmath")
    edges = list(_BESSEL_EDGES[:-1])
    w = np.unique(edges + [math.nextafter(e, 0.0) for e in edges]
                  + [math.nextafter(e, math.inf) for e in edges]
                  + np.geomspace(1e-6, 8e4, 61).tolist() + [3e5, 1e6, 3e6])
    with mp.workdps(40):
        n = lambda v: (mp.gamma(nu + 1) * (2 / v) ** nu * mp.besseli(nu, v)
                       * mp.exp(-v))
        ref = np.array([float(n(mp.mpf(v))) for v in w.tolist()])
    keep = ref >= 1e-290
    assert keep.sum() >= 40
    np.testing.assert_allclose(_scaled_j(nu, w)[keep], ref[keep], rtol=5e-14,
                               atol=0.0)


@pytest.mark.parametrize("alpha", [17.0, 40.0, 100.0, 150.0])
def test_large_orders_never_reach_the_quadrature(monkeypatch, alpha):
    # every algebra element translates in closed form at every alpha, alone
    # and as the symmetric sum of the Besov C samples
    def refuse(*args):
        raise AssertionError("quadrature used")

    monkeypatch.setattr(dunklcore, "_translate_quadrature", refuse)
    al = AlphaParam(alpha)
    x = np.array([[-30.0], [-1.3], [0.0], [0.4], [2.0], [100.0]])
    ys = np.array([-0.7, 0.0, 0.25, 1.9, 50.0])
    for f in CATALOG.values():
        assert np.all(np.isfinite(dunklcore.translate_many(al, f, x, ys)))
        for k in (0, 1, 3):
            prof = symmetric_remainder_profile(al, k, f, x)(ys)
            assert prof.shape == (6, 5) and np.all(np.isfinite(prof))
